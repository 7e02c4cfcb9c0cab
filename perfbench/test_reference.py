"""Analytic identities of the benchmark's reference computations.

    python3 -m pytest perfbench/test_reference.py

These tests need numpy, scipy and pytest, and not combofit.
"""

import math

import numpy as np
import pytest
from scipy.special import expit

import reference as ref


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_cox_de_boor_is_a_partition_of_unity(degree):
    knots = ref.knot_ladder(-2.0, 5.0, 7, degree)
    x = np.concatenate((np.linspace(-2.0, 5.0, 301), knots[degree:-degree]))
    B = ref.cox_de_boor(x, knots, degree)
    assert B.shape == (x.size, 7)
    assert np.all(B >= 0.0)
    np.testing.assert_allclose(B.sum(axis=1), 1.0, rtol=0, atol=1e-14)


def test_uniform_cubic_basis_has_its_textbook_knot_values():
    # A uniform cubic B-spline is 1/6, 4/6, 1/6 at its three inner knots.
    knots = ref.knot_ladder(0.0, 6.0, 9, 3)
    B = ref.cox_de_boor(np.array([3.0]), knots, 3)[0]
    np.testing.assert_allclose(sorted(B[B > 1e-15]), [1 / 6, 1 / 6, 4 / 6], atol=1e-14)


def test_rvus_of_a_constant_surface_is_the_constant():
    ax1 = np.array([-6.0, -4.0, -3.0, 0.5, 5.0])
    ax2 = np.array([-5.5, -3.5, -1.0, 2.0])
    for c in (0.0, 0.3, 1.0):
        surface = np.full((2, ax1.size, ax2.size), c)
        np.testing.assert_allclose(ref.rvus(surface, ax1, ax2, np.ones(2)), c, atol=1e-15)


def test_trapezoid_weights_integrate_linear_functions_exactly():
    x = np.array([0.0, 0.1, 0.5, 2.0, 2.5])
    w = ref.trapezoid_weights(x)
    assert math.isclose(w.sum(), 2.5)
    assert math.isclose(w @ (3.0 * x + 1.0), 1.5 * 2.5 ** 2 + 2.5)


def test_dss_is_zero_for_an_inactive_drug():
    # EC50 far above the window: activity never reaches the threshold.
    assert ref.dss(np.array([20.0]), np.array([1.0]), -4.0, 5.0)[0] == 0.0
    # Activity crosses the threshold at 4.9, but its area stays below t * R.
    assert ref.dss(np.array([4.9 + math.log10(9.0)]), np.array([1.0]), -4.0, 5.0)[0] == 0.0


def test_dss_matches_a_dense_quadrature():
    lo, hi, t = -4.0, 5.0, 0.1
    for m, lam in ((0.3, 0.7), (-2.0, 2.5), (4.0, 0.4)):
        x_t = min(max(m + math.log10(t / (1 - t)) / lam, lo), hi)
        x = np.linspace(x_t, hi, 400_001)
        auc = np.trapezoid(expit(ref.LN10 * lam * (x - m)), x)
        want = 100.0 * max(0.0, auc - t * (hi - lo)) / ((1 - t) * (hi - lo))
        got = ref.dss(np.array([m]), np.array([lam]), lo, hi, t)[0]
        assert math.isclose(got, want, rel_tol=1e-8, abs_tol=1e-8)


def test_lpml_of_one_draw_is_the_log_likelihood_of_the_combination_cells():
    rng = np.random.default_rng(0)
    y = rng.normal(0.5, 0.1, (4, 3, 2))
    p = rng.uniform(0.2, 0.8, (1, 4, 3))
    mask = np.ones((4, 3))
    mask[0, :] = mask[:, 0] = 0.0
    s2 = 0.02
    resid = y[1:, 1:, :] - p[0, 1:, 1:, None]
    want = np.sum(-0.5 * np.log(2 * np.pi * s2) - resid ** 2 / (2 * s2))
    assert math.isclose(ref.lpml(y, p, np.array([s2]), mask), want, rel_tol=1e-12)


def test_lpml_is_the_log_harmonic_mean_of_densities():
    y = np.zeros((2, 2, 1))
    mask = np.array([[0.0, 0.0], [0.0, 1.0]])
    p = np.array([[[0, 0], [0, 0.1]], [[0, 0], [0, 0.3]]], dtype=float)
    s2 = np.array([0.05, 0.05])
    dens = np.exp(-0.5 * np.log(2 * np.pi * 0.05) - np.array([0.1, 0.3]) ** 2 / 0.1)
    want = -math.log(np.mean(1.0 / dens))
    assert math.isclose(ref.lpml(y, p, s2, mask), want, rel_tol=1e-12)


def _ar1(rho, m, n, seed):
    rng = np.random.default_rng(seed)
    x = np.empty((m, n))
    x[:, 0] = rng.standard_normal(m) / math.sqrt(1 - rho * rho)
    eps = rng.standard_normal((m, n))
    for t in range(1, n):
        x[:, t] = rho * x[:, t - 1] + eps[:, t]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
def test_ess_of_ar1_chains_is_n_times_1_minus_rho_over_1_plus_rho(rho):
    m, n = 4, 20_000
    x = _ar1(rho, m, n, seed=int(rho * 10))
    want = m * n * (1 - rho) / (1 + rho)
    assert abs(ref.ess(x) / want - 1.0) < 0.1
    labels = np.repeat(np.arange(m), n)
    assert abs(ref.bulk_ess(x.ravel(), labels) / want - 1.0) < 0.1


def test_ess_is_nan_for_a_constant_series():
    assert math.isnan(ref.ess(np.ones((2, 50))))


def test_iso_effect_mismatch_tolerates_only_the_edge():
    fine1 = fine2 = np.array([0.0, 1.0])
    mean = np.array([[0.5, 0.51 + 1e-12], [0.6, 0.495]])
    assert ref.iso_effect_mismatch([[0.0, 0.0], [1.0, 1.0]], fine1, fine2, mean, 0.01) == []
    assert ref.iso_effect_mismatch([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                                   fine1, fine2, mean, 0.01) == []
    assert ref.iso_effect_mismatch([[0.0, 0.0]], fine1, fine2, mean, 0.01) != []
    assert ref.iso_effect_mismatch([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0]],
                                   fine1, fine2, mean, 0.01) != []


def test_inverse_gamma_pit_is_uniform_only_for_the_right_scale():
    # The shape and rate of sigma2_eps's conditional on a 110-cell plate.
    rng = np.random.default_rng(3)
    a, b = 3.0 + 55.0, 2.0 + 0.15
    sigma2 = 1.0 / rng.gamma(a, 1.0 / b, 8000)
    assert ref.ks_uniform_pvalue(ref.gammaincc(a, b / sigma2)) > 1e-3
    assert ref.ks_uniform_pvalue(ref.gammaincc(a, b / (1.05 * sigma2))) < 1e-6
