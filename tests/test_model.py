import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from combofit import (GammaPrior, HalfCauchyPrior, InverseGammaPrior,
                      ParameterState, PriorSpec, SimScenario, SplineSpec,
                      ValidationError, initial_state, link_g, log_likelihood,
                      log_logistic_2ll, log_prior, reference_grid, sample_plate)
from combofit.model import (COLUMN, LINEAR_SCALES, PHI_NAMES, SurfaceDesign,
                            interaction_surface, linear_axes,
                            matrix_normal_log_density, mean_surface,
                            normal_log_density, observation_log_densities,
                            summed_mean_surface, surfaces, zero_interaction_surface)
from combofit.splines import penalty_precision


def _state(grid, spline, **overrides):
    return replace(initial_state(grid, spline), **overrides)


# ---------------------------------------------------------------------------
# Monotherapy curve


def test_curve_half_effect_at_m():
    assert log_logistic_2ll(2.5, 2.5, 0.7) == pytest.approx(0.5, abs=1e-15)


def test_curve_one_decade_above_ec50():
    # f(1 | m=0, lam=1) = 1 / (1 + 10) = 1/11
    assert log_logistic_2ll(1.0, 0.0, 1.0) == pytest.approx(1.0 / 11.0, abs=1e-15)


def test_curve_limits():
    assert log_logistic_2ll(-40.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert log_logistic_2ll(40.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_curve_is_decreasing():
    x = np.linspace(-8.0, 8.0, 200)
    f = log_logistic_2ll(x, 0.3, 0.8)
    assert (np.diff(f) < 0.0).all()
    assert ((f > 0.0) & (f < 1.0)).all()


def test_curve_rejects_bad_slope():
    with pytest.raises(ValidationError):
        log_logistic_2ll(0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        log_logistic_2ll(0.0, math.nan, 1.0)


# ---------------------------------------------------------------------------
# Interaction link


def test_link_hand_value():
    # g(0) = -p0/2 + (1 - p0)/2 = 0.5 - p0 = 0.2 at p0 = 0.3
    assert link_g(0.0, 0.3, 1.0, 1.0) == pytest.approx(0.2, abs=1e-15)


def test_link_limits():
    assert link_g(60.0, 0.3, 1.0, 1.0) == pytest.approx(0.7, abs=1e-12)
    assert link_g(-60.0, 0.3, 1.0, 1.0) == pytest.approx(-0.3, abs=1e-12)


def test_link_range_is_open_interval():
    rng = np.random.default_rng(17)
    b_pred = rng.uniform(-3.0, 3.0, 20000)
    p0 = rng.uniform(0.001, 0.999, 20000)
    for b1, b2 in ((0.5, 2.0), (1.0, 1.0), (4.0, 0.2)):
        g = link_g(b_pred, p0, b1, b2)
        assert (g > -p0).all()
        assert (g < 1.0 - p0).all()


def test_link_collapses_to_logistic_when_slopes_match():
    rng = np.random.default_rng(23)
    b_pred = rng.uniform(-10.0, 10.0, 500)
    p0 = rng.uniform(0.01, 0.99, 500)
    for b in (0.3, 1.0, 2.7):
        combined = p0 + link_g(b_pred, p0, b, b)
        logistic = 1.0 / (1.0 + np.exp(-b * b_pred))
        np.testing.assert_allclose(combined, logistic, atol=1e-12)


def test_link_monotone_in_predictor():
    b_pred = np.linspace(-8.0, 8.0, 400)
    g = link_g(b_pred, 0.4, 0.7, 1.3)
    assert (np.diff(g) > 0.0).all()


def test_link_rejects_bad_slopes():
    with pytest.raises(ValidationError):
        link_g(0.0, 0.5, -1.0, 1.0)


# ---------------------------------------------------------------------------
# Surfaces


def test_zero_interaction_is_outer_product(small_grid, small_spline):
    state = initial_state(small_grid, small_spline)
    p0 = zero_interaction_surface(small_grid, state)
    f1 = log_logistic_2ll(small_grid.logc1, state.m1, state.lambda1)
    f2 = log_logistic_2ll(small_grid.logc2, state.m2, state.lambda2)
    np.testing.assert_array_equal(p0.values, np.outer(f1, f2))


def test_interaction_surface_vanishes_on_borders(small_grid, small_spline):
    rng = np.random.default_rng(31)
    state = _state(small_grid, small_spline, gamma0=0.8, gamma1=-0.2,
                   C=rng.standard_normal((small_spline.k1, small_spline.k2)))
    delta = interaction_surface(small_grid, state, small_spline).values
    assert (delta[0, :] == 0.0).all()
    assert (delta[:, 0] == 0.0).all()
    assert np.abs(delta[1:, 1:]).max() > 0.0


def test_mean_surface_stays_in_unit_interval(small_grid, small_spline):
    rng = np.random.default_rng(37)
    for _ in range(20):
        state = _state(small_grid, small_spline,
                       gamma0=float(rng.normal(scale=3.0)),
                       gamma1=float(rng.normal(scale=1.0)),
                       gamma2=float(rng.normal(scale=1.0)),
                       C=rng.standard_normal((small_spline.k1, small_spline.k2)) * 2.0)
        p = mean_surface(small_grid, state, small_spline).values
        assert (p > 0.0).all()
        assert (p < 1.0).all()


def test_linear_axes_scales(small_grid):
    u1, u2 = linear_axes(small_grid, "log10")
    np.testing.assert_array_equal(u1, small_grid.logc1)
    n1, n2 = linear_axes(small_grid, "natural")
    np.testing.assert_allclose(n1, 10.0 ** small_grid.logc1)
    np.testing.assert_allclose(n2, 10.0 ** small_grid.logc2)
    with pytest.raises(ValidationError):
        linear_axes(small_grid, "sqrt")


# ---------------------------------------------------------------------------
# Surfaces of every row of a draws array

GRID = reference_grid()


def _draw_row(state):
    return np.array([state.m1, state.m2, state.lambda1, state.lambda2, state.b1, state.b2,
                     state.gamma0, state.gamma1, state.gamma2,
                     *(state.sigma2_phi[name] for name in PHI_NAMES), state.sigma2_eps,
                     *state.C.ravel()])


@st.composite
def _posterior(draw):
    """Random states, spline layout and linear scale on the reference grid.

    Under the natural scale the linear terms multiply concentrations up to
    3e5, so gamma1 and gamma2 are drawn on the scale of 1 / max concentration,
    where fitted values lie and a 1e-12 tolerance is meaningful.
    """
    degree = draw(st.sampled_from((2, 3)))
    k1, k2 = draw(st.integers(degree + 1, 8)), draw(st.integers(degree + 1, 8))
    spline = SplineSpec.for_grid(GRID, k1=k1, k2=k2, degree=degree)
    scale = draw(st.sampled_from(LINEAR_SCALES))
    u_max = 1.0 if scale == "log10" else 10.0 ** max(GRID.logc1[-1], GRID.logc2[-1])
    real = st.floats(-3.0, 3.0)
    positive = st.floats(0.05, 5.0)
    states = []
    for _ in range(draw(st.integers(1, 4))):
        states.append(ParameterState(
            m1=draw(real), m2=draw(real), lambda1=draw(positive), lambda2=draw(positive),
            b1=draw(positive), b2=draw(positive), gamma0=draw(real),
            gamma1=draw(real) / u_max, gamma2=draw(real) / u_max,
            C=np.array([[draw(real) for _ in range(k2)] for _ in range(k1)]),
            sigma2_phi={name: draw(positive) for name in PHI_NAMES},
            sigma2_eps=draw(st.floats(1e-3, 1.0))))
    return states, spline, scale


@settings(max_examples=60, deadline=None)
@given(_posterior())
def test_batched_surfaces_match_per_state_surfaces(posterior):
    states, spline, scale = posterior
    draws = np.stack([_draw_row(state) for state in states])
    p0, delta = surfaces(draws, SurfaceDesign.on_grid(GRID, spline, scale))
    for k, state in enumerate(states):
        np.testing.assert_allclose(p0[k], zero_interaction_surface(GRID, state).values,
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(
            delta[k], interaction_surface(GRID, state, spline, scale).values,
            rtol=0.0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(_posterior())
def test_batched_log_densities_and_fine_sum_match_per_draw(posterior):
    states, spline, scale = posterior
    data, _ = sample_plate(SimScenario(3, seed=4))
    draws = np.stack([_draw_row(state) for state in states])
    p0, delta = surfaces(draws, SurfaceDesign.on_grid(GRID, spline, scale))
    ld = observation_log_densities(data, p0 + delta, draws[:, COLUMN["sigma2_eps"]])
    for k, state in enumerate(states):
        expected = observation_log_densities(data, p0[k] + delta[k], state.sigma2_eps)
        np.testing.assert_allclose(ld[k], expected, rtol=1e-14, atol=0.0)
    # fused link identity p0 + g(B) = p0 s(b1 B) + (1 - p0) s(b2 B), unmasked
    ax1, ax2 = np.linspace(-4.0, 5.0, 17), np.linspace(-3.5, 5.5, 13)
    design = SurfaceDesign.on_axes(ax1, ax2, spline, scale)
    p0_fine, g_fine = surfaces(draws, design)
    np.testing.assert_allclose(summed_mean_surface(draws, design),
                               (p0_fine + g_fine).sum(axis=0), rtol=0.0, atol=1e-12)


def test_batched_surfaces_reject_wrong_coefficient_count(small_grid, small_spline):
    draws = _draw_row(initial_state(small_grid, small_spline))[None, :-1]
    with pytest.raises(ValidationError):
        surfaces(draws, SurfaceDesign.on_grid(small_grid, small_spline))


# ---------------------------------------------------------------------------
# Likelihood


def test_single_observation_log_density():
    # y = p, sigma2 = 1: density is -log(sqrt(2 pi))
    assert normal_log_density(0.0, 1.0) == pytest.approx(-0.9189385332046727,
                                                         abs=1e-12)


def test_log_likelihood_matches_naive_oracle(small_plate, small_grid, small_spline):
    state = initial_state(small_grid, small_spline)
    p = mean_surface(small_grid, state, small_spline).values
    sigma2 = 0.013
    total = log_likelihood(small_plate, p, sigma2)
    naive = 0.0
    for i in range(small_grid.shape[0]):
        for j in range(small_grid.shape[1]):
            for r in range(small_plate.n_rep):
                naive += stats.norm.logpdf(small_plate.viability[i, j, r],
                                           loc=p[i, j], scale=math.sqrt(sigma2))
    assert total == pytest.approx(naive, abs=1e-10)


def test_log_likelihood_is_additive_over_replicates(small_plate, small_grid,
                                                    small_spline):
    from combofit import PlateDataset

    state = initial_state(small_grid, small_spline)
    p = mean_surface(small_grid, state, small_spline).values
    parts = []
    for r in range(small_plate.n_rep):
        one = PlateDataset(conc1=small_plate.conc1, conc2=small_plate.conc2,
                           viability=small_plate.viability[:, :, r:r + 1])
        parts.append(log_likelihood(one, p, 0.02))
    assert log_likelihood(small_plate, p, 0.02) == pytest.approx(sum(parts),
                                                                 abs=1e-9)


def test_observation_log_densities_shape_and_values(small_plate, small_grid,
                                                    small_spline):
    state = initial_state(small_grid, small_spline)
    p = mean_surface(small_grid, state, small_spline).values
    ld = observation_log_densities(small_plate, p, 0.01)
    assert ld.shape == small_plate.viability.shape
    resid = small_plate.viability[2, 1, 0] - p[2, 1]
    expected = -0.5 * math.log(2 * math.pi * 0.01) - resid ** 2 / 0.02
    assert ld[2, 1, 0] == pytest.approx(expected, abs=1e-12)


def test_log_likelihood_rejects_bad_sigma(small_plate, small_grid, small_spline):
    state = initial_state(small_grid, small_spline)
    p = mean_surface(small_grid, state, small_spline).values
    with pytest.raises(ValidationError):
        log_likelihood(small_plate, p, 0.0)


def test_log_likelihood_rejects_shape_mismatch(small_plate):
    with pytest.raises(ValidationError):
        log_likelihood(small_plate, np.full((3, 3), 0.5), 0.01)


# ---------------------------------------------------------------------------
# Priors


def test_gamma_prior_golden_value():
    # Gamma(0.01, 0.01) log density at 1, frozen from an external computation
    prior = GammaPrior(0.01, 0.01)
    assert prior.log_density(1.0) == pytest.approx(-4.655531579901903, abs=1e-12)
    assert prior.log_density(-1.0) == -math.inf


def test_half_cauchy_golden_value():
    # at sigma = 1 the scale-1 half-Cauchy density is 1/pi
    prior = HalfCauchyPrior(1.0)
    assert prior.log_density(1.0) == pytest.approx(-1.1447298858494002, abs=1e-12)
    assert prior.log_density(0.0) == -math.inf


def test_inverse_gamma_matches_scipy():
    prior = InverseGammaPrior(3.0, 2.0)
    assert prior.log_density(0.7) == pytest.approx(
        stats.invgamma.logpdf(0.7, a=3.0, scale=2.0), abs=1e-12)


def test_prior_validation():
    with pytest.raises(ValidationError):
        GammaPrior(0.0, 1.0)
    with pytest.raises(ValidationError):
        HalfCauchyPrior(0.0)
    with pytest.raises(ValidationError):
        InverseGammaPrior(1.0, 0.0)
    with pytest.raises(ValidationError):
        PriorSpec(variance_prior="hc")


def test_variance_log_density_dispatch():
    hc = PriorSpec(variance_prior=HalfCauchyPrior(1.0))
    # half-Cauchy acts on sigma, so evaluate at sigma = sqrt(sigma2)
    assert hc.variance_log_density(4.0) == pytest.approx(
        HalfCauchyPrior(1.0).log_density(2.0))
    ig = PriorSpec(variance_prior=InverseGammaPrior(3.0, 2.0))
    assert ig.variance_log_density(4.0) == pytest.approx(
        InverseGammaPrior(3.0, 2.0).log_density(4.0))


def test_matrix_normal_matches_kronecker_oracle():
    rng = np.random.default_rng(41)
    prec_rows = penalty_precision(3, 0.3)
    prec_cols = penalty_precision(4, 0.7)
    C = rng.standard_normal((3, 4))
    # column-stacked vec(C) has precision prec_cols kron prec_rows
    big = np.kron(prec_cols, prec_rows)
    v = C.ravel(order="F")
    sign, logdet = np.linalg.slogdet(big)
    assert sign > 0
    expected = -0.5 * (12 * math.log(2 * math.pi) - logdet + v @ big @ v)
    assert matrix_normal_log_density(C, prec_rows, prec_cols) == pytest.approx(
        expected, abs=1e-10)


def test_matrix_normal_rejects_shape_mismatch():
    with pytest.raises(ValidationError):
        matrix_normal_log_density(np.zeros((3, 4)), np.eye(4), np.eye(4))


def test_log_prior_finite_at_initial_state(small_grid, small_spline):
    state = initial_state(small_grid, small_spline)
    for priors in (PriorSpec(),
                   PriorSpec(variance_prior=InverseGammaPrior(3.0, 2.0))):
        value = log_prior(state, priors, small_spline)
        assert math.isfinite(value)


def test_log_prior_rejects_wrong_coefficient_shape(small_grid, small_spline):
    state = _state(small_grid, small_spline, C=np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        log_prior(state, PriorSpec(), small_spline)


# ---------------------------------------------------------------------------
# Parameter state


def test_state_validation(small_grid, small_spline):
    base = initial_state(small_grid, small_spline)
    with pytest.raises(ValidationError):
        replace(base, lambda1=-1.0)
    with pytest.raises(ValidationError):
        replace(base, m1=math.inf)
    with pytest.raises(ValidationError):
        replace(base, sigma2_eps=0.0)
    with pytest.raises(ValidationError):
        replace(base, sigma2_phi={"m1": 1.0})
    with pytest.raises(ValidationError):
        replace(base, C=np.array([np.nan]).reshape(1, 1))


def test_initial_state_layout(small_grid, small_spline):
    state = initial_state(small_grid, small_spline)
    assert state.m1 == pytest.approx(0.5 * (small_grid.logc1[0] + small_grid.logc1[-1]))
    assert state.m2 == pytest.approx(0.5 * (small_grid.logc2[0] + small_grid.logc2[-1]))
    assert state.lambda1 == 1.0 and state.b1 == 1.0
    assert (state.C == 0.0).all()
    assert set(state.sigma2_phi) == set(PHI_NAMES)
    assert state.phi_value("gamma1") == state.gamma1
