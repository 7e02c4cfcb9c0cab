import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from combofit import (GammaPrior, HalfCauchyPrior, InverseGammaPrior, PriorSpec,
                      SimScenario, SplineSpec, ValidationError, curve_values,
                      initial_state, reference_grid, sample_plate)
from combofit import model
from combofit.model import (COLUMN, DRAW_SCALARS, LINEAR_SCALES, N_SCALARS, VARIANCES,
                            SurfaceDesign, link_delta, link_denominators, link_numerators,
                            observation_log_densities, summed_mean_surface, surfaces)

import reference  # perfbench's oracle, which imports no combofit


def _row(grid, spline, C=None, **scalars):
    """The initial row with some scalars and the coefficients C replaced."""
    row = initial_state(grid, spline)
    for name, value in scalars.items():
        row[COLUMN[name]] = value
    if C is not None:
        row[N_SCALARS:] = C.ravel()
    return row


def _link(b_pred, p0, b1, b2):
    """Unmasked Delta of the link kernel at B = b_pred, both broadcast to a
    (1, n) state."""
    slopes = np.array((b1, -b2)).reshape(2, 1, 1)
    return link_delta(link_numerators(np.atleast_2d(p0)),
                      link_denominators(np.atleast_2d(b_pred), slopes))[0]


def _mean(grid, spline, row):
    """Mean surface p0 + Delta of one parameter row on the grid."""
    p0, delta = surfaces(row[None], SurfaceDesign.on_grid(grid, spline))
    return (p0 + delta)[0]


# ---------------------------------------------------------------------------
# Monotherapy curve


def test_curve_half_effect_at_m():
    assert curve_values(2.5, 2.5, 0.7) == pytest.approx(0.5, abs=1e-15)


def test_curve_one_decade_above_ec50():
    # f(1 | m=0, lam=1) = 1 / (1 + 10) = 1/11
    assert curve_values(1.0, 0.0, 1.0) == pytest.approx(1.0 / 11.0, abs=1e-15)


def test_curve_limits():
    assert curve_values(-40.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)
    assert curve_values(40.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_curve_is_decreasing():
    x = np.linspace(-8.0, 8.0, 200)
    f = curve_values(x, 0.3, 0.8)
    assert (np.diff(f) < 0.0).all()
    assert ((f > 0.0) & (f < 1.0)).all()


@pytest.mark.parametrize("m, lam, skipped", [
    (0.3, 1.7, True),        # both ends of the exponent inside the bound
    (0.0, 150.0, True),      # both ends exactly at +-300
    (-1.0, 120.0, False),    # the upper end beyond +300
    (1.0, 120.0, False),     # the lower end beyond -300
    (0.3, -2.5, True),       # a negative slope
    (-0.5, -200.0, False),   # a negative slope, the lower end beyond -300
])
def test_curve_float_path_equals_array_path(m, lam, skipped, monkeypatch):
    # float m and lam on a sorted axis skip the clamp when both ends of the
    # exponent lie inside it; the values keep the array path's bits
    axis = np.linspace(-2.0, 2.0, 11)
    want = curve_values(axis, np.full((1, 1), m), np.full((1, 1), lam))[0]
    clamped, clamp = [], model._clamped
    monkeypatch.setattr(model, "_clamped", lambda t, bound: clamped.append(t) or clamp(t, bound))
    assert curve_values(axis, m, lam).tobytes() == want.tobytes()
    assert len(clamped) == (0 if skipped else 1)
    # a scalar or a 2-D logx takes the array path
    for logx in (2.5, axis[:10].reshape(2, 5)):
        want = curve_values(np.reshape(logx, (1, -1)), np.full((1, 1), m), np.full((1, 1), lam))
        assert curve_values(logx, m, lam).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Interaction link


def test_link_hand_value():
    # g(0) = -p0/2 + (1 - p0)/2 = 0.5 - p0 = 0.2 at p0 = 0.3
    assert _link(0.0, 0.3, 1.0, 1.0) == pytest.approx(0.2, abs=1e-15)


def test_link_limits():
    assert _link(60.0, 0.3, 1.0, 1.0) == pytest.approx(0.7, abs=1e-12)
    assert _link(-60.0, 0.3, 1.0, 1.0) == pytest.approx(-0.3, abs=1e-12)


def test_link_range_is_open_interval():
    rng = np.random.default_rng(17)
    b_pred = rng.uniform(-3.0, 3.0, 20000)
    p0 = rng.uniform(0.001, 0.999, 20000)
    for b1, b2 in ((0.5, 2.0), (1.0, 1.0), (4.0, 0.2)):
        g = _link(b_pred, p0, b1, b2)
        assert (g > -p0).all()
        assert (g < 1.0 - p0).all()


def test_link_collapses_to_logistic_when_slopes_match():
    rng = np.random.default_rng(23)
    b_pred = rng.uniform(-10.0, 10.0, 500)
    p0 = rng.uniform(0.01, 0.99, 500)
    for b in (0.3, 1.0, 2.7):
        combined = p0 + _link(b_pred, p0, b, b)
        logistic = 1.0 / (1.0 + np.exp(-b * b_pred))
        np.testing.assert_allclose(combined, logistic, atol=1e-12)


def test_link_monotone_in_predictor():
    b_pred = np.linspace(-8.0, 8.0, 400)
    g = _link(b_pred, 0.4, 0.7, 1.3)
    assert (np.diff(g) > 0.0).all()


# ---------------------------------------------------------------------------
# Surfaces


def test_zero_interaction_is_outer_product(small_grid, small_spline):
    row = initial_state(small_grid, small_spline)
    p0, _ = surfaces(row[None], SurfaceDesign.on_grid(small_grid, small_spline))
    f1 = curve_values(small_grid.logc1, row[COLUMN["m1"]], row[COLUMN["lambda1"]])
    f2 = curve_values(small_grid.logc2, row[COLUMN["m2"]], row[COLUMN["lambda2"]])
    np.testing.assert_array_equal(p0[0], np.outer(f1, f2))


def test_interaction_surface_vanishes_on_borders(small_grid, small_spline):
    rng = np.random.default_rng(31)
    row = _row(small_grid, small_spline, gamma0=0.8, gamma1=-0.2,
               C=rng.standard_normal((small_spline.k1, small_spline.k2)))
    _, delta = surfaces(row[None], SurfaceDesign.on_grid(small_grid, small_spline))
    delta = delta[0]
    assert (delta[0, :] == 0.0).all()
    assert (delta[:, 0] == 0.0).all()
    assert np.abs(delta[1:, 1:]).max() > 0.0


def test_mean_surface_stays_in_unit_interval(small_grid, small_spline):
    rng = np.random.default_rng(37)
    for _ in range(20):
        row = _row(small_grid, small_spline,
                   gamma0=float(rng.normal(scale=3.0)),
                   gamma1=float(rng.normal(scale=1.0)),
                   gamma2=float(rng.normal(scale=1.0)),
                   C=rng.standard_normal((small_spline.k1, small_spline.k2)) * 2.0)
        p = _mean(small_grid, small_spline, row)
        assert (p > 0.0).all()
        assert (p < 1.0).all()


def test_linear_axes_scales(small_grid, small_spline):
    # the last column of each lift is the axis of the predictor's linear term
    design = SurfaceDesign.on_grid(small_grid, small_spline, "log10")
    np.testing.assert_array_equal(design.lift1[:, -1], small_grid.logc1)
    np.testing.assert_array_equal(design.lift2[:, -1], small_grid.logc2)
    design = SurfaceDesign.on_grid(small_grid, small_spline, "natural")
    np.testing.assert_allclose(design.lift1[:, -1], 10.0 ** small_grid.logc1)
    np.testing.assert_allclose(design.lift2[:, -1], 10.0 ** small_grid.logc2)
    with pytest.raises(ValidationError):
        SurfaceDesign.on_grid(small_grid, small_spline, "sqrt")


# ---------------------------------------------------------------------------
# Surfaces of every row of a draws array

GRID = reference_grid()
# the reference grid as the oracle's plate: log10 axes and border mask
ORACLE_PLATE = SimpleNamespace(logc1=GRID.logc1, logc2=GRID.logc2, mask=GRID.border_mask())


@st.composite
def _posterior(draw):
    """Random draws, spline layout and linear scale on the reference grid.

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
    value = {"gamma1": real.map(lambda x: x / u_max), "gamma2": real.map(lambda x: x / u_max),
             "sigma2_eps": st.floats(1e-3, 1.0),
             **dict.fromkeys(("m1", "m2", "gamma0"), real),
             **dict.fromkeys(("lambda1", "lambda2", "b1", "b2", *VARIANCES[:-1]), positive)}
    draws = np.array([[draw(value[name]) for name in DRAW_SCALARS]
                      + [draw(real) for _ in range(k1 * k2)]
                      for _ in range(draw(st.integers(1, 4)))])
    return draws, spline, scale


@settings(max_examples=60, deadline=None)
@given(_posterior())
def test_batched_surfaces_match_per_state_surfaces(posterior):
    draws, spline, scale = posterior
    p0, delta = surfaces(draws, SurfaceDesign.on_grid(GRID, spline, scale))
    layout = reference.Layout(ORACLE_PLATE, spline.k1, spline.k2, spline.degree, scale)
    want_p0, want_delta = layout.surfaces(
        {name: draws[:, COLUMN[name]] for name in DRAW_SCALARS},
        draws[:, N_SCALARS:].reshape(-1, spline.k1, spline.k2))
    np.testing.assert_allclose(p0, want_p0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(delta, want_delta, rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(degree=st.sampled_from((2, 3)), scale=st.sampled_from(LINEAR_SCALES),
       curves=st.lists(st.tuples(st.floats(-12.0, 12.0), st.floats(0.05, 8.0)),
                       min_size=2, max_size=2),
       sign=st.sampled_from((-1.0, 1.0)), b_pred=st.floats(700.0, 1000.0),
       slopes=st.lists(st.floats(1.0, 10.0), min_size=2, max_size=2, unique=True))
def test_link_in_the_clamp_region_matches_the_oracle_and_its_limits(degree, scale, curves,
                                                                     sign, b_pred, slopes):
    # B = gamma0 on every cell, so each |b B| lies in [700, 1e4], where exp
    # overflows without the clamp
    spline = SplineSpec.for_grid(GRID, degree=degree)
    (m1, lam1), (m2, lam2) = curves
    row = _row(GRID, spline, m1=m1, lambda1=lam1, m2=m2, lambda2=lam2, gamma0=sign * b_pred,
               b1=slopes[0], b2=slopes[1])
    with np.errstate(over="raise", invalid="raise"):
        p0, delta = surfaces(row[None], SurfaceDesign.on_grid(GRID, spline, scale))
    layout = reference.Layout(ORACLE_PLATE, spline.k1, spline.k2, degree, scale)
    want_p0, want = layout.surfaces({name: row[None, COLUMN[name]] for name in DRAW_SCALARS},
                                    row[None, N_SCALARS:].reshape(-1, spline.k1, spline.k2))

    np.testing.assert_allclose(delta, want, rtol=0.0, atol=1e-15)
    # each side's Delta is its exact limit, 1 - p0 or -p0: the vanishing
    # quotient is at most 1 / (1 + e^700), below the last bit of every limit
    # but one that is itself (nearly) zero
    for got, p0_of in ((delta, p0), (want, want_p0)):
        limit = (1.0 - p0_of if sign > 0.0 else -p0_of) * ORACLE_PLATE.mask
        wide = np.abs(limit) > 1e-280
        np.testing.assert_array_equal(got[wide], limit[wide])
        np.testing.assert_allclose(got, limit, rtol=0.0, atol=1e-303)
    # one state's Delta, as the sampler keeps it, has the same bits
    with np.errstate(over="raise", invalid="raise"):
        state = link_delta(link_numerators(p0[0], GRID.border_mask()),
                           link_denominators(np.full(GRID.shape, sign * b_pred),
                                             np.array((slopes[0], -slopes[1])).reshape(2, 1, 1)))
    np.testing.assert_array_equal(state, delta[0])


@settings(max_examples=30, deadline=None)
@given(_posterior())
def test_batched_log_densities_and_fine_sum_match_per_draw(posterior):
    draws, spline, scale = posterior
    data, _ = sample_plate(SimScenario(3, seed=4))
    p0, delta = surfaces(draws, SurfaceDesign.on_grid(GRID, spline, scale))
    ld = observation_log_densities(data, p0 + delta, draws[:, COLUMN["sigma2_eps"]])
    for k, row in enumerate(draws):
        expected = observation_log_densities(data, p0[k] + delta[k], row[COLUMN["sigma2_eps"]])
        np.testing.assert_allclose(ld[k], expected, rtol=1e-14, atol=0.0)
    # fused link identity p0 + g(B) = p0 s(b1 B) + (1 - p0) s(b2 B), unmasked
    ax1, ax2 = np.linspace(-4.0, 5.0, 17), np.linspace(-3.5, 5.5, 13)
    design = SurfaceDesign.on_axes(ax1, ax2, spline, scale)
    p0_fine, g_fine = surfaces(draws, design)
    np.testing.assert_allclose(summed_mean_surface(draws, design),
                               (p0_fine + g_fine).sum(axis=0), rtol=0.0, atol=1e-12)


def test_batched_surfaces_reject_wrong_coefficient_count(small_grid, small_spline):
    draws = initial_state(small_grid, small_spline)[None, :-1]
    with pytest.raises(ValidationError):
        surfaces(draws, SurfaceDesign.on_grid(small_grid, small_spline))


# ---------------------------------------------------------------------------
# Likelihood


def test_log_likelihood_matches_naive_oracle(small_plate, small_grid, small_spline):
    p = _mean(small_grid, small_spline, initial_state(small_grid, small_spline))
    sigma2 = 0.013
    total = observation_log_densities(small_plate, p, sigma2).sum()
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

    p = _mean(small_grid, small_spline, initial_state(small_grid, small_spline))
    parts = []
    for r in range(small_plate.n_rep):
        one = PlateDataset(conc1=small_plate.conc1, conc2=small_plate.conc2,
                           viability=small_plate.viability[:, :, r:r + 1])
        parts.append(observation_log_densities(one, p, 0.02).sum())
    assert observation_log_densities(small_plate, p, 0.02).sum() == pytest.approx(
        sum(parts), abs=1e-9)


def test_observation_log_densities_shape_and_values(small_plate, small_grid,
                                                    small_spline):
    p = _mean(small_grid, small_spline, initial_state(small_grid, small_spline))
    ld = observation_log_densities(small_plate, p, 0.01)
    assert ld.shape == small_plate.viability.shape
    resid = small_plate.viability[2, 1, 0] - p[2, 1]
    expected = -0.5 * math.log(2 * math.pi * 0.01) - resid ** 2 / 0.02
    assert ld[2, 1, 0] == pytest.approx(expected, abs=1e-12)


def test_log_likelihood_rejects_bad_sigma(small_plate, small_grid, small_spline):
    p = _mean(small_grid, small_spline, initial_state(small_grid, small_spline))
    with pytest.raises(ValidationError):
        observation_log_densities(small_plate, p, 0.0)


# ---------------------------------------------------------------------------
# Priors


def test_prior_validation():
    with pytest.raises(ValidationError):
        GammaPrior(0.0, 1.0)
    with pytest.raises(ValidationError):
        HalfCauchyPrior(0.0)
    with pytest.raises(ValidationError):
        InverseGammaPrior(1.0, 0.0)
    with pytest.raises(ValidationError):
        PriorSpec(variance_prior="hc")


# ---------------------------------------------------------------------------
# Parameter row


def test_initial_state_layout(small_grid, small_spline):
    row = initial_state(small_grid, small_spline)
    assert row.shape == (N_SCALARS + small_spline.k1 * small_spline.k2,)
    start = dict(zip(DRAW_SCALARS, row))
    assert start["m1"] == pytest.approx(0.5 * (small_grid.logc1[0] + small_grid.logc1[-1]))
    assert start["m2"] == pytest.approx(0.5 * (small_grid.logc2[0] + small_grid.logc2[-1]))
    assert start["lambda1"] == start["lambda2"] == start["b1"] == start["b2"] == 1.0
    assert start["gamma0"] == start["gamma1"] == start["gamma2"] == 0.0
    assert all(start[name] == 0.01 for name in VARIANCES)
    assert (row[N_SCALARS:] == 0.0).all()
