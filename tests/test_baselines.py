import numpy as np
import pytest

from combofit import (FitConvergenceError, LogConcGrid, PlateDataset,
                      SimScenario, ValidationError, baseline_delta,
                      bliss_surface, curve_values, fit_2ll,
                      fit_monotherapies, hsa_surface, loewe_surface,
                      reference_grid, sample_plate, truth_p0, zip_surface)
from combofit.baselines import BASELINE_METHODS, MonoFit, loewe_cell


def _grid(logc1, logc2):
    logc1 = np.asarray(logc1, dtype=float)
    logc2 = np.asarray(logc2, dtype=float)
    return LogConcGrid(logc1=logc1, logc2=logc2,
                       zero_sub1=float(logc1[0]), zero_sub2=float(logc2[0]))


def _mono(m, lam):
    return MonoFit(m=m, lam=lam, rss=0.0, converged=True, lambda_at_bound=False)


UNIT_GRID = _grid([-4.0, -2.0, -1.0, 0.0, 1.0, 2.0],
                  [-4.0, -2.0, -1.0, 0.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# Monotherapy fitting


def test_fit_recovers_exact_curve():
    logx = np.linspace(-3.0, 3.0, 13)
    y = curve_values(logx, 0.0, 1.0)
    fit = fit_2ll(logx, y)
    assert fit.m == pytest.approx(0.0, abs=1e-6)
    assert fit.lam == pytest.approx(1.0, abs=1e-6)
    assert fit.rss < 1e-12
    assert fit.converged
    assert not fit.lambda_at_bound


def test_fit_recovers_with_replication_and_offset():
    logx = np.repeat(np.linspace(-2.0, 4.0, 9), 2)
    y = curve_values(logx, 1.3, 0.6)
    fit = fit_2ll(logx, y)
    assert fit.m == pytest.approx(1.3, abs=1e-5)
    assert fit.lam == pytest.approx(0.6, abs=1e-5)


def test_fit_rejects_degenerate_designs():
    with pytest.raises(ValidationError):
        fit_2ll([0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.5, 0.5])
    with pytest.raises(ValidationError):
        fit_2ll([0.0, 0.3, 0.6], [1.0, 0.8, 0.6])
    with pytest.raises(ValidationError):
        fit_2ll([0.0, 1.0], [1.0, 0.5, 0.2])
    with pytest.raises(ValidationError):
        fit_2ll([0.0, 1.0, np.nan], [1.0, 0.5, 0.2])


def test_fit_flags_flat_data():
    # a constant 0.5 response is only reachable as lambda -> 0
    logx = np.linspace(-2.0, 2.0, 9)
    fit = fit_2ll(logx, np.full(9, 0.5))
    assert fit.lambda_at_bound
    assert fit.rss < 1e-6


def test_fit_monotherapies_on_probit_margins():
    # Noiseless probit truth margins fit by the (misspecified) log-logistic.
    grid = reference_grid()
    p0 = truth_p0(grid).values
    data = PlateDataset(conc1=np.concatenate(([0.0], 10.0 ** grid.logc1[1:])),
                        conc2=np.concatenate(([0.0], 10.0 ** grid.logc2[1:])),
                        viability=p0[:, :, None])
    fit1, fit2 = fit_monotherapies(data, grid)
    assert abs(fit1.m) < 0.1
    assert abs(fit1.lam - 0.33) < 0.05
    assert abs(fit2.m - 4.96) < 0.15
    assert abs(fit2.lam - 0.325) < 0.05


# ---------------------------------------------------------------------------
# Bliss and HSA


def test_bliss_hand_value():
    surface = bliss_surface(_mono(0.0, 1.0), _mono(0.0, 1.0), UNIT_GRID)
    i = list(UNIT_GRID.logc1).index(0.0)
    assert surface.values[i, i] == pytest.approx(0.25, abs=1e-15)


def test_bliss_is_product_of_margins():
    fit1, fit2 = _mono(0.3, 0.8), _mono(-0.5, 1.4)
    surface = bliss_surface(fit1, fit2, UNIT_GRID)
    expected = np.outer(curve_values(UNIT_GRID.logc1, 0.3, 0.8),
                        curve_values(UNIT_GRID.logc2, -0.5, 1.4))
    np.testing.assert_array_equal(surface.values, expected)
    # independence never exceeds either single agent
    assert (surface.values <= fit1.curve(UNIT_GRID.logc1)[:, None] + 1e-15).all()
    assert (surface.values <= fit2.curve(UNIT_GRID.logc2)[None, :] + 1e-15).all()


def test_hsa_hand_value_and_loop_oracle():
    grid = _grid([-4.0, 0.0, 1.0], [-4.0, 0.5])
    margin1 = np.array([1.0, 0.8, 0.4])
    margin2 = np.array([1.0, 0.6])
    surface = hsa_surface(margin1, margin2, grid)
    assert surface.values[1, 1] == 0.8
    assert surface.values[2, 1] == 0.6
    for i in range(3):
        for j in range(2):
            assert surface.values[i, j] == max(margin1[i], margin2[j])


def test_hsa_rejects_margin_length_mismatch():
    with pytest.raises(ValidationError):
        hsa_surface([1.0, 0.5], [1.0, 0.5], UNIT_GRID)


# ---------------------------------------------------------------------------
# Loewe


def test_loewe_identical_unit_drugs():
    # two copies of the same curve at their shared EC50: f^-1(y) = 2x, y = 1/3
    fit = _mono(0.0, 1.0)
    y, flagged = loewe_cell(0.0, 0.0, fit, fit)
    assert not flagged
    assert y == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_loewe_on_ec50_isobole():
    # x1/EC50_1 + x2/EC50_2 = 1 forces the half-effect response
    fit1, fit2 = _mono(1.0, 1.0), _mono(2.0, 1.0)
    y, flagged = loewe_cell(np.log10(5.0), np.log10(50.0), fit1, fit2)
    assert not flagged
    assert y == pytest.approx(0.5, abs=1e-6)


def test_loewe_borders_take_marginals():
    fit1, fit2 = _mono(0.2, 0.9), _mono(-0.3, 1.1)
    surface, flagged = loewe_surface(fit1, fit2, UNIT_GRID)
    np.testing.assert_array_equal(surface.values[1:, 0],
                                  fit1.curve(UNIT_GRID.logc1)[1:])
    np.testing.assert_array_equal(surface.values[0, 1:],
                                  fit2.curve(UNIT_GRID.logc2)[1:])
    assert surface.values[0, 0] == 1.0
    assert not flagged[1:, 1:].any()


def test_loewe_solution_satisfies_additivity():
    from combofit.baselines import _loewe_index

    fit1, fit2 = _mono(0.5, 0.7), _mono(1.5, 1.2)
    surface, flagged = loewe_surface(fit1, fit2, UNIT_GRID)
    for i in range(1, UNIT_GRID.shape[0]):
        for j in range(1, UNIT_GRID.shape[1]):
            if flagged[i, j]:
                continue
            index = _loewe_index(UNIT_GRID.logc1[i], UNIT_GRID.logc2[j],
                                 fit1, fit2, surface.values[i, j])
            assert abs(index - 1.0) <= 1e-10


# ---------------------------------------------------------------------------
# ZIP


def _bliss_plate(m1, lam1, m2, lam2, grid):
    f1 = curve_values(grid.logc1, m1, lam1)
    f2 = curve_values(grid.logc2, m2, lam2)
    values = np.outer(f1, f2)
    return PlateDataset(conc1=np.concatenate(([0.0], 10.0 ** grid.logc1[1:])),
                        conc2=np.concatenate(([0.0], 10.0 ** grid.logc2[1:])),
                        viability=values[:, :, None])


def test_zip_recovers_bliss_on_independent_data():
    # steep slopes keep the zero-substituted margin within 1e-6 of an exact
    # curve, so the fitted marginals are essentially the truth
    data = _bliss_plate(0.0, 1.5, 0.5, 1.5, UNIT_GRID)
    fit1, fit2 = fit_monotherapies(data, UNIT_GRID)
    surface, fell_back = zip_surface(fit1, fit2, data, UNIT_GRID)
    assert not fell_back
    bliss = bliss_surface(fit1, fit2, UNIT_GRID)
    np.testing.assert_allclose(surface.values, bliss.values, atol=1e-5)


def test_zip_falls_back_when_conditional_fits_cannot_run():
    # a 2-point second axis starves the conditional re-fits of design points
    grid = _grid([-4.0, -1.0, 0.0, 1.0], [-4.0, 0.0])
    data = _bliss_plate(0.0, 1.0, 0.0, 1.0, grid)
    fit1, fit2 = _mono(0.0, 1.0), _mono(0.0, 1.0)
    surface, fell_back = zip_surface(fit1, fit2, data, grid)
    assert fell_back
    np.testing.assert_array_equal(surface.values, bliss_surface(fit1, fit2, grid).values)


# ---------------------------------------------------------------------------
# Dispatch layer


def test_baseline_delta_dispatch_and_info():
    data, _ = sample_plate(SimScenario(1, seed=3))
    _, surface, info = baseline_delta(data, "hsa")
    assert info == {}
    ym = data.replicate_mean()
    np.testing.assert_array_equal(surface.values,
                                  np.maximum(ym[:, 0][:, None], ym[0, :][None, :]))
    for method in ("bliss", "loewe", "zip"):
        _, surface, info = baseline_delta(data, method)
        assert isinstance(info["fit1"], MonoFit)
        assert isinstance(info["fit2"], MonoFit)
        assert surface.values.shape == (11, 10)
    _, _, info = baseline_delta(data, "loewe")
    assert isinstance(info["flagged_cells"], int)
    _, _, info = baseline_delta(data, "zip")
    assert info["fell_back"] in (False, True)


def test_baseline_delta_rejects_unknown_method():
    data, _ = sample_plate(SimScenario(1, seed=3))
    with pytest.raises(ValidationError):
        baseline_delta(data, "chou-talalay")


def test_baseline_delta_identity():
    data, _ = sample_plate(SimScenario(2, seed=4))
    for method in BASELINE_METHODS:
        delta, surface, _ = baseline_delta(data, method)
        np.testing.assert_array_equal(
            delta.values, data.replicate_mean() - surface.values)
        assert delta.label == f"delta_{method}"
