import math

import numpy as np
import pytest
from scipy import special, stats

from combofit import (LogConcGrid, SimScenario, ValidationError,
                      interaction_field, normal_cdf, reference_grid,
                      sample_plate, truth_delta, truth_p0)
from combofit.simulate import reference_concentrations


def _grid(logc1, logc2):
    logc1 = np.asarray(logc1, dtype=float)
    logc2 = np.asarray(logc2, dtype=float)
    return LogConcGrid(logc1=logc1, logc2=logc2)


# ---------------------------------------------------------------------------
# Reference grid


def test_reference_concentration_axes():
    conc1, conc2 = reference_concentrations()
    np.testing.assert_array_equal(conc1, [0.0] + [10.0 ** k for k in range(-4, 6)])
    np.testing.assert_allclose(
        conc2, [0.0] + [10.0 ** k for k in np.arange(-3.5, 4.5)] + [10.0 ** 5.5])
    assert conc1.size == 11 and conc2.size == 10


def test_reference_grid_zero_substitution():
    grid = reference_grid()
    assert grid.logc1[0] == pytest.approx(-6.0)
    assert grid.logc2[0] == pytest.approx(-5.5)
    np.testing.assert_allclose(grid.logc1[1:], np.arange(-4.0, 6.0))
    np.testing.assert_allclose(grid.logc2[1:],
                               list(np.arange(-3.5, 4.5)) + [5.5])


# ---------------------------------------------------------------------------
# Truth surfaces


def test_truth_p0_hand_value():
    # both probit curves sit at their midpoint: 0.5 * 0.5
    grid = _grid([-6.0, 0.0], [-6.0, 5.0])
    assert truth_p0(grid).values[1, 1] == pytest.approx(0.25, abs=1e-15)


def test_truth_p0_limits():
    grid = _grid([-40.0, 40.0], [-40.0, 45.0])
    p0 = truth_p0(grid).values
    assert p0[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert p0[1, 1] == pytest.approx(0.0, abs=1e-12)


def test_truth_p0_monotone_decreasing():
    grid = reference_grid()
    p0 = truth_p0(grid).values
    assert (np.diff(p0, axis=0) < 0.0).all()
    assert (np.diff(p0, axis=1) < 0.0).all()


def test_interaction_field_no_interaction_is_zero():
    x = np.linspace(-6.0, 6.0, 13)
    field = interaction_field(1, x[:, None], x[None, :])
    assert field.shape == (13, 13)
    assert (field == 0.0).all()


def test_interaction_field_antagonism_hand_value():
    assert interaction_field(2, 5.0, 5.0) == pytest.approx(0.25, abs=1e-15)
    # far below the bump the field dies off
    assert interaction_field(2, -4.0, -3.5) == pytest.approx(0.0, abs=1e-4)


def test_interaction_field_mixed_signs():
    assert interaction_field(3, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert interaction_field(3, 5.0, 5.0) > 0.1
    assert interaction_field(3, -5.0, -5.0) < -0.1


def test_interaction_field_rejects_unknown_id():
    with pytest.raises(ValidationError):
        interaction_field(4, 0.0, 0.0)


def test_truth_delta_masks_borders():
    grid = reference_grid()
    for interaction_id in (2, 3):
        delta = truth_delta(grid, interaction_id).values
        assert (delta[0, :] == 0.0).all()
        assert (delta[:, 0] == 0.0).all()
        raw = interaction_field(interaction_id, grid.logc1[1:, None],
                                grid.logc2[None, 1:])
        np.testing.assert_array_equal(delta[1:, 1:], raw)


def test_truth_surface_stays_in_unit_interval():
    grid = reference_grid()
    p0 = truth_p0(grid).values
    for interaction_id in (1, 2, 3):
        p = p0 + truth_delta(grid, interaction_id).values
        assert (p > 0.0).all()
        assert (p < 1.0).all()


# ---------------------------------------------------------------------------
# Plate sampling


def test_sample_plate_shapes_and_truths():
    data, truths = sample_plate(SimScenario(2, n_rep=4, seed=5))
    assert data.viability.shape == (11, 10, 4)
    assert set(truths) == {"p0", "delta", "p"}
    np.testing.assert_array_equal(
        truths["p"].values, truths["p0"].values + truths["delta"].values)


def test_sample_plate_is_deterministic():
    a, _ = sample_plate(SimScenario(3, seed=11))
    b, _ = sample_plate(SimScenario(3, seed=11))
    np.testing.assert_array_equal(a.viability, b.viability)
    c, _ = sample_plate(SimScenario(3, seed=12))
    assert np.abs(a.viability - c.viability).max() > 0.0


def test_sample_plate_tiny_noise_recovers_truth():
    data, truths = sample_plate(SimScenario(3, sigma_eps=1e-12, seed=1))
    expected = np.broadcast_to(truths["p"].values[:, :, None],
                               data.viability.shape)
    np.testing.assert_allclose(data.viability, expected, atol=1e-10)


def test_sample_plate_custom_grid():
    grid = _grid([-4.0, -2.0, 0.0], [-4.0, -2.0, 1.0])
    data, truths = sample_plate(SimScenario(1, seed=2), grid=grid)
    assert data.viability.shape == (3, 3, 3)
    np.testing.assert_allclose(data.conc1, [0.0, 1e-2, 1.0])
    assert (truths["delta"].values == 0.0).all()


def test_normal_noise_standard_deviation():
    grid = _grid([-4.0, 0.0], [-4.0, 0.0])
    scenario = SimScenario(1, n_rep=100_000, sigma_eps=0.05, seed=7)
    data, truths = sample_plate(scenario, grid=grid)
    resid = data.viability - truths["p"].values[:, :, None]
    sd = resid.std()
    assert abs(sd - 0.05) / 0.05 < 0.01
    assert abs(resid.mean()) < 5e-4


def test_t5_noise_heavy_tails():
    grid = _grid([-4.0, 0.0], [-4.0, 0.0])
    scenario = SimScenario(1, noise="t5", n_rep=100_000, sigma_eps=0.05, seed=7)
    data, truths = sample_plate(scenario, grid=grid)
    resid = (data.viability - truths["p"].values[:, :, None]).ravel()
    # t5 sd is scale * sqrt(5/3); excess kurtosis is 6 in theory but the
    # sample estimate is itself heavy-tailed, so only demand clear excess
    assert abs(resid.std() - 0.05 * math.sqrt(5.0 / 3.0)) < 0.003
    assert stats.kurtosis(resid) > 2.0


def test_normal_cdf_matches_scipy():
    x = np.linspace(-8.0, 8.0, 401)
    np.testing.assert_allclose(normal_cdf(x), special.ndtr(x), atol=1e-12)
    assert isinstance(normal_cdf(0.3), float)
    assert normal_cdf(np.zeros((2, 3))).shape == (2, 3)


def test_scenario_validation():
    with pytest.raises(ValidationError):
        SimScenario(0)
    with pytest.raises(ValidationError):
        SimScenario(1, noise="cauchy")
    with pytest.raises(ValidationError):
        SimScenario(1, n_rep=0)
    with pytest.raises(ValidationError):
        SimScenario(1, sigma_eps=0.0)
