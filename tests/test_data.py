import numpy as np
import pytest

from combofit import LogConcGrid, PlateDataset, SurfaceGrid, ValidationError


def test_plate_accessors(small_plate):
    assert small_plate.n_rep == 2
    assert small_plate.n_obs == 5 * 4 * 2
    np.testing.assert_array_equal(small_plate.replicate_mean(),
                                  small_plate.viability.mean(axis=2))


def test_plate_requires_zero_first():
    with pytest.raises(ValidationError):
        PlateDataset(conc1=np.array([0.1, 1.0]), conc2=np.array([0.0, 1.0]),
                     viability=np.ones((2, 2, 1)))


def test_plate_requires_increasing_axes():
    with pytest.raises(ValidationError):
        PlateDataset(conc1=np.array([0.0, 1.0, 0.5]), conc2=np.array([0.0, 1.0]),
                     viability=np.ones((3, 2, 1)))


def test_plate_rejects_shape_mismatch():
    with pytest.raises(ValidationError):
        PlateDataset(conc1=np.array([0.0, 1.0]), conc2=np.array([0.0, 1.0]),
                     viability=np.ones((2, 3, 1)))


def test_plate_rejects_non_finite():
    bad = np.ones((2, 2, 1))
    bad[0, 0, 0] = np.nan
    with pytest.raises(ValidationError):
        PlateDataset(conc1=np.array([0.0, 1.0]), conc2=np.array([0.0, 1.0]),
                     viability=bad)


def test_log_grid_zero_substitution(small_plate):
    grid = LogConcGrid.from_dataset(small_plate)
    # zero dose sits exactly two decades below the smallest real dose
    assert grid.logc1[0] == pytest.approx(np.log10(0.01) - 2.0)
    assert grid.logc2[0] == pytest.approx(np.log10(0.05) - 2.0)
    np.testing.assert_allclose(grid.logc1[1:], np.log10(small_plate.conc1[1:]))
    np.testing.assert_allclose(grid.logc2[1:], np.log10(small_plate.conc2[1:]))
    assert grid.shape == (5, 4)


def test_border_mask(small_grid):
    mask = small_grid.border_mask()
    assert mask.shape == small_grid.shape
    assert not mask[0, :].any()
    assert not mask[:, 0].any()
    assert mask[1:, 1:].all()


def test_surface_grid_validates_shape():
    with pytest.raises(ValidationError):
        SurfaceGrid(values=np.ones((2, 3)), axis1=np.array([0.0, 1.0]),
                    axis2=np.array([0.0, 1.0]))


def test_surface_grid_rejects_non_finite():
    with pytest.raises(ValidationError):
        SurfaceGrid(values=np.array([[np.inf, 0.0], [0.0, 0.0]]),
                    axis1=np.array([0.0, 1.0]), axis2=np.array([0.0, 1.0]))
