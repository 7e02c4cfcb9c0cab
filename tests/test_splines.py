import math

import numpy as np
import pytest

from combofit import SplineSpec, ValidationError
from combofit.splines import (_knot_ladder, basis_matrix, check_layout, penalty_precision,
                              second_difference)


def cox_de_boor(x, knots, i, degree):
    """Textbook recursive B-spline evaluation, the independent reference."""
    if degree == 0:
        return 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    out = 0.0
    den_left = knots[i + degree] - knots[i]
    if den_left > 0.0:
        out += (x - knots[i]) / den_left * cox_de_boor(x, knots, i, degree - 1)
    den_right = knots[i + degree + 1] - knots[i + 1]
    if den_right > 0.0:
        out += ((knots[i + degree + 1] - x) / den_right
                * cox_de_boor(x, knots, i + 1, degree - 1))
    return out


def test_basis_matches_cox_de_boor():
    knots = _knot_ladder(-6.0, 5.0, 8, 3)
    rng = np.random.default_rng(3)
    x = rng.uniform(-6.0, 5.0, 400)
    basis = basis_matrix(x, knots, 3)
    ref = np.array([[cox_de_boor(xx, knots, i, 3) for i in range(8)] for xx in x])
    assert np.abs(basis - ref).max() < 1e-8


def test_partition_of_unity():
    knots = _knot_ladder(-4.0, 5.5, 7, 3)
    rng = np.random.default_rng(11)
    x = rng.uniform(-4.0, 5.5, 1000)
    basis = basis_matrix(x, knots, 3)
    np.testing.assert_allclose(basis.sum(axis=1), 1.0, atol=1e-9)


def test_local_support():
    # a cubic B-spline covers 4 knot intervals, so at most 4 bases are nonzero
    knots = _knot_ladder(0.0, 1.0, 10, 3)
    rng = np.random.default_rng(7)
    basis = basis_matrix(rng.uniform(0.0, 1.0, 500), knots, 3)
    assert (basis != 0.0).sum(axis=1).max() <= 4
    at_knots = basis_matrix(knots[3:-3], knots, 3)
    assert (at_knots != 0.0).sum(axis=1).max() <= 4


def test_basis_rejects_points_outside_domain():
    knots = _knot_ladder(0.0, 1.0, 6, 3)
    with pytest.raises(ValidationError):
        basis_matrix([1.5], knots, 3)


def test_second_difference_k4():
    expected = np.array([[1.0, -2.0, 1.0, 0.0],
                         [0.0, 1.0, -2.0, 1.0]])
    np.testing.assert_array_equal(second_difference(4), expected)


def test_second_difference_needs_three():
    with pytest.raises(ValidationError):
        second_difference(2)


def test_penalty_annihilates_linear_up_to_ridge():
    # D2 kills linear coefficient vectors, so P v = ridge * v for those
    v = 1.0 + 2.0 * np.arange(6)
    prec = penalty_precision(6, 1e-4)
    np.testing.assert_allclose(prec @ v, 1e-4 * v, atol=1e-12)


def test_penalty_minimum_eigenvalue_is_ridge():
    prec = penalty_precision(3, 1e-4)
    eigs = np.linalg.eigvalsh(prec)
    assert abs(eigs[0] - 1e-4) < 1e-12
    assert (eigs > 0.0).all()


def test_penalty_is_symmetric():
    prec = penalty_precision(7, 1e-3)
    np.testing.assert_array_equal(prec, prec.T)


def test_penalty_requires_positive_ridge():
    with pytest.raises(ValidationError):
        penalty_precision(5, 0.0)


def test_tensor_all_ones_gives_unit_surface():
    knots1 = _knot_ladder(-2.0, 3.0, 6, 3)
    knots2 = _knot_ladder(0.0, 4.0, 5, 3)
    rng = np.random.default_rng(5)
    b1 = basis_matrix(rng.uniform(-2.0, 3.0, 40), knots1, 3)
    b2 = basis_matrix(rng.uniform(0.0, 4.0, 30), knots2, 3)
    surface = b1 @ np.ones((6, 5)) @ b2.T
    np.testing.assert_allclose(surface, 1.0, atol=1e-9)


def test_tensor_matches_double_loop():
    rng = np.random.default_rng(9)
    knots1 = _knot_ladder(-1.0, 1.0, 5, 3)
    knots2 = _knot_ladder(-1.0, 1.0, 6, 3)
    b1 = basis_matrix(rng.uniform(-1.0, 1.0, 12), knots1, 3)
    b2 = basis_matrix(rng.uniform(-1.0, 1.0, 9), knots2, 3)
    coeff = rng.standard_normal((5, 6))
    fast = b1 @ coeff @ b2.T
    slow = np.zeros((12, 9))
    for i in range(12):
        for j in range(9):
            for l in range(5):
                for m in range(6):
                    slow[i, j] += coeff[l, m] * b1[i, l] * b2[j, m]
    np.testing.assert_allclose(fast, slow, atol=1e-12)


def test_spec_for_grid_covers_axes(small_grid):
    spec = SplineSpec.for_grid(small_grid, k1=6, k2=5)
    lo1, hi1 = spec.knots1[spec.degree], spec.knots1[-spec.degree - 1]
    lo2, hi2 = spec.knots2[spec.degree], spec.knots2[-spec.degree - 1]
    assert lo1 == pytest.approx(small_grid.logc1[0])
    assert hi1 == pytest.approx(small_grid.logc1[-1])
    assert lo2 == pytest.approx(small_grid.logc2[0])
    assert hi2 == pytest.approx(small_grid.logc2[-1])
    assert spec.knots1.size == 6 + 3 + 1
    assert spec.knots2.size == 5 + 3 + 1


def test_spec_validates_knot_count():
    good = _knot_ladder(0.0, 1.0, 6, 3)
    # k1 and k2 follow from the knots, and each needs degree + 1 basis functions
    spec = SplineSpec(knots1=good[:-1], knots2=good)
    assert (spec.k1, spec.k2) == (5, 6)
    assert SplineSpec(knots1=good[:8], knots2=good).k1 == 4
    for size in (7, 5, 4):
        with pytest.raises(ValidationError, match=f"k1 must be at least 4 for degree 3, "
                                                  f"not {size - 4}"):
            SplineSpec(knots1=good[:size], knots2=good)


@pytest.mark.parametrize("k1, k2, degree, ridge, message", [
    (2, 6, 1, 1e-4, "k1 must be at least 3 for degree 1, not 2"),
    (6, 2, 2, 1e-4, "k2 must be at least 3 for degree 2, not 2"),
    (6, 6, 3, 0.0, "ridge must be finite and positive, not 0.0"),
    (6, 6, 3, math.inf, "ridge must be finite and positive, not inf"),
    (6, 6, 3, math.nan, "ridge must be finite and positive, not nan"),
], ids=["k1_2_degree_1", "k2_2_degree_2", "ridge_0", "ridge_inf", "ridge_nan"])
def test_layout_rule_names_the_option(k1, k2, degree, ridge, message):
    # the second-difference penalty needs 3 coefficients whatever the degree,
    # and a spec of such knots breaks the rule that fit checks its options by
    with pytest.raises(ValidationError, match=message):
        check_layout(k1, k2, degree, ridge)
    with pytest.raises(ValidationError, match=message):
        SplineSpec(knots1=np.arange(k1 + degree + 1.0), knots2=np.arange(k2 + degree + 1.0),
                   degree=degree, penalty_ridge=ridge)


@pytest.mark.parametrize("degree", [0, -1])
def test_spec_rejects_a_degree_below_one(small_grid, degree):
    # degree 0 gave an all-zero basis, so C never moved the surface
    knots = _knot_ladder(0.0, 1.0, 6, 3)
    for build in (lambda: SplineSpec(knots1=knots, knots2=knots, degree=degree),
                  lambda: SplineSpec.for_grid(small_grid, degree=degree)):
        with pytest.raises(ValidationError, match=f"degree must be at least 1, not {degree}"):
            build()


def test_spec_validates_spacing():
    knots = _knot_ladder(0.0, 1.0, 6, 3).copy()
    knots[4] += 0.01
    with pytest.raises(ValidationError):
        SplineSpec(knots1=knots, knots2=_knot_ladder(0.0, 1.0, 6, 3))


def test_knot_ladder_needs_enough_bases():
    with pytest.raises(ValidationError):
        _knot_ladder(0.0, 1.0, 3, 3)
