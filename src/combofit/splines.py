"""Equally spaced B-spline bases and their difference-penalty precisions.

The basis is built from truncated power polynomials differenced down to
B-splines (Eilers & Marx construction), which for equally spaced knots is
algebraically identical to the Cox-de Boor recursion.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import LogConcGrid, _as_float_array
from .errors import ValidationError

# Basis values this small are rounding debris of the truncated-power
# differencing; snapping them to zero restores exact local support.
_SUPPORT_SNAP = 1e-12


def _knot_ladder(lo: float, hi: float, n_basis: int, degree: int) -> np.ndarray:
    """Equally spaced knots covering [lo, hi], extended degree knots each side."""
    if n_basis < degree + 1:
        raise ValidationError(f"need at least {degree + 1} basis functions, got {n_basis}")
    if not hi > lo:
        raise ValidationError("knot range must have positive width")
    n_seg = n_basis - degree
    dx = (hi - lo) / n_seg
    return lo + dx * np.arange(-degree, n_seg + degree + 1)


def check_layout(k1: int, k2: int, degree: int, ridge: float):
    """Reject a spline layout that no grid can use: degree 0 gives an all-zero
    basis, each axis needs degree + 1 basis functions and the second-difference
    penalty 3, and the penalty ridge must be finite and positive."""
    if degree < 1:
        raise ValidationError(f"degree must be at least 1, not {degree}")
    for name, k in (("k1", k1), ("k2", k2)):
        if k < max(degree + 1, 3):
            raise ValidationError(f"{name} must be at least {max(degree + 1, 3)} "
                                  f"for degree {degree}, not {k}")
    if not 0.0 < ridge < math.inf:
        raise ValidationError(f"ridge must be finite and positive, not {ridge}")


@dataclass(frozen=True)
class SplineSpec:
    """Tensor-product spline layout of the interaction surface; k1, k2 follow from the knots."""

    knots1: np.ndarray
    knots2: np.ndarray
    degree: int = 3
    penalty_ridge: float = 1e-4

    def __post_init__(self):
        knots1 = _as_float_array(self.knots1, "knots1", 1)
        knots2 = _as_float_array(self.knots2, "knots2", 1)
        check_layout(knots1.size - self.degree - 1, knots2.size - self.degree - 1,
                     self.degree, self.penalty_ridge)
        for name, knots in (("knots1", knots1), ("knots2", knots2)):
            steps = np.diff(knots)
            if np.any(steps <= 0) or not np.allclose(steps, steps[0], rtol=1e-9):
                raise ValidationError(f"{name} must be strictly increasing and equally spaced")
        object.__setattr__(self, "knots1", knots1)
        object.__setattr__(self, "knots2", knots2)

    @property
    def k1(self) -> int:
        return self.knots1.size - self.degree - 1

    @property
    def k2(self) -> int:
        return self.knots2.size - self.degree - 1

    @classmethod
    def for_grid(cls, grid: LogConcGrid, k1: int = 6, k2: int = 6,
                 degree: int = 3, penalty_ridge: float = 1e-4) -> "SplineSpec":
        """Lay knots over the substituted log10 range of each axis."""
        knots1 = _knot_ladder(grid.logc1[0], grid.logc1[-1], k1, degree)
        knots2 = _knot_ladder(grid.logc2[0], grid.logc2[-1], k2, degree)
        return cls(knots1=knots1, knots2=knots2, degree=degree, penalty_ridge=penalty_ridge)


def basis_matrix(points, knots, degree: int = 3) -> np.ndarray:
    """Evaluate every B-spline basis function at the given points.

    Returns an array of shape (len(points), n_knots - degree - 1). Points must
    lie inside the knot ladder's covered interval.
    """
    x = np.atleast_1d(np.asarray(points, dtype=float))
    knots = np.asarray(knots, dtype=float)
    lo, hi = knots[degree], knots[-degree - 1]
    if np.any(x < lo - 1e-12) or np.any(x > hi + 1e-12):
        raise ValidationError(
            f"points outside the spline domain [{lo:g}, {hi:g}]"
        )
    dx = knots[1] - knots[0]
    trunc = np.maximum(x[:, None] - knots[None, :], 0.0) ** degree
    diff = np.diff(np.eye(knots.size), n=degree + 1, axis=0)
    diff /= math.factorial(degree) * dx ** degree
    basis = ((-1.0) ** (degree + 1)) * trunc @ diff.T
    basis[basis < _SUPPORT_SNAP] = 0.0
    return basis


def second_difference(n: int) -> np.ndarray:
    """Second-order difference operator of shape (n - 2, n)."""
    if n < 3:
        raise ValidationError("second differences need at least 3 coefficients")
    eye = np.eye(n)
    return eye[2:] - 2.0 * eye[1:-1] + eye[:-2]


def penalty_precision(n_basis: int, ridge: float) -> np.ndarray:
    """Precision matrix D2' D2 + ridge * I of the smoothness prior."""
    if not ridge > 0.0:
        raise ValidationError("ridge must be positive")
    d2 = second_difference(n_basis)
    return d2.T @ d2 + ridge * np.eye(n_basis)
