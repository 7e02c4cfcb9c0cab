"""Dose-response surface model: monotherapy curves, interaction link, priors.

The observed viability y_ijr on a two-drug grid is modelled as

    y_ijr ~ N(p_ij, sigma2_eps),   p_ij = p0_ij + Delta_ij,

where p0 is the product of two 2-parameter log-logistic monotherapy curves
(Bliss-style zero-interaction surface) and Delta pushes p away from p0 through
a bounded link so that p always stays in (0, 1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import LogConcGrid, PlateDataset
from .errors import ValidationError
from .splines import SplineSpec, basis_matrix

LN10 = math.log(10.0)
# Clamp for exp() arguments; keeps every intermediate finite in float64.
EXP_CLAMP = 700.0
# Clamp for base-10 exponents inside the log-logistic curve.
POW10_CLAMP = 300.0
# 0-d array operands: the bits of the float constants at a lower numpy call cost
_ONE, _LN10, _EXP_CLAMP = np.array(1.0), np.array(LN10), np.array(EXP_CLAMP)

LINEAR_SCALES = ("log10", "natural")

# Columns of a draws array, one row per posterior draw: these scalars in this
# order (samples.csv adds chain and sample in front), then the k1 * k2 spline
# coefficients of C in row-major order. One such row is a parameter point, the
# only parameter type: the sampler's state, its start and every stored draw.
DRAW_SCALARS = (
    "m1", "m2", "lambda1", "lambda2", "b1", "b2", "gamma0", "gamma1", "gamma2",
    "sigma2_m1", "sigma2_m2", "sigma2_gamma0", "sigma2_gamma1", "sigma2_gamma2",
    "sigma2_eps",
)
COLUMN = {name: index for index, name in enumerate(DRAW_SCALARS)}
N_SCALARS = len(DRAW_SCALARS)
VARIANCES = DRAW_SCALARS[9:]
POSITIVE_SCALARS = ("lambda1", "lambda2", "b1", "b2") + VARIANCES
_POSITIVE = [COLUMN[name] for name in POSITIVE_SCALARS]


# ---------------------------------------------------------------------------
# Prior configuration


@dataclass(frozen=True)
class GammaPrior:
    """Gamma(shape, rate) prior for a positive parameter."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (0.0 < self.shape < math.inf and 0.0 < self.rate < math.inf):
            raise ValidationError("Gamma prior needs finite positive shape and rate")


@dataclass(frozen=True)
class HalfCauchyPrior:
    """Half-Cauchy(scale) prior on a standard deviation sigma > 0."""

    scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.scale < math.inf:
            raise ValidationError("Half-Cauchy prior needs a finite positive scale")


@dataclass(frozen=True)
class InverseGammaPrior:
    """Inverse-Gamma(shape, rate) prior on a variance sigma2 > 0."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (0.0 < self.shape < math.inf and 0.0 < self.rate < math.inf):
            raise ValidationError("Inverse-Gamma prior needs finite positive shape and rate")


_DEFAULT_GAMMA = GammaPrior(0.01, 0.01)  # mean 1, variance 100


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of every prior in the hierarchy.

    variance_prior applies to all sampled variances (the five N(0, sigma2_phi)
    hypervariances and the observation noise sigma2_eps); Half-Cauchy priors
    act on the sigma scale, Inverse-Gamma priors on the variance itself. The
    sampler's block updates (mcmc) are the one place that prices these densities.
    The C prior's ridge is SplineSpec.penalty_ridge.
    """

    lambda1: GammaPrior = _DEFAULT_GAMMA
    lambda2: GammaPrior = _DEFAULT_GAMMA
    b1: GammaPrior = _DEFAULT_GAMMA
    b2: GammaPrior = _DEFAULT_GAMMA
    variance_prior: object = HalfCauchyPrior(1.0)

    def __post_init__(self):
        if not isinstance(self.variance_prior, (HalfCauchyPrior, InverseGammaPrior)):
            raise ValidationError("variance_prior must be HalfCauchyPrior or InverseGammaPrior")


# ---------------------------------------------------------------------------
# Curves and link


def curve_values(logx, m, lam, out=None):
    """2-parameter log-logistic viability curve with asymptotes (0, 1),
    unchecked; m and lam broadcast against logx. out, if given, receives it.

    f(logx) = 1 / (1 + 10^(lam * (logx - m))); m is the log10 EC50 and lam
    the (positive) slope, so f decreases from 1 toward 0 as logx grows.

    The exponent t = lam * (logx - m) is clamped to +-POW10_CLAMP. Float m and
    lam skip the clamp when both ends of t, computed in Python floats with
    numpy's bits, lie inside the bound, for a 1-D logx, which must then be
    sorted, or a 3-D one, which must be a sorted axis laid out on the pair
    grid (on_pairs): t is then monotone between its first and last entries,
    and the clamp would return it unchanged.
    """
    if not (isinstance(m, float) and isinstance(lam, float) and isinstance(logx, np.ndarray)
            and logx.ndim in (1, 3) and logx.size
            and abs(lam * (logx.item(0) - m)) <= POW10_CLAMP
            and abs(lam * (logx.item(-1) - m)) <= POW10_CLAMP):
        return np.divide(1.0, 1.0 + np.exp(LN10 * _clamped(lam * (logx - m), POW10_CLAMP)),
                         out=out)
    t = np.subtract(logx, m, out=out)
    np.multiply(np.multiply(t, lam, out=t), _LN10, out=t)
    return np.divide(_ONE, np.add(np.exp(t, out=t), _ONE, out=t), out=t)


def _clamped(values, bound):
    """np.clip(values, -bound, bound), the same bits at a fraction of the call cost."""
    return np.minimum(np.maximum(values, -bound), bound)


# The bounded interaction link Delta = -p0 / (1 + exp(b1 B)) + (1 - p0) /
# (1 + exp(-b2 B)) has range (-p0, 1 - p0); with b1 = b2 = b, p0 + Delta is the
# logistic 1 / (1 + exp(-b B)). It is kept factored, both sides stacked on a
# pair axis in front of the grid axes, (2, n1, n2) for one state and
# (2, n, n1, n2) for a stack of draws, so that each side is one contiguous
# block: the numerators depend on p0 only, the denominators on B and the
# slopes (b1, -b2) only.
_NUMERATOR_SHIFT = np.array((0.0, 1.0))


def on_pairs(shape, first, second=None):
    """A (2,) + shape array on the pair layout: first on the first plane and
    second (first if None) on the second, each broadcast to shape. Operands
    laid out this way have the shape of the link's arrays, so no ufunc
    between them broadcasts."""
    pairs = np.empty((2, *shape))
    pairs[0] = first
    pairs[1] = first if second is None else second
    return pairs


def link_numerators(p0, mask=None, out=None, shift=None):
    """-p0 (as 0.0 - p0, the same Delta) and 1 - p0 on the pair axis, times
    the border mask unless it is None, which zeroes Delta on the borders. p0
    is (n1, n2) for one state or (n, n1, n2) for many and gains the pair axis
    in front; or, with shift the (0, 1) shift on the pair layout of one state
    (on_pairs), p0 and mask are on that layout too. out, if given, receives
    them."""
    if shift is None:
        shift = _NUMERATOR_SHIFT.reshape((2,) + (1,) * p0.ndim)
    numerators = np.subtract(shift, p0, out=out)
    if mask is not None:
        numerators *= mask
    return numerators


def link_denominators(b_pred, slopes, out=None):
    """1 + exp(b1 B) and 1 + exp(-b2 B) on the pair axis, from slopes b1 and
    -b2 on that axis, into out if given. Only the upper clamp is applied:
    below -EXP_CLAMP both give a denominator of exactly 1.0."""
    d = np.multiply(b_pred, slopes, out=out)
    np.exp(np.minimum(d, _EXP_CLAMP, out=d), out=d)
    return np.add(d, _ONE, out=d)


def link_delta(numerators, denominators):
    """Delta, the sum of the two quotients over the pair axis."""
    terms = numerators / denominators
    return terms[0] + terms[1]


# ---------------------------------------------------------------------------
# Surfaces of every row of a draws array


@dataclass(frozen=True)
class SurfaceDesign:
    """Draw-independent factors of the surfaces on one pair of log10 axes.

    The latent predictor of a draw is B = lift1 @ M @ lift2.T: each lift is a
    spline basis with a column of ones and the linear axis appended, and M
    (see coefficients) borders C with gamma0, gamma1 and gamma2. mask is the
    border mask applied to the link's numerators, or None.
    """

    axis1: np.ndarray
    axis2: np.ndarray
    lift1: np.ndarray
    lift2: np.ndarray
    mask: np.ndarray = None

    @classmethod
    def on_axes(cls, axis1, axis2, spline: SplineSpec, linear_scale: str = "log10",
                mask=None) -> "SurfaceDesign":
        if linear_scale not in LINEAR_SCALES:
            raise ValidationError(f"linear_scale must be one of {LINEAR_SCALES}")

        def lift(axis, knots):
            linear = axis if linear_scale == "log10" else 10.0 ** axis
            return np.column_stack((basis_matrix(axis, knots, spline.degree),
                                    np.ones(axis.size), linear))
        return cls(axis1, axis2, lift(axis1, spline.knots1), lift(axis2, spline.knots2), mask)

    @classmethod
    def on_grid(cls, grid: LogConcGrid, spline: SplineSpec,
                linear_scale: str = "log10") -> "SurfaceDesign":
        return cls.on_axes(grid.logc1, grid.logc2, spline, linear_scale, grid.border_mask())

    @property
    def gamma_cells(self) -> dict:
        """Where M holds each gamma: gamma0 at [k1, k2], gamma1 at [k1 + 1, k2]
        and gamma2 at [k1, k2 + 1]. A gamma at [i, j] adds itself times the
        outer product of lift1[:, i] and lift2[:, j] to B."""
        k1, k2 = self.lift1.shape[1] - 2, self.lift2.shape[1] - 2
        return {"gamma0": (k1, k2), "gamma1": (k1 + 1, k2), "gamma2": (k1, k2 + 1)}

    def coefficients(self, draws: np.ndarray) -> np.ndarray:
        """(n, k1 + 2, k2 + 2) stack of M: C, bordered by the gamma_cells."""
        k1, k2 = self.lift1.shape[1] - 2, self.lift2.shape[1] - 2
        if draws.shape[1] != N_SCALARS + k1 * k2:
            raise ValidationError(f"draws have {draws.shape[1]} columns, the {k1} x {k2} "
                                  f"spline layout needs {N_SCALARS + k1 * k2}")
        coef = np.zeros((draws.shape[0], k1 + 2, k2 + 2))
        coef[:, :k1, :k2] = draws[:, N_SCALARS:].reshape(-1, k1, k2)
        for name, at in self.gamma_cells.items():
            coef[(slice(None), *at)] = draws[:, COLUMN[name]]
        return coef


def _columns(draws, *names, trailing=1):
    """Named columns of draws, each shaped (n, 1, ...) to broadcast per draw."""
    return [draws[:, COLUMN[name]].reshape((-1,) + (1,) * trailing) for name in names]


def surfaces(draws: np.ndarray, design: SurfaceDesign):
    """p0 and Delta of every row of a draws array, two (n, n1, n2) arrays."""
    m1, lam1, m2, lam2 = _columns(draws, "m1", "lambda1", "m2", "lambda2")
    b1, b2 = _columns(draws, "b1", "b2", trailing=2)
    p0 = (curve_values(design.axis1, m1, lam1)[:, :, None]
          * curve_values(design.axis2, m2, lam2)[:, None, :])
    b_pred = design.lift1 @ design.coefficients(draws) @ design.lift2.T
    delta = link_delta(link_numerators(p0, design.mask),
                       link_denominators(b_pred, np.stack((b1, -b2))))
    return p0, delta


def summed_mean_surface(draws: np.ndarray, design: SurfaceDesign, total=None) -> np.ndarray:
    """Sum over the rows of draws of the unmasked mean surface p0 + g(B),
    added in row order to total (zeros if None), which is returned.

    Uses p0 + g(B) = p0 s(b1 B) + (1 - p0) s(b2 B), s the logistic function
    1 / (1 + exp(-b B)), one draw at a time, with no broadcast:
    - both logistics of a draw go through one buffer on the pair layout;
    - exp only overflows from above, so its argument is clamped to
      EXP_CLAMP, unless both slopes are positive and -b min(B) lies within
      it: rounding is monotone, so that product is the largest argument;
    - p0 is the rank-1 matrix product of the two curves, each entry a single
      product, so the outer product's bits at about half its cost.
    """
    m1, lam1, m2, lam2 = _columns(draws, "m1", "lambda1", "m2", "lambda2")
    f1, f2 = curve_values(design.axis1, m1, lam1), curve_values(design.axis2, m2, lam2)
    coef = design.coefficients(draws)
    lift2_t = np.ascontiguousarray(design.lift2.T)
    if total is None:
        total = np.zeros((design.axis1.size, design.axis2.size))
    pred, p0, logistic = np.empty_like(total), np.empty_like(total), on_pairs(total.shape, 0.0)
    s1, s2 = logistic
    for s, (b1, b2) in enumerate(draws[:, [COLUMN["b1"], COLUMN["b2"]]].tolist()):
        np.matmul(design.lift1 @ coef[s], lift2_t, out=pred)
        np.multiply(pred, -b1, out=s1)
        np.multiply(pred, -b2, out=s2)
        low = float(pred.min())
        if not (b1 > 0.0 and b2 > 0.0 and -b1 * low <= EXP_CLAMP and -b2 * low <= EXP_CLAMP):
            np.minimum(logistic, _EXP_CLAMP, out=logistic)
        np.exp(logistic, out=logistic)
        logistic += _ONE
        np.reciprocal(logistic, out=logistic)
        s1 -= s2
        s1 *= np.dot(f1[s, :, None], f2[s, None], out=p0)
        total += s2
        total += s1
    return total


# ---------------------------------------------------------------------------
# Likelihood


def observation_log_densities(data: PlateDataset, p_values: np.ndarray,
                              sigma2_eps) -> np.ndarray:
    """Per-observation Gaussian log densities, shape (..., n1+1, n2+1, n_rep).

    p_values may carry leading axes, such as draws, with one sigma2_eps per
    leading index.
    """
    sigma2 = np.asarray(sigma2_eps, dtype=float)
    if not np.all(np.isfinite(sigma2) & (sigma2 > 0.0)):
        raise ValidationError("sigma2_eps must be finite and positive")
    sigma2 = sigma2[..., None, None, None]
    resid = data.viability - np.asarray(p_values, dtype=float)[..., None]
    return -0.5 * np.log(2.0 * math.pi * sigma2) - resid * resid / (2.0 * sigma2)


# ---------------------------------------------------------------------------
# Parameter rows


def invalid_entry(draws: np.ndarray):
    """(row, column, requirement) of the first entry of a 2-D draws array
    outside the model's domain, or None: every value must be finite, and the
    POSITIVE_SCALARS columns positive."""
    bad = ~np.isfinite(draws)
    bad[:, _POSITIVE] |= ~(draws[:, _POSITIVE] > 0.0)
    if not bad.any():
        return None
    row, col = np.argwhere(bad)[0]
    return row, col, "finite and positive" if col in _POSITIVE else "finite"


def check_row(row, spline: SplineSpec) -> np.ndarray:
    """row as a float array if it is a parameter point of the spline layout:
    N_SCALARS + k1 * k2 entries, none of them an invalid_entry."""
    row = np.asarray(row, dtype=float)
    size = N_SCALARS + spline.k1 * spline.k2
    if row.shape != (size,):
        raise ValidationError(f"a parameter row of the {spline.k1} x {spline.k2} spline "
                              f"layout has {size} entries, not shape {row.shape}")
    invalid = invalid_entry(row[None])
    if invalid is not None:
        _, col, need = invalid
        name = DRAW_SCALARS[col] if col < N_SCALARS else f"C entry {col - N_SCALARS}"
        raise ValidationError(f"{name} must be {need}, got {float(row[col])!r}")
    return row


def initial_state(grid: LogConcGrid, spline: SplineSpec) -> np.ndarray:
    """Default chain start as a parameter row: informative p0 (EC50 mid-range,
    unit slopes), null Delta (gamma and C zero) and every variance 0.01."""
    start = {"m1": 0.5 * (grid.logc1[0] + grid.logc1[-1]),
             "m2": 0.5 * (grid.logc2[0] + grid.logc2[-1]),
             "lambda1": 1.0, "lambda2": 1.0, "b1": 1.0, "b2": 1.0,
             **dict.fromkeys(VARIANCES, 0.01)}
    return np.array([start.get(name, 0.0) for name in DRAW_SCALARS]
                    + [0.0] * (spline.k1 * spline.k2))
