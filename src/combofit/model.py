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
        if not (self.shape > 0.0 and self.rate > 0.0):
            raise ValidationError("Gamma prior needs positive shape and rate")


@dataclass(frozen=True)
class HalfCauchyPrior:
    """Half-Cauchy(scale) prior on a standard deviation sigma > 0."""

    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValidationError("Half-Cauchy prior needs a positive scale")


@dataclass(frozen=True)
class InverseGammaPrior:
    """Inverse-Gamma(shape, rate) prior on a variance sigma2 > 0."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0.0 and self.rate > 0.0):
            raise ValidationError("Inverse-Gamma prior needs positive shape and rate")


_DEFAULT_GAMMA = GammaPrior(0.01, 0.01)  # mean 1, variance 100


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of every prior in the hierarchy.

    variance_prior applies to all sampled variances (the five N(0, sigma2_phi)
    hypervariances and the observation noise sigma2_eps); Half-Cauchy priors
    act on the sigma scale, Inverse-Gamma priors on the variance itself. The
    sampler's block updates (mcmc) are the one place that prices these densities.
    """

    lambda1: GammaPrior = _DEFAULT_GAMMA
    lambda2: GammaPrior = _DEFAULT_GAMMA
    b1: GammaPrior = _DEFAULT_GAMMA
    b2: GammaPrior = _DEFAULT_GAMMA
    variance_prior: object = HalfCauchyPrior(1.0)
    spline_penalty_ridge: float = 1e-4

    def __post_init__(self):
        if not isinstance(self.variance_prior, (HalfCauchyPrior, InverseGammaPrior)):
            raise ValidationError("variance_prior must be HalfCauchyPrior or InverseGammaPrior")
        if not self.spline_penalty_ridge > 0.0:
            raise ValidationError("spline_penalty_ridge must be positive")


# ---------------------------------------------------------------------------
# Curves and link


def curve_values(logx, m, lam):
    """2-parameter log-logistic viability curve with asymptotes (0, 1),
    unchecked; m and lam broadcast against logx.

    f(logx) = 1 / (1 + 10^(lam * (logx - m))); m is the log10 EC50 and lam
    the (positive) slope, so f decreases from 1 toward 0 as logx grows.

    The exponent t = lam * (logx - m) is clamped to +-POW10_CLAMP. Float m and
    lam with a 1-D logx skip the clamp when both ends of t lie inside the bound,
    so such a logx must be sorted: t is then monotone and the clamp would
    return it unchanged.
    """
    t = lam * (logx - m)
    if not (isinstance(m, float) and isinstance(lam, float) and isinstance(t, np.ndarray)
            and t.ndim == 1 and t.size
            and abs(t[0]) <= POW10_CLAMP and abs(t[-1]) <= POW10_CLAMP):
        t = _clamped(t, POW10_CLAMP)
    return 1.0 / (1.0 + np.exp(LN10 * t))


def _clamped(values, bound):
    """np.clip(values, -bound, bound), the same bits at a fraction of the call cost."""
    return np.minimum(np.maximum(values, -bound), bound)


# The bounded interaction link Delta = -p0 / (1 + exp(b1 B)) + (1 - p0) /
# (1 + exp(-b2 B)) has range (-p0, 1 - p0); with b1 = b2 = b, p0 + Delta is the
# logistic 1 / (1 + exp(-b B)). It is kept factored, both sides stacked on a
# pair axis before the grid axes: the numerators depend on p0 only, the
# denominators on B and the slopes (b1, -b2) only.
_NUMERATOR_SHIFT = np.array((0.0, 1.0)).reshape(2, 1, 1)


def link_numerators(p0, mask=None):
    """-p0 (as 0.0 - p0, the same Delta) and 1 - p0 on the pair axis, times
    the border mask unless it is None, which zeroes Delta on the borders; p0
    is (n1, n2) for one state or (..., 1, n1, n2) for many."""
    numerators = np.subtract(_NUMERATOR_SHIFT, p0)
    if mask is not None:
        numerators *= mask
    return numerators


def link_denominators(b_pred, slopes):
    """1 + exp(b1 B) and 1 + exp(-b2 B) on the pair axis, from slopes b1 and
    -b2 on that axis. Only the upper clamp is applied: below -EXP_CLAMP both
    give a denominator of exactly 1.0."""
    d = b_pred * slopes
    np.minimum(d, EXP_CLAMP, out=d)
    np.exp(d, out=d)
    d += 1.0
    return d


def link_delta(numerators, denominators):
    """Delta, the sum of the two quotients over the pair axis."""
    terms = numerators / denominators
    return terms[..., 0, :, :] + terms[..., 1, :, :]


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
    slopes = np.stack((b1, -b2), axis=1)
    delta = link_delta(link_numerators(p0[:, None], design.mask),
                       link_denominators(b_pred[:, None], slopes))
    return p0, delta


def summed_mean_surface(draws: np.ndarray, design: SurfaceDesign, total=None) -> np.ndarray:
    """Sum over the rows of draws of the unmasked mean surface p0 + g(B),
    added in row order to total (zeros if None), which is returned.

    Uses p0 + g(B) = p0 s(b1 B) + (1 - p0) s(b2 B), s the logistic function,
    one draw at a time through reused buffers.
    """
    m1, lam1, m2, lam2 = _columns(draws, "m1", "lambda1", "m2", "lambda2")
    f1, f2 = curve_values(design.axis1, m1, lam1), curve_values(design.axis2, m2, lam2)
    coef = design.coefficients(draws)
    lift2_t = np.ascontiguousarray(design.lift2.T)
    if total is None:
        total = np.zeros((design.axis1.size, design.axis2.size))
    pred, s1, p0 = np.empty_like(total), np.empty_like(total), np.empty_like(total)
    for s, (b1, b2) in enumerate(draws[:, [COLUMN["b1"], COLUMN["b2"]]].tolist()):
        np.matmul(design.lift1 @ coef[s], lift2_t, out=pred)
        _logistic(b1, pred, out=s1)
        _logistic(b2, pred, out=pred)
        s1 -= pred
        s1 *= np.outer(f1[s], f2[s], out=p0)
        total += pred
        total += s1
    return total


def _logistic(slope, values, out):
    """1 / (1 + exp(-slope * values)); exp only overflows from above."""
    np.multiply(values, -slope, out=out)
    np.minimum(out, EXP_CLAMP, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


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
