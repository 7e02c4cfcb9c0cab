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

from .data import LogConcGrid, PlateDataset, SurfaceGrid
from .errors import ValidationError
from .splines import SplineSpec, basis_matrix, penalty_precision, tensor_eval

LN10 = math.log(10.0)
# Clamp for exp() arguments; keeps every intermediate finite in float64.
EXP_CLAMP = 700.0
# Clamp for base-10 exponents inside the log-logistic curve.
POW10_CLAMP = 300.0

# Parameters with a N(0, sigma2) prior and a sampled prior variance.
PHI_NAMES = ("m1", "m2", "gamma0", "gamma1", "gamma2")

LINEAR_SCALES = ("log10", "natural")

# Columns of a draws array, one row per posterior draw: these scalars in this
# order (samples.csv adds chain and sample in front), then the k1 * k2 spline
# coefficients of C in row-major order.
DRAW_SCALARS = (
    "m1", "m2", "lambda1", "lambda2", "b1", "b2", "gamma0", "gamma1", "gamma2",
    "sigma2_m1", "sigma2_m2", "sigma2_gamma0", "sigma2_gamma1", "sigma2_gamma2",
    "sigma2_eps",
)
COLUMN = {name: index for index, name in enumerate(DRAW_SCALARS)}
N_SCALARS = len(DRAW_SCALARS)
POSITIVE_SCALARS = ("lambda1", "lambda2", "b1", "b2") + DRAW_SCALARS[9:]


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

    def log_density(self, x: float) -> float:
        if x <= 0.0:
            return -math.inf
        return (self.shape * math.log(self.rate) - math.lgamma(self.shape)
                + (self.shape - 1.0) * math.log(x) - self.rate * x)


@dataclass(frozen=True)
class HalfCauchyPrior:
    """Half-Cauchy(scale) prior on a standard deviation sigma > 0."""

    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValidationError("Half-Cauchy prior needs a positive scale")

    def log_density(self, sigma: float) -> float:
        if sigma <= 0.0:
            return -math.inf
        return math.log(2.0 * self.scale / math.pi) - math.log(sigma * sigma + self.scale * self.scale)


@dataclass(frozen=True)
class InverseGammaPrior:
    """Inverse-Gamma(shape, rate) prior on a variance sigma2 > 0."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0.0 and self.rate > 0.0):
            raise ValidationError("Inverse-Gamma prior needs positive shape and rate")

    def log_density(self, sigma2: float) -> float:
        if sigma2 <= 0.0:
            return -math.inf
        return (self.shape * math.log(self.rate) - math.lgamma(self.shape)
                - (self.shape + 1.0) * math.log(sigma2) - self.rate / sigma2)


_DEFAULT_GAMMA = GammaPrior(0.01, 0.01)  # mean 1, variance 100


@dataclass(frozen=True)
class PriorSpec:
    """Hyperparameters of every prior in the hierarchy.

    variance_prior applies to all sampled variances (the five N(0, sigma2_phi)
    hypervariances and the observation noise sigma2_eps); Half-Cauchy priors
    act on the sigma scale, Inverse-Gamma priors on the variance itself.
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

    def variance_log_density(self, sigma2: float) -> float:
        if isinstance(self.variance_prior, HalfCauchyPrior):
            return self.variance_prior.log_density(math.sqrt(sigma2))
        return self.variance_prior.log_density(sigma2)


# ---------------------------------------------------------------------------
# Parameter state


@dataclass(frozen=True)
class ParameterState:
    """One point in the model's parameter space."""

    m1: float
    m2: float
    lambda1: float
    lambda2: float
    b1: float
    b2: float
    gamma0: float
    gamma1: float
    gamma2: float
    C: np.ndarray
    sigma2_phi: dict
    sigma2_eps: float

    def __post_init__(self):
        scalars = {
            "m1": self.m1, "m2": self.m2,
            "gamma0": self.gamma0, "gamma1": self.gamma1, "gamma2": self.gamma2,
        }
        positives = {
            "lambda1": self.lambda1, "lambda2": self.lambda2,
            "b1": self.b1, "b2": self.b2, "sigma2_eps": self.sigma2_eps,
        }
        for name, value in scalars.items():
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite")
        for name, value in positives.items():
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"{name} must be finite and positive")
        C = np.asarray(self.C, dtype=float)
        if C.ndim != 2 or not np.all(np.isfinite(C)):
            raise ValidationError("C must be a finite 2-D coefficient matrix")
        if set(self.sigma2_phi) != set(PHI_NAMES):
            raise ValidationError(f"sigma2_phi must have exactly the keys {PHI_NAMES}")
        phi_var = {}
        for name in PHI_NAMES:
            value = float(self.sigma2_phi[name])
            if not (math.isfinite(value) and value > 0.0):
                raise ValidationError(f"sigma2_phi[{name!r}] must be finite and positive")
            phi_var[name] = value
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "sigma2_phi", phi_var)

    def phi_value(self, name: str) -> float:
        return {"m1": self.m1, "m2": self.m2, "gamma0": self.gamma0,
                "gamma1": self.gamma1, "gamma2": self.gamma2}[name]


# ---------------------------------------------------------------------------
# Curves, link, surfaces


def log_logistic_2ll(logx, m: float, lam: float):
    """2-parameter log-logistic viability curve with asymptotes (0, 1).

    f(logx) = 1 / (1 + 10^(lam * (logx - m))); m is the log10 EC50 and lam
    the (positive) slope, so f decreases from 1 toward 0 as logx grows.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValidationError("lam must be finite and positive")
    if not math.isfinite(m):
        raise ValidationError("m must be finite")
    return curve_values(np.asarray(logx, dtype=float), m, lam)


def curve_values(logx, m, lam):
    """Unchecked log_logistic_2ll; m and lam broadcast against logx."""
    t = _clamped(lam * (logx - m), POW10_CLAMP)
    return 1.0 / (1.0 + np.exp(LN10 * t))


def _clamped(values, bound):
    """np.clip(values, -bound, bound), the same bits at a fraction of the call cost."""
    return np.minimum(np.maximum(values, -bound), bound)


def zero_interaction_surface(grid: LogConcGrid, state: ParameterState) -> SurfaceGrid:
    """Product of the two fitted monotherapy curves on the grid."""
    f1 = log_logistic_2ll(grid.logc1, state.m1, state.lambda1)
    f2 = log_logistic_2ll(grid.logc2, state.m2, state.lambda2)
    return SurfaceGrid(values=np.outer(f1, f2), axis1=grid.logc1, axis2=grid.logc2,
                       label="p0")


def link_g(b_pred, p0, b1: float, b2: float):
    """Bounded interaction link with range (-p0, 1 - p0).

    g(B) = -p0 / (1 + exp(b1 * B)) + (1 - p0) / (1 + exp(-b2 * B)); adding it
    to p0 therefore keeps the mean surface inside (0, 1). b1 and b2 control
    how fast each bound is approached; with b1 = b2 = b the combined surface
    p0 + g(B) collapses to the logistic 1 / (1 + exp(-b * B)).
    """
    if not (math.isfinite(b1) and b1 > 0.0 and math.isfinite(b2) and b2 > 0.0):
        raise ValidationError("b1 and b2 must be finite and positive")
    return link_values(np.asarray(b_pred, dtype=float), np.asarray(p0, dtype=float), b1, b2)


def link_values(b_pred, p0, b1, b2):
    """Unchecked link_g; every argument broadcasts against the others."""
    z1 = _clamped(b1 * b_pred, EXP_CLAMP)
    z2 = _clamped(-b2 * b_pred, EXP_CLAMP)
    return -p0 / (1.0 + np.exp(z1)) + (1.0 - p0) / (1.0 + np.exp(z2))


def _linear_axis(axis, linear_scale):
    if linear_scale not in LINEAR_SCALES:
        raise ValidationError(f"linear_scale must be one of {LINEAR_SCALES}")
    return axis if linear_scale == "log10" else 10.0 ** axis


def linear_axes(grid: LogConcGrid, linear_scale: str = "log10"):
    """Concentration axes entering the linear part of the predictor."""
    return _linear_axis(grid.logc1, linear_scale), _linear_axis(grid.logc2, linear_scale)


def interaction_predictor(grid: LogConcGrid, state: ParameterState, spline: SplineSpec,
                          linear_scale: str = "log10") -> np.ndarray:
    """Latent surface B_ij = gamma0 + gamma1 u1_i + gamma2 u2_j + spline part."""
    u1, u2 = linear_axes(grid, linear_scale)
    basis1 = basis_matrix(grid.logc1, spline.knots1, spline.degree)
    basis2 = basis_matrix(grid.logc2, spline.knots2, spline.degree)
    return (state.gamma0
            + state.gamma1 * u1[:, None]
            + state.gamma2 * u2[None, :]
            + tensor_eval(basis1, state.C, basis2))


def interaction_surface(grid: LogConcGrid, state: ParameterState, spline: SplineSpec,
                        linear_scale: str = "log10") -> SurfaceGrid:
    """Delta surface: link of the latent predictor, zero on the no-drug borders."""
    p0 = zero_interaction_surface(grid, state).values
    b_pred = interaction_predictor(grid, state, spline, linear_scale)
    delta = link_g(b_pred, p0, state.b1, state.b2) * grid.border_mask()
    return SurfaceGrid(values=delta, axis1=grid.logc1, axis2=grid.logc2, label="delta")


def mean_surface(grid: LogConcGrid, state: ParameterState, spline: SplineSpec,
                 linear_scale: str = "log10") -> SurfaceGrid:
    """Modelled mean viability p = p0 + Delta; lies in (0, 1) by construction."""
    p0 = zero_interaction_surface(grid, state).values
    delta = interaction_surface(grid, state, spline, linear_scale).values
    return SurfaceGrid(values=p0 + delta, axis1=grid.logc1, axis2=grid.logc2, label="p")


# ---------------------------------------------------------------------------
# The same surfaces for every row of a draws array


@dataclass(frozen=True)
class SurfaceDesign:
    """Draw-independent factors of the surfaces on one pair of log10 axes.

    The latent predictor of a draw is B = lift1 @ M @ lift2.T: each lift is a
    spline basis with a column of ones and the linear axis appended, and M
    (see coefficients) borders C with gamma0, gamma1 and gamma2. mask is the
    border mask applied to Delta, or None.
    """

    axis1: np.ndarray
    axis2: np.ndarray
    lift1: np.ndarray
    lift2: np.ndarray
    mask: np.ndarray = None

    @classmethod
    def on_axes(cls, axis1, axis2, spline: SplineSpec, linear_scale: str = "log10",
                mask=None) -> "SurfaceDesign":
        def lift(axis, knots):
            return np.column_stack((basis_matrix(axis, knots, spline.degree),
                                    np.ones(axis.size), _linear_axis(axis, linear_scale)))
        return cls(axis1, axis2, lift(axis1, spline.knots1), lift(axis2, spline.knots2), mask)

    @classmethod
    def on_grid(cls, grid: LogConcGrid, spline: SplineSpec,
                linear_scale: str = "log10") -> "SurfaceDesign":
        return cls.on_axes(grid.logc1, grid.logc2, spline, linear_scale, grid.border_mask())

    def coefficients(self, draws: np.ndarray) -> np.ndarray:
        """(n, k1 + 2, k2 + 2) stack of M: C, with gamma0 at [k1, k2], gamma1
        at [k1 + 1, k2] and gamma2 at [k1, k2 + 1]."""
        k1, k2 = self.lift1.shape[1] - 2, self.lift2.shape[1] - 2
        if draws.shape[1] != N_SCALARS + k1 * k2:
            raise ValidationError(f"draws have {draws.shape[1]} columns, the {k1} x {k2} "
                                  f"spline layout needs {N_SCALARS + k1 * k2}")
        coef = np.zeros((draws.shape[0], k1 + 2, k2 + 2))
        coef[:, :k1, :k2] = draws[:, N_SCALARS:].reshape(-1, k1, k2)
        for name, at in (("gamma0", (k1, k2)), ("gamma1", (k1 + 1, k2)), ("gamma2", (k1, k2 + 1))):
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
    delta = link_values(b_pred, p0, b1, b2)
    if design.mask is not None:
        delta *= design.mask
    return p0, delta


def summed_mean_surface(draws: np.ndarray, design: SurfaceDesign) -> np.ndarray:
    """Sum over the rows of draws of the unmasked mean surface p0 + g(B).

    Uses p0 + g(B) = p0 s(b1 B) + (1 - p0) s(b2 B), s the logistic function,
    one draw at a time through reused buffers, so the working set does not
    grow with the number of draws.
    """
    m1, lam1, m2, lam2 = _columns(draws, "m1", "lambda1", "m2", "lambda2")
    f1, f2 = curve_values(design.axis1, m1, lam1), curve_values(design.axis2, m2, lam2)
    coef = design.coefficients(draws)
    lift2_t = np.ascontiguousarray(design.lift2.T)
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
# Likelihood and prior densities


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


def log_likelihood(data: PlateDataset, p, sigma2_eps: float) -> float:
    """Total Gaussian log likelihood of the plate under mean surface p."""
    values = p.values if isinstance(p, SurfaceGrid) else np.asarray(p, dtype=float)
    if values.shape != data.viability.shape[:2]:
        raise ValidationError("mean surface shape does not match the plate grid")
    return float(observation_log_densities(data, values, sigma2_eps).sum())


def normal_log_density(x: float, sigma2: float) -> float:
    return -0.5 * math.log(2.0 * math.pi * sigma2) - x * x / (2.0 * sigma2)


def matrix_normal_log_density(C: np.ndarray, prec_rows: np.ndarray,
                              prec_cols: np.ndarray) -> float:
    """Centered matrix-normal log density with row/column precision matrices.

    Equivalent to vec_F(C) ~ N(0, (prec_cols kron prec_rows)^-1).
    """
    C = np.asarray(C, dtype=float)
    k1, k2 = C.shape
    if prec_rows.shape != (k1, k1) or prec_cols.shape != (k2, k2):
        raise ValidationError("precision shapes do not match the coefficient matrix")
    sign1, logdet1 = np.linalg.slogdet(prec_rows)
    sign2, logdet2 = np.linalg.slogdet(prec_cols)
    if sign1 <= 0 or sign2 <= 0:
        raise ValidationError("precision matrices must be positive definite")
    quad = float(np.sum(prec_cols * (C.T @ prec_rows @ C)))
    return (-0.5 * k1 * k2 * math.log(2.0 * math.pi)
            + 0.5 * k2 * logdet1 + 0.5 * k1 * logdet2
            - 0.5 * quad)


def log_prior(state: ParameterState, priors: PriorSpec, spline: SplineSpec) -> float:
    """Joint log prior density of a parameter state.

    Half-Cauchy variance priors are densities on the sigma scale; the
    Inverse-Gamma alternative is a density on the variance itself. C uses the
    second-difference penalty precisions of the spline layout.
    """
    total = 0.0
    for name in PHI_NAMES:
        total += normal_log_density(state.phi_value(name), state.sigma2_phi[name])
    total += priors.lambda1.log_density(state.lambda1)
    total += priors.lambda2.log_density(state.lambda2)
    total += priors.b1.log_density(state.b1)
    total += priors.b2.log_density(state.b2)
    if state.C.shape != (spline.k1, spline.k2):
        raise ValidationError("C shape does not match the spline layout")
    prec1 = penalty_precision(spline.k1, spline.penalty_ridge)
    prec2 = penalty_precision(spline.k2, spline.penalty_ridge)
    total += matrix_normal_log_density(state.C, prec1, prec2)
    for name in PHI_NAMES:
        total += priors.variance_log_density(state.sigma2_phi[name])
    total += priors.variance_log_density(state.sigma2_eps)
    return total


def initial_state(grid: LogConcGrid, spline: SplineSpec) -> ParameterState:
    """Default chain start: informative p0 (EC50 mid-range, unit slopes), null Delta."""
    return ParameterState(
        m1=float(0.5 * (grid.logc1[0] + grid.logc1[-1])),
        m2=float(0.5 * (grid.logc2[0] + grid.logc2[-1])),
        lambda1=1.0, lambda2=1.0, b1=1.0, b2=1.0,
        gamma0=0.0, gamma1=0.0, gamma2=0.0,
        C=np.zeros((spline.k1, spline.k2)),
        sigma2_phi={name: 0.01 for name in PHI_NAMES},
        sigma2_eps=0.01,
    )
