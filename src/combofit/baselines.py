"""Classical reference surfaces: fitted monotherapy curves and the Bliss,
HSA, Loewe and simplified ZIP zero/expected-response constructions.

All baselines consume a PlateDataset and produce SurfaceGrids on the same
substituted log10 grid as the Bayesian model, so interaction estimates are
directly comparable: delta_hat = replicate mean - baseline surface.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import LogConcGrid, PlateDataset, SurfaceGrid
from .errors import FitConvergenceError, ValidationError
from .model import curve_values

# Search boxes for the least-squares fit. EC50 may sit well outside the
# observed range (no-effect data), the slope is kept positive.
_M_MARGIN = 5.0
_LOG_LAMBDA_BOUNDS = (-6.0, 3.0)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# fit_2ll's limit on coordinate-descent sweeps, and loewe_cell's bisection
# bracket on y with its tolerances on the combination index and bracket width.
_MAX_SWEEPS = 100
_LOEWE_Y_BOUNDS = (1e-9, 1.0 - 1e-9)
_LOEWE_INDEX_TOL, _LOEWE_Y_TOL = 1e-10, 1e-12


@dataclass(frozen=True)
class MonoFit:
    """Least-squares 2-parameter log-logistic fit of one monotherapy margin."""

    m: float
    lam: float
    rss: float
    lambda_at_bound: bool

    def curve(self, logx):
        """The fitted curve on a sorted axis logx (see curve_values)."""
        return curve_values(logx, self.m, self.lam)


def _golden_min(fn, lo, hi, tol=1e-11, max_iter=300):
    """Golden-section minimum of a unimodal 1-D function on [lo, hi]."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fn(x1), fn(x2)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fn(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fn(x2)
    xm = 0.5 * (a + b)
    return xm, fn(xm)


def fit_2ll(logx, y) -> MonoFit:
    """Fit the 2-parameter log-logistic curve by least squares.

    Grid search over (m, log10 lambda) picks a start, then coordinate descent
    with golden-section line searches refines it. Needs at least 3 distinct
    concentrations spanning a decade. A lambda estimate stuck at the search
    bound (flat or non-decreasing data) is flagged rather than treated as an
    error.
    """
    logx = np.asarray(logx, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if logx.size != y.size:
        raise ValidationError("logx and y must have the same length")
    if not (np.all(np.isfinite(logx)) and np.all(np.isfinite(y))):
        raise ValidationError("fit points must be finite")
    order = np.argsort(logx, kind="stable")  # curve_values needs a sorted axis
    logx, y = logx[order], y[order]
    distinct = np.unique(logx)
    if distinct.size < 3:
        raise ValidationError("need at least 3 distinct concentrations")
    span = distinct[-1] - distinct[0]
    if span < 1.0:
        raise ValidationError("concentrations must span at least one decade (log10)")

    def rss_of(m, lam):
        r = y - curve_values(logx, m, lam)
        return float(r @ r)

    m_lo, m_hi = distinct[0] - _M_MARGIN, distinct[-1] + _M_MARGIN
    m_grid = np.linspace(distinct[0] - 2.0, distinct[-1] + 2.0, 45)
    u_grid = np.linspace(-2.0, 1.0, 25)
    t = 10.0 ** u_grid[None, :, None] * (logx[None, None, :] - m_grid[:, None, None])
    f = 1.0 / (1.0 + 10.0 ** np.clip(t, -300.0, 300.0))
    rss_grid = ((y[None, None, :] - f) ** 2).sum(axis=2)
    i, j = np.unravel_index(np.argmin(rss_grid), rss_grid.shape)
    m, u = float(m_grid[i]), float(u_grid[j])
    best = rss_of(m, 10.0 ** u)

    for _ in range(_MAX_SWEEPS):
        m, _ = _golden_min(lambda mm: rss_of(mm, 10.0 ** u), m_lo, m_hi)
        u, rss = _golden_min(lambda uu: rss_of(m, 10.0 ** uu), *_LOG_LAMBDA_BOUNDS)
        if math.isfinite(rss) and abs(best - rss) <= 1e-14 * max(1.0, best):
            at_bound = (u <= _LOG_LAMBDA_BOUNDS[0] + 1e-6) or (u >= _LOG_LAMBDA_BOUNDS[1] - 1e-6)
            return MonoFit(m=m, lam=10.0 ** u, rss=rss, lambda_at_bound=at_bound)
        best = rss
    raise FitConvergenceError(
        f"2LL fit did not converge after {_MAX_SWEEPS} sweeps (rss={best:g})")


def fit_monotherapies(data: PlateDataset, grid: LogConcGrid):
    """Fit both margins of a plate; every replicate enters as its own point."""
    n_rep = data.n_rep
    logx1 = np.repeat(grid.logc1, n_rep)
    logx2 = np.repeat(grid.logc2, n_rep)
    fit1 = fit_2ll(logx1, data.viability[:, 0, :].ravel())
    fit2 = fit_2ll(logx2, data.viability[0, :, :].ravel())
    return fit1, fit2


# ---------------------------------------------------------------------------
# Zero/expected-interaction surfaces


def bliss_surface(fit1: MonoFit, fit2: MonoFit, grid: LogConcGrid) -> SurfaceGrid:
    """Independence surface: product of the two fitted monotherapy curves."""
    values = np.outer(fit1.curve(grid.logc1), fit2.curve(grid.logc2))
    return SurfaceGrid(values=values, axis1=grid.logc1, axis2=grid.logc2)


def hsa_surface(margin1, margin2, grid: LogConcGrid) -> SurfaceGrid:
    """Highest single agent: cellwise max of the observed margin responses."""
    margin1 = np.asarray(margin1, dtype=float)
    margin2 = np.asarray(margin2, dtype=float)
    if margin1.size != grid.logc1.size or margin2.size != grid.logc2.size:
        raise ValidationError("margin lengths must match the grid axes")
    values = np.maximum(margin1[:, None], margin2[None, :])
    return SurfaceGrid(values=values, axis1=grid.logc1, axis2=grid.logc2)


def _log10_inverse_curve(fit: MonoFit, y: float) -> float:
    """log10 of the concentration where the fitted curve equals y."""
    return fit.m + math.log10((1.0 - y) / y) / fit.lam


def _loewe_index(lx1: float, lx2: float, fit1: MonoFit, fit2: MonoFit, y: float) -> float:
    """Combination index x1/f1^-1(y) + x2/f2^-1(y), computed in log space."""
    e1 = min(max(lx1 - _log10_inverse_curve(fit1, y), -300.0), 300.0)
    e2 = min(max(lx2 - _log10_inverse_curve(fit2, y), -300.0), 300.0)
    return 10.0 ** e1 + 10.0 ** e2


def loewe_cell(lx1: float, lx2: float, fit1: MonoFit, fit2: MonoFit):
    """Solve the Loewe additivity equation for one cell by bisection.

    Returns (y, flagged); flagged is True when the combination index has no
    sign change on the bracket, in which case the boundary value is reported.
    """
    lo, hi = _LOEWE_Y_BOUNDS
    f_lo = _loewe_index(lx1, lx2, fit1, fit2, lo) - 1.0
    f_hi = _loewe_index(lx1, lx2, fit1, fit2, hi) - 1.0
    if f_lo > 0.0:
        return lo, True
    if f_hi < 0.0:
        return hi, True
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = _loewe_index(lx1, lx2, fit1, fit2, mid) - 1.0
        if abs(f_mid) <= _LOEWE_INDEX_TOL or (hi - lo) <= _LOEWE_Y_TOL:
            return mid, False
        if f_mid > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), False


def loewe_surface(fit1: MonoFit, fit2: MonoFit, grid: LogConcGrid):
    """Loewe additivity surface; returns (SurfaceGrid, flagged boolean grid).

    Cells on the zero-concentration borders take the other drug's marginal
    value (the additivity equation is vacuous there); the both-zero cell is
    the no-drug response 1.
    """
    n1, n2 = grid.shape
    values = np.empty((n1, n2))
    flagged = np.zeros((n1, n2), dtype=bool)
    curve1 = fit1.curve(grid.logc1)
    curve2 = fit2.curve(grid.logc2)
    values[0, :] = curve2
    values[:, 0] = curve1
    values[0, 0] = 1.0
    for i in range(1, n1):
        for j in range(1, n2):
            values[i, j], flagged[i, j] = loewe_cell(
                grid.logc1[i], grid.logc2[j], fit1, fit2)
    surface = SurfaceGrid(values=values, axis1=grid.logc1, axis2=grid.logc2)
    return surface, flagged


def zip_surface(fit1: MonoFit, fit2: MonoFit, data: PlateDataset, grid: LogConcGrid):
    """Simplified potency-shift expected surface; returns (SurfaceGrid,
    fell_back).

    Every row (and column) gets its own re-fitted conditional curve on
    responses normalised by the fitted marginal of the conditioning drug; the
    surface is the mean of the row-wise and column-wise Bliss products. If
    any conditional fit fails the whole surface falls back to Bliss, flagged.
    Normalised responses are capped at 10 so rows where the conditioning drug
    is already lethal cannot blow up the fit.
    """
    ym = data.replicate_mean()
    f1 = fit1.curve(grid.logc1)
    f2 = fit2.curve(grid.logc2)
    n1, n2 = grid.shape
    rows = np.empty((n1, n2))
    cols = np.empty((n1, n2))
    try:
        for i in range(n1):
            z = np.minimum(ym[i, :] / f1[i], 10.0)
            rows[i, :] = f1[i] * fit_2ll(grid.logc2, z).curve(grid.logc2)
        for j in range(n2):
            z = np.minimum(ym[:, j] / f2[j], 10.0)
            cols[:, j] = f2[j] * fit_2ll(grid.logc1, z).curve(grid.logc1)
    except (FitConvergenceError, ValidationError):
        return bliss_surface(fit1, fit2, grid), True
    values = 0.5 * (rows + cols)
    return SurfaceGrid(values=values, axis1=grid.logc1, axis2=grid.logc2), False


BASELINE_METHODS = ("bliss", "hsa", "loewe", "zip")


def baseline_delta(data: PlateDataset, method: str, grid: LogConcGrid = None):
    """One named baseline surface and its interaction estimate delta_hat =
    replicate mean - baseline surface; returns (delta_hat, surface, info),
    info holding the monotherapy fits and the method's diagnostics."""
    if method not in BASELINE_METHODS:
        raise ValidationError(f"method must be one of {BASELINE_METHODS}")
    if grid is None:
        grid = LogConcGrid.from_dataset(data)
    ym = data.replicate_mean()
    info = {}
    if method == "hsa":
        surface = hsa_surface(ym[:, 0], ym[0, :], grid)
    else:
        fit1, fit2 = fit_monotherapies(data, grid)
        info = {"fit1": fit1, "fit2": fit2}
        if method == "bliss":
            surface = bliss_surface(fit1, fit2, grid)
        elif method == "loewe":
            surface, flagged = loewe_surface(fit1, fit2, grid)
            info["flagged_cells"] = int(flagged.sum())
        else:
            surface, info["fell_back"] = zip_surface(fit1, fit2, data, grid)
    delta = SurfaceGrid(values=ym - surface.values, axis1=grid.logc1, axis2=grid.logc2)
    return delta, surface, info
