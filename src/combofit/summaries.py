"""Posterior and curve-level summaries: DSS, rVUS, bi-dimensional EC50 set,
pseudo-marginal predictive score (LPML) and surface MSE."""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .data import SurfaceGrid
from .errors import ValidationError
from .model import LN10, SurfaceDesign, summed_mean_surface

# Acceptance after burn-in outside this range marks a block as stuck or as
# proposing steps too small to explore.
ACCEPTANCE_RANGE = (0.05, 0.9)


# ---------------------------------------------------------------------------
# Curve- and surface-level scores


def dss_scores(m, lam, lo: float, hi: float, threshold: float):
    """Drug sensitivity scores of fitted 2LL curves over the log10 dose window
    [lo, hi], unchecked; m and lam broadcast.

    Activity a(x) = 1 - f(x) is integrated over the part of the window where
    it exceeds the threshold t; the score is
    100 * max(0, AUC - t * R) / ((1 - t) * R) with R the window width, so a
    fully inactive drug scores 0 and a fully active one 100. Activity is
    increasing in x, so the above-threshold region is an interval [x_t, hi]
    with x_t in closed form, and the activity has antiderivative
    log10(1 + 10^(lam (x - m))) / lam.
    """
    width = hi - lo
    x_t = np.clip(m + math.log10(threshold / (1.0 - threshold)) / lam, lo, hi)
    # log10(1 + 10^z) = logaddexp(0, z ln 10) / ln 10 without overflow
    auc = (np.logaddexp(0.0, LN10 * lam * (hi - m))
           - np.logaddexp(0.0, LN10 * lam * (x_t - m))) / (LN10 * lam)
    score = 100.0 * np.maximum(0.0, auc - threshold * width) / ((1.0 - threshold) * width)
    return np.where(x_t >= hi, 0.0, score)


def mean_heights(values, axis1, axis2):
    """Trapezoid volume under each surface of a (..., n1, n2) stack divided by
    the area of its axes' box, in one contraction with fixed weights: the
    rVUS of a surface with bounds (0, 1), so a constant surface c scores c."""
    w1, w2 = (np.trapezoid(np.eye(axis.size), axis) / (axis[-1] - axis[0])
              for axis in (axis1, axis2))
    return values.reshape(*values.shape[:-2], -1) @ np.outer(w1, w2).ravel()


def bi_ec50(p_surface: SurfaceGrid, tolerance: float = 0.01) -> np.ndarray:
    """Grid points whose mean viability sits within tolerance of 0.5.

    Returns an (n, 2) array of (log10 conc1, log10 conc2) pairs; possibly
    empty. Widening the tolerance can only grow the set.
    """
    if not tolerance >= 0.0:
        raise ValidationError("tolerance must be nonnegative")
    mask = np.abs(p_surface.values - 0.5) <= tolerance
    ii, jj = np.nonzero(mask)
    return np.column_stack((p_surface.axis1[ii], p_surface.axis2[jj]))


class LpmlStream:
    """Log pseudo-marginal likelihood of the row-wise stack of (samples,
    observations) log-density blocks that are added one at a time and not
    kept: the sum of log conditional predictive ordinates, each the harmonic
    mean of one observation's densities over the samples. With a single
    sample it is that sample's total log likelihood.

    Per observation it keeps the lowest log density so far, low, and the sum
    of exp(low - ld) over the rows so far; a block that lowers low rescales
    that sum by exp(new_low - low)."""

    def __init__(self):
        self.n_samples, self.low, self.total = 0, None, 0.0

    def add(self, block: np.ndarray):
        if not np.all(np.isfinite(block)):
            raise ValidationError("log densities must be finite")
        low = block.min(axis=0)
        if self.n_samples:
            np.minimum(low, self.low, out=low)
            self.total *= np.exp(low - self.low)
        self.total += np.exp(low - block).sum(axis=0)
        self.low = low
        self.n_samples += block.shape[0]

    def value(self) -> float:
        return float(np.sum(math.log(self.n_samples) - (np.log(self.total) - self.low)))


def combination_columns(grid, n_obs: int) -> np.ndarray:
    """Boolean mask over raveled (i, j, replicate) observation columns that
    selects the combination observations, i.e. cells where both drugs were
    dispensed. Monotherapy border observations (either dose zero) are excluded.
    """
    cells = grid.shape[0] * grid.shape[1]
    if n_obs % cells != 0:
        raise ValidationError(
            f"observation count {n_obs} is not a multiple of the {cells}-cell grid")
    n_rep = n_obs // cells
    interior = grid.border_mask() > 0.0
    return np.repeat(interior.ravel(), n_rep)


def mse_surface(estimate, truth) -> float:
    """Mean squared cellwise difference between two surfaces."""
    a = estimate.values if isinstance(estimate, SurfaceGrid) else np.asarray(estimate, dtype=float)
    b = truth.values if isinstance(truth, SurfaceGrid) else np.asarray(truth, dtype=float)
    if a.shape != b.shape:
        raise ValidationError(f"surface shapes differ: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.mean(d * d))


# ---------------------------------------------------------------------------
# Posterior aggregation


def fine_mean_surface(posterior, n_points: int = 100) -> SurfaceGrid:
    """Posterior-mean viability on a refined grid over the nonzero dose ranges.

    The mean surface is re-evaluated per retained sample on the fine grid
    (interaction included, no border mask: every fine point has both drugs
    present) and then averaged; draws are visited a block at a time.
    """
    grid = posterior.grid
    ax1 = np.linspace(grid.logc1[1], grid.logc1[-1], n_points)
    ax2 = np.linspace(grid.logc2[1], grid.logc2[-1], n_points)
    design = SurfaceDesign.on_axes(ax1, ax2, posterior.spline, posterior.linear_scale)
    total = np.zeros((n_points, n_points))
    for rows in posterior.row_blocks():
        summed_mean_surface(rows, design, total=total)
    return SurfaceGrid(values=total / len(posterior), axis1=ax1, axis2=ax2, label="p_fine")


def _quantile_stats(samples: np.ndarray) -> dict:
    return {
        "median": float(np.median(samples)),
        "lower95": float(np.percentile(samples, 2.5)),
        "upper95": float(np.percentile(samples, 97.5)),
        "mean": float(np.mean(samples)),
    }


@dataclass
class SummaryReport:
    """Posterior summary block emitted by a fit."""

    n_samples: int
    lpml: float
    dss_threshold: float
    dss: dict
    rvus: dict
    interaction_labels: dict
    bi_ec50_tolerance: float
    bi_ec50_points: np.ndarray
    acceptance: dict = field(default_factory=dict)
    acceptance_after_burn_in: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    posterior_mean: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """Every field but posterior_mean, in field order."""
        payload = {f.name: getattr(self, f.name) for f in fields(self)[:-1]}
        payload["bi_ec50_points"] = [[float(a), float(b)] for a, b in self.bi_ec50_points]
        return payload


def summarize_chains(posterior, dss_threshold: float = 0.10,
                     bi_ec50_tolerance: float = 0.01, fine_points: int = 100,
                     swap_interaction_labels: bool = False) -> SummaryReport:
    """Full posterior summary of an mcmc.Posterior, its chains pooled.

    Every score is computed per retained sample and reported as median with a
    central 95% interval. rVUS of the interaction components shares the |Delta|
    bounding box of its own sample. The delta_plus/delta_minus naming follows
    the link sign convention (delta_plus collects viability deficits,
    Delta < 0); swap_interaction_labels flips which one is labelled
    synergistic.

    LPML is reported over the combination observations only (both doses
    nonzero): the monotherapy borders inform the fit but the predictive score
    targets the cells where an interaction is possible. warnings names each
    chain's blocks whose acceptance after burn-in lies outside
    ACCEPTANCE_RANGE. acceptance and acceptance_after_burn_in list every
    chain, with no rates for a chain whose draws carry none. Surfaces and log
    densities are folded into the scores a block of draws at a time, so only
    the scores grow with the draws.
    """
    grid, series = posterior.grid, posterior.scalar_series
    lo1, hi1 = float(grid.logc1[1]), float(grid.logc1[-1])
    lo2, hi2 = float(grid.logc2[1]), float(grid.logc2[-1])
    dss1 = dss_scores(series("m1"), series("lambda1"), lo1, hi1, dss_threshold)
    dss2 = dss_scores(series("m2"), series("lambda2"), lo2, hi2, dss_threshold)
    keys = ("p0", "abs_delta", "delta_plus", "delta_minus", "one_minus_p")
    n_samples = len(posterior)
    scores = np.empty((len(keys), n_samples))
    sum_p0, sum_delta = np.zeros(grid.shape), np.zeros(grid.shape)
    combo, stream, start = None, LpmlStream(), 0
    for rows, p0, delta, ld in posterior.blocks():
        stop = start + len(rows)
        scores[:, start:stop] = _rvus_scores(p0, delta, grid)
        start = stop
        sum_p0 += p0.sum(axis=0)
        sum_delta += delta.sum(axis=0)
        if combo is None:
            combo = combination_columns(grid, ld.shape[1])
        stream.add(ld[:, combo])

    labels = {"delta_plus": "synergistic", "delta_minus": "antagonistic"}
    if swap_interaction_labels:
        labels = {"delta_plus": "antagonistic", "delta_minus": "synergistic"}

    fine = fine_mean_surface(posterior, n_points=fine_points)
    lo, hi = ACCEPTANCE_RANGE
    chains = np.unique(posterior.chain).tolist()
    after = {i: posterior.accept_rates_after_burn_in.get(i, {}) for i in chains}
    warnings = [{"chain": i, "block": block, "acceptance": rate}
                for i, rates in after.items() for block, rate in rates.items()
                if not lo <= rate <= hi]
    return SummaryReport(
        n_samples=n_samples,
        lpml=stream.value(),
        dss={"drug1": _quantile_stats(dss1), "drug2": _quantile_stats(dss2)},
        rvus={key: _quantile_stats(vals) for key, vals in zip(keys, scores)},
        interaction_labels=labels,
        bi_ec50_points=bi_ec50(fine, bi_ec50_tolerance),
        bi_ec50_tolerance=bi_ec50_tolerance,
        dss_threshold=dss_threshold,
        posterior_mean={"p0": sum_p0 / n_samples, "delta": sum_delta / n_samples,
                        "p": sum_p0 / n_samples + sum_delta / n_samples},
        acceptance={str(i): dict(posterior.accept_rates.get(i, {})) for i in chains},
        acceptance_after_burn_in={str(i): dict(rates) for i, rates in after.items()},
        warnings=warnings,
    )


def _rvus_scores(p0, delta, grid):
    """(5, n) rVUS of p0, |Delta|, its two signed parts and 1 - p per draw.

    The interaction parts share the |Delta| bounding box of their own draw,
    max over the grid of max(p0, 1 - p0).
    """
    bound = np.max(np.maximum(p0, 1.0 - p0), axis=(1, 2))
    stack = np.stack((p0, np.abs(delta), np.maximum(-delta, 0.0),
                      np.maximum(delta, 0.0), 1.0 - (p0 + delta)))
    heights = mean_heights(stack, grid.logc1, grid.logc2)
    heights[1:4] /= bound
    return heights
