"""Posterior and curve-level summaries: DSS, rVUS, bi-dimensional EC50 set,
pseudo-marginal predictive score (LPML) and surface MSE."""

import math
from dataclasses import dataclass, field

import numpy as np

from .data import SurfaceGrid
from .errors import ValidationError
from .model import LN10, SurfaceDesign, summed_mean_surface

# Whole-run acceptance outside this range marks a block as stuck or as
# proposing steps too small to explore.
ACCEPTANCE_RANGE = (0.05, 0.9)


# ---------------------------------------------------------------------------
# Curve- and surface-level scores


def dss(m: float, lam: float, conc_range, threshold: float = 0.10) -> float:
    """Drug sensitivity score of a fitted 2LL curve over a log10 dose window.

    Activity a(x) = 1 - f(x) is integrated over the part of the window where
    it exceeds the threshold t; the score is
    100 * max(0, AUC - t * R) / ((1 - t) * R) with R the window width, so a
    fully inactive drug scores 0 and a fully active one 100.
    """
    lo, hi = float(conc_range[0]), float(conc_range[1])
    if not hi > lo:
        raise ValidationError("conc_range must have positive width")
    if not 0.0 < threshold < 1.0:
        raise ValidationError("threshold must lie in (0, 1)")
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValidationError("lam must be finite and positive")
    return float(dss_scores(np.float64(m), np.float64(lam), lo, hi, threshold))


def dss_scores(m, lam, lo: float, hi: float, threshold: float):
    """dss for arrays of m and lam, unchecked, from the closed-form integral.

    Activity is increasing in x, so the above-threshold region is an interval
    [x_t, hi] with x_t in closed form, and the activity has antiderivative
    log10(1 + 10^(lam (x - m))) / lam.
    """
    width = hi - lo
    x_t = np.clip(m + math.log10(threshold / (1.0 - threshold)) / lam, lo, hi)
    # log10(1 + 10^z) = logaddexp(0, z ln 10) / ln 10 without overflow
    auc = (np.logaddexp(0.0, LN10 * lam * (hi - m))
           - np.logaddexp(0.0, LN10 * lam * (x_t - m))) / (LN10 * lam)
    score = 100.0 * np.maximum(0.0, auc - threshold * width) / ((1.0 - threshold) * width)
    return np.where(x_t >= hi, 0.0, score)


def rvus(surface: SurfaceGrid, lower: float, upper: float) -> float:
    """Volume under the surface, normalised by its bounding box.

    Double trapezoid over the surface's axes divided by
    (axis1 span) * (axis2 span) * (upper - lower); a constant surface c with
    bounds (0, 1) scores exactly c.
    """
    if not upper > lower:
        raise ValidationError("upper bound must exceed lower bound")
    values = surface.values
    if np.any(values < lower - 1e-12) or np.any(values > upper + 1e-12):
        raise ValidationError("surface values fall outside the stated bounds")
    span1 = surface.axis1[-1] - surface.axis1[0]
    span2 = surface.axis2[-1] - surface.axis2[0]
    if not (span1 > 0.0 and span2 > 0.0):
        raise ValidationError("rvus needs at least two points per axis")
    volume = float(mean_heights(values, surface.axis1, surface.axis2))
    return (volume - lower) / (upper - lower)


def mean_heights(values, axis1, axis2):
    """Trapezoid volume under each surface of a (..., n1, n2) stack divided by
    the area of its axes' box, in one contraction with fixed weights."""
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


def lpml(obs_log_densities: np.ndarray) -> float:
    """Log pseudo-marginal likelihood: sum of log conditional predictive
    ordinates, each the harmonic mean of per-sample observation densities.

    Rows are posterior samples, columns observations. With a single sample
    this reduces to that sample's total log likelihood.
    """
    ld = np.asarray(obs_log_densities, dtype=float)
    if ld.ndim != 2 or ld.shape[0] < 1:
        raise ValidationError("need a (samples, observations) log-density matrix")
    return _pooled_lpml([ld], np.ones(ld.shape[1], dtype=bool))


def _pooled_lpml(blocks, columns) -> float:
    """lpml of the row-wise stack of blocks, restricted to the boolean
    columns, without building the stack."""
    if not all(np.all(np.isfinite(block)) for block in blocks):
        raise ValidationError("log densities must be finite")
    n_samples = sum(block.shape[0] for block in blocks)
    low = np.min([block.min(axis=0) for block in blocks], axis=0)[columns]
    total = np.zeros(low.shape)
    for block in blocks:
        shifted = block[:, columns]
        shifted -= low
        np.negative(shifted, out=shifted)
        np.exp(shifted, out=shifted)
        total += shifted.sum(axis=0)
    log_cpo = math.log(n_samples) - (np.log(total) - low)
    return float(np.sum(log_cpo))


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


def _pool(chains):
    if not isinstance(chains, (list, tuple)):
        chains = [chains]
    if len(chains) == 0:
        raise ValidationError("need at least one chain")
    return list(chains)


def fine_mean_surface(chains, n_points: int = 100) -> SurfaceGrid:
    """Posterior-mean viability on a refined grid over the nonzero dose ranges.

    The mean surface is re-evaluated per retained sample on the fine grid
    (interaction included, no border mask: every fine point has both drugs
    present) and then averaged.
    """
    chains = _pool(chains)
    grid = chains[0].grid
    ax1 = np.linspace(grid.logc1[1], grid.logc1[-1], n_points)
    ax2 = np.linspace(grid.logc2[1], grid.logc2[-1], n_points)
    design = SurfaceDesign.on_axes(ax1, ax2, chains[0].spline, chains[0].linear_scale)
    total = sum(summed_mean_surface(chain.draws, design) for chain in chains)
    count = sum(len(chain) for chain in chains)
    return SurfaceGrid(values=total / count, axis1=ax1, axis2=ax2, label="p_fine")


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
    dss: dict
    rvus: dict
    interaction_labels: dict
    bi_ec50_points: np.ndarray
    bi_ec50_tolerance: float
    dss_threshold: float
    posterior_mean: dict = field(default_factory=dict)
    acceptance: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "n_samples": self.n_samples,
            "lpml": self.lpml,
            "dss_threshold": self.dss_threshold,
            "dss": self.dss,
            "rvus": self.rvus,
            "interaction_labels": self.interaction_labels,
            "bi_ec50_tolerance": self.bi_ec50_tolerance,
            "bi_ec50_points": [[float(a), float(b)] for a, b in self.bi_ec50_points],
            "acceptance": self.acceptance,
            "warnings": self.warnings,
        }


def summarize_chains(chains, dss_threshold: float = 0.10,
                     bi_ec50_tolerance: float = 0.01, fine_points: int = 100,
                     swap_interaction_labels: bool = False) -> SummaryReport:
    """Full posterior summary over one or several pooled chains.

    Every score is computed per retained sample and reported as median with a
    central 95% interval. rVUS of the interaction components shares the |Delta|
    bounding box of its own sample. The delta_plus/delta_minus naming follows
    the link sign convention (delta_plus collects viability deficits,
    Delta < 0); swap_interaction_labels flips which one is labelled
    synergistic.

    LPML is reported over the combination observations only (both doses
    nonzero): the monotherapy borders inform the fit but the predictive score
    targets the cells where an interaction is possible. warnings names each
    chain's blocks whose whole-run acceptance lies outside ACCEPTANCE_RANGE.
    """
    chains = _pool(chains)
    grid = chains[0].grid
    lo1, hi1 = float(grid.logc1[1]), float(grid.logc1[-1])
    lo2, hi2 = float(grid.logc2[1]), float(grid.logc2[-1])

    def pooled(name):
        return np.concatenate([chain.scalar_series(name) for chain in chains])

    dss1 = dss_scores(pooled("m1"), pooled("lambda1"), lo1, hi1, dss_threshold)
    dss2 = dss_scores(pooled("m2"), pooled("lambda2"), lo2, hi2, dss_threshold)
    keys = ("p0", "abs_delta", "delta_plus", "delta_minus", "one_minus_p")
    scores = np.concatenate([_rvus_scores(chain.p0, chain.delta, grid)
                             for chain in chains], axis=1)

    labels = {"delta_plus": "synergistic", "delta_minus": "antagonistic"}
    if swap_interaction_labels:
        labels = {"delta_plus": "antagonistic", "delta_minus": "synergistic"}

    fine = fine_mean_surface(chains, n_points=fine_points)
    n_samples = sum(len(chain) for chain in chains)
    mean_p0 = sum(chain.p0.sum(axis=0) for chain in chains) / n_samples
    mean_delta = sum(chain.delta.sum(axis=0) for chain in chains) / n_samples

    blocks = [chain.obs_log_densities for chain in chains]
    combo = combination_columns(grid, blocks[0].shape[1])
    lo, hi = ACCEPTANCE_RANGE
    warnings = [{"chain": i, "block": block, "acceptance": rate}
                for i, chain in enumerate(chains)
                for block, rate in chain.accept_rates.items() if not lo <= rate <= hi]
    return SummaryReport(
        n_samples=n_samples,
        lpml=_pooled_lpml(blocks, combo),
        dss={"drug1": _quantile_stats(dss1), "drug2": _quantile_stats(dss2)},
        rvus={key: _quantile_stats(vals) for key, vals in zip(keys, scores)},
        interaction_labels=labels,
        bi_ec50_points=bi_ec50(fine, bi_ec50_tolerance),
        bi_ec50_tolerance=bi_ec50_tolerance,
        dss_threshold=dss_threshold,
        posterior_mean={
            "p0": mean_p0,
            "delta": mean_delta,
            "p": mean_p0 + mean_delta,
        },
        acceptance={str(i): dict(chain.accept_rates) for i, chain in enumerate(chains)},
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
