"""Synthetic two-drug plates with known ground-truth surfaces.

Three interaction patterns are available on a fixed reference grid: (1) no
interaction, (2) an antagonistic bump at high doses of both drugs, (3) mixed
synergy at high doses and antagonism at low doses. Monotherapy truths are
probit-shaped, so the fitted log-logistic model is deliberately misspecified.
"""

import math
from dataclasses import dataclass

import numpy as np

from .data import LogConcGrid, PlateDataset, SurfaceGrid
from .errors import ValidationError

NOISE_FAMILIES = ("normal", "t5")
INTERACTION_IDS = (1, 2, 3)

_SQRT2 = math.sqrt(2.0)


def normal_cdf(x):
    """Standard normal CDF via the stdlib erf (exact to double precision)."""
    arr = np.asarray(x, dtype=float)
    flat = np.array([0.5 * (1.0 + math.erf(v / _SQRT2)) for v in arr.ravel()])
    return flat.reshape(arr.shape) if arr.shape else float(flat[0])


@dataclass(frozen=True)
class SimScenario:
    """Configuration of one simulated plate."""

    interaction_id: int
    noise: str = "normal"
    n_rep: int = 3
    sigma_eps: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.interaction_id not in INTERACTION_IDS:
            raise ValidationError(f"interaction_id must be one of {INTERACTION_IDS}")
        if self.noise not in NOISE_FAMILIES:
            raise ValidationError(f"noise must be one of {NOISE_FAMILIES}")
        if self.n_rep < 1:
            raise ValidationError("n_rep must be at least 1")
        if not self.sigma_eps > 0.0:
            raise ValidationError("sigma_eps must be positive")


def reference_concentrations():
    """Natural-unit concentration axes of the reference simulation grid.

    Axis 1: zero plus log10 doses -4..5 in unit steps (11 points).
    Axis 2: zero plus log10 doses -3.5..3.5 in unit steps and a top dose at
    5.5 (10 points).
    """
    conc1 = np.concatenate(([0.0], 10.0 ** np.arange(-4.0, 6.0)))
    conc2 = np.concatenate(([0.0], 10.0 ** np.arange(-3.5, 4.5), [10.0 ** 5.5]))
    return conc1, conc2


def reference_grid() -> LogConcGrid:
    conc1, conc2 = reference_concentrations()
    data = PlateDataset(conc1=conc1, conc2=conc2,
                        viability=np.full((conc1.size, conc2.size, 1), 0.5))
    return LogConcGrid.from_dataset(data)


def truth_p0(grid: LogConcGrid) -> SurfaceGrid:
    """Probit-shaped zero-interaction truth on the substituted log grid."""
    f1 = normal_cdf((0.0 - grid.logc1) / math.sqrt(5.0))
    f2 = normal_cdf((5.0 - grid.logc2) / math.sqrt(5.0))
    return SurfaceGrid(values=np.outer(f1, f2), axis1=grid.logc1, axis2=grid.logc2)


def interaction_field(interaction_id: int, x1, x2):
    """Ground-truth interaction formula evaluated at log10 coordinates.

    This is the raw field; on a plate the zero-concentration borders are
    masked to zero because no interaction can occur with a single drug.
    """
    if interaction_id not in INTERACTION_IDS:
        raise ValidationError(f"interaction_id must be one of {INTERACTION_IDS}")
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if interaction_id == 1:
        return np.zeros(np.broadcast(x1, x2).shape)
    if interaction_id == 2:
        return (normal_cdf((x1 - 5.0) / math.sqrt(10.0))
                * normal_cdf((x2 - 5.0) / math.sqrt(10.0)))
    return 0.5 * (normal_cdf(x1 - 1.0) * normal_cdf(x2 - 1.0)
                  - normal_cdf(-1.0 - x1) * normal_cdf(-1.0 - x2))


def truth_delta(grid: LogConcGrid, interaction_id: int) -> SurfaceGrid:
    """Masked interaction truth on the grid (zero on the no-drug borders)."""
    field = interaction_field(interaction_id, grid.logc1[:, None], grid.logc2[None, :])
    return SurfaceGrid(values=field * grid.border_mask(), axis1=grid.logc1, axis2=grid.logc2)


def sample_plate(scenario: SimScenario, grid: LogConcGrid = None):
    """Draw one replicated plate; returns (PlateDataset, truth surfaces dict).

    Normal noise has standard deviation sigma_eps; the heavy-tailed option is
    a location-scale t with 5 degrees of freedom and scale sigma_eps, built
    from a normal/chi-square ratio on the same RNG stream.
    """
    if grid is None:
        grid = reference_grid()
        conc1, conc2 = reference_concentrations()
    else:
        conc1 = np.concatenate(([0.0], 10.0 ** grid.logc1[1:]))
        conc2 = np.concatenate(([0.0], 10.0 ** grid.logc2[1:]))
    p0 = truth_p0(grid)
    delta = truth_delta(grid, scenario.interaction_id)
    p = p0.values + delta.values
    rng = np.random.default_rng(scenario.seed)
    shape = (grid.logc1.size, grid.logc2.size, scenario.n_rep)
    if scenario.noise == "normal":
        noise = rng.standard_normal(shape)
    else:
        z = rng.standard_normal(shape)
        w = rng.chisquare(5.0, shape)
        noise = z / np.sqrt(w / 5.0)
    viability = p[:, :, None] + scenario.sigma_eps * noise
    data = PlateDataset(conc1=conc1, conc2=conc2, viability=viability)
    truths = {
        "p0": p0,
        "delta": delta,
        "p": SurfaceGrid(values=p, axis1=grid.logc1, axis2=grid.logc2),
    }
    return data, truths
