"""Plate-shaped viability data and the log-concentration grids derived from it."""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Zero concentrations are placed this many log10 units below the smallest
# nonzero concentration so the whole grid lives on a finite log scale.
ZERO_OFFSET_DECADES = 2.0


def _as_float_array(x, name, ndim):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != ndim:
        raise ValidationError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class PlateDataset:
    """Replicated viability readings on a two-drug concentration grid.

    conc1 and conc2 are natural-unit concentration axes with the zero
    (control) concentration first. viability has shape
    (len(conc1), len(conc2), n_rep); values may fall outside [0, 1] because
    plates are normalised against controls.
    """

    conc1: np.ndarray
    conc2: np.ndarray
    viability: np.ndarray

    def __post_init__(self):
        conc1 = _as_float_array(self.conc1, "conc1", 1)
        conc2 = _as_float_array(self.conc2, "conc2", 1)
        via = _as_float_array(self.viability, "viability", 3)
        for name, axis in (("conc1", conc1), ("conc2", conc2)):
            if axis.size < 2:
                raise ValidationError(f"{name} needs the zero and at least one dose")
            if axis[0] != 0.0:
                raise ValidationError(f"{name} must start with the zero concentration")
            if np.any(np.diff(axis) <= 0.0):
                raise ValidationError(f"{name} must be strictly increasing")
        if via.shape[:2] != (conc1.size, conc2.size):
            raise ValidationError(
                f"viability shape {via.shape} does not match grid "
                f"({conc1.size}, {conc2.size}, n_rep)"
            )
        if via.shape[2] < 1:
            raise ValidationError("viability needs at least one replicate")
        object.__setattr__(self, "conc1", conc1)
        object.__setattr__(self, "conc2", conc2)
        object.__setattr__(self, "viability", via)

    @property
    def n_rep(self):
        return self.viability.shape[2]

    @property
    def n_obs(self):
        return self.viability.size

    def replicate_mean(self):
        return self.viability.mean(axis=2)


@dataclass(frozen=True)
class LogConcGrid:
    """log10 concentration axes with the zero doses substituted.

    The zero concentration of each axis is mapped to
    log10(min nonzero) - ZERO_OFFSET_DECADES, so index 0 always denotes the
    no-drug row/column.
    """

    logc1: np.ndarray
    logc2: np.ndarray

    def __post_init__(self):
        logc1 = _as_float_array(self.logc1, "logc1", 1)
        logc2 = _as_float_array(self.logc2, "logc2", 1)
        for name, axis in (("logc1", logc1), ("logc2", logc2)):
            if np.any(np.diff(axis) <= 0.0):
                raise ValidationError(f"{name} must be strictly increasing")
        object.__setattr__(self, "logc1", logc1)
        object.__setattr__(self, "logc2", logc2)

    @classmethod
    def from_dataset(cls, data: PlateDataset) -> "LogConcGrid":
        sub1 = float(np.log10(data.conc1[1]) - ZERO_OFFSET_DECADES)
        sub2 = float(np.log10(data.conc2[1]) - ZERO_OFFSET_DECADES)
        logc1 = np.concatenate(([sub1], np.log10(data.conc1[1:])))
        logc2 = np.concatenate(([sub2], np.log10(data.conc2[1:])))
        return cls(logc1=logc1, logc2=logc2)

    @property
    def shape(self):
        return (self.logc1.size, self.logc2.size)

    def border_mask(self) -> np.ndarray:
        """1.0 on cells where both drugs are present, 0.0 on the zero borders."""
        mask = np.ones(self.shape)
        mask[0, :] = 0.0
        mask[:, 0] = 0.0
        return mask


@dataclass(frozen=True)
class SurfaceGrid:
    """A scalar field evaluated on a rectangular log10-concentration grid."""

    values: np.ndarray
    axis1: np.ndarray
    axis2: np.ndarray

    def __post_init__(self):
        values = _as_float_array(self.values, "values", 2)
        axis1 = _as_float_array(self.axis1, "axis1", 1)
        axis2 = _as_float_array(self.axis2, "axis2", 1)
        if values.shape != (axis1.size, axis2.size):
            raise ValidationError(
                f"values shape {values.shape} does not match axes "
                f"({axis1.size}, {axis2.size})"
            )
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "axis1", axis1)
        object.__setattr__(self, "axis2", axis2)
