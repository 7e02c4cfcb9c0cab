"""CSV and JSON serialisation of plates, surfaces and posterior samples.

Every CSV is written by _write_table, a cell as the repr (shortest round-trip
form) of its number, so every emitted file re-ingests to bit-identical values
and repeated runs with the same seed produce byte-identical output.
"""

import csv
import json
import math
import warnings
from itertools import chain, islice

import numpy as np

from .data import PlateDataset, SurfaceGrid
from .errors import ValidationError
from .model import DRAW_SCALARS, invalid_entry

PLATE_HEADER = ["drug1_conc", "drug2_conc", "replicate", "viability"]
TRUTH_HEADER = ["log10_drug1_conc", "log10_drug2_conc", "p0", "delta", "p"]
_SURFACE_CORNER = "log10_conc1\\log10_conc2"
# one row of each long-form CSV, in its header's column order
_PLATE_ROW = np.dtype([("conc", np.float64, (2,)), ("replicate", np.int64),
                       ("viability", np.float64)])
_TRUTH_ROW = np.dtype([("axes", np.float64, (2,)), ("values", np.float64, (3,))])
_WRITE_BLOCK = 32  # rows that _write_table holds as Python numbers at a time


# ---------------------------------------------------------------------------
# The table writer and reader


def _write_table(path, header, *columns):
    """Write header and the rows of columns, 2-D arrays of one row count
    placed side by side, as CSV at path: each cell the repr of its Python int
    or float, each row ended by \\r\\n. These are csv.writer's bytes, since no
    header name or number needs quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(columns[0]), _WRITE_BLOCK):
            block = [column[start:start + _WRITE_BLOCK].tolist() for column in columns]
            fh.writelines(",".join(map(repr, chain.from_iterable(row))) + "\r\n"
                          for row in zip(*block))


def _read_table(path, header, dtype, kind):
    """The data rows of the CSV file at path, as one structured array of dtype.

    The first line must hold the names of header (read by csv.reader, so a
    quoted name or a byte-order mark passes); kind names the file in the error.
    The body is parsed by one np.loadtxt call, so a cell is a plain decimal or
    exponent number, without quotes, underscores or non-ASCII digits, and it
    must hold at least one row. A body loadtxt rejects is scanned for the line
    to name (_row_fault).
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:  # -sig: without a byte-order mark
            names = [cell.strip() for cell in next(csv.reader([fh.readline()]), [])]
            if not names:
                raise ValidationError(f"{path}: empty file")
            if names != header:
                k = next((k for k, (a, b) in enumerate(zip(names, header)) if a != b), None)
                detail = (f"{len(names)} columns, expected {len(header)}" if k is None else
                          f"column {k + 1} is {names[k]!r}, expected {header[k]!r}")
                raise ValidationError(f"{path}: header must be that of {kind}: {detail}")
            try:
                rows = _load_rows(fh, dtype)
            except ValueError as exc:
                raise (_row_fault(path, header, dtype)
                       or ValidationError(f"{path}: {exc}")) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    if not rows.size:
        raise ValidationError(f"{path}: no data rows")
    return rows


def _load_rows(lines, dtype):
    """np.loadtxt of comma-separated lines, without comments or quoting. Input
    without rows gives an empty array, and float text in an integer field
    raises ValueError also on numpy versions that only warn about it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        warnings.simplefilter("error", DeprecationWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _data_lines(path):
    """(line number, line) of each nonempty line after the header, the lines
    that loadtxt parses."""
    with open(path, encoding="utf-8") as fh:
        next(fh, None)
        for line_no, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if line:
                yield line_no, line


def _row_fault(path, header, dtype):
    """A ValidationError naming the first line of path that loadtxt rejects,
    or None if none is found: a ragged row, or a cell that does not parse as
    its column's type in dtype. Each cell is parsed by loadtxt itself, so the
    scan rejects what the read rejects."""
    def parses(cell, column_type):
        try:
            return _load_rows([cell], column_type).size == 1
        except ValueError:
            return False

    types = [dtype[field].base for field in dtype.names
             for _ in range(math.prod(dtype[field].shape))]
    for line_no, line in _data_lines(path):
        row = line.split(",")
        if len(row) != len(header):
            return ValidationError(f"{path} line {line_no}: ragged row, expected "
                                   f"{len(header)} fields, got {len(row)}")
        for name, cell, column_type in zip(header, row, types):
            if not parses(cell, column_type):
                return ValidationError(
                    f"{path} line {line_no}: {name} value {cell!r} is not a 64-bit integer"
                    if column_type.kind == "i" else
                    f"{path} line {line_no}: non-numeric {name} value {cell!r}")
    return None


def _row_error(path, row, message):
    """A ValidationError naming the line of data row `row` of path."""
    line_no = next(islice(_data_lines(path), row, None))[0]
    return ValidationError(f"{path} line {line_no}: {message}")


def _require(path, ok, values, names, need):
    """Reject the first row where ok, a rows x columns mask over values whose
    columns are named by names, is False."""
    if not ok.all():
        row, col = np.argwhere(~ok)[0]
        raise _row_error(path, row, f"{names[col]} must be {need}, "
                                    f"got {values[row, col].item()!r}")


def _axis(values):
    """The distinct values in ascending order, each with the bits of its first
    occurrence (0.0 or -0.0), and the position of every value on them."""
    _, first, position = np.unique(values, return_index=True, return_inverse=True)
    return values[first], position


def _place(path, axes, index, cell, values):
    """values, a (k, rows) array, laid out as k grids on axes, where index
    holds each row's position on every axis. The rows must give every cell
    once: the line of a repeated cell is named, and else the first missing
    cell. cell formats a cell's axis values for the message."""
    shape = tuple(axis.size for axis in axes)
    flat = np.ravel_multi_index(index, shape)
    _, first, cell_of = np.unique(flat, return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[cell_of] != np.arange(flat.size))
    if repeats.size:
        raise _row_error(path, repeats[0], "duplicate " + cell.format(
            *(axis[at[repeats[0]]] for axis, at in zip(axes, index))))
    if flat.size != math.prod(shape):
        gaps = np.flatnonzero(np.sort(flat) != np.arange(flat.size))
        missing = np.unravel_index(gaps[0] if gaps.size else flat.size, shape)
        raise ValidationError(f"{path}: incomplete grid, missing " + cell.format(
            *(axis[at] for axis, at in zip(axes, missing))))
    grids = np.empty(values.shape)
    grids[:, flat] = values
    return grids.reshape(-1, *shape)


# ---------------------------------------------------------------------------
# Plate data


def ingest_plate(path) -> PlateDataset:
    """Read a replicated plate from CSV.

    Schema: drug1_conc,drug2_conc,replicate,viability with replicates numbered
    1..n_rep per cell, the rows in any order. The grid must be complete (every
    cell, every replicate, exactly once) and both axes must include the zero
    concentration."""
    rows = _read_table(path, PLATE_HEADER, _PLATE_ROW, "a plate")
    conc, replicate = rows["conc"], rows["replicate"][:, None]
    values = np.column_stack((conc, rows["viability"]))
    _require(path, np.isfinite(values), values, PLATE_HEADER[:2] + PLATE_HEADER[3:], "finite")
    _require(path, conc >= 0.0, conc, PLATE_HEADER, "nonnegative")
    # a replicate index past the row count leaves a cell missing
    _require(path, (replicate >= 1) & (replicate <= rows.size), replicate, PLATE_HEADER[2:],
             f"between 1 and {rows.size}, the number of rows")
    (conc1, at1), (conc2, at2) = _axis(conc[:, 0]), _axis(conc[:, 1])
    replicates = np.arange(1, replicate.max() + 1)
    viability = _place(path, (conc1, conc2, replicates), (at1, at2, replicate[:, 0] - 1),
                       "reading for concentrations ({:g}, {:g}) replicate {}",
                       rows["viability"][None])
    # PlateDataset requires the zero dose on both axes
    return PlateDataset(conc1=conc1, conc2=conc2, viability=viability[0])


def write_plate_csv(path, data: PlateDataset):
    i, j, r = np.indices(data.viability.shape).reshape(3, -1, 1)
    _write_table(path, PLATE_HEADER, data.conc1[i], data.conc2[j], r + 1,
                 data.viability.reshape(-1, 1))


# ---------------------------------------------------------------------------
# Surfaces


def write_surface_csv(path, surface: SurfaceGrid):
    """Matrix-form CSV: first row the axis-2 values, first column axis 1."""
    _write_table(path, [_SURFACE_CORNER, *map(repr, surface.axis2.tolist())],
                 surface.axis1[:, None], surface.values)


def write_truth_csv(path, truths: dict):
    """Long-form CSV of the simulation truth surfaces (p0, delta, p)."""
    p0 = truths["p0"]
    i, j = np.indices(p0.values.shape).reshape(2, -1, 1)
    _write_table(path, TRUTH_HEADER, p0.axis1[i], p0.axis2[j],
                 *(truths[name].values.reshape(-1, 1) for name in ("p0", "delta", "p")))


def read_truth_csv(path) -> dict:
    """The p0, delta and p SurfaceGrids of a truth CSV, on ascending axes; the
    rows may come in any order but must give every cell once."""
    rows = _read_table(path, TRUTH_HEADER, _TRUTH_ROW, "a truth file")
    table = np.column_stack((rows["axes"], rows["values"]))
    _require(path, np.isfinite(table), table, TRUTH_HEADER, "finite")
    (axis1, at1), (axis2, at2) = _axis(rows["axes"][:, 0]), _axis(rows["axes"][:, 1])
    values = _place(path, (axis1, axis2), (at1, at2), "truth row for ({:g}, {:g})",
                    rows["values"].T)
    return {name: SurfaceGrid(values=values[k], axis1=axis1, axis2=axis2)
            for k, name in enumerate(("p0", "delta", "p"))}


# ---------------------------------------------------------------------------
# Posterior samples


def samples_header(k1: int, k2: int):
    coeff = [f"C_{i}_{j}" for i in range(k1) for j in range(k2)]
    return ["chain", "sample", *DRAW_SCALARS] + coeff


def write_samples_csv(path, posterior):
    """One row per retained draw of an mcmc.Posterior, in its row order; the
    sample column counts from 0 within each chain."""
    index = posterior.chain
    sample = np.arange(len(index)) - np.searchsorted(index, index)
    _write_table(path, samples_header(posterior.spline.k1, posterior.spline.k2),
                 np.column_stack((index, sample)), posterior.draws)


def read_samples_csv(path, k1: int, k2: int) -> tuple:
    """(chain, draws) of a samples CSV of a k1 x k2 coefficient matrix: the
    int64 chain index of each row and the float64 draws array, one row per
    line in file order. Every row must lie inside the model's domain
    (model.invalid_entry)."""
    header = samples_header(k1, k2)
    dtype = np.dtype([("chain", np.int64), ("sample", np.int64),
                      ("draws", np.float64, (len(header) - 2,))])
    rows = _read_table(path, header, dtype, f"samples of a {k1} x {k2} coefficient matrix")
    draws = np.ascontiguousarray(rows["draws"])
    invalid = invalid_entry(draws)
    if invalid is not None:
        row, col, need = invalid
        raise _row_error(path, row, f"{header[2 + col]} must be {need}, "
                                    f"got {draws[row, col].item()!r}")
    return np.ascontiguousarray(rows["chain"]), draws


# ---------------------------------------------------------------------------
# JSON


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serialisable: {type(obj)!r}")


def write_json(path, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=_json_default)
        fh.write("\n")


def read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
