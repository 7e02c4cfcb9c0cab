"""CSV and JSON serialisation of plates, surfaces and posterior samples.

All floats are written with repr (shortest round-trip form), so every emitted
file re-ingests to bit-identical values and repeated runs with the same seed
produce byte-identical output.
"""

import csv
import json
import math
from typing import NamedTuple

import numpy as np

from .data import PlateDataset, SurfaceGrid
from .errors import ValidationError
from .model import DRAW_SCALARS, invalid_entry

PLATE_HEADER = ["drug1_conc", "drug2_conc", "replicate", "viability"]
TRUTH_HEADER = ["log10_drug1_conc", "log10_drug2_conc", "p0", "delta", "p"]
_SURFACE_CORNER = "log10_conc1\\log10_conc2"


def _fmt(value) -> str:
    return repr(float(value))


def _parse_float(text, line_no, column):
    try:
        value = float(text)
    except ValueError:
        raise ValidationError(f"line {line_no}: non-numeric {column} value {text!r}") from None
    if not math.isfinite(value):
        raise ValidationError(f"line {line_no}: non-finite {column} value {text!r}")
    return value


def _open_rows(path):
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _check_header(rows, expected, path):
    if not rows:
        raise ValidationError(f"{path}: empty file")
    header = [cell.strip().lstrip("﻿") for cell in rows[0]]
    if header != expected:
        raise ValidationError(
            f"{path}: header must be {','.join(expected)}, got {','.join(header)}")


# ---------------------------------------------------------------------------
# Plate data


def ingest_plate(path, drug_names=("drug1", "drug2")) -> PlateDataset:
    """Read a replicated plate from CSV.

    Schema: drug1_conc,drug2_conc,replicate,viability with replicates numbered
    1..n_rep per cell. The grid must be complete (every cell, every replicate,
    exactly once) and both axes must include the zero concentration.
    """
    rows = _open_rows(path)
    _check_header(rows, PLATE_HEADER, path)
    cells = {}
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ValidationError(f"line {line_no}: expected 4 fields, got {len(row)}")
        c1 = _parse_float(row[0], line_no, "drug1_conc")
        c2 = _parse_float(row[1], line_no, "drug2_conc")
        try:
            rep = int(row[2])
        except ValueError:
            raise ValidationError(
                f"line {line_no}: replicate must be an integer, got {row[2]!r}") from None
        if rep < 1:
            raise ValidationError(f"line {line_no}: replicate indices start at 1")
        value = _parse_float(row[3], line_no, "viability")
        key = (c1, c2, rep)
        if key in cells:
            raise ValidationError(
                f"line {line_no}: duplicate reading for concentrations "
                f"({c1:g}, {c2:g}) replicate {rep}")
        cells[key] = value
    if not cells:
        raise ValidationError(f"{path}: no data rows")
    conc1 = sorted({k[0] for k in cells})
    conc2 = sorted({k[1] for k in cells})
    if conc1[0] != 0.0 or conc2[0] != 0.0:
        raise ValidationError("both concentration axes must include the zero dose")
    n_rep = max(k[2] for k in cells)
    viability = np.empty((len(conc1), len(conc2), n_rep))
    for i, c1 in enumerate(conc1):
        for j, c2 in enumerate(conc2):
            for rep in range(1, n_rep + 1):
                key = (c1, c2, rep)
                if key not in cells:
                    raise ValidationError(
                        f"missing reading for concentrations ({c1:g}, {c2:g}) "
                        f"replicate {rep}")
                viability[i, j, rep - 1] = cells[key]
    return PlateDataset(conc1=np.array(conc1), conc2=np.array(conc2),
                        viability=viability, drug_names=tuple(drug_names))


def write_plate_csv(path, data: PlateDataset):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PLATE_HEADER)
        for i, c1 in enumerate(data.conc1):
            for j, c2 in enumerate(data.conc2):
                for r in range(data.n_rep):
                    writer.writerow([_fmt(c1), _fmt(c2), r + 1,
                                     _fmt(data.viability[i, j, r])])


# ---------------------------------------------------------------------------
# Surfaces


def write_surface_csv(path, surface: SurfaceGrid):
    """Matrix-form CSV: first row the axis-2 values, first column axis 1."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([_SURFACE_CORNER] + [_fmt(v) for v in surface.axis2])
        for i, a1 in enumerate(surface.axis1):
            writer.writerow([_fmt(a1)] + [_fmt(v) for v in surface.values[i]])


def write_truth_csv(path, truths: dict):
    """Long-form CSV of the simulation truth surfaces (p0, delta, p)."""
    p0, delta, p = truths["p0"], truths["delta"], truths["p"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRUTH_HEADER)
        for i, a1 in enumerate(p0.axis1):
            for j, a2 in enumerate(p0.axis2):
                writer.writerow([_fmt(a1), _fmt(a2), _fmt(p0.values[i, j]),
                                 _fmt(delta.values[i, j]), _fmt(p.values[i, j])])


def read_truth_csv(path) -> dict:
    rows = _open_rows(path)
    _check_header(rows, TRUTH_HEADER, path)
    records = {}
    axis1_order, axis2_order = [], []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 5:
            raise ValidationError(f"{path} line {line_no}: expected 5 fields")
        a1 = _parse_float(row[0], line_no, "log10_drug1_conc")
        a2 = _parse_float(row[1], line_no, "log10_drug2_conc")
        if a1 not in axis1_order:
            axis1_order.append(a1)
        if a2 not in axis2_order:
            axis2_order.append(a2)
        records[(a1, a2)] = tuple(_parse_float(row[k], line_no, TRUTH_HEADER[k])
                                  for k in (2, 3, 4))
    axis1 = np.array(axis1_order)
    axis2 = np.array(axis2_order)
    grids = {}
    for offset, name in enumerate(("p0", "delta", "p")):
        values = np.empty((axis1.size, axis2.size))
        for i, a1 in enumerate(axis1_order):
            for j, a2 in enumerate(axis2_order):
                if (a1, a2) not in records:
                    raise ValidationError(f"{path}: incomplete truth grid at ({a1}, {a2})")
                values[i, j] = records[(a1, a2)][offset]
        grids[name] = SurfaceGrid(values=values, axis1=axis1, axis2=axis2,
                                  label=f"truth_{name}")
    return grids


# ---------------------------------------------------------------------------
# Posterior samples


def samples_header(k1: int, k2: int):
    coeff = [f"C_{i}_{j}" for i in range(k1) for j in range(k2)]
    return ["chain", "sample", *DRAW_SCALARS] + coeff


class Samples(NamedTuple):
    """Contents of a samples CSV: per-row chain index and the draws array."""

    chain: np.ndarray        # (n,) int
    draws: np.ndarray        # (n, 15 + k1 * k2), model.DRAW_SCALARS then C
    coeff_shape: tuple       # (k1, k2) from the coefficient column names


def write_samples_csv(path, posterior):
    """One row per retained draw of an mcmc.Posterior, in its row order; the
    sample column counts from 0 within each chain."""
    chain = posterior.chain
    sample = np.arange(len(chain)) - np.searchsorted(chain, chain)
    header = samples_header(posterior.spline.k1, posterior.spline.k2)
    # csv.writer's bytes, since names, ints and float reprs never need quoting;
    # a row at a time: the whole posterior as Python floats would be ~4x its array
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(f"{index},{idx},{','.join(map(repr, row.tolist()))}\r\n" for index, idx, row
                      in zip(chain.tolist(), sample.tolist(), posterior.draws))


def read_samples_csv(path) -> Samples:
    """Read samples back, one row at a time, into a preallocated draws array.

    Every row must lie inside the model's domain (model.invalid_entry).
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            n_lines = sum(1 for _ in fh)
            fh.seek(0)
            reader = csv.reader(fh)
            header = [cell.strip().lstrip("\ufeff") for cell in next(reader, [])]
            if not header:
                raise ValidationError(f"{path}: empty file")
            coeff_cols = [name for name in header if name.startswith("C_")]
            try:
                indices = [tuple(int(part) for part in name[2:].split("_"))
                           for name in coeff_cols]
            except ValueError:
                raise ValidationError(f"{path}: malformed coefficient column names") from None
            if not indices:
                raise ValidationError(f"{path}: no coefficient columns")
            k1 = max(i for i, _ in indices) + 1
            k2 = max(j for _, j in indices) + 1
            if header != samples_header(k1, k2):
                raise ValidationError(f"{path}: unexpected samples header")
            chain = np.empty(n_lines, dtype=np.int64)
            lines = np.empty(n_lines, dtype=np.int64)
            draws = np.empty((n_lines, len(header) - 2))
            n = 0
            for line_no, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != len(header):
                    raise ValidationError(f"{path} line {line_no}: ragged row")
                try:
                    chain[n] = int(row[0])
                except ValueError:
                    raise ValidationError(f"{path} line {line_no}: bad chain index") from None
                try:
                    draws[n] = [float(cell) for cell in row[2:]]
                except ValueError:
                    for name, cell in zip(header[2:], row[2:]):
                        _parse_float(cell, line_no, name)
                lines[n] = line_no
                n += 1
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    if not n:
        raise ValidationError(f"{path}: no samples")
    draws = draws[:n]
    invalid = invalid_entry(draws)
    if invalid is not None:
        row, col, need = invalid
        raise ValidationError(f"{path} line {lines[row]}: {header[2 + col]} must be {need}, "
                              f"got {draws[row, col]!r}")
    return Samples(chain=chain[:n], draws=draws, coeff_shape=(k1, k2))


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
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
