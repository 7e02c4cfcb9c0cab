import csv
import tempfile
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combofit import PlateDataset, SimScenario, SurfaceGrid, ValidationError, sample_plate
from combofit.io import (PLATE_HEADER, TRUTH_HEADER, ingest_plate, read_json, read_samples_csv,
                         read_truth_csv, samples_header, write_json, write_plate_csv,
                         write_samples_csv, write_surface_csv, write_truth_csv)
from combofit.model import COLUMN, DRAW_SCALARS, POSITIVE_SCALARS

import reference  # perfbench's oracle, which imports no combofit

PLATE_2X2 = """drug1_conc,drug2_conc,replicate,viability
1.0,0.0,1,0.55
0.0,0.0,1,1.02
0.0,2.5,1,0.81
1.0,2.5,1,0.33
"""


# ---------------------------------------------------------------------------
# Plate CSV


def test_ingest_small_hand_written_plate(tmp_path):
    path = tmp_path / "plate.csv"
    path.write_text(PLATE_2X2)
    data = ingest_plate(path)
    np.testing.assert_array_equal(data.conc1, [0.0, 1.0])
    np.testing.assert_array_equal(data.conc2, [0.0, 2.5])
    assert data.n_rep == 1
    assert data.viability[0, 0, 0] == 1.02
    assert data.viability[1, 0, 0] == 0.55
    assert data.viability[0, 1, 0] == 0.81
    assert data.viability[1, 1, 0] == 0.33


def test_plate_round_trip_is_bit_exact(tmp_path, small_plate):
    path = tmp_path / "plate.csv"
    write_plate_csv(path, small_plate)
    back = ingest_plate(path)
    np.testing.assert_array_equal(back.conc1, small_plate.conc1)
    np.testing.assert_array_equal(back.conc2, small_plate.conc2)
    np.testing.assert_array_equal(back.viability, small_plate.viability)


# the extremes of float64 next to ordinary values: the smallest subnormal, the
# smallest normal, +-1e308, the largest float and a negative zero
_EDGE_FLOATS = (5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, -0.0)


@st.composite
def _plates(draw):
    """A valid plate: 2-6 doses per axis, the zero (or -0.0) first and the
    rest increasing and positive, 1-4 replicates, any finite viabilities."""
    dose = st.one_of(st.floats(min_value=5e-324, max_value=1e308),
                     st.sampled_from([x for x in _EDGE_FLOATS if x > 0.0]))

    def axis():
        doses = draw(st.lists(dose, min_size=1, max_size=5, unique=True))
        return [draw(st.sampled_from((0.0, -0.0)))] + sorted(doses)

    conc1, conc2, n_rep = axis(), axis(), draw(st.integers(1, 4))
    size = len(conc1) * len(conc2) * n_rep
    values = draw(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from(_EDGE_FLOATS)),
                           min_size=size, max_size=size))
    return PlateDataset(conc1=conc1, conc2=conc2,
                        viability=np.reshape(values, (len(conc1), len(conc2), n_rep)))


@settings(max_examples=60, deadline=None)
@given(_plates())
def test_random_plates_round_trip_bit_for_bit(plate):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "plate.csv"
        write_plate_csv(path, plate)
        back = ingest_plate(path)
    for name in ("conc1", "conc2", "viability"):
        got, want = getattr(back, name), getattr(plate, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_plate_write_is_deterministic(tmp_path, small_plate):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_plate_csv(p1, small_plate)
    write_plate_csv(p2, small_plate)
    assert p1.read_bytes() == p2.read_bytes()


def test_ingest_accepts_crlf(tmp_path):
    path = tmp_path / "plate.csv"
    path.write_bytes(PLATE_2X2.replace("\n", "\r\n").encode())
    data = ingest_plate(path)
    assert data.viability[1, 1, 0] == 0.33


def test_ingest_accepts_a_quoted_header_after_a_byte_order_mark(tmp_path):
    path = tmp_path / "plate.csv"
    header, rows = PLATE_2X2.split("\n", 1)
    quoted = ",".join(f'"{name}"' for name in header.split(","))
    path.write_text("\ufeff" + quoted + "\n" + rows, encoding="utf-8")
    assert ingest_plate(path).viability[1, 1, 0] == 0.33


def test_ingest_reports_missing_replicate(tmp_path):
    lines = PLATE_2X2.splitlines()
    extra = ["1.0,2.5,2,0.30", "0.0,0.0,2,0.99", "0.0,2.5,2,0.78"]
    path = tmp_path / "plate.csv"
    path.write_text("\n".join(lines + extra) + "\n")
    with pytest.raises(ValidationError) as err:
        ingest_plate(path)
    message = str(err.value)
    assert "(1, 0)" in message
    assert "replicate 2" in message


def test_ingest_error_paths(tmp_path):
    path = tmp_path / "plate.csv"

    def expect(text, fragment):
        path.write_text(text)
        with pytest.raises(ValidationError) as err:
            ingest_plate(path)
        assert fragment in str(err.value)

    expect("", "empty file")
    expect("x,y,z,w\n1,2,3,4\n", "header must be")
    expect(",".join(PLATE_HEADER) + "\n", "no data rows")
    expect(",".join(PLATE_HEADER) + "\n0.0,0.0,1\n", "expected 4 fields")
    expect(",".join(PLATE_HEADER) + "\n0.0,oops,1,0.5\n", "non-numeric")
    expect(",".join(PLATE_HEADER) + "\n0.0,0.0,first,0.5\n", "integer")
    expect(",".join(PLATE_HEADER) + "\n0.0,0.0,0,0.5\n",
           "line 2: replicate must be between 1 and 1")
    # a replicate past the row count leaves a cell missing; a huge one must
    # not size the grid
    expect(PLATE_2X2.replace("1.0,2.5,1,", "1.0,2.5,99999999999999,"),
           "line 5: replicate must be between 1 and 4")
    expect(",".join(PLATE_HEADER) + "\n0.0,0.0,1,inf\n", "line 2: viability must be finite")
    expect(PLATE_2X2 + "1.0,2.5,1,0.34\n", "duplicate")
    expect(",".join(PLATE_HEADER) + "\n1.0,2.0,1,0.5\n2.0,2.0,1,0.4\n"
           "1.0,4.0,1,0.3\n2.0,4.0,1,0.2\n", "must start with the zero concentration")
    # a negative dose is named with its line, not taken for a missing zero
    expect(",".join(PLATE_HEADER) + "\n" + "".join(
        f"{c1},{c2},1,0.5\n" for c1 in ("-1.0", "0.0", "1.0") for c2 in ("0.0", "2.0")),
        "line 2: drug1_conc must be nonnegative, got -1.0")
    expect(PLATE_2X2.replace("0.0,2.5,1", "0.0,-2.5,1", 1),
           "drug2_conc must be nonnegative, got -2.5")
    with pytest.raises(ValidationError) as err:
        ingest_plate(tmp_path / "not_there.csv")
    assert "cannot read" in str(err.value)
    # text that is not UTF-8, in the header or in a row
    for text in (",".join(PLATE_HEADER) + "\n0.0,0.0,1,0.5\xe9\n", "drug1_conc\xe9\n"):
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValidationError, match="cannot read .*can't decode byte 0xe9"):
            ingest_plate(path)


# ---------------------------------------------------------------------------
# Surface CSV


def test_surface_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(31)
    surface = SurfaceGrid(values=rng.standard_normal((4, 6)),
                          axis1=np.linspace(-6.0, 5.0, 4),
                          axis2=np.linspace(-5.5, 5.5, 6))
    path = tmp_path / "surface.csv"
    write_surface_csv(path, surface)
    axis1, axis2, values = reference.read_surface(path)
    np.testing.assert_array_equal(values, surface.values)
    np.testing.assert_array_equal(axis1, surface.axis1)
    np.testing.assert_array_equal(axis2, surface.axis2)


# ---------------------------------------------------------------------------
# Truth CSV


def test_truth_round_trip_is_bit_exact(tmp_path):
    _, truths = sample_plate(SimScenario(3, seed=2))
    path = tmp_path / "truth.csv"
    write_truth_csv(path, truths)
    back = read_truth_csv(path)
    for name in ("p0", "delta", "p"):
        np.testing.assert_array_equal(back[name].values, truths[name].values)
        np.testing.assert_array_equal(back[name].axis1, truths[name].axis1)
        np.testing.assert_array_equal(back[name].axis2, truths[name].axis2)


def test_truth_detects_incomplete_grid(tmp_path):
    _, truths = sample_plate(SimScenario(1, seed=2))
    path = tmp_path / "truth.csv"
    write_truth_csv(path, truths)
    lines = path.read_text().splitlines()
    del lines[5]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError) as err:
        read_truth_csv(path)
    assert "incomplete" in str(err.value)


def test_truth_rejects_a_repeated_cell(tmp_path):
    _, truths = sample_plate(SimScenario(1, seed=2))
    path = tmp_path / "truth.csv"
    write_truth_csv(path, truths)
    lines = path.read_text().splitlines()
    lines.append(lines[5])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=f"line {len(lines)}: duplicate truth row"):
        read_truth_csv(path)


# ---------------------------------------------------------------------------
# Posterior samples CSV


def test_samples_round_trip_is_bit_exact(tmp_path, small_chain):
    path = tmp_path / "samples.csv"
    write_samples_csv(path, small_chain)
    chain, draws = read_samples_csv(path, 6, 6)
    np.testing.assert_array_equal(chain, np.zeros(len(small_chain)))
    np.testing.assert_array_equal(draws, small_chain.draws)



# signed zeros, the smallest subnormal, the largest float, a tiny and an ordinary value
_EDGE_CELLS = [-0.0, 5e-324, 1.7976931348623157e308, 1e-300, 0.1]


def _table(kind, small_chain):
    """(writer, its argument, the rows that csv.writer gets) of one CSV kind,
    on edge values and replicate and chain indices of two digits."""
    axis = _EDGE_CELLS[:3]
    if kind == "plate":
        plate = PlateDataset(conc1=axis, conc2=axis, viability=np.resize(_EDGE_CELLS, (3, 3, 11)))
        return write_plate_csv, plate, [PLATE_HEADER] + [
            [c1, c2, r + 1, plate.viability[i, j, r].item()]
            for i, c1 in enumerate(axis) for j, c2 in enumerate(axis) for r in range(11)]
    values = [np.roll(np.resize(_EDGE_CELLS, (3, 3)), k) for k in range(3)]
    if kind == "truth":
        truths = {name: SurfaceGrid(values=v, axis1=axis, axis2=axis)
                  for name, v in zip(("p0", "delta", "p"), values)}
        return write_truth_csv, truths, [TRUTH_HEADER] + [
            [a1, a2, *(v[i, j].item() for v in values)]
            for i, a1 in enumerate(axis) for j, a2 in enumerate(axis)]
    if kind == "surface":
        surface = SurfaceGrid(values=values[1], axis1=axis, axis2=axis)
        return write_surface_csv, surface, [["log10_conc1\\log10_conc2", *axis]] + [
            [a1, *row] for a1, row in zip(axis, values[1].tolist())]
    draws = np.resize(_EDGE_CELLS, (12, small_chain.draws.shape[1]))
    index, sample = np.repeat([3, 10, 11], 4), [0, 1, 2, 3] * 3
    return write_samples_csv, replace(small_chain, draws=draws, chain=index), [
        samples_header(6, 6)] + [[k, i, *row] for k, i, row in
                                 zip(index.tolist(), sample, draws.tolist())]


@pytest.mark.parametrize("kind", ["plate", "truth", "surface", "samples"])
def test_written_bytes_are_csv_writers(tmp_path, small_chain, kind):
    # every CSV leaves through one row writer that joins reprs by hand
    write, value, rows = _table(kind, small_chain)
    path = tmp_path / f"{kind}.csv"
    write(path, value)
    want = StringIO(newline="")
    csv.writer(want).writerows(rows)
    assert path.read_bytes() == want.getvalue().encode("utf-8")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _draws(draw, n_cols):
    rows = draw(st.integers(1, 4))
    values = np.array([[draw(_FINITE) for _ in range(n_cols)] for _ in range(rows)])
    for name in POSITIVE_SCALARS:
        values[:, COLUMN[name]] = [draw(_POSITIVE) for _ in range(rows)]
    return values


@settings(max_examples=40, deadline=None)
@given(st.lists(_draws(len(DRAW_SCALARS) + 36), min_size=1, max_size=3))
def test_samples_write_read_write_is_byte_identical(tmp_path_factory, small_chain, blocks):
    first, second = (tmp_path_factory.mktemp("samples") / "samples.csv" for _ in range(2))
    index = np.repeat(np.arange(len(blocks)), [len(block) for block in blocks])
    write_samples_csv(first, replace(small_chain, draws=np.concatenate(blocks), chain=index))
    chain, draws = read_samples_csv(first, 6, 6)
    np.testing.assert_array_equal(draws, np.concatenate(blocks))
    np.testing.assert_array_equal(chain, index)
    write_samples_csv(second, replace(small_chain, draws=draws, chain=chain))
    assert first.read_bytes() == second.read_bytes()
    # the sample column counts from 0 within each chain
    rows = [line.split(",", 2)[:2] for line in first.read_text().splitlines()[1:]]
    assert rows == [[str(k), str(i)] for k, block in enumerate(blocks) for i in range(len(block))]


def test_samples_header_layout():
    header = samples_header(2, 3)
    assert header[:2] == ["chain", "sample"]
    assert header[-6:] == ["C_0_0", "C_0_1", "C_0_2", "C_1_0", "C_1_1", "C_1_2"]


def test_samples_error_paths(tmp_path, small_chain):
    path = tmp_path / "samples.csv"
    write_samples_csv(path, small_chain)
    lines = path.read_text().splitlines()

    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([lines[0].replace("m1", "mm1")] + lines[1:]) + "\n")
    with pytest.raises(ValidationError, match="6 x 6 coefficient matrix: column 3 is 'mm1', "
                                              "expected 'm1'"):
        read_samples_csv(bad, 6, 6)
    bad.write_text("\n".join([lines[0], lines[1] + ",0.0"]) + "\n")
    with pytest.raises(ValidationError) as err:
        read_samples_csv(bad, 6, 6)
    assert "ragged" in str(err.value)
    bad.write_text(lines[0] + "\n")
    with pytest.raises(ValidationError) as err:
        read_samples_csv(bad, 6, 6)
    assert "no data rows" in str(err.value)
    bad.write_text("chain,sample,m1\n0,0,0.1\n")
    with pytest.raises(ValidationError, match="3 columns, expected 53"):
        read_samples_csv(bad, 6, 6)

    def expect(column, text, fragment):
        cells = lines[2].split(",")
        cells[lines[0].split(",").index(column)] = text
        bad.write_text("\n".join([lines[0], lines[1], ",".join(cells)]) + "\n")
        with pytest.raises(ValidationError) as err:
            read_samples_csv(bad, 6, 6)
        assert "line 3" in str(err.value) and fragment in str(err.value)

    expect("gamma1", "oops", "non-numeric gamma1")
    expect("C_2_3", "inf", "C_2_3 must be finite")
    expect("m2", "nan", "m2 must be finite")
    expect("sigma2_gamma0", "0.0", "sigma2_gamma0 must be finite and positive")
    expect("b2", "-1.5", "b2 must be finite and positive")
    expect("chain", "x", "chain value 'x' is not a 64-bit integer")
    # loadtxt takes no quoted cell, no underscore in a number and no
    # non-integer sample; each is named with its line
    expect("m1", '"0.5"', "non-numeric m1 value")
    expect("C_0_1", "1_0", "non-numeric C_0_1 value '1_0'")
    expect("chain", "1_0", "chain value '1_0' is not a 64-bit integer")
    expect("sample", "1.5", "sample value '1.5' is not a 64-bit integer")
    # the line scan parses each cell as loadtxt does: a digit that float()
    # takes and loadtxt does not, and an index past int64, are named too
    expect("m2", "\u0661", "non-numeric m2 value")
    expect("chain", "99999999999999999999", "is not a 64-bit integer")


@pytest.mark.filterwarnings("default::DeprecationWarning")
@pytest.mark.parametrize("text", ["1.5", "1.0", "1e3", "nan"])
def test_float_text_in_the_chain_column_is_rejected_under_default_warnings(
        tmp_path, small_chain, text):
    # combofit summarize runs under Python's default warning filters, not
    # the test suite's DeprecationWarning-as-error
    path = tmp_path / "samples.csv"
    write_samples_csv(path, small_chain)
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], text + lines[1][1:]] + lines[2:]) + "\n")
    with pytest.raises(ValidationError, match="line 2: chain value .* is not a 64-bit integer"):
        read_samples_csv(path, 6, 6)


# ---------------------------------------------------------------------------
# One grammar for every CSV


@pytest.mark.parametrize("token", ["1_0", "\u0661", '"0.5"', "0x10"])
@pytest.mark.parametrize("reader", ["plate", "truth", "samples"])
def test_every_reader_rejects_the_same_tokens_with_their_line(tmp_path, small_plate,
                                                             small_chain, reader, token):
    # float() and int() took 1_0 as 10 and the Arabic-Indic digit as 1; loadtxt,
    # the one grammar, takes neither, nor a quoted cell or hexadecimal text
    path = tmp_path / f"{reader}.csv"
    if reader == "plate":
        write_plate_csv(path, small_plate)
        read, columns = ingest_plate, PLATE_HEADER
    elif reader == "truth":
        write_truth_csv(path, sample_plate(SimScenario(1, seed=2))[1])
        read, columns = read_truth_csv, TRUTH_HEADER
    else:
        write_samples_csv(path, small_chain)
        read, columns = (lambda at: read_samples_csv(at, 6, 6),
                         ["chain", "sample", "m1", "sigma2_eps", "C_5_5"])
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    for column in columns:
        cells = lines[2].split(",")
        cells[header.index(column)] = token
        path.write_text("\n".join(lines[:2] + [",".join(cells)] + lines[3:]) + "\n")
        with pytest.raises(ValidationError) as err:
            read(path)
        assert "line 3: " in str(err.value) and repr(token) in str(err.value), column


@st.composite
def _truths(draw):
    """Truth surfaces on 1-5 distinct ascending values per axis, with any
    finite values."""
    axis1, axis2 = (sorted(draw(st.lists(_FINITE, min_size=1, max_size=5, unique=True)))
                    for _ in range(2))
    size = len(axis1) * len(axis2)
    return {name: SurfaceGrid(values=np.reshape(draw(st.lists(_FINITE, min_size=size,
                                                              max_size=size)),
                                                (len(axis1), len(axis2))),
                              axis1=axis1, axis2=axis2)
            for name in ("p0", "delta", "p")}


def _arrays(loaded):
    """The named arrays of a PlateDataset or of a dict of truth SurfaceGrids."""
    if isinstance(loaded, PlateDataset):
        return {name: getattr(loaded, name) for name in ("conc1", "conc2", "viability")}
    return {f"{key}.{name}": getattr(grid, name) for key, grid in loaded.items()
            for name in ("values", "axis1", "axis2")}


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.tuples(st.just("plate"), _plates()), st.tuples(st.just("truth"), _truths())),
       st.randoms(use_true_random=False))
def test_shuffled_rows_load_to_the_same_bytes(case, random):
    kind, want = case
    write, read = {"plate": (write_plate_csv, ingest_plate),
                   "truth": (write_truth_csv, read_truth_csv)}[kind]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{kind}.csv"
        write(path, want)
        header, *rows = path.read_text().splitlines()
        random.shuffle(rows)
        path.write_text("\n".join([header] + rows) + "\n")
        got = _arrays(read(path))
    for name, expected in _arrays(want).items():
        assert got[name].shape == expected.shape, name
        assert got[name].tobytes() == expected.tobytes(), name


# ---------------------------------------------------------------------------
# JSON


def test_json_round_trip(tmp_path):
    payload = {"a": 1, "b": [0.5, 1.5], "c": {"d": "text"},
               "np_scalar": np.float64(0.25), "np_array": np.arange(3)}
    path = tmp_path / "out.json"
    write_json(path, payload)
    text = path.read_text()
    assert text.endswith("}\n")
    assert "  \"a\": 1" in text
    back = read_json(path)
    assert back == {"a": 1, "b": [0.5, 1.5], "c": {"d": "text"},
                    "np_scalar": 0.25, "np_array": [0, 1, 2]}


def test_json_error_paths(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValidationError) as err:
        read_json(path)
    assert "invalid JSON" in str(err.value)
    with pytest.raises(ValidationError):
        read_json(tmp_path / "missing.json")
    path.write_bytes(b'{"a": "\xe9"}')
    with pytest.raises(ValidationError, match="cannot read"):
        read_json(path)
    with pytest.raises(TypeError):
        write_json(tmp_path / "x.json", {"bad": object()})
