import csv
from dataclasses import replace
from io import StringIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combofit import SimScenario, SurfaceGrid, ValidationError, sample_plate
from combofit.io import (PLATE_HEADER, ingest_plate, read_json, read_samples_csv,
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
    back = ingest_plate(path, drug_names=("a", "b"))
    np.testing.assert_array_equal(back.conc1, small_plate.conc1)
    np.testing.assert_array_equal(back.conc2, small_plate.conc2)
    np.testing.assert_array_equal(back.viability, small_plate.viability)
    assert back.drug_names == ("a", "b")


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
    expect(",".join(PLATE_HEADER) + "\n0.0,0.0,0,0.5\n", "start at 1")
    expect(",".join(PLATE_HEADER) + "\n0.0,0.0,1,inf\n", "non-finite")
    expect(PLATE_2X2 + "1.0,2.5,1,0.34\n", "duplicate")
    expect(",".join(PLATE_HEADER) + "\n1.0,2.0,1,0.5\n2.0,2.0,1,0.4\n"
           "1.0,4.0,1,0.3\n2.0,4.0,1,0.2\n", "zero dose")
    with pytest.raises(ValidationError) as err:
        ingest_plate(tmp_path / "not_there.csv")
    assert "cannot read" in str(err.value)


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


# ---------------------------------------------------------------------------
# Posterior samples CSV


def test_samples_round_trip_is_bit_exact(tmp_path, small_chain):
    path = tmp_path / "samples.csv"
    write_samples_csv(path, small_chain)
    back = read_samples_csv(path)
    assert back.coeff_shape == (6, 6)
    np.testing.assert_array_equal(back.chain, np.zeros(len(small_chain)))
    np.testing.assert_array_equal(back.draws, small_chain.draws)



def test_samples_bytes_are_csv_writers(tmp_path, small_chain):
    # rows are joined by hand; they must be csv.writer's bytes for signed
    # zeros, subnormals, extremes and chain indices of two digits
    draws = np.resize([-0.0, 5e-324, 1e-300, 1.7976931348623157e308, 0.1],
                      (12, small_chain.draws.shape[1]))
    index, sample = np.repeat([3, 10, 11], 4), [0, 1, 2, 3] * 3
    path = tmp_path / "samples.csv"
    write_samples_csv(path, replace(small_chain, draws=draws, chain=index))
    want = StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(samples_header(6, 6))
    writer.writerows([k, i, *map(repr, row)] for k, i, row in
                     zip(index.tolist(), sample, draws.tolist()))
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
    back = read_samples_csv(first)
    np.testing.assert_array_equal(back.draws, np.concatenate(blocks))
    np.testing.assert_array_equal(back.chain, index)
    write_samples_csv(second, replace(small_chain, draws=back.draws, chain=back.chain))
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
    with pytest.raises(ValidationError):
        read_samples_csv(bad)
    bad.write_text("\n".join([lines[0], lines[1] + ",0.0"]) + "\n")
    with pytest.raises(ValidationError) as err:
        read_samples_csv(bad)
    assert "ragged" in str(err.value)
    bad.write_text(lines[0] + "\n")
    with pytest.raises(ValidationError) as err:
        read_samples_csv(bad)
    assert "no samples" in str(err.value)
    bad.write_text("chain,sample,m1\n0,0,0.1\n")
    with pytest.raises(ValidationError):
        read_samples_csv(bad)

    def expect(column, text, fragment):
        cells = lines[2].split(",")
        cells[lines[0].split(",").index(column)] = text
        bad.write_text("\n".join([lines[0], lines[1], ",".join(cells)]) + "\n")
        with pytest.raises(ValidationError) as err:
            read_samples_csv(bad)
        assert "line 3" in str(err.value) and fragment in str(err.value)

    expect("gamma1", "oops", "non-numeric gamma1")
    expect("C_2_3", "inf", "C_2_3 must be finite")
    expect("m2", "nan", "m2 must be finite")
    expect("sigma2_gamma0", "0.0", "sigma2_gamma0 must be finite and positive")
    expect("b2", "-1.5", "b2 must be finite and positive")
    expect("chain", "x", "bad chain index")


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
    with pytest.raises(TypeError):
        write_json(tmp_path / "x.json", {"bad": object()})
