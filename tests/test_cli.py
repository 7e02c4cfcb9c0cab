import json

import numpy as np
import pytest

from combofit import ValidationError
from combofit.cli import FIT_DEFAULTS, OUTDIR_ENV, main
from combofit.io import (ingest_plate, read_json, read_samples_csv, read_truth_csv,
                         write_json, write_plate_csv)

import reference  # perfbench's oracle, which imports no combofit

FIT_FILES = ("samples.csv", "surface_p.csv", "surface_p0.csv",
             "surface_delta.csv", "summary.json")


@pytest.fixture
def plate_csv(tmp_path, small_plate):
    path = tmp_path / "plate.csv"
    write_plate_csv(path, small_plate)
    return path


def _fit(plate, outdir, *extra):
    argv = ["fit", "--input", str(plate), "--outdir", str(outdir),
            "--iters", "400", "--burn-in", "200", "--thin", "4",
            "--seed", "7", "--fine-points", "20"]
    return main(argv + list(extra))


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_plate_and_truth(tmp_path):
    outdir = tmp_path / "sim"
    assert main(["simulate", "--scenario", "3", "--seed", "1",
                 "--outdir", str(outdir)]) == 0
    data = ingest_plate(outdir / "plate.csv")
    assert data.viability.shape == (11, 10, 3)
    truth = read_truth_csv(outdir / "truth.csv")
    assert truth["delta"].values.shape == (11, 10)
    assert (truth["delta"].values[0, :] == 0.0).all()


def test_simulate_respects_noise_and_nrep(tmp_path):
    outdir = tmp_path / "sim"
    assert main(["simulate", "--scenario", "1", "--noise", "t5",
                 "--nrep", "2", "--sigma-eps", "0.01", "--seed", "4",
                 "--outdir", str(outdir)]) == 0
    data = ingest_plate(outdir / "plate.csv")
    assert data.n_rep == 2


# ---------------------------------------------------------------------------
# fit


def test_fit_writes_all_outputs(tmp_path, plate_csv):
    outdir = tmp_path / "fit"
    assert _fit(plate_csv, outdir) == 0
    for name in FIT_FILES:
        assert (outdir / name).exists()
    summary = read_json(outdir / "summary.json")
    assert summary["config"]["iters"] == 400
    assert summary["config"]["seed"] == 7
    assert set(summary["config"]) == set(FIT_DEFAULTS)
    assert summary["n_samples"] == 50
    assert summary["n_chains"] == 1
    assert isinstance(summary["lpml"], float)
    assert set(summary["rvus"]) == {"p0", "abs_delta", "delta_plus",
                                    "delta_minus", "one_minus_p"}
    assert summary["interaction_labels"]["delta_plus"] == "synergistic"
    samples = read_samples_csv(outdir / "samples.csv")
    assert len(samples.draws) == 50
    p, p0, delta = (reference.read_surface(outdir / f"surface_{name}.csv")[2]
                    for name in ("p", "p0", "delta"))
    assert p.shape == (5, 4)
    np.testing.assert_allclose(p, p0 + delta, atol=1e-15)


def test_fit_is_deterministic(tmp_path, plate_csv):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert _fit(plate_csv, out1) == 0
    assert _fit(plate_csv, out2) == 0
    for name in FIT_FILES[:-1]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fit_multiple_chains(tmp_path, plate_csv):
    outdir = tmp_path / "fit"
    assert _fit(plate_csv, outdir, "--chains", "2") == 0
    samples = read_samples_csv(outdir / "samples.csv")
    assert len(samples.draws) == 100
    assert set(samples.chain.tolist()) == {0, 1}
    summary = read_json(outdir / "summary.json")
    assert summary["n_samples"] == 100
    assert set(summary["acceptance"]) == {"0", "1"}


def test_fit_with_truth_writes_mse(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", "1", "--seed", "2",
                 "--outdir", str(sim)]) == 0
    outdir = tmp_path / "fit"
    assert _fit(sim / "plate.csv", outdir, "--truth", str(sim / "truth.csv")) == 0
    mse = read_json(outdir / "mse.json")
    assert set(mse) == {"mse_delta", "mse_p0", "mse_p"}
    assert all(0.0 <= v < 1.0 for v in mse.values())


def test_fit_config_file_precedence(tmp_path, plate_csv):
    config = tmp_path / "config.json"
    write_json(config, {"iters": 300, "thin": 5, "seed": 9})
    outdir = tmp_path / "fit"
    argv = ["fit", "--input", str(plate_csv), "--outdir", str(outdir),
            "--config", str(config), "--thin", "3", "--fine-points", "20"]
    assert main(argv) == 0
    summary = read_json(outdir / "summary.json")
    assert summary["config"]["iters"] == 300    # from file
    assert summary["config"]["thin"] == 3       # flag beats file
    assert summary["config"]["seed"] == 9
    assert summary["n_samples"] == (300 - 150) // 3


def test_fit_rejects_unknown_config_key(tmp_path, plate_csv, capsys):
    config = tmp_path / "config.json"
    write_json(config, {"iters": 300, "warmup": 10})
    outdir = tmp_path / "fit"
    assert main(["fit", "--input", str(plate_csv), "--outdir", str(outdir),
                 "--config", str(config)]) == 1
    assert "unknown config keys" in capsys.readouterr().err
    assert not (outdir / "samples.csv").exists()


def test_fit_rejects_a_non_integer_config_value(tmp_path, plate_csv, capsys):
    config = tmp_path / "config.json"
    write_json(config, {"k1": "six"})
    assert main(["fit", "--input", str(plate_csv), "--outdir", str(tmp_path / "fit"),
                 "--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: k1 must be an integer, not 'six'\n"


# (summary flags, file values): fit's --config or the fit record summarize reads
BAD_OPTIONS = {
    "dss_threshold_1.5": (["--dss-threshold", "1.5"], {}),
    "dss_threshold_0": (["--dss-threshold", "0"], {}),
    "negative_tolerance": (["--bi-ec50-tolerance", "-1"], {}),
    "fine_points_0": (["--fine-points", "0"], {}),
    "fine_points_1": (["--fine-points", "1"], {}),
    "string_bool": ([], {"swap_interaction_labels": "no"}),
    "string_ridge": ([], {"ridge": "x"}),
    "string_hc_scale": ([], {"hc_scale": "1"}),
    "variance_prior_xx": ([], {"variance_prior": "xx"}),
    "linear_scale_xx": ([], {"linear_scale": "xx"}),
}


@pytest.mark.parametrize("case", BAD_OPTIONS)
@pytest.mark.parametrize("command", ["fit", "summarize"])
def test_bad_options_fail_before_the_plate_is_read(tmp_path, plate_csv, monkeypatch, capsys,
                                                   command, case):
    import combofit.cli as cli

    flags, values = BAD_OPTIONS[case]
    calls = []
    monkeypatch.setattr(cli, "run_chains", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli.cio, "ingest_plate", lambda *a, **k: calls.append(a))
    if command == "fit":
        write_json(tmp_path / "config.json", values)
        argv = ["fit", "--input", str(plate_csv), "--config", str(tmp_path / "config.json")]
    else:
        write_json(tmp_path / "summary.json", {"config": {**FIT_DEFAULTS, **values}})
        argv = ["summarize", "--input", str(plate_csv),
                "--samples", str(tmp_path / "samples.csv")]
    assert main(argv + flags + ["--outdir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert calls == []


@pytest.mark.parametrize("flags, values", [
    (["--iters", "600", "--adapt-start", "600"], {}),
    (["--iters", "600"], {"adapt_start": 1000}),
], ids=["equal_flag", "above_in_config"])
def test_fit_rejects_adapt_start_at_or_above_iters(tmp_path, plate_csv, monkeypatch, capsys,
                                                   flags, values):
    import combofit.cli as cli

    calls = []
    monkeypatch.setattr(cli.cio, "ingest_plate", lambda *a, **k: calls.append(a))
    write_json(tmp_path / "config.json", values)
    assert main(["fit", "--input", str(plate_csv), "--config", str(tmp_path / "config.json"),
                 "--outdir", str(tmp_path / "out"), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: adapt_start") and err.count("\n") == 1
    assert calls == []


def test_fit_ig_prior_flag(tmp_path, plate_csv):
    outdir = tmp_path / "fit"
    assert _fit(plate_csv, outdir, "--variance-prior", "ig",
                "--ig-shape", "3.0", "--ig-rate", "2.0") == 0
    summary = read_json(outdir / "summary.json")
    assert summary["config"]["variance_prior"] == "ig"
    assert summary["acceptance"]["0"].keys().isdisjoint(
        {"sigma2_eps", "sigma2_m1"})


def test_fit_swap_labels_flag(tmp_path, plate_csv):
    outdir = tmp_path / "fit"
    assert _fit(plate_csv, outdir, "--swap-interaction-labels") == 0
    summary = read_json(outdir / "summary.json")
    assert summary["interaction_labels"]["delta_plus"] == "antagonistic"


# ---------------------------------------------------------------------------
# summarize


@pytest.mark.parametrize("fit_flags", [
    [], ["--degree", "2"], ["--linear-scale", "natural"], ["--k1", "4", "--k2", "5"],
], ids=["default", "degree2", "natural", "k4x5"])
def test_summarize_matches_fit(tmp_path, plate_csv, fit_flags):
    fit_dir = tmp_path / "fit"
    assert _fit(plate_csv, fit_dir, *fit_flags) == 0
    summ_dir = tmp_path / "summ"
    # no model or summary flags: summarize reads them from the fit's record
    assert main(["summarize", "--input", str(plate_csv),
                 "--samples", str(fit_dir / "samples.csv"),
                 "--outdir", str(summ_dir)]) == 0
    fit_summary = read_json(fit_dir / "summary.json")
    summary = read_json(summ_dir / "summary.json")
    # one summary path over the same draws under the same model: the scores
    # agree exactly, and summarize records the options it used
    for key in ("config", "plate_sha256", "n_samples", "lpml", "dss", "rvus",
                "bi_ec50_points"):
        assert summary[key] == fit_summary[key]


def test_summarize_reads_a_record_that_never_adapted(tmp_path, plate_csv):
    # fit records written while --adapt-start defaulted to 1000 hold it next to
    # fewer iterations; summarising their draws needs no adaptation
    fit_dir = tmp_path / "fit"
    assert _fit(plate_csv, fit_dir) == 0
    record = read_json(fit_dir / "summary.json")
    assert record["config"]["adapt_start"] is None
    record["config"]["adapt_start"] = 1000
    write_json(fit_dir / "summary.json", record)
    assert main(["summarize", "--input", str(plate_csv),
                 "--samples", str(fit_dir / "samples.csv"),
                 "--outdir", str(tmp_path / "summ")]) == 0
    assert read_json(tmp_path / "summ" / "summary.json")["lpml"] == record["lpml"]


def test_summarize_rejects_a_different_coefficient_layout(tmp_path, plate_csv, capsys):
    fit_dir = tmp_path / "fit"
    assert _fit(plate_csv, fit_dir) == 0
    record = read_json(fit_dir / "summary.json")
    record["config"].update(k1=4, k2=9)
    write_json(fit_dir / "summary.json", record)
    assert main(["summarize", "--input", str(plate_csv),
                 "--samples", str(fit_dir / "samples.csv"),
                 "--outdir", str(tmp_path / "summ")]) == 1
    assert "6 x 6 coefficient matrix" in capsys.readouterr().err


@pytest.mark.parametrize("record", ["missing", "without_config", "without_plate_sha256"])
def test_summarize_needs_the_fit_record(tmp_path, plate_csv, monkeypatch, capsys, record):
    import combofit.cli as cli

    fit_dir = tmp_path / "fit"
    assert _fit(plate_csv, fit_dir) == 0
    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / "samples.csv").write_bytes((fit_dir / "samples.csv").read_bytes())
    if record != "missing":
        summary = read_json(fit_dir / "summary.json")
        del summary[record.removeprefix("without_")]
        write_json(alone / "summary.json", summary)
    parsed = []
    monkeypatch.setattr(cli.cio, "read_samples_csv", lambda *a: parsed.append(a))
    capsys.readouterr()
    assert main(["summarize", "--input", str(plate_csv),
                 "--samples", str(alone / "samples.csv"),
                 "--outdir", str(tmp_path / "summ")]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and err.startswith("error:")
    assert str(alone / "summary.json") in err
    assert parsed == []


def test_summarize_checks_the_plate_before_reading_samples(tmp_path, monkeypatch, capsys):
    import combofit.cli as cli

    # two plates on the same grid, from different data seeds
    plates = []
    for seed in ("1", "2"):
        assert main(["simulate", "--scenario", "3", "--seed", seed,
                     "--outdir", str(tmp_path / f"sim{seed}")]) == 0
        plates.append(tmp_path / f"sim{seed}" / "plate.csv")
    fit_dir = tmp_path / "fit"
    assert _fit(plates[0], fit_dir) == 0
    parsed = []
    monkeypatch.setattr(cli.cio, "read_samples_csv", lambda *a: parsed.append(a))
    capsys.readouterr()
    assert main(["summarize", "--input", str(plates[1]), "--samples",
                 str(fit_dir / "samples.csv"), "--outdir", str(tmp_path / "summ")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not the plate of the fit record" in err
    assert parsed == []
    assert not (tmp_path / "summ" / "summary.json").exists()
    monkeypatch.undo()

    # the fitted plate's numbers in another row order and float format still match
    header, *rows = plates[0].read_text().splitlines()
    same = tmp_path / "same.csv"
    same.write_text("\n".join([header] + [
        ",".join(cell if k == 2 else f"{float(cell):.16e}" for k, cell in enumerate(row.split(",")))
        for row in reversed(rows)]) + "\n")
    assert main(["summarize", "--input", str(same), "--samples", str(fit_dir / "samples.csv"),
                 "--outdir", str(tmp_path / "same_summ")]) == 0
    assert (read_json(tmp_path / "same_summ" / "summary.json")["plate_sha256"]
            == read_json(fit_dir / "summary.json")["plate_sha256"])


def test_summarize_groups_interleaved_chain_rows(tmp_path, plate_csv):
    fit_dir = tmp_path / "fit"
    assert _fit(plate_csv, fit_dir, "--chains", "2") == 0
    lines = (fit_dir / "samples.csv").read_text().splitlines()
    rows = lines[1:]
    half = len(rows) // 2
    orders = {
        # the chains' rows alternate, each chain's rows in file order
        "interleaved": [row for pair in zip(rows[:half], rows[half:]) for row in pair],
        # the rows of each chain reordered as well
        "shuffled": rows[::2] + rows[1::2],
    }
    outs = {}
    for name, order in (("grouped", rows), *orders.items()):
        # each samples file sits next to a copy of the fit's record
        (tmp_path / name).mkdir()
        samples = tmp_path / name / "samples.csv"
        (samples.parent / "summary.json").write_bytes((fit_dir / "summary.json").read_bytes())
        samples.write_text("\n".join([lines[0]] + order) + "\n")
        assert main(["summarize", "--input", str(plate_csv), "--samples", str(samples),
                     "--outdir", str(tmp_path / name / "out"), "--fine-points", "20"]) == 0
        outs[name] = read_json(tmp_path / name / "out" / "summary.json")
        del outs[name]["samples"]
    assert outs["interleaved"] == outs["grouped"]
    got, want = outs["shuffled"], outs["grouped"]
    assert got["acceptance"] == want["acceptance"] == {"0": {}, "1": {}}
    assert got["acceptance_after_burn_in"] == {"0": {}, "1": {}}
    assert got["lpml"] == pytest.approx(want["lpml"], rel=1e-12)
    for group in ("dss", "rvus"):
        for key, stats in want[group].items():
            assert got[group][key] == pytest.approx(stats, rel=1e-12)


# ---------------------------------------------------------------------------
# Fail-fast checks, atomic outputs and acceptance warnings


def test_fit_checks_truth_before_sampling(tmp_path, plate_csv, monkeypatch, capsys):
    import combofit.cli as cli

    calls = []
    monkeypatch.setattr(cli, "run_chains", lambda *a, **k: calls.append(a))
    truth = tmp_path / "truth.csv"
    truth.write_text("log10_drug1_conc,log10_drug2_conc,p0,oops,p\n0,0,1,0,1\n")
    assert _fit(plate_csv, tmp_path / "fit", "--truth", str(truth)) == 1
    assert "header must be" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("command", ["fit", "summarize", "simulate", "baseline"])
def test_unusable_outdir_fails_before_any_work(tmp_path, plate_csv, monkeypatch, capsys,
                                               command):
    import combofit.cli as cli

    calls = []
    for name in ("run_chains", "summarize_chains", "sample_plate", "baseline_delta"):
        monkeypatch.setattr(cli, name, lambda *a, **k: calls.append(a))
    monkeypatch.setattr(cli.cio, "ingest_plate", lambda *a, **k: calls.append(a))
    blocker = tmp_path / "file"
    blocker.write_text("")
    argv = {"fit": ["fit", "--input", str(plate_csv)],
            "summarize": ["summarize", "--input", str(plate_csv), "--samples", str(plate_csv)],
            "simulate": ["simulate", "--scenario", "1"],
            "baseline": ["baseline", "--input", str(plate_csv)]}[command]
    assert main(argv + ["--outdir", str(blocker / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: cannot use output directory")
    assert calls == []


def test_failed_rerun_keeps_previous_outputs(tmp_path, monkeypatch):
    import combofit.cli as cli

    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", "1", "--seed", "2", "--outdir", str(sim)]) == 0
    outdir = tmp_path / "out"
    assert _fit(sim / "plate.csv", outdir, "--truth", str(sim / "truth.csv")) == 0
    before = {path.name: path.read_bytes() for path in outdir.iterdir()}
    assert set(before) == set(FIT_FILES) | {"mse.json"}

    def failing_write_json(path, payload):
        raise OSError("disk full")

    monkeypatch.setattr(cli.cio, "write_json", failing_write_json)
    with pytest.raises(OSError):
        _fit(sim / "plate.csv", outdir, "--truth", str(sim / "truth.csv"), "--seed", "8")
    after = {path.name: path.read_bytes() for path in outdir.iterdir()}
    assert after == before


def test_fit_warns_on_stuck_blocks(tmp_path, capsys):
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", "3", "--noise", "normal", "--nrep", "3",
                 "--seed", "1", "--outdir", str(sim)]) == 0
    capsys.readouterr()
    outdir = tmp_path / "fit"
    assert main(["fit", "--input", str(sim / "plate.csv"), "--outdir", str(outdir),
                 "--linear-scale", "natural", "--iters", "2000", "--seed", "1",
                 "--fine-points", "20"]) == 0
    err = capsys.readouterr().err
    warnings = read_json(outdir / "summary.json")["warnings"]
    stuck = {entry["block"] for entry in warnings}
    # gamma1 and gamma2 never move; b accepts 2.4% of its proposals after
    # burn-in (9.9% over the whole run)
    assert stuck == {"b", "gamma1", "gamma2"}
    for entry in warnings:
        assert entry["chain"] == 0
        assert not 0.05 <= entry["acceptance"] <= 0.9
        assert entry["acceptance"] == read_json(outdir / "summary.json")[
            "acceptance_after_burn_in"]["0"][entry["block"]]
        assert f"block {entry['block']} acceptance" in err
    assert err.count("warning:") == len(warnings)


# ---------------------------------------------------------------------------
# baseline


def test_baseline_writes_all_methods_with_mse(tmp_path):
    sim = tmp_path / "sim"
    assert main(["simulate", "--scenario", "2", "--seed", "3",
                 "--outdir", str(sim)]) == 0
    outdir = tmp_path / "base"
    assert main(["baseline", "--input", str(sim / "plate.csv"),
                 "--truth", str(sim / "truth.csv"),
                 "--outdir", str(outdir)]) == 0
    summary = read_json(outdir / "baseline_summary.json")
    assert set(summary) == {"bliss", "hsa", "loewe", "zip"}
    for method, entry in summary.items():
        assert (outdir / f"baseline_{method}.csv").exists()
        assert (outdir / f"baseline_delta_{method}.csv").exists()
        assert entry["mse_delta"] >= 0.0
    assert "fit1" in summary["bliss"]
    assert "flagged_cells" in summary["loewe"]
    assert "fell_back" in summary["zip"]
    assert "fit1" not in summary["hsa"]


def test_baseline_method_selection(tmp_path, plate_csv):
    outdir = tmp_path / "base"
    assert main(["baseline", "--input", str(plate_csv), "--method", "hsa",
                 "--method", "bliss", "--outdir", str(outdir)]) == 0
    summary = read_json(outdir / "baseline_summary.json")
    assert set(summary) == {"hsa", "bliss"}
    assert not (outdir / "baseline_loewe.csv").exists()


def test_baseline_repeated_method_writes_one_set(tmp_path, plate_csv):
    outdir = tmp_path / "base"
    assert main(["baseline", "--input", str(plate_csv), "--method", "bliss",
                 "--method", "bliss", "--outdir", str(outdir)]) == 0
    assert sorted(path.name for path in outdir.iterdir()) == [
        "baseline_bliss.csv", "baseline_delta_bliss.csv", "baseline_summary.json"]
    assert list(read_json(outdir / "baseline_summary.json")) == ["bliss"]


# ---------------------------------------------------------------------------
# Exit codes and output routing


def test_exit_code_1_on_bad_inputs(tmp_path, capsys):
    assert main(["fit", "--input", str(tmp_path / "nope.csv")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["simulate", "--scenario", "9"]) == 1
    assert main(["fit"]) == 1
    assert main(["definitely-not-a-command"]) == 1


def test_exit_code_2_on_numerical_failure(tmp_path, capsys):
    path = tmp_path / "plate.csv"
    rows = ["drug1_conc,drug2_conc,replicate,viability"]
    for c1 in (0.0, 1.0, 10.0):
        for c2 in (0.0, 1.0, 10.0):
            rows.append(f"{c1},{c2},1,1e200")
    path.write_text("\n".join(rows) + "\n")
    assert main(["fit", "--input", str(path), "--outdir", str(tmp_path / "out"),
                 "--iters", "100"]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_outdir_env_variable(tmp_path, monkeypatch):
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv(OUTDIR_ENV, str(env_dir))
    assert main(["simulate", "--scenario", "1", "--seed", "0"]) == 0
    assert (env_dir / "plate.csv").exists()
    flag_dir = tmp_path / "from_flag"
    assert main(["simulate", "--scenario", "1", "--seed", "0",
                 "--outdir", str(flag_dir)]) == 0
    assert (flag_dir / "plate.csv").exists()
    assert (flag_dir / "truth.csv").exists()


def test_validation_error_reported_once(plate_csv, capsys):
    rc = main(["summarize", "--input", str(plate_csv), "--samples",
               str(plate_csv.parent / "missing.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 1
