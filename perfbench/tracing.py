"""Traced run: per-layer metrics from spans around combofit's public functions.

The traced run repeats a workload's commands in this process through
`combofit.cli.main`, so the layers are called in exactly the order that
`cli._cmd_fit` and `cli._cmd_summarize` call them. Each public function in
`WRAPPED` is replaced, for the duration of a command, at the name its caller
looks up (`summaries` imports `link_g` by name, `cli` calls `cio.ingest_plate`
through the module, `chain_from_states` imports from `model` at call time).
Every call records a span: name, start, end and parent span. Spans stay in
memory and are written to `spans.csv` when the run ends. Self time is a span's
duration minus the durations of its child spans.

A traced round is one `fit` command and one `summarize` of its samples; the
workload's own command is one of the two (`TIMED`). Per-block costs come from
single-block chains through the public `mcmc.run_chain(update_blocks=...)`,
and the acceptance and ESS guards from the reference workload's command.
Nothing is added to `src/`.
"""

import csv
import importlib
import json
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import reference as ref

# module -> {attribute looked up by the caller: span name}
WRAPPED = {
    "combofit.io": {
        "ingest_plate": "io.ingest_plate", "read_samples_csv": "io.read_samples_csv",
        "write_samples_csv": "io.write_samples_csv",
        "write_surface_csv": "io.write_surface_csv", "write_json": "io.write_json",
        "read_truth_csv": "io.read_truth_csv",
    },
    "combofit.cli": {
        "run_chains": "mcmc.run_chains", "chain_from_states": "mcmc.chain_from_states",
        "summarize_chains": "summaries.summarize_chains",
        "mse_surface": "summaries.mse_surface",
    },
    "combofit.mcmc": {"basis_matrix": "splines.basis_matrix"},
    "combofit.model": {
        "zero_interaction_surface": "model.zero_interaction_surface",
        "interaction_surface": "model.interaction_surface",
        "interaction_predictor": "model.interaction_predictor",
        "observation_log_densities": "model.observation_log_densities",
        "link_g": "model.link_g", "log_logistic_2ll": "model.log_logistic_2ll",
        "basis_matrix": "splines.basis_matrix", "tensor_eval": "splines.tensor_eval",
    },
    "combofit.summaries": {
        "dss": "summaries.dss", "rvus": "summaries.rvus",
        "fine_mean_surface": "summaries.fine_mean_surface", "lpml": "summaries.lpml",
        "bi_ec50": "summaries.bi_ec50", "combination_columns": "summaries.combination_columns",
        "link_g": "model.link_g", "log_logistic_2ll": "model.log_logistic_2ll",
        "basis_matrix": "splines.basis_matrix", "tensor_eval": "splines.tensor_eval",
    },
}

HC_BLOCKS = ("m1", "m2", "lambda1", "lambda2", "b", "gamma0", "gamma1", "gamma2", "C",
             "sigma2_m1", "sigma2_m2", "sigma2_gamma0", "sigma2_gamma1", "sigma2_gamma2",
             "sigma2_eps")
IG_BLOCKS = HC_BLOCKS[9:]
MULTI_DIM_BLOCKS = ("b", "C")        # acceptance target 0.234; scalar blocks 0.44
TARGETS = (0.44, 0.234)
BLOCK_ITERS = (300, 1300)             # cost per update = time difference / 1000
BLOCK_ADAPT_START = 100
BLOCK_REPEATS = 3
IMPORT_REPEATS = 5
MAX_TRACED_ROUNDS = 5
UNTRACED_ROUNDS = 2


class Tracer:
    """Spans of wrapped calls: [name, start_ns, end_ns, parent index]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Install the wrappers; functions a later version no longer has are skipped."""
        saved = []
        try:
            for module_name, names in WRAPPED.items():
                module = importlib.import_module(module_name)
                for attr, span in names.items():
                    if hasattr(module, attr):
                        original = getattr(module, attr)
                        saved.append((module, attr, original))
                        setattr(module, attr, self.wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def totals(spans):
    """name -> (calls, inclusive ns, self ns) over a list of spans."""
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for (name, start, end, _), child in zip(spans, child_ns):
        calls, incl, own = out.get(name, (0, 0, 0))
        out[name] = (calls + 1, incl + end - start, own + end - start - child)
    return out


def traced_command(tracer, argv):
    """Run one combofit command in process under tracing: (exit code, spans)."""
    from combofit import cli
    first = len(tracer.spans)
    main = tracer.wrap("cli.main", cli.main)
    with tracer.patched():
        code = main(argv[3:])  # drop `python -m combofit.cli`
    spans = [[n, s, e, p - first if p >= 0 else -1] for n, s, e, p in tracer.spans[first:]]
    return code, spans


def round_metrics(workload, fit_spans, sum_spans, samples_bytes):
    """Per-layer metrics of one traced round (one fit, one summarize)."""
    fit, summ = totals(fit_spans), totals(sum_spans)
    timed = fit if workload.TIMED == "fit" else summ
    draws = workload.DRAWS

    def calls(t, name):
        return t.get(name, (0, 0, 0))[0]

    def incl(t, name):
        return t.get(name, (0, 0, 0))[1]

    def own(t, name):
        return t.get(name, (0, 0, 0))[2]

    return {
        "io.ingest_plate_ms": (incl(timed, "io.ingest_plate") / 1e6, "ms"),
        "io.write_outputs_ms": ((incl(timed, "io.write_surface_csv")
                                 + incl(timed, "io.write_json")) / 1e6, "ms"),
        "io.write_samples_us_per_draw": (incl(fit, "io.write_samples_csv") / 1e3 / draws, "us"),
        "io.read_samples_us_per_draw": (incl(summ, "io.read_samples_csv") / 1e3 / draws, "us"),
        "io.samples_csv_bytes_per_draw": (samples_bytes / draws, "B"),
        "mcmc.run_chains_s": (own(fit, "mcmc.run_chains") / 1e9, "s"),
        "mcmc.us_per_iter": (own(fit, "mcmc.run_chains") / 1e3
                             / (workload.CHAINS * workload.ITERS), "us"),
        "mcmc.chain_from_states_ms_per_draw": (
            incl(summ, "mcmc.chain_from_states") / 1e6 / draws, "ms"),
        "model.log_logistic_2ll_calls": (calls(summ, "model.log_logistic_2ll") / draws,
                                         "count/draw"),
        "model.link_g_calls": (calls(summ, "model.link_g") / draws, "count/draw"),
        "model.interaction_surface_calls": (calls(summ, "model.interaction_surface") / draws,
                                            "count/draw"),
        "splines.basis_matrix_calls": (calls(summ, "splines.basis_matrix") / draws,
                                       "count/draw"),
        "summaries.summarize_chains_ms_per_draw": (
            own(timed, "summaries.summarize_chains") / 1e6 / draws, "ms"),
        "summaries.fine_mean_surface_ms_per_draw": (
            incl(timed, "summaries.fine_mean_surface") / 1e6 / draws, "ms"),
        "summaries.rvus_ms_per_draw": (incl(timed, "summaries.rvus") / 1e6 / draws, "ms"),
        "summaries.dss_ms_per_draw": (incl(timed, "summaries.dss") / 1e6 / draws, "ms"),
        "summaries.lpml_ms": (incl(timed, "summaries.lpml") / 1e6, "ms"),
        "summaries.rvus_calls": (calls(timed, "summaries.rvus"), "count"),
    }


def import_probe(bench, where):
    """Fresh-process `import combofit.cli`: (import seconds, child wall seconds)."""
    code = ("import time; t = time.perf_counter(); import combofit.cli; "
            "print(time.perf_counter() - t)")
    imports, walls = [], []
    for k in range(IMPORT_REPEATS):
        result = bench.run_child([sys.executable, "-c", code], where, f"import{k}")
        bench.must(result, "import combofit.cli")
        imports.append(float((where / f"import{k}.log").read_text().split()[-1]))
        walls.append(result.wall_s)
    return statistics.median(imports), statistics.median(walls)


def block_costs(plate_path, variance_prior, blocks, seed):
    """Microseconds per update of each block, from single-block chains."""
    from combofit import ChainConfig, PriorSpec, run_chain
    from combofit.io import ingest_plate
    data = ingest_plate(plate_path)
    priors = PriorSpec(variance_prior=variance_prior)
    costs = {}
    for block in blocks:
        samples = []
        for _ in range(BLOCK_REPEATS):
            seconds = []
            for n in BLOCK_ITERS:
                config = ChainConfig(n_iter=n, burn_in=n - 1, thin=1,
                                     adapt_start=BLOCK_ADAPT_START, seed=seed)
                start = time.perf_counter()
                run_chain(data, priors=priors, config=config, update_blocks=(block,))
                seconds.append(time.perf_counter() - start)
            samples.append((seconds[1] - seconds[0]) / (BLOCK_ITERS[1] - BLOCK_ITERS[0]) * 1e6)
        costs[block] = statistics.median(samples)
    return costs


def guards(plate_path, fit_dir):
    """Whole-run acceptance gaps and bulk-ESS minima of a reference fit."""
    summary = json.loads((Path(fit_dir) / "summary.json").read_text())
    rates = summary["acceptance"]["0"]
    out = {}
    for block in HC_BLOCKS:
        target = TARGETS[1] if block in MULTI_DIM_BLOCKS else TARGETS[0]
        out[f"mcmc.{block}.accept_gap"] = (abs(rates[block] - target), "1")
    post = ref.Posterior(ref.Plate(plate_path), ref.Draws(Path(fit_dir) / "samples.csv"))
    chain = post.draws.chain
    score = [ref.bulk_ess(x, chain) for x in post.score_series().values()]
    param = [ref.bulk_ess(x, chain) for x in post.draws.scalar.values()]
    out["mcmc.score_ess_min"] = (float(np.nanmin(score)), "draws")
    out["mcmc.param_ess_min"] = (float(np.nanmin(param)), "draws")
    return out


def fingerprint(thread_vars):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {var: os.environ.get(var) for var in thread_vars},
            "machine": platform.machine(), "system": platform.system()}


def traced_run(bench, workload, seed, seconds):
    """Set up once, run untraced rounds, then traced rounds; per-layer metrics."""
    sys.path.insert(0, str(bench.SRC))
    from combofit.model import HalfCauchyPrior, InverseGammaPrior

    ctx, _, problems = bench.prepare(workload, seed, 1)
    tally = bench.Tally(problems=problems)
    verdicts = {}
    untraced = []
    timed_name = workload.ops(ctx)[0].name
    for _ in range(UNTRACED_ROUNDS):
        for op in workload.ops(ctx):
            result, counts = bench.run_op(op, tally, verdicts)
            if op.name == timed_name and counts:
                untraced.append(result.wall_s)
    tdir = ctx.work / "trace"
    tdir.mkdir(parents=True, exist_ok=True)

    # Probe plates: the reference plate (hc blocks, guards) and the
    # criterion-4 plate (ig blocks), both from the workload seed.
    hc_plate, ig_plate = tdir / "plate_hc", tdir / "plate_ig"
    bench.simulate(3, 3, seed, hc_plate)
    bench.simulate(1, 1, seed, ig_plate)
    import_s, startup_wall = import_probe(bench, tdir)

    from combofit import cli
    tracer = Tracer()
    rounds, traced_walls, plain_walls, span_rows = [], [], [], []
    fit_dir, sum_dir = tdir / "fit", tdir / "summarize"
    fit_argv = workload.fit_argv(ctx, ctx.files["plate"], fit_dir)
    sum_argv = bench.summarize_argv(ctx.files["plate"], fit_dir, sum_dir)
    # The timed command once more in this process without wrappers, written
    # elsewhere; alternating with the traced one cancels slow drifts in speed.
    plain_argv = {"fit": workload.fit_argv(ctx, ctx.files["plate"], tdir / "plain"),
                  "summarize": bench.summarize_argv(ctx.files["plate"], fit_dir,
                                                    tdir / "plain")}[workload.TIMED]
    fit_twin = ctx.work / "out" if workload.TIMED == "fit" else ctx.files["post"]
    start = time.perf_counter()
    while len(rounds) < MAX_TRACED_ROUNDS:
        if rounds:  # the summarize command needs the traced fit's samples
            plain_start = time.perf_counter()
            if cli.main(plain_argv[3:]) != 0:
                raise RuntimeError("untraced in-process command failed")
            plain_walls.append(time.perf_counter() - plain_start)
        phases = {}
        for phase, argv in (("fit", fit_argv), ("summarize", sum_argv)):
            code, spans = traced_command(tracer, argv)
            if code != 0:
                raise RuntimeError(f"traced {phase} exited {code}")
            phases[phase] = spans
            span_rows += [(len(rounds), phase, *span) for span in spans]
        # Traced commands must produce what the untraced children produced.
        if bench.digest(fit_dir) != bench.digest(fit_twin):
            tally.problems.append("traced fit output differs from the untraced fit")
        tally.problems += bench.compare_scores(
            bench.read_json(sum_dir / "summary.json"), bench.read_json(fit_dir / "summary.json"),
            bench.SAME_RTOL, label="traced summarize vs fit summary: ")
        root = phases[workload.TIMED][0]
        traced_walls.append((root[2] - root[1]) / 1e9)
        rounds.append(round_metrics(workload, phases["fit"], phases["summarize"],
                                    (fit_dir / "samples.csv").stat().st_size))
        if len(rounds) >= 2 and time.perf_counter() - start >= seconds:
            break

    metrics = {key: (statistics.median(r[key][0] for r in rounds), unit)
               for key, (_, unit) in rounds[0].items()}
    metrics["cli.import_s"] = (import_s, "s")
    # Untraced wall_s includes interpreter start-up and imports; the traced
    # command runs in an already started process, so add a fresh start-up back.
    if untraced:
        overhead = statistics.median(traced_walls) + startup_wall - statistics.median(untraced)
    else:
        tally.problems.append("no untraced command succeeded")
        overhead = 0.0
    metrics["trace.overhead_s"] = (overhead, "s")
    # The same difference within this process, free of start-up and of drift.
    paired = traced_walls[1:1 + len(plain_walls)]
    metrics["trace.inprocess_overhead_s"] = (
        statistics.median(paired) - statistics.median(plain_walls) if plain_walls else 0.0, "s")

    hc = block_costs(hc_plate / "plate.csv", HalfCauchyPrior(1.0), HC_BLOCKS, seed)
    ig = block_costs(ig_plate / "plate.csv", InverseGammaPrior(bench.IG_SHAPE, bench.IG_RATE),
                     IG_BLOCKS, seed)
    metrics.update({f"mcmc.{b}.us_per_update": (v, "us") for b, v in hc.items()})
    metrics.update({f"mcmc.ig.{b}.us_per_update": (v, "us") for b, v in ig.items()})

    # Guards come from the reference workload's command on the same seed.
    guard_dir = ctx.work / "out" if workload.name == "reference_fit" else tdir / "guard"
    if workload.name != "reference_fit":
        reference = bench.WORKLOADS["reference_fit"]
        bench.must(bench.run_child(reference.fit_argv(ctx, hc_plate / "plate.csv", guard_dir),
                                   tdir, "guard"), "guard fit")
    metrics.update(guards(hc_plate / "plate.csv", guard_dir))

    with open(tdir / "spans.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["round", "command", "name", "start_ns", "end_ns", "parent"])
        writer.writerows(span_rows)
    info = {"workload": workload.name, "seed": seed, "fingerprint": fingerprint(bench.THREAD_VARS),
            "rounds": len(rounds), "untraced_wall_s": untraced,
            "traced_wall_s": traced_walls, "inprocess_untraced_wall_s": plain_walls,
            "startup_wall_s": startup_wall,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}
    (tdir / "per_layer.json").write_text(json.dumps(info, indent=2) + "\n")
    print(f"fingerprint: {json.dumps(info['fingerprint'])}")
    return tally, dict(sorted(metrics.items()))
