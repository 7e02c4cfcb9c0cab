"""combofit benchmark: `fit`, multi-chain `fit` and `summarize`, end to end.

    python3 perfbench/run.py --workload reference_fit --seed 1 --seconds 25 --trace 0

Run from anywhere; the repository root is this file's parent directory. Each
timed operation is one `python3 -m combofit.cli ...` child process, run one
at a time, with the BLAS thread count pinned. Outputs are checked against
the independent recomputations in `reference.py`. The last line of standard
output is one JSON object: `correct`, `attempted`, `failed` and `metrics`
(end-to-end metrics with `--trace 0`, per-layer metrics with `--trace 1`).
`--workload all` runs every workload in turn and prefixes each metric with
its workload's name. Work files go to `.perfbench_out/` at the root.
"""

import os

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = BLAS_THREADS

import argparse
import compileall
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 150
SETUP_REPEATS = 3
IG_SHAPE, IG_RATE = 3.0, 2.0
RTOL = 1e-9           # recomputation vs program: summation order only
SAME_RTOL = 1e-12     # summarize vs the fit's own summary.json
KS_MIN_P = 1e-6       # conjugate PIT: six KS tests per checked output
SIGN_CELL_MIN = 0.1   # |truth Delta| above which the posterior sign must match
MSE_SHARE = 0.05      # MSE_delta below this share of mean truth Delta^2
FAULT_SEED = 1        # fixed inputs of resummarize's known-faulty operation
CAL_REFERENCE_S = 0.017  # calibration time at the reference host speed (README)
CAL_REPEATS = 25     # about 0.5 s: long enough to average sub-second bursts
SETUP_FILES = ("plate.csv", "truth.csv", "samples.csv")


def cli(*args):
    return [sys.executable, "-m", "combofit.cli", *map(str, args)]


def summarize_argv(plate, fit_dir, outdir):
    return cli("summarize", "--input", plate, "--samples", Path(fit_dir) / "samples.csv",
               "--outdir", outdir)


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    env.update({var: BLAS_THREADS for var in THREAD_VARS})
    return env


@dataclass
class ChildResult:
    returncode: int
    wall_s: float
    maxrss_mb: float


def run_child(argv, cwd, log_name):
    """Run one child to completion through launch.py: wall time and peak RSS."""
    cwd = Path(cwd)
    cwd.mkdir(parents=True, exist_ok=True)
    launcher = [sys.executable, "-S", str(HERE / "launch.py"), str(CHILD_TIMEOUT_S),
                str(cwd / f"{log_name}.log"), str(cwd), "--", *argv]
    done = subprocess.run(launcher, env=child_env(), capture_output=True, check=False,
                          timeout=CHILD_TIMEOUT_S + 30)
    if done.returncode != 0:
        raise RuntimeError(f"launcher failed: {done.stderr.decode(errors='replace')}")
    record = json.loads(done.stdout)
    return ChildResult(record["returncode"], record["wall_s"], record["maxrss_kib"] / 1024.0)


def calibration_work():
    """A fixed mix of the kinds of work combofit does, independent of combofit.

    Small-array numpy calls in a Python loop (the sampler's block updates),
    float formatting and parsing (the CSV writers and readers) and
    elementwise arithmetic on 100 x 100 arrays (the fine surfaces).
    """
    x = np.linspace(-3.0, 3.0, 110).reshape(11, 10)
    acc = 0.0
    for k in range(600):
        y = 1.0 / (1.0 + np.exp(np.clip(x * (1.0 + k * 1e-6), -700.0, 700.0)))
        acc += float(np.vdot(y, y))
    text = ",".join(repr(v) for v in np.sin(np.arange(4000.0)).tolist())
    acc += sum(float(t) for t in text.split(","))
    grid = np.subtract.outer(np.linspace(0.0, 1.0, 100), np.linspace(0.0, 1.0, 100))
    for k in range(40):
        acc += float(np.sum(1.0 / (1.0 + np.exp(grid * (k + 1.0)))))
    return acc


def host_seconds():
    """Mean time of the calibration work now: the host's current speed.

    Speed of a shared host drifts by up to 2x over minutes; times divided by
    this and multiplied by CAL_REFERENCE_S are times at the reference speed.
    """
    start = time.perf_counter()
    for _ in range(CAL_REPEATS):
        calibration_work()
    return (time.perf_counter() - start) / CAL_REPEATS


def must(result, what):
    if result.returncode != 0:
        raise RuntimeError(f"{what} exited {result.returncode}")


def digest(outdir, names=None):
    """sha256 over the CSV and JSON files of a directory (or the named ones)."""
    h = hashlib.sha256()
    for path in sorted(Path(outdir).glob("*")):
        if path.suffix in (".csv", ".json") and (names is None or path.name in names):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when correct.


def _close(got, want, rtol, atol=0.0):
    return abs(got - want) <= atol + rtol * abs(want)


def compare_scores(got, want, rtol, dss_atol=0.0, label=""):
    """n_samples, LPML, DSS and rVUS statistics of two summaries."""
    problems = []
    if got["n_samples"] != want["n_samples"]:
        problems.append(f"{label}n_samples {got['n_samples']} != {want['n_samples']}")
    if not _close(got["lpml"], want["lpml"], rtol):
        problems.append(f"{label}lpml {got['lpml']!r} != {want['lpml']!r}")
    for group, atol in (("rvus", 1e-15), ("dss", dss_atol)):
        for key, stats in want[group].items():
            for stat, value in stats.items():
                other = got[group][key][stat]
                if not _close(other, value, rtol, atol):
                    problems.append(f"{label}{group}.{key}.{stat} {other!r} != {value!r}")
    return problems


def dss_trapezoid_bound(post, threshold=0.10, n_points=1001):
    """Largest trapezoid-rule error of combofit's DSS over the draws.

    Error <= (hi - x_t) h^2 / 12 * max|a''|, with a = 1 - f the activity,
    max|a''| = (lam ln 10)^2 / (6 sqrt 3) and h = (hi - x_t) / (n_points - 1),
    scaled into score units. Order statistics move by at most the largest
    per-draw error, so the bound holds for every reported statistic.
    """
    s, plate = post.draws.scalar, post.plate
    worst = 0.0
    for m, lam, axis in ((s["m1"], s["lambda1"], plate.logc1),
                         (s["m2"], s["lambda2"], plate.logc2)):
        lo, hi = axis[1], axis[-1]
        x_t = np.clip(m + np.log10(threshold / (1.0 - threshold)) / lam, lo, hi)
        span = hi - x_t
        err = span * (span / (n_points - 1)) ** 2 / 12.0 * (lam * ref.LN10) ** 2 / (6 * 3 ** 0.5)
        worst = max(worst, float(np.max(err)) * 100.0 / ((1.0 - threshold) * (hi - lo)))
    return worst


def check_summary(post, summary):
    """A program summary against the recomputation from samples.csv."""
    tol = dss_trapezoid_bound(post) + 1e-9
    problems = compare_scores(summary, post.summary(), RTOL, dss_atol=tol)
    problems += ref.iso_effect_mismatch(summary["bi_ec50_points"], post.fine1, post.fine2,
                                        post.fine_mean, summary["bi_ec50_tolerance"])
    return problems


def check_surfaces(outdir, post):
    """Posterior-mean surfaces: model properties and agreement with the draws."""
    problems = []
    surf = {}
    for name in ("p", "p0", "delta"):
        ax1, ax2, values = ref.read_surface(Path(outdir) / f"surface_{name}.csv")
        if not (np.allclose(ax1, post.plate.logc1, rtol=0, atol=1e-12)
                and np.allclose(ax2, post.plate.logc2, rtol=0, atol=1e-12)):
            problems.append(f"surface_{name}.csv axes differ from the plate grid")
        surf[name] = values
    p, p0, delta = surf["p"], surf["p0"], surf["delta"]
    if not np.all((p > 0.0) & (p < 1.0)):
        problems.append("posterior-mean p leaves (0, 1)")
    if np.any(delta[0, :] != 0.0) or np.any(delta[:, 0] != 0.0):
        problems.append("Delta is not exactly zero on the monotherapy borders")
    if np.max(np.abs(p - (p0 + delta))) > 1e-12:
        problems.append("surface_p differs from surface_p0 + surface_delta")
    for name, want in (("p0", post.p0), ("delta", post.delta)):
        if np.max(np.abs(surf[name] - want.mean(axis=0))) > 1e-9:
            problems.append(f"surface_{name}.csv differs from the mean of the draws")
    return problems


def check_fit(plate_path, outdir, degree=3):
    """Summary and surfaces of a fit output directory; returns (problems, post)."""
    post = ref.Posterior(ref.Plate(plate_path), ref.Draws(Path(outdir) / "samples.csv"),
                         degree=degree)
    summary = read_json(Path(outdir) / "summary.json")
    return check_summary(post, summary) + check_surfaces(outdir, post), post


# ---------------------------------------------------------------------------
# Workloads


@dataclass
class Op:
    """One timed child command and how to judge its outputs."""

    name: str
    argv: list
    outdir: Path
    draws: int
    check: object                 # callable(outdir) -> list of problems
    known_fault: bool = False     # fails today; counted in `failed`, not timed


@dataclass
class Context:
    seed: int
    work: Path
    files: dict = field(default_factory=dict)
    cache: dict = field(default_factory=dict)


def simulate(scenario, nrep, seed, outdir):
    must(run_child(cli("simulate", "--scenario", scenario, "--noise", "normal", "--nrep", nrep,
                       "--seed", seed, "--outdir", outdir), outdir, "simulate"), "simulate")


class FitWorkload:
    """A workload whose timed command is one `fit` of the set-up's plate."""

    TIMED = "fit"  # which half of a traced round is the timed command

    def check_setup(self, ctx):
        return []

    def ops(self, ctx):
        out = ctx.work / "out"
        return [Op("fit", self.fit_argv(ctx, ctx.files["plate"], out), out, self.DRAWS,
                   lambda d: self.check(ctx, d))]


class ReferenceFit(FitWorkload):
    """`fit --truth` on the reference plate: scenario 3, normal noise, three
    replicates, 11 x 10 grid, half-Cauchy prior, one chain, thin 10, on a
    shortened schedule. Sampling dominates; summaries and writes are small."""

    name = "reference_fit"
    CHAINS, ITERS, THIN = 1, 4000, 10
    DRAWS = (ITERS - ITERS // 2) // THIN

    def setup(self, ctx, where):
        simulate(3, 3, ctx.seed, where)
        return {"plate": where / "plate.csv", "truth": where / "truth.csv"}

    def fit_argv(self, ctx, plate, outdir):
        return cli("fit", "--input", plate, "--truth", Path(plate).parent / "truth.csv",
                   "--variance-prior", "hc", "--chains", self.CHAINS, "--thin", self.THIN,
                   "--iters", self.ITERS, "--seed", ctx.seed, "--outdir", outdir)

    def check(self, ctx, outdir):
        problems, post = check_fit(ctx.files["plate"], outdir)
        truth = ref.read_truth_delta(ctx.files["truth"], post.p.shape[1:])
        _, _, delta = ref.read_surface(Path(outdir) / "surface_delta.csv")
        mse = float(np.mean((delta - truth) ** 2))
        limit = MSE_SHARE * float(np.mean(truth ** 2))
        if not mse < limit:
            problems.append(f"MSE_delta {mse:.3g} not below {limit:.3g}")
        reported = read_json(Path(outdir) / "mse.json")["mse_delta"]
        if not _close(reported, mse, 1e-12):
            problems.append(f"mse.json mse_delta {reported!r} != {mse!r}")
        big = np.abs(truth) > SIGN_CELL_MIN
        wrong = int(np.sum(np.sign(delta[big]) != np.sign(truth[big])))
        if wrong:
            problems.append(f"posterior-mean Delta has the wrong sign on {wrong} of "
                            f"{int(big.sum())} cells with |truth| > {SIGN_CELL_MIN}")
        return problems


class MultichainIG(FitWorkload):
    """`fit --variance-prior ig --chains 4 --thin 1` on the criterion-4 plate
    (scenario 1, one replicate). Six blocks become exact conjugate draws, the
    chains run one after another, and thin 1 makes the run write-heavy."""

    name = "multichain_ig"
    CHAINS, ITERS, BURN, ADAPT = 4, 700, 350, 150
    DRAWS = CHAINS * (ITERS - BURN)

    def setup(self, ctx, where):
        simulate(1, 1, ctx.seed, where)
        return {"plate": where / "plate.csv"}

    def fit_argv(self, ctx, plate, outdir):
        return cli("fit", "--input", plate, "--variance-prior", "ig",
                   "--ig-shape", IG_SHAPE, "--ig-rate", IG_RATE, "--chains", self.CHAINS,
                   "--thin", 1, "--iters", self.ITERS, "--burn-in", self.BURN,
                   "--adapt-start", self.ADAPT, "--seed", ctx.seed, "--outdir", outdir)

    def check(self, ctx, outdir):
        problems, post = check_fit(ctx.files["plate"], outdir)
        chains, counts = np.unique(post.draws.chain, return_counts=True)
        per_chain = self.ITERS - self.BURN
        if list(chains) != list(range(self.CHAINS)) or np.any(counts != per_chain):
            problems.append(f"chains {list(chains)} with {list(counts)} draws, expected "
                            f"{self.CHAINS} chains of {per_chain}")
        for name, u in ref.conjugate_pit(post, IG_SHAPE, IG_RATE).items():
            p = ref.ks_uniform_pvalue(u)
            if not p >= KS_MIN_P:
                problems.append(f"conjugate PIT of {name} is not uniform (KS p = {p:.3g})")
        return problems


class Resummarize:
    """`summarize` on stored three-chain posteriors of the reference plate that
    the set-up fits at thin 1. No sampling: CSV parsing, the per-draw model
    rebuild and summaries. Each round also summarises a degree-2 posterior
    without repeating `--degree 2`, which fails today (counted in `failed`)."""

    name = "resummarize"
    CHAINS, ITERS, BURN, ADAPT = 3, 600, 200, 200
    DRAWS = CHAINS * (ITERS - BURN)
    FAULT_ITERS, FAULT_BURN = 500, 250
    TIMED = "summarize"

    def fit_argv(self, ctx, plate, outdir):
        return cli("fit", "--input", plate, "--chains", self.CHAINS, "--thin", 1,
                   "--iters", self.ITERS, "--burn-in", self.BURN,
                   "--adapt-start", self.ADAPT, "--seed", ctx.seed, "--outdir", outdir)

    def setup(self, ctx, where):
        simulate(3, 3, ctx.seed, where / "sim")
        files = {"plate": where / "sim" / "plate.csv", "post": where / "post"}
        must(run_child(self.fit_argv(ctx, files["plate"], files["post"]), where, "fit"), "fit")
        # The known-faulty operation reads a degree-2 posterior; its inputs are
        # fixed so that it fails the same way whatever the workload seed.
        simulate(3, 3, FAULT_SEED, where / "sim_d2")
        files.update(plate_d2=where / "sim_d2" / "plate.csv", post_d2=where / "post_d2")
        must(run_child(cli("fit", "--input", files["plate_d2"], "--degree", 2, "--thin", 1,
                           "--iters", self.FAULT_ITERS, "--burn-in", self.FAULT_BURN,
                           "--adapt-start", 150, "--seed", FAULT_SEED,
                           "--outdir", files["post_d2"]), where, "fit_d2"), "fit")
        return files

    def check_setup(self, ctx):
        """The stored posteriors are themselves right, and cached for the ops."""
        problems, ctx.cache["post"] = check_fit(ctx.files["plate"], ctx.files["post"])
        more, _ = check_fit(ctx.files["plate_d2"], ctx.files["post_d2"], degree=2)
        return problems + [f"degree-2 fit: {p}" for p in more]

    def ops(self, ctx):
        out, out_d2 = ctx.work / "out", ctx.work / "out_d2"
        return [
            Op("summarize", summarize_argv(ctx.files["plate"], ctx.files["post"], out),
               out, self.DRAWS, lambda d: self.check(ctx, d)),
            Op("summarize_degree2",
               summarize_argv(ctx.files["plate_d2"], ctx.files["post_d2"], out_d2),
               out_d2, self.FAULT_ITERS - self.FAULT_BURN,
               lambda d: self.check_fault(ctx, d), known_fault=True),
        ]

    def check(self, ctx, outdir):
        got = read_json(Path(outdir) / "summary.json")
        own = read_json(ctx.files["post"] / "summary.json")
        problems = compare_scores(got, own, SAME_RTOL, label="vs fit summary: ")
        return problems + check_summary(ctx.cache["post"], got)

    def check_fault(self, ctx, outdir):
        got = read_json(Path(outdir) / "summary.json")
        own = read_json(ctx.files["post_d2"] / "summary.json")
        return compare_scores(got, own, SAME_RTOL, label="vs degree-2 fit summary: ")


WORKLOADS = {w.name: w for w in (ReferenceFit(), MultichainIG(), Resummarize())}


# ---------------------------------------------------------------------------
# Runs


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    walls: list = field(default_factory=list)       # at the reference host speed
    raw_walls: list = field(default_factory=list)   # as the clock read them
    host: list = field(default_factory=list)        # calibration seconds
    rss: list = field(default_factory=list)
    rates: list = field(default_factory=list)

    @property
    def correct(self):
        return not self.problems


def run_op(op, tally, verdicts):
    """Run one operation and judge it; True when its timing counts."""
    shutil.rmtree(op.outdir, ignore_errors=True)
    result = run_child(op.argv, op.outdir.parent, op.outdir.name)
    tally.attempted += 1
    if result.returncode != 0:
        tally.failed += 1
        print(f"  {op.name}: exit {result.returncode} (failed)", file=sys.stderr)
        return result, False
    key = (op.name, digest(op.outdir))
    if key not in verdicts:
        try:
            verdicts[key] = op.check(op.outdir)
        except (OSError, KeyError, ValueError, IndexError) as exc:
            verdicts[key] = [f"unreadable output: {exc!r}"]
    problems = verdicts[key]
    if op.known_fault:
        if problems:
            tally.failed += 1
        return result, False
    tally.problems += [f"{op.name}: {p}" for p in problems]
    return result, True


def build():
    """Byte-compile the package once, so no run pays for it inside a timing."""
    if not (SRC / "combofit" / "cli.py").is_file():
        raise FileNotFoundError(f"no combofit sources under {SRC}")
    compileall.compile_dir(SRC / "combofit", quiet=1)


def prepare(workload, seed, repeats):
    """Set up `repeats` times in fresh directories.

    Returns the context, the set-up times at the reference host speed and the
    problems found in the set-up's outputs.
    """
    work = OUT / workload.name
    shutil.rmtree(work, ignore_errors=True)
    ctx = Context(seed=seed, work=work)
    times, digests = [], set()
    before = host_seconds()
    for k in range(repeats):
        where = work / f"setup{k}"
        start = time.perf_counter()
        files = workload.setup(ctx, where)
        elapsed = time.perf_counter() - start
        after = host_seconds()
        times.append(elapsed * CAL_REFERENCE_S / (0.5 * (before + after)))
        before = after
        # summary.json records its input path, which differs between set-ups.
        digests.add(tuple(digest(p if p.is_dir() else p.parent, SETUP_FILES)
                          for p in files.values()))
        if k == 0:
            ctx.files = files
    problems = [] if len(digests) == 1 else ["repeated set-ups gave different files"]
    problems += [f"set-up: {p}" for p in workload.check_setup(ctx)]
    return ctx, times, problems


def measure(workload, seed, seconds):
    """Untraced run: set-up, then whole rounds of operations for `seconds`."""
    ctx, setup_times, problems = prepare(workload, seed, SETUP_REPEATS)
    tally = Tally(problems=problems)
    verdicts = {}
    before = host_seconds()
    start = time.perf_counter()
    while True:
        for op in workload.ops(ctx):
            result, counts = run_op(op, tally, verdicts)
            after = host_seconds()
            if counts:
                host = 0.5 * (before + after)
                wall = result.wall_s * CAL_REFERENCE_S / host
                print(f"  {op.name}: wall {result.wall_s:.4f} s, calibration {before:.5f} "
                      f"and {after:.5f} s, scaled {wall:.4f} s", file=sys.stderr)
                tally.walls.append(wall)
                tally.raw_walls.append(result.wall_s)
                tally.host.append(host)
                tally.rss.append(result.maxrss_mb)
                tally.rates.append(op.draws / wall)
            before = after
        if time.perf_counter() - start >= seconds:
            break
    if not tally.walls:
        tally.problems.append("no timed operation succeeded")
        return tally, {}
    print(f"{workload.name}: {len(tally.walls)} timed commands; as read by the clock: "
          f"median wall {statistics.median(tally.raw_walls):.6g} s, median calibration "
          f"{statistics.median(tally.host):.6g} s (reference {CAL_REFERENCE_S} s)")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(tally.walls), "s"),
        "draws_per_s": (statistics.median(tally.rates), "1/s"),
        "peak_rss_mb": (statistics.median(tally.rss), "MiB"),
    }
    return tally, metrics


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    if trace:
        import tracing
        return tracing.traced_run(sys.modules[__name__], workload, seed, seconds)
    return measure(workload, seed, seconds)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        build()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # One CPU for this process and every child, so that the calibration and
    # the commands it scales run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        tally, values = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += tally.attempted
        failed += tally.failed
        correct = correct and tally.correct
        for problem in tally.problems:
            print(f"{name}: INCORRECT: {problem}")
        print(f"{name}: attempted {tally.attempted}, failed {tally.failed}, "
              f"correct {tally.correct}")
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in values.items():
            print(f"{name}: {key} = {value:.6g} {unit}")
            metrics[prefix + key] = {"value": value, "unit": unit}
    if attempted == 0 or not metrics:
        print("error: nothing was measured", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
