"""Command-line interface: simulate, fit, summarize and baseline subcommands.

Exit codes: 0 success, 1 input/validation error, 2 numerical failure. Output
files land in --outdir, the COMBOFIT_OUTDIR environment variable, or the
working directory, in that order of precedence. Options resolve as built-in
defaults < file values < explicit flags, where the file is fit's --config or,
for summarize, the config block of the summary.json next to its samples CSV;
summarize also requires its --input to be the plate that record names by digest.
Outputs are written under temporary names and renamed into place only once all
of them are written, so a failed run leaves the files of an earlier run
untouched.
"""

import argparse
import contextlib
import os
import sys
from dataclasses import asdict, dataclass, fields, is_dataclass
from pathlib import Path

import numpy as np

try:  # the builtin module: hashlib loads OpenSSL, 3.4 MiB more peak RSS per command
    from _sha256 import sha256  # CPython 3.10 and 3.11
except ImportError:
    from hashlib import sha256

from . import io as cio
from .baselines import BASELINE_METHODS, baseline_delta
from .data import LogConcGrid, SurfaceGrid
from .errors import CombofitError, ValidationError
from .mcmc import ChainConfig, Posterior, run_chains
from .model import LINEAR_SCALES, GammaPrior, HalfCauchyPrior, InverseGammaPrior, PriorSpec
from .simulate import SimScenario, sample_plate
from .splines import SplineSpec, check_layout
from .summaries import ACCEPTANCE_RANGE, mse_surface, summarize_chains

OUTDIR_ENV = "COMBOFIT_OUTDIR"

# The values each declared RunConfig field type accepts, and their name; a bool
# is an int to isinstance, so only bool fields take one.
_ACCEPTS = {bool: ((bool,), "true or false"), int: ((int,), "an integer"),
            float: ((int, float), "a number"), str: ((str,), "a string")}

# RunConfig.variance_prior names one of these and the prior it builds.
VARIANCE_PRIORS = {"hc": lambda run: HalfCauchyPrior(run.hc_scale),
                   "ig": lambda run: InverseGammaPrior(run.ig_shape, run.ig_rate)}


@dataclass(frozen=True)
class RunConfig:
    """Resolved options of one fit run; the field defaults are the built-in
    defaults, and fit records every field in its summary.json."""

    iters: int = 100_000
    burn_in: int = None
    thin: int = 10
    adapt_start: int = None
    seed: int = 0
    chains: int = 1
    k1: int = 6
    k2: int = 6
    degree: int = 3
    ridge: float = 1e-4
    variance_prior: str = "hc"
    hc_scale: float = 1.0
    ig_shape: float = 3.0
    ig_rate: float = 2.0
    lambda_shape: float = 0.01
    lambda_rate: float = 0.01
    b_shape: float = 0.01
    b_rate: float = 0.01
    linear_scale: str = "log10"
    dss_threshold: float = 0.10
    bi_ec50_tolerance: float = 0.01
    fine_points: int = 100
    swap_interaction_labels: bool = False

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if value is None and field.default is None:
                continue
            types, kind = _ACCEPTS[field.type]
            if isinstance(value, bool) != (field.type is bool) or not isinstance(value, types):
                raise ValidationError(f"{field.name} must be {kind}, not {value!r}")
        for name, choices in _FLAG_CHOICES.items():
            if getattr(self, name) not in choices:
                raise ValidationError(f"{name} must be one of {choices}, not "
                                      f"{getattr(self, name)!r}")
        if not 0.0 < self.dss_threshold < 1.0:
            raise ValidationError(f"dss_threshold must lie in (0, 1), not {self.dss_threshold}")
        if not self.bi_ec50_tolerance >= 0.0:
            raise ValidationError(
                f"bi_ec50_tolerance must be nonnegative, not {self.bi_ec50_tolerance}")
        if self.fine_points < 2:
            raise ValidationError(f"fine_points must be at least 2, not {self.fine_points}")
        if self.chains < 1:
            raise ValidationError(f"chains must be at least 1, not {self.chains}")
        check_layout(self.k1, self.k2, self.degree, self.ridge)
        self.prior_spec()  # rejects an unusable prior hyperparameter

    def chain_config(self) -> ChainConfig:
        return ChainConfig(n_iter=self.iters, burn_in=self.burn_in, thin=self.thin,
                           adapt_start=self.adapt_start, seed=self.seed)

    def prior_spec(self) -> PriorSpec:
        var_prior = VARIANCE_PRIORS[self.variance_prior](self)
        lam = GammaPrior(self.lambda_shape, self.lambda_rate)
        slope = GammaPrior(self.b_shape, self.b_rate)
        return PriorSpec(lambda1=lam, lambda2=lam, b1=slope, b2=slope, variance_prior=var_prior)


FIT_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}
# the keyword options of summaries.summarize_chains
SUMMARY_OPTIONS = ("dss_threshold", "bi_ec50_tolerance", "fine_points",
                   "swap_interaction_labels")
_FLAG_CHOICES = {"variance_prior": tuple(VARIANCE_PRIORS), "linear_scale": LINEAR_SCALES}
_FLAG_HELP = {
    "k1": "spline basis size, drug 1 axis", "k2": "spline basis size, drug 2 axis",
    "degree": "spline degree", "ridge": "penalty precision ridge",
    "linear_scale": "scale of the linear predictor terms",
    "swap_interaction_labels": "swap the synergistic/antagonistic naming of the "
                               "interaction volumes",
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message):
        raise ValidationError(message)


def _resolve_outdir(flag_value) -> Path:
    """The output directory, created if missing; every command resolves it
    before it reads or computes anything."""
    path = Path(flag_value or os.environ.get(OUTDIR_ENV) or ".")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot use output directory {path}: {exc}") from None
    return path


def _merge_options(args, file_values: dict) -> RunConfig:
    """Built-in defaults < file values (fit's --config, or the fit record that
    summarize reads) < explicit CLI flags."""
    unknown = set(file_values) - set(FIT_DEFAULTS)
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    merged = {**FIT_DEFAULTS, **file_values}
    for key in FIT_DEFAULTS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return RunConfig(**merged)


def _fit_record(samples_path) -> tuple:
    """Path, resolved options and plate digest (None if absent) of the fit that
    wrote samples_path, from the summary.json next to it."""
    path = Path(samples_path).with_name("summary.json")
    if not path.is_file():
        raise ValidationError(f"no fit record {path} next to the samples; summarize "
                              f"reads the model options from it")
    record = cio.read_json(path)
    config = record.get("config") if isinstance(record, dict) else None
    if not isinstance(config, dict):
        raise ValidationError(f"fit record {path} has no config block")
    missing = set(FIT_DEFAULTS) - set(config)
    if missing:
        raise ValidationError(f"fit record {path} lacks config keys {sorted(missing)}")
    return path, config, record.get("plate_sha256")


def _plate_sha256(data) -> str:
    """sha256 of the plate's conc1, conc2 and viability as float64 bytes, so a
    reformatted CSV of the same numbers has the same digest."""
    digest = sha256()
    for values in (data.conc1, data.conc2, data.viability):
        digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
    return digest.hexdigest()


class _OutputSet:
    """Context that stages output files under temporary names in the output
    directory and renames them all into place only when its block succeeds.

    On failure it removes only the staged files, so an earlier run's outputs
    stay as they were.
    """

    def __init__(self, outdir: Path):
        self.outdir = outdir
        self.staged = []

    def path(self, name: str) -> Path:
        temp = self.outdir / f".{name}.{os.getpid()}.tmp"
        self.staged.append((temp, self.outdir / name))
        return temp

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                for temp, final in self.staged:
                    os.replace(temp, final)
        finally:
            for temp, _ in self.staged:
                with contextlib.suppress(OSError):
                    temp.unlink()


# ---------------------------------------------------------------------------
# Subcommands


def _add_run_flags(sub, names):
    """One flag --field-name per RunConfig field in names, in field order; the
    bool field is a switch."""
    for f in fields(RunConfig):
        if f.name in names:
            kind = ({"action": "store_const", "const": True} if f.type is bool
                    else {"type": f.type, "choices": _FLAG_CHOICES.get(f.name)})
            sub.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                             help=_FLAG_HELP.get(f.name), **kind)


def build_parser() -> _Parser:
    parser = _Parser(prog="combofit",
                     description="Bayesian dose-response surfaces for drug combinations")
    subs = parser.add_subparsers(dest="command", required=True)

    fit = subs.add_parser("fit", help="run the MCMC fit on a plate CSV")
    fit.add_argument("--input", required=True, help="plate CSV")
    fit.add_argument("--outdir")
    fit.add_argument("--config", help="JSON file with default overrides")
    fit.add_argument("--truth", help="truth CSV from simulate; adds mse.json")
    _add_run_flags(fit, FIT_DEFAULTS)

    sim = subs.add_parser("simulate", help="generate a synthetic plate with truth")
    sim.add_argument("--scenario", type=int, required=True, choices=(1, 2, 3))
    sim.add_argument("--noise", choices=("normal", "t5"), default="normal")
    sim.add_argument("--nrep", type=int, default=3)
    sim.add_argument("--sigma-eps", dest="sigma_eps", type=float, default=0.05)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--outdir")

    summ = subs.add_parser("summarize", help="recompute summaries from a samples CSV; the "
                           "model options come from the summary.json next to it")
    summ.add_argument("--input", required=True, help="plate CSV of the original fit")
    summ.add_argument("--samples", required=True, help="samples CSV of the original fit")
    summ.add_argument("--outdir")
    _add_run_flags(summ, SUMMARY_OPTIONS)

    base = subs.add_parser("baseline", help="classical reference surfaces")
    base.add_argument("--input", required=True, help="plate CSV")
    base.add_argument("--method", action="append", choices=BASELINE_METHODS,
                      help="repeatable; default: all methods")
    base.add_argument("--truth", help="truth CSV from simulate; adds MSE entries")
    base.add_argument("--outdir")
    return parser


def _read_truth(path, grid: LogConcGrid):
    """The truth CSV at path, which must lie on the plate's grid, or None without a path."""
    if not path:
        return None
    truth = cio.read_truth_csv(path)
    delta = truth["delta"]
    if (delta.axis1.size != grid.logc1.size or delta.axis2.size != grid.logc2.size
            or not np.allclose(delta.axis1, grid.logc1)
            or not np.allclose(delta.axis2, grid.logc2)):
        raise ValidationError("truth grid does not match the plate grid")
    return truth


def _setup(args, run_cfg: RunConfig):
    """Plate, grid and spline layout of fit and summarize."""
    data = cio.ingest_plate(args.input)
    grid = LogConcGrid.from_dataset(data)
    spline = SplineSpec.for_grid(grid, k1=run_cfg.k1, k2=run_cfg.k2,
                                 degree=run_cfg.degree, penalty_ridge=run_cfg.ridge)
    return data, grid, spline


def _summarize(posterior, run_cfg: RunConfig):
    return summarize_chains(posterior,
                            **{name: getattr(run_cfg, name) for name in SUMMARY_OPTIONS})


def _cmd_fit(args) -> int:
    outdir = _resolve_outdir(args.outdir)
    run_cfg = _merge_options(args, cio.read_json(args.config) if args.config else {})
    if run_cfg.adapt_start is not None and run_cfg.adapt_start >= run_cfg.iters:
        raise ValidationError(f"adapt_start {run_cfg.adapt_start} is not below iters "
                              f"{run_cfg.iters}: no proposal would ever adapt")
    chain_cfg = run_cfg.chain_config()
    data, grid, spline = _setup(args, run_cfg)
    truth = _read_truth(args.truth, grid)
    posterior = run_chains(data, run_cfg.chains, priors=run_cfg.prior_spec(),
                           spline=spline, config=chain_cfg,
                           linear_scale=run_cfg.linear_scale)
    report = _summarize(posterior, run_cfg)
    lo, hi = ACCEPTANCE_RANGE
    for warning in report.warnings:
        print(f"warning: chain {warning['chain']} block {warning['block']} acceptance "
              f"{warning['acceptance']:.3f} after burn-in outside [{lo}, {hi}]",
              file=sys.stderr)

    with _OutputSet(outdir) as out:
        cio.write_samples_csv(out.path("samples.csv"), posterior)
        mean = report.posterior_mean
        for key in ("p", "p0", "delta"):
            cio.write_surface_csv(out.path(f"surface_{key}.csv"), SurfaceGrid(
                values=mean[key], axis1=grid.logc1, axis2=grid.logc2))
        payload = {"config": asdict(run_cfg),
                   "input": str(args.input),
                   "plate_sha256": _plate_sha256(data),
                   "drug_names": ["drug1", "drug2"],
                   "n_chains": run_cfg.chains}
        payload.update(report.to_json_dict())
        cio.write_json(out.path("summary.json"), payload)
        if truth is not None:
            cio.write_json(out.path("mse.json"), {
                f"mse_{key}": mse_surface(mean[key], truth[key].values)
                for key in ("delta", "p0", "p")})
    return 0


def _cmd_simulate(args) -> int:
    outdir = _resolve_outdir(args.outdir)
    scenario = SimScenario(interaction_id=args.scenario, noise=args.noise,
                           n_rep=args.nrep, sigma_eps=args.sigma_eps, seed=args.seed)
    data, truths = sample_plate(scenario)
    with _OutputSet(outdir) as out:
        cio.write_plate_csv(out.path("plate.csv"), data)
        cio.write_truth_csv(out.path("truth.csv"), truths)
    return 0


def _cmd_summarize(args) -> int:
    outdir = _resolve_outdir(args.outdir)
    record_path, record, fitted_sha = _fit_record(args.samples)
    run_cfg = _merge_options(args, record)
    data, grid, spline = _setup(args, run_cfg)
    plate_sha = _plate_sha256(data)
    if fitted_sha is None:
        raise ValidationError(f"fit record {record_path} has no plate_sha256; refit the plate "
                              f"to summarise its draws")
    if fitted_sha != plate_sha:
        raise ValidationError(f"{args.input} is not the plate of the fit record {record_path}: "
                              f"plate_sha256 {plate_sha}, recorded {fitted_sha}")
    chain, draws = cio.read_samples_csv(args.samples, spline.k1, spline.k2)
    # rows grouped by ascending chain index, in file order within each chain
    order = np.argsort(chain, kind="stable")
    posterior = Posterior(draws=draws[order], chain=chain[order], grid=grid,
                          spline=spline, linear_scale=run_cfg.linear_scale, data=data)
    del draws  # the posterior holds a copy of its rows
    report = _summarize(posterior, run_cfg)
    with _OutputSet(outdir) as out:
        payload = {"config": asdict(run_cfg), "input": str(args.input),
                   "plate_sha256": plate_sha, "samples": str(args.samples)}
        payload.update(report.to_json_dict())
        cio.write_json(out.path("summary.json"), payload)
    return 0


def _cmd_baseline(args) -> int:
    outdir = _resolve_outdir(args.outdir)
    # a method named twice would stage its files twice
    methods = list(dict.fromkeys(args.method or BASELINE_METHODS))
    data = cio.ingest_plate(args.input)
    grid = LogConcGrid.from_dataset(data)
    truth = _read_truth(args.truth, grid)
    with _OutputSet(outdir) as out:
        summary = {}
        for method in methods:
            delta_hat, surface, info = baseline_delta(data, method, grid)
            cio.write_surface_csv(out.path(f"baseline_{method}.csv"), surface)
            cio.write_surface_csv(out.path(f"baseline_delta_{method}.csv"), delta_hat)
            entry = {key: asdict(value) if is_dataclass(value) else value
                     for key, value in info.items()}
            if truth is not None:
                entry["mse_delta"] = mse_surface(delta_hat.values, truth["delta"].values)
            summary[method] = entry
        cio.write_json(out.path("baseline_summary.json"), summary)
    return 0


_COMMANDS = {"fit": _cmd_fit, "simulate": _cmd_simulate,
             "summarize": _cmd_summarize, "baseline": _cmd_baseline}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CombofitError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
