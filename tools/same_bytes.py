"""Run one fixed list of combofit commands with two source trees and compare
every byte they leave.

    python3 tools/same_bytes.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are `src` directories (each holding `combofit`).
Each side runs the whole list in turn, as `python3 -m combofit.cli` with its
`src` on PYTHONPATH and one BLAS thread, in the same fresh work directory, so
the paths that outputs record are equal. Every file the list leaves, and each
command's stdout, stderr and exit code, are compared. The names that differ
are printed, and the exit code is 1 if any do, else 0.

The list: `simulate` for scenarios 1-3 (t5 noise included); the set-up fits of
perfbench's `reference_fit`, `multichain_ig` and `resummarize` workloads (the
degree-2 one too) and a `summarize` of each; the acceptance suite's criterion 9
fit; fits with `--linear-scale natural`, `--variance-prior ig --chains 2` and
`--k1 5 --k2 7 --degree 2`; and a 4-method `baseline --truth` on three plates.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

COMMANDS = [
    "simulate --scenario 1 --noise normal --nrep 1 --seed 1 --outdir s1",
    "simulate --scenario 3 --noise normal --nrep 3 --seed 1 --outdir s3",
    "simulate --scenario 2 --seed 3 --outdir s2",
    "simulate --scenario 1 --noise t5 --seed 4 --outdir s1t5",
    "simulate --scenario 3 --noise t5 --nrep 2 --seed 5 --outdir s3t5",
    # reference_fit, multichain_ig and resummarize at seed 1
    "fit --input s3/plate.csv --truth s3/truth.csv --variance-prior hc --chains 1 --thin 10"
    " --iters 4000 --seed 1 --outdir ref",
    "fit --input s1/plate.csv --variance-prior ig --ig-shape 3 --ig-rate 2 --chains 4 --thin 1"
    " --iters 700 --burn-in 350 --adapt-start 150 --seed 1 --outdir mig",
    "fit --input s3/plate.csv --chains 3 --thin 1 --iters 600 --burn-in 200 --adapt-start 200"
    " --seed 1 --outdir post",
    "fit --input s3/plate.csv --degree 2 --thin 1 --iters 500 --burn-in 250 --adapt-start 150"
    " --seed 1 --outdir post_d2",
    "summarize --input s3/plate.csv --samples ref/samples.csv --outdir ref_sum",
    "summarize --input s1/plate.csv --samples mig/samples.csv --outdir mig_sum",
    "summarize --input s3/plate.csv --samples post/samples.csv --outdir post_sum",
    "summarize --input s3/plate.csv --samples post_d2/samples.csv --outdir post_d2_sum",
    # criterion 9
    "fit --input s3/plate.csv --iters 600 --burn-in 300 --thin 3 --seed 7 --outdir c9",
    "fit --input s2/plate.csv --truth s2/truth.csv --linear-scale natural --iters 2000"
    " --seed 2 --outdir natural",
    "fit --input s1t5/plate.csv --variance-prior ig --chains 2 --iters 2000 --seed 3"
    " --outdir ig2",
    "fit --input s3t5/plate.csv --truth s3t5/truth.csv --k1 5 --k2 7 --degree 2 --iters 2000"
    " --seed 4 --outdir k5k7",
    "baseline --input s1/plate.csv --truth s1/truth.csv --outdir base1",
    "baseline --input s2/plate.csv --truth s2/truth.csv --outdir base2",
    "baseline --input s3/plate.csv --truth s3/truth.csv --outdir base3",
]


def run_side(src: Path, run_dir: Path) -> dict:
    """name -> bytes of every file the list leaves in run_dir and of each
    command's streams and exit code."""
    env = {**os.environ, "PYTHONPATH": str(src), **dict.fromkeys(THREAD_VARS, "1")}
    run_dir.mkdir()
    seen = {}
    for number, command in enumerate(COMMANDS, 1):
        done = subprocess.run([sys.executable, "-m", "combofit.cli", *command.split()],
                              cwd=run_dir, env=env, capture_output=True)
        label = f"command {number} ({command.split()[0]} ... {command.split()[-1]})"
        seen[f"{label} stdout"] = done.stdout
        seen[f"{label} stderr"] = done.stderr
        seen[f"{label} exit code"] = str(done.returncode).encode()
    for path in sorted(run_dir.rglob("*")):
        if path.is_file():
            seen[str(path.relative_to(run_dir))] = path.read_bytes()
    shutil.rmtree(run_dir)
    return seen


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    sides = [Path(arg).resolve() for arg in argv]
    for src in sides:
        if not (src / "combofit" / "cli.py").is_file():
            print(f"{src} holds no combofit package", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory(prefix="same_bytes_") as work:
        parent, change = (run_side(src, Path(work) / "run") for src in sides)
    differ = sorted(name for name in parent.keys() | change.keys()
                    if parent.get(name) != change.get(name))
    for name in differ:
        print(f"differs: {name}")
    files = sum(1 for name in parent if not name.startswith("command "))
    failed = sum(1 for name in parent if name.endswith("exit code") and parent[name] != b"0")
    print(f"{len(COMMANDS)} commands ({failed} with a nonzero exit code), {files} files: "
          f"{len(differ)} of {len(parent.keys() | change.keys())} names differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
