"""gpk benchmark: gp3d, kernels3d and pipeline workloads.

    python3 perfbench/run.py --workload gp3d --seed 1 --seconds 30 --trace 0

Run from the repository root.  gpk is imported from ./src.  Each run is a
closed loop of units, one after another on one process, for `--seconds`
(at least two units, and no unit is started that would end past the
deadline).  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it give every metric
with its unit and sample count, the run environment and the path of the
record written under perfbench/work/.

`--trace 0` reports the end-to-end metrics:
  setup_s      median over five set-ups (this process and four fresh
               ones) of the time from process start to the first timed
               unit: imports, inputs, warm-up and, for kernels3d, the
               scattering solve
  solution_s   median wall time of one unit that passed its checks
  steps_per_s  median over units of inner steps per second of the calls
               that run them: Strang steps over the evolve calls (gp3d),
               source rows over the grad1_kkbar_hs_norm calls (kernels3d),
               Strang steps over the fresh pipeline run (pipeline)
  warm_s       median wall time of a rerun on inputs already run in this
               process: the cache-hit reruns (pipeline); the units
               themselves (gp3d, kernels3d, where gpk caches nothing)
  peak_rss_mb  high-water resident memory of this process
`--trace 1` alternates untraced and traced units and reports the per-layer
metrics of `spans.PER_LAYER` from the spans of the traced ones.

The failed share of units (`failed_ratio` = failed / attempted) is the
`failed` and `attempted` of the result; it is not a metric because it is 0
on a correct run.  The run pins BLAS/OpenMP threads to 1, and every grid
keeps gpk's default fft_workers = 1: the plain single-threaded baseline.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

if not (SRC / "gpk" / "__init__.py").is_file():
    sys.exit(f"perfbench: no gpk sources under {SRC}; run from a gpk checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gpk  # noqa: E402
from gpk.errors import GpkError  # noqa: E402

from spans import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, UnitResult  # noqa: E402

if Path(gpk.__file__).resolve().parent != SRC / "gpk":
    sys.exit(f"perfbench: imported gpk from {gpk.__file__}, not from {SRC}")

END_TO_END = {
    "setup_s": "s",
    "solution_s": "s",
    "steps_per_s": "1/s",
    "warm_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_RUNS = 4  # fresh processes timed besides this one


def environment(fft_workers: int) -> dict:
    commit = None  # the checkout need not be a git repository
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gpk").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "fft_workers": fft_workers,
    }


def run_unit(workload) -> UnitResult:
    start = time.perf_counter()
    try:
        return workload.unit()
    except GpkError as exc:
        return UnitResult(seconds=time.perf_counter() - start,
                          failures=[f"{type(exc).__name__}: {exc}"])


def setup_samples(name: str, seed: int) -> list:
    """Set-up seconds of fresh processes, each from start to ready."""
    samples = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        last = out.stdout.strip().splitlines()[-1]
        samples.append(json.loads(last)["setup_s"])
    return samples


def _median(values):
    return statistics.median(values) if values else 0.0


def measure(name: str, seed: int, seconds: float, trace: bool,
            toy: bool = False, setup_runs: bool = True) -> dict:
    """One benchmark run: its record, with the result under "result"."""
    workdir = WORK / f"{name}-seed{seed}-{os.getpid()}"
    tracer = Tracer() if trace else None
    try:
        if tracer:
            tracer.install()
        workload = WORKLOADS[name](seed, workdir, toy=toy)
        workload.warm_up()
        if tracer:
            tracer.uninstall()
        setup = [time.perf_counter() - T_START]
        if setup_runs and not trace:
            setup += setup_samples(name, seed)

        units, untraced, traced = [], [], {}
        deadline = time.perf_counter() + seconds
        while True:
            t0 = time.perf_counter()
            units.append(run_unit(workload))
            untraced.append(time.perf_counter() - t0)
            if tracer:
                tracer.unit = f"u{len(traced)}"
                tracer.install()
                t1 = time.perf_counter()
                try:
                    units.append(run_unit(workload))
                finally:
                    traced[tracer.unit] = time.perf_counter() - t1
                    tracer.uninstall()
            round_s = time.perf_counter() - t0
            if len(units) >= 2 and time.perf_counter() + round_s > deadline:
                break
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for u in units if u.failures)
    passed = [u for u in units if not u.failures] or units
    if trace:
        metrics = layer_metrics(
            tracer.spans, traced, untraced,
            (sum(u.cache_hits for u in units),
             sum(u.cache_stages for u in units)))
        units_of = dict.fromkeys(PER_LAYER, len(traced))
        spec = PER_LAYER
    else:
        warm = [w for u in passed for w in u.warm_seconds]
        metrics = {
            "setup_s": _median(setup),
            "solution_s": _median([u.seconds for u in passed]),
            "steps_per_s": _median([u.steps / u.step_seconds for u in passed
                                    if u.step_seconds > 0]),
            "warm_s": _median(warm),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units_of = {"setup_s": len(setup), "solution_s": len(passed),
                    "steps_per_s": len(passed), "warm_s": len(warm),
                    "peak_rss_mb": 1}
        spec = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": len(units),
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": spec[k]}
                    for k in spec},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "params": workload.params(),
        "environment": environment(workload.params()["fft_workers"]),
        "setup_s": setup, "samples": units_of,
        "units": [{"seconds": u.seconds, "steps": u.steps,
                   "step_seconds": u.step_seconds,
                   "warm_seconds": u.warm_seconds, "failures": u.failures}
                  for u in units],
        "result": result,
        "spans": tracer.dump() if tracer else [],
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_only:
        workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        try:
            WORKLOADS[args.workload](args.seed, workdir).warm_up()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))
        return 0

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(exist_ok=True)
    path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(record, fh)
    result = record["result"]
    for i, unit in enumerate(record["units"]):
        for failure in unit["failures"]:
            print(f"unit {i} failed: {failure}")
    print(f"failed_ratio {result['failed'] / result['attempted']:.4g} "
          f"({result['failed']} of {result['attempted']} units)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']} "
              f"(n = {record['samples'][name]})")
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
