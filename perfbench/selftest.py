"""Self-test of the benchmark at toy sizes.

    python3 perfbench/selftest.py

Checks that every run prints each metric of BENCHMARK.json with its unit,
that a unit which fails its check or raises a GpkError is counted in
`failed` without stopping the run, that the warm pipeline reruns are all
cache hits, that the command line prints the result as its last line, and
that a directory without gpk's sources makes the command fail without a
result.  Exits 1 on the first problem.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run  # pins the threads and puts ./src on sys.path first
import workloads
from gpk.errors import InvariantViolation

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")


def check_metrics(result: dict, key: str, what: str) -> None:
    expected = {m["name"]: m["unit"] for m in SPEC[key]}
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    expect(got == expected, f"{what}: metrics {got} != {expected}")
    for name, m in result["metrics"].items():
        value = m["value"]
        expect(isinstance(value, float) and value == value,
               f"{what}: {name} = {value!r}")
        if key == "end_to_end":
            expect(value > 0, f"{what}: {name} = {value} is not positive")


def toy(name: str, trace: bool) -> dict:
    return run.measure(name, seed=7, seconds=0.0, trace=trace, toy=True,
                       setup_runs=False)["result"]


def main() -> int:
    for name in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            what = f"{name} trace={int(trace)}"
            result = toy(name, trace)
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 2, f"{what}: {result}")
            check_metrics(result, key, what)
            if name == "pipeline" and trace:
                hit = result["metrics"]["bench.cache.hit_ratio"]["value"]
                expect(hit == 1.0, f"{what}: cache hit ratio {hit}")
            print(f"ok {what}: {result['attempted']} units")

    # a failed check is counted and the run goes on
    saved = workloads.LIMITS["mass_drift"]
    workloads.LIMITS["mass_drift"] = 0.0
    try:
        result = toy("gp3d", False)
    finally:
        workloads.LIMITS["mass_drift"] = saved
    expect(not result["correct"] and result["failed"] == result["attempted"]
           >= 2, f"forced check failure: {result}")
    check_metrics(result, "end_to_end", "forced check failure")

    # so is a GpkError raised inside one unit
    original = workloads.GP3D.unit
    calls = []

    def raise_once(self):
        calls.append(1)
        if len(calls) == 1:
            raise InvariantViolation("forced by the self-test")
        return original(self)

    workloads.GP3D.unit = raise_once
    try:
        result = toy("gp3d", False)
    finally:
        workloads.GP3D.unit = original
    expect(result["failed"] == 1 and result["attempted"] >= 2,
           f"forced GpkError: {result}")
    print("ok forced failures are counted")

    # the command line, with its set-up subprocesses
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    expect(out.returncode == 0, f"command line: {out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"command line keys {sorted(result)}")
    expect(result["correct"], f"command line: {result}")
    check_metrics(result, "end_to_end", "command line")
    print("ok command line")

    # without gpk's sources the command fails and prints no result
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        (bare / "perfbench").mkdir(parents=True)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        for path in run.HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench")
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gp3d",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(out.returncode != 0 and "{" not in out.stdout,
           f"bare directory: exit {out.returncode}, stdout {out.stdout!r}")
    print("ok bare directory fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
