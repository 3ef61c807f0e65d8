"""The three benchmark workloads and the checks on their outputs.

Each workload is built from a seed.  The seed moves only physical
parameters (datum width, scattering length, well height, coupling), inside
ranges where every acceptance tolerance holds; grid sizes, step counts, N
lists and Fock cutoffs are fixed, so every seed does the same operations.

Calls into gpk go through module attributes (`dynamics.evolve`, not a name
imported from it), so the spans that `spans.Tracer` installs on those
attributes see them.

Every check compares against the tolerance of the acceptance suite.  A
failed check or a `GpkError` fails the unit; it does not stop the run.
"""

from __future__ import annotations

import configparser
import json
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from gpk import bench, dynamics, kernels, scattering

# Acceptance tolerances: tests/test_acceptance.py and the pipeline's budgets.
LIMITS = {
    "mass_drift": 1e-10,
    "energy_drift": 1e-8,
    "time_reversal": 1e-8,
    "kernel_ratio": 2.0,
    "a0_agreement": 1e-6,
    "ode_residual": 1e-8,
    "nsweep_slope": (-1.2, -0.8),
    "fock_slope": -0.4,
    "fock_number_ratio": 3.0,
}


# WARM_NOTE: every timed unit of gp3d and kernels3d reruns inputs that the
# warm-up already passed through gpk, and gpk keeps no cache on those paths,
# so their warm time is the unit time.  Only the pipeline has a cache read
# path, timed by its reruns.


@dataclass
class UnitResult:
    """What one unit did and how long it took."""

    seconds: float = 0.0
    steps: int = 0              # inner steps the unit ran
    step_seconds: float = 0.0   # wall time of the calls that ran them
    warm_seconds: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    cache_hits: int = 0
    cache_stages: int = 0


def _check_max(failures, name, value, limit):
    if not value <= limit:
        failures.append(f"{name} {value:.3e} above {limit:.1e}")


def _reference_config() -> Path:
    return Path(__file__).resolve().parent.parent / "configs" / "reference.ini"


class GP3D:
    """Criterion 3: contact GP on a 64^3 box, L = 16, dt = 1e-3.

    Chosen because FFT-bound split steps at 64^3 take almost all of its
    time: the split-step hot path (real FFTs, a folded kick, one stepper
    reused by the diagnostics) shows here and nowhere as cleanly.  The
    kernels, Fock and scattering layers do nothing here, so a change to
    them should leave this workload unchanged.
    """

    name = "gp3d"

    def __init__(self, seed: int, workdir: Path, toy: bool = False):
        rng = np.random.default_rng(seed)
        self.sigma = float(rng.uniform(1.4, 1.6))
        self.a0 = float(rng.uniform(0.08, 0.12))
        n, self.n_steps = (32, 4) if toy else (64, 50)
        dt = 1e-3
        self.grid = dynamics.GridSpec(dim=3, box_length=16.0,
                                      points_per_axis=n, dt=dt,
                                      t_final=self.n_steps * dt)
        self.back_grid = replace(self.grid, dt=-dt, t_final=-self.grid.t_final)
        self.psi0 = dynamics.gaussian_datum(self.grid, sigma=self.sigma)
        self.nl = dynamics.NonlinearitySpec.gp(a0=self.a0)

    def params(self) -> dict:
        return {"sigma": self.sigma, "a0": self.a0,
                "points": self.grid.points_per_axis, "steps": self.n_steps,
                "fft_workers": self.grid.fft_workers}

    def warm_up(self) -> None:
        dynamics.evolve(self.psi0, self.nl, replace(self.grid, t_final=2e-3))

    def unit(self) -> UnitResult:
        res = UnitResult(steps=2 * self.n_steps)
        t0 = time.perf_counter()
        fwd = dynamics.evolve(self.psi0, self.nl, self.grid,
                              snapshot_stride=self.n_steps // 2)
        t1 = time.perf_counter()
        rep = dynamics.sobolev_report(fwd, self.nl)
        t2 = time.perf_counter()
        back = dynamics.evolve(
            dynamics.WaveFunction(values=fwd.states[-1].values,
                                  grid=self.back_grid),
            self.nl, self.back_grid, snapshot_stride=10**6,
        )
        t3 = time.perf_counter()
        res.step_seconds = (t1 - t0) + (t3 - t2)

        mass = max(abs(s.l2_norm - 1.0) for s in fwd.states + back.states)
        e = rep.energy
        energy = float(np.max(np.abs(e[1:] - e[0]))) / abs(e[0])
        reversal = dynamics.l2_distance(back.states[-1], self.psi0)
        _check_max(res.failures, "mass drift", mass, LIMITS["mass_drift"])
        _check_max(res.failures, "energy drift", energy,
                   LIMITS["energy_drift"])
        _check_max(res.failures, "time reversal", reversal,
                   LIMITS["time_reversal"])
        res.seconds = time.perf_counter() - t0
        res.warm_seconds.append(res.seconds)  # see WARM_NOTE
        return res


class Kernels3D:
    """Criterion 5: square-well profile, 16^3 box, L = 12, N in {4, 32}.

    Chosen because the row loop of `grad1_kkbar_hs_norm` (4096 source
    rows per N) is about 95 % of its time, so a cheaper row kernel shows
    here; `gp3d` does not call it and should not move.  The scattering
    solve belongs to set-up.

    BENCHMARK.json does not list it: a unit takes 9-15 s, so a run fits
    two or three units, and on a shared 2-core host the run-to-run
    quartile spread of its unit time reached 0.37 over ten seeds, above
    the 0.25 bound.  Run it by hand with `--workload kernels3d`.
    """

    name = "kernels3d"

    def __init__(self, seed: int, workdir: Path, toy: bool = False):
        rng = np.random.default_rng(seed)
        self.height = float(rng.uniform(6.0, 10.0))
        self.sigma = float(rng.uniform(0.9, 1.1))
        V = scattering.RadialPotential.square_well(self.height, 1.0)
        self.sol = scattering.solve_zero_energy(V, 5.0, 4000)
        # the N-flatness checks hold in 3D only, and 16^3 is the smallest
        # 3D grid, so the toy size drops N = 32 instead
        self.n_list = (4,) if toy else (4, 32)
        grid = dynamics.GridSpec(dim=3, box_length=12.0, points_per_axis=16,
                                 dt=1e-3, t_final=0.0)
        self.phi = dynamics.gaussian_datum(grid, sigma=self.sigma)
        rho = np.abs(self.phi.values) ** 2
        self.rows = int(np.count_nonzero(rho >= 1e-300))  # rows it visits

    def params(self) -> dict:
        return {"height": self.height, "sigma": self.sigma,
                "points": self.phi.grid.points_per_axis,
                "N": list(self.n_list),
                "fft_workers": self.phi.grid.fft_workers}

    def warm_up(self) -> None:
        kernels.kernel_hs_norms(self.phi, self.sol, self.n_list[0])

    def unit(self) -> UnitResult:
        res = UnitResult(steps=self.rows * len(self.n_list))
        t0 = time.perf_counter()
        cols = {"l2_k": [], "grad1_k/sqrtN": [], "grad1_kkbar": [],
                "sup_slice": []}
        for N in self.n_list:
            l2k, l2g1, sup = kernels.kernel_hs_norms(self.phi, self.sol, N)
            t1 = time.perf_counter()
            kk = kernels.grad1_kkbar_hs_norm(self.phi, self.sol, N)
            res.step_seconds += time.perf_counter() - t1
            cols["l2_k"].append(l2k)
            cols["grad1_k/sqrtN"].append(l2g1 / math.sqrt(N))
            cols["grad1_kkbar"].append(kk)
            cols["sup_slice"].append(sup)
        for name, vals in cols.items():
            ratio = max(vals) / min(vals) if min(vals) > 0 else math.inf
            _check_max(res.failures, f"{name} ratio", ratio,
                       LIMITS["kernel_ratio"])
        res.seconds = time.perf_counter() - t0
        res.warm_seconds.append(res.seconds)  # see WARM_NOTE
        return res


class Pipeline:
    """`run_pipeline` on configs/reference.ini with field dumps on.

    Chosen because every layer runs, at small 1D sizes: per-call Python
    overhead in `evolve` and `compare_dynamics` at 256 points costs more
    than the FFTs, the Fock ladder loops and Krylov actions take about a
    quarter of the run and the interaction-transform tables over a third,
    and the RK4 solve, field I/O and the cache read path all run.  It is
    small already, so `toy` changes nothing.  A unit is one fresh run into
    an empty directory followed by `WARM_RERUNS` reruns of the same
    directory, in which every stage must be a cache hit.
    """

    name = "pipeline"
    WARM_RERUNS = 3

    def __init__(self, seed: int, workdir: Path, toy: bool = False):
        rng = np.random.default_rng(seed)
        self.height = float(rng.uniform(7.0, 9.0))
        self.sigma = float(rng.uniform(0.97, 1.1))
        self.coupling = float(rng.uniform(0.45, 0.55))
        cp = configparser.ConfigParser()
        cp.read(_reference_config())
        cp["potential"]["height"] = repr(self.height)
        cp["datum"]["sigma"] = repr(self.sigma)
        cp["fock"]["coupling"] = repr(self.coupling)
        cp["snapshots"]["fields"] = "yes"
        self.outdir = workdir / "out"
        cp["output"]["directory"] = str(self.outdir)
        workdir.mkdir(parents=True, exist_ok=True)
        path = workdir / "pipeline.ini"
        with open(path, "w") as fh:
            cp.write(fh)
        self.cfg = bench.load_config(path)
        grid = bench.grid_from_config(self.cfg)
        self.fft_workers = grid.fft_workers
        n_sweep = len(self.cfg.get_ints("nsweep", "n_values"))
        t_star = self.cfg.get_float("nsweep", "t_star")
        self.n_steps = round(grid.t_final / grid.dt) + \
            (n_sweep + 1) * round(t_star / grid.dt)

    def params(self) -> dict:
        return {"height": self.height, "sigma": self.sigma,
                "coupling": self.coupling, "steps": self.n_steps,
                "fft_workers": self.fft_workers}

    def warm_up(self) -> None:
        pass

    def _stage_stamps(self, artifacts: dict) -> dict:
        stamps = {}
        for stage, paths in artifacts.items():
            if stage == "report":
                continue
            files = [Path(p) for p in paths] + [self.outdir / f"{stage}.hash"]
            if stage == "evolve":
                files += sorted(self.outdir.glob("field_*.bin"))
            stamps[stage] = [(str(f), f.stat().st_mtime_ns) for f in files]
        return stamps

    def _report_summary(self):
        with open(self.outdir / "report.json") as fh:
            return json.load(fh)["summary"]

    def unit(self) -> UnitResult:
        res = UnitResult(steps=self.n_steps)
        shutil.rmtree(self.outdir, ignore_errors=True)
        t0 = time.perf_counter()
        fresh = bench.run_pipeline(self.cfg, self.outdir)
        res.seconds = res.step_seconds = time.perf_counter() - t0

        s = fresh.summary
        sc = s["scattering"]
        _check_max(res.failures, "a0 tail/integral disagreement",
                   abs(sc["a0_tail"] - sc["a0_integral"]) / sc["a0_tail"],
                   LIMITS["a0_agreement"])
        _check_max(res.failures, "ode residual", sc["ode_residual"],
                   LIMITS["ode_residual"])
        _check_max(res.failures, "energy drift", s["evolve"]["energy_drift"],
                   LIMITS["energy_drift"])
        lo, hi = LIMITS["nsweep_slope"]
        if not lo <= s["nsweep"]["slope"] <= hi:
            res.failures.append(f"nsweep slope {s['nsweep']['slope']:.4f} "
                                f"outside [{lo}, {hi}]")
        if not s["fock"]["slope"] <= LIMITS["fock_slope"]:
            res.failures.append(f"fock slope {s['fock']['slope']:.4f} above "
                                f"{LIMITS['fock_slope']}")
        _check_max(res.failures, "fock number ratio",
                   s["fock"]["number_expectation_ratio"],
                   LIMITS["fock_number_ratio"])

        fresh_summary = self._report_summary()
        before = self._stage_stamps(fresh.artifacts)
        for _ in range(self.WARM_RERUNS):
            t1 = time.perf_counter()
            bench.run_pipeline(self.cfg, self.outdir)
            res.warm_seconds.append(time.perf_counter() - t1)
            if self._report_summary() != fresh_summary:
                res.failures.append("warm report.json summary differs "
                                    "from the fresh one")
        after = self._stage_stamps(fresh.artifacts)
        res.cache_stages = len(before)
        res.cache_hits = sum(before[k] == after.get(k) for k in before)
        if res.cache_hits != res.cache_stages:
            res.failures.append(
                f"warm reruns rewrote {res.cache_stages - res.cache_hits} "
                f"of {res.cache_stages} stages")
        return res


WORKLOADS = {w.name: w for w in (GP3D, Kernels3D, Pipeline)}
