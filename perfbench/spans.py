"""Spans around the calls into gpk's layers, recorded from outside gpk.

`Tracer.install` replaces every public function of the layer modules, in
every gpk module namespace that holds it, with a wrapper that records a
span; `uninstall` puts the originals back.  Calls between layers (the
pipeline calling `evolve`, `compare_dynamics` calling `evolve`) therefore
nest, and a layer's self time is its span time minus its child spans.
Spans are kept in memory and written out by the caller.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

LAYERS = ("scattering", "radial", "dynamics", "kernels", "fock", "fieldio",
          "bench")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at top level
    unit: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _evolve_attrs(args, kwargs, result):
    grid = kwargs.get("grid") or (args[2] if len(args) > 2 else None) \
        or args[0].grid
    return {"steps": round(grid.t_final / grid.dt),
            "points": math.prod(grid.shape)}


def _cutoff(args, kwargs, result):
    """Fock cutoff n_max of the basis a call works on."""
    for obj in (result, *args[:1]):
        basis = getattr(obj, "basis", obj)
        if hasattr(basis, "n_max"):
            return {"n_max": basis.n_max}
    return {}


# Counts taken at the layer boundary, after the call returns.
_ATTRS = {
    "dynamics.evolve": _evolve_attrs,
    "dynamics.sobolev_report": lambda a, k, r: {"snapshots": len(a[0].states)},
    "dynamics.sobolev_norm": lambda a, k, r: {"order": a[1]},
    "kernels.grad1_kkbar_hs_norm": lambda a, k, r: {
        "rows": int(np.count_nonzero(np.abs(a[0].values) ** 2 >= 1e-300))},
    "fieldio.write_field": lambda a, k, r: {"bytes": os.path.getsize(a[0])},
    **{f"fock.{f}": _cutoff for f in (
        "build_basis", "all_ladders", "hamiltonian", "evolve_state",
        "apply_weyl", "apply_bogoliubov", "generator_cancellation_check")},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.unit = "setup"
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, layer, fn):
        tracer = self
        attrs = _ATTRS.get(name)

        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(name, layer, 0.0, 0.0, parent, tracer.unit)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"gpk.{layer}")
            for name, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[id(fn)] = (fn, self._wrap(f"{layer}.{name}",
                                                      layer, fn))
        for modname, mod in list(sys.modules.items()):
            if modname != "gpk" and not modname.startswith("gpk."):
                continue
            for name, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, name, hit[1])
                    self._patches.append((mod, name, value))
        # NonlinearitySpec.modified tabulates the interaction transform
        spec = importlib.import_module("gpk.dynamics").NonlinearitySpec
        original = spec.__dict__["modified"]
        spec.modified = staticmethod(self._wrap(
            "radial.interaction_table", "dynamics", original.__func__))
        self._patches.append((spec, "modified", original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_seconds(spans: list[Span]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    return [s.seconds - c for s, c in zip(spans, child)]


# name -> unit, in the order printed; BENCHMARK.json lists the same
PER_LAYER = {
    "dynamics.evolve.step_ms": "ms",
    "dynamics.evolve.mpoints_per_s": "Mpoints/s",
    "dynamics.sobolev_report.snapshot_ms": "ms",
    "dynamics.gp_energy.ms": "ms",
    "dynamics.sobolev_norm.ms": "ms",
    "dynamics.compare_dynamics.s": "s",
    "radial.interaction_table.ms": "ms",
    "scattering.solve_zero_energy.ms": "ms",
    "kernels.kernel_hs_norms.s": "s",
    "kernels.grad1_kkbar_hs_norm.s": "s",
    "kernels.grad1_kkbar_hs_norm.rows_per_s": "rows/s",
    "fock.toy_convergence_study.s": "s",
    "fock.build_basis.ms": "ms",
    "fock.all_ladders.ms": "ms",
    "fock.hamiltonian.ms": "ms",
    "fock.evolve_state.ms": "ms",
    "fock.apply_weyl.ms": "ms",
    "fock.apply_bogoliubov.ms": "ms",
    "fock.generator_cancellation_check.ms": "ms",
    "fieldio.write_field.ms": "ms",
    "fieldio.bytes_written": "B",
    "bench.cache.hit_ratio": "1",
    "bench.load_solution_json.ms": "ms",
    **{f"trace.layer_share.{layer}": "1" for layer in LAYERS},
    "trace.coverage": "1",
    "trace.overhead": "1",
}


def layer_metrics(spans, traced_units, untraced_seconds, cache):
    """Per-layer values from the spans of the traced units.

    `traced_units` maps unit id -> wall time of that traced unit;
    `untraced_seconds` are the wall times of the untraced units run
    alongside; `cache` is (hits, stages) over the warm reruns.  A metric of
    a layer the workload never calls reads 0.
    """
    in_units = [s for s in spans if s.unit in traced_units]
    by_name: dict[str, list[Span]] = {}
    for s in in_units:
        by_name.setdefault(s.name, []).append(s)
    # the scattering solve is set-up work on kernels3d, unit work elsewhere
    by_name["scattering.solve_zero_energy"] = [
        s for s in spans if s.name == "scattering.solve_zero_energy"]

    def calls(name, **where):
        return [s for s in by_name.get(name, ())
                if all(s.attrs.get(k) == v for k, v in where.items())]

    def median_call(name, scale, top_cutoff=False, **where):
        found = calls(name, **where)
        if top_cutoff and found:
            top = max(s.attrs.get("n_max", 0) for s in found)
            found = [s for s in found if s.attrs.get("n_max", 0) == top]
        return statistics.median(s.seconds for s in found) * scale \
            if found else 0.0

    def rate(name, count):
        found = calls(name)
        busy = sum(s.seconds for s in found)
        return sum(count(s) for s in found) / busy if busy > 0 else 0.0

    m = {}
    steps_per_s = rate("dynamics.evolve", lambda s: s.attrs["steps"])
    m["dynamics.evolve.step_ms"] = 1e3 / steps_per_s if steps_per_s else 0.0
    m["dynamics.evolve.mpoints_per_s"] = rate(
        "dynamics.evolve",
        lambda s: s.attrs["steps"] * s.attrs["points"]) / 1e6
    snaps = rate("dynamics.sobolev_report", lambda s: s.attrs["snapshots"])
    m["dynamics.sobolev_report.snapshot_ms"] = 1e3 / snaps if snaps else 0.0
    m["dynamics.gp_energy.ms"] = median_call("dynamics.gp_energy", 1e3)
    m["dynamics.sobolev_norm.ms"] = median_call("dynamics.sobolev_norm", 1e3,
                                                order=4)
    m["dynamics.compare_dynamics.s"] = median_call(
        "dynamics.compare_dynamics", 1.0)
    m["radial.interaction_table.ms"] = median_call(
        "radial.interaction_table", 1e3)
    m["scattering.solve_zero_energy.ms"] = median_call(
        "scattering.solve_zero_energy", 1e3)
    m["kernels.kernel_hs_norms.s"] = median_call("kernels.kernel_hs_norms",
                                                 1.0)
    m["kernels.grad1_kkbar_hs_norm.s"] = median_call(
        "kernels.grad1_kkbar_hs_norm", 1.0)
    m["kernels.grad1_kkbar_hs_norm.rows_per_s"] = rate(
        "kernels.grad1_kkbar_hs_norm", lambda s: s.attrs["rows"])
    m["fock.toy_convergence_study.s"] = median_call(
        "fock.toy_convergence_study", 1.0)
    for f in ("build_basis", "all_ladders", "hamiltonian", "evolve_state",
              "apply_weyl", "apply_bogoliubov",
              "generator_cancellation_check"):
        m[f"fock.{f}.ms"] = median_call(f"fock.{f}", 1e3, top_cutoff=True)
    m["fieldio.write_field.ms"] = median_call("fieldio.write_field", 1e3)
    m["fieldio.bytes_written"] = sum(
        s.attrs.get("bytes", 0) for s in in_units
        if s.name == "fieldio.write_field") / max(len(traced_units), 1)
    hits, stages = cache
    m["bench.cache.hit_ratio"] = hits / stages if stages else 0.0
    m["bench.load_solution_json.ms"] = median_call(
        "bench.load_solution_json", 1e3)

    unit_total = sum(traced_units.values())
    own = self_seconds(spans)
    share = dict.fromkeys(LAYERS, 0.0)
    for s, t in zip(spans, own):
        if s.unit in traced_units:
            share[s.layer] += t
    for layer in LAYERS:
        m[f"trace.layer_share.{layer}"] = share[layer] / unit_total
    m["trace.coverage"] = sum(share.values()) / unit_total
    m["trace.overhead"] = (statistics.median(traced_units.values())
                           / statistics.median(untraced_seconds) - 1.0)
    return {name: m[name] for name in PER_LAYER}
