"""Experiment orchestration: config parsing, staged pipeline, reports.

Configs are INI files with sections [potential], [grid], [datum],
[nonlinearity], [snapshots], [nsweep], [kernels], [fock], [output].  The
pipeline is the stage table `STAGES`, driven by one loop in `run_pipeline`.
A stage's key hashes gpk's own sources, the sections it reads (plus the
bytes of a `file =` table) and the artifacts of the stages it needs, so an
edit of the code or the config invalidates the stages that depend on it.
Config checks run on every invocation; numerical work runs only on a cache
miss.  Summaries are read back from each stage's own artifacts and
downstream stages read the profile from scattering.json, so artifacts do
not depend on cache state.  Outputs are regenerated whole
(CSV with RFC-4180 quoting, JSON with sorted keys) and are deterministic.
"""

from __future__ import annotations

import configparser
import csv
import functools
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import fieldio
from .dynamics import (
    GridSpec,
    NonlinearitySpec,
    WaveFunction,
    compare_dynamics,
    constant_datum,
    evolve,
    gaussian_datum,
    sobolev_report,
    tail_warnings,
)
from .errors import ConfigurationError
from .fock import (
    ToyScenario,
    apply_bogoliubov,
    apply_weyl,
    build_basis,
    check_TNT_inequality,
    check_weyl_relations,
    generator_cancellation_check,
    toy_convergence_study,
    vacuum,
)
from .kernels import kernel_bound_report
from .scattering import (
    RadialPotential,
    ScatteringSolution,
    scattering_length_integral,
    solve_zero_energy,
    verify_w_bounds,
)

# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    path: Path
    parser: configparser.ConfigParser
    raw_sections: dict

    def has(self, section: str) -> bool:
        return self.parser.has_section(section)

    def get(self, section: str, key: str, fallback=None, required=False):
        if not self.parser.has_section(section):
            if required:
                raise ConfigurationError(f"{self.path}: missing section [{section}]")
            return fallback
        if not self.parser.has_option(section, key):
            if required:
                raise ConfigurationError(
                    f"{self.path}: section [{section}] missing key '{key}'"
                )
            return fallback
        return self.parser.get(section, key)

    def _typed(self, section, key, fallback, required, convert, what):
        val = self.get(section, key, required=required)
        if val is None:
            return fallback
        try:
            return convert(val)
        except ValueError as exc:
            raise ConfigurationError(
                f"{self.path}: [{section}] {key} = {val!r} is not {what}"
            ) from exc

    def get_float(self, section, key, fallback=None, required=False):
        return self._typed(section, key, fallback, required, float, "a number")

    def get_int(self, section, key, fallback=None, required=False):
        return self._typed(section, key, fallback, required, int, "an integer")

    def get_floats(self, section, key, fallback=None, required=False):
        return self._typed(section, key, fallback, required,
                           lambda v: [float(t) for t in _tokens(v)], "numbers")

    def get_ints(self, section, key, fallback=None, required=False):
        return self._typed(section, key, fallback, required,
                           lambda v: [int(t) for t in _tokens(v)], "integers")

    def section_text(self, section: str) -> str:
        return self.raw_sections.get(section, "")


def _tokens(text: str) -> list:
    return text.replace(",", " ").split()


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file {path} does not exist")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    raw = {}
    for section in parser.sections():
        items = sorted(parser.items(section))
        raw[section] = "\n".join(f"{k} = {v}" for k, v in items)
    cfg = ExperimentConfig(path=path, parser=parser, raw_sections=raw)
    file_key = cfg.get("potential", "file")
    if file_key and not Path(file_key).exists():
        raise ConfigurationError(
            f"{path}: [potential] file = {file_key} does not exist"
        )
    return cfg


def potential_from_config(cfg: ExperimentConfig) -> RadialPotential:
    """V from [potential]: a `file =` table, or a family and its parameters;
    `rmax` and `points` belong to the solver."""
    where = f"{cfg.path} [potential]"
    spec = {key: val for key, val in cfg.parser.items("potential")
            if key not in ("rmax", "points")}
    file_key = spec.pop("file", None)
    if file_key:
        if spec:
            raise ConfigurationError(
                f"{where}: file = takes no family parameters, got "
                f"{', '.join(spec)}")
        return potential_from_file(file_key)
    if "family" not in spec:
        raise ConfigurationError(f"{where}: needs 'family' or 'file'")
    return RadialPotential.from_spec(spec, where)


def potential_from_file(path) -> RadialPotential:
    """V from a two-column (radius, value) table file."""
    if not Path(path).is_file():
        raise ConfigurationError(f"potential table {path} does not exist")
    try:
        table = np.loadtxt(path, ndmin=2)
    except ValueError as exc:
        raise ConfigurationError(
            f"potential table {path} is not a table of numbers: {exc}"
        ) from None
    if table.shape[1] != 2 or table.size == 0:
        raise ConfigurationError(
            f"potential table {path} needs rows of two numbers (radius, value)")
    return RadialPotential.from_table(table[:, 0], table[:, 1])


def datum_from_config(cfg: ExperimentConfig, grid: GridSpec) -> WaveFunction:
    family = cfg.get("datum", "family", fallback="gaussian").strip().lower()
    if family == "gaussian":
        return gaussian_datum(grid, sigma=cfg.get_float("datum", "sigma", 1.0))
    if family == "constant":
        return constant_datum(grid)
    raise ConfigurationError(f"{cfg.path}: unknown datum family {family!r}")


def grid_from_config(cfg: ExperimentConfig) -> GridSpec:
    return GridSpec(
        dim=cfg.get_int("grid", "dim", required=True),
        box_length=cfg.get_float("grid", "length", required=True),
        points_per_axis=cfg.get_int("grid", "points", required=True),
        dt=cfg.get_float("grid", "dt", required=True),
        t_final=cfg.get_float("grid", "t_final", required=True),
        fft_workers=cfg.get_int("grid", "fft_workers", 1),
    )


# ---------------------------------------------------------------------------
# artifact serialization
# ---------------------------------------------------------------------------


def dump_solution_json(sol: ScatteringSolution, V: RadialPotential, path) -> dict:
    a0_int = scattering_length_integral(sol, V)
    cert = verify_w_bounds(sol)
    payload = {
        "a0_tail": sol.a0,
        "a0_derivative": sol.a0_derivative,
        "a0_integral": a0_int,
        "ode_residual": sol.ode_residual,
        "tail_fit_error": sol.tail_fit_error,
        "r_support": V.r_support,
        "potential": V.spec,
        "w_c1_hat": cert.c1_hat,
        "w_c2_hat": cert.c2_hat,
        "w_within_unit": cert.w_within_unit,
        "profile": {
            "r": sol.r_grid.tolist(),
            "f": sol.f.tolist(),
            "w": sol.w.tolist(),
            "dw_dr": sol.dw_dr.tolist(),
            "v": V(sol.r_grid).tolist(),
            "defect": sol.defect.tolist(),
        },
    }
    _write_json(path, payload)
    return payload


def load_solution_json(path):
    """Rebuild (solution, potential) from a scattering artifact; V comes from
    its stored spec, with its exact values and breakpoints."""
    try:
        payload = _read_json(path)
    except ValueError as exc:
        raise ConfigurationError(
            f"{path} is not a JSON scattering artifact: {exc}") from None
    if "potential" not in payload:
        raise ConfigurationError(f"{path}: no potential spec; solve it again")
    V = RadialPotential.from_spec(payload["potential"], str(path))
    prof = payload["profile"]
    sol = ScatteringSolution(
        r_grid=np.asarray(prof["r"]),
        f=np.asarray(prof["f"]),
        w=np.asarray(prof["w"]),
        dw_dr=np.asarray(prof["dw_dr"]),
        a0=payload["a0_tail"],
        a0_derivative=payload["a0_derivative"],
        ode_residual=payload["ode_residual"],
        tail_fit_error=payload["tail_fit_error"],
        defect=np.asarray(prof["defect"]),
        potential=V,
    )
    return sol, V


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_json(path, payload, indent=None) -> None:
    # json.dump to a file always takes the pure-Python encoder
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=indent))


def _read_csv(path) -> list:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_scattering_csv(sol: ScatteringSolution, path) -> None:
    # Python floats, which the csv writer writes as their shortest repr
    _write_csv(path, ["r", "f", "w", "dw_dr"],
               zip(*(a.tolist() for a in (sol.r_grid, sol.f, sol.w, sol.dw_dr))))


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportBundle:
    outdir: Path
    artifacts: dict
    summary: dict
    flags: list


def _hash_text(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def _hash_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


@functools.cache
def _source_digest() -> str:
    """Digest of gpk's own sources, part of every stage key, so artifacts
    written by other code are rebuilt.  Computed once per process."""
    return _hash_text(*(f"{path.name} {_hash_file(path)}"
                        for path in sorted(Path(__file__).parent.glob("*.py"))))

_NORMS_COLUMNS = ("t", "l2", "energy", "h1", "h2", "h3", "h4", "tail_mass")


def _section_key(cfg: ExperimentConfig, section: str) -> str:
    """A section's text, plus the bytes of the table it names by `file =`."""
    path = cfg.get(section, "file")
    return cfg.section_text(section) + (_hash_file(Path(path)) if path else "")


class _Inputs:
    """Numerical inputs of the stages, each built on first use, so a run of
    cache hits builds none.  The profile is always read back from
    scattering.json: a stage sees the same V and f whether the scattering
    stage ran now or in an earlier run."""

    def __init__(self, cfg: ExperimentConfig, outdir: Path):
        self.cfg = cfg
        self.outdir = outdir

    @functools.cached_property
    def sol(self):
        if not self.cfg.has("potential"):
            return None
        return load_solution_json(self.outdir / "scattering.json")[0]

    @functools.cached_property
    def grid(self) -> GridSpec:
        return grid_from_config(self.cfg)

    @functools.cached_property
    def interaction(self) -> NonlinearitySpec:
        """The modified nonlinearity at N = 1; evolve and nsweep share its uhat."""
        return NonlinearitySpec.modified(self.sol, N=1, grid=self.grid)


def _needs_potential(cfg: ExperimentConfig, what: str) -> None:
    if not cfg.has("potential"):
        raise ConfigurationError(f"{cfg.path}: {what} needs a [potential] stage")


def _nonlinearity_kind(cfg: ExperimentConfig) -> str:
    """The [nonlinearity] kind, checked along with the stage it needs."""
    kind = (cfg.get("nonlinearity", "kind", fallback="gp") or "gp").lower()
    if kind not in ("gp", "modified"):
        raise ConfigurationError(f"{cfg.path}: unknown nonlinearity kind {kind!r}")
    if kind == "modified":
        _needs_potential(cfg, "modified nonlinearity")
    return kind


def _nonlinearity(inp: _Inputs) -> NonlinearitySpec:
    cfg = inp.cfg
    if _nonlinearity_kind(cfg) == "modified":
        return replace(inp.interaction,
                       N=cfg.get_int("nonlinearity", "n", required=True))
    a0 = cfg.get_float("nonlinearity", "a0", None)
    coupling = cfg.get_float("nonlinearity", "coupling", None)
    if a0 is None and coupling is None and inp.sol is not None:
        a0 = inp.sol.a0
    if a0 is None and coupling is None:
        return NonlinearitySpec.free()
    return NonlinearitySpec.gp(a0=a0, coupling=coupling)


def scattering_summary(payload: dict) -> dict:
    """The scalars of a scattering artifact that a run reports."""
    return {k: payload[k] for k in
            ("a0_tail", "a0_integral", "ode_residual", "tail_fit_error")}


def _run_scattering(inp: _Inputs, scattering_json, scattering_csv,
                    summary_json) -> None:
    cfg = inp.cfg
    V = potential_from_config(cfg)
    r_max = cfg.get_float("potential", "rmax", max(5.0, 5 * V.r_support))
    sol = solve_zero_energy(V, r_max, cfg.get_int("potential", "points", 4000))
    payload = dump_solution_json(sol, V, scattering_json)
    write_scattering_csv(sol, scattering_csv)
    _write_json(summary_json, scattering_summary(payload))


def _summarize_scattering(scattering_json, scattering_csv, summary_json):
    # the small summary file, so a cache hit never parses the profile
    summary = _read_json(summary_json)
    return summary, (["degenerate scenario: zero scattering length"]
                     if summary["a0_tail"] < 1e-12 else [])


def _run_evolve(inp: _Inputs, norms_csv) -> None:
    cfg = inp.cfg
    nl = _nonlinearity(inp)
    stride = cfg.get_int("snapshots", "stride", None)
    traj = evolve(datum_from_config(cfg, inp.grid), nl, inp.grid,
                  snapshot_stride=stride)
    rep = sobolev_report(traj, nl)
    columns = [traj.times, [s.l2_norm for s in traj.states], rep.energy,
               *(rep.h_norms[n] for n in (1, 2, 3, 4)), rep.tail_mass]
    _write_csv(norms_csv, _NORMS_COLUMNS,
               ([repr(float(x)) for x in row] for row in zip(*columns)))
    fields = (cfg.get("snapshots", "fields", fallback="no") or "no").lower()
    if fields in ("yes", "true", "1"):
        for idx, (t, state) in enumerate(zip(traj.times, traj.states)):
            fieldio.write_field(inp.outdir / f"field_{idx:04d}.bin", state,
                                float(t))


def _summarize_evolve(norms_csv):
    rows = _read_csv(norms_csv)
    e0, e1 = float(rows[0]["energy"]), float(rows[-1]["energy"])
    summary = {"final_l2": float(rows[-1]["l2"]),
               "energy_drift": abs(e1 - e0) / max(abs(e0), 1e-300)}
    return summary, tail_warnings([float(r["t"]) for r in rows],
                                  [float(r["tail_mass"]) for r in rows])


def _run_nsweep(inp: _Inputs, rates_csv) -> None:
    cfg = inp.cfg
    N_list = cfg.get_ints("nsweep", "n_values", required=True)
    t_star = cfg.get_float("nsweep", "t_star", required=True)
    a0 = inp.sol.a0 if inp.grid.dim == 3 else None
    rep = compare_dynamics(datum_from_config(cfg, inp.grid), a0,
                           inp.interaction.uhat, N_list, t_star)
    _write_csv(rates_csv, ["N", "l2_difference", "slope"],
               ([int(n), repr(float(y)), repr(rep.slope)]
                for n, y in zip(rep.x, rep.y)))


def _summarize_nsweep(rates_csv):
    rows = _read_csv(rates_csv)
    summary = {"slope": float(rows[0]["slope"]) if rows else float("nan")}
    if rows and all(float(r["l2_difference"]) < 1e-12 for r in rows):
        return summary, ["degenerate scenario: comparison differences at round-off"]
    return summary, []


def _run_kernels(inp: _Inputs, bounds_csv) -> None:
    cfg = inp.cfg
    kgrid = GridSpec(dim=cfg.get_int("kernels", "dim", 3),
                     box_length=cfg.get_float("kernels", "length", 12.0),
                     points_per_axis=cfg.get_int("kernels", "points", 16),
                     dt=1e-3, t_final=0.0)
    phi = gaussian_datum(kgrid, sigma=cfg.get_float("kernels", "sigma", 1.0))
    write_kernel_bounds_csv(bounds_csv, phi, inp.sol, _kernel_n_values(cfg))


def _kernel_n_values(cfg: ExperimentConfig) -> list:
    """[kernels] n_values, each at least 1 (the kernel scale N)."""
    N_list = cfg.get_ints("kernels", "n_values", required=True)
    if any(N < 1 for N in N_list):
        raise ConfigurationError(
            f"{cfg.path}: [kernels] n_values = {N_list} must all be >= 1")
    return N_list


def _check_kernels(cfg: ExperimentConfig) -> None:
    _needs_potential(cfg, "[kernels]")
    _kernel_n_values(cfg)


@dataclass(frozen=True)
class Stage:
    """One pipeline stage, declared as data."""

    name: str
    switch: tuple        # config sections that must all be present to run it
    sections: tuple      # config sections hashed into its key
    needs: tuple         # upstream stages it reads; their artifacts key it
    outputs: tuple       # its files under the output directory
    run: Callable        # run(inputs, *output paths), on a cache miss only
    summarize: Callable  # (*output paths) -> (summary or None, flags)
    check: Callable = lambda cfg: None  # config validation, every invocation


STAGES = (
    Stage("scattering", ("potential",), ("potential",), (),
          ("scattering.json", "scattering.csv", "scattering_summary.json"),
          _run_scattering, _summarize_scattering),
    Stage("evolve", ("grid", "datum"),
          ("grid", "datum", "nonlinearity", "snapshots"), ("scattering",),
          ("norms.csv",), _run_evolve, _summarize_evolve, _nonlinearity_kind),
    Stage("nsweep", ("nsweep",), ("grid", "datum", "nsweep"), ("scattering",),
          ("rates.csv",), _run_nsweep, _summarize_nsweep,
          lambda cfg: _needs_potential(cfg, "[nsweep]")),
    Stage("kernels", ("kernels",), ("kernels",), ("scattering",),
          ("kernel_bounds.csv",), _run_kernels, lambda path: (None, []),
          _check_kernels),
    Stage("fock", ("fock",), ("fock",), (),
          ("fock_report.json", "toy_convergence.csv"),
          lambda inp, *paths: run_fock_stage(inp.cfg, *paths),
          lambda fock_json, conv_csv: (_read_json(fock_json)["summary"], [])),
)


def _plan(cfg: ExperimentConfig, wanted) -> list:
    """The configured stages among `wanted` (all if None) and their upstream."""
    take = {s.name for s in STAGES} if wanted is None else set(wanted)
    for stage in reversed(STAGES):
        if stage.name in take:
            take.update(stage.needs)
    return [s for s in STAGES
            if s.name in take and all(cfg.has(sec) for sec in s.switch)]


def run_pipeline(cfg: ExperimentConfig, outdir=None, stages=None) -> ReportBundle:
    """Run the configured stages among `stages` (all if None) and the
    upstream stages they need, with caching; report.json lists the stages
    this invocation ran, hit or miss, with their artifacts, summaries and
    flags."""
    outdir = Path(outdir or cfg.get("output", "directory", fallback="out"))
    plan = _plan(cfg, stages)
    for stage in plan:
        stage.check(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    inputs = _Inputs(cfg, outdir)
    digests, artifacts, summary, flags = {}, {}, {}, []
    for stage in plan:
        paths = [outdir / name for name in stage.outputs]
        key = _hash_text(
            stage.name, _source_digest(),
            *(_section_key(cfg, section) for section in stage.sections),
            *(digests[name] for name in stage.needs if name in digests),
        )
        marker = outdir / f"{stage.name}.hash"
        if not (marker.exists() and marker.read_text().strip() == key
                and all(p.exists() for p in paths)):
            stage.run(inputs, *paths)
            marker.write_text(key + "\n")
        digests[stage.name] = _hash_text(*map(_hash_file, paths))
        artifacts[stage.name] = [str(p) for p in paths]
        stage_summary, stage_flags = stage.summarize(*paths)
        if stage_summary is not None:
            summary[stage.name] = stage_summary
        flags.extend(stage_flags)

    report = outdir / "report.json"
    _write_json(report, {"stages": [s.name for s in plan],
                         "artifacts": artifacts, "summary": summary,
                         "flags": flags}, indent=1)
    artifacts["report"] = [str(report)]
    return ReportBundle(outdir=outdir, artifacts=artifacts, summary=summary,
                        flags=flags)


def write_kernel_bounds_csv(path, phi, sol, N_list) -> None:
    reports = kernel_bound_report(phi, sol, N_list)  # before the file opens
    _write_csv(path, ["N", "l2_k", "grad1_k_over_sqrtN", "grad1_kkbar",
                      "sup_slice", "cancellation_residual"],
               ([rep.N, repr(rep.l2_k), repr(rep.l2_grad1_k / math.sqrt(rep.N)),
                 repr(rep.l2_grad1_kkbar), repr(rep.sup_x_l2_slice),
                 repr(rep.cancellation_residual)]
                for rep in reports))


def run_fock_stage(cfg: ExperimentConfig, fock_json, conv_csv) -> None:
    d = cfg.get_int("fock", "d", 2)
    h = np.array(cfg._typed("fock", "h", None, True,
                            lambda text: _parse_matrix(text, d), "a matrix"))
    u = _fock_vector(cfg, "u", d, [1.0] * d)
    g = cfg.get_float("fock", "coupling", required=True)
    phi0 = _fock_vector(cfg, "phi0", d)
    norm = np.linalg.norm(phi0)
    if not 0 < norm < math.inf:
        raise ConfigurationError(
            f"{cfg.path}: [fock] phi0 must be a nonzero finite vector")
    phi0 = phi0 / norm
    scenario = ToyScenario(
        h=h,
        u=u,
        coupling=g,
        phi0=phi0,
        kappa0=cfg.get_float("fock", "kappa0", 0.0),
        t_final=cfg.get_float("fock", "t_final", required=True),
        N_list=tuple(cfg.get_ints("fock", "n_values", required=True)),
    )
    rep = toy_convergence_study(scenario)

    cancel = None
    omega = cfg.get_float("fock", "omega", None)
    if omega is not None:
        n_cancel = cfg.get_int("fock", "cancel_n", 16)
        basis = build_basis(d, cfg.get_int("fock", "cancel_cutoff", 12))
        matched = generator_cancellation_check(basis, u, g, n_cancel,
                                               phi0, omega)
        bare = generator_cancellation_check(basis, u, g, n_cancel,
                                            phi0, omega, kappa=0.0)
        cancel = {
            "matched_ratio": matched.ratio,
            "uncorrelated_ratio": bare.ratio,
            "kappa": matched.kappa,
        }

    # structural residuals and spectral constants at toy scale
    probe = build_basis(d, 12)
    weyl_rep = check_weyl_relations(
        probe, 0.1 * phi0.astype(complex), 0.08 * phi0.astype(complex)
    )
    kprobe = np.full((d, d), 0.02) + 0.06 * np.eye(d)
    tnt = check_TNT_inequality(probe, kprobe.astype(complex))
    leak_state = apply_weyl(
        probe, math.sqrt(2.0) * phi0,
        apply_bogoliubov(probe, -0.2 * np.outer(phi0, phi0), vacuum(probe)),
    )

    numbers = rep.number_expectations
    payload = {
        "summary": {
            "slope": rep.rate.slope,
            "r_squared": rep.rate.r_squared,
            "number_expectation_ratio": (
                float(np.max(numbers) / max(np.min(numbers), 1e-300))
                if np.max(numbers) > 0 else 1.0
            ),
            "cancellation": cancel,
        },
        "residuals": {
            "weyl_product": weyl_rep.product_residual,
            "weyl_shift": weyl_rep.shift_residual,
        },
        "leakages": {
            "probe_state_top_shell": leak_state.top_shell_mass(),
            "tolerance": scenario.leakage_tol,
        },
        "spectral_constants": {
            "tnt_smallest_c": tnt.smallest_c,
            "tnt_heuristic": tnt.heuristic,
        },
        "N_list": list(rep.N_list),
        "trace_distances": [float(x) for x in rep.trace_distances],
        "number_expectations": [float(x) for x in numbers],
    }
    _write_json(fock_json, payload)
    _write_csv(conv_csv, ["N", "t", "trace_distance", "number_expectation"],
               ([int(n), repr(rep.t), repr(float(dist)), repr(float(num))]
                for n, dist, num in zip(rep.N_list, rep.trace_distances,
                                        numbers)))


def _fock_vector(cfg: ExperimentConfig, key: str, d: int, fallback=None):
    vec = np.array(cfg.get_floats("fock", key, fallback,
                                  required=fallback is None))
    if vec.shape != (d,):
        raise ConfigurationError(
            f"{cfg.path}: [fock] {key} needs d = {d} numbers, got {vec.size}")
    return vec


def _parse_matrix(text: str, d: int):
    rows = [row.strip() for row in text.split(";") if row.strip()]
    mat = [[float(tok) for tok in row.replace(",", " ").split()] for row in rows]
    if len(mat) != d or any(len(r) != d for r in mat):
        raise ConfigurationError(f"matrix must be {d} x {d}: got {text!r}")
    return mat
