"""Experiment orchestration: config parsing, staged pipeline, reports.

Configs are INI files with sections [potential], [grid], [datum],
[nonlinearity], [snapshots], [nsweep], [kernels], [fock], [output].  Stages
run in dependency order with content-hashed caching: each stage's hash covers
the raw text of the sections it reads plus the hashes of its upstream
artifacts, so editing a downstream section never reuses a stale upstream
file, and editing an upstream section invalidates everything after it.

All outputs are regenerated whole (CSV with RFC-4180 quoting, JSON with
sorted keys); the pipeline itself is deterministic, randomness lives only in
the property tests.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

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
    onsite_tensor,
    toy_convergence_study,
    vacuum,
)
from .kernels import (
    grad1_kkbar_hs_norm,
    kernel_hs_norms,
    zero_energy_cancellation_residual,
)
from .rates import RateReport
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

    def get_float(self, section, key, fallback=None, required=False):
        val = self.get(section, key, required=required)
        if val is None:
            return fallback
        try:
            return float(val)
        except ValueError as exc:
            raise ConfigurationError(
                f"{self.path}: [{section}] {key} = {val!r} is not a number"
            ) from exc

    def get_int(self, section, key, fallback=None, required=False):
        val = self.get(section, key, required=required)
        if val is None:
            return fallback
        try:
            return int(val)
        except ValueError as exc:
            raise ConfigurationError(
                f"{self.path}: [{section}] {key} = {val!r} is not an integer"
            ) from exc

    def get_floats(self, section, key, fallback=None, required=False):
        val = self.get(section, key, required=required)
        if val is None:
            return fallback
        return [float(tok) for tok in val.replace(",", " ").split()]

    def get_ints(self, section, key, fallback=None, required=False):
        val = self.get(section, key, required=required)
        if val is None:
            return fallback
        return [int(tok) for tok in val.replace(",", " ").split()]

    def section_text(self, section: str) -> str:
        return self.raw_sections.get(section, "")


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
    family = cfg.get("potential", "family", fallback=None)
    file_key = cfg.get("potential", "file", fallback=None)
    if file_key:
        table = np.loadtxt(file_key)
        return RadialPotential.from_table(table[:, 0], table[:, 1])
    if family is None:
        raise ConfigurationError(
            f"{cfg.path}: [potential] needs 'family' or 'file'"
        )
    return potential_from_spec(
        family,
        height=cfg.get_float("potential", "height", 8.0),
        radius=cfg.get_float("potential", "radius", 1.0),
        amplitude=cfg.get_float("potential", "amplitude", 1.0),
        width=cfg.get_float("potential", "width", 1.0),
    )


def potential_from_spec(
    family: str, height=8.0, radius=1.0, amplitude=1.0, width=1.0
) -> RadialPotential:
    family = family.strip().lower()
    if family in ("square-well", "square_well", "square"):
        return RadialPotential.square_well(height, radius)
    if family == "gaussian":
        return RadialPotential.gaussian(amplitude, width)
    if family in ("zero", "free"):
        return RadialPotential.zero()
    raise ConfigurationError(f"unknown potential family {family!r}")


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
        "a0_integral": a0_int,
        "ode_residual": sol.ode_residual,
        "tail_fit_error": sol.tail_fit_error,
        "r_support": V.r_support,
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
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    return payload


def load_solution_json(path):
    """Rebuild (solution, potential) from a scattering artifact."""
    with open(path) as fh:
        payload = json.load(fh)
    prof = payload["profile"]
    r = np.asarray(prof["r"])
    v = np.asarray(prof["v"])
    support = float(payload["r_support"])

    def profile(x):
        return np.where(x <= support, np.interp(x, r, v, right=0.0), 0.0)

    V = RadialPotential(
        profile=profile,
        r_support=support,
        samples_r=r,
        samples_v=profile(r),
        name="loaded",
    )
    f = np.asarray(prof["f"])
    u = f * r
    sol = ScatteringSolution(
        r_grid=r,
        f=f,
        w=np.asarray(prof["w"]),
        dw_dr=np.asarray(prof["dw_dr"]),
        a0=payload["a0_tail"],
        a0_derivative=payload["a0_tail"],
        ode_residual=payload["ode_residual"],
        tail_fit_error=payload["tail_fit_error"],
        u=u,
        u_prime=np.gradient(u, r),
        defect=np.asarray(prof["defect"]),
        potential=V,
    )
    return sol, V


def write_scattering_csv(sol: ScatteringSolution, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "f", "w", "dw_dr"])
        for r, f, w, dw in zip(sol.r_grid, sol.f, sol.w, sol.dw_dr):
            writer.writerow([repr(r), repr(f), repr(w), repr(dw)])


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


_NORMS_COLUMNS = ("t", "l2", "energy", "h1", "h2", "h3", "h4", "tail_mass")


def _stage_cached(outdir: Path, stage: str, key: str, outputs) -> bool:
    marker = outdir / f"{stage}.hash"
    if not marker.exists():
        return False
    if marker.read_text().strip() != key:
        return False
    return all(Path(p).exists() for p in outputs)


def _mark_stage(outdir: Path, stage: str, key: str) -> None:
    (outdir / f"{stage}.hash").write_text(key + "\n")


def run_pipeline(cfg: ExperimentConfig, outdir=None) -> ReportBundle:
    """Execute the configured stages in dependency order with caching."""
    outdir = Path(outdir or cfg.get("output", "directory", fallback="out"))
    outdir.mkdir(parents=True, exist_ok=True)
    artifacts: dict = {}
    summary: dict = {}
    flags: list = []

    scattering_json = outdir / "scattering.json"
    scattering_csv = outdir / "scattering.csv"
    sol = V = None
    if cfg.has("potential"):
        key = _hash_text("scattering", cfg.section_text("potential"))
        outputs = [scattering_json, scattering_csv]
        if not _stage_cached(outdir, "scattering", key, outputs):
            V = potential_from_config(cfg)
            r_max = cfg.get_float("potential", "rmax", max(5.0, 5 * V.r_support))
            n_pts = cfg.get_int("potential", "points", 4000)
            sol = solve_zero_energy(V, r_max, n_pts)
            payload = dump_solution_json(sol, V, scattering_json)
            write_scattering_csv(sol, scattering_csv)
            _mark_stage(outdir, "scattering", key)
        else:
            sol, V = load_solution_json(scattering_json)
            with open(scattering_json) as fh:
                payload = json.load(fh)
        artifacts["scattering"] = [str(scattering_json), str(scattering_csv)]
        summary["scattering"] = {
            k: payload[k]
            for k in ("a0_tail", "a0_integral", "ode_residual", "tail_fit_error")
        }
        if sol.a0 < 1e-12:
            flags.append("degenerate scenario: zero scattering length")

    upstream = _hash_file(scattering_json) if scattering_json.exists() else ""

    if cfg.has("grid") and cfg.has("datum"):
        grid = grid_from_config(cfg)
        psi0 = datum_from_config(cfg, grid)
        nl = _nonlinearity_from_config(cfg, grid, sol)
        norms_csv = outdir / "norms.csv"
        key = _hash_text(
            "evolve",
            ",".join(_NORMS_COLUMNS),
            cfg.section_text("grid"),
            cfg.section_text("datum"),
            cfg.section_text("nonlinearity"),
            cfg.section_text("snapshots"),
            upstream,
        )
        dump_fields = (cfg.get("snapshots", "fields", fallback="no") or "no").lower() in (
            "yes", "true", "1",
        )
        if not _stage_cached(outdir, "evolve", key, [norms_csv]):
            stride = cfg.get_int("snapshots", "stride", None)
            traj = evolve(psi0, nl, grid, snapshot_stride=stride)
            rep = sobolev_report(traj, nl)
            columns = [traj.times, [s.l2_norm for s in traj.states], rep.energy,
                       *(rep.h_norms[n] for n in (1, 2, 3, 4)), rep.tail_mass]
            with open(norms_csv, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(_NORMS_COLUMNS)
                for row in zip(*columns):
                    writer.writerow([repr(float(x)) for x in row])
            if dump_fields:
                for idx, (t, state) in enumerate(zip(traj.times, traj.states)):
                    fieldio.write_field(
                        outdir / f"field_{idx:04d}.bin", state, float(t)
                    )
            _mark_stage(outdir, "evolve", key)
        artifacts["evolve"] = [str(norms_csv)]
        with open(norms_csv) as fh:
            rows = list(csv.DictReader(fh))
        e0, e1 = float(rows[0]["energy"]), float(rows[-1]["energy"])
        summary["evolve"] = {
            "final_l2": float(rows[-1]["l2"]),
            "energy_drift": abs(e1 - e0) / max(abs(e0), 1e-300),
        }
        flags.extend(tail_warnings([float(r["t"]) for r in rows],
                                   [float(r["tail_mass"]) for r in rows]))

    if cfg.has("nsweep"):
        if sol is None:
            raise ConfigurationError(
                f"{cfg.path}: [nsweep] needs a [potential] stage"
            )
        grid = grid_from_config(cfg)
        psi0 = datum_from_config(cfg, grid)
        rates_csv = outdir / "rates.csv"
        key = _hash_text(
            "nsweep",
            cfg.section_text("grid"),
            cfg.section_text("datum"),
            cfg.section_text("nsweep"),
            upstream,
        )
        if not _stage_cached(outdir, "nsweep", key, [rates_csv]):
            N_list = cfg.get_ints("nsweep", "n_values", required=True)
            t_star = cfg.get_float("nsweep", "t_star", required=True)
            nl_ref = NonlinearitySpec.modified(sol, N=N_list[0], grid=grid)
            a0 = sol.a0 if grid.dim == 3 else None
            rep = compare_dynamics(psi0, a0, nl_ref.uhat, N_list, t_star)
            _write_rates_csv(rates_csv, rep)
            _mark_stage(outdir, "nsweep", key)
        artifacts["nsweep"] = [str(rates_csv)]
        with open(rates_csv) as fh:
            rows = list(csv.DictReader(fh))
        summary["nsweep"] = {
            "slope": float(rows[0]["slope"]) if rows else float("nan"),
        }
        if rows and all(float(r["l2_difference"]) < 1e-12 for r in rows):
            flags.append("degenerate scenario: comparison differences at round-off")

    if cfg.has("kernels"):
        if sol is None:
            raise ConfigurationError(
                f"{cfg.path}: [kernels] needs a [potential] stage"
            )
        bounds_csv = outdir / "kernel_bounds.csv"
        key = _hash_text("kernels", cfg.section_text("kernels"), upstream)
        if not _stage_cached(outdir, "kernels", key, [bounds_csv]):
            kdim = cfg.get_int("kernels", "dim", 3)
            kn = cfg.get_int("kernels", "points", 16)
            kL = cfg.get_float("kernels", "length", 12.0)
            sigma = cfg.get_float("kernels", "sigma", 1.0)
            N_list = cfg.get_ints("kernels", "n_values", required=True)
            kgrid = GridSpec(dim=kdim, box_length=kL, points_per_axis=kn,
                             dt=1e-3, t_final=0.0)
            phi = gaussian_datum(kgrid, sigma=sigma)
            write_kernel_bounds_csv(bounds_csv, phi, sol, V, N_list)
            _mark_stage(outdir, "kernels", key)
        artifacts["kernels"] = [str(bounds_csv)]

    if cfg.has("fock"):
        fock_json = outdir / "fock_report.json"
        conv_csv = outdir / "toy_convergence.csv"
        key = _hash_text("fock", cfg.section_text("fock"), upstream)
        if not _stage_cached(outdir, "fock", key, [fock_json, conv_csv]):
            run_fock_stage(cfg, fock_json, conv_csv)
            _mark_stage(outdir, "fock", key)
        artifacts["fock"] = [str(fock_json), str(conv_csv)]
        with open(fock_json) as fh:
            summary["fock"] = json.load(fh)["summary"]

    report = outdir / "report.json"
    with open(report, "w") as fh:
        json.dump(
            {"artifacts": artifacts, "summary": summary, "flags": flags},
            fh, sort_keys=True, indent=1,
        )
    artifacts["report"] = [str(report)]
    return ReportBundle(outdir=outdir, artifacts=artifacts, summary=summary,
                        flags=flags)


def _nonlinearity_from_config(cfg, grid, sol):
    kind = (cfg.get("nonlinearity", "kind", fallback="gp") or "gp").lower()
    if kind == "gp":
        a0 = cfg.get_float("nonlinearity", "a0", None)
        coupling = cfg.get_float("nonlinearity", "coupling", None)
        if a0 is None and coupling is None and sol is not None:
            a0 = sol.a0
        if a0 is None and coupling is None:
            return NonlinearitySpec.free()
        return NonlinearitySpec.gp(a0=a0, coupling=coupling)
    if kind == "modified":
        if sol is None:
            raise ConfigurationError(
                f"{cfg.path}: modified nonlinearity needs a [potential] stage"
            )
        N = cfg.get_int("nonlinearity", "n", required=True)
        return NonlinearitySpec.modified(sol, N=N, grid=grid)
    raise ConfigurationError(f"{cfg.path}: unknown nonlinearity kind {kind!r}")


def _write_rates_csv(path, rep: RateReport) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "l2_difference", "slope"])
        for n, y in zip(rep.x, rep.y):
            writer.writerow([int(n), repr(float(y)), repr(rep.slope)])


def write_kernel_bounds_csv(path, phi, sol, V, N_list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["N", "l2_k", "grad1_k_over_sqrtN", "grad1_kkbar", "sup_slice",
             "cancellation_residual"]
        )
        for N in N_list:
            l2k, l2g1, sup_slice = kernel_hs_norms(phi, sol, int(N))
            kkbar = grad1_kkbar_hs_norm(phi, sol, int(N))
            resid = zero_energy_cancellation_residual(sol, V, int(N))
            writer.writerow(
                [int(N), repr(l2k), repr(l2g1 / math.sqrt(N)), repr(kkbar),
                 repr(sup_slice), repr(resid)]
            )


def run_fock_stage(cfg: ExperimentConfig, fock_json, conv_csv) -> None:
    d = cfg.get_int("fock", "d", 2)
    h = np.array(_parse_matrix(cfg.get("fock", "h", required=True), d))
    u = np.array(cfg.get_floats("fock", "u", [1.0] * d))
    g = cfg.get_float("fock", "coupling", required=True)
    phi0 = np.array(cfg.get_floats("fock", "phi0", required=True))
    phi0 = phi0 / np.linalg.norm(phi0)
    scenario = ToyScenario(
        h=h,
        v=onsite_tensor(u),
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
    with open(fock_json, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    with open(conv_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["N", "t", "trace_distance", "number_expectation"])
        for n, dist, num in zip(rep.N_list, rep.trace_distances, numbers):
            writer.writerow([int(n), repr(rep.t), repr(float(dist)),
                             repr(float(num))])


def _parse_matrix(text: str, d: int):
    rows = [row.strip() for row in text.split(";") if row.strip()]
    mat = [[float(tok) for tok in row.replace(",", " ").split()] for row in rows]
    if len(mat) != d or any(len(r) != d for r in mat):
        raise ConfigurationError(f"matrix must be {d} x {d}: got {text!r}")
    return mat
