"""Experiment orchestration: config schema, staged pipeline, reports.

`SCHEMA` holds every INI section and key gpk reads, with its type, default
and bound; `load_config` checks a whole file against it and the rules
between keys once, before any stage runs, and holds the typed values.  The
pipeline is the stage table `STAGES`, driven by one loop in `run_pipeline`.
A stage's key hashes gpk's own sources, the sections it reads (plus the
bytes of a `file =` table) and the artifacts of the stages it needs, so an
edit of the code or the config invalidates the stages that depend on it.
Numerical work runs only on a cache miss.  Summaries are read back from each
stage's own artifacts and downstream stages read the scattering.json + .npz
pair back, so artifacts do not depend on cache state.  A miss deletes its
marker, regenerates its outputs whole in place (CSV with RFC-4180 quoting,
JSON with sorted keys) and only then writes the marker back.
"""

from __future__ import annotations

import configparser
import csv
import functools
import hashlib
import json
import math
import os
import zipfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import budgets, fieldio
from .dynamics import (
    GridSpec,
    NonlinearitySpec,
    WaveFunction,
    evolve_and_compare,
    gaussian_datum,
    sobolev_report,
    sweep_nonlinearities,
    sweep_values,
    tail_warnings,
    time_steps,
)
from .errors import ConfigurationError
from .kernels import kernel_bound_report
from .rates import rate_points
from .scattering import (
    RadialPotential,
    ScatteringSolution,
    as_numbers,
    family_parameters,
    potential_family,
    scattering_length_integral,
    solve_zero_energy,
    verify_w_bounds,
)

# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def _tokens(text: str) -> list:
    """The entries of a list, split at commas and spaces; ValueError for none."""
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("an empty list")
    return tokens


def _finite(text: str, above=-math.inf) -> float:
    """float(text), with ValueError for nan, +-inf and a number not `above`
    as for a non-number."""
    value = float(text)
    if not above < value < math.inf:
        raise ValueError(f"{text!r} is not a finite number above {above}")
    return value


def _choice(*words):
    """The type of a key that takes one of `words`, in any case."""
    table = {word: word for word in words}
    return (lambda text: table[text.lower()]), " or ".join(words)


# A type is (reader, what the text must be); the reader raises ValueError or
# KeyError on a text it cannot read.
_INT = (int, "an integer")
_INTS = (lambda text: [int(tok) for tok in _tokens(text)],
         "one or more integers")
_FLOAT = (_finite, "a finite number")
_WIDTH = (lambda text: _finite(text, above=0.0), "a positive finite number")
_FLOATS = (lambda text: [_finite(tok) for tok in _tokens(text)],
           "one or more finite numbers")
_MATRIX = (lambda text: [_FLOATS[0](row) for row in text.split(";")
                         if row.strip()], "a matrix of finite numbers")
_TEXT = (str, "text")
_YES_NO = (lambda text: configparser.ConfigParser.BOOLEAN_STATES[text.lower()],
           "yes or no")
REQUIRED = object()  # the default of a key that a given section must give


@dataclass(frozen=True)
class Key:
    """One config key: its type, its default and the least value each of
    its numbers takes."""

    type: tuple
    default: object = None
    least: int | None = None


# Every section and key gpk reads.  [potential] also takes the parameters of
# its family, which `potential_from_config` checks.  A key without a
# default reads None when it is not given: `solve_zero_energy` takes
# max(5, 5 r_support) for rmax, and the fock stage ones for u.
SCHEMA = {
    "potential": {"family": Key(_TEXT), "file": Key(_TEXT), "rmax": Key(_FLOAT),
                  "points": Key(_INT, 4000)},
    "grid": {"dim": Key(_INT, REQUIRED), "length": Key(_FLOAT, REQUIRED),
             "points": Key(_INT, REQUIRED), "dt": Key(_FLOAT, REQUIRED),
             "t_final": Key(_FLOAT, REQUIRED)},
    "datum": {"sigma": Key(_WIDTH, 1.0)},
    "nonlinearity": {"kind": Key(_choice("gp", "modified"), "gp"),
                     "a0": Key(_FLOAT), "n": Key(_INT, least=1)},
    "snapshots": {"stride": Key(_INT, least=1), "fields": Key(_YES_NO, False)},
    "nsweep": {"n_values": Key(_INTS, REQUIRED, least=1),
               "t_star": Key(_FLOAT, REQUIRED)},
    "kernels": {"dim": Key(_INT, 3), "length": Key(_FLOAT, 12.0),
                "points": Key(_INT, 16), "sigma": Key(_WIDTH, 1.0),
                "n_values": Key(_INTS, REQUIRED, least=1)},
    "fock": {"h": Key(_MATRIX, REQUIRED), "u": Key(_FLOATS),
             "coupling": Key(_FLOAT, REQUIRED),
             "phi0": Key(_FLOATS, REQUIRED), "kappa0": Key(_FLOAT, 0.0),
             "t_final": Key(_FLOAT, REQUIRED),
             "n_values": Key(_INTS, REQUIRED, least=1), "omega": Key(_FLOAT)},
    "output": {"directory": Key(_TEXT, "out")},
}


def parse_value(where: str, key: Key, text: str):
    """`text` read as the type of `key`, each number at least `key.least`;
    a ConfigurationError naming `where` if it is not."""
    read, what = key.type
    try:
        value = read(text)
    except (KeyError, ValueError):
        raise ConfigurationError(f"{where} = {text!r} is not {what}") from None
    if key.least is not None and np.any(np.less(value, key.least)):
        raise ConfigurationError(f"{where} = {value} must be >= {key.least}")
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """A config checked against `SCHEMA`: `values[section][key]` is a typed
    value or its default ([potential] also holds its family parameters), and
    `texts` the normalised text of each given section, which keys hash."""

    path: Path
    values: dict
    texts: dict

    def has(self, section: str) -> bool:
        return section in self.texts

    def get(self, section: str, key: str):
        return self.values[section][key]

    get_float = get_ints = get  # the former typed getters, which perfbench/ calls


def load_config(path) -> ExperimentConfig:
    """The config at `path`, checked whole against `SCHEMA` and the rules
    between its keys; a ConfigurationError at the first fault."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file {path} does not exist")
    if not path.is_file():
        raise ConfigurationError(f"config file {path} is not a regular file")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
        given = {section: dict(parser.items(section))
                 for section in parser.sections()}
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    if not given:
        raise ConfigurationError(f"config file {path} has no section")
    for section, items in given.items():
        if section not in SCHEMA:
            raise _unknown(path, f"section [{section}]", section, SCHEMA)
        for key in items:
            if key not in SCHEMA[section] and section != "potential":
                # [potential] takes its family's parameters as well
                raise _unknown(path, f"key '{key}' in [{section}]", key,
                               SCHEMA[section])
    values = {}
    for section, keys in SCHEMA.items():
        items = given.get(section, {})
        values[section] = dict(items)
        for name, key in keys.items():
            if name in items:
                values[section][name] = parse_value(
                    f"{path}: [{section}] {name}", key, items[name])
            elif key.default is not REQUIRED:
                values[section][name] = key.default
            elif section in given:
                raise ConfigurationError(
                    f"{path}: section [{section}] missing key '{name}'")
    cfg = ExperimentConfig(path=path, values=values, texts={
        section: "\n".join(f"{k} = {v}" for k, v in sorted(items.items()))
        for section, items in given.items()})
    _check_rules(cfg)
    return cfg


def _unknown(path, what: str, name: str, valid) -> ConfigurationError:
    """The error for an unknown section or key, naming the closest valid one."""
    import difflib  # on this error path only: it takes 1.5 ms to import

    close = difflib.get_close_matches(name, list(valid), n=1)
    hint = f"did you mean {close[0]!r}?" if close else \
        f"expected one of {', '.join(valid)}"
    return ConfigurationError(f"{path}: unknown {what}; {hint}")


def _check_rules(cfg: ExperimentConfig) -> None:
    """The rules between keys and sections that the schema does not state."""
    path, nl = cfg.path, cfg.values["nonlinearity"]
    modified = nl["kind"] == "modified"
    if modified and nl["n"] is None:
        raise ConfigurationError(
            f"{path}: section [nonlinearity] missing key 'n'")
    for what, present, needed in (
            ("[nsweep]", cfg.has("nsweep"), "potential"),
            ("[nsweep]", cfg.has("nsweep"), "grid"),
            ("[kernels]", cfg.has("kernels"), "potential"),
            ("modified nonlinearity", modified, "potential")):
        if present and not cfg.has(needed):
            raise ConfigurationError(f"{path}: {what} needs a [{needed}] section")
    if cfg.has("potential"):
        potential_from_config(cfg)
    # the grids the stages build, from the same constructors, and the steps
    # taken on them (nsweep's grid ends at t_star, the kernels grid takes
    # none); the N lists, by the rules of the nsweep and fock rate fits,
    # which name no time key; the toy study's mean-field orbit steps
    for where, time_key, present, check in (
            ("[grid]", "t_final", cfg.has("grid"),
             lambda: time_steps(grid_from_config(cfg))),
            ("[nsweep]", "t_star", cfg.has("nsweep"),
             lambda: time_steps(replace(grid_from_config(cfg),
                                        t_final=cfg.get("nsweep", "t_star")))),
            ("[nsweep] n_values", None, cfg.has("nsweep"),
             lambda: sweep_values(cfg.get("nsweep", "n_values"))),
            ("[kernels]", "t_final", cfg.has("kernels"),
             lambda: kernel_grid_from_config(cfg)),
            ("[fock] n_values", None, cfg.has("fock"),
             lambda: rate_points(cfg.get("fock", "n_values"))),
            ("[fock]", "t_final", cfg.has("fock"),
             lambda: budgets.orbit_steps(cfg.get("fock", "t_final")))):
        if present:
            try:
                check()
            except ConfigurationError as exc:
                raise ConfigurationError(f"{path} {where}: " + str(exc).replace(
                    "t_final", time_key or "t_final")) from None
    if cfg.has("fock"):
        _check_fock_scenario(path, cfg.values["fock"])


def _check_fock_scenario(path, fock: dict) -> None:
    """The shapes of [fock] h (d x d, for d modes, and symmetric as
    `fock.hamiltonian` asks of a real h), u and phi0 (d numbers), and both
    bases the fock stage builds, against the caps of `gpk.budgets`."""
    d = len(fock["h"])
    if not d or any(len(row) != d for row in fock["h"]):
        raise ConfigurationError(
            f"{path}: [fock] h must be a nonempty square matrix, got rows of "
            f"{[len(row) for row in fock['h']]} numbers")
    if not np.allclose(fock["h"], np.transpose(fock["h"]),
                       atol=budgets.ROUNDOFF_SLACK):
        raise ConfigurationError(f"{path}: [fock] h is not symmetric to "
                                 f"ROUNDOFF_SLACK = {budgets.ROUNDOFF_SLACK}")
    for key in ("u", "phi0"):
        if fock[key] is not None and len(fock[key]) != d:
            raise ConfigurationError(f"{path}: [fock] {key} needs d = {d} "
                                     f"numbers, got {len(fock[key])}")
    if not 0 < np.linalg.norm(fock["phi0"]) < math.inf:
        raise ConfigurationError(
            f"{path}: [fock] phi0 must be a nonzero finite vector")
    # the toy study's basis, and the probe basis, on which the probe and
    # cancellation checks take dense unitaries
    for cutoff, cap, name in (
            (budgets.FLUCTUATION_CUTOFF, budgets.DIM_BUDGET, "DIM_BUDGET"),
            (budgets.PROBE_CUTOFF, budgets.DENSE_EXPM_CAP, "DENSE_EXPM_CAP")):
        dim = budgets.basis_dimension(d, cutoff)
        if dim > cap:
            raise ConfigurationError(
                f"{path}: [fock] h: d = {d} modes at cutoff {cutoff} give a "
                f"basis of dimension {dim}, above the cap {cap} ({name})")


def potential_from_config(cfg: ExperimentConfig) -> RadialPotential:
    """V from [potential]: a `file =` table, or a family and its parameters.
    A key that is neither a schema key nor a parameter of the family is
    refused naming the closest of those."""
    where = f"{cfg.path} [potential]"
    potential = cfg.values["potential"]
    params = {key: val for key, val in potential.items()
              if key not in SCHEMA["potential"]}
    if potential["file"]:
        if params:
            raise ConfigurationError(
                f"{where}: file = takes no family parameters, got "
                f"{', '.join(params)}")
        return potential_from_file(potential["file"])
    if potential["family"] is None:
        raise ConfigurationError(f"{where}: needs 'family' or 'file'")
    family = potential_family(potential["family"])
    if family is not None:
        valid = [*SCHEMA["potential"], *family_parameters(family)]
        for key in params:
            if key not in valid:
                raise _unknown(cfg.path, f"key '{key}' in [potential] for "
                               f"family {family!r}", key, valid)
    return RadialPotential.from_spec({**params, "family": potential["family"]},
                                     where)


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


def grid_from_config(cfg: ExperimentConfig) -> GridSpec:
    grid = cfg.values["grid"]
    return GridSpec(dim=grid["dim"], box_length=grid["length"],
                    points_per_axis=grid["points"], dt=grid["dt"],
                    t_final=grid["t_final"])


def kernel_grid_from_config(cfg: ExperimentConfig) -> GridSpec:
    """The grid of the [kernels] field; the kernels stage takes no time step."""
    k = cfg.values["kernels"]
    return GridSpec(dim=k["dim"], box_length=k["length"],
                    points_per_axis=k["points"], dt=1e-3, t_final=0.0)


# ---------------------------------------------------------------------------
# artifact serialization
# ---------------------------------------------------------------------------

# the arrays of scattering.npz; r and w follow from f and the JSON's rmax
PROFILE_ARRAYS = ("f", "dw_dr", "defect")


def dump_solution_json(sol: ScatteringSolution, path) -> dict:
    """The scalars, the potential spec and the w certificate to the JSON file
    `path`, the profile arrays to the .npz beside it; returns the JSON."""
    V = sol.potential
    a0_int = scattering_length_integral(sol)
    cert = verify_w_bounds(sol)
    payload = {
        "a0_tail": sol.a0,
        "a0_derivative": sol.a0_derivative,
        "a0_integral": a0_int,
        "ode_residual": sol.ode_residual,
        "tail_fit_error": sol.tail_fit_error,
        "r_support": V.r_support,
        "rmax": sol.r_max,
        "potential": V.spec,
        "w_c1_hat": cert.c1_hat,
        "w_c2_hat": cert.c2_hat,
        "w_within_unit": cert.w_within_unit,
    }
    _write_json(path, payload)
    np.savez(Path(path).with_suffix(".npz"),
             **{name: getattr(sol, name) for name in PROFILE_ARRAYS})
    return payload


def load_solution_json(path):
    """The solution of the JSON file `path` and the .npz beside it, V rebuilt
    exactly from its spec.  A missing key or array, an unreadable .npz, a
    scalar that is not a JSON number (text or a bool), a NaN, inf or null
    value, arrays that are not one profile and an rmax that is not positive
    are ConfigurationErrors; solve such a file again."""
    npz = Path(path).with_suffix(".npz")
    try:
        payload = _read_json(path)
    except ValueError as exc:
        raise ConfigurationError(
            f"{path} is not a JSON scattering artifact: {exc}") from None
    if not isinstance(payload, dict) or "potential" not in payload:
        raise ConfigurationError(f"{path}: no potential; solve it again")
    try:
        with np.load(npz, allow_pickle=False) as data:
            arrays = dict(data)
    except (OSError, ValueError, TypeError, EOFError, zipfile.BadZipFile) as exc:
        raise ConfigurationError(f"{npz} is not a scattering profile "
                                 f"({exc}); solve it again") from None
    fields = {}
    scalars = ("a0_tail", "a0_derivative", "ode_residual", "tail_fit_error",
               "rmax")
    for source, found, keys in ((path, payload, scalars),
                                (npz, arrays, PROFILE_ARRAYS)):
        for key in keys:
            if key not in found:
                raise ConfigurationError(f"{source}: no {key}; solve it again")
            value = found[key]
            if found is payload and value is not None and \
                    type(value) not in (int, float):  # not bool, not text
                raise ConfigurationError(f"{source}: {key} = {value!r} is not "
                                         f"a number; solve it again")
            # a JSON null reads as NaN, which is refused
            fields[key] = as_numbers(value, f"{source}: {key}")
            if not np.all(np.isfinite(fields[key])):
                raise ConfigurationError(
                    f"{source}: {key} holds non-finite values; solve it again")
    n, shapes = np.size(fields["f"]), [np.shape(fields[k]) for k in PROFILE_ARRAYS]
    if n < 2 or shapes != [(n,), (n,), (n - 1,)]:
        raise ConfigurationError(f"{npz}: f, dw_dr and defect have shapes "
                                 f"{shapes}, not n, n and n - 1 samples for "
                                 f"an n >= 2; solve it again")
    if payload["rmax"] <= 0:
        raise ConfigurationError(f"{path}: rmax = {payload['rmax']!r} is not "
                                 f"a positive number; solve it again")
    return ScatteringSolution(
        a0=fields.pop("a0_tail"), r_max=fields.pop("rmax"), **fields,
        potential=RadialPotential.from_spec(payload["potential"], str(path)))


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
    path = cfg.values[section].get("file")
    return cfg.texts.get(section, "") + (_hash_file(Path(path)) if path else "")


class _Inputs:
    """Numerical inputs of the stages, each built on first use, so a run of
    cache hits builds none.  The solution is always read back from the
    scattering artifact: a stage sees the same V and f whether the scattering
    stage ran now or in an earlier run.  Evolve and nsweep step from the
    one `datum`; what they step is passed to their `run`, not kept here."""

    def __init__(self, cfg: ExperimentConfig, outdir: Path):
        self.cfg = cfg
        self.outdir = outdir

    @functools.cached_property
    def sol(self):
        if not self.cfg.has("potential"):
            return None
        return load_solution_json(self.outdir / "scattering.json")

    @functools.cached_property
    def grid(self) -> GridSpec:
        return grid_from_config(self.cfg)

    @functools.cached_property
    def datum(self) -> WaveFunction:
        """The [datum] Gaussian on the [grid]; evolve and nsweep start from it."""
        return gaussian_datum(self.grid, sigma=self.cfg.get("datum", "sigma"))

    @functools.cached_property
    def interaction(self) -> NonlinearitySpec:
        """The modified nonlinearity at N = 1; evolve and nsweep share its uhat."""
        return NonlinearitySpec.modified(self.sol, N=1, grid=self.grid)


def _nonlinearity(inp: _Inputs) -> NonlinearitySpec:
    nl = inp.cfg.values["nonlinearity"]
    if nl["kind"] == "modified":
        return replace(inp.interaction, N=nl["n"])
    a0 = nl["a0"]
    if a0 is None:  # the solved a0; no interaction without a [potential]
        a0 = 0.0 if inp.sol is None else inp.sol.a0
    return NonlinearitySpec.gp(a0)


def scattering_summary(payload: dict) -> dict:
    """The scalars of a scattering artifact that a run reports."""
    return {k: payload[k] for k in
            ("a0_tail", "a0_integral", "ode_residual", "tail_fit_error")}


def _run_scattering(inp: _Inputs, _, scattering_json, scattering_npz) -> None:
    V, potential = potential_from_config(inp.cfg), inp.cfg.values["potential"]
    sol = solve_zero_energy(V, potential["rmax"], potential["points"])
    dump_solution_json(sol, scattering_json)


def _summarize_scattering(scattering_json, scattering_npz):
    # the JSON file holds only scalars, so a cache hit never reads the profile
    summary = scattering_summary(_read_json(scattering_json))
    return summary, (["degenerate scenario: zero scattering length"]
                     if summary["a0_tail"] < budgets.DEGENERATE_FLOOR else [])


def _step(inp: _Inputs, names) -> dict:
    """The trajectory of the evolve stage and the rate of the nsweep stage,
    by name, for those among `names`, from one `evolve_and_compare` call
    from the [datum]; an error names the stage before the member."""
    evolve, nsweep = "evolve" in names, "nsweep" in names
    if not (evolve or nsweep):
        return {}
    sweep = ()
    if nsweep:
        a0 = inp.sol.a0 if inp.grid.dim == 3 else None
        sweep = sweep_nonlinearities(a0, inp.interaction.uhat,
                                     inp.cfg.get("nsweep", "n_values"))
    traj, rate = evolve_and_compare(
        inp.datum, _nonlinearity(inp) if evolve else None, sweep,
        inp.cfg.values["nsweep"].get("t_star"),
        inp.cfg.get("snapshots", "stride"), names=("evolve", "nsweep"))
    return {"evolve": traj, "nsweep": rate}


def _run_evolve(inp: _Inputs, traj, norms_csv) -> list:
    """norms.csv and, with [snapshots] fields, the dumps it names."""
    for stale in inp.outdir.glob("field_*.bin"):  # an earlier run's dumps
        stale.unlink()
    rep = sobolev_report(traj, _nonlinearity(inp))
    columns = [traj.times, [s.l2_norm for s in traj.states], rep.energy,
               *(rep.h_norms[n] for n in (1, 2, 3, 4)), rep.tail_mass]
    _write_csv(norms_csv, _NORMS_COLUMNS,
               ([repr(float(x)) for x in row] for row in zip(*columns)))
    if not inp.cfg.get("snapshots", "fields"):
        return []
    names = [f"field_{idx:04d}.bin" for idx in range(len(traj.times))]
    try:
        for name, t, state in zip(names, traj.times, traj.states):
            fieldio.write_field(inp.outdir / name, state, float(t))
    except BaseException:  # the driver removes only the declared outputs
        for name in names:
            (inp.outdir / name).unlink(missing_ok=True)
        raise
    return names


def _summarize_evolve(norms_csv):
    rows = _read_csv(norms_csv)
    e0, e1 = float(rows[0]["energy"]), float(rows[-1]["energy"])
    summary = {"final_l2": float(rows[-1]["l2"]),
               "energy_drift": abs(e1 - e0) / max(abs(e0), 1e-300)}
    return summary, tail_warnings([float(r["t"]) for r in rows],
                                  [float(r["tail_mass"]) for r in rows])


def _run_nsweep(inp: _Inputs, rep, rates_csv) -> None:
    _write_csv(rates_csv, ["N", "l2_difference", "slope"],
               ([int(n), repr(float(y)), repr(rep.slope)]
                for n, y in zip(rep.x, rep.y)))


def _summarize_nsweep(rates_csv):
    """The slope, flagged when the differences are at round-off (`fit_rate`
    wrote a NaN slope) or do not fall with N."""
    rows = _read_csv(rates_csv)
    summary = {"slope": float(rows[0]["slope"])}
    diffs = [float(r["l2_difference"]) for r in rows]
    if math.isnan(summary["slope"]):
        return summary, ["degenerate scenario: comparison differences at round-off"]
    if any(d1 <= d2 for d1, d2 in zip(diffs, diffs[1:])):
        return summary, ["non-monotone comparison differences: possible "
                         "resolution floor"]
    return summary, []


def _run_kernels(inp: _Inputs, _, bounds_csv) -> None:
    k = inp.cfg.values["kernels"]
    phi = gaussian_datum(kernel_grid_from_config(inp.cfg), sigma=k["sigma"])
    write_kernel_bounds_csv(bounds_csv, phi, inp.sol, k["n_values"])


@dataclass(frozen=True)
class Stage:
    """One pipeline stage, declared as data."""

    name: str
    switch: tuple        # config sections that must all be present to run it
    sections: tuple      # config sections hashed into its key
    needs: tuple         # upstream stages it reads; their artifacts key it
    outputs: tuple       # its files under the output directory
    run: Callable        # run(inputs, stepped, *output paths) on a miss, in
                         # place; None or the names of further files it wrote
    summarize: Callable  # (*output paths) -> (summary or None, flags)


STAGES = (
    Stage("scattering", ("potential",), ("potential",), (),
          ("scattering.json", "scattering.npz"),
          _run_scattering, _summarize_scattering),
    Stage("evolve", ("grid", "datum"),
          ("grid", "datum", "nonlinearity", "snapshots"), ("scattering",),
          ("norms.csv",), _run_evolve, _summarize_evolve),
    Stage("nsweep", ("nsweep",), ("grid", "datum", "nsweep"), ("scattering",),
          ("rates.csv",), _run_nsweep, _summarize_nsweep),
    Stage("kernels", ("kernels",), ("kernels",), ("scattering",),
          ("kernel_bounds.csv",), _run_kernels, lambda path: (None, [])),
    Stage("fock", ("fock",), ("fock",), (),
          ("fock_report.json", "toy_convergence.csv"),
          lambda inp, _, *paths: run_fock_stage(inp.cfg, *paths),
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


def make_directory(directory: Path, what: str) -> None:
    """mkdir -p, a failure of which is a ConfigurationError naming `what`
    (the option or key that named the directory) and the directory."""
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"{what}: cannot create the directory "
                                 f"{directory}: {exc.strerror}") from None


def run_pipeline(cfg: ExperimentConfig, outdir=None, stages=None) -> ReportBundle:
    """Run the configured stages among `stages` (all if None) and the
    upstream stages they need, with caching; report.json lists the stages
    this invocation ran, hit or miss, with their artifacts, summaries and
    flags.  `outdir` (the --out of a subcommand) overrides [output]
    directory.

    Before a stage runs, every stage whose upstream is done is keyed and
    found a hit or a miss; the evolve and nsweep misses among them are
    stepped from the [datum] by one `_step` call, and each receives its
    result as the `stepped` argument of its `run`.  A hit steps nothing.

    A miss commits by one rule: its `<stage>.hash` is deleted when it is
    keyed and written back once its outputs are in place, with the names
    of any further files `run` wrote (evolve's dumps), which a hit needs
    too.  A failed run removes the outputs of every miss that did not
    commit: it leaves no marker, no output."""
    what = "[output] directory" if outdir is None else "--out"
    outdir = Path(outdir or cfg.get("output", "directory"))
    plan = _plan(cfg, stages)
    outputs = {s.name: [outdir / name for name in s.outputs] for s in plan}
    make_directory(outdir, what)
    inputs = _Inputs(cfg, outdir)
    read = {name for s in plan for name in s.needs}  # digests key their readers
    keys, misses, stepped = {}, set(), {}
    digests, artifacts, summary, flags = {}, {}, {}, []
    try:
        for stage in plan:
            if stage.name not in keys:  # it and every stage ready with it
                ready = [s for s in plan if s.name not in keys and all(
                    name in digests for name in s.needs if name in outputs)]
                files = set(os.listdir(outdir))
                for s in ready:
                    keys[s.name] = _hash_text(
                        s.name, _source_digest(),
                        *(_section_key(cfg, sec) for sec in s.sections),
                        *(digests[name] for name in s.needs if name in digests))
                    marker = outdir / f"{s.name}.hash"
                    listed = marker.read_text().split() if marker.name in files else []
                    if listed[:1] != [keys[s.name]] or not files.issuperset(
                            [*s.outputs, *listed[1:]]):
                        marker.unlink(missing_ok=True)
                        misses.add(s.name)
                stepped.update(_step(inputs, {s.name for s in ready} & misses))
            paths = outputs[stage.name]
            if stage.name in misses:
                written = stage.run(inputs, stepped.pop(stage.name, None), *paths)
                (outdir / f"{stage.name}.hash").write_text(
                    "\n".join([keys[stage.name], *(written or ())]) + "\n")
                misses.remove(stage.name)
            if stage.name in read:
                digests[stage.name] = _hash_text(*map(_hash_file, paths))
            artifacts[stage.name] = [str(p) for p in paths]
            stage_summary, stage_flags = stage.summarize(*paths)
            if stage_summary is not None:
                summary[stage.name] = stage_summary
            flags.extend(stage_flags)
    finally:  # on a failure, every miss that did not commit
        for name in misses:
            for path in outputs[name]:
                path.unlink(missing_ok=True)

    # report.json names each artifact relative to the output directory, so
    # it does not depend on where the directory is
    report = outdir / "report.json"
    _write_json(report, {"stages": [s.name for s in plan],
                         "artifacts": {s.name: list(s.outputs) for s in plan},
                         "summary": summary, "flags": flags}, indent=1)
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


CANCEL_N = 16  # the N of the fock stage's generator cancellation check


def run_fock_stage(cfg: ExperimentConfig, fock_json, conv_csv) -> None:
    # only this stage runs the Fock layer, so only it imports gpk.fock
    from .fock import (ToyScenario, apply_bogoliubov, apply_weyl, build_basis,
                       check_TNT_inequality, check_weyl_relations,
                       generator_cancellation_check, top_shell_share,
                       toy_convergence_study, vacuum)

    f = cfg.values["fock"]
    d, g, omega = len(f["h"]), f["coupling"], f["omega"]
    u = np.array(f["u"] or [1.0] * d)
    phi0 = np.array(f["phi0"]) / np.linalg.norm(f["phi0"])
    scenario = ToyScenario(h=np.array(f["h"]), u=u, coupling=g, phi0=phi0,
                           kappa0=f["kappa0"], t_final=f["t_final"],
                           N_list=tuple(f["n_values"]))
    rep = toy_convergence_study(scenario)

    # the cancellation check, structural residuals and spectral constants,
    # at toy scale on one probe basis
    probe = build_basis(d, budgets.PROBE_CUTOFF)
    cancel = None
    if omega is not None:
        matched = generator_cancellation_check(probe, u, g, CANCEL_N, phi0,
                                               omega)
        bare = generator_cancellation_check(probe, u, g, CANCEL_N, phi0,
                                            omega, kappa=0.0)
        cancel = {
            "matched_ratio": matched.ratio,
            "uncorrelated_ratio": bare.ratio,
            "kappa": matched.kappa,
        }
    # real probes: their unitaries and the products of the checks are real
    weyl_rep = check_weyl_relations(probe, 0.1 * phi0, 0.08 * phi0)
    tnt = check_TNT_inequality(probe, np.full((d, d), 0.02) + 0.06 * np.eye(d))
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
            "probe_state_top_shell": top_shell_share(probe, leak_state),
            "tolerance": budgets.LEAKAGE_TOL,
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

