import csv
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gpk import bench, dynamics, fieldio, fock
from gpk.bench import (
    load_config,
    load_solution_json,
    dump_solution_json,
    run_pipeline,
    write_scattering_csv,
)
from gpk.cli import THREAD_VARIABLES, main as cli_main
from gpk.dynamics import GridSpec, NonlinearitySpec, WaveFunction, gaussian_datum
from gpk.errors import (
    ConfigurationError,
    DomainError,
    InvariantViolation,
    NumericalBlowupError,
    TruncationBudgetError,
)
from gpk.fieldio import read_field, write_field
from gpk.rates import fit_rate
from gpk.scattering import RadialPotential, solve_zero_energy

BASE_CONFIG = """
[potential]
family = square-well
height = 8.0
radius = 1.0
rmax = 5.0
points = 2000

[grid]
dim = 1
length = 16.0
points = 128
dt = 1e-3
t_final = 0.1

[datum]
sigma = 1.0

[nonlinearity]
kind = modified
n = 8

[nsweep]
n_values = 8 16 32 64
t_star = 0.1

[output]
directory = {outdir}
"""


def write_config(tmp_path, text=None, name="exp.ini"):
    cfg_path = tmp_path / name
    cfg_path.write_text((text or BASE_CONFIG).format(outdir=tmp_path / "out"))
    return cfg_path


def test_fit_rate_synthetic():
    rep = fit_rate([4, 8, 16, 32], [1 / n for n in (4, 8, 16, 32)])
    assert rep.slope == pytest.approx(-1.0, abs=1e-12)
    assert rep.r_squared == pytest.approx(1.0, abs=1e-12)
    rep2 = fit_rate([4, 8, 16], [n ** -0.5 for n in (4, 8, 16)])
    assert rep2.slope == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(ConfigurationError):
        fit_rate([4, 8], [1.0, 0.5])
    # three points at two distinct x, or at one, fit no line
    for x in ([4, 4, 8], [4, 4, 4]):
        with pytest.raises(ConfigurationError, match="3 distinct points"):
            fit_rate(x, [1.0, 0.5, 0.25])
    with pytest.raises(DomainError):
        fit_rate([4, 8, 16], [1.0, 0.0, 0.5])


def test_field_io_round_trip(tmp_path):
    grid = GridSpec(dim=2, box_length=8.0, points_per_axis=16, dt=1e-3,
                    t_final=0.0)
    psi = gaussian_datum(grid, sigma=0.8)
    path = tmp_path / "field.bin"
    write_field(path, psi, t=0.25)
    back, t = read_field(path)
    assert t == 0.25
    assert back.grid.dim == 2 and back.grid.points_per_axis == 16
    assert np.array_equal(back.values, psi.values)


def test_dumps_round_trip_every_bit(tmp_path):
    # signed zeros and non-finite parts must come back as written
    grid = GridSpec(dim=1, box_length=8.0, points_per_axis=16, dt=1e-3,
                    t_final=0.0)
    odd = [complex(-0.0, 1.0), complex(-0.0, -0.0), complex(1.0, math.inf),
           complex(math.nan, -0.0)]
    vals = gaussian_datum(grid).values.astype(complex)
    vals[:4] = odd
    write_field(tmp_path / "f.bin", WaveFunction(values=vals, grid=grid))
    back, _ = read_field(tmp_path / "f.bin")
    assert back.values.tobytes() == vals.tobytes()


def test_dump_header_with_a_corrupt_dim_is_rejected(tmp_path):
    # a dim of 2^31 must be refused before it sizes the values
    path = tmp_path / "f.bin"
    path.write_bytes(struct.pack("<4sIII d d", b"GPKF", 1, 2**31, 16, 1.0, 0.0))
    with pytest.raises(ConfigurationError, match="not a gpk field dump"):
        read_field(path)


def test_solution_json_round_trip(tmp_path):
    V = RadialPotential.square_well(8.0, 1.0)
    sol = solve_zero_energy(V, 5.0, 2000)
    path = tmp_path / "scattering.json"
    dump_solution_json(sol, path)
    assert "profile" not in json.loads(path.read_text())
    with np.load(path.with_suffix(".npz")) as data:
        assert set(data.files) == {"f", "dw_dr", "defect"}
    sol2 = load_solution_json(path)
    V2 = sol2.potential
    assert sol2.a0 == sol.a0
    assert sol2.a0_derivative == sol.a0_derivative
    # every array comes back bit for bit, the derived r_grid and w included
    for name in ("r_grid", "f", "w", "dw_dr", "defect"):
        got, want = getattr(sol2, name), getattr(sol, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
    assert V2.r_support == pytest.approx(V.r_support, abs=1e-9)
    # V is rebuilt exactly, jump included, not interpolated from samples
    r = np.linspace(0.0, 2.0, 2001)
    assert np.array_equal(V2(r), V(r))
    assert V2.breakpoints == V.breakpoints


def set_profile_value(npz, name, value, index=10):
    """Rewrite the scattering profile `npz` with one value of array `name`
    replaced (None is stored as NaN, as a JSON null was read)."""
    with np.load(npz) as data:
        arrays = dict(data)
    arrays[name][index] = value
    np.savez(npz, **arrays)


@pytest.mark.parametrize("key, bad", [
    ("profile.f", math.inf), ("profile.dw_dr", None),
    ("profile.defect", math.nan), ("a0_tail", math.nan),
    ("a0_derivative", None), ("ode_residual", math.inf),
    ("tail_fit_error", math.nan), ("rmax", None),
])
def test_solution_json_with_a_non_finite_number_is_refused(tmp_path, key, bad):
    # a profile.* key names an array of scattering.npz, the others a scalar
    # of scattering.json
    V = RadialPotential.square_well(8.0, 1.0)
    path = tmp_path / "scattering.json"
    payload = dump_solution_json(solve_zero_energy(V, 5.0, 2000), path)
    section, _, name = key.rpartition(".")
    if section:
        where = path.with_suffix(".npz")
        set_profile_value(where, name, bad)
    else:
        where = path
        payload[key] = bad
        path.write_text(json.dumps(payload))
    with pytest.raises(ConfigurationError) as err:
        load_solution_json(path)
    assert f"{where}: {name} holds non-finite values" in str(err.value)


def test_evolve_on_a_scattering_json_holding_nan_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    run_pipeline(load_config(cfg_path), stages=("scattering",))
    npz = tmp_path / "out" / "scattering.npz"
    set_profile_value(npz, "f", math.nan)
    # the edited file changes the evolve key, so evolve reads the profile
    assert cli_main(["evolve", "--config", str(cfg_path)]) == 2
    assert f"{npz}: f holds non-finite values" in capsys.readouterr().err


def scattering_artifact(tmp_path, capsys):
    """A field dump and the artifact pair s.json + s.npz of `gpk scattering`,
    and the arguments of `gpk kernels` that read them."""
    assert cli_main([
        "scattering", "--potential", "square-well:height=8,radius=1",
        "--rmax", "5.0", "--points", "2000", "--out", str(tmp_path / "s.csv"),
    ]) == 0
    grid = GridSpec(dim=1, box_length=16.0, points_per_axis=32, dt=1e-3,
                    t_final=0.0)
    write_field(tmp_path / "phi.bin", gaussian_datum(grid))
    capsys.readouterr()
    return tmp_path / "s.json", ["kernels", "--phi", str(tmp_path / "phi.bin"),
                                 "--scattering", str(tmp_path / "s.json"),
                                 "--N", "2", "--out", str(tmp_path / "kout")]


@pytest.mark.parametrize("file, key", [
    ("json", "a0_tail"), ("json", "tail_fit_error"), ("json", "potential"),
    ("json", "rmax"), ("npz", "f"), ("npz", "dw_dr"), ("npz", "defect"),
])
def test_cli_kernels_scattering_artifact_missing_a_key_exits_2(
        tmp_path, capsys, file, key):
    path, args = scattering_artifact(tmp_path, capsys)
    if file == "json":
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
    else:
        with np.load(path.with_suffix(".npz")) as data:
            arrays = dict(data)
        del arrays[key]
        np.savez(path.with_suffix(".npz"), **arrays)
    assert cli_main(args) == 2
    where = path.with_suffix(f".{file}")
    assert f"error: {where}: no {key}; solve it again" in capsys.readouterr().err
    assert not (tmp_path / "kout" / "kernel_bounds.csv").exists()


def test_cli_kernels_refuses_the_five_array_layout(tmp_path, capsys):
    # an artifact written before rmax: no rmax, and r and w stored as arrays
    path, args = scattering_artifact(tmp_path, capsys)
    payload = json.loads(path.read_text())
    del payload["rmax"]
    path.write_text(json.dumps(payload))
    sol = solve_zero_energy(RadialPotential.square_well(8.0, 1.0), 5.0, 2000)
    np.savez(path.with_suffix(".npz"), r=sol.r_grid, f=sol.f, w=sol.w,
             dw_dr=sol.dw_dr, defect=sol.defect)
    assert cli_main(args) == 2
    assert f"error: {path}: no rmax; solve it again" in capsys.readouterr().err


# edits of scattering.npz after which its arrays are no longer one profile
PROFILE_DAMAGE = {
    "f-5-short": lambda a: a.update(f=a["f"][:-5]),
    "dw_dr-1-short": lambda a: a.update(dw_dr=a["dw_dr"][1:]),
    "defect-as-long-as-f": lambda a: a.update(defect=np.append(a["defect"], 0.0)),
    "defect-2-short": lambda a: a.update(defect=a["defect"][:-1]),
    "f-a-scalar": lambda a: a.update(f=a["f"][0]),
    "one-sample": lambda a: a.update(f=a["f"][:1], dw_dr=a["dw_dr"][:1],
                                     defect=a["defect"][:0]),
}


@pytest.mark.parametrize("damage", list(PROFILE_DAMAGE))
def test_cli_kernels_arrays_that_are_not_one_profile_exit_2(
        tmp_path, capsys, damage):
    path, args = scattering_artifact(tmp_path, capsys)
    npz = path.with_suffix(".npz")
    with np.load(npz) as data:
        arrays = dict(data)
    PROFILE_DAMAGE[damage](arrays)
    np.savez(npz, **arrays)
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert f"error: {npz}: f, dw_dr and defect have shapes" in err
    assert not (tmp_path / "kout" / "kernel_bounds.csv").exists()


@pytest.mark.parametrize("value, where", [(np.nan, 5), (0.0, slice(None))],
                         ids=["one-nan", "all-zero"])
def test_cli_kernels_field_that_is_not_finite_or_has_zero_norm_exits_2(
        tmp_path, capsys, value, where):
    _, args = scattering_artifact(tmp_path, capsys)
    phi_path = tmp_path / "phi.bin"
    psi, _ = read_field(phi_path)
    values = psi.values.copy()
    values[where] = value
    write_field(phi_path, WaveFunction(values=values, grid=psi.grid))
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert f"error: {phi_path}: field is not finite or has zero norm" in err
    assert not (tmp_path / "kout" / "kernel_bounds.csv").exists()


@pytest.mark.parametrize("line, bad", [
    ("sigma = 1.0", "sigma = 1e-300"),
    ("[output]", "[kernels]\nn_values = 2\nsigma = 1e308\n\n[output]"),
], ids=["datum-underflow", "kernels-overflow"])
def test_a_gaussian_width_whose_square_leaves_the_floats_exits_2(
        tmp_path, capsys, line, bad):
    cfg_path = write_config(tmp_path, BASE_CONFIG.replace(line, bad))
    assert cli_main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "Gaussian width sigma = 1e" in err and "Traceback" not in err


@pytest.mark.parametrize("rmax", [0.0, -5.0, [5.0], "5.0", True],
                         ids=["zero", "negative", "a-list", "a-text", "true"])
def test_cli_kernels_rmax_that_is_not_a_positive_number_exits_2(
        tmp_path, capsys, rmax):
    path, args = scattering_artifact(tmp_path, capsys)
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, "rmax": rmax}))
    assert cli_main(args) == 2
    assert f"error: {path}: rmax" in capsys.readouterr().err
    assert not (tmp_path / "kout" / "kernel_bounds.csv").exists()


@pytest.mark.parametrize("text, what", [
    ("5", "no potential"),
    ('{"a0_tail": "abc"}', "a0_tail = 'abc' is not a number"),
    ('{"a0_tail": "0.5"}', "a0_tail = '0.5' is not a number"),
    ('{"ode_residual": true}', "ode_residual = True is not a number"),
    ('{"potential": "square-well"}',
     "the potential spec 'square-well' is not a mapping"),
    ('{"potential": 3}', "the potential spec 3 is not a mapping"),
    ('{"potential": {"family": "square-well", "height": [1, 2]}}',
     "height = [1, 2] is not a number"),
], ids=["a-number", "a-text-scalar", "a-numeric-text-scalar",
        "a-bool-scalar", "a-text-potential", "a-number-potential",
        "a-list-height"])
def test_cli_kernels_scattering_json_of_the_wrong_type_exits_2(
        tmp_path, capsys, text, what):
    path, args = scattering_artifact(tmp_path, capsys)
    payload = json.loads(path.read_text())
    edited = json.loads(text)
    path.write_text(json.dumps({**payload, **edited}
                               if isinstance(edited, dict) else edited))
    assert cli_main(args) == 2
    assert f"error: {path}: {what}" in capsys.readouterr().err


@pytest.mark.parametrize("damage", ["truncated", "missing", "not-zip", "npy"])
def test_cli_kernels_unreadable_scattering_npz_exits_2(tmp_path, capsys,
                                                       damage):
    path, args = scattering_artifact(tmp_path, capsys)
    npz = path.with_suffix(".npz")
    if damage == "truncated":
        npz.write_bytes(npz.read_bytes()[:-40])
    elif damage == "missing":
        npz.unlink()
    elif damage == "not-zip":
        npz.write_text("r,f,w\n0.0,1.0,0.0\n")
    else:  # a bare .npy array under the .npz name
        np.save(tmp_path / "bare.npy", np.zeros(4))
        (tmp_path / "bare.npy").replace(npz)
    assert cli_main(args) == 2
    err = capsys.readouterr().err
    assert f"error: {npz} is not a scattering profile" in err
    assert "solve it again" in err


def test_scattering_csv_cells_are_numbers(tmp_path):
    sol = solve_zero_energy(RadialPotential.square_well(8.0, 1.0), 5.0, 2000)
    path = tmp_path / "scattering.csv"
    write_scattering_csv(sol, path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["r", "f", "w", "dw_dr"]
    columns = zip(*([float(cell) for cell in row] for row in rows))
    for got, want in zip(columns, (sol.r_grid, sol.f, sol.w, sol.dw_dr)):
        assert np.array_equal(got, want)


def test_missing_config_file():
    with pytest.raises(ConfigurationError):
        load_config("/nonexistent/path.ini")


def test_missing_potential_file(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[potential]\nfile = /does/not/exist.txt\n")
    with pytest.raises(ConfigurationError, match="does not exist"):
        load_config(cfg)


def test_pipeline_runs_and_is_deterministic(tmp_path):
    cfg_path = write_config(tmp_path)
    cfg = load_config(cfg_path)
    bundle = run_pipeline(cfg)
    outdir = bundle.outdir
    files = {p.name: p.read_bytes() for p in outdir.iterdir()}
    assert {"scattering.json", "scattering.npz", "norms.csv",
            "rates.csv", "report.json"} <= set(files)

    # every file byte-identical on a fresh run in a second directory
    out2 = tmp_path / "out2"
    bundle2 = run_pipeline(cfg, outdir=out2)
    assert sorted(p.name for p in out2.iterdir()) == sorted(files)
    for name, data in files.items():
        assert (out2 / name).read_bytes() == data, name
    assert bundle2.summary["nsweep"]["slope"] == bundle.summary["nsweep"]["slope"]

    slope = bundle.summary["nsweep"]["slope"]
    assert -1.2 < slope < -0.8


def test_pipeline_caching_soundness(tmp_path):
    cfg_path = write_config(tmp_path)
    cfg = load_config(cfg_path)
    run_pipeline(cfg)
    outdir = tmp_path / "out"
    scatter_mtime = (outdir / "scattering.json").stat().st_mtime_ns
    rates_before = (outdir / "rates.csv").read_bytes()

    # a downstream edit must not touch the upstream artifact, but must
    # regenerate the downstream one
    edited = BASE_CONFIG.replace("t_star = 0.1", "t_star = 0.05")
    cfg2 = load_config(write_config(tmp_path, edited))
    run_pipeline(cfg2)
    assert (outdir / "scattering.json").stat().st_mtime_ns == scatter_mtime
    assert (outdir / "rates.csv").read_bytes() != rates_before

    # an upstream edit invalidates downstream stages too
    rates_after = (outdir / "rates.csv").read_bytes()
    edited_up = edited.replace("height = 8.0", "height = 6.0")
    cfg3 = load_config(write_config(tmp_path, edited_up))
    run_pipeline(cfg3)
    assert (outdir / "scattering.json").stat().st_mtime_ns != scatter_mtime
    assert (outdir / "rates.csv").read_bytes() != rates_after


@pytest.mark.parametrize("differences, slope, flags", [
    ("1e-3 5e-4 2.5e-4 1.2e-4", "-1.0", []),
    ("1e-3 4e-4 5e-4 1e-4", "-1.1",
     ["non-monotone comparison differences: possible resolution floor"]),
    ("0.0 0.0 0.0 0.0", "nan",
     ["degenerate scenario: comparison differences at round-off"]),
], ids=["monotone", "non-monotone", "degenerate"])
def test_nsweep_flags_come_from_rates_csv(tmp_path, differences, slope, flags):
    rates = tmp_path / "rates.csv"
    rates.write_text("N,l2_difference,slope\n" + "".join(
        f"{n},{y},{slope}\n" for n, y in zip((8, 16, 32, 64), differences.split())))
    summary, got = bench._summarize_nsweep(rates)
    assert got == flags
    assert str(summary["slope"]) == slope


def test_degenerate_zero_potential_flagged(tmp_path):
    text = BASE_CONFIG.replace("family = square-well", "family = zero").replace(
        "height = 8.0\nradius = 1.0\n", ""
    )
    cfg = load_config(write_config(tmp_path, text))
    bundle = run_pipeline(cfg)
    assert any("degenerate" in flag for flag in bundle.flags)


def test_cli_scattering_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "scatter.csv"
    code = cli_main([
        "scattering", "--potential", "square-well:height=8,radius=1",
        "--rmax", "5.0", "--points", "2000", "--out", str(out),
    ])
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["a0_tail"] == pytest.approx(1 - math.tanh(2.0) / 2, rel=1e-6)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "scatter.csv", "scatter.json", "scatter.npz"]
    header = out.read_text().splitlines()[0]
    assert header == "r,f,w,dw_dr"

    # configuration error -> exit 2
    code = cli_main([
        "scattering", "--potential", "square-well:height=8,radius=1",
        "--rmax", "2.0", "--out", str(out),
    ])
    assert code == 2


@pytest.mark.parametrize("suffix", [".json", ".npz"])
def test_cli_scattering_out_that_collides_with_the_artifact_exits_2(
        tmp_path, capsys, suffix):
    # the CSV export would be overwritten by the artifact pair beside it
    out = tmp_path / f"s{suffix}"
    assert cli_main(["scattering", "--potential", "square-well:height=8,radius=1",
                     "--rmax", "5.0", "--points", "2000", "--out", str(out)]) == 2
    assert f"--out {out}: the CSV export would collide" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_scattering_makes_the_directory_of_out(tmp_path, capsys):
    out = tmp_path / "new" / "dir" / "s.csv"
    assert cli_main(["scattering", "--potential", "square-well:height=8,radius=1",
                     "--rmax", "5.0", "--points", "2000", "--out", str(out)]) == 0
    assert sorted(p.name for p in out.parent.iterdir()) == [
        "s.csv", "s.json", "s.npz"]


def test_cli_scattering_out_under_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "plain").write_text("")
    out = tmp_path / "plain" / "s.csv"
    assert cli_main(["scattering", "--potential", "square-well:height=8,radius=1",
                     "--rmax", "5.0", "--points", "2000", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"error: --out {out}: cannot create the directory {out.parent}" in err
    assert list(tmp_path.iterdir()) == [tmp_path / "plain"]


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert cli_main(["run", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli_main(["report", str(tmp_path / "out")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "summary" in payload and "nsweep" in payload["summary"]



@pytest.mark.parametrize("kind", ["directory", "empty-file",
                                  "comments-only"])
def test_cli_run_of_a_config_that_is_no_config_exits_2(
        tmp_path, monkeypatch, capsys, kind):
    # neither runs the default stages nor overwrites the report of a run
    monkeypatch.chdir(tmp_path)
    report = tmp_path / "out" / "report.json"
    report.parent.mkdir()
    report.write_text('{"stages": ["earlier run"]}')
    config = tmp_path / "c.ini"
    if kind == "directory":
        config.mkdir()
    else:
        config.write_text("" if kind == "empty-file" else "# nothing\n")
    assert cli_main(["run", str(config)]) == 2
    reason = ("is not a regular file" if kind == "directory"
              else "has no section")
    assert capsys.readouterr().err == \
        f"error: config file {config} {reason}\n"
    assert report.read_text() == '{"stages": ["earlier run"]}'
    assert sorted(p.name for p in report.parent.iterdir()) == ["report.json"]


def test_cli_report_of_a_missing_or_unreadable_report_exits_2(tmp_path,
                                                              capsys):
    assert cli_main(["report", str(tmp_path)]) == 2
    assert capsys.readouterr().err == \
        f"error: no report.json under {tmp_path}\n"
    report = tmp_path / "report.json"
    report.write_text("{not json")
    assert cli_main(["report", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {report} is not JSON")


def test_cli_kernels_subcommand(tmp_path, capsys):
    scatter_csv = tmp_path / "s.csv"
    assert cli_main([
        "scattering", "--potential", "square-well:height=8,radius=1",
        "--rmax", "5.0", "--points", "2000", "--out", str(scatter_csv),
    ]) == 0
    grid = GridSpec(dim=1, box_length=16.0, points_per_axis=64, dt=1e-3,
                    t_final=0.0)
    phi = gaussian_datum(grid, sigma=1.0)
    field_path = tmp_path / "phi.bin"
    write_field(field_path, phi)
    capsys.readouterr()
    assert cli_main([
        "kernels", "--phi", str(field_path),
        "--scattering", str(scatter_csv.with_suffix(".json")),
        "--N", "2,4", "--out", str(tmp_path / "kout"),
    ]) == 0
    bounds = (tmp_path / "kout" / "kernel_bounds.csv").read_text().splitlines()
    assert bounds[0] == "N,l2_k,grad1_k_over_sqrtN,grad1_kkbar,sup_slice,cancellation_residual"
    assert len(bounds) == 3


def test_cli_fock_subcommand(tmp_path, capsys):
    text = """
[fock]
h = 0.0 -1.0 ; -1.0 0.2
u = 1.0 1.0
coupling = 0.5
phi0 = 1.0 0.0
kappa0 = 0.2
t_final = 0.3
n_values = 3 6 12
omega = 0.0025

[output]
directory = {outdir}
"""
    cfg_path = write_config(tmp_path, text, name="fock.ini")
    assert cli_main(["fock", "--scenario", str(cfg_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["slope"] <= -0.4
    assert payload["cancellation"]["uncorrelated_ratio"] >= 0.9
    conv = (tmp_path / "out" / "toy_convergence.csv").read_text().splitlines()
    assert conv[0] == "N,t,trace_distance,number_expectation"


def test_cli_evolve_with_field_dumps(tmp_path, capsys):
    text = """
[grid]
dim = 1
length = 16.0
points = 64
dt = 1e-3
t_final = 0.05

[datum]
sigma = 1.0

[nonlinearity]
kind = gp
a0 = 0.1

[snapshots]
stride = 25
fields = yes

[output]
directory = {outdir}
"""
    cfg_path = write_config(tmp_path, text, name="evolve.ini")
    assert cli_main(["evolve", "--config", str(cfg_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["energy_drift"] < 1e-8
    outdir = tmp_path / "out"
    dumps = sorted(outdir.glob("field_*.bin"))
    assert len(dumps) == 3  # t = 0, 0.025, 0.05
    psi, t = read_field(dumps[-1])
    assert t == pytest.approx(0.05)
    assert psi.l2_norm == pytest.approx(1.0, abs=1e-10)


def test_tail_warnings_come_from_norms_csv_on_cache_hits(tmp_path):
    # a narrow datum on a coarse grid leaves spectral mass near k_max
    text = """
[grid]
dim = 1
length = 16.0
points = 128
dt = 1e-3
t_final = 0.02

[datum]
sigma = 0.1

[nonlinearity]
kind = gp
a0 = 0.1

[output]
directory = {outdir}
"""
    cfg = load_config(write_config(tmp_path, text))
    fresh = run_pipeline(cfg)
    norms = fresh.outdir / "norms.csv"
    assert norms.read_text().splitlines()[0] == \
        "t,l2,energy,h1,h2,h3,h4,tail_mass"
    tail = [f for f in fresh.flags if "spectral tail mass" in f]
    assert tail and tail[0].startswith("t = 0:")
    stamp = norms.stat().st_mtime_ns
    warm = run_pipeline(cfg)
    assert norms.stat().st_mtime_ns == stamp  # the evolve stage was a hit
    assert warm.flags == fresh.flags
    report = json.loads((fresh.outdir / "report.json").read_text())
    assert report["flags"] == fresh.flags


def test_report_json_does_not_depend_on_the_output_directory(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    reports = []
    for name in ("a", "b"):
        outdir = tmp_path / name
        assert cli_main(["evolve", "--config", str(cfg_path),
                         "--out", str(outdir)]) == 0
        reports.append((outdir / "report.json").read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["artifacts"]["evolve"] == ["norms.csv"]
    capsys.readouterr()


def test_fresh_and_partial_warm_runs_give_identical_artifacts(tmp_path):
    # the scattering stage is a cache hit on the rerun; evolve and nsweep
    # must rebuild from the stored profile exactly what the fresh run wrote
    cfg = load_config(write_config(tmp_path))
    outdir = run_pipeline(cfg).outdir
    names = ("norms.csv", "rates.csv", "report.json")
    fresh = {name: (outdir / name).read_bytes() for name in names}
    scatter_mtime = (outdir / "scattering.json").stat().st_mtime_ns
    (outdir / "evolve.hash").unlink()
    (outdir / "nsweep.hash").unlink()
    run_pipeline(cfg)
    assert (outdir / "scattering.json").stat().st_mtime_ns == scatter_mtime
    for name in names:
        assert (outdir / name).read_bytes() == fresh[name], name


# the evolve stage with field dumps, 100 steps as the nsweep stage takes
DYNAMICS_CONFIG = BASE_CONFIG + "\n[snapshots]\nstride = 10\nfields = yes\n"


def artifact_bytes(outdir):
    """Every file of a run but the `*.hash` markers, by name."""
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())
            if p.suffix != ".hash"}


def every_file(outdir):
    """Every file of a run, `*.hash` markers included, by name."""
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


def recording_members(monkeypatch):
    """Per `_propagate` call its member count, one per nonlinearity passed,
    and the labels of its members, each in a list."""
    counts, labels = [], []
    propagate = dynamics._propagate

    def counted(psi0, nls, member_labels, *args, **kwargs):
        counts.append(len(nls))
        labels.append(list(member_labels))
        return propagate(psi0, nls, member_labels, *args, **kwargs)

    monkeypatch.setattr(dynamics, "_propagate", counted)
    return counts, labels


SWEEP_LABELS = ["nsweep limiting GP", "nsweep N = 8", "nsweep N = 16",
                "nsweep N = 32", "nsweep N = 64"]


def test_deleting_one_dynamics_hash_keeps_every_artifact(tmp_path, monkeypatch):
    cfg = load_config(write_config(tmp_path, DYNAMICS_CONFIG))
    outdir = run_pipeline(cfg).outdir
    fresh = artifact_bytes(outdir)
    assert "field_0010.bin" in fresh
    counts, labels = recording_members(monkeypatch)
    for stage, output, other in (("evolve", "norms.csv", "rates.csv"),
                                 ("nsweep", "rates.csv", "norms.csv")):
        (outdir / f"{stage}.hash").unlink()
        stamps = {name: (outdir / name).stat().st_mtime_ns
                  for name in (output, other)}
        run_pipeline(cfg)
        assert artifact_bytes(outdir) == fresh, stage
        # the stage reran alone; the other one was a hit and added no member
        assert (outdir / output).stat().st_mtime_ns != stamps[output]
        assert (outdir / other).stat().st_mtime_ns == stamps[other]
    assert labels == [["evolve"], SWEEP_LABELS]
    assert counts == [1, 5]


@pytest.mark.parametrize("rerun", ["stride = 50\nfields = yes",
                                   "stride = 10\nfields = no"],
                         ids=["larger-stride", "fields-no"])
def test_a_rerun_keeps_no_field_dump_of_an_earlier_run(tmp_path, rerun):
    first = load_config(write_config(tmp_path, DYNAMICS_CONFIG))
    outdir = run_pipeline(first, stages=("evolve",)).outdir
    assert len(list(outdir.glob("field_*.bin"))) == 11
    text = DYNAMICS_CONFIG.replace("stride = 10\nfields = yes", rerun)
    second = load_config(write_config(tmp_path, text, name="second.ini"))
    run_pipeline(second, stages=("evolve",))
    fresh = run_pipeline(second, outdir=tmp_path / "fresh", stages=("evolve",))
    assert artifact_bytes(outdir) == artifact_bytes(fresh.outdir)


def test_a_deleted_field_dump_is_rebuilt(tmp_path):
    # evolve.hash lists the dumps, so a missing one makes the stage a miss
    cfg = load_config(write_config(tmp_path, DYNAMICS_CONFIG))
    outdir = run_pipeline(cfg, stages=("evolve",)).outdir
    (outdir / "field_0001.bin").unlink()
    run_pipeline(cfg, stages=("evolve",))
    fresh = run_pipeline(cfg, outdir=tmp_path / "fresh", stages=("evolve",))
    assert every_file(outdir) == every_file(fresh.outdir)


@pytest.mark.parametrize("t_star, counts, loops", [
    ("0.1", [6], [["evolve", *SWEEP_LABELS]]),
    ("0.05", [1, 5], [["evolve"], SWEEP_LABELS]),
], ids=["equal-steps", "unequal-steps"])
def test_shared_or_not_each_stage_writes_its_own_artifacts(
        tmp_path, monkeypatch, t_star, counts, loops):
    # evolve and nsweep share one step loop only when [grid] t_final and
    # [nsweep] t_star are the same number of steps; either way each writes
    # the bytes it writes when it runs alone
    text = DYNAMICS_CONFIG.replace("t_star = 0.1", f"t_star = {t_star}")
    cfg = load_config(write_config(tmp_path, text))
    stepped, labels = recording_members(monkeypatch)
    both = artifact_bytes(run_pipeline(cfg).outdir)
    assert stepped == counts
    assert labels == loops
    for stage in ("evolve", "nsweep"):
        alone = run_pipeline(cfg, outdir=tmp_path / stage, stages=(stage,))
        for name, data in artifact_bytes(alone.outdir).items():
            if name != "report.json":
                assert both[name] == data, (stage, name)


class _NanAbove:
    """A stand-in interaction table that is NaN above a momentum."""

    at_zero = 1.0

    def __init__(self, cut):
        self.cut = cut

    def __call__(self, p):
        return np.where(np.abs(p) > self.cut, np.nan, 1.0)


@pytest.mark.parametrize("n, member", [(8, "evolve"), (64, "nsweep N = 8")])
def test_a_blowup_in_the_shared_stack_names_its_stage_and_member(
        tmp_path, capsys, monkeypatch, n, member):
    # dealiased |k| reaches 2/3 * 8 pi = 16.8 on this grid, so the table
    # is NaN for N = 8 (p/N up to 2.1) and finite for N >= 16 (up to 1.05)
    cfg_path = write_config(tmp_path, BASE_CONFIG.replace("n = 8\n", f"n = {n}\n"))
    monkeypatch.setattr(bench._Inputs, "interaction", property(
        lambda inp: NonlinearitySpec(kind="modified", coupling=1.0, N=1,
                                     uhat=_NanAbove(1.5))))
    with pytest.raises(NumericalBlowupError,
                       match=rf"non-finite field detected \({member}\)$"):
        run_pipeline(load_config(cfg_path))
    assert cli_main(["run", str(cfg_path)]) == 3
    assert f"({member})" in capsys.readouterr().err
    outdir = tmp_path / "out"
    assert (outdir / "scattering.hash").exists()
    assert not (outdir / "evolve.hash").exists()
    assert not (outdir / "nsweep.hash").exists()


def test_edited_potential_table_rebuilds_scattering(tmp_path):
    table = tmp_path / "well.txt"
    table.write_text("0.0 8.0\n1.0 8.0\n1.1 0.0\n2.0 0.0\n")
    text = f"""
[potential]
file = {table}
rmax = 6.0
points = 2000

[output]
directory = {{outdir}}
"""
    cfg = load_config(write_config(tmp_path, text))
    first = run_pipeline(cfg).summary["scattering"]["a0_tail"]
    table.write_text("0.0 4.0\n1.0 4.0\n1.1 0.0\n2.0 0.0\n")
    second = run_pipeline(cfg).summary["scattering"]["a0_tail"]
    assert second < first  # a lower well scatters less
    # the stored table rebuilds the edited potential
    sol = load_solution_json(tmp_path / "out" / "scattering.json")
    assert sol.potential.spec == {"family": "table", "r": [0.0, 1.0, 1.1, 2.0],
                      "v": [4.0, 4.0, 0.0, 0.0]}
    assert sol.a0 == second


def test_potential_table_file_takes_no_family_keys(tmp_path):
    table = tmp_path / "well.txt"
    table.write_text("0.0 8.0\n1.0 8.0\n1.1 0.0\n2.0 0.0\n")
    text = f"[potential]\nfile = {table}\nheight = 4.0\n\n[output]\n" \
        "directory = {outdir}\n"
    with pytest.raises(ConfigurationError, match="no family parameters, got height"):
        load_config(write_config(tmp_path, text))


def test_stage_keys_follow_real_dependencies(tmp_path):
    text = BASE_CONFIG + """
[fock]
h = 0.0 -1.0 ; -1.0 0.2
u = 1.0 1.0
coupling = 0.5
phi0 = 1.0 0.0
t_final = 0.2
n_values = 3 6 12
"""
    run_pipeline(load_config(write_config(tmp_path, text)))
    outdir = tmp_path / "out"
    fock_mtime = (outdir / "fock_report.json").stat().st_mtime_ns
    rates_before = (outdir / "rates.csv").read_bytes()
    edited = text.replace("height = 8.0", "height = 6.0")
    run_pipeline(load_config(write_config(tmp_path, edited)))
    # fock reads nothing from the scattering stage, nsweep does
    assert (outdir / "fock_report.json").stat().st_mtime_ns == fock_mtime
    assert (outdir / "rates.csv").read_bytes() != rates_before


def test_artifacts_of_other_sources_are_rebuilt(tmp_path, monkeypatch):
    ran = []

    def recording(stage):
        def run(inputs, *paths):
            ran.append(stage.name)
            stage.run(inputs, *paths)
        return replace(stage, run=run)

    monkeypatch.setattr(bench, "STAGES", tuple(map(recording, bench.STAGES)))
    cfg = load_config(write_config(tmp_path))
    with monkeypatch.context() as older:
        older.setattr(bench, "_source_digest", lambda: "older gpk sources")
        run_pipeline(cfg)
    planned = ran[:]
    assert planned == ["scattering", "evolve", "nsweep"]
    ran.clear()
    run_pipeline(cfg)
    assert ran == planned
    ran.clear()
    run_pipeline(cfg)
    assert ran == []


def test_subcommands_run_only_their_stages(tmp_path, capsys):
    text = BASE_CONFIG + """
[kernels]
dim = 1
points = 32
length = 16.0
n_values = 2 4

[fock]
h = 0.0 -1.0 ; -1.0 0.2
u = 1.0 1.0
coupling = 0.5
phi0 = 1.0 0.0
t_final = 0.2
n_values = 3 6 12
"""
    cfg_path = write_config(tmp_path, text)
    outdir = tmp_path / "out"
    assert cli_main(["evolve", "--config", str(cfg_path)]) == 0
    assert (outdir / "norms.csv").exists() and (outdir / "rates.csv").exists()
    assert not (outdir / "kernel_bounds.csv").exists()
    assert not (outdir / "fock_report.json").exists()
    report = json.loads((outdir / "report.json").read_text())
    assert report["stages"] == ["scattering", "evolve", "nsweep"]

    fock_out = tmp_path / "fock_out"
    assert cli_main(["fock", "--scenario", str(cfg_path),
                     "--out", str(fock_out)]) == 0
    assert sorted(p.name for p in fock_out.iterdir()) == [
        "fock.hash", "fock_report.json", "report.json", "toy_convergence.csv"]
    capsys.readouterr()


def test_missing_potential_is_an_error_on_a_warm_cache(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert cli_main(["run", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "scattering.json").exists()
    head, _, rest = BASE_CONFIG.partition("[grid]")
    no_potential = "[grid]" + rest.replace(
        "[nsweep]\nn_values = 8 16 32 64\nt_star = 0.1\n", "")
    assert "[potential]" not in no_potential and "[nsweep]" not in no_potential
    cfg_path = write_config(tmp_path, no_potential)
    assert cli_main(["evolve", "--config", str(cfg_path)]) == 2
    assert "modified nonlinearity needs a [potential]" in capsys.readouterr().err


def test_malformed_number_list_is_a_configuration_error(tmp_path):
    text = BASE_CONFIG.replace("n_values = 8 16 32 64", "n_values = 8 x 32 64")
    with pytest.raises(ConfigurationError, match="n_values"):
        load_config(write_config(tmp_path, text))


@pytest.mark.parametrize("spec, what", [
    ("gaussian:amp=1", "unknown parameter 'amp'"),
    ("gaussian:amplitude=abc", "is not a number"),
    ("gaussian:height=4", "unknown parameter 'height' for family 'gaussian'"),
    ("no_such_table.txt", "does not exist"),
])
def test_cli_bad_potential_argument_exits_2(tmp_path, capsys, spec, what):
    code = cli_main(["scattering", "--potential", spec,
                     "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert what in capsys.readouterr().err


@pytest.mark.parametrize("rows", ["0.0 8.0\n1 x\n", "0.0\n0.5\n1.0\n"],
                         ids=["non-number", "one-column"])
def test_cli_malformed_potential_table_exits_2(tmp_path, capsys, rows):
    table = tmp_path / "bad.txt"
    table.write_text(rows)
    code = cli_main(["scattering", "--potential", str(table),
                     "--out", str(tmp_path / "g.csv")])
    assert code == 2
    assert f"potential table {table} " in capsys.readouterr().err


def test_cli_kernels_scattering_file_not_json_exits_2(tmp_path, capsys):
    grid = GridSpec(dim=1, box_length=16.0, points_per_axis=32, dt=1e-3,
                    t_final=0.0)
    field_path = tmp_path / "phi.bin"
    write_field(field_path, gaussian_datum(grid))
    scattering = tmp_path / "s.json"
    scattering.write_text("r,f,w\n0.0,1.0,0.0\n")
    code = cli_main(["kernels", "--phi", str(field_path),
                     "--scattering", str(scattering),
                     "--N", "2", "--out", str(tmp_path / "kout")])
    assert code == 2
    assert f"{scattering} is not a JSON scattering artifact" \
        in capsys.readouterr().err


def test_cli_kernels_missing_input_files_exit_2(tmp_path, capsys):
    scatter_csv = tmp_path / "s.csv"
    assert cli_main([
        "scattering", "--potential", "square-well:height=8,radius=1",
        "--rmax", "5.0", "--points", "2000", "--out", str(scatter_csv),
    ]) == 0
    grid = GridSpec(dim=1, box_length=16.0, points_per_axis=32, dt=1e-3,
                    t_final=0.0)
    field_path = tmp_path / "phi.bin"
    write_field(field_path, gaussian_datum(grid))
    capsys.readouterr()
    good = {"--phi": str(field_path),
            "--scattering": str(scatter_csv.with_suffix(".json"))}
    for flag in good:
        args = dict(good, **{flag: str(tmp_path / "missing.bin")})
        code = cli_main(["kernels", *(x for kv in args.items() for x in kv),
                         "--N", "2", "--out", str(tmp_path / "kout")])
        assert code == 2
        assert f"{flag} " in capsys.readouterr().err
    assert cli_main(["kernels", *(x for kv in good.items() for x in kv),
                     "--N", "2,x", "--out", str(tmp_path / "kout")]) == 2


@pytest.mark.parametrize("N", ["-2", "0", "2,0", pytest.param("", id="empty")])
def test_cli_kernels_non_positive_N_exits_2(tmp_path, capsys, N):
    # --N takes the reader and bound of [kernels] n_values
    scatter_csv = tmp_path / "s.csv"
    assert cli_main([
        "scattering", "--potential", "square-well:height=8,radius=1",
        "--rmax", "5.0", "--points", "2000", "--out", str(scatter_csv),
    ]) == 0
    grid = GridSpec(dim=1, box_length=16.0, points_per_axis=32, dt=1e-3,
                    t_final=0.0)
    field_path = tmp_path / "phi.bin"
    write_field(field_path, gaussian_datum(grid))
    capsys.readouterr()
    code = cli_main(["kernels", "--phi", str(field_path),
                     "--scattering", str(scatter_csv.with_suffix(".json")),
                     "--N", N, "--out", str(tmp_path / "kout")])
    assert code == 2
    shown = [int(tok) for tok in N.split(",") if tok]
    what = f"{shown} must be >= 1" if shown else "'' is not one or more integers"
    assert f"--N = {what}" in capsys.readouterr().err
    assert not (tmp_path / "kout").exists()


@pytest.mark.parametrize("values", ["2 0", "-1", pytest.param("", id="empty")])
def test_kernels_n_values_below_1_refused_before_any_stage(tmp_path, values):
    text = BASE_CONFIG + (
        "\n[kernels]\ndim = 1\npoints = 32\nlength = 16.0\n"
        f"n_values = {values}\n")
    with pytest.raises(ConfigurationError, match=r"\[kernels\] n_values"):
        load_config(write_config(tmp_path, text))
    assert not (tmp_path / "out").exists()


def test_cli_kernels_truncated_field_dump_exits_2(tmp_path, capsys):
    scatter_csv = tmp_path / "s.csv"
    assert cli_main([
        "scattering", "--potential", "square-well:height=8,radius=1",
        "--rmax", "5.0", "--points", "2000", "--out", str(scatter_csv),
    ]) == 0
    grid = GridSpec(dim=1, box_length=16.0, points_per_axis=32, dt=1e-3,
                    t_final=0.0)
    field_path = tmp_path / "phi.bin"
    write_field(field_path, gaussian_datum(grid))
    field_path.write_bytes(field_path.read_bytes()[:-3])
    capsys.readouterr()
    code = cli_main(["kernels", "--phi", str(field_path),
                     "--scattering", str(scatter_csv.with_suffix(".json")),
                     "--N", "2", "--out", str(tmp_path / "kout")])
    assert code == 2
    assert "field dump holds" in capsys.readouterr().err


def test_misspelled_potential_key_exits_2(tmp_path, capsys):
    text = BASE_CONFIG.replace("height = 8.0", "heigth = 4.0")
    assert cli_main(["run", str(write_config(tmp_path, text))]) == 2
    err = capsys.readouterr().err
    assert "unknown key 'heigth' in [potential] for family 'square-well'; " \
        "did you mean 'height'?" in err


def test_warm_rerun_never_parses_the_scattering_profile(tmp_path, monkeypatch):
    cfg = load_config(write_config(tmp_path))
    outdir = run_pipeline(cfg).outdir
    fresh = (outdir / "report.json").read_bytes()
    loaded = []
    real_load = np.load

    def recording_load(file, *args, **kwargs):
        loaded.append(Path(file).name)
        return real_load(file, *args, **kwargs)

    monkeypatch.setattr(np, "load", recording_load)
    warm = run_pipeline(cfg)
    assert (outdir / "report.json").read_bytes() == fresh
    assert loaded == []
    assert warm.summary["scattering"]["a0_tail"] == pytest.approx(
        1 - math.tanh(2.0) / 2, rel=1e-6)
    # the recorder sees the profile read of a stage that misses
    (outdir / "evolve.hash").unlink()
    run_pipeline(cfg)
    assert loaded == ["scattering.npz"]
    assert (outdir / "report.json").read_bytes() == fresh


FOCK_CONFIG = """
[fock]
h = 0.0 -1.0 ; -1.0 0.2
u = 1.0 1.0
coupling = 0.5
phi0 = 1.0 0.0
t_final = 0.3
n_values = 3 6 12

[output]
directory = {outdir}
"""


@pytest.mark.parametrize("line, bad, what", [
    ("h = 0.0 -1.0 ; -1.0 0.2", "h = 0.0 -1.0 ; -1.0 x", "[fock] h = "),
    ("h = 0.0 -1.0 ; -1.0 0.2", "h = 0.0 -1.0 ; -1.0",
     "[fock] h must be a nonempty square matrix, got rows of [2, 1] numbers"),
    ("phi0 = 1.0 0.0", "phi0 = 1.0 0.0 0.0", "phi0 needs d = 2 numbers, got 3"),
    ("u = 1.0 1.0", "u = 1.0", "u needs d = 2 numbers, got 1"),
    ("phi0 = 1.0 0.0", "phi0 = 0.0 0.0", "phi0 must be a nonzero"),
], ids=["h-token", "h-not-square", "phi0-length", "u-length", "phi0-zero"])
def test_cli_bad_fock_input_exits_2(tmp_path, capsys, line, bad, what):
    assert line in FOCK_CONFIG
    cfg_path = write_config(tmp_path, FOCK_CONFIG.replace(line, bad),
                            name="fock.ini")
    assert cli_main(["fock", "--scenario", str(cfg_path)]) == 2
    assert what in capsys.readouterr().err


@pytest.mark.parametrize("base, line, bad, what", [
    (BASE_CONFIG, "dt = 1e-3", "dt = nan", "[grid] dt = 'nan'"),
    (BASE_CONFIG, "t_final = 0.1", "t_final = inf", "[grid] t_final = 'inf'"),
    (BASE_CONFIG, "t_star = 0.1", "t_star = inf", "[nsweep] t_star = 'inf'"),
    (FOCK_CONFIG, "t_final = 0.3", "t_final = nan", "[fock] t_final = 'nan'"),
    (FOCK_CONFIG, "coupling = 0.5", "coupling = nan",
     "[fock] coupling = 'nan'"),
    (FOCK_CONFIG, "n_values = 3 6 12", "n_values = 3 6 12\nomega = nan",
     "[fock] omega = 'nan'"),
], ids=["grid-dt", "grid-t_final", "nsweep-t_star", "fock-t_final",
        "fock-coupling", "fock-omega"])
def test_non_finite_config_number_exits_2(tmp_path, capsys, base, line, bad,
                                          what):
    assert base.count(line) == 1
    cfg_path = write_config(tmp_path, base.replace(line, bad))
    assert cli_main(["run", str(cfg_path)]) == 2
    assert f"{what} is not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("base, line, bad, what", [
    (FOCK_CONFIG, "n_values = 3 6 12", "n_values = 0 6 12",
     "[fock] n_values = [0, 6, 12] must be >= 1"),
    (FOCK_CONFIG, "n_values = 3 6 12", "n_values = 3 -4 12",
     "[fock] n_values = [3, -4, 12] must be >= 1"),
    (FOCK_CONFIG, "n_values = 3 6 12", "n_values = 4 8",
     "[fock] n_values: rate fit needs at least 3 distinct points"),
    (FOCK_CONFIG, "n_values = 3 6 12", "n_values = 4 4 4",
     "[fock] n_values: rate fit needs at least 3 distinct points"),
    (BASE_CONFIG, "[output]", "[snapshots]\nstride = -3\n\n[output]",
     "[snapshots] stride = -3 must be >= 1"),
    (BASE_CONFIG, "n_values = 8 16 32 64", "n_values = 0 0 0 0",
     "[nsweep] n_values = [0, 0, 0, 0] must be >= 1"),
    (BASE_CONFIG, "n_values = 8 16 32 64", "n_values = 8 16",
     "[nsweep] n_values: need at least 4 values of N, got [8, 16]"),
    (BASE_CONFIG, "n_values = 8 16 32 64", "n_values = 8 16 24 40",
     "[nsweep] n_values: N values must be distinct and geometrically spaced "
     "(RATIO_SLACK), got [8, 16, 24, 40]"),
    (BASE_CONFIG, "n_values = 8 16 32 64", "n_values = 8 8 8 8",
     "[nsweep] n_values: N values must be distinct and geometrically spaced "
     "(RATIO_SLACK), got [8, 8, 8, 8]"),
    (BASE_CONFIG, "sigma = 1.0", "sigma = 0",
     "[datum] sigma = '0' is not a positive finite number"),
    (BASE_CONFIG, "[output]", "[kernels]\nn_values = 2\nsigma = -1\n\n[output]",
     "[kernels] sigma = '-1' is not a positive finite number"),
], ids=["fock-N-zero", "fock-N-negative", "fock-N-two", "fock-N-repeated",
        "stride", "nsweep-N-zero", "nsweep-N-two", "nsweep-N-not-geometric",
        "nsweep-N-repeated", "datum-sigma-zero", "kernels-sigma-negative"])
def test_out_of_range_count_exits_2_before_any_stage(tmp_path, capsys, base,
                                                      line, bad, what):
    assert base.count(line) == 1
    cfg_path = write_config(tmp_path, base.replace(line, bad))
    assert cli_main(["run", str(cfg_path)]) == 2
    assert what in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # checked before anything ran


FOCK_D4_CONFIG = """
[fock]
h = 0.0 -1.0 0.0 0.0 ; -1.0 0.0 -1.0 0.0 ; 0.0 -1.0 0.0 -1.0 ; 0.0 0.0 -1.0 0.0
u = 1.0 1.0 1.0 1.0
coupling = 0.5
phi0 = 1.0 0.0 0.0 0.0
t_final = 0.3
n_values = 3 6 12

[output]
directory = {outdir}
"""


FOCK_D5_CONFIG = FOCK_D4_CONFIG.replace(
    "h = 0.0 -1.0 0.0 0.0 ; -1.0 0.0 -1.0 0.0 ; 0.0 -1.0 0.0 -1.0 ; "
    "0.0 0.0 -1.0 0.0",
    "h = 1 0 0 0 0 ; 0 1 0 0 0 ; 0 0 1 0 0 ; 0 0 0 1 0 ; 0 0 0 0 1").replace(
    "u = 1.0 1.0 1.0 1.0", "u = 1 1 1 1 1").replace(
    "phi0 = 1.0 0.0 0.0 0.0", "phi0 = 1 0 0 0 0")


@pytest.mark.parametrize("text, what", [
    (FOCK_D4_CONFIG, "[fock] h: d = 4 modes at cutoff 12 give a basis of "
                     "dimension 1820, above the cap 1500 (DENSE_EXPM_CAP)"),
    (FOCK_D5_CONFIG, "[fock] h: d = 5 modes at cutoff 16 give a basis of "
                     "dimension 20349, above the cap 20000 (DIM_BUDGET)"),
], ids=["d", "d5-toy-study"])
def test_oversized_fock_basis_refused_before_the_toy_study(
        tmp_path, capsys, monkeypatch, text, what):
    def started(scenario):
        raise AssertionError("the toy study started")

    monkeypatch.setattr(fock, "toy_convergence_study", started)
    cfg_path = write_config(tmp_path, text, name="fock.ini")
    assert cli_main(["fock", "--scenario", str(cfg_path)]) == 2
    assert what in capsys.readouterr().err


def test_cancellation_kernel_past_the_bogoliubov_budget_exits_3(tmp_path,
                                                                 capsys):
    # omega = 0.1 at CANCEL_N = 16 asks for T(-1.6 phi phi^T)
    cfg_path = write_config(tmp_path, FOCK_CONFIG.replace(
        "n_values = 3 6 12", "n_values = 3 6 12\nomega = 0.1"), name="fock.ini")
    assert cli_main(["fock", "--scenario", str(cfg_path)]) == 3
    assert "|K|_HS = 1.6 exceeds the 1.5 budget" in capsys.readouterr().err


def test_fock_scenario_whose_orbit_blows_up_exits_3(tmp_path, capsys):
    # at coupling 1e4 the mean-field orbit leaves the floats in its second
    # step; it is refused there, not carried as NaN into the toy study
    cfg_path = write_config(tmp_path, FOCK_CONFIG.replace(
        "coupling = 0.5", "coupling = 1e4"), name="fock.ini")
    assert cli_main(["fock", "--scenario", str(cfg_path)]) == 3
    assert ("mean-field orbit blew up at g = 10000: not finite at t = 0.002, "
            "last finite at t = 0.001") in capsys.readouterr().err


def test_radial_step_wider_than_the_well_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, BASE_CONFIG.replace(
        "rmax = 5.0", "rmax = 5e4").replace("points = 2000", "points = 4000"))
    assert cli_main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "rmax / points = 12.5 exceeds r_support = 1.0" in err


def test_a_config_without_datum_evolves_the_default_datum(tmp_path):
    # a stage runs when its first section is present: [grid] for evolve,
    # whose [datum] may be left at its defaults, as nsweep's already is
    text = BASE_CONFIG.replace("[datum]\nsigma = 1.0\n", "")
    assert "[datum]" not in text
    run_pipeline(load_config(write_config(tmp_path, text, "bare.ini")))
    outdir = tmp_path / "out"
    report = json.loads((outdir / "report.json").read_text())
    assert report["stages"] == ["scattering", "evolve", "nsweep"]
    assert (outdir / "norms.csv").exists()
    # the default datum is the one an explicit [datum] sigma = 1.0 gives
    written = (outdir / "norms.csv").read_bytes()
    run_pipeline(load_config(write_config(tmp_path)))
    assert (outdir / "norms.csv").read_bytes() == written


REFERENCE = Path(__file__).resolve().parents[1] / "configs" / "reference.ini"
FOCK_D2 = """h = 0.0 -1.0 ; -1.0 0.2
u = 1.0 1.0
coupling = 0.5
phi0 = 1.0 0.0"""


@pytest.mark.parametrize("line, bad, what", [
    ("points = 128", "pionts = 32",
     "unknown key 'pionts' in [kernels]; did you mean 'points'?"),
    ("[kernels]", "[kernel]", "unknown section [kernel]; did you mean 'kernels'?"),
    ("omega = 0.0025", "omegaa = 0.0025",
     "unknown key 'omegaa' in [fock]; did you mean 'omega'?"),
    ("[datum]\nsigma = 1.0", "[datum]\nsigmaa = 1.0",
     "unknown key 'sigmaa' in [datum]; did you mean 'sigma'?"),
    ("t_final = 0.25", "t_final = 0.25\nfft_worker = 1",
     "unknown key 'fft_worker' in [grid]; expected one of dim, length, "
     "points, dt, t_final"),
    ("stride = 100", "stride = 100\nzzz = 1",
     "unknown key 'zzz' in [snapshots]; expected one of stride, fields"),
    ("fields = no", "fields = yes please",
     "[snapshots] fields = 'yes please' is not yes or no"),
    # a key that changed nothing, now gone
    ("t_final = 0.25", "t_final = 0.25\nfft_workers = -3",
     "unknown key 'fft_workers' in [grid]; expected one of dim, length, "
     "points, dt, t_final"),
    # constants and keys that follow from others, and a spelling that is no
    # family name
    ("h = 0.0 -1.0 ; -1.0 0.2", "d = 2\nh = 0.0 -1.0 ; -1.0 0.2",
     "unknown key 'd' in [fock]; expected one of h, u, coupling, phi0, "
     "kappa0, t_final, n_values, omega"),
    ("omega = 0.0025", "omega = 0.0025\ncancel_n = 16",
     "unknown key 'cancel_n' in [fock]; expected one of h, u, coupling, "
     "phi0, kappa0, t_final, n_values, omega"),
    ("omega = 0.0025", "omega = 0.0025\ncancel_cutoff = 12",
     "unknown key 'cancel_cutoff' in [fock]; expected one of h, u, coupling, "
     "phi0, kappa0, t_final, n_values, omega"),
    ("[datum]\nsigma = 1.0", "[datum]\nfamily = gaussian\nsigma = 1.0",
     "unknown key 'family' in [datum]; expected one of sigma"),
    ("kind = modified\nn = 8", "kind = gp\ncoupling = 2.0",
     "unknown key 'coupling' in [nonlinearity]; expected one of kind, a0, n"),
    ("family = square-well", "family = square_well",
     "unknown potential family 'square_well'; expected one of square-well, "
     "gaussian, zero, table"),
    ("h = 0.0 -1.0 ; -1.0 0.2", "h = 0.0 -1.0 ; -0.5 0.2",
     "exp.ini: [fock] h is not symmetric to ROUNDOFF_SLACK = 1e-12"),
    (FOCK_D2, FOCK_D4_CONFIG.partition("[fock]\n")[2].partition("\nt_final")[0],
     "[fock] h: d = 4 modes at cutoff 12 give a basis of dimension 1820, "
     "above the cap 1500"),
    ("points = 4000", "pionts = 4000",
     "unknown key 'pionts' in [potential] for family 'square-well'; "
     "did you mean 'points'?"),
    ("points = 256", "points = 100",
     "exp.ini [grid]: points_per_axis must be a power of two >= 16"),
    ("points = 128", "points = 100",
     "exp.ini [kernels]: points_per_axis must be a power of two >= 16"),
    ("dt = 2.5e-4", "dt = 2.5e-2",
     "exp.ini [grid]: |dt| * k_max^2 = 63.2 exceeds the stability budget"),
    ("dt = 2.5e-4", "dt = 3e-4",
     "exp.ini [grid]: t_final must be a whole number of dt steps"),
    ("t_star = 0.25", "t_star = 0.2501",
     "exp.ini [nsweep]: t_star must be a whole number of dt steps"),
    # -400 steps is a whole number: the fault is the sign
    ("t_final = 0.25", "t_final = -0.1",
     "exp.ini [grid]: t_final = -0.1 and dt = 0.00025 have opposite signs"),
    ("t_star = 0.25", "t_star = -0.25",
     "exp.ini [nsweep]: t_star = -0.25 and dt = 0.00025 have opposite signs"),
    # step counts past the largest float, and a cell below the smallest
    ("t_final = 0.25", "t_final = 1e308",
     "exp.ini [grid]: t_final = 1e+308 over dt = 0.00025 is not a finite "
     "number of steps"),
    ("t_star = 0.25", "t_star = 1e308",
     "exp.ini [nsweep]: t_star = 1e+308 over dt = 0.00025 is not a finite "
     "number of steps"),
    ("dt = 2.5e-4", "dt = 5e-324",
     "exp.ini [grid]: t_final = 0.25 over dt = 4.94066e-324 is not a finite "
     "number of steps"),
    ("[grid]\ndim = 1\nlength = 16.0", "[grid]\ndim = 1\nlength = 5e-324",
     "exp.ini [grid]: box_length = 4.94066e-324 over 256 points per axis "
     "gives a cell that underflows to 0"),
    # the toy study's mean-field orbit steps past the largest float
    ("t_final = 0.4", "t_final = 1e308",
     "exp.ini [fock]: t_final = 1e+308 over the orbit step 0.001 asks for "
     "inf steps, past the step budget STEP_BUDGET = 10000000"),
], ids=["kernels-pionts", "kernel-section", "fock-omegaa", "datum-sigmaa",
        "grid-fft_worker", "no-close-key", "fields-yes-please",
        "fft_workers-negative", "fock-d", "fock-cancel_n",
        "fock-cancel_cutoff", "datum-family", "nonlinearity-coupling",
        "potential-square_well", "fock-h-not-symmetric", "fock-d4",
        "potential-pionts", "grid-points", "kernels-points", "dt-unstable",
        "dt-not-whole-steps", "t_star-not-whole-steps",
        "t_final-opposite-sign", "t_star-opposite-sign", "t_final-1e308",
        "t_star-1e308", "dt-subnormal", "length-subnormal",
        "fock-t_final-1e308"])
def test_config_error_exits_2_before_any_stage(tmp_path, capsys, line, bad,
                                               what):
    text = REFERENCE.read_text().replace(
        "directory = out", f"directory = {tmp_path / 'out'}")
    assert text.count(line) == 1
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(text.replace(line, bad))
    assert cli_main(["run", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert what in err
    if line.startswith("t_star"):  # the message names only the key written
        assert "t_final" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, bad, what", [
    ("dt = 2.5e-4", "dt = 1e-300",
     "exp.ini [grid]: t_final = 0.25 over dt = 1e-300 asks for 2.5e+299 "
     "steps, past the step budget STEP_BUDGET = 10000000"),
    ("t_final = 0.25", "t_final = 1e6",
     "exp.ini [grid]: t_final = 1e+06 over dt = 0.00025 asks for 4e+09 "
     "steps, past the step budget STEP_BUDGET = 10000000"),
    ("t_final = 0.4", "t_final = 1e6",
     "exp.ini [fock]: t_final = 1e+06 over the orbit step 0.001 asks for "
     "1e+09 steps, past the step budget STEP_BUDGET = 10000000"),
], ids=["dt-1e-300", "t_final-1e6", "fock-t_final-1e6"])
def test_step_count_past_the_budget_is_refused_when_the_config_loads(
        tmp_path, line, bad, what):
    # finite step counts that no run would finish; the CLI exits 2 on the
    # ConfigurationError of load_config
    text = REFERENCE.read_text()
    assert text.count(line) == 1
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(text.replace(line, bad))
    with pytest.raises(ConfigurationError) as info:
        load_config(cfg_path)
    assert what in str(info.value)


# ---------------------------------------------------------------------------
# output directories and BLAS threads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command", ["run", "evolve", "kernels"])
def test_an_output_directory_that_is_a_file_exits_2(tmp_path, capsys,
                                                    command):
    plain = tmp_path / "plain"
    if command == "kernels":
        _, args = scattering_artifact(tmp_path, capsys)
        args[args.index("--out") + 1] = str(plain)
    else:
        cfg_path = write_config(tmp_path, BASE_CONFIG.replace(
            "{outdir}", str(plain)))
        args = (["run", str(cfg_path)] if command == "run" else
                ["evolve", "--config", str(cfg_path), "--out", str(plain)])
    plain.write_text("")
    assert cli_main(args) == 2
    assert f"cannot create the directory {plain}" in capsys.readouterr().err
    assert plain.read_text() == ""


def test_cli_sets_one_blas_thread_where_unset_before_numpy_loads(tmp_path):
    (tmp_path / "report.json").write_text('{"stages": []}')
    env = {name: value for name, value in os.environ.items()
           if name not in THREAD_VARIABLES}
    env.update(OMP_NUM_THREADS="3",
               PYTHONPATH=str(Path(bench.__file__).parents[1]))
    code = ("import json, os\nfrom gpk.cli import THREAD_VARIABLES, main\n"
            f"assert main(['report', {str(tmp_path)!r}]) == 0\n"
            "print(json.dumps([os.environ.get(n) for n in THREAD_VARIABLES]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    values = dict(zip(THREAD_VARIABLES,
                      json.loads(out.stdout.strip().splitlines()[-1])))
    assert values == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3",
                      "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def test_cli_leaves_the_threads_of_a_caller_with_numpy_loaded(
        tmp_path, capsys, monkeypatch):
    for name in THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    (tmp_path / "report.json").write_text('{"stages": []}')
    assert cli_main(["report", str(tmp_path)]) == 0
    assert [os.environ.get(name) for name in THREAD_VARIABLES] == [None] * 4


# ---------------------------------------------------------------------------
# the commit rule of a stage miss
# ---------------------------------------------------------------------------


def disk_full(*args, **kwargs):
    raise OSError(28, "No space left on device")


def failing_after_the_json(monkeypatch, stage):
    """Make the write that follows `stage`'s JSON file fail."""
    if stage == "scattering":
        monkeypatch.setattr(np, "savez", disk_full)
    else:
        write_csv = bench._write_csv
        monkeypatch.setattr(bench, "_write_csv", lambda path, *rows: (
            disk_full if "toy_convergence" in Path(path).name
            else write_csv)(path, *rows))


@pytest.mark.parametrize("stage, text, edit", [
    ("scattering",
     BASE_CONFIG.partition("[grid]")[0] + "[output]\ndirectory = {outdir}\n",
     ("height = 8.0", "height = 6.0")),
    ("fock", FOCK_CONFIG, ("coupling = 0.5", "coupling = 0.4")),
], ids=["scattering", "fock"])
def test_a_failed_in_process_miss_leaves_no_stale_hit(tmp_path, monkeypatch,
                                                      stage, text, edit):
    # the edited config's miss fails with its JSON written: it leaves no
    # marker and no output, so a rerun of the first config is a miss that
    # writes the bytes of a fresh run, not a hit on files of two configs
    cfg = load_config(write_config(tmp_path, text))
    outdir = run_pipeline(cfg).outdir
    edited = load_config(write_config(tmp_path, text.replace(*edit),
                                      name="edited.ini"))
    with monkeypatch.context() as full:
        failing_after_the_json(full, stage)
        with pytest.raises(OSError, match="No space left on device"):
            run_pipeline(edited)
    assert {p.name for p in outdir.iterdir()} == {"report.json"}
    run_pipeline(cfg)
    fresh = run_pipeline(cfg, outdir=tmp_path / "fresh")
    assert every_file(outdir) == every_file(fresh.outdir)


def test_a_failed_evolve_miss_leaves_no_field_dump(tmp_path, monkeypatch):
    # the dumps are no declared output: the evolve stage removes those it
    # wrote when a later one fails
    cfg = load_config(write_config(tmp_path, BASE_CONFIG.replace(
        "[output]", "[snapshots]\nstride = 25\nfields = yes\n\n[output]")))
    written, write_field = [], fieldio.write_field

    def second_fails(path, *args):
        if written:
            disk_full()
        written.append(path)
        write_field(path, *args)

    monkeypatch.setattr(fieldio, "write_field", second_fails)
    with pytest.raises(OSError, match="No space left on device"):
        run_pipeline(cfg, stages=("evolve",))
    assert [path.name for path in written] == ["field_0000.bin"]
    assert {p.name for p in (tmp_path / "out").iterdir()} == {
        "scattering.json", "scattering.npz", "scattering.hash"}


# ---------------------------------------------------------------------------
# the fock stage in a pipeline run
# ---------------------------------------------------------------------------

# the files of a reference run before the fock stage
CHAIN_FILES = {"scattering.json", "scattering.npz", "scattering.hash",
               "norms.csv", "evolve.hash", "rates.csv", "nsweep.hash",
               "kernel_bounds.csv", "kernels.hash"}


def reference_config(tmp_path):
    cfg_path = tmp_path / "reference.ini"
    cfg_path.write_text(REFERENCE.read_text().replace(
        "directory = out", f"directory = {tmp_path / 'out'}"))
    return cfg_path


def test_the_fock_stage_of_a_run_writes_the_bytes_of_run_fock_stage(
        tmp_path, capsys):
    # the fock stage of `gpk run` writes what run_fock_stage alone writes
    cfg_path = reference_config(tmp_path)
    assert cli_main(["run", str(cfg_path)]) == 0
    direct = tmp_path / "direct"
    direct.mkdir()
    bench.run_fock_stage(load_config(cfg_path), direct / "fock_report.json",
                         direct / "toy_convergence.csv")
    for name in ("fock_report.json", "toy_convergence.csv"):
        assert (tmp_path / "out" / name).read_bytes() == \
            (direct / name).read_bytes()
    assert {p.name for p in (tmp_path / "out").iterdir()} == CHAIN_FILES | {
        "fock_report.json", "toy_convergence.csv", "fock.hash", "report.json"}


@pytest.mark.parametrize("command, where", [
    ("run", "toy-study"), ("run", "after-the-json"),
    ("fock --scenario", "toy-study"), ("fock --scenario", "after-the-json"),
], ids=["toy-study", "after-the-json", "lone-toy-study", "lone-after-the-json"])
def test_an_error_in_the_fock_stage_exits_3_and_leaves_no_fock_output(
        tmp_path, capsys, monkeypatch, command, where):
    def over_budget(*args):
        raise TruncationBudgetError("the cutoff cannot hold the state")

    if where == "toy-study":
        monkeypatch.setattr(fock, "toy_convergence_study", over_budget)
    else:  # fock_report.json is written when the CSV fails
        write_csv = bench._write_csv
        monkeypatch.setattr(bench, "_write_csv", lambda path, *rows: (
            over_budget if "toy_convergence" in Path(path).name
            else write_csv)(path, *rows))
    assert cli_main([*command.split(), str(reference_config(tmp_path))]) == 3
    assert "error: the cutoff cannot hold the state" in capsys.readouterr().err
    # the chain ran whole; fock left no hash and no output
    assert {p.name for p in (tmp_path / "out").iterdir()} == (
        CHAIN_FILES if command == "run" else set())


def test_a_failure_before_the_fock_stage_ends_the_run(tmp_path, capsys,
                                                        monkeypatch):
    # a failure in the chain ends the run before the fock stage
    def drifting(*args, **kwargs):
        raise InvariantViolation("norm drift")

    monkeypatch.setattr(dynamics, "_propagate", drifting)
    assert cli_main(["run", str(reference_config(tmp_path))]) == 4
    assert "error: norm drift" in capsys.readouterr().err
    assert {p.name for p in (tmp_path / "out").iterdir()} == {
        "scattering.json", "scattering.npz", "scattering.hash"}


# fock_report.json of configs/reference.ini as the probe checks gave it when
# they took dense Pade unitaries, before they acted with Taylor actions
REFERENCE_FOCK_REPORT = {
    "N_list": [4, 8, 16],
    "leakages": {"probe_state_top_shell": 1.0177449503938464e-07,
                 "tolerance": 1e-06},
    "number_expectations": [0.018240543280927467, 0.017318332904447363,
                            0.016896733575472993],
    "residuals": {"weyl_product": 3.3306690738754696e-16,
                  "weyl_shift": 2.3191707790304328e-09},
    "spectral_constants": {"tnt_heuristic": 1.262682057578829,
                           "tnt_smallest_c": 1.015456344423771},
    "summary": {
        "cancellation": {"kappa": 0.04, "matched_ratio": 0.07897566771790347,
                         "uncorrelated_ratio": 1.0},
        "number_expectation_ratio": 1.0795307388526931,
        "r_squared": 0.999969668951675,
        "slope": -0.9723892759617181,
    },
    "trace_distances": [0.004505845992793023, 0.002311267946280106,
                        0.0011704144221909804],
}


def test_fock_stage_of_the_reference_config_keeps_its_values(tmp_path):
    # every number of the report to 1e-12 relative; a round-off-sized one,
    # as the Weyl product residual, to an absolute 1e-15
    def numbers(x, path=""):
        if isinstance(x, dict):
            return {k: v for key in x for k, v in numbers(x[key],
                                                          f"{path}.{key}").items()}
        if isinstance(x, list):
            return {k: v for i, item in enumerate(x)
                    for k, v in numbers(item, f"{path}[{i}]").items()}
        return {path: x}

    fock_json = tmp_path / "fock_report.json"
    bench.run_fock_stage(bench.load_config(REFERENCE), fock_json,
                         tmp_path / "toy_convergence.csv")
    got, want = (numbers(json.loads(fock_json.read_text())),
                 numbers(REFERENCE_FOCK_REPORT))
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-15), key
