import csv
import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from gpk import bench
from gpk.bench import (
    load_config,
    load_solution_json,
    dump_solution_json,
    run_pipeline,
    write_scattering_csv,
)
from gpk.cli import main as cli_main
from gpk.dynamics import GridSpec, WaveFunction, gaussian_datum
from gpk.errors import ConfigurationError, DomainError
from gpk.fieldio import read_field, read_kernel, write_field, write_kernel
from gpk.kernels import TwoPointKernel
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
family = gaussian
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
    kvals = np.ones((16, 16), dtype=complex)
    kvals[0, :4] = odd
    write_kernel(tmp_path / "k.bin", TwoPointKernel(values=kvals, grid=grid), 4)
    assert read_kernel(tmp_path / "k.bin")[0].tobytes() == kvals.tobytes()


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
    dump_solution_json(sol, V, path)
    sol2, V2 = load_solution_json(path)
    assert sol2.a0 == sol.a0
    assert sol2.a0_derivative == sol.a0_derivative
    assert np.array_equal(sol2.w, sol.w)
    assert V2.r_support == pytest.approx(V.r_support, abs=1e-9)
    # V is rebuilt exactly, jump included, not interpolated from samples
    r = np.linspace(0.0, 2.0, 2001)
    assert np.array_equal(V2(r), V(r))
    assert V2.breakpoints == V.breakpoints


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
    rates = (outdir / "rates.csv").read_bytes()
    norms = (outdir / "norms.csv").read_bytes()
    scattering = (outdir / "scattering.json").read_bytes()

    # byte-identical on a fresh run in a second directory
    out2 = tmp_path / "out2"
    bundle2 = run_pipeline(cfg, outdir=out2)
    assert (out2 / "rates.csv").read_bytes() == rates
    assert (out2 / "norms.csv").read_bytes() == norms
    assert (out2 / "scattering.json").read_bytes() == scattering
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
    assert out.exists() and out.with_suffix(".json").exists()
    header = out.read_text().splitlines()[0]
    assert header == "r,f,w,dw_dr"

    # configuration error -> exit 2
    code = cli_main([
        "scattering", "--potential", "square-well:height=8,radius=1",
        "--rmax", "2.0", "--out", str(out),
    ])
    assert code == 2


def test_cli_run_and_report(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    assert cli_main(["run", str(cfg_path)]) == 0
    capsys.readouterr()
    assert cli_main(["report", str(tmp_path / "out")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "summary" in payload and "nsweep" in payload["summary"]


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
d = 2
h = 0.0 -1.0 ; -1.0 0.2
u = 1.0 1.0
coupling = 0.5
phi0 = 1.0 0.0
kappa0 = 0.2
t_final = 0.3
n_values = 3 6 12
omega = 0.0025
cancel_n = 16
cancel_cutoff = 12

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
family = gaussian
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


def test_kernel_dump_round_trip(tmp_path, capsys):
    scatter_csv = tmp_path / "s.csv"
    assert cli_main([
        "scattering", "--potential", "square-well:height=8,radius=1",
        "--rmax", "5.0", "--points", "2000", "--out", str(scatter_csv),
    ]) == 0
    grid = GridSpec(dim=1, box_length=16.0, points_per_axis=32, dt=1e-3,
                    t_final=0.0)
    phi = gaussian_datum(grid, sigma=1.0)
    field_path = tmp_path / "phi.bin"
    write_field(field_path, phi)
    capsys.readouterr()
    assert cli_main([
        "kernels", "--phi", str(field_path),
        "--scattering", str(scatter_csv.with_suffix(".json")),
        "--N", "2", "--out", str(tmp_path / "kd"), "--dump-kernels",
    ]) == 0
    vals, dim, n, N, L = read_kernel(tmp_path / "kd" / "kernel_N2.bin")
    assert (dim, n, N, L) == (1, 32, 2, 16.0)
    assert np.array_equal(vals, vals.T)  # symmetric by construction


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
family = gaussian
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
    sol, V = load_solution_json(tmp_path / "out" / "scattering.json")
    assert V.spec == {"family": "table", "r": [0.0, 1.0, 1.1, 2.0],
                      "v": [4.0, 4.0, 0.0, 0.0]}
    assert sol.a0 == second


def test_potential_table_file_takes_no_family_keys(tmp_path):
    table = tmp_path / "well.txt"
    table.write_text("0.0 8.0\n1.0 8.0\n1.1 0.0\n2.0 0.0\n")
    text = f"[potential]\nfile = {table}\nheight = 4.0\n\n[output]\n" \
        "directory = {outdir}\n"
    cfg = load_config(write_config(tmp_path, text))
    with pytest.raises(ConfigurationError, match="no family parameters, got height"):
        run_pipeline(cfg)


def test_stage_keys_follow_real_dependencies(tmp_path):
    text = BASE_CONFIG + """
[fock]
d = 2
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
d = 2
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
    cfg = load_config(write_config(tmp_path, text))
    with pytest.raises(ConfigurationError, match="n_values"):
        run_pipeline(cfg)


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


@pytest.mark.parametrize("N", ["-2", "0", "2,0"])
def test_cli_kernels_non_positive_N_exits_2(tmp_path, capsys, N):
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
    assert "N must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "kout" / "kernel_bounds.csv").exists()


@pytest.mark.parametrize("values", ["2 0", "-1"])
def test_kernels_n_values_below_1_refused_before_any_stage(tmp_path, values):
    text = BASE_CONFIG + (
        "\n[kernels]\ndim = 1\npoints = 32\nlength = 16.0\n"
        f"n_values = {values}\n")
    cfg = load_config(write_config(tmp_path, text))
    with pytest.raises(ConfigurationError, match=r"\[kernels\] n_values"):
        run_pipeline(cfg)
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
    assert "unknown parameter 'heigth' for family 'square-well'" in err
    assert "expected height, radius" in err


def test_warm_rerun_never_parses_the_scattering_profile(tmp_path, monkeypatch):
    cfg = load_config(write_config(tmp_path))
    outdir = run_pipeline(cfg).outdir
    fresh = (outdir / "report.json").read_bytes()
    parsed = []
    real_load = json.load

    def recording_load(fh, **kwargs):
        parsed.append(getattr(fh, "name", None))
        return real_load(fh, **kwargs)

    monkeypatch.setattr(json, "load", recording_load)
    warm = run_pipeline(cfg)
    assert (outdir / "report.json").read_bytes() == fresh
    assert parsed and not any(str(name).endswith("scattering.json")
                              for name in parsed)
    assert warm.summary["scattering"]["a0_tail"] == pytest.approx(
        1 - math.tanh(2.0) / 2, rel=1e-6)


FOCK_CONFIG = """
[fock]
d = 2
h = 0.0 -1.0 ; -1.0 0.2
u = 1.0 1.0
coupling = 0.5
phi0 = 1.0 0.0
t_final = 0.3
n_values = 3 6

[output]
directory = {outdir}
"""


@pytest.mark.parametrize("line, bad, what", [
    ("h = 0.0 -1.0 ; -1.0 0.2", "h = 0.0 -1.0 ; -1.0 x", "[fock] h = "),
    ("phi0 = 1.0 0.0", "phi0 = 1.0 0.0 0.0", "phi0 needs d = 2 numbers, got 3"),
    ("u = 1.0 1.0", "u = 1.0", "u needs d = 2 numbers, got 1"),
    ("phi0 = 1.0 0.0", "phi0 = 0.0 0.0", "phi0 must be a nonzero"),
], ids=["h-token", "phi0-length", "u-length", "phi0-zero"])
def test_cli_bad_fock_input_exits_2(tmp_path, capsys, line, bad, what):
    assert line in FOCK_CONFIG
    cfg_path = write_config(tmp_path, FOCK_CONFIG.replace(line, bad),
                            name="fock.ini")
    assert cli_main(["fock", "--scenario", str(cfg_path)]) == 2
    assert what in capsys.readouterr().err
