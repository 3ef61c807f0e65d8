"""Command line interface.

Subcommands: run (full pipeline), scattering, evolve (the evolve and nsweep
stages), kernels, fock (the fock stage), report.
Exit codes: 0 success, 2 configuration/domain error, 3 numerical-budget
error, 4 invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .errors import ConfigurationError, GpkError

# Each subcommand imports the layers it runs, so a process loads numpy and
# scipy only when its subcommand computes: `gpk report` loads neither.

# The thread counts that `main` sets to 1 where unset, before numpy loads:
# gpk's matrices are small, and a BLAS thread pool slows them down.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _parse_potential_arg(spec: str):
    """The `RadialPotential` of `square-well:height=8,radius=1`,
    `gaussian:amplitude=1e-3`, or a table path."""
    from .bench import potential_from_file
    from .scattering import RadialPotential, potential_family

    name, colon, params = spec.partition(":")
    if not colon and potential_family(name) is None:
        return potential_from_file(spec)
    pairs = [item.partition("=") for item in params.split(",")] if params else []
    return RadialPotential.from_spec(
        {**{key.strip(): val for key, _, val in pairs}, "family": name},
        f"--potential {spec!r}")


def _existing(path: str, what: str) -> str:
    if not Path(path).is_file():
        raise ConfigurationError(f"{what} {path} does not exist")
    return path


def _cmd_scattering(args) -> int:
    from .bench import (
        SCHEMA, dump_solution_json, make_directory, scattering_summary,
        write_scattering_csv,
    )
    from .scattering import solve_zero_energy

    out = Path(args.out)
    if out.suffix in (".json", ".npz"):
        raise ConfigurationError(f"--out {out}: the CSV export would collide "
                                 f"with the artifact {out.stem}.json + .npz")
    V = _parse_potential_arg(args.potential)
    points = (SCHEMA["potential"]["points"].default if args.points is None
              else args.points)
    make_directory(out.parent, f"--out {out}")
    sol = solve_zero_energy(V, args.rmax, points)
    write_scattering_csv(sol, out)
    payload = dump_solution_json(sol, out.with_suffix(".json"))
    print(json.dumps(scattering_summary(payload), sort_keys=True))
    return 0


def _cmd_stages(args) -> int:
    """`gpk evolve` and `gpk fock`: their stages and the upstream stages
    those read; prints the summary of the first."""
    from .bench import load_config, run_pipeline

    bundle = run_pipeline(load_config(args.config), outdir=args.out,
                          stages=args.stages)
    print(json.dumps(bundle.summary.get(args.stages[0], {}), sort_keys=True))
    return 0


def _cmd_kernels(args) -> int:
    from .bench import (
        SCHEMA, load_solution_json, make_directory, parse_value,
        write_kernel_bounds_csv,
    )
    from .fieldio import read_field

    scattering = _existing(args.scattering, "--scattering")
    phi_path = _existing(args.phi, "--phi")
    sol = load_solution_json(scattering)
    phi, _ = read_field(phi_path)  # the bits as written, NaN too
    if not 0 < phi.l2_norm < math.inf:  # a NaN norm fails too
        raise ConfigurationError(f"{phi_path}: field is not finite or has zero norm")
    # the reader and bound of [kernels] n_values
    n_list = parse_value("--N", SCHEMA["kernels"]["n_values"], args.N)
    outdir = Path(args.out)
    make_directory(outdir, "--out")
    path = outdir / "kernel_bounds.csv"
    write_kernel_bounds_csv(path, phi, sol, n_list)
    print(str(path))
    return 0


def _cmd_run(args) -> int:
    from .bench import load_config, run_pipeline

    cfg = load_config(args.config)
    bundle = run_pipeline(cfg)
    print(json.dumps({"outdir": str(bundle.outdir), "flags": bundle.flags},
                     sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    report = Path(args.dir) / "report.json"
    if not report.is_file():
        raise ConfigurationError(f"no report.json under {args.dir}")
    try:
        with open(report) as fh:
            payload = json.load(fh)
    except ValueError as exc:
        raise ConfigurationError(f"{report} is not JSON: {exc}") from None
    print(json.dumps(payload, indent=1, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gpk")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scattering", help="solve the zero-energy radial problem")
    p.add_argument("--potential", required=True,
                   help="family spec like square-well:height=8,radius=1 or a "
                        "two-column table file")
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--points", type=int, default=None)
    p.add_argument("--out", required=True,
                   help="CSV export X.csv; the artifact X.json + X.npz goes beside it")
    p.set_defaults(func=_cmd_scattering)

    p = sub.add_parser("evolve", help="run the configured field evolution")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stages, stages=("evolve", "nsweep"))

    p = sub.add_parser("kernels", help="kernel norm scaling report")
    p.add_argument("--phi", required=True, help="binary field dump")
    p.add_argument("--scattering", required=True, help="artifact X.json (+ X.npz)")
    p.add_argument("--N", required=True, help="comma separated N values")
    p.add_argument("--out", required=True,
                   help="directory (made if missing) that receives "
                        "kernel_bounds.csv")
    p.set_defaults(func=_cmd_kernels)

    p = sub.add_parser("fock", help="toy Fock-space scenario")
    p.add_argument("--scenario", dest="config", required=True,
                   help="config with a [fock] section")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_stages, stages=("fock",))

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="print the report bundle of a run")
    p.add_argument("dir")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules:  # a caller that loaded numpy keeps its pool
        for name in THREAD_VARIABLES:
            os.environ.setdefault(name, "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GpkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
