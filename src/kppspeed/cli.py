"""Command-line interface.

    kpp-speed run <scenario-file> [--out DIR] [--format csv|json|both] [--seed S]
    kpp-speed eig   --A ... [--q ...] --mu ... [--T ...] [--L ...]
                    --lam "0.5[ 0.0]" [--n ...] [--nt ...] [--adjoint]
    kpp-speed speed --A ... [--q ...] --mu ... [--T ...] [--L ...]
                    --e "1[ 0]" [--n ...] [--nt ...] [--refine] [--richardson]

The run subcommand executes the scenario's named experiment, writes the
report, prints the verdict summary, and exits 1 iff any assertion FAILed.
A bad scenario is one line on stderr and exit code 2, with no report, and
so is a scenario whose eigensolve, speed search, grid or simulation fails
(one line that names the file); a bad flag of eig or speed is one line that
names the flag, and an eigensolve or speed search that fails is one line
that names the command.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .eigen import EigenError, adjoint_eigenpair, principal_eigenvalue
from .expressions import ExpressionError
from .fields import CellGeometry, CoefficientSet, FieldError, PeriodicField
from .operators import GridError, build_grid
from .scenario import ScenarioError, load_scenario, write_report
from .simulate import SimulationError
from .speed import SpeedError, spreading_speed


def _number(convert, text: str, flag: str):
    """convert(text) if finite, or exit with a message naming the flag."""
    try:
        value = convert(text)
    except ValueError:
        raise SystemExit(f"{flag}: not a number ({text!r})") from None
    if not np.isfinite(value):
        raise SystemExit(f"{flag}: not a finite number ({text!r})")
    return value


def _parse_vector(text: str, flag: str) -> list[float]:
    return [_number(float, tok, flag) for tok in str(text).replace(",", " ").split()]


def _parse_wavevector(text: str, flag: str, dim: int) -> list[float]:
    """--lam or --e: one component per spatial dimension of the cell."""
    v = _parse_vector(text, flag)
    if len(v) != dim:
        raise SystemExit(f"{flag}: needs {dim} component(s) in a {dim}D cell, got {len(v)}")
    return v


def _parse_params(tokens) -> dict:
    out = {}
    for tok in tokens or []:
        name, _, value = tok.partition("=")
        if not _:
            raise SystemExit(f"--param expects name=value, got {tok!r}")
        out[name] = _number(float, value, f"--param {name}")
    return out


def _checked(flag: str, make):
    """make(), or exit with its expression, field or grid error after the flag."""
    try:
        return make()
    except (ExpressionError, FieldError, GridError) as exc:
        raise SystemExit(f"{flag}: {exc}") from None


def _coeffs_from_args(args) -> CoefficientSet:
    L = _parse_vector(args.L, "--L")
    q = _parse_vector_or_exprs(args.q, len(L)) if args.q else (0.0,) * len(L)
    params = _parse_params(args.param)
    geo = _checked("--T, --L", lambda: CellGeometry(args.T, L))

    def field(flag, value):  # parsed on its own, so that an error names its flag
        return _checked(flag, lambda: PeriodicField.scalar(value, geo, params))

    coeffs = CoefficientSet(PeriodicField.matrix(field("--A", args.A).entries, geo),
                            PeriodicField.vector([field("--q", v).entries for v in q], geo),
                            field("--mu", args.mu), geo)
    _checked("--A", coeffs.ellipticity)
    return coeffs


def _parse_vector_or_exprs(text: str, dim: int):
    parts = [p.strip() for p in str(text).split(";")]
    if len(parts) == 1 and dim == 1:
        return (parts[0],)
    if len(parts) != dim:
        raise SystemExit(f"--q needs {dim} ';'-separated components")
    return tuple(parts)


def _grid_from_args(args, geometry):
    n = [_number(int, t, "--n") for t in str(args.n).split()]
    return _checked("--n, --nt",
                    lambda: build_grid(geometry, n[0] if len(n) == 1 else n, args.nt))


def _add_coeff_flags(p: argparse.ArgumentParser):
    p.add_argument("--A", default="1", help="diffusion expression (scalar a -> a*I)")
    p.add_argument("--q", default=None, help="drift expression; 2D: 'q1;q2'")
    p.add_argument("--mu", default="1", help="growth-rate expression")
    p.add_argument("--T", type=float, default=1.0, help="time period")
    p.add_argument("--L", default="1.0", help="cell lengths, e.g. '1.0' or '1 1'")
    p.add_argument("--n", default="256", help="grid points per axis")
    p.add_argument("--nt", type=int, default=None, help="time steps per period")
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="named expression parameter (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kpp-speed",
        description="Periodic principal eigenvalues and KPP spreading speeds")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario experiment")
    run.add_argument("scenario", help="scenario file path")
    run.add_argument("--out", default=None, help="output directory")
    run.add_argument("--format", default=None, choices=("csv", "json", "both"))
    run.add_argument("--seed", type=int, default=None)

    eig = sub.add_parser("eig", help="one-shot principal eigenvalue")
    _add_coeff_flags(eig)
    eig.add_argument("--lam", default="0", help="wavevector, e.g. '0.5' or '0.5 0'")
    eig.add_argument("--route", default="auto", choices=("auto", "steady", "floquet"))
    eig.add_argument("--adjoint", action="store_true",
                     help="also compute the adjoint eigenfunction pairing")

    speed = sub.add_parser("speed", help="one-shot spreading speed")
    _add_coeff_flags(speed)
    speed.add_argument("--e", default="1", help="propagation direction")
    speed.add_argument("--refine", action="store_true",
                       help="2D half-space refinement after the ray search")
    speed.add_argument("--richardson", action="store_true",
                       help="dt-Richardson extrapolation of Floquet eigenvalues")
    return parser


def _cmd_run(args) -> int:
    from .experiments import run_experiment
    try:
        sc = load_scenario(args.scenario)
        if args.seed is not None:
            sc.seed = args.seed
        if args.out is not None:
            sc.output_dir = args.out
        if args.format is not None:
            sc.output_format = args.format
        report = run_experiment(sc)
    except ScenarioError as exc:
        print(f"kpp-speed run: {exc}", file=sys.stderr)
        return 2
    except (EigenError, GridError, SimulationError, SpeedError) as exc:
        print(f"kpp-speed run: {args.scenario}: {exc}", file=sys.stderr)
        return 2
    paths = write_report(report, sc.output_format, sc.output_dir)
    for line in report.summary_lines():
        print(line)
    for p in paths:
        print(f"wrote {p}")
    if not report.passed:
        print("FAIL: at least one assertion failed")
        return 1
    print("PASS")
    return 0


def _cmd_eig(args) -> int:
    coeffs = _coeffs_from_args(args)
    grid = _grid_from_args(args, coeffs.geometry)
    lam = _parse_wavevector(args.lam, "--lam", coeffs.dimension)
    res = principal_eigenvalue(coeffs, lam, grid, route=args.route)
    print(f"k = {res.k!r}")
    print(f"route = {res.route}, iterations = {res.iterations}")
    print(f"sandwich bounds = [{res.lower!r}, {res.upper!r}] "
          f"(width {res.upper - res.lower:.3e})")
    if args.adjoint:
        pair = adjoint_eigenpair(coeffs, lam, grid)
        print(f"adjoint k = {pair.k_adjoint!r} (pairing normalized to 1)")
    return 0


def _cmd_speed(args) -> int:
    coeffs = _coeffs_from_args(args)
    grid = _grid_from_args(args, coeffs.geometry)
    e = _parse_wavevector(args.e, "--e", coeffs.dimension)
    if not any(e):
        raise SystemExit("--e: direction must be nonzero")
    res = spreading_speed(coeffs, e, grid, refine=args.refine,
                          richardson=args.richardson)
    print(f"c* = {res.c_star!r}")
    print(f"lambda* = {np.asarray(res.lam_star).tolist()}")
    print(f"route = {res.route}, profile samples = {len(res.profile)}, "
          f"eigensolves = {res.diagnostics['solves']}")
    if res.eigen is not None:
        print(f"minimizer k = {res.eigen.k!r} in "
              f"[{res.eigen.lower!r}, {res.eigen.upper!r}]")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    command = {"eig": _cmd_eig, "speed": _cmd_speed}[args.command]
    try:
        return command(args)
    except (EigenError, SpeedError) as exc:
        raise SystemExit(f"kpp-speed {args.command}: {exc}") from None


def entrypoint() -> None:  # console_scripts hook
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
