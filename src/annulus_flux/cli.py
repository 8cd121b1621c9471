"""Command line experiment runner.

Subcommands:

* ``solve``    -- one nonlinear solve from a JSON config; writes report.json,
                  fields.csv and pressure.csv.
* ``sweep``    -- continuation in lambda or flux; writes trace.csv.
* ``verify``   -- the oracle/identity acceptance table; exit 0 iff all pass.
* ``diagnose`` -- apply the diagnostics to a stored velocity CSV.

Exit codes: 0 success, 1 verification failure, 2 non-convergence (the report
is still written), 3 invalid configuration or input, including a datum whose
outputs would overflow (no output file is written).  Reports are written
deterministically (sorted keys, repr floats, strict JSON); wall-clock
metadata, with the seconds spent solving and writing, goes to a separate
run_meta.json.  Repeated runs of the same configuration repeat every output
byte for byte only at a fixed BLAS thread count and array layout: the
trailing digits of every output depend on the thread count.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .boundary import BoundaryTrace, make_trace
from .diagnostics import diagnostics_for_fields
from .fields import read_velocity_csv, write_scalar_csv, write_velocity_csv
from .grid import PolarGrid, build_grid
from .navier_stokes import ContinuationTrace, SolverConfig, _check_sweep, solve, sweep
from .stokes import StreamBC, pressure_from_momentum
from .verify import format_table, run_checks

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_NO_CONVERGENCE = 2
EXIT_BAD_CONFIG = 3

# the least-squares pressure and the solver's residual norms square terms of
# size |u|^2 and nu |u|, so boundary data, a flux or a viscosity larger than
# this give no finite report; smaller data can too, as the Euler residual squares p/J^2
DATA_BOUND = sys.float_info.max ** 0.25


class ConfigError(Exception):
    """Invalid run configuration; the message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of a JSON run configuration."""

    grid: PolarGrid
    trace: BoundaryTrace
    solver: SolverConfig
    sweep_parameter: str | None
    sweep_values: list[float] | None
    out_dir: str

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        if not isinstance(raw, dict):
            raise ConfigError("top-level config must be a JSON object")
        return cls.from_mapping(raw)

    @classmethod
    def from_mapping(cls, raw: dict) -> "RunConfig":
        def section(name, keys=None, default=None):
            value = raw.get(name, default)
            if value is None:
                raise ConfigError(f"missing config section {name!r}")
            if not isinstance(value, dict):
                raise ConfigError(f"config section {name!r} must be an object")
            if keys is not None:  # make_trace checks the boundary block's keys
                _check_keys(name, value, keys)
            return value

        _check_keys("config", raw, ("grid", "nu", "boundary", "solver", "sweep", "output"))
        gspec = section("grid", ("n_r", "n_theta", "r_inner", "r_outer"), {})
        try:
            grid = build_grid(
                _integer("grid", gspec, "n_r", 32), _integer("grid", gspec, "n_theta", 64),
                float(gspec.get("r_inner", 1.0)), float(gspec.get("r_outer", 2.0)),
            )
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise ConfigError(f"grid: {exc}") from exc

        bspec = dict(section("boundary"))
        bspec.setdefault("r_inner", grid.r_inner)
        bspec.setdefault("r_outer", grid.r_outer)
        try:
            trace = make_trace(bspec)
            StreamBC.from_trace(grid, trace)  # the radii and harmonics the grid carries
        except (TypeError, ValueError, KeyError, ArithmeticError) as exc:
            raise ConfigError(f"boundary: {exc}") from exc
        size = max((abs(c) for coefs in (trace.normal_outer, trace.angular_outer,
                                         trace.normal_inner, trace.angular_inner)
                    for c in coefs.values()), default=0.0)
        if not size <= DATA_BOUND:
            raise ConfigError(f"boundary: data of size {size:.3e} exceed {DATA_BOUND:.3e}, "
                              "beyond which the pressure overflows")

        sspec = section("solver", ("lambda", "method", "tol", "max_iter"), {})
        try:
            solver = SolverConfig(
                nu=float(raw.get("nu", 1.0)),
                lam=float(sspec.get("lambda", 1.0)),
                method=str(sspec.get("method", "newton")),
                tol=float(sspec.get("tol", 1e-10)),
                max_iter=_integer("solver", sspec, "max_iter", 200),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"solver: {exc}") from exc
        if not solver.nu <= DATA_BOUND:
            raise ConfigError(f"solver: viscosity {solver.nu:.3e} exceeds {DATA_BOUND:.3e}, "
                              "beyond which the pressure overflows")

        sweep_parameter = None
        sweep_values = None
        if "sweep" in raw:
            wspec = section("sweep", ("parameter", "values"))
            sweep_parameter = wspec.get("parameter")
            values = wspec.get("values")
            if not isinstance(values, list) or not values:
                raise ConfigError("sweep.values must be a non-empty list")
            try:
                sweep_values = [float(v) for v in values]
                _check_sweep(sweep_parameter, sweep_values)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"sweep.values: {exc}") from exc
            if sweep_parameter == "flux" and not all(abs(v) <= DATA_BOUND for v in sweep_values):
                raise ConfigError(f"sweep.values: a flux exceeds {DATA_BOUND:.3e}, "
                                  "beyond which the solve overflows")

        out_dir = str(section("output", ("directory",), {}).get("directory", "."))
        return cls(grid=grid, trace=trace, solver=solver,
                   sweep_parameter=sweep_parameter, sweep_values=sweep_values, out_dir=out_dir)


def _check_keys(name: str, spec: dict, keys: tuple[str, ...]) -> None:
    """Raise ConfigError naming every key of ``spec`` not in ``keys``."""
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        raise ConfigError(f"{name}: unknown keys {', '.join(unknown)}")


def _integer(name: str, spec: dict, key: str, default: int) -> int:
    """``spec[key]``, or ``default`` if absent; ConfigError unless it is an integer."""
    value = spec.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name}: {key} must be an integer, got {value!r}")
    return value


def _dump_json(path: Path, payload: dict) -> None:
    """Write ``payload`` as strict JSON; ValueError, before writing, on a non-finite number."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


@functools.cache
def _platform() -> dict:
    """The BLAS build, the ``*_NUM_THREADS`` variables and the CPU count, read once.

    The BLAS build is numpy's, from ``numpy.show_config``.  The trailing
    digits of every output depend on the BLAS thread count, so outputs repeat
    byte for byte only at a fixed thread count and array layout.
    """
    build = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "blas": build.get("blas", {}),
        "num_threads": {name: value for name, value in sorted(os.environ.items())
                        if name.endswith("_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
    }


def _write_meta(out: Path, command: str, phases: dict[str, float] | None = None) -> None:
    """run_meta.json: command, version, time stamp, BLAS and thread settings, seconds per phase."""
    meta = {
        "command": command,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        **_platform(),
    }
    if phases is not None:
        meta["phases"] = phases
    _dump_json(out / "run_meta.json", meta)


def _run(args, command: str, run: Callable, write: Callable):
    """Load ``args.config``; time ``run(config)``, then ``write(out, result)``.

    Returns (config, out, result); run_meta.json records the two phases.
    Raises ConfigError before the output directory ``out`` is made, and on
    the ValueError that ``run`` or ``write`` raises, before writing, on a
    non-finite output: a datum whose outputs overflow.
    """
    config = RunConfig.load(args.config)
    if command == "sweep" and config.sweep_parameter is None:
        raise ConfigError("sweep command requires a 'sweep' config section")
    out = Path(args.out or config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    try:
        result = run(config)
        done = time.perf_counter()
        write(out, result)
    except ValueError as exc:
        raise ConfigError(f"{command}: the data give no finite result: {exc}") from exc
    _write_meta(out, command, {f"{command}_s": done - start,
                               "write_s": time.perf_counter() - done})
    return config, out, result


def _write_solve(out: Path, report) -> None:
    _dump_json(out / "report.json", report.to_dict())
    write_velocity_csv(out / "fields.csv", report.u)
    write_scalar_csv(out / "pressure.csv", report.p)


def cmd_solve(args) -> int:
    _, out, report = _run(args, "solve", lambda c: solve(c.grid, c.trace, c.solver),
                          _write_solve)
    if not args.quiet:
        state = "converged" if report.converged else "NOT converged"
        print(f"solve {state} in {report.iterations} iterations: "
              f"J = {report.J:.6e}, flux = {report.flux:.6e} -> {out}")
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def _trace_csv(path: Path, trace: ContinuationTrace) -> None:
    lines = ["parameter,value,J,converged,iterations"]
    for pt in trace.points:
        lines.append(f"{trace.parameter},{pt.value:.17g},{pt.J:.17g},"
                     f"{int(pt.converged)},{pt.iterations}")
    path.write_text("\n".join(lines) + "\n")


def cmd_sweep(args) -> int:
    config, _, trace = _run(
        args, "sweep",
        lambda c: sweep(c.grid, c.trace, c.solver, c.sweep_parameter, c.sweep_values),
        lambda out, trace: _trace_csv(out / "trace.csv", trace))
    if not args.quiet:
        for pt in trace.points:
            flag = "ok" if pt.converged else "DIVERGED"
            print(f"  {config.sweep_parameter} = {pt.value:+.4f}: "
                  f"J = {pt.J:.6e} ({pt.iterations} its) {flag}")
        failure = trace.first_failure()
        if failure is not None:
            print(f"first failure at {config.sweep_parameter} = {failure}")
    return EXIT_OK if trace.all_converged() else EXIT_NO_CONVERGENCE


def cmd_verify(args) -> int:
    try:
        checks = run_checks(n_r=args.n_r, n_theta=args.n_theta)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    table = format_table(checks)
    if not args.quiet:
        print(table)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VERIFY_FAILED


def cmd_diagnose(args) -> int:
    try:
        u = read_velocity_csv(args.fields)
    except (OSError, ValueError) as exc:
        print(f"cannot load fields: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    if not (math.isfinite(args.nu) and args.nu >= 0) or not 0.0 <= args.lam <= 1.0:
        print("diagnose requires a finite nu >= 0 and 0 <= lambda <= 1", file=sys.stderr)
        return EXIT_BAD_CONFIG
    grid = u.grid
    try:
        p, _ = pressure_from_momentum(grid, u, args.lam, args.nu)
    except ValueError as exc:  # finite fields and parameters: a term overflowed
        print(f"cannot diagnose fields: the pressure solve overflowed: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        record = diagnostics_for_fields(grid, u, p, args.lam, args.nu)
    except ValueError as exc:
        print(f"cannot diagnose fields: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    _dump_json(out / "diagnostics.json", record.to_dict())
    _write_meta(out, "diagnose")
    if not args.quiet:
        print(json.dumps(record.to_dict(), sort_keys=True, indent=2))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: do not modify it.

    Each ``parse_args`` call fills a fresh namespace, so calls share no
    parsed state.
    """
    parser = argparse.ArgumentParser(
        prog="annulus-flux",
        description="Steady Navier-Stokes on the annulus with net boundary flux",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one nonlinear solve from a JSON config")
    p_solve.add_argument("--config", required=True, help="path to the JSON run configuration")
    p_solve.add_argument("--out", default=None, help="output directory (overrides config)")
    p_solve.add_argument("--quiet", action="store_true")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="continuation in lambda or flux")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--quiet", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the oracle/identity acceptance table")
    p_verify.add_argument("--n-r", type=int, default=32, dest="n_r")
    p_verify.add_argument("--n-theta", type=int, default=64, dest="n_theta")
    p_verify.add_argument("--quiet", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_diag = sub.add_parser("diagnose", help="apply the diagnostics to stored fields")
    p_diag.add_argument("fields", help="velocity CSV written by solve (columns r,theta,u_r,u_theta)")
    p_diag.add_argument("--lambda", dest="lam", type=float, required=True,
                        help="homotopy factor multiplying the convective term")
    p_diag.add_argument("--nu", type=float, required=True,
                        help="viscosity (0 diagnoses an Euler candidate)")
    p_diag.add_argument("--out", default=None)
    p_diag.add_argument("--quiet", action="store_true")
    p_diag.set_defaults(func=cmd_diagnose)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # numpy's floating-point warnings would add lines to stderr: the field
    # checks and the strict JSON writer turn a non-finite output into exit 3
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        try:
            return args.func(args)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
