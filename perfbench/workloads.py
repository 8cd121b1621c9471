"""Workload definitions: seeded inputs, the CLI call of each op, and its check.

Inputs depend only on the workload name and the seed.  Each run draws a
pool of inputs by stratified sampling, so every run covers the whole
parameter range and a run's median does not hinge on where a few random
draws happened to fall.  Nothing in this module touches the solver until a
check runs, so writing the inputs cannot warm its caches before the cold op.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# 3*pi keeps the spiral clear of the exponent collision c/nu = -2 at flux 4*pi,
# where the oracle has no closed form.
SPIRAL_F0_RANGE = (0.5, 3.0 * math.pi)
SPIRAL_SWEEP_RANGE = (0.0, 12.0)
SPIRAL_POINTS = 7
J_TOL = 1e-8
FLUX_TOL = 1e-10
WEAK_RESIDUAL_TOL = 1e-9
HARMONICS = (2, 3, 4)
MAX_HARMONIC = 0.1
OMEGA1_RANGE = (0.5, 1.5)
R_INNER, R_OUTER = 1.0, 2.0


@dataclass(frozen=True)
class Op:
    """One CLI call: its subcommand and options, and the config file it reads."""

    argv: list[str]
    config: dict | None = None


@dataclass(frozen=True)
class Workload:
    """A named input family; ``pool`` inputs per run, spread over ``processes``."""

    name: str
    pool: int
    processes: int
    ops: Callable[[random.Random, int], list[Op]]
    check: Callable[[Op, Path | None], tuple[bool, str]]
    checked_file: str | None = None  # the output the check reads, passed to it as a path


def _stratified(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of ``count`` equal slices of [lo, hi], shuffled."""
    width = (hi - lo) / count
    values = [lo + width * (i + rng.random()) for i in range(count)]
    rng.shuffle(values)
    return values


def _grid(n_r: int, n_theta: int) -> dict:
    return {"n_r": n_r, "n_theta": n_theta, "r_inner": R_INNER, "r_outer": R_OUTER}


def spiral_sweep_ops(rng: random.Random, count: int) -> list[Op]:
    ops = []
    for f0 in _stratified(rng, *SPIRAL_F0_RANGE, count):
        lo, hi = SPIRAL_SWEEP_RANGE
        others = sorted(_stratified(rng, lo, hi, SPIRAL_POINTS - 1))
        values = sorted(others + [f0])
        if len(set(values)) != SPIRAL_POINTS:  # pragma: no cover - measure-zero draw
            raise ValueError("sweep values collide")
        config = {
            "grid": _grid(32, 64),
            "nu": 1.0,
            "boundary": {"preset": "spiral", "flux": f0, "amplitude": 1.0, "nu": 1.0},
            "solver": {"method": "newton"},
            "sweep": {"parameter": "flux", "values": values},
        }
        ops.append(Op(argv=["sweep"], config=config))
    return ops


def _fourier_ops(rng: random.Random, count: int, n_r: int, n_theta: int,
                 method: str) -> list[Op]:
    # Latin hypercube: omega1 and every harmonic's modulus and phase are each
    # stratified over the pool, so each run sees the whole family
    omega1 = _stratified(rng, *OMEGA1_RANGE, count)
    sides = ("normal_outer", "normal_inner")
    modulus = {(side, k): _stratified(rng, 0.0, MAX_HARMONIC, count)
               for side in sides for k in HARMONICS}
    phase = {(side, k): _stratified(rng, 0.0, 2.0 * math.pi, count)
             for side in sides for k in HARMONICS}
    ops = []
    for i in range(count):
        boundary = {"preset": "fourier", "angular_outer": {"0": omega1[i] * R_OUTER}}
        for side in sides:
            boundary[side] = {
                str(k): [modulus[side, k][i] * math.cos(phase[side, k][i]),
                         modulus[side, k][i] * math.sin(phase[side, k][i])]
                for k in HARMONICS}
        config = {
            "grid": _grid(n_r, n_theta),
            "nu": 1.0,
            # Couette(omega1, 0) plus normal harmonics on both circles
            "boundary": boundary,
            "solver": {"method": method},
        }
        ops.append(Op(argv=["solve"], config=config))
    return ops


def verify_ops(rng: random.Random, count: int) -> list[Op]:
    del rng  # fixed inputs: the verify table has no data to draw
    return [Op(argv=["verify", "--n-r", "32", "--n-theta", "64"])] * count


# -- checks ---------------------------------------------------------------------------
# Each runs after an op that exited 0, outside the timed interval, on the path
# of the workload's checked file, and returns (ok, detail).


def _spiral_j(f0: float) -> float:
    """J of the exact spiral with base flux ``f0`` against its Stokes solution."""
    from annulus_flux import build_grid, dirichlet_norm, spiral_flow, spiral_trace, stokes_solve

    grid = build_grid(32, 64, R_INNER, R_OUTER)
    exact, _ = spiral_flow(grid, f0, 1.0, 1.0)
    stokes = stokes_solve(grid, spiral_trace(f0, 1.0, 1.0, R_INNER, R_OUTER))
    return dirichlet_norm(exact - stokes.velocity)


def check_sweep(op: Op, path: Path) -> tuple[bool, str]:
    f0 = op.config["boundary"]["flux"]
    with open(path, newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if float(row["value"]) == f0]
    if not rows:
        return False, f"F0={f0!r} missing from trace.csv"
    gap = abs(float(rows[0]["J"]) - _spiral_j(f0))
    return gap <= J_TOL, f"F0={f0:.6f} |J-J_oracle|={gap:.2e}"


def check_solve(op: Op, path: Path) -> tuple[bool, str]:
    from annulus_flux import (SolverConfig, flux_inner, make_trace, read_velocity_csv,
                              stokes_solve, weak_residual)

    u = read_velocity_csv(path)
    grid = u.grid
    trace = make_trace(dict(op.config["boundary"], r_inner=grid.r_inner, r_outer=grid.r_outer))
    flux_error = abs(flux_inner(u) - trace.flux)
    u_aux = stokes_solve(grid, trace).velocity
    cfg = SolverConfig(nu=op.config["nu"], lam=1.0, method=op.config["solver"]["method"])
    residual = weak_residual(grid, u - u_aux, u_aux, cfg)
    ok = flux_error <= FLUX_TOL and residual <= WEAK_RESIDUAL_TOL
    return ok, f"flux_err={flux_error:.2e} weak_residual={residual:.2e}"


def check_exit_only(op: Op, path: None) -> tuple[bool, str]:
    del op, path
    return True, "exit 0"


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("spiral-sweep", pool=16, processes=12, ops=spiral_sweep_ops,
                 check=check_sweep, checked_file="trace.csv"),
        Workload("nonaxi-newton", pool=6, processes=3,
                 ops=lambda rng, n: _fourier_ops(rng, n, 32, 64, "newton"),
                 check=check_solve, checked_file="fields.csv"),
        # 64x128: at 64x256 each op swings 0.5-1.8 s under two BLAS threads, and a
        # run of about 20 ops spreads past the bound (README)
        Workload("nonaxi-picard", pool=8, processes=12,
                 ops=lambda rng, n: _fourier_ops(rng, n, 64, 128, "picard"),
                 check=check_solve, checked_file="fields.csv"),
        Workload("verify", pool=1, processes=12, ops=verify_ops, check=check_exit_only),
    )
}


def check_key(op: Op, path: Path | None) -> str | None:
    """Digest of an op's input and of the output file its check reads, or None.

    The solver's outputs repeat byte for byte for the same input, so a
    verdict stored under this key holds for every later op that produces
    the same bytes.
    """
    if path is None:
        return None
    digest = hashlib.sha256(json.dumps(op.config, sort_keys=True).encode())
    digest.update(path.read_bytes())
    return digest.hexdigest()


def make_ops(name: str, seed: int) -> list[Op]:
    """The input pool of workload ``name`` for ``seed``; equal seeds give equal pools."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    return workload.ops(rng, workload.pool)


def write_inputs(ops: list[Op], directory: Path, out: Path) -> list[list[str]]:
    """Write each op's config file; returns the argv of every op.

    Ops with a config write their results to ``out``.
    """
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for i, op in enumerate(ops):
        argv = list(op.argv)
        if op.config is not None:
            path = directory / f"input-{i}.json"
            path.write_text(json.dumps(op.config, sort_keys=True))
            argv += ["--config", str(path), "--out", str(out)]
        argvs.append(argv + ["--quiet"])
    return argvs
