"""Stokes solver and least-squares pressure against closed forms.

Couette flow u_theta = A r + B/r (A, B from the rim speeds) solves the
Stokes system exactly; the flux carrier has vanishing vector Laplacian and
is its own Stokes solution with constant pressure.  Both were verified by
substitution before the build.
"""

from functools import partial

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from annulus_flux import (
    BoundaryTrace,
    ScalarField,
    VelocityField,
    couette_trace,
    flux_carrier,
    integrate,
    pressure_from_momentum,
    pure_flux_trace,
    spiral_trace,
    stokes_solve,
)
from annulus_flux.fields import velocity_l2_norm
from annulus_flux.grid import BlockFactors, solve_blocks
from annulus_flux.navier_stokes import SolverConfig, _Problem, solve, weak_residual
from annulus_flux.oracle import AmickProfile, amick_flow, couette_constants
from annulus_flux.stokes import StreamBC, solve_stream_system


def couette_field(grid, omega1, omega2):
    a, b = couette_constants(omega1, omega2, grid.r_inner, grid.r_outer)
    return VelocityField.from_arrays(
        grid, np.zeros_like(grid.rr), a * grid.rr + b / grid.rr)


@pytest.mark.parametrize("omegas", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.7, -0.3)])
def test_stokes_reproduces_couette(grid, omegas):
    sol = stokes_solve(grid, couette_trace(*omegas))
    exact = couette_field(grid, *omegas)
    denom = max(velocity_l2_norm(exact), 1e-30)
    assert velocity_l2_norm(sol.velocity - exact) / denom < 1e-10


def test_stokes_pure_flux_is_carrier(grid):
    sol = stokes_solve(grid, pure_flux_trace(3.0))
    assert velocity_l2_norm(sol.velocity - flux_carrier(grid, 3.0)) < 1e-10
    # the carrier has zero viscous force, so the Stokes pressure, the
    # pressure of a solve at lambda = 0, is constant
    report = solve(grid, pure_flux_trace(3.0), SolverConfig(lam=0.0))
    assert np.max(np.abs(report.p.values)) < 1e-9


def test_stokes_zero_data(grid):
    sol = stokes_solve(grid, couette_trace(0.0, 0.0))
    assert velocity_l2_norm(sol.velocity) == 0.0


def test_stokes_weak_identity(grid):
    # weak form of the auxiliary problem: grad(U) orthogonal to the
    # divergence-free zero-trace test space; the homotopy weak form at
    # lambda = 0 with w = U is exactly that Stokes form
    sol = stokes_solve(grid, spiral_trace(1.0, 1.0, 1.0))
    assert weak_residual(grid, sol.velocity, sol.velocity, SolverConfig(lam=0.0)) < 1e-8


def test_stokes_linearity(grid):
    tr1 = couette_trace(0.5, -0.1)
    tr2 = pure_flux_trace(2.0)
    lhs = stokes_solve(grid, tr1 + tr2).velocity
    rhs = stokes_solve(grid, tr1).velocity + stokes_solve(grid, tr2).velocity
    assert velocity_l2_norm(lhs - rhs) < 1e-10


def test_stokes_deterministic(grid):
    tr = spiral_trace(1.0, 0.5, 1.0)
    u1 = stokes_solve(grid, tr).velocity
    u2 = stokes_solve(grid, tr).velocity
    assert velocity_l2_norm(u1 - u2) == 0.0


def test_stokes_trace_error_mixed_data(grid):
    tr = spiral_trace(2.0, 1.0, 1.0) + BoundaryTrace(
        1.0, 2.0, normal_outer={2: 0.2}, normal_inner={2: 0.1j}, angular_outer={1: 0.3})
    sol = stokes_solve(grid, tr)
    assert sol.trace_error < 1e-9


def test_pressure_from_momentum_recovers_amick_pressure(grid, fine_grid):
    # the Euler pair balances grad(p) = -(w.grad)w, so the least-squares
    # pressure at lam = 1, nu = 0 is the Amick pressure up to its mean
    for g in (grid, fine_grid):
        for profile in (AmickProfile.sin_squared(), AmickProfile.poly_bump(4)):
            w, p_exact = amick_flow(g, profile)
            exact = p_exact.values - integrate(g, p_exact.values) / g.area
            p, _ = pressure_from_momentum(g, w, 1.0, 0.0)
            assert np.max(np.abs(p.values - exact)) < 1e-8


def test_pressure_from_momentum_carrier(grid):
    # hand integration of (u.grad)u for the source flow:
    # p = -F^2/(8 pi^2 r^2) + const
    flux = 2 * np.pi
    u = flux_carrier(grid, flux)
    p, _ = pressure_from_momentum(grid, u, lam=1.0, nu=1.0)
    exact = -(flux**2) / (8 * np.pi**2 * grid.rr**2)
    exact -= integrate(grid, exact) / grid.area
    assert np.max(np.abs(p.values - exact)) < 1e-9


def test_pressure_from_momentum_couette(grid):
    u = couette_field(grid, 1.0, 0.0)
    p, _ = pressure_from_momentum(grid, u, lam=1.0, nu=1.0)
    # radial momentum: dp/dr = u_theta^2 / r
    dp = grid.diff_r(p.values)
    assert np.max(np.abs(dp - u.u_theta.values**2 / grid.rr)) < 1e-9


def test_pressure_from_momentum_zero(grid):
    p, _ = pressure_from_momentum(grid, VelocityField.zeros(grid), 1.0, 1.0)
    assert np.max(np.abs(p.values)) < 1e-14


def test_pressure_from_momentum_flags_non_solution(grid):
    psi = ScalarField.from_function(grid, lambda r, t: -r**2 * np.sin(t) / 2)
    from annulus_flux.fields import curl_of_stream

    u = curl_of_stream(psi)
    _, info = pressure_from_momentum(grid, u, 1.0, 1.0)
    assert info["curl_residual"] > 1.0  # nowhere near a gradient field
    # while exact solutions have a tiny mismatch
    _, info_good = pressure_from_momentum(grid, couette_field(grid, 1.0, 0.0), 1.0, 1.0)
    assert info_good["gradient_mismatch"] < 1e-9


def test_stokes_velocity_independent_of_viscosity(grid):
    # the Stokes state, a solve at lambda = 0, is the same for every nu
    tr = spiral_trace(1.0, 1.0, 1.0)
    u1 = solve(grid, tr, SolverConfig(nu=1.0, lam=0.0)).u
    u2 = solve(grid, tr, SolverConfig(nu=7.0, lam=0.0)).u
    assert velocity_l2_norm(u1 - u2) == 0.0
    assert velocity_l2_norm(u1 - stokes_solve(grid, tr).velocity) < 1e-12


def reference_blocks(grid):
    """Stream and Neumann matrices assembled one mode at a time."""
    n = grid.n_r
    base = grid.d_rr + (1.0 / grid.r)[:, None] * grid.d_r
    stream, neumann = [], []
    for k in range(grid.n_modes):
        lap = base - (k * k) * np.diag(1.0 / grid.r**2)
        m = np.zeros((2 * n, 2 * n))
        m[0, :n] = grid.d_r[0]
        m[1:n - 1, :n] = lap[1:n - 1]
        m[1:n - 1, n:] = np.eye(n)[1:n - 1]
        m[n - 1, :n] = grid.d_r[-1]
        if k == 0:
            m[n, n:] = grid.d_r[0]
        else:
            m[n, 0] = 1.0
        m[n + 1:2 * n - 1, n:] = lap[1:n - 1]
        m[2 * n - 1, n - 1] = 1.0
        stream.append(m)
        m = lap.copy()
        m[0], m[n - 1] = grid.d_r[0], grid.d_r[-1]
        if k == 0:
            m[n // 2] = grid.w_area
        neumann.append(m)
    return stream, neumann


def test_factor_stacks_solve_reference_blocks(grid):
    rng = np.random.default_rng(3)
    stream, neumann = reference_blocks(grid)
    for factors, blocks in ((grid.stream_lu, stream), (grid.neumann_lu, neumann)):
        assert factors.lu.shape == (grid.n_modes,) + blocks[0].shape
        solve_blocks(factors, np.ones(factors.piv.shape))  # reach every mode
        assert factors.factored.all()
        for k, block in enumerate(blocks):
            b = rng.standard_normal(len(block))
            want = np.linalg.solve(block, b)
            got = lu_solve((factors.lu[k], factors.piv[k]), b)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_modal_jacobian_at_lambda_zero_is_stream_blocks(grid):
    # the Newton blocks extend the stream layout; at lambda = 0 they are it
    tr = spiral_trace(1.0, 1.0, 1.0) + BoundaryTrace(
        1.0, 2.0, normal_outer={3: 0.2}, angular_inner={2: 0.1})
    problem = _Problem(grid, SolverConfig(lam=0.0), tr.flux, StreamBC.from_trace(grid, tr))
    psi, omega = problem.bc.stokes_state(grid)
    blocks = problem.modal_jacobian(problem.velocity(ScalarField(grid, psi)), omega)
    stream = np.stack(reference_blocks(grid)[0])
    assert np.array_equal(grid.stream_blocks(), stream)
    assert np.array_equal(blocks, stream)


@pytest.mark.parametrize("trace", [
    spiral_trace(2 * np.pi, 1.0, 1.0),
    couette_trace(1.0, 0.0) + BoundaryTrace(1.0, 2.0, normal_outer={2: 0.1},
                                             normal_inner={2: 0.05j}),
])
def test_lazy_blocks_equal_full_stack(grid, trace):
    # a builder fills any runs of modes, over any number of calls, with the
    # blocks of the full stack bit for bit, and leaves the other slices zero
    problem = _Problem(grid, SolverConfig(), trace.flux, StreamBC.from_trace(grid, trace))
    psi, omega = problem.bc.stokes_state(grid)
    res = problem.residual(psi, omega)
    last = grid.n_modes - 1
    for build, full in ((grid.stream_blocks, grid.stream_blocks()),
                        (partial(problem.modal_jacobian, res.u, omega),
                         problem.modal_jacobian(res.u, omega))):
        for runs in ([(0, 1)], [(3, 4)], [(1, 3), (0, 1), (7, last)], [(0, last + 1)]):
            out = np.zeros_like(full)
            for start, stop in runs:
                assert build(slice(start, stop), out) is out
            built = np.zeros(grid.n_modes, dtype=bool)
            for start, stop in runs:
                built[start:stop] = True
            assert np.array_equal(out[built], full[built])
            assert not out[~built].any()


def test_solve_blocks_matches_lu_solve_per_block(grid):
    rng = np.random.default_rng(7)
    tr = couette_trace(1.0, 0.0) + BoundaryTrace(
        1.0, 2.0, normal_outer={2: 0.1}, normal_inner={2: 0.05j})
    problem = _Problem(grid, SolverConfig(), tr.flux, StreamBC.from_trace(grid, tr))
    psi, omega = problem.bc.stokes_state(grid)
    u = problem.velocity(ScalarField(grid, psi))
    complex_factors = BlockFactors(partial(problem.modal_jacobian, u, omega),
                                   grid.n_modes, 2 * grid.n_r, complex)
    for factors in (grid.stream_lu, grid.neumann_lu, complex_factors):
        lu, piv = factors.lu, factors.piv
        for shape in ((len(lu), lu.shape[1], 2), (len(lu), lu.shape[1])):
            b = rng.standard_normal(shape)
            if np.iscomplexobj(lu):
                b = b + 1j * rng.standard_normal(shape)
            got = solve_blocks(factors, b)
            assert got.shape == b.shape and got.dtype == lu.dtype
            assert factors.factored.all()
            for k in range(len(lu)):
                assert np.array_equal(got[k], lu_solve((lu[k], piv[k]), b[k]))


def test_block_factors_match_lu_factor_per_block(grid):
    tr = couette_trace(1.0, 0.0) + BoundaryTrace(
        1.0, 2.0, normal_outer={2: 0.1}, normal_inner={2: 0.05j})
    problem = _Problem(grid, SolverConfig(), tr.flux, StreamBC.from_trace(grid, tr))
    psi, omega = problem.bc.stokes_state(grid)
    u = problem.velocity(ScalarField(grid, psi))
    for build, dtype in ((grid.stream_blocks, float),
                         (partial(problem.modal_jacobian, u, omega), complex)):
        want = [lu_factor(block) for block in build()]
        factors = BlockFactors(build, grid.n_modes, 2 * grid.n_r, dtype)
        solve_blocks(factors, np.ones(factors.piv.shape))  # reach every mode
        assert factors.factored.all()
        for k, (lu_k, piv_k) in enumerate(want):
            assert np.array_equal(factors.lu[k], lu_k)
            assert np.array_equal(factors.piv[k], piv_k)


def test_solve_blocks_skips_exactly_zero_slices(grid):
    # a zero slice needs no block; a NaN slice is not zero and is solved.
    # The reached blocks are built in one call, and the others never
    rhs = np.zeros((grid.n_modes, 2 * grid.n_r, 2))
    rhs[0, 3, 0] = 1.0
    rhs[2, 5, 1] = np.nan
    rhs[4, 0, 1] = -1e-300
    built = []

    def build(modes, out):
        built.append(list(range(grid.n_modes)[modes]))
        grid.stream_blocks(modes, out)

    factors = BlockFactors(build, grid.n_modes, 2 * grid.n_r)
    got = solve_blocks(factors, rhs)
    reached = [0, 2, 4]
    assert built == [[0], [2], [4]]
    assert np.flatnonzero(factors.factored).tolist() == reached
    blocks = grid.stream_blocks()
    for k in range(grid.n_modes):
        if k in reached:
            want = lu_solve(lu_factor(blocks[k]), rhs[k], check_finite=False)
            assert np.array_equal(got[k], want, equal_nan=True)
        else:
            assert not np.any(factors.lu[k])
            assert not np.any(got[k]) and not np.any(np.signbit(got[k]))
    # a second solve builds only the blocks it reaches first, each run of
    # consecutive modes in one call
    rhs[:] = 0.0
    rhs[[1, 2, 5, 6, 7], 0, 0] = 1.0
    solve_blocks(factors, rhs)
    assert built == [[0], [2], [4], [1], [5, 6, 7]]
    assert not np.all(np.isfinite(got[2]))


def test_stream_solve_rejects_nonfinite_rhs(grid):
    rhs = np.zeros((2, grid.n_r, grid.n_modes), dtype=complex)
    rhs[1, grid.n_r // 2, 3] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_stream_system(grid, rhs)
