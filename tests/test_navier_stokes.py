"""Nonlinear solver: fixed point and Newton maps, solves, and continuation.

The three exact steady solutions (source, spiral, Couette) drive the solve
checks; the homotopy endpoint lambda = 0 must return the Stokes solution
with J = 0 exactly; the weak form of the homotopy family is checked by
quadrature against a divergence-free zero-trace test family.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from annulus_flux import (
    NewtonSingularError,
    ScalarField,
    SolverConfig,
    VelocityField,
    build_grid,
    couette,
    couette_trace,
    curl_of_stream,
    dirichlet_norm,
    flux_carrier,
    flux_inner,
    fourier_trace,
    newton_step,
    picard_step,
    pure_flux_trace,
    radial_source,
    solve,
    spiral_flow,
    spiral_trace,
    stokes_solve,
    sweep,
    weak_residual,
)
from annulus_flux.fields import velocity_l2_norm
from annulus_flux import navier_stokes
from annulus_flux.grid import factor_blocks
from annulus_flux.navier_stokes import _Problem, energy_cancellation
from annulus_flux.stokes import solve_stream_system

NEWTON = SolverConfig(nu=1.0, lam=1.0, method="newton")
PICARD = SolverConfig(nu=1.0, lam=1.0, method="picard")


@pytest.fixture(scope="module")
def spiral_setting(grid):
    trace = spiral_trace(2 * np.pi, 1.0, 1.0)  # c = -1
    u_exact, p_exact = spiral_flow(grid, 2 * np.pi, 1.0, 1.0)
    u_stokes = stokes_solve(grid, trace).velocity
    return trace, u_exact, p_exact, u_stokes


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        {"nu": 0.0}, {"lam": -0.1}, {"lam": 1.5}, {"method": "gauss"},
        {"tol": 0.0}, {"max_iter": 0}, {"damping": 0.0}, {"damping": 1.5},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


class TestPicardStep:
    def test_lambda_zero_contracts_to_zero(self, grid, spiral_setting):
        trace, u_exact, _, u_stokes = spiral_setting
        w_any = u_exact - u_stokes
        w_next = picard_step(w_any, u_stokes, SolverConfig(lam=0.0))
        assert dirichlet_norm(w_next) < 1e-10

    def test_exact_solution_is_fixed_point(self, grid, spiral_setting):
        trace, u_exact, _, u_stokes = spiral_setting
        w_star = u_exact - u_stokes
        w_next = picard_step(w_star, u_stokes, NEWTON)
        assert dirichlet_norm(w_next - w_star) < 1e-8

    def test_contraction_at_small_data(self, grid):
        # measured Lipschitz quotient of the fixed-point map at nu = 1,
        # flux = 0.1: well below one
        trace = spiral_trace(0.1, 0.2, 1.0)
        u_stokes = stokes_solve(grid, trace).velocity
        bump = ScalarField.from_function(
            grid, lambda r, t: (r - 1) ** 2 * (2 - r) ** 2 * np.cos(t))
        w_a = 0.05 * curl_of_stream(bump)
        w_b = -0.03 * curl_of_stream(bump)
        ga = picard_step(w_a, u_stokes, PICARD)
        gb = picard_step(w_b, u_stokes, PICARD)
        q = dirichlet_norm(ga - gb) / dirichlet_norm(w_a - w_b)
        assert q < 1.0

    def test_rejects_nonzero_trace(self, grid, spiral_setting):
        _, u_exact, _, u_stokes = spiral_setting
        with pytest.raises(ValueError, match="zero boundary trace"):
            picard_step(u_exact, u_stokes, PICARD)


class TestNewtonStep:
    def test_correction_negligible_at_exact_solution(self):
        # n_r = 24 balances truncation against the rounding floor of the
        # fourth-order collocation residual; the L2 correction sits below
        # 1e-12 there (the Dirichlet-norm correction is bounded separately)
        g = build_grid(24, 16, 1.0, 2.0)
        u_exact, _ = spiral_flow(g, 2 * np.pi, 1.0, 1.0)
        u_stokes = stokes_solve(g, spiral_trace(2 * np.pi, 1.0, 1.0)).velocity
        w_star = u_exact - u_stokes
        w_next = newton_step(w_star, u_stokes, NEWTON)
        assert velocity_l2_norm(w_next - w_star) < 1e-12

    def test_correction_dirichlet_norm_small(self, grid, spiral_setting):
        _, u_exact, _, u_stokes = spiral_setting
        w_star = u_exact - u_stokes
        w_next = newton_step(w_star, u_stokes, NEWTON)
        assert dirichlet_norm(w_next - w_star) < 1e-10

    def test_lambda_zero_single_step(self, grid, spiral_setting):
        trace, u_exact, _, u_stokes = spiral_setting
        w_any = u_exact - u_stokes
        w_next = newton_step(w_any, u_stokes, SolverConfig(lam=0.0))
        assert dirichlet_norm(w_next) < 1e-9

    def test_quadratic_convergence_from_perturbation(self, grid):
        # an angular-mode perturbation makes the nonlinearity genuinely
        # quadratic (rotationally symmetric states are linear in this
        # formulation); the defect history must contract quadratically
        trace = spiral_trace(2 * np.pi, 1.0, 1.0) + fourier_trace(
            1.0, 2.0, normal_outer={2: 0.1}, normal_inner={2: 0.05})
        report = solve(grid, trace, NEWTON)
        hist = report.residual_history
        assert report.converged
        assert len(hist) >= 3
        c = hist[1] / hist[0] ** 2
        assert hist[2] <= 50.0 * c * hist[1] ** 2

    def test_singular_error_carries_parameters(self):
        err = NewtonSingularError(0.75, -2.0)
        assert err.lam == 0.75
        assert err.flux == -2.0
        assert "0.75" in str(err)


class TestSolve:
    def test_source_flow_exact(self, grid):
        report = solve(grid, pure_flux_trace(2 * np.pi), NEWTON)
        u_exact, _ = radial_source(grid, 2 * np.pi)
        assert report.converged
        assert velocity_l2_norm(report.u - u_exact) < 1e-9
        assert report.J < 1e-9  # the carrier itself solves the problem
        assert report.iterations <= 8

    def test_spiral_flow(self, grid, spiral_setting):
        trace, u_exact, p_exact, _ = spiral_setting
        report = solve(grid, trace, NEWTON)
        assert report.converged
        assert report.iterations <= 8
        assert velocity_l2_norm(report.u - u_exact) < 1e-8
        assert np.max(np.abs(report.p.values - p_exact.values)) < 1e-8

    def test_couette_flow(self, grid):
        report = solve(grid, couette_trace(1.0, 0.0), NEWTON)
        u_exact, _ = couette(grid, 1.0, 0.0)
        assert report.converged
        assert velocity_l2_norm(report.u - u_exact) < 1e-9

    def test_lambda_zero_returns_stokes(self, grid, spiral_setting):
        trace = spiral_setting[0]
        report = solve(grid, trace, SolverConfig(nu=1.0, lam=0.0))
        assert report.converged
        assert report.J < 1e-12

    def test_flux_carried_at_every_iterate(self, grid, spiral_setting):
        trace = spiral_setting[0]
        fluxes = []
        solve(grid, trace, PICARD, on_iterate=lambda u: fluxes.append(flux_inner(u)))
        assert len(fluxes) >= 2
        assert np.max(np.abs(np.asarray(fluxes) - 2 * np.pi)) < 1e-10

    def test_picard_and_newton_agree(self, grid, spiral_setting):
        trace = spiral_setting[0]
        u_newton = solve(grid, trace, NEWTON).u
        u_picard = solve(grid, trace, PICARD).u
        assert velocity_l2_norm(u_newton - u_picard) < 1e-8

    def test_weak_residual_of_converged_solution(self, grid, spiral_setting):
        trace = spiral_setting[0]
        report = solve(grid, trace, NEWTON)
        u_aux = report.u - report.w
        assert weak_residual(grid, report.w, u_aux, NEWTON) < 10 * NEWTON.tol

    def test_energy_cancellation(self, grid, spiral_setting):
        trace = spiral_setting[0]
        report = solve(grid, trace, NEWTON)
        assert energy_cancellation(report.w, report.u - report.w) < 1e-8

    def test_nonconvergence_reported(self, grid, spiral_setting):
        trace = spiral_setting[0]
        report = solve(grid, trace, SolverConfig(max_iter=1, tol=1e-14))
        assert not report.converged
        assert len(report.residual_history) == 1

    def test_divergence_stops_at_last_finite_iterate(self):
        # Picard at nu = 0.01 on Couette(5, 0) plus k = 2 normal data blows
        # up super-exponentially; the solve reports instead of overflowing
        g = build_grid(24, 16, 1.0, 2.0)
        trace = couette_trace(5.0, 0.0) + fourier_trace(
            1.0, 2.0, normal_outer={2: 0.1}, normal_inner={2: 0.05})
        report = solve(g, trace, SolverConfig(nu=0.01, method="picard"))
        assert not report.converged
        assert report.iterations < 200
        assert len(report.residual_history) == len(report.steps) == report.iterations
        assert np.all(np.isfinite(report.residual_history))
        assert np.isfinite(report.J)
        json.dumps(report.to_dict(), allow_nan=False)

    def test_nonradial_data_dense_newton(self, grid):
        trace = couette_trace(1.0, 0.0) + fourier_trace(
            1.0, 2.0, normal_outer={2: 0.1}, normal_inner={2: 0.05j})
        report = solve(grid, trace, NEWTON)
        assert report.converged
        assert abs(flux_inner(report.u) - trace.flux) < 1e-10
        assert weak_residual(grid, report.w, report.u - report.w, NEWTON) < 1e-9

    def test_newton_fallback_on_singular_jacobian(self, grid, spiral_setting, monkeypatch):
        # a singular Jacobian must not abort the solve: the iteration falls
        # back to a damped Picard sweep (robustness near turning points)
        trace = spiral_setting[0]
        original = _Problem.newton_update
        calls = {"n": 0}

        def flaky(self, psi, omega):
            calls["n"] += 1
            if calls["n"] == 1:
                raise NewtonSingularError(self.cfg.lam, self.flux)
            return original(self, psi, omega)

        monkeypatch.setattr(_Problem, "newton_update", flaky)
        report = solve(grid, trace, NEWTON)
        assert report.converged

    def test_report_serialization(self, grid, spiral_setting):
        report = solve(grid, spiral_setting[0], NEWTON)
        data = report.to_dict()
        assert data["converged"] is True
        assert data["lambda"] == 1.0
        assert "diagnostics" in data and "residual_history" in data
        assert data["flux"] == pytest.approx(2 * np.pi)


class TestSweep:
    def test_lambda_sweep(self, grid):
        trace = spiral_trace(1.0, 1.0, 1.0)
        result = sweep(grid, trace, NEWTON, "lambda", [0.0, 0.25, 0.5, 0.75, 1.0])
        assert result.all_converged()
        js = [pt.J for pt in result.points]
        assert js[0] < 1e-12
        assert all(b >= a - 1e-12 for a, b in zip(js, js[1:]))  # J nondecreasing

    def test_flux_sweep_nonnegative(self, grid):
        trace = spiral_trace(1.0, 1.0, 1.0)
        result = sweep(grid, trace, NEWTON, "flux", [0.0, 1.0, 2.0, 5.0])
        assert result.all_converged()
        assert result.first_failure() is None

    def test_flux_sweep_small_negative(self, grid):
        trace = spiral_trace(1.0, 1.0, 1.0)
        result = sweep(grid, trace, NEWTON, "flux", [-0.05, -0.1])
        assert result.all_converged()

    def test_values_must_be_monotone(self, grid):
        with pytest.raises(ValueError, match="monotone"):
            sweep(grid, spiral_trace(1.0, 1.0, 1.0), NEWTON, "lambda", [0.0, 0.5, 0.25])

    def test_unknown_parameter(self, grid):
        with pytest.raises(ValueError, match="parameter"):
            sweep(grid, spiral_trace(1.0, 1.0, 1.0), NEWTON, "reynolds", [1.0])

    def test_failure_recorded_with_bisection(self, grid):
        # starving the solver of iterations forces failures; the trace must
        # record the bisection midpoint and keep values monotone
        cfg = SolverConfig(nu=1.0, lam=1.0, method="picard", max_iter=1, tol=1e-14)
        result = sweep(grid, spiral_trace(1.0, 1.0, 1.0), cfg, "flux", [0.5, 1.0])
        assert not result.all_converged()
        assert result.first_failure() is not None
        values = [pt.value for pt in result.points]
        assert values == sorted(values)

    def test_flux_sweep_preserves_flux(self, grid):
        trace = spiral_trace(1.0, 1.0, 1.0)
        values = [0.0, 0.5, 1.5]
        result = sweep(grid, trace, NEWTON, "flux", values)
        assert [pt.value for pt in result.points] == values

    def test_sweep_skips_post_solve_pressure(self, grid):
        # boundary data of size ~1e102 overflow the least-squares pressure that
        # solve attaches; a sweep point needs only J and the solver state
        result = sweep(grid, spiral_trace(-64.0, 1.0, 0.03), SolverConfig(nu=0.03), "flux",
                       [-64.0])
        assert [pt.value for pt in result.points] == [-64.0]


    def test_descending_negative_flux_exploratory(self, grid):
        # inflow exploration: convergence for strongly negative flux is an
        # open regime, so only the bookkeeping is asserted; the trace must
        # either be clean or name the first failing value
        trace = spiral_trace(1.0, 1.0, 1.0)
        result = sweep(grid, trace, NEWTON, "flux", [-0.1, -0.2, -0.5, -1.0])
        values = [pt.value for pt in result.points]
        assert values == sorted(values, reverse=True)
        failure = result.first_failure()
        assert failure is None or failure in values


NONAXI_CASES = {
    "couette_k2_32x16": ((32, 16), couette_trace(1.0, 0.0) + fourier_trace(
        1.0, 2.0, normal_outer={2: 0.1}, normal_inner={2: 0.05j})),
    "fourier_k234_32x64": ((32, 64), fourier_trace(
        1.0, 2.0, angular_outer={0: 2.0},
        normal_outer={2: 0.05 + 0.03j, 3: -0.04j, 4: 0.06},
        normal_inner={2: 0.07, 3: 0.02 + 0.05j, 4: -0.03})),
}


class TestNewtonKrylov:
    def _state(self, grid, trace):
        problem = _Problem.from_trace(grid, trace, NEWTON)
        psi, omega = problem.stokes_state()
        return problem, psi, omega

    def test_jacobian_matches_difference_quotient(self, grid):
        problem, psi, omega = self._state(grid, NONAXI_CASES["couette_k2_32x16"][1])
        rng = np.random.default_rng(3)
        bump = (grid.rr - 1.0) ** 2 * (2.0 - grid.rr) ** 2
        step = np.stack([bump * np.cos(2 * grid.tt + rng.uniform(0, 6)),
                         bump * np.sin(3 * grid.tt + rng.uniform(0, 6))])
        # the residual is quadratic in the state, so the central quotient
        # is exact up to rounding for any h
        _, u = problem.residual(psi, omega)
        h = 1e-2
        plus, _ = problem.residual(psi + h * step[0], omega + h * step[1])
        minus, _ = problem.residual(psi - h * step[0], omega - h * step[1])
        quotient = (plus - minus) / (2 * h)
        exact = problem.jacobian(u, omega, step)
        assert np.linalg.norm(exact - quotient) < 1e-9 * np.linalg.norm(exact)

    @pytest.mark.parametrize("case", sorted(NONAXI_CASES))
    def test_newton_agrees_with_picard(self, case):
        # Picard's defect floors near 5e-12 here, so it stops at max_iter
        # rather than at tol; agreement of the two paths is the check
        (n_r, n_theta), trace = NONAXI_CASES[case]
        g = build_grid(n_r, n_theta, 1.0, 2.0)
        newton = solve(g, trace, NEWTON)
        picard = solve(g, trace, SolverConfig(method="picard", tol=1e-13, max_iter=40))
        assert newton.converged
        assert [step["kind"] for step in newton.steps] == ["krylov"] * newton.iterations
        assert velocity_l2_norm(newton.u - picard.u) < 1e-10

    def test_fine_grid_converges(self):
        g = build_grid(64, 128, 1.0, 2.0)
        report = solve(g, NONAXI_CASES["fourier_k234_32x64"][1], NEWTON)
        assert report.converged
        assert report.iterations <= 6
        assert all(1 <= step["gmres_iterations"] <= 10 for step in report.steps)

    def test_krylov_miss_raises(self, grid, monkeypatch):
        problem, psi, omega = self._state(grid, NONAXI_CASES["couette_k2_32x16"][1])
        monkeypatch.setattr(navier_stokes, "KRYLOV_MAX_ITER", 1)
        with pytest.raises(NewtonSingularError):
            problem.newton_update(psi, omega)

    def test_krylov_miss_falls_back_to_picard(self, grid, monkeypatch):
        monkeypatch.setattr(navier_stokes, "KRYLOV_MAX_ITER", 1)
        report = solve(grid, NONAXI_CASES["couette_k2_32x16"][1], NEWTON)
        assert report.converged
        assert {step["kind"] for step in report.steps} == {"picard-fallback"}
        assert report.to_dict()["steps"][0] == {"kind": "picard-fallback"}

    def test_nonfinite_preconditioner_input_falls_back_to_picard(self, grid, monkeypatch):
        # the preconditioner's block solves do not check their input: a NaN
        # in the Jacobian product comes out of them and is caught as a
        # singular step (the residual is shared with the Picard fallback)
        jacobian = _Problem.jacobian

        def poisoned(self, u, omega, step):
            product = jacobian(self, u, omega, step).copy()
            product[0, 1, 0] = np.nan
            return product

        monkeypatch.setattr(_Problem, "jacobian", poisoned)
        problem, psi, omega = self._state(grid, NONAXI_CASES["couette_k2_32x16"][1])
        with pytest.raises(NewtonSingularError):
            problem.newton_update(psi, omega)
        report = solve(grid, NONAXI_CASES["couette_k2_32x16"][1], replace(NEWTON, max_iter=2))
        assert report.steps == [{"kind": "picard-fallback"}] * 2

    def test_unapplied_warm_start_leaves_caller_arrays_writeable(self, grid, monkeypatch):
        # with a zero blow-up factor every step is rejected, so the report
        # holds the warm-start state itself
        monkeypatch.setattr(navier_stokes, "BLOWUP_FACTOR", 0.0)
        trace = NONAXI_CASES["couette_k2_32x16"][1]
        psi, omega = _Problem.from_trace(grid, trace, NEWTON).stokes_state()
        report = solve(grid, trace, NEWTON, warm_start=(psi, omega))
        assert report.iterations == 0 and not report.converged
        assert psi.flags.writeable and omega.flags.writeable
        assert np.array_equal(report.psi.values, psi)
        psi[0, 0] += 1.0
        assert not np.array_equal(report.psi.values, psi)

    def test_report_carries_solver_state(self, grid):
        trace = NONAXI_CASES["couette_k2_32x16"][1]
        rep = solve(grid, trace, NEWTON)
        assert rep.converged and rep.steps[0]["kind"] == "krylov"
        assert not rep.psi.values.flags.writeable
        assert not rep.omega.values.flags.writeable
        assert "psi" not in rep.to_dict() and "omega" not in rep.to_dict()
        # u = u_F + curl(psi) for the solver's own iterate
        rebuilt = flux_carrier(grid, rep.flux) + curl_of_stream(rep.psi)
        scale = max(np.max(np.abs(rep.u.u_r.values)), np.max(np.abs(rep.u.u_theta.values)))
        assert np.max(np.abs(rebuilt.u_r.values - rep.u.u_r.values)) <= 1e-14 * scale
        assert np.max(np.abs(rebuilt.u_theta.values - rep.u.u_theta.values)) <= 1e-14 * scale

    def test_warm_start_from_report_state_is_converged(self, grid):
        trace = NONAXI_CASES["couette_k2_32x16"][1]
        rep = solve(grid, trace, NEWTON)
        again = solve(grid, trace, NEWTON, warm_start=(rep.psi.values, rep.omega.values))
        assert again.converged
        assert again.iterations == 1
        assert again.steps[0]["kind"] == "krylov"
        assert velocity_l2_norm(again.u - rep.u) < 1e-12

    def test_step_kinds_recorded(self, grid, spiral_setting):
        trace = spiral_setting[0]
        symmetric = solve(grid, trace, NEWTON)
        assert symmetric.converged
        exact = {"kind": "krylov", "gmres_iterations": 0}
        assert symmetric.steps == [exact] * symmetric.iterations
        picard = solve(grid, trace, PICARD)
        assert picard.steps == [{"kind": "picard"}] * picard.iterations
        krylov = solve(grid, NONAXI_CASES["couette_k2_32x16"][1], NEWTON)
        assert all(step["kind"] == "krylov" and step["gmres_iterations"] >= 1
                   for step in krylov.to_dict()["steps"])

    def test_symmetric_state_takes_exact_modal_step(self, fine_grid):
        # about a rotationally symmetric state the preconditioner is the exact
        # Jacobian, so GMRES has nothing left to do
        problem, psi, omega = self._state(fine_grid, spiral_trace(2 * np.pi, 1.0, 1.0))
        dpsi, domega, record = problem.newton_update(psi, omega)
        assert record == {"kind": "krylov", "gmres_iterations": 0}
        g = fine_grid
        res, u = problem.residual(psi, omega)
        blocks = problem.modal_jacobian(u, omega)
        rhs = -res.transpose(2, 0, 1).reshape(g.n_modes, 2 * g.n_r)
        sol = np.stack([np.linalg.solve(block, b) for block, b in zip(blocks, rhs)])
        want = g.from_modes(sol.reshape(g.n_modes, 2, g.n_r).transpose(1, 2, 0))
        got = np.stack([dpsi, domega])
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("trace, factored", [
        (spiral_trace(2 * np.pi, 1.0, 1.0), [0]),
        (NONAXI_CASES["couette_k2_32x16"][1], list(range(33))),
    ])
    def test_step_factors_only_reached_blocks(self, fine_grid, monkeypatch, trace, factored):
        # at n_theta = 64 an axisymmetric residual is exactly zero in every
        # mode k >= 1, so only mode 0 is factored; Couette + k=2 reaches every block.  The
        # reference factors and solves every block per mode
        def reference_solve(blocks, rhs):
            return np.stack([lu_solve(lu_factor(block), b) for block, b in zip(blocks, rhs)])

        problem, psi, omega = self._state(fine_grid, trace)
        with monkeypatch.context() as m:
            m.setattr(navier_stokes, "factor_blocks", lambda blocks: blocks)
            m.setattr(navier_stokes, "solve_blocks", reference_solve)
            want = problem.newton_update(psi, omega)
        made = []
        monkeypatch.setattr(navier_stokes, "factor_blocks",
                            lambda blocks: made.append(factor_blocks(blocks)) or made[-1])
        got = problem.newton_update(psi, omega)
        assert len(made) == 1 and np.flatnonzero(made[0].factored).tolist() == factored
        assert got[2] == want[2]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestOneProblem:
    """Picard and Newton read one residual; lambda = 0 is the Stokes state."""

    @pytest.mark.parametrize("case", sorted(NONAXI_CASES))
    def test_picard_update_is_fixed_point_map(self, case):
        # reference: the frozen-convection Stokes-type solve minus the state,
        # with the convection and the side condition assembled on their own
        (n_r, n_theta), trace = NONAXI_CASES[case]
        g = build_grid(n_r, n_theta, 1.0, 2.0)
        problem = _Problem.from_trace(g, trace, PICARD)
        psi, omega = problem.stokes_state()
        for _ in range(3):
            u = problem.velocity(psi)
            rhs = problem.bc.stokes_rhs(g)
            conv = problem.ratio * problem.convection_of_vorticity(u, omega)
            rhs[1, 1:-1] = g.to_modes(conv)[1:-1]
            rhs[1, 0, 0] = problem.ratio * problem.swirl_momentum(u, u)[0, :].mean() * n_theta
            target_psi, target_omega = solve_stream_system(g, rhs)
            dpsi, domega = problem.picard_update(psi, omega)
            scale = max(np.max(np.abs(psi)), np.max(np.abs(omega)))
            assert np.max(np.abs(dpsi - (target_psi - psi))) <= 1e-11 * scale
            assert np.max(np.abs(domega - (target_omega - omega))) <= 1e-11 * scale
            psi, omega = psi + dpsi, omega + domega

    def test_lambda_zero_returns_stokes_state(self, grid):
        trace = NONAXI_CASES["couette_k2_32x16"][1]
        psi_stokes, _ = _Problem.from_trace(grid, trace, NEWTON).stokes_state()
        warm = solve(grid, trace, NEWTON)
        stokes = replace(NEWTON, lam=0.0)
        for start in (None, (warm.psi.values, warm.omega.values)):
            report = solve(grid, trace, stokes, warm_start=start)
            assert np.array_equal(report.psi.values, psi_stokes)
            assert report.J == 0.0
            assert report.iterations == 0 and report.converged
            assert report.residual_history == [] and report.steps == []
