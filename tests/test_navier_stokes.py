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
    BoundaryTrace,
    ScalarField,
    SolverConfig,
    build_grid,
    couette,
    couette_trace,
    curl,
    curl_of_stream,
    flux_carrier,
    flux_inner,
    pure_flux_trace,
    radial_source,
    solve,
    spiral_flow,
    spiral_trace,
    stokes_solve,
    stream_function,
    sweep,
    weak_residual,
)
from annulus_flux.fields import advect, scalar_laplacian, velocity_l2_norm
from annulus_flux import grid as grid_module
from annulus_flux import navier_stokes
from annulus_flux.grid import BlockFactors
from annulus_flux.navier_stokes import _Problem, _SingularStepError, energy_cancellation
from annulus_flux.stokes import StreamBC, solve_stream_system

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
        {"tol": 0.0}, {"max_iter": 0},
        {"nu": float("inf")}, {"nu": float("nan")}, {"tol": float("inf")},
        {"tol": float("nan")}, {"lam": float("nan")}, {"nu": -1.0},
    ])
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)


def spiral_state(grid, cfg):
    """The exact spiral of ``spiral_setting`` as a solver state: (problem, psi, omega).

    The spiral is axisymmetric, so the stream function of its zero-flux part,
    zero on the inner circle, is in the gauge of the clamped stream data.
    """
    u_exact, _ = spiral_flow(grid, 2 * np.pi, 1.0, 1.0)
    psi = stream_function(u_exact - flux_carrier(grid, 2 * np.pi)).values
    omega = curl(u_exact).values
    trace = spiral_trace(2 * np.pi, 1.0, 1.0)
    return _Problem(grid, cfg, trace.flux, StreamBC.from_trace(grid, trace)), psi, omega


def picard_step(problem, psi, omega):
    """The step ``solve`` takes for Picard at (psi, omega): the grid's Stokes blocks, no GMRES."""
    return problem.newton_update(problem.residual(psi, omega), problem.grid.stream_lu, 0)


def newton_step(problem, psi, omega):
    """The step ``solve`` takes for Newton at (psi, omega), with its record."""
    res = problem.residual(psi, omega)
    return problem.newton_update(res, problem.modal_factors(res), navier_stokes.KRYLOV_MAX_ITER)


class TestPicardStep:
    def test_lambda_zero_contracts_to_zero(self, grid):
        # at lambda = 0 one step from any state lands on the Stokes state
        problem, psi, omega = spiral_state(grid, SolverConfig(lam=0.0))
        dpsi, _, _ = picard_step(problem, psi, omega)
        psi_stokes, _ = problem.bc.stokes_state(grid)
        assert problem.update_norm(psi + dpsi - psi_stokes) < 1e-10

    def test_exact_solution_is_fixed_point(self, grid):
        problem, psi, omega = spiral_state(grid, NEWTON)
        dpsi, _, _ = picard_step(problem, psi, omega)
        assert problem.update_norm(dpsi) < 1e-8

    def test_contraction_at_small_data(self, grid):
        # measured Lipschitz quotient of the fixed-point map at nu = 1,
        # flux = 0.1: well below one
        trace = spiral_trace(0.1, 0.2, 1.0)
        problem = _Problem(grid, PICARD, trace.flux, StreamBC.from_trace(grid, trace))
        psi_stokes, omega_stokes = problem.bc.stokes_state(grid)
        bump = ScalarField.from_function(
            grid, lambda r, t: (r - 1) ** 2 * (2 - r) ** 2 * np.cos(t))
        lap_bump = scalar_laplacian(bump).values

        def fixed_point_map(c):
            psi = psi_stokes + c * bump.values
            dpsi, _, _ = picard_step(problem, psi, omega_stokes - c * lap_bump)
            return psi + dpsi

        q = (problem.update_norm(fixed_point_map(0.05) - fixed_point_map(-0.03))
             / problem.update_norm(0.08 * bump.values))
        assert q < 1.0


class TestNewtonStep:
    def test_correction_negligible_at_exact_solution(self):
        # n_r = 24 balances truncation against the rounding floor of the
        # fourth-order collocation residual; the L2 correction sits below
        # 1e-12 there (the Dirichlet-norm correction is bounded separately)
        g = build_grid(24, 16, 1.0, 2.0)
        problem, psi, omega = spiral_state(g, NEWTON)
        dpsi, _, _ = newton_step(problem, psi, omega)
        assert velocity_l2_norm(curl_of_stream(ScalarField(g, dpsi))) < 1e-12

    def test_correction_dirichlet_norm_small(self, grid):
        problem, psi, omega = spiral_state(grid, NEWTON)
        dpsi, _, _ = newton_step(problem, psi, omega)
        assert problem.update_norm(dpsi) < 1e-10

    def test_lambda_zero_single_step(self, grid):
        problem, psi, omega = spiral_state(grid, SolverConfig(lam=0.0))
        dpsi, _, _ = newton_step(problem, psi, omega)
        psi_stokes, _ = problem.bc.stokes_state(grid)
        assert problem.update_norm(psi + dpsi - psi_stokes) < 1e-9

    def test_quadratic_convergence_from_perturbation(self, grid):
        # an angular-mode perturbation makes the nonlinearity genuinely
        # quadratic (rotationally symmetric states are linear in this
        # formulation); the defect history must contract quadratically
        trace = spiral_trace(2 * np.pi, 1.0, 1.0) + BoundaryTrace(
            1.0, 2.0, normal_outer={2: 0.1}, normal_inner={2: 0.05})
        report = solve(grid, trace, NEWTON)
        hist = report.residual_history
        assert report.converged
        assert len(hist) >= 3
        c = hist[1] / hist[0] ** 2
        assert hist[2] <= 50.0 * c * hist[1] ** 2


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

    def test_spiral_certified_by_residual_after_one_step(self, fine_grid):
        # the first Newton step lands on the spiral to rounding; the residual
        # test certifies it there, without a confirming second step
        report = solve(fine_grid, spiral_trace(2 * np.pi, 1.0, 1.0), NEWTON)
        assert report.converged
        assert report.iterations == 1
        assert report.residual_history[0] >= NEWTON.tol  # not stopped by the step test
        norms = report.to_dict()["residual_norms"]
        assert len(norms) == report.iterations + 1
        assert norms[-1] <= 0.1 * NEWTON.tol < norms[0]

    @pytest.mark.parametrize("n_theta", [64, 80])
    def test_symmetric_datum_iterates_on_ring(self, monkeypatch, n_theta):
        # a datum with no harmonic above 0 iterates on the two-column ring,
        # whose rfft leaves mode 1 exactly zero: each Newton step factors the
        # mode-0 block alone, also at n_theta = 80, where the FFT of the full
        # grid left rounding in every mode and a step factored all 41 blocks
        made = []
        monkeypatch.setattr(navier_stokes, "BlockFactors",
                            lambda *args: made.append(BlockFactors(*args)) or made[-1])
        trace = spiral_trace(2 * np.pi, 1.0, 1.0)
        report = solve(build_grid(32, n_theta, 1.0, 2.0), trace, NEWTON)
        assert report.converged and report.iterations == len(made) >= 1
        assert [np.flatnonzero(m.factored).tolist() for m in made] == [[0]] * len(made)
        assert report.psi.values.shape == report.u.u_r.values.shape == (32, n_theta)
        assert report.psi.values.flags.c_contiguous
        reference = solve(build_grid(32, 64, 1.0, 2.0), trace, NEWTON).J
        assert abs(report.J - reference) <= 1e-10 * reference

    def test_varying_warm_start_iterates_on_configured_grid(self, fine_grid, monkeypatch):
        # only a start constant along theta keeps the iterates on the ring
        trace = spiral_trace(2 * np.pi, 1.0, 1.0)
        cold = solve(fine_grid, trace, NEWTON)
        bump = 1e-3 * np.sin(fine_grid.tt) * ((fine_grid.rr - 1.0) * (2.0 - fine_grid.rr)) ** 2
        grids = []
        iterate = navier_stokes._iterate
        monkeypatch.setattr(navier_stokes, "_iterate",
                            lambda problem, *args: grids.append(problem.grid)
                            or iterate(problem, *args))
        warm = solve(fine_grid, trace, NEWTON, warm_start=(cold.psi.values + bump,
                                                           cold.omega.values))
        again = solve(fine_grid, trace, NEWTON, warm_start=(cold.psi.values,
                                                            cold.omega.values))
        assert grids == [fine_grid, fine_grid.ring]
        assert warm.converged and abs(warm.J - cold.J) <= 1e-10 * cold.J
        assert again.converged and abs(again.J - cold.J) <= 1e-10 * cold.J

    def test_lambda_zero_returns_stokes(self, grid, spiral_setting):
        trace = spiral_setting[0]
        report = solve(grid, trace, SolverConfig(nu=1.0, lam=0.0))
        assert report.converged
        assert report.J < 1e-12

    def test_flux_carried_at_every_iterate(self, grid, spiral_setting):
        # a Picard solve stopped after 1, 2 and 3 steps reports those iterates
        trace = spiral_setting[0]
        reports = [solve(grid, trace, replace(PICARD, max_iter=n)) for n in (1, 2, 3)]
        assert [report.iterations for report in reports] == [1, 2, 3]
        fluxes = [flux_inner(report.u) for report in reports]
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
        # up super-exponentially.  Picard on the spiral at F = 16, nu = 0.1
        # grows geometrically, each step a bounded multiple of its iterate:
        # it ran all 200 steps to J = 1.4e88 and then overflowed the
        # pressure.  Both solves report instead of overflowing
        cases = [
            (build_grid(24, 16, 1.0, 2.0), couette_trace(5.0, 0.0) + BoundaryTrace(
                1.0, 2.0, normal_outer={2: 0.1}, normal_inner={2: 0.05}), 0.01),
            (build_grid(32, 64, 1.0, 2.0), spiral_trace(16.0, 1.0, 0.1), 0.1),
        ]
        for g, trace, nu in cases:
            report = solve(g, trace, SolverConfig(nu=nu, method="picard"))
            assert not report.converged
            assert report.iterations < 200
            assert len(report.residual_history) == len(report.steps) == report.iterations
            assert np.all(np.isfinite(report.residual_history))
            assert np.isfinite(report.J)
            json.dumps(report.to_dict(), allow_nan=False)

    def test_nonradial_data_dense_newton(self, grid):
        trace = couette_trace(1.0, 0.0) + BoundaryTrace(
            1.0, 2.0, normal_outer={2: 0.1}, normal_inner={2: 0.05j})
        report = solve(grid, trace, NEWTON)
        assert report.converged
        assert abs(flux_inner(report.u) - trace.flux) < 1e-10
        assert weak_residual(grid, report.w, report.u - report.w, NEWTON) < 1e-9

    def test_singular_newton_step_ends_solve_at_start(self, grid, spiral_setting, monkeypatch):
        # a singular Newton step is not applied: the solve ends unconverged
        # with a finite report of its start
        trace = spiral_setting[0]
        original = _Problem.newton_update
        calls = {"n": 0}

        def flaky(self, *args):
            calls["n"] += 1
            if calls["n"] == 1:
                raise _SingularStepError
            return original(self, *args)

        monkeypatch.setattr(_Problem, "newton_update", flaky)
        report = solve(grid, trace, NEWTON)
        assert not report.converged
        assert report.iterations == 0 and report.steps == [] and calls["n"] == 1
        assert np.isfinite(report.J) and np.all(np.isfinite(report.residual_norms))
        json.dumps(report.to_dict(), allow_nan=False)

    def test_nonfinite_picard_residual_ends_solve_at_start(self, grid):
        # lambda/nu = 1e300 overflows the convection of F, so the first step
        # has a non-finite right-hand side.  Picard raised ValueError out of
        # solve on it; both methods now end at the finite Stokes state
        trace = couette_trace(1e10, 0.0) + BoundaryTrace(1.0, 2.0, normal_outer={2: 0.1})
        for method in ("picard", "newton"):
            with np.errstate(over="ignore", invalid="ignore"):
                report = solve(grid, trace, SolverConfig(nu=1e-300, method=method))
            assert not report.converged
            assert report.iterations == 0 and report.steps == [] and report.J == 0.0

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

    def test_flux_sweep_one_step_per_point(self, fine_grid):
        result = sweep(fine_grid, spiral_trace(1.0, 1.0, 1.0), NEWTON, "flux",
                       [0.0, 1.0, 2.0, 5.0])
        assert result.all_converged()
        assert [pt.iterations for pt in result.points] == [1] * 4

    def test_values_must_be_monotone(self, grid):
        with pytest.raises(ValueError, match="monotone"):
            sweep(grid, spiral_trace(1.0, 1.0, 1.0), NEWTON, "lambda", [0.0, 0.5, 0.25])

    def test_unknown_parameter(self, grid):
        with pytest.raises(ValueError, match="parameter"):
            sweep(grid, spiral_trace(1.0, 1.0, 1.0), NEWTON, "reynolds", [1.0])

    @pytest.mark.parametrize("values, message", [
        ([0.5, 1.0, 1.5], r"\[0, 1\]"), ([0.5, float("nan")], "finite")])
    def test_values_checked_before_any_point(self, grid, monkeypatch, values, message):
        # a lambda past 1 was refused by SolverConfig only at its own point,
        # after the points before it had been solved
        def no_iterate(*args, **kwargs):
            raise AssertionError("a point was solved")

        monkeypatch.setattr(navier_stokes, "_iterate", no_iterate)
        with pytest.raises(ValueError, match=message):
            sweep(grid, spiral_trace(1.0, 1.0, 1.0), NEWTON, "lambda", values)

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

    @pytest.mark.parametrize("parameter, values", [
        ("flux", [0.0, 1.0, 2.0, 5.0]),
        ("lambda", [0.0, 0.5, 1.0]),
    ])
    def test_sweep_solves_stokes_once(self, grid, monkeypatch, parameter, values):
        # the clamped stream data, and so the Stokes state, are the same at
        # every point; a sweep of either method takes no other stream-system
        # solve, since a Picard step is the Krylov step with no GMRES
        # iterations.  The solver binds no stream solve of its own, so every
        # call goes through the stokes module
        assert not hasattr(navier_stokes, "solve_stream_system")
        for cfg in (NEWTON, PICARD):
            calls = []

            def counted(*args):
                calls.append(args)
                return solve_stream_system(*args)

            monkeypatch.setattr("annulus_flux.stokes.solve_stream_system", counted)
            result = sweep(grid, spiral_trace(1.0, 1.0, 1.0), cfg, parameter, values)
            assert result.all_converged()
            assert len(calls) == 1

    @pytest.mark.parametrize("trace, parameter, values", [
        (spiral_trace(1.0, 1.0, 1.0), "flux", [0.0, 1.0, 2.0, 5.0]),
        (spiral_trace(1.0, 1.0, 1.0), "lambda", [0.0, 0.5, 1.0]),
        (couette_trace(1.0, 0.0) + BoundaryTrace(1.0, 2.0, normal_outer={2: 0.1},
                                                  normal_inner={2: 0.05j}),
         "flux", [0.0, 0.5, 1.0]),
    ])
    def test_sweep_points_match_standalone_solves(self, grid, trace, parameter, values):
        # a point equals a solve of its own datum from the same warm start,
        # which builds its own stream data and Stokes state
        result = sweep(grid, trace, NEWTON, parameter, values)
        warm = None
        for point, value in zip(result.points, values, strict=True):
            if parameter == "lambda":
                report = solve(grid, trace, replace(NEWTON, lam=value), warm_start=warm)
            else:
                datum = trace.zero_flux_remainder() + pure_flux_trace(value, 1.0, 2.0)
                report = solve(grid, datum, NEWTON, warm_start=warm)
            assert report.converged and point.converged and point.value == value
            assert point.J == report.J and point.iterations == report.iterations
            warm = (report.psi.values, report.omega.values)

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
    "couette_k2_32x16": ((32, 16), couette_trace(1.0, 0.0) + BoundaryTrace(
        1.0, 2.0, normal_outer={2: 0.1}, normal_inner={2: 0.05j})),
    "fourier_k234_32x64": ((32, 64), BoundaryTrace(
        1.0, 2.0, angular_outer={0: 2.0},
        normal_outer={2: 0.05 + 0.03j, 3: -0.04j, 4: 0.06},
        normal_inner={2: 0.07, 3: 0.02 + 0.05j, 4: -0.03})),
}


class TestNewtonKrylov:
    def _state(self, grid, trace):
        problem = _Problem(grid, NEWTON, trace.flux, StreamBC.from_trace(grid, trace))
        psi, omega = problem.bc.stokes_state(grid)
        return problem, psi, omega

    def test_jacobian_matches_difference_quotient(self, grid):
        problem, psi, omega = self._state(grid, NONAXI_CASES["couette_k2_32x16"][1])
        rng = np.random.default_rng(3)
        bump = (grid.rr - 1.0) ** 2 * (2.0 - grid.rr) ** 2
        step = np.stack([bump * np.cos(2 * grid.tt + rng.uniform(0, 6)),
                         bump * np.sin(3 * grid.tt + rng.uniform(0, 6))])
        # the residual is quadratic in the state, so the central quotient
        # is exact up to rounding for any h
        u = problem.residual(psi, omega).u
        h = 1e-2
        plus = problem.residual(psi + h * step[0], omega + h * step[1]).modes
        minus = problem.residual(psi - h * step[0], omega - h * step[1]).modes
        quotient = (plus - minus) / (2 * h)
        exact = problem.jacobian(u, ScalarField(grid, omega), step)
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

    def test_low_viscosity_fine_grid_stops_on_residual(self):
        # at nu = 0.01 on 64x128 the step norm floors above tol after step 3
        # (1e-10 to 2e-9), while the relative residual reaches 1e-12 there
        g = build_grid(64, 128, 1.0, 2.0)
        trace = couette_trace(5.0, 0.0) + BoundaryTrace(
            1.0, 2.0, normal_outer={2: 0.1}, normal_inner={2: 0.05j})
        report = solve(g, trace, SolverConfig(nu=0.01, max_iter=6))
        assert report.converged
        assert report.residual_norms[-1] <= 0.1 * NEWTON.tol

    @pytest.mark.parametrize("omega1, nu, J", [
        (10.0, 0.002, None), (10.0, 0.001, 3.0285048), (5.0, 0.001, 2.548312)])
    def test_low_viscosity_converges_on_krylov_steps(self, omega1, nu, J):
        # GMRES reaches its cap on the late steps here, and its least-squares
        # iterate is the step.  At nu = 0.001, 64 x 128 resolves the state
        # (Chebyshev tail of omega <= 6e-6), so J is held to its value
        g = build_grid(64, 128, 1.0, 2.0)
        trace = couette_trace(omega1, 0.0) + BoundaryTrace(
            1.0, 2.0, normal_outer={2: 0.1}, normal_inner={2: 0.05j})
        report = solve(g, trace, SolverConfig(nu=nu, max_iter=8))
        assert report.converged
        assert report.iterations <= 4
        assert [step["kind"] for step in report.steps] == ["krylov"] * report.iterations
        if J is not None:
            assert abs(report.J - J) <= 1e-6

    def test_krylov_cap_gives_finite_step(self, grid, monkeypatch):
        # a GMRES miss raises nothing: at the cap its iterate is the step
        problem, psi, omega = self._state(grid, NONAXI_CASES["couette_k2_32x16"][1])
        monkeypatch.setattr(navier_stokes, "KRYLOV_MAX_ITER", 1)
        dpsi, domega, step = newton_step(problem, psi, omega)
        assert np.all(np.isfinite(dpsi)) and np.all(np.isfinite(domega))
        assert step == {"kind": "krylov", "gmres_iterations": 1}

    def test_capped_krylov_steps_converge(self, grid, monkeypatch):
        # capped at 1 GMRES iteration every step misses its target, and the
        # inexact Newton steps still converge
        monkeypatch.setattr(navier_stokes, "KRYLOV_MAX_ITER", 1)
        report = solve(grid, NONAXI_CASES["couette_k2_32x16"][1], NEWTON)
        assert report.converged
        assert 1 <= report.iterations <= 5
        assert report.steps == [{"kind": "krylov", "gmres_iterations": 1}] * report.iterations

    def test_nonfinite_preconditioner_input_ends_solve_at_start(self, grid, monkeypatch):
        # the preconditioner's block solves do not check their input: a NaN
        # in the Jacobian product comes out of them and is caught as a
        # singular step, which ends the solve at its finite start
        jacobian = _Problem.jacobian

        def poisoned(self, u, omega, step):
            product = jacobian(self, u, omega, step).copy()
            product[0, 1, 0] = np.nan
            return product

        monkeypatch.setattr(_Problem, "jacobian", poisoned)
        problem, psi, omega = self._state(grid, NONAXI_CASES["couette_k2_32x16"][1])
        with pytest.raises(_SingularStepError):
            newton_step(problem, psi, omega)
        report = solve(grid, NONAXI_CASES["couette_k2_32x16"][1], replace(NEWTON, max_iter=2))
        assert not report.converged and report.steps == []
        assert np.isfinite(report.J)

    def test_unapplied_warm_start_leaves_caller_arrays_writeable(self, grid, monkeypatch):
        # with a zero blow-up factor every step is rejected, so the report
        # holds the warm-start state itself
        monkeypatch.setattr(navier_stokes, "BLOWUP_FACTOR", 0.0)
        trace = NONAXI_CASES["couette_k2_32x16"][1]
        psi, omega = StreamBC.from_trace(grid, trace).stokes_state(grid)
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
        dpsi, domega, record = newton_step(problem, psi, omega)
        assert record == {"kind": "krylov", "gmres_iterations": 0}
        g = fine_grid
        res, u = problem.residual(psi, omega)[:2]
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
        # mode k >= 1, so only mode 0 is built and factored; Couette + k=2
        # reaches every block, all built in one call.  The reference factors
        # and solves every block of the full stack per mode
        problem, psi, omega = self._state(fine_grid, trace)
        blocks = problem.modal_jacobian(problem.residual(psi, omega).u, omega)

        def reference_solve(factors, rhs):
            return np.stack([lu_solve(lu_factor(block), b) for block, b in zip(blocks, rhs)])

        with monkeypatch.context() as m:
            m.setattr(grid_module, "solve_blocks", reference_solve)
            want = newton_step(problem, psi, omega)
        made, built = [], []
        full_build = problem.modal_jacobian

        def spy(u, omega, modes, out):
            built.append(list(range(fine_grid.n_modes)[modes]))
            return full_build(u, omega, modes, out)

        monkeypatch.setattr(problem, "modal_jacobian", spy)
        monkeypatch.setattr(navier_stokes, "BlockFactors",
                            lambda *args: made.append(BlockFactors(*args)) or made[-1])
        got = newton_step(problem, psi, omega)
        assert len(made) == 1 and np.flatnonzero(made[0].factored).tolist() == factored
        assert built == [factored]  # in one call
        assert got[2] == want[2]
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


class TestOneProblem:
    """Picard and Newton read one residual; lambda = 0 is the Stokes state."""

    @pytest.mark.parametrize("case", sorted(NONAXI_CASES))
    def test_picard_step_is_fixed_point_map(self, case):
        # reference: the frozen-convection Stokes-type solve minus the state,
        # with the convection and the side condition assembled on their own
        (n_r, n_theta), trace = NONAXI_CASES[case]
        g = build_grid(n_r, n_theta, 1.0, 2.0)
        problem = _Problem(g, PICARD, trace.flux, StreamBC.from_trace(g, trace))
        psi, omega = problem.bc.stokes_state(g)
        for _ in range(3):
            u = problem.velocity(ScalarField(g, psi))
            rhs = problem.bc.stokes_rhs(g)
            vorticity = ScalarField(g, omega)
            conv = problem.ratio * (u.u_r.values * vorticity.d_r
                                    + u.u_theta.values * vorticity.d_theta / g.rr)
            rhs[1, 1:-1] = g.to_modes(conv)[1:-1]
            swirl = advect(u, u).u_theta.values  # theta component of (u.grad)u
            rhs[1, 0, 0] = problem.ratio * swirl[0, :].mean() * n_theta
            target_psi, target_omega = solve_stream_system(g, rhs)
            dpsi, domega, _ = picard_step(problem, psi, omega)
            scale = max(np.max(np.abs(psi)), np.max(np.abs(omega)))
            assert np.max(np.abs(dpsi - (target_psi - psi))) <= 1e-11 * scale
            assert np.max(np.abs(domega - (target_omega - omega))) <= 1e-11 * scale
            psi, omega = psi + dpsi, omega + domega

    @pytest.mark.parametrize("case", [*sorted(NONAXI_CASES), "spiral_ring"])
    def test_picard_step_is_stream_solve_of_residual(self, case):
        # the Krylov step with the Stokes blocks and no GMRES iterations is
        # the stream-system solve for -F, bit for bit, on the full grid and
        # on the ring, at the Stokes state and after a step
        if case == "spiral_ring":
            g, trace = build_grid(32, 64, 1.0, 2.0).ring, spiral_trace(6.0, 1.0, 1.0)
        else:
            (n_r, n_theta), trace = NONAXI_CASES[case]
            g = build_grid(n_r, n_theta, 1.0, 2.0)
        problem = _Problem(g, PICARD, trace.flux, StreamBC.from_trace(g, trace))
        psi, omega = problem.bc.stokes_state(g)
        for _ in range(2):
            dpsi, domega, record = picard_step(problem, psi, omega)
            want_psi, want_omega = solve_stream_system(g, -problem.residual(psi, omega).modes)
            assert record == {"kind": "picard"}
            assert np.array_equal(dpsi, want_psi) and np.array_equal(domega, want_omega)
            psi, omega = psi + dpsi, omega + domega

    @pytest.mark.parametrize("case", sorted(NONAXI_CASES))
    def test_residual_scale_matches_fft_reference(self, case):
        # the term size is taken by Parseval from nodal data; the reference
        # is the norm of the rfft coefficients of (omega, Lap(omega))
        (n_r, n_theta), trace = NONAXI_CASES[case]
        g = build_grid(n_r, n_theta, 1.0, 2.0)
        problem = _Problem(g, NEWTON, trace.flux, StreamBC.from_trace(g, trace))
        psi, omega = problem.bc.stokes_state(g)
        res = problem.residual(psi, omega)
        lap = scalar_laplacian(ScalarField(g, omega)).values
        terms = np.linalg.norm(g.to_modes(np.stack([omega, lap])))
        assert abs(res.size - terms) <= 1e-14 * terms
        assert res.norm == np.linalg.norm(res.modes)
        assert res.relative == res.norm / res.size

    def test_lambda_zero_returns_stokes_state(self, grid):
        trace = NONAXI_CASES["couette_k2_32x16"][1]
        psi_stokes, _ = StreamBC.from_trace(grid, trace).stokes_state(grid)
        warm = solve(grid, trace, NEWTON)
        stokes = replace(NEWTON, lam=0.0)
        for start in (None, (warm.psi.values, warm.omega.values)):
            report = solve(grid, trace, stokes, warm_start=start)
            assert np.array_equal(report.psi.values, psi_stokes)
            assert report.J == 0.0
            assert report.iterations == 0 and report.converged
            assert report.residual_history == [] and report.steps == []
