"""Property tests: solve on random admissible data returns a report, never raises.

Hypothesis draws ``fourier`` traces (flux, swirl and harmonics k = 1..4 on
both circles) at moderate viscosity.  Every step of a report is a
``krylov`` or ``picard`` step, and every step of a Picard report a
``picard`` step.  A converged report of either method is held to the
benchmark's own acceptance bounds, so a stopping rule that certified a
wrong state would show here.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from annulus_flux import (BoundaryTrace, SolverConfig, build_grid, flux_inner, solve,
                          weak_residual)

R_INNER, R_OUTER = 1.0, 2.0
FLUX_TOL = 1e-10
WEAK_RESIDUAL_TOL = 1e-9

coefficient = st.complex_numbers(max_magnitude=0.2, allow_nan=False, allow_infinity=False)
harmonics = st.dictionaries(st.integers(1, 4), coefficient, max_size=3)
swirl = st.floats(-2.0, 2.0)


@st.composite
def traces(draw):
    flux = draw(st.floats(-2.0 * np.pi, 2.0 * np.pi))
    normal_outer = {0: -flux / (2.0 * np.pi * R_OUTER), **draw(harmonics)}
    normal_inner = {0: flux / (2.0 * np.pi * R_INNER), **draw(harmonics)}
    return BoundaryTrace(R_INNER, R_OUTER, normal_outer=normal_outer,
                          angular_outer={0: draw(swirl), **draw(harmonics)},
                          normal_inner=normal_inner,
                          angular_inner={0: draw(swirl), **draw(harmonics)})


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(trace=traces(), nu=st.floats(0.2, 1.0))
def test_newton_solve_reports_and_converged_states_hold_bounds(trace, nu):
    grid = build_grid(24, 32, R_INNER, R_OUTER)
    cfg = SolverConfig(nu=nu)
    report = solve(grid, trace, cfg)
    assert all(step["kind"] in ("krylov", "picard") for step in report.steps)
    if report.converged:
        assert abs(flux_inner(report.u) - trace.flux) <= FLUX_TOL
        assert weak_residual(grid, report.w, report.u - report.w, cfg) <= WEAK_RESIDUAL_TOL


@settings(max_examples=15, derandomize=True, deadline=None, database=None)
@given(trace=traces(), nu=st.floats(0.2, 1.0))
def test_picard_solve_reports_and_converged_states_hold_bounds(trace, nu):
    grid = build_grid(24, 32, R_INNER, R_OUTER)
    cfg = SolverConfig(nu=nu, method="picard")
    report = solve(grid, trace, cfg)
    assert report.steps == [{"kind": "picard"}] * report.iterations
    if report.converged:
        assert abs(flux_inner(report.u) - trace.flux) <= FLUX_TOL
        assert weak_residual(grid, report.w, report.u - report.w, cfg) <= WEAK_RESIDUAL_TOL
