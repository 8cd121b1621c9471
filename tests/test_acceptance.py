"""Acceptance criteria, one test per item, each printing a pass/fail line.

Everything runs at desk scale on the (1, 2) annulus.  Closed-form oracles
and the integral identities of the continuation argument are the ground
truth; tolerances are as fixed in the criteria.

Frozen oracle value (scipy.integrate.quad): int_1^2 sin^4(pi(t-1))/t dt
= 0.25227669216659465.
"""

import time

import numpy as np
import pytest

from annulus_flux import (
    AmickProfile,
    SolverConfig,
    amick_flow,
    amick_pressure_drop,
    bernoulli_deviation,
    boundary_pressures,
    build_grid,
    couette,
    couette_trace,
    curl_of_stream,
    flux_carrier,
    flux_inner,
    head_pressure,
    identity_37,
    identity_energy,
    max_principle_check,
    pressure_from_momentum,
    pure_flux_trace,
    radial_source,
    solve,
    spiral_flow,
    spiral_trace,
    stokes_solve,
    stream_function,
    sweep,
)
from annulus_flux.fields import ScalarField, velocity_l2_norm
from annulus_flux.oracle import couette_constants
from annulus_flux.verify import run_checks

SIN2_DROP = 0.25227669216659465
NEWTON = SolverConfig(nu=1.0, lam=1.0, method="newton")


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def grid():
    return build_grid(32, 64, 1.0, 2.0)


@pytest.fixture(scope="module")
def suite_solves(grid):
    """The converged solves referenced by the flux and maximum-principle criteria."""
    return {
        "source": solve(grid, pure_flux_trace(2 * np.pi), NEWTON),
        "spiral": solve(grid, spiral_trace(2 * np.pi, 1.0, 1.0), NEWTON),
        "couette": solve(grid, couette_trace(1.0, 0.0), NEWTON),
    }


@pytest.fixture(scope="module")
def amick_pair(grid):
    return amick_flow(grid, AmickProfile.sin_squared())


def test_stokes_oracle_couette():
    g = build_grid(32, 16, 1.0, 2.0)
    sol = stokes_solve(g, couette_trace(1.0, 0.0))
    a, b = couette_constants(1.0, 0.0, 1.0, 2.0)
    from annulus_flux import VelocityField

    exact = VelocityField.from_arrays(g, np.zeros_like(g.rr), a * g.rr + b / g.rr)
    rel = velocity_l2_norm(sol.velocity - exact) / velocity_l2_norm(exact)
    report("stokes_couette", rel <= 1e-10,
           f"relative L2 error {rel:.3e} (tolerance 1e-10, n_r=32, n_theta=16)")


def test_nonlinear_oracles_with_flux(grid, suite_solves):
    u_source, _ = radial_source(grid, 2 * np.pi)
    u_spiral, _ = spiral_flow(grid, 2 * np.pi, 1.0, 1.0)
    err_source = velocity_l2_norm(suite_solves["source"].u - u_source)
    err_spiral = velocity_l2_norm(suite_solves["spiral"].u - u_spiral)
    iters = max(suite_solves["source"].iterations, suite_solves["spiral"].iterations)
    ok = (err_source <= 1e-8 and err_spiral <= 1e-8
          and suite_solves["source"].converged and suite_solves["spiral"].converged
          and iters <= 8)
    report("nonlinear_oracles", ok,
           f"source L2 {err_source:.3e}, spiral L2 {err_spiral:.3e}, "
           f"Newton iterations {iters} (tolerances 1e-8, <= 8 iterations)")


def test_flux_exactness(grid, suite_solves, amick_pair):
    targets = [
        (couette(grid, 1.0, 0.0)[0], 0.0),
        (radial_source(grid, 2 * np.pi)[0], 2 * np.pi),
        (spiral_flow(grid, 2 * np.pi, 1.0, 1.0)[0], 2 * np.pi),
        (amick_pair[0], 0.0),
        (suite_solves["source"].u, 2 * np.pi),
        (suite_solves["spiral"].u, 2 * np.pi),
        (suite_solves["couette"].u, 0.0),
    ]
    worst = max(abs(flux_inner(u) - expected) for u, expected in targets)
    report("flux_exactness", worst <= 1e-10,
           f"worst defect {worst:.3e} over {len(targets)} oracles and solves "
           "(tolerance 1e-10)")


def test_identity_energy_structure(grid, amick_pair):
    w_hat, p_hat = amick_pair
    p1, p2, _ = boundary_pressures(p_hat)
    defects = []
    for flux in (0.0, 1.0, 2.0):
        for u_ext in (flux_carrier(grid, flux),
                      stokes_solve(
                          grid, pure_flux_trace(flux) + couette_trace(0.4, -0.2)).velocity):
            rec = identity_energy(w_hat, u_ext, 1.0, p1, p2, flux)
            defects.append(rec.abs_diff)
    worst = max(defects)
    report("identity_energy", worst <= 1e-8,
           f"worst |lhs - F(p1-p2)| = {worst:.3e} over carriers and Stokes "
           "extensions with F in {0, 1, 2} (tolerance 1e-8)")


def test_identity_37(grid, amick_pair):
    w_hat, p_hat = amick_pair
    p1, p2, _ = boundary_pressures(p_hat)
    rec = identity_37(head_pressure(w_hat, p_hat, 1.0), p1, p2, grid)
    areas_ok = (abs(grid.area_outer_disk - 4 * np.pi) < 1e-14
                and abs(grid.area_inner_disk - np.pi) < 1e-14)
    report("identity_37", rec.abs_diff <= 1e-8 and areas_ok,
           f"|int Phi - (p1|O1| - p2|O2|)| = {rec.abs_diff:.3e} with "
           "|O1| = 4 pi, |O2| = pi (tolerance 1e-8)")


def test_pressure_drop_sign_and_cross_paths(grid):
    presets = [AmickProfile.sin_squared(), AmickProfile.poly_bump(4),
               AmickProfile.shifted_bump((1.9, 2.0))]
    drops = [amick_pressure_drop(p) for p in presets]
    cross = []
    for prof in presets[:2]:  # analytic / polynomial presets: grid-exact
        _, p_prof = amick_flow(grid, prof)
        bp = boundary_pressures(p_prof)
        cross.append(abs(amick_pressure_drop(prof) - (bp.p1 - bp.p2)))
    ok = all(d > 0 for d in drops) and max(cross) <= 1e-10
    report("eq39_sign", ok,
           f"drops {[f'{d:.4e}' for d in drops]} all > 0; independent paths "
           f"agree to {max(cross):.3e} (tolerance 1e-10)")


def test_max_principle_discriminator(grid, suite_solves):
    bump = AmickProfile.shifted_bump((1.9, 2.0))
    w_bump, p_bump = amick_flow(grid, bump)
    violation = max_principle_check(head_pressure(w_bump, p_bump, 1.0))
    margins = []
    for rep in suite_solves.values():
        phi = head_pressure(rep.u, rep.p, rep.lam)
        result = max_principle_check(phi)
        margins.append(result.margin / result.scale)
    ok = (violation.margin > 0.01 * violation.scale) and max(margins) <= 1e-8
    report("max_principle_discriminator", ok,
           f"bump margin {violation.margin:.3e} > 0.01*scale; converged solves "
           f"worst margin/scale {max(margins):.3e} <= 1e-8")


def test_bernoulli(grid, suite_solves, amick_pair):
    radial = []
    for u_field, p_field in (couette(grid, 1.0, 0.0), radial_source(grid, 2 * np.pi),
                             amick_pair):
        phi = head_pressure(u_field, p_field, 1.0)
        psi = stream_function(u_field - flux_carrier(grid, flux_inner(u_field)))
        radial.append(bernoulli_deviation(phi, psi))
    spiral_rep = suite_solves["spiral"]
    psi_spiral = stream_function(spiral_rep.u - flux_carrier(grid, spiral_rep.flux),
                                 flux_tol=1e-6, div_tol=1e-6)
    dev_spiral = bernoulli_deviation(
        head_pressure(spiral_rep.u, spiral_rep.p, 1.0), psi_spiral)
    psi_bad = ScalarField.from_function(grid, lambda r, t: -r**2 * np.sin(t) / 2)
    u_bad = curl_of_stream(psi_bad)
    p_bad, _ = pressure_from_momentum(grid, u_bad, 1.0, 1.0)
    dev_bad = bernoulli_deviation(head_pressure(u_bad, p_bad, 1.0), psi_bad)
    ok = max(radial) < 1e-8 and dev_spiral <= 1e-6 and dev_bad > 0.1
    report("bernoulli", ok,
           f"radial oracles max {max(radial):.3e} < 1e-8; converged spiral "
           f"{dev_spiral:.3e} <= 1e-6; counter-case {dev_bad:.3e} flagged (> 0.1)")


def test_continuation_phenomenology(grid):
    base = spiral_trace(1.0, 1.0, 1.0)
    nonneg = sweep(grid, base, NEWTON, "flux", [0.0, 0.5, 1.0, 2.0, 5.0])
    negative = sweep(grid, base, NEWTON, "flux", [-0.05, -0.1])
    ok = nonneg.all_converged() and negative.all_converged()
    report("continuation_phenomenology", ok,
           "flux sweep {0, 0.5, 1, 2, 5} converged at every point and small "
           "negative fluxes {-0.05, -0.1} converged (no claim about large "
           "negative flux)")


def test_convergence_order_and_runtime():
    # nu = 0.35 keeps the n_r = 16 solve truncation-dominated so that the
    # 16 -> 32 error drop measures spectral accuracy rather than rounding
    errors = {}
    for n_r in (16, 32):
        g = build_grid(n_r, 16, 1.0, 2.0)
        cfg = SolverConfig(nu=0.35, lam=1.0, method="newton")
        rep = solve(g, spiral_trace(2 * np.pi, 1.0, 0.35), cfg)
        exact, _ = spiral_flow(g, 2 * np.pi, 1.0, 0.35)
        errors[n_r] = velocity_l2_norm(rep.u - exact)
    ratio = errors[16] / max(errors[32], 1e-300)

    start = time.perf_counter()
    checks = run_checks(32, 64)
    elapsed = time.perf_counter() - start
    ok = ratio >= 100.0 and elapsed < 30.0 and all(c.passed for c in checks)
    report("convergence_order_and_runtime", ok,
           f"error ratio 16->32 = {ratio:.1f} (>= 100); verify suite "
           f"{len(checks)} checks all pass in {elapsed:.2f} s (< 30 s)")
