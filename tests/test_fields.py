"""Field calculus: divergence, stream functions, flux, and the Dirichlet norm.

The Dirichlet norm is cross-checked two independent ways: the covariant
polar formula against a Cartesian-component evaluation via the chain rule,
plus the closed form sqrt(6 pi) for rigid rotation on the (1, 2) annulus
(|grad u|^2 = 2 there).
"""

import csv
import tracemalloc

import numpy as np
import pytest

from annulus_flux import (
    BoundaryTrace,
    ScalarField,
    VelocityField,
    build_grid,
    couette_trace,
    curl_of_stream,
    dirichlet_norm,
    divergence,
    flux_carrier,
    flux_inner,
    integrate,
    read_velocity_csv,
    solve,
    stream_function,
    write_velocity_csv,
)
from annulus_flux.fields import (
    _gradient_frame,
    gradient,
    grad_squared,
    l2_norm,
    scalar_laplacian,
    trilinear,
    velocity_l2_norm,
    write_scalar_csv,
)
from annulus_flux.navier_stokes import SolverConfig, weak_residual
from annulus_flux.testspace import (N_ANGULAR, N_RADIAL, ClampedFamily, angular_modes,
                                    clamped_radial_profiles)


def divergence_free_test_fields(grid, n_radial=N_RADIAL, n_angular=N_ANGULAR):
    """The clamped test family as explicit fields curl(P_m Theta_n), m-major."""
    for profile in clamped_radial_profiles(grid, n_radial):
        for angular in angular_modes(grid, n_angular):
            yield curl_of_stream(ScalarField(grid, profile[:, None] * angular[None, :]))


def test_divergence_of_carrier(grid):
    u = flux_carrier(grid, 1.0)
    assert np.max(np.abs(divergence(u).values)) < 1e-12


def test_divergence_of_couette(grid):
    u = VelocityField.from_functions(grid, lambda r, t: 0 * r, lambda r, t: r)
    assert np.max(np.abs(divergence(u).values)) < 1e-12


def test_divergence_of_linear_radial(grid):
    # (1/r) d(r * r)/dr = 2 by hand
    u = VelocityField.from_functions(grid, lambda r, t: r, lambda r, t: 0 * r)
    assert np.max(np.abs(divergence(u).values - 2.0)) < 1e-11


def test_curl_of_constant_stream(grid):
    psi = ScalarField.from_function(grid, lambda r, t: np.ones_like(r))
    u = curl_of_stream(psi)
    assert velocity_l2_norm(u) < 1e-12


def test_curl_of_stream_rigid_rotation(grid):
    psi = ScalarField.from_function(grid, lambda r, t: -r**2 / 2.0)
    u = curl_of_stream(psi)
    assert np.max(np.abs(u.u_theta.values - grid.rr)) < 1e-12
    assert np.max(np.abs(u.u_r.values)) < 1e-13


@pytest.mark.parametrize("stream", [
    lambda r, t: np.sin(t) * (r - 1.0) ** 2,
    lambda r, t: np.cos(3 * t) * np.exp(r),
    lambda r, t: r**3 + np.sin(2 * t) / r,
])
def test_curl_of_stream_is_solenoidal(grid, stream):
    u = curl_of_stream(ScalarField.from_function(grid, stream))
    assert l2_norm(divergence(u)) < 1e-12


def test_flux_inner_of_carrier(grid):
    assert flux_inner(flux_carrier(grid, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_flux_inner_tangential_field(grid):
    u = VelocityField.from_functions(grid, lambda r, t: 0 * r, lambda r, t: r + 1 / r)
    assert abs(flux_inner(u)) < 1e-14


def test_flux_inner_zero_mean_harmonic(grid):
    u = VelocityField.from_functions(grid, lambda r, t: np.cos(t) / r, lambda r, t: 0 * r)
    assert abs(flux_inner(u)) < 1e-14


def test_flux_constant_across_circles(grid):
    # discrete divergence theorem: solenoidal fields carry the same flux
    # through every circle r = const
    psi = ScalarField.from_function(grid, lambda r, t: np.sin(2 * t) * np.cos(r))
    u = flux_carrier(grid, 1.5) + curl_of_stream(psi)
    # outward (+e_r) flux through each circle r = r[i]
    fluxes = (u.u_r.values * grid.r[:, None]).sum(axis=1) * grid.w_theta
    assert np.max(np.abs(fluxes + 1.5)) < 1e-10


def test_dirichlet_norm_zero(grid):
    assert dirichlet_norm(VelocityField.zeros(grid)) == 0.0


def test_dirichlet_norm_rigid_rotation_two_ways(grid):
    u = VelocityField.from_functions(grid, lambda r, t: 0 * r, lambda r, t: r)
    polar = dirichlet_norm(u)

    # independent route: Cartesian components differentiated by the chain rule
    ux = u.u_r.values * np.cos(grid.tt) - u.u_theta.values * np.sin(grid.tt)
    uy = u.u_r.values * np.sin(grid.tt) + u.u_theta.values * np.cos(grid.tt)

    def cartesian_grad_sq(f):
        fr = grid.diff_r(f)
        ft = grid.diff_theta(f)
        fx = np.cos(grid.tt) * fr - np.sin(grid.tt) * ft / grid.rr
        fy = np.sin(grid.tt) * fr + np.cos(grid.tt) * ft / grid.rr
        return fx**2 + fy**2

    cartesian = np.sqrt(integrate(grid, cartesian_grad_sq(ux) + cartesian_grad_sq(uy)))
    assert abs(polar - cartesian) < 1e-10
    assert polar == pytest.approx(np.sqrt(6.0 * np.pi), rel=1e-12)


def test_dirichlet_norm_homogeneous(grid):
    u = VelocityField.from_functions(
        grid, lambda r, t: np.sin(t) / r, lambda r, t: r**2 * np.cos(t))
    base = dirichlet_norm(u)
    for c in (-3.0, 0.5, 7.25):
        assert dirichlet_norm(c * u) == pytest.approx(abs(c) * base, rel=1e-12)


def test_stream_function_rigid_rotation(grid):
    u = VelocityField.from_functions(grid, lambda r, t: 0 * r, lambda r, t: r)
    psi = stream_function(u)
    assert np.max(np.abs(psi.values - (-(grid.rr**2 - 1.0) / 2.0))) < 1e-12


def test_stream_function_rejects_net_flux(grid):
    with pytest.raises(ValueError, match="multivalued stream function"):
        stream_function(flux_carrier(grid, 1.0))


def test_stream_function_round_trip(grid):
    psi = ScalarField.from_function(grid, lambda r, t: np.cos(2 * t) * (r - 1) * (2 - r) + r)
    u = curl_of_stream(psi)
    back = stream_function(u)
    diff = back.values - psi.values
    assert np.max(np.abs(diff - diff[-1, 0])) < 1e-8


def test_trilinear_skew_symmetry(grid):
    # (v.grad)w . w integrates to zero for solenoidal v with zero normal trace
    v = curl_of_stream(ScalarField.from_function(
        grid, lambda r, t: (r - 1) ** 2 * (2 - r) ** 2 * (1 + np.sin(2 * t))))
    w = VelocityField.from_functions(
        grid, lambda r, t: np.cos(t) * r, lambda r, t: np.sin(t) + r**2)
    bound = 1e-8 * velocity_l2_norm(v) * dirichlet_norm(w) * velocity_l2_norm(w)
    assert abs(trilinear(v, w, w)) < max(bound, 1e-14)


def test_test_fields_have_zero_trace(grid):
    for eta in divergence_free_test_fields(grid, 2, 1):
        assert np.max(np.abs(eta.u_r.values[[0, -1], :])) < 1e-12
        assert np.max(np.abs(eta.u_theta.values[[0, -1], :])) < 1e-12
        assert l2_norm(divergence(eta)) < 1e-11


def test_grad_squared_matches_norm(grid):
    u = VelocityField.from_functions(
        grid, lambda r, t: np.sin(t) / r**2, lambda r, t: np.cos(t) * r)
    assert integrate(grid, grad_squared(u)) == pytest.approx(dirichlet_norm(u) ** 2, rel=1e-12)


def test_velocity_csv_round_trip(tmp_path, grid):
    u = VelocityField.from_functions(
        grid, lambda r, t: np.sin(t) / r + 1.0 / 3.0, lambda r, t: np.cos(2 * t) * r)
    path = tmp_path / "fields.csv"
    write_velocity_csv(path, u)
    header, first = path.read_text().splitlines()[:2]
    assert header == "r,theta,u_r,u_theta"
    assert "0.3333333333333333" in first or "2" in first  # 17 significant digits present
    back = read_velocity_csv(path)
    assert back.grid == grid
    assert np.max(np.abs(back.u_r.values - u.u_r.values)) < 1e-15
    assert np.max(np.abs(back.u_theta.values - u.u_theta.values)) < 1e-15


def reference_csv(path, grid, header, columns):
    """Reference writer: one csv.writer row of %.17g strings per node."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(grid.n_r):
            for j in range(grid.n_theta):
                writer.writerow(["%.17g" % grid.r[i], "%.17g" % grid.theta[j]]
                                + ["%.17g" % column[i, j] for column in columns])


@pytest.mark.parametrize("shape", [(32, 16), (9, 6)])
def test_csv_writers_match_csv_module_reference(tmp_path, shape):
    g = build_grid(*shape, 1.0, 2.0)
    special = [-0.0, 5e-324, 1e-300, 1.0, 1e16, 1.0 / 3.0, -2.5e-7]
    rng = np.random.default_rng(5)
    u_r = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    u_theta = -np.roll(u_r, 1)
    u_r.flat[:len(special)] = special
    u_theta.flat[-len(special):] = special
    u = VelocityField.from_arrays(g, u_r, u_theta)

    write_velocity_csv(tmp_path / "fields.csv", u)
    reference_csv(tmp_path / "want-fields.csv", g, ["r", "theta", "u_r", "u_theta"],
                  [u_r, u_theta])
    got = (tmp_path / "fields.csv").read_bytes()
    assert got == (tmp_path / "want-fields.csv").read_bytes()
    assert got.startswith(b"r,theta,u_r,u_theta\r\n")
    assert got.count(b"\r\n") == g.n_r * g.n_theta + 1

    write_scalar_csv(tmp_path / "pressure.csv", u.u_theta)
    reference_csv(tmp_path / "want-pressure.csv", g, ["r", "theta", "value"], [u_theta])
    assert (tmp_path / "pressure.csv").read_bytes() == \
        (tmp_path / "want-pressure.csv").read_bytes()

    back = read_velocity_csv(tmp_path / "fields.csv")
    assert back.grid == g
    assert np.array_equal(back.u_r.values, u_r) and np.array_equal(back.u_theta.values, u_theta)
    assert np.array_equal(np.signbit(back.u_r.values), np.signbit(u_r))


def test_scalar_field_leaves_caller_array_writeable():
    g = build_grid(8, 4, 1.0, 2.0)
    a = np.zeros((8, 4))
    field = ScalarField(g, a)
    assert a.flags.writeable
    assert not field.values.flags.writeable
    a[0, 0] = 1.0
    assert field.values[0, 0] == 0.0


def test_operator_results_are_frozen_and_not_copied(grid):
    a = np.ones((grid.n_r, grid.n_theta))
    u = VelocityField.from_arrays(grid, a, a)
    a[0, 0] = 5.0
    assert u.u_r.values[0, 0] == 1.0 and u.u_theta.values[0, 0] == 1.0
    grad = gradient(u.u_theta)
    assert np.shares_memory(grad.u_r.values, u.u_theta.d_r)
    for field in (grad.u_r, grad.u_theta, (u + u).u_r, (2.0 * u).u_theta, divergence(u)):
        assert not field.values.flags.writeable


@pytest.mark.parametrize("shape", [(16, 8), (64, 128)])
def test_cached_derivatives_match_grid_operators(shape):
    g = build_grid(*shape, 1.0, 2.0)
    f = ScalarField(g, np.random.default_rng(5).standard_normal(shape))
    assert np.array_equal(f.d_r, g.diff_r(f.values))
    assert np.array_equal(f.d_theta, g.diff_theta(f.values))
    # the Laplacian reads the cached first derivatives and the grid's second ones
    lap = (g.diff_r(f.values, 2) + g.diff_r(f.values) / g.rr
           + g.diff_theta(f.values, 2) / g.rr**2)
    assert np.array_equal(scalar_laplacian(f).values, lap)
    with pytest.raises(ValueError, match="order"):
        g.diff_theta(f.values, 3)


def test_cached_derivatives_are_kept_and_read_only(grid):
    f = ScalarField.from_function(grid, lambda r, t: r**2 * np.sin(t))
    for name in ("d_r", "d_theta"):
        cached = getattr(f, name)
        assert getattr(f, name) is cached
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        grid.wavenumbers[0] = 1


def _weak_residual_reference(grid, w, u_aux, cfg):
    """The weak form term by term, each explicit test field differentiated by the grid.

    Each test field is differentiated again in each of its three trilinear
    terms, as ``advect`` did before fields cached their derivatives.  Returns
    the worst normalized defect and the size of the terms it cancels, the
    largest (|viscous term| + |convective terms|) / norm over the family.
    """
    r = grid.rr

    def frame(u):
        ur, ut = u.u_r.values, u.u_theta.values
        return (grid.diff_r(ur), grid.diff_theta(ur) / r - ut / r,
                grid.diff_r(ut), grid.diff_theta(ut) / r + ur / r)

    def trilinear_ref(v, a, b):
        vr, vt = v.u_r.values, v.u_theta.values
        ar, at = a.u_r.values, a.u_theta.values
        conv_r = vr * grid.diff_r(ar) + vt * grid.diff_theta(ar) / r - vt * at / r
        conv_t = vr * grid.diff_r(at) + vt * grid.diff_theta(at) / r + vt * ar / r
        return integrate(grid, conv_r * b.u_r.values + conv_t * b.u_theta.values)

    worst = scale = 0.0
    for eta in divergence_free_test_fields(grid, 4, 3):
        lhs = cfg.nu * integrate(grid, sum(x * y for x, y in zip(frame(w), frame(eta))))
        rhs = cfg.lam * (trilinear_ref(w + u_aux, eta, w) + trilinear_ref(w, eta, u_aux)
                         + trilinear_ref(u_aux, eta, u_aux))
        a, b, c, d = frame(eta)
        norm = float(np.sqrt(max(integrate(grid, a * a + b * b + c * c + d * d), 0.0)))
        if norm > 0:
            worst = max(worst, abs(lhs - rhs) / norm)
            scale = max(scale, (abs(lhs) + abs(rhs)) / norm)
    return worst, scale


def _weak_residual_inputs(grid):
    w = curl_of_stream(ScalarField.from_function(
        grid, lambda r, t: (r - 1) ** 2 * (2 - r) ** 2 * (1 + np.sin(2 * t) + np.cos(t))))
    u_aux = flux_carrier(grid, 0.7) + VelocityField.from_functions(
        grid, lambda r, t: np.cos(3 * t) / r, lambda r, t: r + np.sin(t))
    return w, u_aux, SolverConfig(nu=0.3, lam=0.8)


def test_weak_residual_matches_uncached_reference():
    # one contraction sums the terms in another order than the reference, so
    # the two agree to rounding, not bit for bit
    for shape in [(32, 16), (16, 8), (24, 16), (32, 64)]:
        g = build_grid(*shape, 1.0, 2.0)
        w, u_aux, cfg = _weak_residual_inputs(g)
        got = weak_residual(g, w, u_aux, cfg)
        want, _ = _weak_residual_reference(g, w, u_aux, cfg)
        assert got > 0.0
        assert abs(got - want) <= 1e-13 * want, shape


def test_weak_residual_of_converged_solve_matches_reference():
    # the residual of a converged state is rounding left over from cancelling
    # terms of order 1, so it can only agree to a bound tied to the terms
    g = build_grid(24, 16, 1.0, 2.0)
    trace = couette_trace(1.0, 0.0) + BoundaryTrace(
        1.0, 2.0, normal_outer={2: 0.1}, normal_inner={2: 0.05j})
    cfg = SolverConfig(method="newton")
    report = solve(g, trace, cfg)
    assert report.converged
    u_aux = report.u - report.w
    want, scale = _weak_residual_reference(g, report.w, u_aux, cfg)
    assert scale > 0.01  # the terms do not vanish
    assert abs(weak_residual(g, report.w, u_aux, cfg) - want) <= 1e-13 * scale


@pytest.mark.parametrize("shape", [(16, 8), (32, 16), (24, 6)])
def test_clamped_family_frames_match_explicit_fields(shape):
    g = build_grid(*shape, 1.0, 2.0)
    family = ClampedFamily(g)
    explicit = list(divergence_free_test_fields(g))
    n_angular = len(angular_modes(g, N_ANGULAR))
    assert len(explicit) == N_RADIAL * n_angular == 4 * min(7, g.n_theta - 1)
    for index, eta in enumerate(explicit):
        m, n = divmod(index, n_angular)
        for want, pairs in zip(_gradient_frame(eta), family.frames):
            got = sum(radial[m][:, None] * angular[n][None, :] for radial, angular in pairs)
            assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)
    norms = [dirichlet_norm(eta) for eta in explicit]
    assert np.allclose(family.dirichlet_norms().ravel(), norms, rtol=1e-12, atol=0.0)


def test_weak_residual_peak_memory_at_64x128():
    # the per-field loop peaked at 1.52 MiB here
    g = build_grid(64, 128, 1.0, 2.0)
    w, u_aux, cfg = _weak_residual_inputs(g)
    tracemalloc.start()
    try:
        weak_residual(g, w, u_aux, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20


def test_scalar_field_rejects_nonfinite(grid):
    values = np.zeros((grid.n_r, grid.n_theta))
    values[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ScalarField(grid, values)


def test_velocity_grid_mismatch():
    g1 = build_grid(16, 8, 1.0, 2.0)
    g2 = build_grid(16, 8, 1.0, 3.0)
    a = VelocityField.zeros(g1)
    b = VelocityField.zeros(g2)
    with pytest.raises(ValueError):
        a + b
