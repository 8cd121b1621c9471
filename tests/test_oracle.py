"""Closed-form reference flows: substitution residuals and derived values.

The momentum residual -nu Lap(u) + lam (u.grad)u + grad(p) is evaluated
with the package's polar calculus; the closed forms themselves were
verified symbolically before the build (spiral exponents -1 and 1 + c/nu,
vanishing vector Laplacian of the carrier).

Frozen oracle values (scipy.integrate.quad, abs err < 1e-14):
    int_1^2 sin^4(pi(t-1))/t dt = 0.25227669216659465
"""

import numpy as np
import pytest

from annulus_flux import (
    AmickProfile,
    VelocityField,
    amick_flow,
    amick_pressure_drop,
    build_grid,
    couette,
    divergence,
    flux_inner,
    radial_source,
    spiral_flow,
)
from annulus_flux.diagnostics import boundary_pressures, euler_residual, head_pressure, max_principle_check
from annulus_flux.fields import advect, gradient, l2_norm, vector_laplacian, velocity_l2_norm

SIN2_DROP = 0.25227669216659465


def momentum_residual(u, p, lam, nu):
    lap = vector_laplacian(u)
    conv = advect(u, u)
    grad_p = gradient(p)
    res_r = -nu * lap.u_r.values + lam * conv.u_r.values + grad_p.u_r.values
    res_t = -nu * lap.u_theta.values + lam * conv.u_theta.values + grad_p.u_theta.values
    g = u.grid
    res = VelocityField.from_arrays(g, res_r, res_t)
    return velocity_l2_norm(res) + l2_norm(divergence(u))


class TestCouette:
    def test_rigid_rotation(self, grid):
        u, _ = couette(grid, 1.0, 1.0)
        assert np.max(np.abs(u.u_theta.values - grid.rr)) < 1e-12

    def test_inner_rim_at_rest(self, grid):
        u, _ = couette(grid, 1.0, 0.0)
        assert np.max(np.abs(u.u_theta.values[-1, :])) < 1e-13

    @pytest.mark.parametrize("omegas", [(1.0, 0.0), (0.3, -1.2)])
    def test_navier_stokes_residual(self, grid, omegas):
        u, p = couette(grid, *omegas)
        assert momentum_residual(u, p, 1.0, 1.0) < 1e-10

    def test_zero_flux(self, grid):
        u, _ = couette(grid, 1.0, -0.5)
        assert abs(flux_inner(u)) < 1e-13


class TestRadialSource:
    def test_zero_flux_is_zero_flow(self, grid):
        u, p = radial_source(grid, 0.0)
        assert velocity_l2_norm(u) == 0.0
        assert np.max(np.abs(p.values)) < 1e-14

    def test_flux_exact(self, grid):
        u, _ = radial_source(grid, 2 * np.pi)
        assert flux_inner(u) == pytest.approx(2 * np.pi, abs=1e-12)

    @pytest.mark.parametrize("nu", [0.1, 1.0, 10.0])
    def test_navier_stokes_residual_any_viscosity(self, grid, nu):
        # the vector Laplacian of (1/r) e_r vanishes identically
        u, p = radial_source(grid, 2 * np.pi)
        assert momentum_residual(u, p, 1.0, nu) < 1e-10


class TestSpiral:
    def test_zero_amplitude_single_branch(self, grid):
        u, p = spiral_flow(grid, 2 * np.pi, 0.0, 1.0)
        assert np.max(np.abs(u.u_theta.values)) == 0.0
        assert momentum_residual(u, p, 1.0, 1.0) < 1e-10

    def test_zero_flux_reduces_to_couette_form(self, grid):
        # c = 0: exponents -1 and 1, i.e. the Couette family
        u, p = spiral_flow(grid, 0.0, 1.0, 1.0)
        swirl = u.u_theta.values
        a_coef = (swirl[0, 0] - 0.0) / (grid.r_outer - 1.0 / grid.r_outer * 1.0)
        recon = 1.0 * grid.rr - 1.0 / grid.rr  # B r + A/r with A = -B R2^2, B = 1
        assert np.max(np.abs(swirl - recon)) < 1e-12
        assert momentum_residual(u, p, 1.0, 1.0) < 1e-10
        assert a_coef == pytest.approx(1.0, rel=1e-12)

    def test_navier_stokes_residual(self, grid):
        u, p = spiral_flow(grid, 2 * np.pi, 1.0, 1.0)  # c = -1
        assert momentum_residual(u, p, 1.0, 1.0) < 1e-9
        assert flux_inner(u) == pytest.approx(2 * np.pi, abs=1e-12)

    def test_swirl_vanishes_on_inner_rim(self, grid):
        u, _ = spiral_flow(grid, 2 * np.pi, 1.0, 1.0)
        assert np.max(np.abs(u.u_theta.values[-1, :])) < 1e-13

    def test_exponent_collision_rejected(self, grid):
        with pytest.raises(ValueError, match="logarithmic branch"):
            spiral_flow(grid, 4 * np.pi, 1.0, 1.0)  # c/nu = -2

    def test_residual_decays_spectrally(self):
        residuals = []
        for n_r in (12, 24):
            g = build_grid(n_r, 8, 1.0, 2.0)
            u, p = spiral_flow(g, 2 * np.pi, 1.0, 0.45)
            residuals.append(momentum_residual(u, p, 1.0, 0.45))
        assert residuals[0] / residuals[1] > 10.0


class TestAmick:
    def test_sin_squared_pressure_values(self, grid):
        w, p = amick_flow(grid, AmickProfile.sin_squared())
        bp = boundary_pressures(p)
        assert bp.p2 == pytest.approx(0.0, abs=1e-14)
        assert bp.p1 == pytest.approx(SIN2_DROP, abs=1e-12)
        assert bp.p1 > 0.0  # strict positivity of the drop
        assert bp.deviation < 1e-14

    def test_boundary_trace_vanishes(self, grid):
        w, _ = amick_flow(grid, AmickProfile.sin_squared())
        assert np.max(np.abs(w.u_theta.values[[0, -1], :])) < 1e-12
        assert np.max(np.abs(w.u_r.values)) == 0.0

    def test_euler_residual(self, grid):
        w, p = amick_flow(grid, AmickProfile.sin_squared())
        assert euler_residual(w, p, 1.0) < 1e-9

    def test_euler_residual_any_lambda0(self, grid):
        prof = AmickProfile.sin_squared(lambda0=0.35)
        w, p = amick_flow(grid, prof)
        assert euler_residual(w, p, 0.35) < 1e-9

    @pytest.mark.parametrize("prof_fn", [
        lambda: AmickProfile.sin_squared(),
        lambda: AmickProfile.poly_bump(4),
    ])
    def test_pressure_drop_cross_paths(self, grid, prof_fn):
        # two independent code paths: standalone quadrature rule vs the
        # grid antiderivative read off at the rims
        prof = prof_fn()
        drop = amick_pressure_drop(prof)
        _, p = amick_flow(grid, prof)
        bp = boundary_pressures(p)
        assert drop > 0.0
        assert abs(drop - (bp.p1 - bp.p2)) < 1e-10

    def test_pressure_drop_sign_all_presets(self):
        for prof in (AmickProfile.sin_squared(), AmickProfile.poly_bump(4),
                     AmickProfile.shifted_bump((1.9, 2.0))):
            assert amick_pressure_drop(prof) > 0.0

    def test_pressure_drop_sin2_frozen_value(self):
        assert amick_pressure_drop(AmickProfile.sin_squared()) == pytest.approx(
            SIN2_DROP, abs=1e-13)

    def test_non_vanishing_profile_rejected(self, grid):
        flat = AmickProfile.poly_bump(order=0)  # f = 1, no boundary decay
        with pytest.raises(ValueError, match="vanish"):
            amick_flow(grid, flat)

    def test_profile_grid_radii_mismatch(self):
        g = build_grid(16, 8, 1.0, 3.0)
        with pytest.raises(ValueError, match="radii"):
            amick_flow(g, AmickProfile.sin_squared())

    @pytest.mark.parametrize("support", [(1.9, 2.0), (1.92, 1.98), (1.85, 1.95)])
    def test_concentrated_profiles_break_max_principle(self, fine_grid, support):
        # kinetic spike near the outer rim exceeds both boundary constants
        prof = AmickProfile.shifted_bump(support)
        w, p = amick_flow(fine_grid, prof)
        phi = head_pressure(w, p, 1.0)
        result = max_principle_check(phi)
        assert not result.ok
        assert result.margin > 0.0

    @pytest.mark.parametrize("prof_fn", [
        lambda: AmickProfile.sin_squared(),
        lambda: AmickProfile.poly_bump(4),
        lambda: AmickProfile.shifted_bump((1.9, 2.0)),
    ])
    def test_boundary_pressure_ordering_every_preset(self, grid, prof_fn):
        # the rotational Euler pressure is pinned to zero on the inner circle
        # and strictly larger on the outer one for every nonzero profile
        _, p = amick_flow(grid, prof_fn())
        bp = boundary_pressures(p)
        assert bp.p2 == pytest.approx(0.0, abs=1e-14)
        assert bp.p1 > 0.0

    def test_lambda0_scales_pressure(self, grid):
        _, p1 = amick_flow(grid, AmickProfile.sin_squared(lambda0=1.0))
        _, p2 = amick_flow(grid, AmickProfile.sin_squared(lambda0=0.5))
        assert np.max(np.abs(p2.values - 0.5 * p1.values)) < 1e-14

