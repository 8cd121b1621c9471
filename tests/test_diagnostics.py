"""The argument's measurable objects against quadrature oracles.

Frozen oracle values (scipy.integrate.quad, abs err < 1e-14):
    int_1^2 sin^4(pi(t-1))/t dt                    = 0.25227669216659465
    int_Omega [p + f^2/2] dx  (same profile)       = 3.1702024111300284
    L2 norm of g^2/r for Couette(1, 0) on (1,2)    = 3.5740451421894317

The head-pressure volume identity int Phi = p1 |Omega_1| - p2 |Omega_2| was
also verified analytically by parts before the build.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from annulus_flux import (
    AmickProfile,
    ScalarField,
    VelocityField,
    amick_flow,
    bernoulli_deviation,
    boundary_pressures,
    couette,
    couette_trace,
    curl_of_stream,
    dirichlet_norm,
    euler_residual,
    flux_carrier,
    head_pressure,
    identity_37,
    identity_energy,
    max_principle_check,
    normalize,
    pressure_from_momentum,
    stokes_solve,
    stream_function,
)
from annulus_flux.diagnostics import DiagnosticsRecord, diagnostics_for_fields
from annulus_flux.fields import gradient, velocity_l2_norm
from annulus_flux.grid import build_grid

SIN2_DROP = 0.25227669216659465
SIN2_ID37_LHS = 3.1702024111300284
COUETTE_CENTRIPETAL_L2 = 3.5740451421894317


def _levels(sv, n_levels):
    smin, smax = float(sv.min()), float(sv.max())
    return smin + (np.arange(n_levels) + 0.5) * (smax - smin) / n_levels


def _bernoulli_reference(phi, psi, n_levels=64, critical_rel=1e-6):
    """Bernoulli deviation level by level, each level tested on the whole grid."""
    pv, sv = phi.values, psi.values
    smin, smax = float(sv.min()), float(sv.max())
    span = smax - smin
    grad_psi = gradient(psi)
    grad_mag = np.hypot(grad_psi.u_r.values, grad_psi.u_theta.values)
    gmax = float(grad_mag.max())
    if span <= 1e-12 * max(1.0, abs(smin), abs(smax)) or gmax == 0.0:
        return float(pv.max() - pv.min()), {"degenerate": True, "levels_used": 0}
    critical = grad_mag < critical_rel * gmax
    worst = 0.0
    used = 0
    for level in _levels(sv, n_levels):
        d = sv - level
        cross = d[:-1, :] * d[1:, :] < 0.0
        exact = d == 0.0
        if not cross.any() and not exact.any():
            continue
        if ((critical[:-1, :] & cross).any() or (critical[1:, :] & cross).any()
                or (critical & exact).any()):
            continue
        t = d[:-1, :][cross] / (d[:-1, :][cross] - d[1:, :][cross])
        samples = pv[:-1, :][cross] * (1.0 - t) + pv[1:, :][cross] * t
        samples = np.concatenate([samples, pv[exact]])
        if samples.size < 2:
            continue
        used += 1
        worst = max(worst, float(samples.max() - samples.min()))
    return worst, {"degenerate": False, "levels_used": used}


def _smooth(g, rng):
    """A random smooth non-axisymmetric field of unit size."""
    a, b, c = rng.uniform(0.0, 2 * np.pi, 3)
    return (np.sin(np.pi * (g.rr - 1.0)) * np.cos(g.tt - a)
            + 0.3 * (g.rr - 1.0) ** 2 * np.sin(2 * g.tt + b) + 0.1 * np.cos(3 * g.tt + c))


def _plateaus(g, rng):
    # psi takes the values k + 0.5 and spans [0, 64]: with 64 levels, those are the levels
    s = 64.0 * (_smooth(g, rng) + 1.5) / 3.0
    sv = np.clip(np.floor(s), 0.0, 63.0) + 0.5
    sv[0, 0], sv[-1, -1] = 0.0, 64.0
    return ScalarField(g, rng.standard_normal(s.shape)), ScalarField(g, sv), {}


def _critical(g, rng):
    # a wide critical threshold around the extrema of psi skips the levels through them
    sv = np.sin(np.pi * (g.rr - 1.0)) * np.cos(g.tt - g.theta[rng.integers(g.n_theta)])
    return ScalarField(g, _smooth(g, rng)), ScalarField(g, sv), {"critical_rel": 0.2}


def _underflow(g, rng):
    # the middle of 3 levels on [-1.5, 1.5] is exactly 0; straddling it by 1e-170 the
    # product d0 * d1 underflows to -0.0 and the edge does not count as a crossing,
    # by 1e-160 it stays a subnormal and the edge does
    sv = rng.uniform(-1.5, 1.5, (g.n_r, g.n_theta))
    sv[0, 0], sv[-1, -1] = -1.5, 1.5
    for j, tiny in enumerate([1e-170, 1e-160, 1e-170, 5e-162]):
        sv[2 * j + 1, j + 1], sv[2 * j + 2, j + 1] = tiny, -tiny
    return ScalarField(g, rng.standard_normal(sv.shape)), ScalarField(g, sv), {"n_levels": 3}


BERNOULLI_CASES = {
    "smooth": lambda g, rng: (ScalarField(g, _smooth(g, rng)), ScalarField(g, _smooth(g, rng)),
                              {}),
    "few_levels": lambda g, rng: (ScalarField(g, _smooth(g, rng)),
                                  ScalarField(g, _smooth(g, rng)), {"n_levels": 7}),
    "one_level": lambda g, rng: (ScalarField(g, _smooth(g, rng)),
                                 ScalarField(g, _smooth(g, rng)), {"n_levels": 1}),
    "noise": lambda g, rng: (ScalarField(g, rng.standard_normal((g.n_r, g.n_theta))),
                             ScalarField(g, rng.standard_normal((g.n_r, g.n_theta))), {}),
    "plateaus": _plateaus,
    "critical": _critical,
    "underflow": _underflow,
    "degenerate": lambda g, rng: (ScalarField(g, _smooth(g, rng)),
                                  ScalarField(g, np.full((g.n_r, g.n_theta), 0.7)), {}),
}


@pytest.fixture(scope="module")
def amick_pair(fine_grid):
    return amick_flow(fine_grid, AmickProfile.sin_squared())


class TestNormalize:
    def test_unit_norm_input_is_identity(self, grid):
        w = VelocityField.from_functions(grid, lambda r, t: 0 * r, lambda r, t: r)
        j = dirichlet_norm(w)
        w_unit = (1.0 / j) * w
        p = ScalarField.from_function(grid, lambda r, t: r)
        w_hat, p_hat, j_hat = normalize(w_unit, p)
        assert j_hat == pytest.approx(1.0, rel=1e-12)
        assert velocity_l2_norm(w_hat - w_unit) < 1e-12

    def test_normalized_norm_is_one(self, grid):
        w = VelocityField.from_functions(
            grid, lambda r, t: np.sin(t) / r, lambda r, t: r**2)
        w_hat, _, _ = normalize(w, ScalarField.zeros(grid))
        assert dirichlet_norm(w_hat) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("c", [0.1, 3.0, 250.0])
    def test_blow_up_scaling_exact(self, grid, c):
        # normalize(c w, c^2 p) must agree with normalize(w, p)
        w = VelocityField.from_functions(
            grid, lambda r, t: np.cos(t), lambda r, t: r)
        p = ScalarField.from_function(grid, lambda r, t: r * np.sin(t))
        w1, p1, _ = normalize(w, p)
        w2, p2, _ = normalize(c * w, ScalarField(grid, c**2 * p.values))
        assert velocity_l2_norm(w2 - w1) < 1e-12
        assert np.max(np.abs(p2.values - p1.values)) < 1e-12

    def test_zero_field_rejected(self, grid):
        with pytest.raises(ValueError, match="normalize"):
            normalize(VelocityField.zeros(grid), ScalarField.zeros(grid))


class TestHeadPressure:
    def test_velocity_free(self, grid):
        p = ScalarField.from_function(grid, lambda r, t: r)
        phi = head_pressure(VelocityField.zeros(grid), p, 1.0)
        assert np.array_equal(phi.values, p.values)

    def test_lambda_zero(self, grid):
        u = VelocityField.from_functions(grid, lambda r, t: r, lambda r, t: r)
        p = ScalarField.from_function(grid, lambda r, t: np.cos(t))
        phi = head_pressure(u, p, 0.0)
        assert np.array_equal(phi.values, p.values)

    def test_amick_profile_formula(self, amick_pair, fine_grid):
        # Phi(r) = p(r) + f(r)^2/2 with p from quadrature of f^2/t
        w, p = amick_pair
        phi = head_pressure(w, p, 1.0)
        f = lambda t: np.sin(np.pi * (t - 1.0)) ** 2
        oracle = np.array([
            quad(lambda t: f(t) ** 2 / t, 1.0, r, epsabs=1e-14)[0] + 0.5 * f(r) ** 2
            for r in fine_grid.r
        ])
        assert np.max(np.abs(phi.values - oracle[:, None])) < 1e-9


class TestBernoulli:
    def test_radially_symmetric_flow(self, grid):
        u, p = couette(grid, 1.0, 0.0)
        phi = head_pressure(u, p, 1.0)
        psi = stream_function(u)
        assert bernoulli_deviation(phi, psi) < 1e-10

    def test_amick_flow(self, amick_pair, fine_grid):
        w, p = amick_pair
        phi = head_pressure(w, p, 1.0)
        psi = stream_function(w)
        assert bernoulli_deviation(phi, psi) < 1e-10

    def test_counter_case_flagged(self, fine_grid):
        # u_theta = r sin(theta) comes from psi = -r^2 sin(theta)/2; with its
        # formal head pressure the Bernoulli coupling fails by O(1)
        psi = ScalarField.from_function(fine_grid, lambda r, t: -r**2 * np.sin(t) / 2)
        u = curl_of_stream(psi)
        assert np.max(np.abs(u.u_theta.values - fine_grid.rr * np.sin(fine_grid.tt))) < 1e-12
        p, _ = pressure_from_momentum(fine_grid, u, 1.0, 1.0)
        phi = head_pressure(u, p, 1.0)
        assert bernoulli_deviation(phi, psi) > 0.1

    def test_degenerate_stream_function(self, grid):
        phi = ScalarField.from_function(grid, lambda r, t: r)
        dev, info = bernoulli_deviation(phi, ScalarField.zeros(grid), full_output=True)
        assert info["degenerate"]
        assert dev == pytest.approx(1.0, rel=1e-12)  # global spread of r on (1,2)

    def test_grid_mismatch(self, grid):
        other = build_grid(16, 16, 1.0, 2.0)
        with pytest.raises(ValueError, match="different grids"):
            bernoulli_deviation(ScalarField.zeros(grid), ScalarField.zeros(other))

    @pytest.mark.parametrize("n_levels", [0, -3])
    def test_no_levels_rejected(self, grid, n_levels):
        # no level tested would read as a zero deviation, a vacuous pass
        psi = ScalarField.from_function(grid, lambda r, t: r)
        with pytest.raises(ValueError, match="n_levels"):
            bernoulli_deviation(psi, psi, n_levels=n_levels)

    @pytest.mark.parametrize("shape", [(16, 8), (32, 64), (64, 128)])
    @pytest.mark.parametrize("case", sorted(BERNOULLI_CASES))
    def test_matches_per_level_reference(self, shape, case):
        g = build_grid(*shape, 1.0, 2.0)
        rng = np.random.default_rng([shape[0], shape[1], sorted(BERNOULLI_CASES).index(case)])
        phi, psi, kwargs = BERNOULLI_CASES[case](g, rng)
        got = bernoulli_deviation(phi, psi, full_output=True, **kwargs)
        want = _bernoulli_reference(phi, psi, **kwargs)
        assert got == want
        assert type(got[0]) is float

    def test_peak_memory_at_64x128(self):
        # the per-level loop peaked at 0.28 MiB here; a scan that enumerated
        # candidate levels per node, not crossings, at 2.26 MiB
        g = build_grid(64, 128, 1.0, 2.0)
        rng = np.random.default_rng(3)
        phi, psi = ScalarField(g, _smooth(g, rng)), ScalarField(g, _smooth(g, rng))
        tracemalloc.start()
        try:
            bernoulli_deviation(phi, psi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * 2**20

    def test_reference_cases_reach_their_branches(self):
        # each case exercises what it is named for, on every grid above
        for shape in [(16, 8), (32, 64), (64, 128)]:
            g = build_grid(*shape, 1.0, 2.0)
            rng = np.random.default_rng(0)
            phi, psi, kw = BERNOULLI_CASES["plateaus"](g, rng)
            assert np.isin(psi.values, _levels(psi.values, 64)).sum() > 10
            assert _bernoulli_reference(phi, psi)[1]["levels_used"] > 10
            phi, psi, kw = BERNOULLI_CASES["critical"](g, rng)
            crossed = sum((d[:-1] * d[1:] < 0).any()
                          for d in psi.values - _levels(psi.values, 64)[:, None, None])
            assert 0 < _bernoulli_reference(phi, psi, **kw)[1]["levels_used"] < crossed
            phi, psi, kw = BERNOULLI_CASES["underflow"](g, rng)
            d = psi.values  # the middle level is exactly 0
            assert _levels(d, kw["n_levels"])[kw["n_levels"] // 2] == 0.0
            opposite = np.sign(d[:-1]) * np.sign(d[1:]) < 0
            assert (opposite & (d[:-1] * d[1:] == 0.0)).any()
            assert (opposite & (d[:-1] * d[1:] < 0.0)).any()
            assert _bernoulli_reference(*BERNOULLI_CASES["degenerate"](g, rng)[:2])[1] == \
                {"degenerate": True, "levels_used": 0}


class TestBoundaryPressures:
    def test_amick_values(self, amick_pair):
        p1, p2, dev = boundary_pressures(amick_pair[1])
        assert p2 == pytest.approx(0.0, abs=1e-14)
        assert p1 == pytest.approx(SIN2_DROP, abs=1e-12)
        assert dev < 1e-12

    def test_constant_pressure(self, grid):
        p = ScalarField.from_function(grid, lambda r, t: 2.5 * np.ones_like(r))
        p1, p2, dev = boundary_pressures(p)
        assert p1 == p2 == 2.5
        assert dev == 0.0


class TestMaxPrinciple:
    def test_constant_field_passes(self, grid):
        phi = ScalarField.from_function(grid, lambda r, t: np.ones_like(r))
        result = max_principle_check(phi)
        assert result.ok
        assert result.margin == pytest.approx(0.0, abs=1e-15)

    def test_concentrated_bump_violates(self, fine_grid):
        w, p = amick_flow(fine_grid, AmickProfile.shifted_bump((1.9, 2.0)))
        phi = head_pressure(w, p, 1.0)
        result = max_principle_check(phi)
        assert not result.ok
        assert result.margin > 0.01 * result.scale

    def test_interior_dip_passes(self, grid):
        phi = ScalarField.from_function(grid, lambda r, t: (r - 1.5) ** 2)
        result = max_principle_check(phi)
        assert result.ok
        assert result.margin < 0.0


class TestEnergyIdentity:
    def test_zero_candidate(self, grid):
        rec = identity_energy(VelocityField.zeros(grid), flux_carrier(grid, 1.0),
                              1.0, 0.0, 0.0, 1.0)
        assert rec.lhs == 0.0
        assert rec.rhs == 0.0

    @pytest.mark.parametrize("flux", [0.0, 1.0, 2.0])
    def test_amick_against_carriers(self, amick_pair, fine_grid, flux):
        # hand reduction: lhs = lambda0 * F * int f^2/t dt = F * drop
        w, p = amick_pair
        p1, p2, _ = boundary_pressures(p)
        rec = identity_energy(w, flux_carrier(fine_grid, flux), 1.0, p1, p2, flux)
        assert rec.abs_diff < 1e-8
        assert rec.lhs == pytest.approx(flux * SIN2_DROP, abs=1e-10)

    def test_amick_against_fluxless_extension(self, amick_pair, fine_grid):
        # a zero-flux pairing field, the Stokes extension of Couette data,
        # gives lhs = 0
        w, p = amick_pair
        p1, p2, _ = boundary_pressures(p)
        u_ext = stokes_solve(fine_grid, couette_trace(1.0, 0.5)).velocity
        rec = identity_energy(w, u_ext, 1.0, p1, p2, 0.0)
        assert abs(rec.lhs) < 1e-8
        assert rec.abs_diff < 1e-8

    def test_linear_in_flux(self, amick_pair, fine_grid):
        w, p = amick_pair
        p1, p2, _ = boundary_pressures(p)
        values = [identity_energy(w, flux_carrier(fine_grid, f), 1.0,
                                  p1, p2, f).lhs for f in (1.0, 2.0, 4.0)]
        assert values[1] == pytest.approx(2 * values[0], rel=1e-12)
        assert values[2] == pytest.approx(4 * values[0], rel=1e-12)


class TestIdentity37:
    def test_zero_head_pressure(self, grid):
        rec = identity_37(ScalarField.zeros(grid), 0.0, 0.0, grid)
        assert rec.lhs == 0.0
        assert rec.rhs == 0.0

    def test_amick_identity(self, amick_pair, fine_grid):
        w, p = amick_pair
        p1, p2, _ = boundary_pressures(p)
        phi = head_pressure(w, p, 1.0)
        rec = identity_37(phi, p1, p2, fine_grid)
        assert rec.abs_diff < 1e-8
        assert rec.lhs == pytest.approx(SIN2_ID37_LHS, abs=1e-9)
        # the contradiction signature: p1 > p2 breaks the chained bound
        assert p1 > p2
        assert not rec.bound_ok

    def test_refinement_shrinks_defect(self):
        # |lhs - rhs| is pure discretization error; doubling the radial
        # resolution must cut it by at least 4x while above rounding
        defects = []
        for n_r in (8, 16):
            g = build_grid(n_r, 8, 1.0, 2.0)
            w, p = amick_flow(g, AmickProfile.sin_squared())
            p1, p2, _ = boundary_pressures(p)
            rec = identity_37(head_pressure(w, p, 1.0), p1, p2, g)
            defects.append(rec.abs_diff)
        assert defects[0] / defects[1] >= 4.0


class TestEulerResidual:
    def test_amick_pair_is_euler_solution(self, amick_pair):
        w, p = amick_pair
        assert euler_residual(w, p, 1.0) < 1e-9

    def test_zero_pair(self, grid):
        assert euler_residual(VelocityField.zeros(grid), ScalarField.zeros(grid), 1.0) == 0.0

    def test_wrong_pressure_residual_value(self, grid):
        # Couette velocity with p = 0: the residual is exactly the
        # centripetal term (w.grad)w = -u_theta^2/r e_r
        u, _ = couette(grid, 1.0, 0.0)
        res = euler_residual(u, ScalarField.zeros(grid), 1.0)
        assert res == pytest.approx(COUETTE_CENTRIPETAL_L2, rel=1e-10)


class TestRecord:
    def test_serialization_keys(self, fine_grid, amick_pair):
        w, p = amick_pair
        record = diagnostics_for_fields(fine_grid, w, p, 1.0, 0.0)
        data = record.to_dict()
        assert set(data) == {
            "p1", "p2", "phi_interior_sup", "phi_boundary_sup",
            "max_principle_ok", "max_principle_margin", "bernoulli_deviation",
            "identity26_lhs", "identity26_rhs", "identity32_lhs", "identity32_rhs",
            "identity37_lhs", "identity37_rhs", "euler_residual",
        }
        assert all(np.isfinite(v) for k, v in data.items() if k != "max_principle_ok")

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            DiagnosticsRecord(
                p1=np.nan, p2=0.0, phi_interior_sup=0.0, phi_boundary_sup=0.0,
                max_principle_ok=True, max_principle_margin=0.0,
                bernoulli_deviation=0.0,
                identity26_lhs=0.0, identity26_rhs=0.0,
                identity32_lhs=0.0, identity32_rhs=0.0,
                identity37_lhs=0.0, identity37_rhs=0.0, euler_residual=0.0,
            )

    def test_amick_record_contents(self, fine_grid, amick_pair):
        w, p = amick_pair
        record = diagnostics_for_fields(fine_grid, w, p, 1.0, 0.0)
        assert record.euler_residual < 1e-9
        assert record.bernoulli_deviation < 1e-10
        assert not record.max_principle_ok  # interior kinetic bulge
        assert record.identity37_lhs == pytest.approx(record.identity37_rhs, abs=1e-8)
        assert record.p1 - record.p2 == pytest.approx(SIN2_DROP, abs=1e-10)
