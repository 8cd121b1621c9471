"""Boundary data presets, admissibility, the flux carrier, and the Stokes extension."""

import numpy as np
import pytest

from annulus_flux import (
    BoundaryTrace,
    couette_trace,
    curl,
    divergence,
    flux_carrier,
    flux_inner,
    make_trace,
    pure_flux_trace,
    spiral_trace,
    stokes_solve,
)
from annulus_flux.fields import l2_norm, velocity_l2_norm
from annulus_flux.stokes import StreamBC


def test_pure_flux_preset_values():
    tr = pure_flux_trace(1.0)
    assert tr.flux == pytest.approx(1.0, abs=1e-14)
    assert tr.flux_outer == pytest.approx(-1.0, abs=1e-14)
    # a.n is constant 1/(2 pi R2) on the inner circle, -1/(2 pi R1) outside
    assert tr.normal_inner[0].real == pytest.approx(1.0 / (2 * np.pi), rel=1e-15)
    assert tr.normal_outer[0].real == pytest.approx(-1.0 / (4 * np.pi), rel=1e-15)


def test_couette_preset_is_fluxless():
    tr = couette_trace(1.0, 0.0)
    assert tr.flux == 0.0
    theta = np.linspace(0, 2 * np.pi, 7)
    assert np.allclose(tr.angular_values("outer", theta), 2.0)
    assert np.allclose(tr.angular_values("inner", theta), 0.0)
    assert np.allclose(tr.radial_values("outer", theta), 0.0)


def test_incompatible_fourier_data_rejected():
    with pytest.raises(ValueError, match="compatibility"):
        BoundaryTrace(1.0, 2.0, normal_inner={0: 1.0 / (2 * np.pi)}, normal_outer={})


def test_make_trace_dispatch():
    tr = make_trace({"preset": "pure_flux", "flux": 2.0})
    assert tr.flux == pytest.approx(2.0)
    tr = make_trace({"preset": "couette", "omega1": 1.0, "omega2": -1.0})
    assert tr.flux == 0.0
    tr = make_trace({"preset": "spiral", "flux": 1.0, "amplitude": 0.5, "nu": 1.0})
    assert tr.flux == pytest.approx(1.0)
    tr = make_trace({"preset": "fourier", "normal_outer": {"1": [0.1, 0.0]},
                     "angular_inner": {"0": 1.0}})
    assert tr.flux == 0.0
    with pytest.raises(ValueError, match="preset"):
        make_trace({"preset": "unknown"})


@pytest.mark.parametrize("spec, unknown", [
    # a misspelled optional key used to fall back to its default silently:
    # the first gave the zero datum, the second amplitude 1.0
    ({"preset": "couette", "omega_1": 3.0}, ["omega_1"]),
    ({"preset": "spiral", "flux": 1.0, "amplitdue": 0.5}, ["amplitdue"]),
    ({"preset": "pure_flux", "flx": 1.0, "omega1": 2.0}, ["flx", "omega1"]),
    ({"preset": "fourier", "angular_outr": {"0": 1.0}}, ["angular_outr"]),
])
def test_make_trace_rejects_keys_its_preset_does_not_read(spec, unknown):
    with pytest.raises(ValueError, match="does not read") as excinfo:
        make_trace(spec)
    assert all(key in str(excinfo.value) for key in unknown)


@pytest.mark.parametrize("table", [[0.1, 0.2], {"1": []}, {"1": [0.1, 0.2, 0.3]}])
def test_make_trace_rejects_malformed_harmonic_tables(table):
    # a list table used to raise AttributeError, an empty pair IndexError,
    # and a third entry was dropped
    with pytest.raises(ValueError, match="harmonic"):
        make_trace({"preset": "fourier", "normal_outer": table})


def test_spiral_trace_matches_oracle_rims(grid):
    tr = spiral_trace(2 * np.pi, 1.0, 1.0)
    # c = -1: u_r = -1/r on both rims, swirl zero inside, 1 - 1/2 outside
    assert tr.radial_values("inner", grid.theta)[0] == pytest.approx(-1.0)
    assert tr.radial_values("outer", grid.theta)[0] == pytest.approx(-0.5)
    assert tr.angular_values("inner", grid.theta)[0] == pytest.approx(0.0, abs=1e-15)
    assert tr.angular_values("outer", grid.theta)[0] == pytest.approx(0.5)


def test_flux_carrier_zero(grid):
    assert velocity_l2_norm(flux_carrier(grid, 0.0)) == 0.0


def test_flux_carrier_hand_quadrature(grid):
    u = flux_carrier(grid, 2 * np.pi)
    assert np.max(np.abs(u.u_r.values + 1.0 / grid.rr)) < 1e-14
    # hand quadrature on Gamma_2 with n = -e_r: integral of (1/R2)*R2 dtheta
    assert flux_inner(u) == pytest.approx(2 * np.pi, rel=1e-14)


@pytest.mark.parametrize("flux", [-3.0, 0.7, 2 * np.pi])
def test_flux_carrier_irrotational(grid, flux):
    assert l2_norm(curl(flux_carrier(grid, flux))) < 1e-12


def test_extension_of_pure_flux_is_carrier(grid):
    # the extension of a datum is its Stokes solution; of pure flux data,
    # the carrier
    a_field = stokes_solve(grid, pure_flux_trace(1.0)).velocity
    assert velocity_l2_norm(a_field - flux_carrier(grid, 1.0)) < 1e-14


@pytest.mark.parametrize("trace_fn", [
    lambda: couette_trace(1.0, 0.5),
    lambda: spiral_trace(1.0, 1.0, 1.0),
    lambda: BoundaryTrace(1.0, 2.0,
                           normal_outer={2: 0.3 + 0.1j}, normal_inner={2: -0.05j},
                           angular_outer={1: 0.2}, angular_inner={0: 1.0}),
])
def test_extension_attains_trace(grid, trace_fn):
    tr = trace_fn()
    a_field = stokes_solve(grid, tr).velocity
    assert l2_norm(divergence(a_field)) < 1e-10
    assert np.max(np.abs(a_field.u_r.values[0] - tr.radial_values("outer", grid.theta))) < 1e-10
    assert np.max(np.abs(a_field.u_r.values[-1] - tr.radial_values("inner", grid.theta))) < 1e-10
    assert np.max(np.abs(a_field.u_theta.values[0] - tr.angular_values("outer", grid.theta))) < 1e-10
    assert np.max(np.abs(a_field.u_theta.values[-1] - tr.angular_values("inner", grid.theta))) < 1e-10
    assert abs(flux_inner(a_field) - tr.flux) < 1e-10


def test_extension_ratio_bounded_over_presets(grid):
    # empirical stand-in for the nonconstructive extension bound: the ratio
    # is reported, only finiteness is asserted
    ratios = []
    for tr in (pure_flux_trace(1.0), couette_trace(1.0, 0.0),
               spiral_trace(1.0, 1.0, 1.0),
               BoundaryTrace(1.0, 2.0, normal_outer={3: 0.2}, normal_inner={3: 0.1})):
        ratio = stokes_solve(grid, tr).norm_ratio
        assert np.isfinite(ratio) and ratio > 0
        ratios.append(ratio)
    assert max(ratios) < 1e3


def test_spiral_trace_rejects_exponent_collision():
    # c/nu = -2: the swirl A/r + B r^(1 + c/nu) would cancel to zero
    with pytest.raises(ValueError, match="collision"):
        spiral_trace(4.0 * np.pi, 1.0, 1.0)


def test_stream_data_rejects_unresolved_harmonics():
    from annulus_flux import build_grid

    g = build_grid(16, 8, 1.0, 2.0)
    tr = BoundaryTrace(1.0, 2.0, angular_outer={6: 1.0})
    with pytest.raises(ValueError, match="not resolved"):
        StreamBC.from_trace(g, tr)


def test_trace_algebra_radii_mismatch():
    with pytest.raises(ValueError, match="different annuli"):
        pure_flux_trace(1.0, 1.0, 2.0) + pure_flux_trace(1.0, 1.0, 3.0)


def test_zero_flux_remainder(grid):
    tr = spiral_trace(2.0, 1.0, 1.0)
    rem = tr.zero_flux_remainder()
    assert rem.flux == pytest.approx(0.0, abs=1e-14)
    assert rem.flux_outer == pytest.approx(0.0, abs=1e-14)
