"""Closed-form reference flows used as ground truth.

Each constructor returns nodal (velocity, pressure) pairs that satisfy the
relevant system exactly in the continuum:

* Couette: u_theta = A r + B/r between rotating circles, an exact Stokes and
  Navier-Stokes solution with zero flux.
* Radial source: the flux carrier itself; its vector Laplacian vanishes, so
  it solves the steady Navier-Stokes system for every viscosity.
* Spiral: u_r = c/r combined with swirl A/r + B r^(1+c/nu), the Hamel-type
  exact solution with nonzero flux (the theta-momentum equation reduces to
  an Euler-Cauchy equation with exponents -1 and 1 + c/nu; verified by
  substitution before the build).
* Rotational Euler flow: zero radial velocity, swirl f(r) vanishing at both
  circles, pressure from the centripetal balance; an exact solution of the
  normalized Euler system whose boundary pressure constants differ.

Pressures are integrated with the grid's spectral radial antiderivative and
normalized to zero mean, except for the Euler flow whose pressure is pinned
to zero at the inner circle, where the sign of the pressure drop is the
interesting output.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .boundary import _spiral_swirl, flux_carrier
from .fields import ScalarField, VelocityField
from .grid import PolarGrid, chebyshev_diff_matrix, clenshaw_curtis_weights, integrate


def couette_constants(omega1: float, omega2: float,
                      r_inner: float, r_outer: float) -> tuple[float, float]:
    """Constants of u_theta = A r + B / r matching rim speeds omega_i * R_i."""
    r1sq, r2sq = r_outer**2, r_inner**2
    a = (omega1 * r1sq - omega2 * r2sq) / (r1sq - r2sq)
    b = (omega2 - omega1) * r1sq * r2sq / (r1sq - r2sq)
    return a, b


def _mean_zero(grid: PolarGrid, values: np.ndarray) -> np.ndarray:
    return values - integrate(grid, values) / grid.area


def _every_angle(grid: PolarGrid, line: np.ndarray) -> np.ndarray:
    """A radial profile repeated at every angle: a copy, as BLAS rounds differently on a view."""
    return np.broadcast_to(line[:, None], grid.rr.shape).copy()


def couette(grid: PolarGrid, omega1: float, omega2: float) -> tuple[VelocityField, ScalarField]:
    """Exact Couette flow for rim angular velocities (omega1 outer, omega2 inner)."""
    a, b = couette_constants(omega1, omega2, grid.r_inner, grid.r_outer)
    swirl_line = a * grid.r + b / grid.r
    u = VelocityField.from_arrays(grid, np.zeros_like(grid.rr), _every_angle(grid, swirl_line))
    # dp/dr = u_theta^2 / r, integrated spectrally, mean zero
    p_line = grid.radial_antiderivative(swirl_line**2 / grid.r)
    return u, ScalarField(grid, _mean_zero(grid, _every_angle(grid, p_line)))


def radial_source(grid: PolarGrid, flux: float) -> tuple[VelocityField, ScalarField]:
    """Source/sink flow u = -(flux / 2 pi r) e_r with p = -flux^2/(8 pi^2 r^2).

    An exact steady Navier-Stokes solution for every viscosity; the viscous
    term vanishes identically.
    """
    u = flux_carrier(grid, flux)
    p = _mean_zero(grid, -(flux**2) / (8.0 * np.pi**2 * grid.rr**2))
    return u, ScalarField(grid, p)


def spiral_flow(grid: PolarGrid, flux: float, amplitude: float,
                nu: float) -> tuple[VelocityField, ScalarField]:
    """Hamel-type spiral: radial source plus swirl, exact at every Reynolds number.

    With c = -flux/(2 pi) the swirl is u_theta = A/r + B r^(1 + c/nu), A fixed
    by u_theta(r_inner) = 0.  The exponent collision c/nu = -2 (the second
    branch degenerating onto 1/r) would need a logarithmic branch and is
    rejected.
    """
    c, swirl_line = _spiral_swirl(flux, amplitude, nu, grid.r_inner, grid.r)
    u = VelocityField.from_arrays(grid, c / grid.rr, _every_angle(grid, swirl_line))
    # radial momentum: dp/dr = c^2/r^3 + u_theta^2/r
    p_line = grid.radial_antiderivative(c**2 / grid.r**3 + swirl_line**2 / grid.r)
    return u, ScalarField(grid, _mean_zero(grid, _every_angle(grid, p_line)))


# -- rotational Euler flow ----------------------------------------------------------


@dataclass(frozen=True)
class AmickProfile:
    """Swirl profile f on (r_inner, r_outer) vanishing at both ends.

    Profiles are named presets rather than arbitrary callables, so that
    ``amick_pressure_drop`` can integrate over a preset's known support.
    ``lambda0`` scales the pressure of the associated Euler flow.
    """

    kind: str
    params: tuple
    lambda0: float = 1.0
    r_inner: float = 1.0
    r_outer: float = 2.0

    @classmethod
    def sin_squared(cls, lambda0: float = 1.0, r_inner: float = 1.0,
                    r_outer: float = 2.0) -> "AmickProfile":
        """f = sin^2(pi (r - r_inner)/(r_outer - r_inner))."""
        return cls("sin_squared", (), lambda0, r_inner, r_outer)

    @classmethod
    def poly_bump(cls, order: int = 4, lambda0: float = 1.0, r_inner: float = 1.0,
                  r_outer: float = 2.0) -> "AmickProfile":
        """f = [(r - r_inner)(r_outer - r)]^order, normalized to unit peak."""
        return cls("poly_bump", (int(order),), lambda0, r_inner, r_outer)

    @classmethod
    def shifted_bump(cls, support: tuple[float, float], order: int = 6,
                     lambda0: float = 1.0, r_inner: float = 1.0,
                     r_outer: float = 2.0) -> "AmickProfile":
        """Unit-peak bump supported in ``support``, zero elsewhere.

        Vanishes to order ``order`` at the support edges, which keeps the
        profile smooth enough for the spectral quadratures at desk
        resolutions.
        """
        lo, hi = float(support[0]), float(support[1])
        if not (r_inner <= lo < hi <= r_outer):
            raise ValueError("support must sit inside the annulus")
        return cls("shifted_bump", (lo, hi, int(order)), lambda0, r_inner, r_outer)

    def __call__(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        if self.kind == "sin_squared":
            return np.sin(np.pi * (r - self.r_inner) / (self.r_outer - self.r_inner)) ** 2
        if self.kind == "poly_bump":
            (order,) = self.params
            half = 0.5 * (self.r_outer - self.r_inner)
            raw = (r - self.r_inner) * (self.r_outer - r) / half**2
            return np.clip(raw, 0.0, None) ** order
        if self.kind == "shifted_bump":
            lo, hi, order = self.params
            half = 0.5 * (hi - lo)
            raw = (r - lo) * (hi - r) / half**2
            return np.where((r > lo) & (r < hi), np.clip(raw, 0.0, None) ** order, 0.0)
        raise ValueError(f"unknown profile kind {self.kind!r}")


def amick_flow(grid: PolarGrid, profile: AmickProfile) -> tuple[VelocityField, ScalarField]:
    """Rotational Euler flow (0, f(r)) with pressure lambda0 * int f^2/t dt.

    The pair solves the normalized Euler system exactly with zero boundary
    velocity; the pressure is pinned to zero at the inner circle so the
    boundary constants are 0 and the (positive) pressure drop.
    """
    if not (np.isclose(grid.r_inner, profile.r_inner)
            and np.isclose(grid.r_outer, profile.r_outer)):
        raise ValueError("profile and grid radii differ")
    f_line = profile(grid.r)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(f_line))))
    if abs(f_line[0]) > tol or abs(f_line[-1]) > tol:
        raise ValueError("profile does not vanish at the boundary circles")
    w = VelocityField.from_arrays(grid, np.zeros_like(grid.rr), _every_angle(grid, f_line))
    p_line = profile.lambda0 * grid.radial_antiderivative(f_line**2 / grid.r)
    return w, ScalarField(grid, _every_angle(grid, p_line))


_DROP_RULE_POINTS = 257


@functools.cache
def _drop_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and Clenshaw-Curtis weights of the drop rule on [-1, 1], built once, read-only."""
    x, _ = chebyshev_diff_matrix(_DROP_RULE_POINTS)
    w = clenshaw_curtis_weights(_DROP_RULE_POINTS)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def amick_pressure_drop(profile: AmickProfile) -> float:
    """Boundary pressure difference p(r_outer) - p(r_inner) of the Euler flow.

    Evaluated with a standalone high-order Clenshaw-Curtis rule restricted
    to the profile's support (where the integrand is analytic), so the value
    is independent of any solver grid; strictly positive for nonzero
    profiles.
    """
    if profile.kind == "shifted_bump":
        lo, hi = profile.params[0], profile.params[1]
    else:
        lo, hi = profile.r_inner, profile.r_outer
    x, weights = _drop_rule()
    half = 0.5 * (hi - lo)
    r = lo + half * (x + 1.0)
    w = weights * half
    return float(profile.lambda0 * np.sum(w * profile(r) ** 2 / r))
