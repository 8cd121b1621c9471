"""Boundary data on the two circles, admissibility, and the clamped stream data.

A boundary datum is stored as angular Fourier data of its normal and angular
components on each circle.  The normal is always outward with respect to the
annulus (+e_r on the outer circle Gamma_1, -e_r on the inner circle Gamma_2);
the tangential component is stored as the plain angular component a_theta on
both circles so no orientation bookkeeping leaks into user code.

Coefficients use the one-sided convention

    v(theta) = Re( sum_{k>=0} c_k exp(i k theta) ),

i.e. c_0 is the mean (imaginary part ignored) and c_k = a_k - i b_k for the
cos/sin pair at harmonic k >= 1.

The solenoidal extension of a datum is its Stokes solution (see the stokes
module), built from two pieces: the flux carrier here and the clamped stream
data of the zero-flux remainder, which ``stokes.StreamBC.from_trace`` builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .fields import VelocityField
from .grid import PolarGrid

Coefficients = Mapping[int, complex]

_ADMISSIBILITY_TOL = 1e-10


def _clean(coefs: Coefficients | None) -> dict[int, complex]:
    out: dict[int, complex] = {}
    for k, c in (coefs or {}).items():
        k = int(k)
        if k < 0:
            raise ValueError("harmonics are indexed by k >= 0 in the one-sided convention")
        c = complex(c)
        if c != 0:
            out[k] = c
    return out


def evaluate_harmonics(coefs: Coefficients, theta: np.ndarray) -> np.ndarray:
    """Evaluate one-sided Fourier data at angles ``theta``."""
    values = np.zeros_like(np.asarray(theta, dtype=float))
    for k, c in coefs.items():
        if k == 0:
            values = values + c.real
        else:
            values = values + c.real * np.cos(k * theta) - c.imag * np.sin(k * theta)
    return values


@dataclass(frozen=True)
class BoundaryTrace:
    """Admissible velocity datum on the two boundary circles.

    ``normal_outer``/``normal_inner`` hold a.n (n outward w.r.t. the
    annulus); ``angular_outer``/``angular_inner`` hold a_theta.  The net
    flux through the inner circle is derived data; on construction the
    compatibility condition (zero total flux) is enforced to 1e-10.
    """

    r_inner: float
    r_outer: float
    normal_outer: dict[int, complex] = field(default_factory=dict)
    angular_outer: dict[int, complex] = field(default_factory=dict)
    normal_inner: dict[int, complex] = field(default_factory=dict)
    angular_inner: dict[int, complex] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("normal_outer", "angular_outer", "normal_inner", "angular_inner"):
            object.__setattr__(self, name, _clean(getattr(self, name)))
        outer, inner = self.flux_outer, self.flux
        if abs(outer + inner) > _ADMISSIBILITY_TOL * max(1.0, abs(outer), abs(inner)):
            raise ValueError(
                "boundary datum violates the compatibility condition: "
                f"flux through Gamma_1 = {outer:.12e}, through Gamma_2 = {inner:.12e}, "
                f"sum = {outer + inner:.3e}"
            )

    @property
    def flux(self) -> float:
        """Net flux through the inner boundary, integral of a.n over Gamma_2."""
        return 2.0 * np.pi * self.r_inner * self.normal_inner.get(0, 0.0 + 0j).real

    @property
    def flux_outer(self) -> float:
        return 2.0 * np.pi * self.r_outer * self.normal_outer.get(0, 0.0 + 0j).real

    @property
    def max_harmonic(self) -> int:
        keys = [0]
        for d in (self.normal_outer, self.angular_outer, self.normal_inner, self.angular_inner):
            keys.extend(d.keys())
        return max(keys)

    # -- nodal evaluation ---------------------------------------------------------

    def radial_values(self, side: str, theta: np.ndarray) -> np.ndarray:
        """a_r on the requested circle ('outer' or 'inner') at angles theta."""
        if side == "outer":
            return evaluate_harmonics(self.normal_outer, theta)
        if side == "inner":
            return -evaluate_harmonics(self.normal_inner, theta)
        raise ValueError(f"side must be 'outer' or 'inner', got {side!r}")

    def angular_values(self, side: str, theta: np.ndarray) -> np.ndarray:
        if side == "outer":
            return evaluate_harmonics(self.angular_outer, theta)
        if side == "inner":
            return evaluate_harmonics(self.angular_inner, theta)
        raise ValueError(f"side must be 'outer' or 'inner', got {side!r}")

    # -- algebra ------------------------------------------------------------------

    def __add__(self, other: "BoundaryTrace") -> "BoundaryTrace":
        if (self.r_inner, self.r_outer) != (other.r_inner, other.r_outer):
            raise ValueError("traces live on different annuli")

        def merge(a: dict, b: dict) -> dict:
            out = dict(a)
            for k, c in b.items():
                out[k] = out.get(k, 0.0 + 0j) + c
            return out

        return BoundaryTrace(
            self.r_inner, self.r_outer,
            merge(self.normal_outer, other.normal_outer),
            merge(self.angular_outer, other.angular_outer),
            merge(self.normal_inner, other.normal_inner),
            merge(self.angular_inner, other.angular_inner),
        )

    def zero_flux_remainder(self) -> "BoundaryTrace":
        """Subtract the trace of the flux carrier so both per-circle fluxes vanish."""
        return self + pure_flux_trace(-self.flux, self.r_inner, self.r_outer)

    def trace_norm_proxy(self) -> float:
        """Discrete H^(1/2)-weighted Fourier norm, sum (1+|k|)|c_k|^2 over all data."""
        total = 0.0
        for d in (self.normal_outer, self.angular_outer, self.normal_inner, self.angular_inner):
            for k, c in d.items():
                total += (1.0 + abs(k)) * abs(c) ** 2
        return float(np.sqrt(total))


# -- presets ---------------------------------------------------------------------


def pure_flux_trace(flux: float, r_inner: float = 1.0, r_outer: float = 2.0) -> BoundaryTrace:
    """Trace of the flux carrier u_F = -(flux/2 pi r) e_r."""
    flux, r_inner, r_outer = float(flux), float(r_inner), float(r_outer)
    return BoundaryTrace(
        r_inner, r_outer,
        normal_outer={0: -flux / (2.0 * np.pi * r_outer)},
        normal_inner={0: flux / (2.0 * np.pi * r_inner)},
    )


def couette_trace(omega1: float, omega2: float,
                  r_inner: float = 1.0, r_outer: float = 2.0) -> BoundaryTrace:
    """Rigid rotations omega1 of Gamma_1 (outer) and omega2 of Gamma_2 (inner)."""
    return BoundaryTrace(
        float(r_inner), float(r_outer),
        angular_outer={0: omega1 * r_outer},
        angular_inner={0: omega2 * r_inner},
    )


def _spiral_swirl(flux: float, amplitude: float, nu: float, r_inner: float, r):
    """(c, swirl at the radii ``r``) of the spiral u_r = c/r, u_theta = A/r + B r^(1+c/nu).

    c = -flux/(2 pi) and B = ``amplitude``; A is fixed so the swirl vanishes
    on the inner circle.  Raises ValueError at the exponent collision
    c/nu = -2, where both branches are 1/r and the swirl cancels to zero.
    """
    c = -flux / (2.0 * np.pi)
    if abs(c / nu + 2.0) < 1e-12:
        raise ValueError(
            "spiral exponent collision at c/nu = -2: the swirl needs the "
            "unsupported logarithmic branch"
        )
    beta = 1.0 + c / nu
    big_a = -amplitude * r_inner ** (beta + 1.0)
    return c, big_a / r + amplitude * r**beta


def spiral_trace(flux: float, amplitude: float, nu: float,
                 r_inner: float = 1.0, r_outer: float = 2.0) -> BoundaryTrace:
    """Trace of the Hamel-type spiral flow u_r = c/r, u_theta = A/r + B r^(1+c/nu).

    c = -flux/(2 pi); A is fixed so the swirl vanishes on the inner circle.
    Raises ValueError at the exponent collision c/nu = -2.
    """
    c, swirl_outer = _spiral_swirl(flux, amplitude, nu, r_inner, r_outer)
    return BoundaryTrace(
        float(r_inner), float(r_outer),
        normal_outer={0: c / r_outer},
        angular_outer={0: swirl_outer},
        normal_inner={0: -c / r_inner},
        angular_inner={0: 0.0},
    )


def _parse_coefficients(raw) -> dict[int, complex]:
    """The harmonic table of a ``fourier`` block (None: empty); ValueError if malformed."""
    if raw is None:
        return {}
    if not isinstance(raw, Mapping):
        raise ValueError(f"a harmonic table maps harmonics to coefficients, got {raw!r}")
    out = {}
    for key, val in raw.items():
        if isinstance(val, (list, tuple)):
            if len(val) not in (1, 2):
                raise ValueError(f"harmonic {key}: a coefficient is a scalar or [re, im], "
                                 f"got {val!r}")
            val = complex(*val)
        out[int(key)] = complex(val)
    return out


def make_trace(spec: Mapping) -> BoundaryTrace:
    """Build a trace from a configuration mapping (the JSON ``boundary`` block).

    Supported presets: ``pure_flux`` (flux), ``couette`` (omega1, omega2),
    ``spiral`` (flux, amplitude, nu), ``fourier`` (coefficient tables keyed
    by harmonic, values scalar or [re, im] pairs).  Radii default to the
    canonical (1, 2) annulus.  Raises ValueError on an unknown preset and on
    any key its preset does not read.
    """
    spec = dict(spec)
    preset = spec.pop("preset", None)
    r_inner = float(spec.pop("r_inner", 1.0))
    r_outer = float(spec.pop("r_outer", 2.0))
    keys = {
        "pure_flux": ("flux",),
        "couette": ("omega1", "omega2"),
        "spiral": ("flux", "amplitude", "nu"),
        "fourier": ("normal_outer", "angular_outer", "normal_inner", "angular_inner"),
    }
    if preset not in keys:
        raise ValueError(f"unknown boundary preset {preset!r}")
    unknown = sorted(set(spec) - set(keys[preset]))
    if unknown:
        raise ValueError(f"preset {preset!r} does not read {', '.join(unknown)}")
    if preset == "pure_flux":
        return pure_flux_trace(float(spec["flux"]), r_inner, r_outer)
    if preset == "couette":
        return couette_trace(float(spec.get("omega1", 0.0)), float(spec.get("omega2", 0.0)),
                             r_inner, r_outer)
    if preset == "spiral":
        return spiral_trace(float(spec["flux"]), float(spec.get("amplitude", 1.0)),
                            float(spec.get("nu", 1.0)), r_inner, r_outer)
    return BoundaryTrace(r_inner, r_outer,
                         *(_parse_coefficients(spec.get(name)) for name in keys["fourier"]))


# -- carrier -----------------------------------------------------------------------


def flux_carrier(grid: PolarGrid, flux: float) -> VelocityField:
    """The irrotational carrier u_F = -(flux / 2 pi r) e_r.

    Exactly solenoidal and curl free, with net flux ``flux`` through the
    inner boundary; its vector Laplacian vanishes identically, so it is a
    steady solution for every viscosity.
    """
    u_r = -flux / (2.0 * np.pi * grid.rr)
    return VelocityField.from_arrays(grid, u_r, np.zeros_like(u_r))

