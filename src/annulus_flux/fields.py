"""Scalar and vector fields on the annulus grid and their calculus.

Fields are value-semantic: nodal arrays are frozen at construction and all
operations return new fields, so concurrent reads are safe.

Sign convention, fixed once for the whole package: the stream function
generates velocity through

    u_r = (1/r) dpsi/dtheta,      u_theta = -dpsi/dr,

equivalently grad(psi) = (-u_y, u_x) in Cartesian components, and the scalar
vorticity is omega = curl(u) = -Laplacian(psi).  This was verified
symbolically before the build; every operation below sticks to it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import PolarGrid, integrate


@dataclass(frozen=True)
class ScalarField:
    """Nodal real scalar field, shape (n_r, n_theta), periodic in theta."""

    grid: PolarGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        # always a private copy: freezing the caller's own array would make it
        # read-only for them, and their later writes would change this field
        values = np.array(self.values, dtype=float, order="C")
        if values.shape != (self.grid.n_r, self.grid.n_theta):
            raise ValueError(
                f"scalar field shape {values.shape} does not match grid "
                f"({self.grid.n_r}, {self.grid.n_theta})"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("scalar field contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_function(cls, grid: PolarGrid, fn: Callable) -> "ScalarField":
        return cls(grid, fn(grid.rr, grid.tt))

    @classmethod
    def zeros(cls, grid: PolarGrid) -> "ScalarField":
        return cls(grid, np.zeros((grid.n_r, grid.n_theta)))


@dataclass(frozen=True)
class VelocityField:
    """Velocity in physical polar components (u_r, u_theta)."""

    grid: PolarGrid
    u_r: ScalarField
    u_theta: ScalarField

    def __post_init__(self) -> None:
        for comp in (self.u_r, self.u_theta):
            if self.grid != comp.grid:
                raise ValueError("velocity components live on a different grid")

    @classmethod
    def from_arrays(cls, grid: PolarGrid, u_r: np.ndarray, u_theta: np.ndarray) -> "VelocityField":
        return cls(grid, ScalarField(grid, u_r), ScalarField(grid, u_theta))

    @classmethod
    def from_functions(cls, grid: PolarGrid, f_r: Callable, f_theta: Callable) -> "VelocityField":
        return cls.from_arrays(grid, f_r(grid.rr, grid.tt), f_theta(grid.rr, grid.tt))

    @classmethod
    def zeros(cls, grid: PolarGrid) -> "VelocityField":
        z = np.zeros((grid.n_r, grid.n_theta))
        return cls.from_arrays(grid, z, z)

    def __add__(self, other: "VelocityField") -> "VelocityField":
        _check_same_grid(self, other)
        return VelocityField.from_arrays(
            self.grid,
            self.u_r.values + other.u_r.values,
            self.u_theta.values + other.u_theta.values,
        )

    def __sub__(self, other: "VelocityField") -> "VelocityField":
        _check_same_grid(self, other)
        return VelocityField.from_arrays(
            self.grid,
            self.u_r.values - other.u_r.values,
            self.u_theta.values - other.u_theta.values,
        )

    def __mul__(self, c: float) -> "VelocityField":
        return VelocityField.from_arrays(
            self.grid, c * self.u_r.values, c * self.u_theta.values
        )

    __rmul__ = __mul__


def _check_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


# -- first-order operators ---------------------------------------------------------


def divergence(u: VelocityField) -> ScalarField:
    """(1/r) d(r u_r)/dr + (1/r) du_theta/dtheta, spectrally accurate."""
    g = u.grid
    r = g.rr
    div = g.diff_r(r * u.u_r.values) / r + g.diff_theta(u.u_theta.values) / r
    return ScalarField(g, div)


def curl(u: VelocityField) -> ScalarField:
    """Scalar vorticity (1/r)[d(r u_theta)/dr - du_r/dtheta]."""
    g = u.grid
    r = g.rr
    w = g.diff_r(r * u.u_theta.values) / r - g.diff_theta(u.u_r.values) / r
    return ScalarField(g, w)


def curl_of_stream(psi: ScalarField) -> VelocityField:
    """Velocity generated by a stream function under the package convention.

    Returns u with u_r = (1/r) dpsi/dtheta and u_theta = -dpsi/dr; the
    result is discretely divergence free to rounding because the mixed
    angular/radial derivatives commute exactly on the tensor grid.
    """
    g = psi.grid
    u_r = g.diff_theta(psi.values) / g.rr
    u_theta = -g.diff_r(psi.values)
    return VelocityField.from_arrays(g, u_r, u_theta)


def gradient(f: ScalarField) -> VelocityField:
    """Gradient of a scalar in physical polar components (df/dr, (1/r)df/dtheta)."""
    g = f.grid
    return VelocityField.from_arrays(
        g, g.diff_r(f.values), g.diff_theta(f.values) / g.rr
    )


def scalar_laplacian(f: ScalarField) -> ScalarField:
    g = f.grid
    r = g.rr
    lap = g.diff_r(f.values, 2) + g.diff_r(f.values) / r + g.diff_theta(f.values, 2) / r**2
    return ScalarField(g, lap)


def vector_laplacian(u: VelocityField) -> VelocityField:
    """Vector Laplacian in polar components, including the curvature couplings."""
    g = u.grid
    r = g.rr
    ur, ut = u.u_r.values, u.u_theta.values
    lap_r = scalar_laplacian(u.u_r).values - ur / r**2 - 2.0 * g.diff_theta(ut) / r**2
    lap_t = scalar_laplacian(u.u_theta).values - ut / r**2 + 2.0 * g.diff_theta(ur) / r**2
    return VelocityField.from_arrays(g, lap_r, lap_t)


def advect(v: VelocityField, u: VelocityField) -> VelocityField:
    """Convective derivative (v . grad) u with the polar metric terms."""
    _check_same_grid(v, u)
    g = u.grid
    r = g.rr
    vr, vt = v.u_r.values, v.u_theta.values

    def directional(f: np.ndarray) -> np.ndarray:
        return vr * g.diff_r(f) + vt * g.diff_theta(f) / r

    ur, ut = u.u_r.values, u.u_theta.values
    comp_r = directional(ur) - vt * ut / r
    comp_t = directional(ut) + vt * ur / r
    return VelocityField.from_arrays(g, comp_r, comp_t)


# -- integral quantities -----------------------------------------------------------


def flux_inner(u: VelocityField) -> float:
    """Net flux of u through the inner boundary Gamma_2.

    The normal is outward with respect to the annulus, so n = -e_r on
    Gamma_2 and the flux is the angular quadrature of -u_r(r_inner)*r_inner.
    """
    g = u.grid
    return float(-(u.u_r.values[-1, :] * g.r_inner).sum() * g.w_theta)


def flux_through_circle(u: VelocityField, row: int) -> float:
    """Flux of u through the circle r = r[row], oriented outward (+e_r)."""
    g = u.grid
    return float((u.u_r.values[row, :] * g.r[row]).sum() * g.w_theta)


def _gradient_frame(u: VelocityField) -> tuple[np.ndarray, ...]:
    """The four orthonormal-frame components of the velocity gradient.

    du_r/dr, (1/r)du_r/dth - u_t/r, du_t/dr, (1/r)du_t/dth + u_r/r: the full
    covariant polar formula, whose squares sum to |grad u|^2.
    """
    g = u.grid
    r = g.rr
    ur, ut = u.u_r.values, u.u_theta.values
    return (
        g.diff_r(ur),
        g.diff_theta(ur) / r - ut / r,
        g.diff_r(ut),
        g.diff_theta(ut) / r + ur / r,
    )


def grad_squared(u: VelocityField) -> ScalarField:
    """Pointwise |grad u|^2; its quadrature reproduces the Cartesian Dirichlet integral."""
    a, b, c, d = _gradient_frame(u)
    return ScalarField(u.grid, a * a + b * b + c * c + d * d)


def grad_inner(u: VelocityField, v: VelocityField) -> ScalarField:
    """Pointwise contraction grad(u) : grad(v) in the orthonormal polar frame."""
    _check_same_grid(u, v)
    return ScalarField(u.grid, sum(x * y for x, y in zip(_gradient_frame(u), _gradient_frame(v))))


def dirichlet_norm(w: VelocityField) -> float:
    """H(Omega) seminorm (integral of |grad w|^2)^(1/2)."""
    return float(np.sqrt(max(integrate(w.grid, grad_squared(w)), 0.0)))


def l2_norm(f: ScalarField) -> float:
    return float(np.sqrt(max(integrate(f.grid, ScalarField(f.grid, f.values**2)), 0.0)))


def velocity_l2_norm(u: VelocityField) -> float:
    sq = u.u_r.values**2 + u.u_theta.values**2
    return float(np.sqrt(max(integrate(u.grid, ScalarField(u.grid, sq)), 0.0)))


def trilinear(v: VelocityField, a: VelocityField, b: VelocityField) -> float:
    """Quadrature of (v . grad) a . b over the annulus."""
    conv = advect(v, a)
    prod = conv.u_r.values * b.u_r.values + conv.u_theta.values * b.u_theta.values
    return integrate(v.grid, ScalarField(v.grid, prod))


# -- stream function ---------------------------------------------------------------


def stream_function(w: VelocityField, flux_tol: float = 1e-10,
                    div_tol: float = 1e-8) -> ScalarField:
    """Single-valued stream function of a solenoidal zero-flux field.

    Mode k != 0 follows algebraically from u_r (psi_k = r u_{r,k} / (i k));
    the angular mean is the radial antiderivative of -u_theta.  The result
    is normalized to psi = 0 at the node (r_inner, theta=0).

    Raises
    ------
    ValueError
        If the field carries net flux (the stream function would be
        multivalued) or its divergence residual exceeds ``div_tol``.
    """
    g = w.grid
    flux = flux_inner(w)
    if abs(flux) > flux_tol:
        raise ValueError(
            "multivalued stream function; subtract flux carrier first "
            f"(flux through inner boundary = {flux:.3e})"
        )
    div_res = l2_norm(divergence(w))
    if div_res > div_tol:
        raise ValueError(f"field is not solenoidal (divergence L2 = {div_res:.3e})")

    coef = g.to_modes(w.u_r.values) * g.r[:, None]
    k = g.wavenumbers.astype(float)
    psi_modes = np.zeros_like(coef)
    psi_modes[:, 1:] = coef[:, 1:] / (1j * k[1:])
    if g.n_theta > 2:
        psi_modes[:, -1] = 0.0  # Nyquist carries no consistent derivative
    psi = g.from_modes(psi_modes)
    mean_ut = g.angular_mean(w.u_theta.values)
    psi += g.radial_antiderivative(-mean_ut)[:, None]
    psi -= psi[-1, 0]
    return ScalarField(g, psi)


# -- CSV persistence ---------------------------------------------------------------

_FMT = "%.17g"


def write_velocity_csv(path, u: VelocityField) -> None:
    """Nodal dump with columns r,theta,u_r,u_theta; radial index is the slow one."""
    _write_nodal_csv(path, u.grid, ("r", "theta", "u_r", "u_theta"),
                     (u.u_r.values, u.u_theta.values))


def write_scalar_csv(path, f: ScalarField) -> None:
    """Nodal dump with columns r,theta,value; radial index is the slow one."""
    _write_nodal_csv(path, f.grid, ("r", "theta", "value"), (f.values,))


def _write_nodal_csv(path, grid: PolarGrid, header, columns) -> None:
    """Write ``columns`` node by node in ``%.17g``, with CRLF line ends.

    One ``%`` call fills a ring's row template; the file is written ring by
    ring, so no more than one ring of text is held at a time.
    """
    placeholders = ",".join([_FMT] * len(columns))
    rows = [f",{_FMT % theta},{placeholders}\r\n" for theta in grid.theta]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i, r in enumerate(grid.r):
            r_text = _FMT % r
            template = "".join([r_text + row for row in rows])
            ring = np.stack([column[i] for column in columns], axis=-1)
            fh.write(template % tuple(ring.ravel().tolist()))


def read_velocity_csv(path) -> VelocityField:
    """Rebuild a velocity field (and its grid) from :func:`write_velocity_csv` output.

    The node pattern must match a Chebyshev/Fourier grid; this is checked
    against a freshly built grid to 1e-12.
    """
    from .grid import build_grid  # local import to keep module load light

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != ["r", "theta", "u_r", "u_theta"]:
            raise ValueError(f"unexpected CSV header {header!r}")
        rows = [[float(tok) for tok in row] for row in reader if row]
    data = np.asarray(rows)
    if data.ndim != 2 or data.shape[1] != 4:
        raise ValueError("malformed velocity CSV")
    r_vals = np.unique(data[:, 0])
    th_vals = np.unique(data[:, 1])
    n_r, n_theta = len(r_vals), len(th_vals)
    if n_r * n_theta != data.shape[0]:
        raise ValueError("CSV does not contain a full tensor grid")
    grid = build_grid(n_r, n_theta, r_vals[0], r_vals[-1])
    scale = max(abs(grid.r_outer), 1.0)
    if np.max(np.abs(np.sort(grid.r) - r_vals)) > 1e-12 * scale:
        raise ValueError("radial nodes are not Chebyshev-Gauss-Lobatto points")
    if np.max(np.abs(np.sort(grid.theta) - th_vals)) > 1e-12:
        raise ValueError("angular nodes are not equispaced on [0, 2*pi)")
    # rows were written radially outer-first in the grid's own ordering
    u_r = data[:, 2].reshape(n_r, n_theta)
    u_t = data[:, 3].reshape(n_r, n_theta)
    r_col = data[:, 0].reshape(n_r, n_theta)[:, 0]
    if not np.allclose(r_col, grid.r, rtol=0, atol=1e-12 * scale):
        # accept dumps written with increasing radius by flipping
        if np.allclose(r_col[::-1], grid.r, rtol=0, atol=1e-12 * scale):
            u_r, u_t = u_r[::-1], u_t[::-1]
        else:
            raise ValueError("radial ordering of the CSV is inconsistent")
    return VelocityField.from_arrays(grid, u_r, u_t)
