"""Linear spectral solvers: the auxiliary Stokes problem and Poisson problems.

Everything here reduces to independent boundary-value problems in r, one per
angular Fourier mode: dense collocation matrices with boundary rows replaced.
The grid assembles each family as one stack of per-mode blocks and holds its
LU factors; a solve builds the stack of modal right-hand sides and applies
the factors with one ``solve_blocks`` call, which factors a block the first
time a right-hand side reaches its mode and skips modes whose right-hand side
is exactly zero.  An axisymmetric datum whose modes k >= 1 come out of the
FFT exactly zero thus factors and solves mode 0 only.

The Stokes problem is solved in stream-function form.  Writing the velocity
as flux carrier plus curl(psi), psi is biharmonic; per mode this is the
coupled second-order pair

    Lap_k psi + omega = 0,        Lap_k omega = rhs_k,

with clamped data (psi and d psi/d r) on both circles.  The splitting keeps
the collocation matrices at second-order conditioning.  Mode 0 needs care in
the multiply connected annulus: prescribing the stream-function constant on
both circles would generally excite the r^2 log(r) branch whose vorticity
is not single valued, i.e. the pressure would be multivalued.  Instead the
mode-0 system prescribes only the two slopes, pins psi at the inner circle
(pure gauge), and replaces the outer value row by the single-valued-pressure
side condition

    d omega / d r (r_outer) = (lambda/nu) * mean_theta[(u.grad u)_theta](r_outer),

which for the Stokes problem (zero right-hand side) is exactly the removal
of the log branch of the vorticity.  The outer stream constant then comes
out of the solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryTrace, boundary_stream_data, flux_carrier
from .fields import (
    ScalarField,
    VelocityField,
    advect,
    curl,
    curl_of_stream,
    dirichlet_norm,
    divergence,
    gradient,
    l2_norm,
    vector_laplacian,
    velocity_l2_norm,
)
from .grid import PolarGrid, integrate, solve_blocks

@dataclass(frozen=True)
class StreamBC:
    """Clamped nodal boundary data for the stream function."""

    psi_outer: np.ndarray
    dpsi_outer: np.ndarray
    psi_inner: np.ndarray
    dpsi_inner: np.ndarray

    @classmethod
    def from_trace(cls, grid: PolarGrid, trace: BoundaryTrace) -> "StreamBC":
        psi_o, dpsi_o, psi_i, dpsi_i = boundary_stream_data(grid, trace)
        return cls(psi_o, dpsi_o, psi_i, dpsi_i)

    def stokes_rhs(self, grid: PolarGrid) -> np.ndarray:
        """Stokes right-hand side for :func:`solve_stream_system`: these data, zero elsewhere."""
        rhs = np.zeros((2, grid.n_r, grid.n_modes), dtype=complex)
        rhs[0, 0] = np.fft.rfft(self.dpsi_outer)
        rhs[0, -1] = np.fft.rfft(self.dpsi_inner)
        rhs[1, 0] = np.fft.rfft(self.psi_outer)
        rhs[1, 0, 0] = 0.0  # mode 0 of the outer value row is the side condition
        rhs[1, -1] = np.fft.rfft(self.psi_inner)
        return rhs


def solve_stream_system(grid: PolarGrid, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the per-mode clamped biharmonic pair for nodal (psi, omega).

    ``rhs`` holds rfft coefficients in the row layout of ``grid.stream_blocks``,
    shape (2, n_r, n_modes): rhs[0] the slopes on the circles (rows 0, -1)
    and the Lap(psi) + omega rows inside, rhs[1] the Lap(omega) rows inside
    and the values on the circles, with mode 0 of the outer value row the
    side-condition datum d omega/dr(r_outer) times n_theta.  Raises
    ValueError if ``rhs`` is not finite.
    """
    n = grid.n_r
    coef = _solve_modal(grid.stream_lu, rhs.reshape(2 * n, grid.n_modes))
    return grid.from_modes(coef[:n]), grid.from_modes(coef[n:])


# -- Stokes problem -----------------------------------------------------------------


@dataclass(frozen=True)
class StokesSolution:
    """Solution of the auxiliary Stokes problem with the given boundary datum."""

    velocity: VelocityField
    pressure: ScalarField
    trace_error: float
    norm_ratio: float


def stokes_solve(grid: PolarGrid, trace: BoundaryTrace, nu: float = 1.0) -> StokesSolution:
    """Velocity of the Stokes problem attaining ``trace``, with its pressure.

    The velocity is viscosity independent (pure Dirichlet data); ``nu``
    only scales the pressure.  The reported ``norm_ratio`` is the empirical
    stand-in for the nonconstructive Stokes bound: W^{1,2} norm of the
    solution over the trace-norm proxy.
    """
    bc = StreamBC.from_trace(grid, trace)
    psi, _ = solve_stream_system(grid, bc.stokes_rhs(grid))
    velocity = flux_carrier(grid, trace.flux) + curl_of_stream(ScalarField(grid, psi))
    pressure = pressure_from_momentum(grid, velocity, lam=0.0, nu=nu)
    theta = grid.theta
    trace_error = max(
        float(np.max(np.abs(velocity.u_r.values[0] - trace.radial_values("outer", theta)))),
        float(np.max(np.abs(velocity.u_theta.values[0] - trace.angular_values("outer", theta)))),
        float(np.max(np.abs(velocity.u_r.values[-1] - trace.radial_values("inner", theta)))),
        float(np.max(np.abs(velocity.u_theta.values[-1] - trace.angular_values("inner", theta)))),
    )
    w12 = float(np.sqrt(velocity_l2_norm(velocity) ** 2 + dirichlet_norm(velocity) ** 2))
    proxy = trace.trace_norm_proxy()
    ratio = w12 / proxy if proxy > 0 else 0.0
    return StokesSolution(velocity=velocity, pressure=pressure,
                          trace_error=trace_error, norm_ratio=ratio)


# -- Poisson solvers ----------------------------------------------------------------


def _solve_modal(factors, rhs_modes: np.ndarray) -> np.ndarray:
    """Modal coefficients (rows, n_modes) solving each mode's factored system.

    The result is C-contiguous: ``from_modes`` rounds differently on a
    transposed view.

    Raises
    ------
    ValueError
        If the right-hand side is not finite.
    """
    rhs = np.stack([rhs_modes.real.T, rhs_modes.imag.T], axis=-1)
    if not np.all(np.isfinite(rhs)):
        raise ValueError("modal right-hand side contains infs or NaNs")
    sol = solve_blocks(factors, rhs)
    return np.ascontiguousarray((sol[..., 0] + 1j * sol[..., 1]).T)


def pressure_poisson(grid: PolarGrid, w: VelocityField, p1: float, p2: float,
                     div_tol: float = 1e-8) -> ScalarField:
    """Solve -Lap p = div[(w.grad) w] with p = p1 on Gamma_1, p = p2 on Gamma_2.

    Solved directly per angular mode with collocated Dirichlet rows, so the
    boundary values are reproduced exactly at the boundary nodes.
    """
    div_res = l2_norm(divergence(w))
    if div_res > div_tol:
        raise ValueError(f"w is not solenoidal (divergence L2 = {div_res:.3e})")
    forcing = divergence(advect(w, w))
    rhs_modes = grid.to_modes(-forcing.values)
    rhs_modes[0, :] = 0.0
    rhs_modes[-1, :] = 0.0
    rhs_modes[0, 0] = p1 * grid.n_theta
    rhs_modes[-1, 0] = p2 * grid.n_theta
    values = grid.from_modes(_solve_modal(grid.dirichlet_lu, rhs_modes))
    return ScalarField(grid, values)


def pressure_from_momentum(grid: PolarGrid, u: VelocityField, lam: float, nu: float,
                           full_output: bool = False):
    """Least-squares pressure for the momentum balance of ``u``.

    Minimizes the L2 mismatch between grad(p) and the momentum gradient
    field G = nu Lap(u) - lam (u.grad)u, i.e. solves the Neumann problem
    Lap p = div G with dp/dn = G.n, then removes the mean.  With
    ``full_output`` also returns a dict with the curl residual of G (zero
    for an exact solution; a large value flags that u solves nothing) and
    the L2 gradient mismatch.
    """
    lap_u = vector_laplacian(u)
    conv = advect(u, u)
    g_r = nu * lap_u.u_r.values - lam * conv.u_r.values
    g_t = nu * lap_u.u_theta.values - lam * conv.u_theta.values
    g_field = VelocityField.from_arrays(grid, g_r, g_t)
    rhs_modes = grid.to_modes(divergence(g_field).values)
    g_r_modes = grid.to_modes(g_r)
    rhs_modes[0, :] = g_r_modes[0, :]
    rhs_modes[-1, :] = g_r_modes[-1, :]
    rhs_modes[grid.n_r // 2, 0] = 0.0
    values = grid.from_modes(_solve_modal(grid.neumann_lu, rhs_modes))
    values = values - integrate(grid, values) / grid.area
    pressure = ScalarField(grid, values)
    if not full_output:
        return pressure
    grad_p = gradient(pressure)
    mismatch = velocity_l2_norm(grad_p - g_field)
    info = {
        "curl_residual": l2_norm(curl(g_field)),
        "gradient_mismatch": mismatch,
    }
    return pressure, info
