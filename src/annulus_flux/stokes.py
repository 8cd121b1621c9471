"""Linear spectral solvers: the auxiliary Stokes problem and the pressure.

The Stokes solution is the solenoidal extension of the boundary datum, and
:func:`stokes_solve` returns its velocity.  Every Stokes state comes from
:meth:`StreamBC.stokes_state`; its pressure comes from
:func:`~annulus_flux.navier_stokes.solve` at lambda = 0.

Everything here reduces to independent boundary-value problems in r, one per
angular Fourier mode: dense collocation matrices with boundary rows replaced.
The grid holds each family as one lazy stack of per-mode blocks and their LU
factors; a solve builds its modal right-hand sides and hands them to the
grid's one modal solve, ``grid.solve_modes``, which assembles and factors a
block the first time a right-hand side reaches its mode and skips modes whose
right-hand side is exactly zero.  An axisymmetric datum whose modes k >= 1
come out of the FFT exactly zero thus assembles, factors and solves mode 0
only; the nonlinear solver builds its stream data and Stokes state on the
grid's two-column ring, where that holds at any n_theta.  The Stokes state depends only on the clamped stream data
(:class:`StreamBC`), which a continuation sweep holds fixed, so a sweep
solves it once for all its points.

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

from .boundary import BoundaryTrace, flux_carrier
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
from .grid import PolarGrid, integrate, solve_modes

@dataclass(frozen=True)
class StreamBC:
    """Clamped nodal boundary data for the stream function."""

    psi_outer: np.ndarray
    dpsi_outer: np.ndarray
    psi_inner: np.ndarray
    dpsi_inner: np.ndarray

    @classmethod
    def from_trace(cls, grid: PolarGrid, trace: BoundaryTrace) -> "StreamBC":
        """Data of the zero-flux remainder of ``trace``: single-valued psi, d psi/dr = -a_theta.

        Raises ValueError if the radii differ from the grid's or the grid
        cannot resolve the trace's harmonics.
        """
        if not np.allclose((grid.r_inner, grid.r_outer), (trace.r_inner, trace.r_outer)):
            raise ValueError("trace and grid radii differ")
        if trace.max_harmonic >= grid.n_theta // 2:
            raise ValueError(f"trace harmonic {trace.max_harmonic} is not resolved by "
                             f"n_theta={grid.n_theta}")
        rem, theta = trace.zero_flux_remainder(), grid.theta
        psi = {"outer": np.zeros_like(theta), "inner": np.zeros_like(theta)}
        for side, radius in (("outer", grid.r_outer), ("inner", grid.r_inner)):
            # d psi/d theta = r a_r, and a_r has no mean in the remainder; the
            # antiderivative of Re(a e^{ik th}) is Re(a e^{ik th} / (ik))
            for k, c in getattr(rem, f"normal_{side}").items():
                if k:
                    a = (c if side == "outer" else -c) / (1j * k)
                    psi[side] += radius * (a.real * np.cos(k * theta) - a.imag * np.sin(k * theta))
        return cls(psi["outer"], -rem.angular_values("outer", theta),
                   psi["inner"], -rem.angular_values("inner", theta))

    def stokes_rhs(self, grid: PolarGrid) -> np.ndarray:
        """Stokes right-hand side for :func:`solve_stream_system`: these data, zero elsewhere."""
        rhs = np.zeros((2, grid.n_r, grid.n_modes), dtype=complex)
        rhs[0, 0] = np.fft.rfft(self.dpsi_outer)
        rhs[0, -1] = np.fft.rfft(self.dpsi_inner)
        rhs[1, 0] = np.fft.rfft(self.psi_outer)
        rhs[1, 0, 0] = 0.0  # mode 0 of the outer value row is the side condition
        rhs[1, -1] = np.fft.rfft(self.psi_inner)
        return rhs

    def stokes_state(self, grid: PolarGrid) -> tuple[np.ndarray, np.ndarray]:
        """Nodal (psi, omega) of the Stokes problem with these clamped data."""
        return solve_stream_system(grid, self.stokes_rhs(grid))


def solve_stream_system(grid: PolarGrid, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the per-mode clamped biharmonic pair for nodal (psi, omega).

    ``rhs`` holds rfft coefficients in the row layout of ``grid.stream_blocks``,
    shape (2, n_r, n_modes): rhs[0] the slopes on the circles (rows 0, -1)
    and the Lap(psi) + omega rows inside, rhs[1] the Lap(omega) rows inside
    and the values on the circles, with mode 0 of the outer value row the
    side-condition datum d omega/dr(r_outer) times n_theta.  Raises
    ValueError if ``rhs`` is not finite.
    """
    coef = solve_modes(grid.stream_lu, rhs)
    return grid.from_modes(coef[0]), grid.from_modes(coef[1])


# -- Stokes problem -----------------------------------------------------------------


@dataclass(frozen=True)
class StokesSolution:
    """Solution of the auxiliary Stokes problem with the given boundary datum."""

    velocity: VelocityField
    trace_error: float
    norm_ratio: float


def stokes_solve(grid: PolarGrid, trace: BoundaryTrace) -> StokesSolution:
    """Velocity of the Stokes problem attaining ``trace``: the extension of the datum.

    The velocity is viscosity independent (pure Dirichlet data).
    ``trace_error`` is the largest nodal defect of the velocity on the two
    circles.  The reported ``norm_ratio`` is the empirical stand-in for the
    nonconstructive extension bound: W^{1,2} norm of the solution over the
    trace-norm proxy.
    """
    psi, _ = StreamBC.from_trace(grid, trace).stokes_state(grid)
    velocity = flux_carrier(grid, trace.flux) + curl_of_stream(ScalarField(grid, psi))
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
    return StokesSolution(velocity=velocity, trace_error=trace_error, norm_ratio=ratio)


# -- pressure -----------------------------------------------------------------------


def pressure_from_momentum(grid: PolarGrid, u: VelocityField, lam: float,
                           nu: float) -> tuple[ScalarField, dict]:
    """Least-squares pressure for the momentum balance of ``u``, with its fit.

    Minimizes the L2 mismatch between grad(p) and the momentum gradient
    field G = nu Lap(u) - lam (u.grad)u, i.e. solves the Neumann problem
    Lap p = div G with dp/dn = G.n, then removes the mean.  Returns the
    pressure and a dict with the curl residual of G (zero for an exact
    solution; a large value flags that u solves nothing) and the L2
    gradient mismatch.
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
    values = grid.from_modes(solve_modes(grid.neumann_lu, rhs_modes))
    values = values - integrate(grid, values) / grid.area
    pressure = ScalarField(grid, values)
    grad_p = gradient(pressure)
    mismatch = velocity_l2_norm(grad_p - g_field)
    info = {
        "curl_residual": l2_norm(curl(g_field)),
        "gradient_mismatch": mismatch,
    }
    return pressure, info
