"""Nonlinear solver: Picard and Newton iteration, homotopy, and continuation.

The discrete problem is posed for the stream function of the zero-flux part
of the velocity, u = u_F + curl(psi), with clamped boundary data fixed by the
zero-flux remainder of the boundary datum.  Taking the curl of the momentum
equation with the nonlinearity scaled by the homotopy parameter,

    -nu Lap(u) + lambda (u.grad)u + grad(p) = 0,

gives the vorticity transport equation nu Lap(omega) = lambda (u.grad)omega
with omega = -Lap(psi), plus one scalar side condition enforcing a
single-valued pressure around the hole (see the stokes module).  lambda = 1
is the physical problem and lambda = 0 the Stokes problem, so the family
interpolates exactly the way the continuation argument sets it up.

Both iterations solve one discrete problem, the residual F in the modal
layout of the per-mode systems.  A Picard step solves the prefactored stream
blocks, the Jacobian at lambda = 0, for -F: the biharmonic problem per
angular mode with the whole convective term frozen at the current iterate
(linear convergence).  A Newton step differentiates both convection slots.
At lambda = 0 the problem is the linear Stokes problem, and a solve returns
the Stokes state after 0 iterations.  Every Newton step is Jacobian-free
Newton-Krylov (Knoll & Keyes, J. Comput. Phys. 193, 2004): GMRES on the
analytic Jacobian-vector product, built from the residual's own FFT and
radial operators, right-preconditioned by the per-mode Jacobian about the
angular mean, assembled once per step.  Each of its blocks is factored at
most once per step, when a solve first reaches that mode: about a
rotationally symmetric state the preconditioner is the exact Jacobian, every
mode k >= 1 of the residual is exactly zero, so only the mode-0 block is
factored, and GMRES takes no iterations.
GMRES runs to a relative 1e-10, floored at the residual's rounding level; a
miss within KRYLOV_MAX_ITER iterations counts as a singular Jacobian.
Memory is n_modes blocks of (2 n_r)^2 plus KRYLOV_MAX_ITER + 1 Krylov
vectors.

Convergence is measured by the Dirichlet norm of the velocity update
relative to max(1, J): for Picard this is the fixed-point defect, for
Newton the step norm; both floor at the rounding level of the direct
solves.  A non-finite or blown-up step ends the iteration unconverged at the
last finite iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .boundary import BoundaryTrace, flux_carrier, pure_flux_trace
from .diagnostics import DiagnosticsRecord, boundary_pressures, diagnostics_for_solution
from .fields import (
    ScalarField,
    VelocityField,
    curl,
    curl_of_stream,
    dirichlet_norm,
    flux_inner,
    grad_inner,
    scalar_laplacian,
    stream_function,
    trilinear,
)
from .grid import BlockFactors, PolarGrid, factor_blocks, integrate, solve_blocks
from .stokes import StreamBC, pressure_from_momentum, solve_stream_system
from .testspace import divergence_free_test_fields

# GMRES target of a Newton-Krylov step, relative to the Newton residual
KRYLOV_RTOL = 1e-10
# hard cap on the GMRES iterations of one Newton-Krylov step; nu = 1 data
# needs 2-6, Couette(5, 0) plus k = 2 normal data at nu = 0.002 up to 86
KRYLOV_MAX_ITER = 100
# a step this many times larger than max(1, max|psi|) counts as divergence
BLOWUP_FACTOR = 1e6


class NewtonSingularError(RuntimeError):
    """Raised when the Newton Jacobian is singular (candidate bifurcation datum)."""

    def __init__(self, lam: float, flux: float):
        super().__init__(f"singular Newton Jacobian at lambda = {lam}, flux = {flux}")
        self.lam = lam
        self.flux = flux


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the nonlinear solve.

    ``lam`` is the homotopy parameter in [0, 1] multiplying the convective
    terms; ``tol`` bounds the relative Dirichlet norm of the last update;
    ``damping`` relaxes the update (1 = undamped).
    """

    nu: float = 1.0
    lam: float = 1.0
    method: str = "newton"
    tol: float = 1e-10
    max_iter: int = 200
    damping: float = 1.0

    def __post_init__(self) -> None:
        if self.nu <= 0:
            raise ValueError("viscosity must be positive")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("homotopy parameter must lie in [0, 1]")
        if self.method not in ("picard", "newton"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not 0.0 < self.damping <= 1.0:
            raise ValueError("damping must lie in (0, 1]")


@dataclass(frozen=True)
class SolveReport:
    """Converged (or final) state of a nonlinear solve with its diagnostics.

    ``steps`` records each iteration's ``kind``: ``krylov`` (with
    ``gmres_iterations``, 0 about a rotationally symmetric state),
    ``picard`` or ``picard-fallback``.  ``psi`` and
    ``omega`` are the solver's final iterate, read only: the stream function
    of the zero-flux part (``u = flux_carrier + curl(psi)``) and its
    vorticity.  ``(psi.values, omega.values)`` is a warm start for
    :func:`solve`; ``to_dict`` leaves both out.
    """

    u: VelocityField
    w: VelocityField
    p: ScalarField
    J: float
    flux: float
    lam: float
    nu: float
    iterations: int
    converged: bool
    residual_history: list[float]
    steps: list[dict]
    diagnostics: DiagnosticsRecord
    boundary_pressure_deviation: float
    pressure_info: dict
    method: str
    psi: ScalarField
    omega: ScalarField

    def to_dict(self) -> dict:
        return {
            "J": self.J,
            "flux": self.flux,
            "lambda": self.lam,
            "nu": self.nu,
            "iterations": self.iterations,
            "converged": self.converged,
            "method": self.method,
            "residual_history": list(self.residual_history),
            "steps": [dict(step) for step in self.steps],
            "boundary_pressure_deviation": self.boundary_pressure_deviation,
            "pressure_info": dict(self.pressure_info),
            "diagnostics": self.diagnostics.to_dict(),
        }


@dataclass(frozen=True)
class SweepPoint:
    value: float
    J: float
    converged: bool
    iterations: int


@dataclass(frozen=True)
class ContinuationTrace:
    """Outcome of a parameter sweep; point values are strictly monotone."""

    parameter: str
    points: list[SweepPoint] = field(default_factory=list)

    def all_converged(self) -> bool:
        return all(pt.converged for pt in self.points)

    def first_failure(self) -> float | None:
        for pt in self.points:
            if not pt.converged:
                return pt.value
        return None


# -- internal problem ---------------------------------------------------------------


class _Problem:
    """Frozen boundary data and operators for one nonlinear solve."""

    def __init__(self, grid: PolarGrid, cfg: SolverConfig, flux: float, bc: StreamBC):
        self.grid = grid
        self.cfg = cfg
        self.flux = flux
        self.bc = bc
        self.carrier = flux_carrier(grid, flux)
        self.ratio = cfg.lam / cfg.nu

    @classmethod
    def from_trace(cls, grid: PolarGrid, trace: BoundaryTrace, cfg: SolverConfig) -> "_Problem":
        return cls(grid, cfg, trace.flux, StreamBC.from_trace(grid, trace))

    def velocity(self, psi: np.ndarray) -> VelocityField:
        g = self.grid
        u_r = self.carrier.u_r.values + g.diff_theta(psi) / g.rr
        u_t = -g.diff_r(psi)
        return VelocityField.from_arrays(g, u_r, u_t)

    def convection_of_vorticity(self, u: VelocityField, omega: np.ndarray) -> np.ndarray:
        g = self.grid
        return (u.u_r.values * g.diff_r(omega)
                + u.u_theta.values * g.diff_theta(omega) / g.rr)

    def swirl_momentum(self, v: VelocityField, w: VelocityField) -> np.ndarray:
        """Nodal theta component of (v.grad)w; (u.grad)u enters the pressure side condition."""
        g = self.grid
        vr, vt = v.u_r.values, v.u_theta.values
        wr, wt = w.u_r.values, w.u_theta.values
        return vr * g.diff_r(wt) + vt * g.diff_theta(wt) / g.rr + vt * wr / g.rr

    def stokes_state(self) -> tuple[np.ndarray, np.ndarray]:
        return solve_stream_system(self.grid, self.bc.stokes_rhs(self.grid))

    def update_norm(self, dpsi: np.ndarray) -> float:
        return dirichlet_norm(curl_of_stream(ScalarField(self.grid, dpsi)))

    # -- residual and steps ---------------------------------------------------

    def residual(self, psi: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, VelocityField]:
        """Newton residual F in the modal layout, with the velocity of psi.

        F holds rfft coefficients, shape (2, n_r, n_modes): F[0] is Lap(psi) +
        omega inside and the slopes on the circles (rows 0, -1), F[1] the
        vorticity transport inside and the values on the circles.  The outer
        stream constant is free, so mode 0 of the outer value row holds
        n_theta times the single-valued-pressure side condition instead.
        """
        g, bc = self.grid, self.bc
        u = self.velocity(psi)
        rows = np.empty((2, g.n_r, g.n_theta))
        rows[0] = _laplacian(g, psi) + omega
        rows[1] = _laplacian(g, omega) - self.ratio * self.convection_of_vorticity(u, omega)
        dpsi = g.diff_r(psi)
        rows[0, 0] = dpsi[0, :] - bc.dpsi_outer
        rows[0, -1] = dpsi[-1, :] - bc.dpsi_inner
        value_outer = psi[0, :] - bc.psi_outer
        rows[1, 0] = value_outer - value_outer.mean()
        rows[1, -1] = psi[-1, :] - bc.psi_inner
        side = float(g.diff_r(omega)[0, :].mean()
                     - self.ratio * self.swirl_momentum(u, u)[0, :].mean())
        return self._modal(rows, side), u

    def picard_update(self, psi: np.ndarray, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Picard step (dpsi, domega): -F solved with the stream blocks, the lambda = 0 Jacobian.

        psi + dpsi solves the Stokes-type problem with the convective terms
        frozen at (psi, omega).  Raises ValueError on a non-finite residual.
        """
        return solve_stream_system(self.grid, -self.residual(psi, omega)[0])

    def jacobian(self, u: VelocityField, omega: np.ndarray, step: np.ndarray) -> np.ndarray:
        """J @ step at (u, omega), matrix free; ``step`` stacks nodal (dpsi, domega)."""
        g = self.grid
        dpsi, domega = step
        du = curl_of_stream(ScalarField(g, dpsi))
        rows = np.empty_like(step)
        rows[0] = _laplacian(g, dpsi) + domega
        rows[1] = _laplacian(g, domega) - self.ratio * (
            self.convection_of_vorticity(du, omega) + self.convection_of_vorticity(u, domega))
        slope = g.diff_r(dpsi)
        rows[0, 0] = slope[0, :]
        rows[0, -1] = slope[-1, :]
        rows[1, 0] = dpsi[0, :]
        rows[1, -1] = dpsi[-1, :]
        d_swirl = self.swirl_momentum(du, u) + self.swirl_momentum(u, du)
        side = float(g.diff_r(domega)[0, :].mean() - self.ratio * d_swirl[0, :].mean())
        return self._modal(rows, side)

    def _modal(self, rows: np.ndarray, side: float) -> np.ndarray:
        hat = self.grid.to_modes(rows)
        hat[1, 0, 0] = side * self.grid.n_theta  # rfft scaling of an angular mean
        return hat

    def modal_jacobian(self, u: VelocityField, omega: np.ndarray) -> np.ndarray:
        """Per-mode Newton blocks about the angular-mean state, (n_modes, 2 n_r, 2 n_r).

        The preconditioner of the Krylov solve, and the exact Jacobian about
        a rotationally symmetric state.  The stream blocks of the
        grid (the layout of :meth:`residual`: the rows of F[0], then those of
        F[1]) plus the linearized convection and side-condition terms.
        """
        g = self.grid
        n = g.n_r
        ur0 = u.u_r.values.mean(axis=1)
        ut0 = u.u_theta.values.mean(axis=1)
        domega0 = g.d_r @ omega.mean(axis=1)
        k = g.wavenumbers[:, None]
        inner = np.arange(1, n - 1)
        m = g.stream_blocks(complex)
        swirl_op = -(g.d_r + np.diag(1.0 / g.r)) @ g.d_r
        m[0, n, :n] = -self.ratio * ur0[0] * swirl_op[0]
        # linearized vorticity transport: ur0 d_r domega is real and the same
        # for every mode; ik ut0/r domega and ik omega0'/r dpsi are imaginary
        # diagonals, added in place without an (n_modes, n_r, n_r) temporary
        m[:, n + 1:2 * n - 1, n:] -= self.ratio * (np.diag(ur0) @ g.d_r)[inner]
        m.imag[:, n + inner, n + inner] -= self.ratio * (k * (ut0 / g.r)[inner])
        m.imag[:, n + inner, inner] += (-self.ratio * k) * (domega0 / g.r)[inner]
        return m

    def apply_modal(self, factors: BlockFactors, res: np.ndarray) -> np.ndarray:
        """Nodal (dpsi, domega) from the :meth:`modal_jacobian` factors and ``res``.

        Raises NewtonSingularError on a non-finite block factor or step.
        """
        g = self.grid
        try:
            sol = solve_blocks(factors, res.transpose(2, 0, 1).reshape(g.n_modes, 2 * g.n_r))
        except ValueError as exc:
            raise NewtonSingularError(self.cfg.lam, self.flux) from exc
        step = g.from_modes(sol.reshape(g.n_modes, 2, g.n_r).transpose(1, 2, 0))
        if not np.all(np.isfinite(step)):
            raise NewtonSingularError(self.cfg.lam, self.flux)
        return step

    def newton_update(self, psi: np.ndarray, omega: np.ndarray):
        """Newton step (dpsi, domega) and its record ``{"kind": "krylov", ...}``.

        The modal Jacobian P, assembled once, right-preconditions GMRES
        started from P^-1(-F); each block of P is factored when a solve
        first reaches its mode.  P is exact about a rotationally symmetric
        state, where only its mode-0 block is factored and GMRES takes 0
        iterations.  Raises NewtonSingularError on a singular block or a
        GMRES miss.
        """
        res, u = self.residual(psi, omega)
        factors = factor_blocks(self.modal_jacobian(u, omega))
        step = self.apply_modal(factors, -res)
        # F sums terms the size of omega and of Lap(omega): below eps times
        # their size it is rounding, so no tighter linear solve is useful
        terms = self.grid.to_modes(np.stack([omega, _laplacian(self.grid, omega)]))
        floor = np.finfo(float).eps * float(np.linalg.norm(terms))
        target = max(KRYLOV_RTOL * float(np.linalg.norm(res)), floor)
        rhs = -res - self.jacobian(u, omega, step)
        solved = _gmres(lambda v: self.jacobian(u, omega, self.apply_modal(factors, v)),
                        rhs, target, KRYLOV_MAX_ITER)
        if solved is None:
            raise NewtonSingularError(self.cfg.lam, self.flux)
        correction, count = solved
        if count:  # at 0 iterations the correction is zero
            step = step + self.apply_modal(factors, correction)
        return step[0], step[1], {"kind": "krylov", "gmres_iterations": count}


def _laplacian(grid: PolarGrid, values: np.ndarray) -> np.ndarray:
    return scalar_laplacian(ScalarField(grid, values)).values


def _gmres(apply: Callable, rhs: np.ndarray, target: float, max_iter: int):
    """Unrestarted GMRES from zero for apply(x) = rhs: (x, iterations), or None.

    Arnoldi with modified Gram-Schmidt under the real inner product, so
    ``apply`` need only be real-linear on complex arrays; the Hessenberg
    least-squares problem is re-solved until its residual is <= ``target``.
    A non-finite ``rhs`` is a miss.
    """
    beta = float(np.linalg.norm(rhs))
    if not np.isfinite(beta):
        return None
    if beta <= target:
        return np.zeros_like(rhs), 0
    basis = [rhs / beta]
    hess = np.zeros((max_iter + 1, max_iter))
    for j in range(max_iter):
        w = apply(basis[j])
        for i, v in enumerate(basis):
            hess[i, j] = np.vdot(v, w).real
            w = w - hess[i, j] * v
        hess[j + 1, j] = np.linalg.norm(w)
        e1 = np.r_[beta, np.zeros(j + 1)]
        h = hess[:j + 2, :j + 1]
        y = np.linalg.lstsq(h, e1, rcond=None)[0]
        if np.linalg.norm(h @ y - e1) <= target:
            return sum(c * v for c, v in zip(y, basis)), j + 1
        if not hess[j + 1, j] > 0.0:
            return None
        basis.append(w / hess[j + 1, j])
    return None


# -- iteration drivers --------------------------------------------------------------


class _Solution(NamedTuple):
    """A solve up to J, before its pressure and diagnostics."""

    u_stokes: VelocityField
    u: VelocityField
    w: VelocityField
    J: float
    psi: np.ndarray
    omega: np.ndarray
    history: list[float]
    steps: list[dict]
    converged: bool


def _iterate(grid: PolarGrid, trace: BoundaryTrace, cfg: SolverConfig,
             on_iterate: Callable | None = None,
             warm_start: tuple[np.ndarray, np.ndarray] | None = None) -> _Solution:
    """Run the configured iteration from the Stokes state or ``warm_start``; measure J.

    On a singular Newton Jacobian or a Krylov miss the step falls back to
    half a Picard step for that iteration, the documented robustness
    fallback near turning points.  A non-finite or blown-up step is not
    applied: the iteration stops, unconverged, at the last finite iterate.
    At lambda = 0 the Stokes state is returned, converged after 0
    iterations, and ``warm_start`` is ignored.
    """
    problem = _Problem.from_trace(grid, trace, cfg)
    psi_stokes, omega_stokes = problem.stokes_state()
    # lambda = 0 is the linear Stokes problem, which the Stokes state solves;
    # a step from it would move it by rounding, not by zero
    stokes = cfg.lam == 0.0
    psi0, omega0 = (psi_stokes, omega_stokes) if stokes or warm_start is None else warm_start
    psi, omega = psi0, omega0
    history: list[float] = []
    steps: list[dict] = []
    converged = stokes
    for _ in range(0 if stokes else cfg.max_iter):
        scale = max(1.0, problem.update_norm(psi - psi0))
        if cfg.method == "picard":
            dpsi, domega = problem.picard_update(psi, omega)
            step = {"kind": "picard"}
        else:
            try:
                dpsi, domega, step = problem.newton_update(psi, omega)
            except NewtonSingularError:
                dpsi, domega = problem.picard_update(psi, omega)
                dpsi, domega = 0.5 * dpsi, 0.5 * domega
                step = {"kind": "picard-fallback"}
        finite = np.all(np.isfinite(dpsi)) and np.all(np.isfinite(domega))
        if not finite or np.max(np.abs(dpsi)) >= BLOWUP_FACTOR * max(1.0, np.max(np.abs(psi))):
            break  # divergence: keep the last finite iterate
        defect = problem.update_norm(dpsi) / scale
        history.append(defect)
        steps.append(step)
        psi = psi + cfg.damping * dpsi
        omega = omega + cfg.damping * domega
        if on_iterate is not None:
            on_iterate(problem.velocity(psi))
        if defect < cfg.tol:
            converged = True
            break
    u_stokes = problem.velocity(psi_stokes)
    u = problem.velocity(psi)
    w = u - u_stokes
    return _Solution(u_stokes, u, w, dirichlet_norm(w), psi, omega, history, steps, converged)


def solve(grid: PolarGrid, trace: BoundaryTrace, cfg: SolverConfig,
          on_iterate: Callable | None = None,
          warm_start: tuple[np.ndarray, np.ndarray] | None = None) -> SolveReport:
    """Solve the steady problem for the datum ``trace`` at the configured lambda.

    Starts from w = 0 (the Stokes solution) unless a warm-start state is
    given; attaches the least-squares pressure and the diagnostics record.
    At lambda = 0 the Stokes state is the solution: the report holds it
    with J = 0, converged after 0 iterations, whatever the warm start.
    The prescribed flux is carried exactly at every iterate because the
    carrier never enters the iteration.
    """
    sol = _iterate(grid, trace, cfg, on_iterate, warm_start)
    u, psi = sol.u, sol.psi
    p, pinfo = pressure_from_momentum(grid, u, cfg.lam, cfg.nu, full_output=True)
    psi_zero_flux = ScalarField(grid, psi - psi[-1, 0])
    diag = diagnostics_for_solution(grid, u, p, cfg.lam, cfg.nu, sol.u_stokes, sol.w,
                                    psi=psi_zero_flux)
    return SolveReport(
        u=u, w=sol.w, p=p, J=sol.J, flux=trace.flux, lam=cfg.lam, nu=cfg.nu,
        iterations=len(sol.history), converged=sol.converged,
        residual_history=sol.history, steps=sol.steps, diagnostics=diag,
        boundary_pressure_deviation=boundary_pressures(p).deviation,
        pressure_info=pinfo, method=cfg.method,
        psi=ScalarField(grid, psi), omega=ScalarField(grid, sol.omega),
    )


# -- single-step operations ---------------------------------------------------------


def _state_from_fields(w_m: VelocityField, u_aux: VelocityField, cfg: SolverConfig,
                       trace_tol: float = 1e-8):
    """Reconstruct the (psi, omega) state and problem from (w_m, U)."""
    g = u_aux.grid
    bnd_scale = max(1.0, float(np.max(np.abs(w_m.u_r.values))),
                    float(np.max(np.abs(w_m.u_theta.values))))
    bnd = max(
        float(np.max(np.abs(w_m.u_r.values[[0, -1], :]))),
        float(np.max(np.abs(w_m.u_theta.values[[0, -1], :]))),
    )
    if bnd > trace_tol * bnd_scale:
        raise ValueError(f"w must have zero boundary trace (max boundary value {bnd:.3e})")
    flux = flux_inner(u_aux)
    carrier = flux_carrier(g, flux)
    psi_aux = stream_function(u_aux - carrier)
    psi_w = stream_function(w_m)
    psi = psi_aux.values + psi_w.values
    # first-derivative curl of the data is an order of magnitude less noisy
    # than -Lap(psi); the carrier is curl free
    omega = curl(w_m + u_aux).values
    dpsi = g.diff_r(psi)
    bc = StreamBC(psi_outer=psi[0, :], dpsi_outer=dpsi[0, :],
                  psi_inner=psi[-1, :], dpsi_inner=dpsi[-1, :])
    problem = _Problem(g, cfg, flux, bc)
    return problem, psi, omega


def picard_step(w_m: VelocityField, u_aux: VelocityField, cfg: SolverConfig) -> VelocityField:
    """One frozen-coefficient fixed-point step; returns the next zero-trace part.

    The stream-block solve of the Newton residual at w_m: the Stokes-type
    linear problem whose convective terms are evaluated at w_m.  At
    lambda = 0 the result is zero up to rounding.
    """
    problem, psi, omega = _state_from_fields(w_m, u_aux, cfg)
    dpsi, _ = problem.picard_update(psi, omega)
    return problem.velocity(psi + dpsi) - u_aux


def newton_step(w_m: VelocityField, u_aux: VelocityField, cfg: SolverConfig) -> VelocityField:
    """One full-linearization step; raises NewtonSingularError as newton_update does."""
    problem, psi, omega = _state_from_fields(w_m, u_aux, cfg)
    dpsi, _, _ = problem.newton_update(psi, omega)
    return problem.velocity(psi + dpsi) - u_aux


# -- continuation -------------------------------------------------------------------


def sweep(grid: PolarGrid, trace: BoundaryTrace, cfg: SolverConfig,
          parameter: str, values: Sequence[float]) -> ContinuationTrace:
    """Warm-started continuation in the homotopy parameter or in the flux.

    For a flux sweep the zero-flux remainder of the datum stays fixed and
    the carrier's flux takes the swept value, so the clamped stream data
    never changes.  Each point warm-starts from the previous converged
    point's solver state (the ``psi``, ``omega`` that :func:`solve` reports).
    A point records J, convergence and the iteration count only: the
    pressure and diagnostics of :func:`solve` are not computed.
    On a failed point one bisection level is attempted (solve the midpoint,
    then retry); if the point still fails it is recorded as diverged and
    the sweep continues from the last converged state.
    """
    values = [float(v) for v in values]
    if len(values) >= 2:
        diffs = np.diff(values)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise ValueError("sweep values must be strictly monotone")
    if parameter not in ("lambda", "flux"):
        raise ValueError(f"unknown sweep parameter {parameter!r}")

    remainder = trace.zero_flux_remainder()
    points: list[SweepPoint] = []
    warm: tuple[np.ndarray, np.ndarray] | None = None
    last_value: float | None = None

    def run(value: float, start) -> _Solution:
        if parameter == "lambda":
            return _iterate(grid, trace, replace(cfg, lam=value), warm_start=start)
        trace_v = remainder + pure_flux_trace(value, grid.r_inner, grid.r_outer)
        return _iterate(grid, trace_v, cfg, warm_start=start)

    for value in values:
        sol = run(value, warm)
        if not sol.converged and warm is not None and last_value is not None:
            midpoint = 0.5 * (last_value + value)
            mid = run(midpoint, warm)
            points.append(SweepPoint(midpoint, mid.J, mid.converged, len(mid.history)))
            if mid.converged:
                warm = (mid.psi, mid.omega)
                sol = run(value, warm)
        points.append(SweepPoint(value, sol.J, sol.converged, len(sol.history)))
        if sol.converged:
            warm = (sol.psi, sol.omega)
            last_value = value
    return ContinuationTrace(parameter=parameter, points=points)


# -- weak-form checks ---------------------------------------------------------------


def weak_residual(grid: PolarGrid, w: VelocityField, u_aux: VelocityField,
                  cfg: SolverConfig, n_radial: int = 4, n_angular: int = 3) -> float:
    """Worst normalized defect of the homotopy weak form over a test family.

    For each divergence-free zero-trace test field eta the quantity

        nu int grad(w):grad(eta) - lambda [ int ((w+U).grad)eta . w
            + int (w.grad)eta . U + int (U.grad)eta . U ]

    is evaluated by quadrature and normalized by the Dirichlet norm of eta.
    """
    worst = 0.0
    for eta in divergence_free_test_fields(grid, n_radial, n_angular):
        lhs = cfg.nu * integrate(grid, grad_inner(w, eta))
        rhs = cfg.lam * (
            trilinear(w + u_aux, eta, w)
            + trilinear(w, eta, u_aux)
            + trilinear(u_aux, eta, u_aux)
        )
        norm = dirichlet_norm(eta)
        if norm > 0:
            worst = max(worst, abs(lhs - rhs) / norm)
    return worst


def energy_cancellation(w: VelocityField, u_aux: VelocityField) -> float:
    """|int ((w+U).grad)w . w|, the cancellation that drives the energy bound."""
    return abs(trilinear(w + u_aux, w, w))
