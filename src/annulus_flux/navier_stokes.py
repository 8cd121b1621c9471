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
layout of the per-mode systems, with one Jacobian-free Newton-Krylov step
(Knoll & Keyes, J. Comput. Phys. 193, 2004): P^-1(-F) for per-mode blocks
P, then GMRES on the analytic Jacobian-vector product, built from the
residual's own FFT and radial operators, right-preconditioned by P.  Picard
takes the prefactored stream blocks, the Jacobian at lambda = 0, as P and no
GMRES iterations: the whole convective term is frozen at the current iterate
(linear convergence).  Newton differentiates both convection slots and takes
the per-mode Jacobian about the angular mean as P.  At lambda = 0 the problem
is the linear Stokes problem, and a solve returns the Stokes state, with the
Stokes pressure, after 0 iterations.  Each block of the Newton P is assembled
and factored at most once per step, when a solve first reaches that mode:
about a rotationally symmetric state the preconditioner is the exact
Jacobian, every mode k >= 1 of the residual is exactly zero, so only the
mode-0 block is built, and GMRES takes no iterations.  A datum with no
harmonic above 0 keeps every iterate from the Stokes state, or from a warm
start constant along theta, in that state, so ``solve`` and ``sweep`` run
the iteration on the grid's two-column ring (``PolarGrid.ring``), with the
same radial nodes, where the FFT leaves mode 1 exactly zero.  J, the
Dirichlet norm of w = u - u_Stokes, is that of curl(psi - psi_Stokes) on the
iteration's grid, so no velocity field is formed for it.
GMRES stops at a relative 1e-10, floored at the residual's rounding level, or
at KRYLOV_MAX_ITER iterations, and its least-squares iterate gives the step.
Memory is at most n_modes blocks of (2 n_r)^2 plus KRYLOV_MAX_ITER + 1
Krylov vectors.  Every iteration starts from the Stokes state of the clamped
stream data (``StreamBC.stokes_state``).  A continuation sweep holds those
data fixed, so it builds them and solves the Stokes state once and every
point shares them.

Convergence is measured after each applied step, first by the step defect,
the Dirichlet norm of the velocity update relative to max(1, D) (for Picard
the fixed-point defect, for Newton the step norm), then by the residual at
the new iterate: ||F|| <= 0.1 tol ||modes of (omega, Lap(omega))||, the
size of the terms F sums.  D is the Dirichlet norm of curl(psi - psi0), the
iterate's distance from the start iterate psi0: the Stokes state, where
D = J, or the warm start, which for every sweep point after the first is
the previous point's state.  The step defect floors at the rounding level of
the direct solves, which can lie above tol on fine grids at low viscosity;
the relative residual floors near 1e-12 there.  F is evaluated once per
iterate and feeds the next step, so a Newton solve ends on the step that
reached the solution, without a further step to confirm it.  A step that is
not finite (from a non-finite F or block factor, too) or reaches
max|psi| >= BLOWUP_FACTOR max(1, max|psi0|) ends either iteration
unconverged at the last iterate, which stops a geometric blow-up.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .boundary import BoundaryTrace, flux_carrier, pure_flux_trace
from .diagnostics import DiagnosticsRecord, boundary_pressures, diagnostics_for_solution
from .fields import (
    ScalarField,
    VelocityField,
    _convect,
    _gradient_frame,
    curl_of_stream,
    dirichlet_norm,
    scalar_laplacian,
    trilinear,
)
from .grid import BlockFactors, PolarGrid, solve_modes
from .stokes import StreamBC, pressure_from_momentum
from .testspace import ClampedFamily

# GMRES target of a Newton-Krylov step, relative to the Newton residual
KRYLOV_RTOL = 1e-10
# cost cap on the GMRES iterations of a Newton-Krylov step, whose iterate there
# is the step; nu = 1 data needs 2-6, late steps at nu <= 0.002 reach the cap
KRYLOV_MAX_ITER = 100
# an iterate this many times max(1, max|psi0|), psi0 the start, has diverged
BLOWUP_FACTOR = 1e6


class _SingularStepError(RuntimeError):
    """A non-finite right-hand side, block factor or step; ``_iterate`` ends the solve on it."""


@dataclass(frozen=True)
class SolverConfig:
    """Settings of the nonlinear solve.

    ``lam`` is the homotopy parameter in [0, 1] multiplying the convective
    terms; ``tol`` bounds the relative Dirichlet norm of the last update,
    and 0.1 ``tol`` the residual after it relative to the size of its terms
    (either ends the iteration).  Every step is applied undamped.
    """

    nu: float = 1.0
    lam: float = 1.0
    method: str = "newton"
    tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"viscosity must be finite and positive, got {self.nu}")
        if not 0.0 <= self.lam <= 1.0:
            raise ValueError("homotopy parameter must lie in [0, 1]")
        if self.method not in ("picard", "newton"):
            raise ValueError(f"unknown method {self.method!r}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tolerance must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class SolveReport:
    """Converged (or final) state of a nonlinear solve with its diagnostics.

    ``residual_history`` is the step defect of each iteration and
    ``residual_norms`` the relative residual ||F|| / ||modes of (omega,
    Lap(omega))|| of each iterate the iteration evaluated: the start, then
    every iterate after a step that the step defect did not certify.
    ``steps`` records each iteration's ``kind``: ``krylov`` for every
    Newton step (with ``gmres_iterations``, 0 about a rotationally symmetric
    state, at most the cap KRYLOV_MAX_ITER) or ``picard`` for every Picard
    step, the Krylov step with the grid's Stokes blocks and no GMRES
    iterations.  ``psi`` and ``omega`` are the solver's final iterate, read
    only: the stream function of the zero-flux part (``u = flux_carrier +
    curl(psi)``) and its vorticity.  ``(psi.values, omega.values)`` is a warm
    start for :func:`solve`; ``to_dict`` leaves both out.
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
    residual_norms: list[float]
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
            "residual_norms": list(self.residual_norms),
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
        self.bc = bc
        self.carrier = flux_carrier(grid, flux)
        self.ratio = cfg.lam / cfg.nu

    def velocity(self, psi: ScalarField) -> VelocityField:
        return self.carrier + curl_of_stream(psi)

    def update_norm(self, dpsi: np.ndarray) -> float:
        return dirichlet_norm(curl_of_stream(ScalarField(self.grid, dpsi)))

    # -- residual and steps ---------------------------------------------------

    def residual(self, psi: np.ndarray, omega: np.ndarray) -> _Residual:
        """Newton residual F in the modal layout, with the velocity of psi and its scale.

        F holds rfft coefficients, shape (2, n_r, n_modes): F[0] is Lap(psi) +
        omega inside and the slopes on the circles (rows 0, -1), F[1] the
        vorticity transport inside and the values on the circles.  The outer
        stream constant is free, so mode 0 of the outer value row holds
        n_theta times the single-valued-pressure side condition instead.
        psi and omega are wrapped once, so every term, and the Newton step
        from ``res.u`` and ``res.omega``, shares their derivatives.
        """
        g, bc = self.grid, self.bc
        psi_f, omega_f = ScalarField(g, psi), ScalarField(g, omega)
        u = self.velocity(psi_f)
        lap_omega = scalar_laplacian(omega_f).values
        rows = np.empty((2, g.n_r, g.n_theta))
        rows[0] = scalar_laplacian(psi_f).values + omega
        rows[1] = lap_omega - self.ratio * _convect(u, omega_f)
        dpsi = psi_f.d_r
        rows[0, 0] = dpsi[0, :] - bc.dpsi_outer
        rows[0, -1] = dpsi[-1, :] - bc.dpsi_inner
        value_outer = psi[0, :] - bc.psi_outer
        rows[1, 0] = value_outer - value_outer.mean()
        rows[1, -1] = psi[-1, :] - bc.psi_inner
        # the theta component of (u.grad)u enters the pressure side condition
        side = float(omega_f.d_r[0, :].mean()
                     - self.ratio * _convect(u, u.u_theta, u.u_r.values)[0, :].mean())
        modes = self._modal(rows, side)
        return _Residual(modes, u, omega_f, float(np.linalg.norm(modes)),
                         _modal_norm(omega, lap_omega))

    def jacobian(self, u: VelocityField, omega: ScalarField, step: np.ndarray) -> np.ndarray:
        """J @ step at (u, omega), matrix free; ``step`` stacks nodal (dpsi, domega).

        The derivatives of the state (u, omega) are read from its fields, so
        the products of one Newton step compute them once.
        """
        g = self.grid
        dpsi, domega = ScalarField(g, step[0]), ScalarField(g, step[1])
        du = curl_of_stream(dpsi)
        rows = np.empty_like(step)
        rows[0] = scalar_laplacian(dpsi).values + domega.values
        rows[1] = scalar_laplacian(domega).values - self.ratio * (
            _convect(du, omega) + _convect(u, domega))
        slope = dpsi.d_r
        rows[0, 0] = slope[0, :]
        rows[0, -1] = slope[-1, :]
        rows[1, 0] = dpsi.values[0, :]
        rows[1, -1] = dpsi.values[-1, :]
        d_swirl = _convect(du, u.u_theta, u.u_r.values) + _convect(u, du.u_theta, du.u_r.values)
        side = float(domega.d_r[0, :].mean() - self.ratio * d_swirl[0, :].mean())
        return self._modal(rows, side)

    def _modal(self, rows: np.ndarray, side: float) -> np.ndarray:
        hat = self.grid.to_modes(rows)
        hat[1, 0, 0] = side * self.grid.n_theta  # rfft scaling of an angular mean
        return hat

    def modal_jacobian(self, u: VelocityField, omega: np.ndarray,
                       modes: slice = slice(None),
                       out: np.ndarray | None = None) -> np.ndarray:
        """Per-mode Newton blocks about the angular-mean state, (n_modes, 2 n_r, 2 n_r).

        The preconditioner of the Krylov solve, and the exact Jacobian about
        a rotationally symmetric state.  The stream blocks of the
        grid (the layout of :meth:`residual`: the rows of F[0], then those of
        F[1]) plus the linearized convection and side-condition terms.
        Writes the blocks of the consecutive ``modes`` (default all) into
        ``out`` (default a fresh zero complex stack) and returns ``out``; with
        (u, omega) bound it is a :class:`BlockFactors` builder.
        """
        g = self.grid
        n = g.n_r
        ur0 = u.u_r.values.mean(axis=1)
        ut0 = u.u_theta.values.mean(axis=1)
        domega0 = g.d_r @ omega.mean(axis=1)
        k = g.wavenumbers[modes, None]
        inner = np.arange(1, n - 1)
        m = g.stream_blocks(modes, out, complex)
        if modes.indices(g.n_modes)[0] == 0:
            swirl_op = -(g.d_r + np.diag(1.0 / g.r)) @ g.d_r
            m[0, n, :n] = -self.ratio * ur0[0] * swirl_op[0]
        # linearized vorticity transport: ur0 d_r domega is real and the same
        # for every mode; ik ut0/r domega and ik omega0'/r dpsi are imaginary
        # diagonals, added in place without an (n_modes, n_r, n_r) temporary
        m[modes, n + 1:2 * n - 1, n:] -= self.ratio * (np.diag(ur0) @ g.d_r)[inner]
        m.imag[modes, n + inner, n + inner] -= self.ratio * (k * (ut0 / g.r)[inner])
        m.imag[modes, n + inner, inner] += (-self.ratio * k) * (domega0 / g.r)[inner]
        return m

    def modal_factors(self, res: _Residual) -> BlockFactors:
        """Lazy :class:`BlockFactors` of :meth:`modal_jacobian` about the iterate of ``res``."""
        g = self.grid
        return BlockFactors(functools.partial(self.modal_jacobian, res.u, res.omega.values),
                            g.n_modes, 2 * g.n_r, complex)

    def apply_modal(self, factors: BlockFactors, res: np.ndarray) -> np.ndarray:
        """Nodal (dpsi, domega) from per-mode block ``factors`` and ``res``.

        Raises _SingularStepError on a non-finite ``res``, block factor or step.
        """
        try:
            step = self.grid.from_modes(solve_modes(factors, res))
        except ValueError as exc:
            raise _SingularStepError from exc
        if not np.all(np.isfinite(step)):
            raise _SingularStepError
        return step

    def newton_update(self, res: _Residual, factors: BlockFactors, max_iter: int):
        """Step (dpsi, domega) from ``res``, preconditioned by ``factors``, and its record.

        ``res`` is :meth:`residual` at the iterate; its fields ``res.u`` and
        ``res.omega`` keep their derivatives for every Jacobian product of
        the step.  The step starts as P^-1(-F), P the blocks of ``factors``.
        With ``max_iter`` 0 that is the step, recorded ``{"kind": "picard"}``;
        with ``grid.stream_lu``, the Jacobian at lambda = 0, it is the Picard
        step.  Otherwise GMRES right-preconditioned by P corrects it, and its
        iterate at the target or after ``max_iter`` iterations gives the
        step, recorded ``{"kind": "krylov", "gmres_iterations": count}``.
        With :meth:`modal_factors`, P is exact about a rotationally symmetric
        state, where only its mode-0 block is built and GMRES takes 0
        iterations.
        Raises _SingularStepError on a non-finite ``res``, block factor or step.
        """
        step = self.apply_modal(factors, -res.modes)
        if not max_iter:
            return step[0], step[1], {"kind": "picard"}
        u, vorticity = res.u, res.omega
        # F sums terms the size of omega and of Lap(omega): below eps times
        # their size it is rounding, so no tighter linear solve is useful
        floor = np.finfo(float).eps * res.size
        target = max(KRYLOV_RTOL * res.norm, floor)
        rhs = -res.modes - self.jacobian(u, vorticity, step)
        if not np.all(np.isfinite(rhs)):  # J @ step overflowed: a non-finite step
            raise _SingularStepError
        correction, count = _gmres(
            lambda v: self.jacobian(u, vorticity, self.apply_modal(factors, v)),
            rhs, target, max_iter)
        if count:  # at 0 iterations the correction is zero
            step = step + self.apply_modal(factors, correction)
        return step[0], step[1], {"kind": "krylov", "gmres_iterations": count}


class _Residual(NamedTuple):
    """F at one iterate (:meth:`_Problem.residual`) with what its consumers read.

    ``u`` and ``omega`` are the iterate's velocity and vorticity fields, with
    their cached derivatives.  ``norm`` is ||F||; ``size`` is ||modes of
    (omega, Lap(omega))||, the size of the terms F sums, so F below
    eps * size is rounding.
    """

    modes: np.ndarray
    u: VelocityField
    omega: ScalarField
    norm: float
    size: float

    @property
    def relative(self) -> float:
        """||F|| / size; 0 for F = 0 about omega = 0, where the size is 0 too."""
        if self.size > 0.0:
            return self.norm / self.size
        return 0.0 if self.norm == 0.0 else float("inf")


def _modal_norm(*arrays: np.ndarray) -> float:
    """||rfft|| of nodal arrays along their last (even-length) axis, by Parseval.

    The rfft keeps one of each conjugate pair k, n - k, so it holds the whole
    spectrum's energy n sum(x^2) once for mode 0 and mode n/2, the plain and
    the alternating sum of a row, and half of it for the rest.  Two BLAS
    products replace the FFT.
    """
    energy = 0.0
    for values in arrays:
        n = values.shape[-1]
        signs = np.ones((n, 2))
        signs[1::2, 1] = -1.0
        sums = values.reshape(-1, n) @ signs
        energy += n * np.vdot(values, values) + np.vdot(sums, sums)
    return float(np.sqrt(0.5 * energy))


def _gmres(apply: Callable, rhs: np.ndarray, target: float, max_iter: int):
    """Unrestarted GMRES from zero for apply(x) = rhs: (x, iterations).

    Arnoldi with modified Gram-Schmidt under the real inner product, so
    ``apply`` need only be real-linear on complex arrays; the Hessenberg
    least-squares problem is re-solved until its residual is <= ``target``,
    the basis breaks down or ``max_iter`` iterations are spent, and x is its
    least-squares iterate then.  ``rhs`` must be finite.
    """
    beta = float(np.linalg.norm(rhs))
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
        if np.linalg.norm(h @ y - e1) <= target or not hess[j + 1, j] > 0.0:
            break
        basis.append(w / hess[j + 1, j])
    return sum(c * v for c, v in zip(y, basis)), j + 1


# -- iteration drivers --------------------------------------------------------------


class _Solution(NamedTuple):
    """A solve's final stream functions and J, before its velocity, pressure and diagnostics."""

    J: float
    psi: np.ndarray
    omega: np.ndarray
    history: list[float]
    residual_norms: list[float]
    steps: list[dict]
    converged: bool


def _iterate(problem: _Problem, stokes_state: tuple[np.ndarray, np.ndarray],
             warm_start: tuple[np.ndarray, np.ndarray] | None) -> _Solution:
    """Run the configured iteration from the Stokes state or ``warm_start``; measure J.

    ``stokes_state`` is ``problem.bc.stokes_state(problem.grid)``, which
    depends only on the clamped stream data, so a sweep solves it once for
    all its points.
    F is evaluated once per iterate and feeds the step from it.  After a
    step is applied the iteration has converged when the step defect is
    below ``tol`` or, failing that, when ||F|| at the new iterate is at most
    0.1 tol times the size of the terms F sums.
    Every iteration is one :meth:`_Problem.newton_update` step: a ``krylov``
    step for Newton, a ``picard`` step for Picard.  A non-finite or
    blown-up step (module docstring) is not applied: the iteration stops,
    unconverged, at the last iterate.  J is the Dirichlet norm of
    curl(psi - psi_stokes).  At lambda = 0 the Stokes state is returned,
    converged after 0 iterations with J = 0, and ``warm_start`` is ignored.
    """
    grid, cfg = problem.grid, problem.cfg
    psi_stokes, omega_stokes = stokes_state
    # lambda = 0 is the linear Stokes problem, which the Stokes state solves;
    # a step from it would move it by rounding, not by zero
    stokes = cfg.lam == 0.0
    picard = cfg.method == "picard"
    psi0, omega0 = (psi_stokes, omega_stokes) if stokes or warm_start is None else warm_start
    psi, omega = psi0, omega0
    blowup = BLOWUP_FACTOR * max(1.0, np.max(np.abs(psi0)))
    history: list[float] = []
    residual_norms: list[float] = []
    steps: list[dict] = []
    converged = stokes
    if not stokes:
        res = problem.residual(psi, omega)
        residual_norms.append(res.relative)
    for _ in range(0 if stokes else cfg.max_iter):
        # the first step starts at psi0, where the update norm is exactly 0
        scale = 1.0 if psi is psi0 else max(1.0, problem.update_norm(psi - psi0))
        # Picard preconditions with the stream blocks, the Jacobian at lambda = 0,
        # and takes no GMRES iterations.  No local holds Newton's blocks, so
        # they are freed with the step, not kept through the next residual
        try:
            dpsi, domega, step = problem.newton_update(
                res, grid.stream_lu if picard else problem.modal_factors(res),
                0 if picard else KRYLOV_MAX_ITER)
        except _SingularStepError:
            break  # a non-finite factor or step: keep the last finite iterate
        psi_next = psi + dpsi
        # NaN fails the comparison: a non-finite step stops here too
        if not (np.max(np.abs(psi_next)) < blowup and np.all(np.isfinite(domega))):
            break
        defect = problem.update_norm(dpsi) / scale
        history.append(defect)
        steps.append(step)
        psi = psi_next
        omega = omega + domega
        if defect < cfg.tol:
            converged = True
            break
        res = problem.residual(psi, omega)
        residual_norms.append(res.relative)
        if res.norm <= 0.1 * cfg.tol * res.size:
            converged = True
            break
    return _Solution(problem.update_norm(psi - psi_stokes), psi, omega, history,
                     residual_norms, steps, converged)


def _iteration_grid(grid: PolarGrid, trace: BoundaryTrace,
                    warm_start: tuple[np.ndarray, np.ndarray] | None) -> PolarGrid:
    """``grid.ring`` for a datum with no harmonic above 0 and a start constant along theta.

    Every iterate from such a start is constant along theta, mode 0 only,
    which the ring carries exactly; any other solve iterates on ``grid``.
    """
    symmetric = trace.max_harmonic == 0 and (
        warm_start is None or all(np.all(a == a[:, :1]) for a in warm_start))
    return grid.ring if symmetric else grid


def solve(grid: PolarGrid, trace: BoundaryTrace, cfg: SolverConfig,
          warm_start: tuple[np.ndarray, np.ndarray] | None = None) -> SolveReport:
    """Solve the steady problem for the datum ``trace`` at the configured lambda.

    Starts from w = 0 (the Stokes solution) unless a warm-start state is
    given; attaches the least-squares pressure and the diagnostics record.
    At lambda = 0 the Stokes state is the solution: the report holds it
    with J = 0, converged after 0 iterations, whatever the warm start, and
    its pressure is the Stokes pressure.  The prescribed flux is carried
    exactly at every iterate because the carrier never enters the iteration.
    A datum with no harmonic above 0, started cold or from a state constant
    along theta, iterates on ``grid.ring``, which gives J.  Either way the
    stream functions are then brought onto ``grid``, where u, w, the
    pressure and the diagnostics are formed.
    """
    run = _iteration_grid(grid, trace, warm_start)
    if run is not grid and warm_start is not None:
        warm_start = tuple(np.repeat(a[:, :1], run.n_theta, axis=1) for a in warm_start)
    problem = _Problem(run, cfg, trace.flux, StreamBC.from_trace(run, trace))
    stokes_state = problem.bc.stokes_state(run)
    sol = _iterate(problem, stokes_state, warm_start)
    # a ring state is tiled C-ordered, since BLAS rounds other layouts differently
    psi_stokes, psi, omega = (a if run is grid else np.repeat(a[:, :1], grid.n_theta, axis=1)
                              for a in (stokes_state[0], sol.psi, sol.omega))
    u = flux_carrier(grid, trace.flux) + curl_of_stream(ScalarField(grid, psi))
    w = curl_of_stream(ScalarField(grid, psi - psi_stokes))
    del stokes_state, psi_stokes  # not held through the pressure, whose peak it would raise
    p, pinfo = pressure_from_momentum(grid, u, cfg.lam, cfg.nu)
    diag = diagnostics_for_solution(grid, u, p, cfg.lam, cfg.nu, w, sol.J,
                                    ScalarField(grid, psi - psi[-1, 0]))
    return SolveReport(
        u=u, w=w, p=p, J=sol.J, flux=trace.flux, lam=cfg.lam, nu=cfg.nu,
        iterations=len(sol.history), converged=sol.converged,
        residual_history=sol.history, residual_norms=sol.residual_norms, steps=sol.steps,
        diagnostics=diag,
        boundary_pressure_deviation=boundary_pressures(p).deviation,
        pressure_info=pinfo, method=cfg.method,
        psi=ScalarField(grid, psi), omega=ScalarField(grid, omega),
    )


# -- continuation -------------------------------------------------------------------


def sweep(grid: PolarGrid, trace: BoundaryTrace, cfg: SolverConfig,
          parameter: str, values: Sequence[float]) -> ContinuationTrace:
    """Warm-started continuation in the homotopy parameter or in the flux.

    For a flux sweep the zero-flux remainder of the datum stays fixed and
    the carrier's flux takes the swept value, so the clamped stream data
    never changes: in either sweep they and the Stokes state are computed
    once, and every point shares them.  Each point warm-starts from the
    previous converged point's solver state (the ``psi``, ``omega`` that
    :func:`solve` reports).
    A point records J, convergence and the iteration count only: the
    pressure and diagnostics of :func:`solve` are not computed.
    On a failed point one bisection level is attempted (solve the midpoint,
    then retry); if the point still fails it is recorded as diverged and
    the sweep continues from the last converged state.
    The parameter and the values are checked before any point is solved.
    Every point iterates where :func:`solve` would, on ``grid.ring`` for a
    datum with no harmonic above 0, so its J is that of the standalone solve.
    """
    values = [float(v) for v in values]
    _check_sweep(parameter, values)
    grid = _iteration_grid(grid, trace, None)
    remainder = trace.zero_flux_remainder()
    bc = StreamBC.from_trace(grid, trace)
    stokes_state = bc.stokes_state(grid)
    points: list[SweepPoint] = []
    warm: tuple[np.ndarray, np.ndarray] | None = None
    last_value: float | None = None

    def run(value: float, start) -> _Solution:
        if parameter == "lambda":
            problem = _Problem(grid, replace(cfg, lam=value), trace.flux, bc)
        else:
            # the flux of the swept datum, which rounding can set apart from value
            flux = (remainder + pure_flux_trace(value, grid.r_inner, grid.r_outer)).flux
            problem = _Problem(grid, cfg, flux, bc)
        return _iterate(problem, stokes_state, start)

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


def _check_sweep(parameter: str, values: list[float]) -> None:
    """Raise ValueError unless ``parameter`` is known and ``values`` can be swept.

    Values must be finite, strictly monotone and, for lambda, in [0, 1].
    """
    if parameter not in ("lambda", "flux"):
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"sweep values must be finite, got {values}")
    if parameter == "lambda" and not all(0.0 <= v <= 1.0 for v in values):
        raise ValueError(f"sweep values of lambda must lie in [0, 1], got {values}")
    steps = np.diff(values)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError(f"sweep values must be strictly monotone, got {values}")


# -- weak-form checks ---------------------------------------------------------------


def weak_residual(grid: PolarGrid, w: VelocityField, u_aux: VelocityField,
                  cfg: SolverConfig) -> float:
    """Worst normalized defect of the homotopy weak form over a fixed test family.

    The family is the clamped one (:class:`~annulus_flux.testspace.ClampedFamily`)
    with radial profiles P_m for m < 4 and angular factors 1, cos(n theta)
    and sin(n theta) for n <= 3 (and n < n_theta / 2).  For each of its
    divergence-free zero-trace test fields eta the quantity

        nu int grad(w):grad(eta) - lambda [ int ((w+U).grad)eta . w
            + int (w.grad)eta . U + int (U.grad)eta . U ]

    is evaluated by quadrature and normalized by the Dirichlet norm of eta.
    The bracket is int (V.grad)eta . V with V = w + U, and both terms are
    linear in the gradient frame (A, B, C, D) of eta, so the defect is

        int W_A A + W_B B + W_C C + W_D D,
        W = nu frame(w) - lambda (V_r V_r, V_theta V_r, V_r V_theta, V_theta V_theta),

    contracted with the separated frames of the whole family at once.
    """
    family = ClampedFamily(grid)
    v_r = w.u_r.values + u_aux.u_r.values
    v_t = w.u_theta.values + u_aux.u_theta.values
    cross = cfg.lam * (v_r * v_t)
    a, b, c, d = _gradient_frame(w)
    weights = (cfg.nu * a - cfg.lam * (v_r * v_r), cfg.nu * b - cross,
               cfg.nu * c - cross, cfg.nu * d - cfg.lam * (v_t * v_t))
    norms = family.dirichlet_norms()
    tested = norms > 0
    return float(np.max(np.abs(family.integrals(weights)[tested]) / norms[tested]))


def energy_cancellation(w: VelocityField, u_aux: VelocityField) -> float:
    """|int ((w+U).grad)w . w|, the cancellation that drives the energy bound."""
    return abs(trilinear(w + u_aux, w, w))
