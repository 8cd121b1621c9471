"""Measurable objects of the existence argument.

These operations quantify, on discrete fields, the quantities the argument
manipulates: the blow-up normalization w/J, the total head pressure
Phi = p + (lambda/2)|u|^2, constancy of Phi along stream lines, the boundary
pressure constants, the weak one-sided maximum principle, the energy pairing
lambda * int (w.grad)w . U = F (p1 - p2), the head-pressure volume identity
int Phi = p1 |Omega_1| - p2 |Omega_2|, and the residual of the normalized
Euler system.

The Bernoulli check works on stream-function level sets: each tested level
is sampled where it crosses the radial profiles of psi (linear root finding
between collocation rings, with the head pressure interpolated by the same
weights) and at the nodes where psi equals it exactly, never on the angular
edges, and the deviation is the spread of Phi along the sampled level.
Levels touched by near-critical points of psi (gradient below 1e-6 of its
maximum) are excluded, mirroring the level-set form of the continuum
statement.  On exactly rotationally symmetric data the sampled values are
identical across the angle, so the deviation vanishes to rounding.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .boundary import flux_carrier
from .fields import (
    ScalarField,
    VelocityField,
    advect,
    dirichlet_norm,
    divergence,
    flux_inner,
    gradient,
    l2_norm,
    stream_function,
    trilinear,
    velocity_l2_norm,
)
from .grid import PolarGrid, integrate


# -- normalization and head pressure ------------------------------------------------


def normalize(w: VelocityField, p: ScalarField) -> tuple[VelocityField, ScalarField, float]:
    """Blow-up normalization: (w/J, p/J^2, J) with J the Dirichlet norm of w."""
    j = dirichlet_norm(w)
    if j <= 0.0:
        raise ValueError("zero Dirichlet norm; nothing to normalize")
    w_hat = (1.0 / j) * w
    p_hat = ScalarField(p.grid, p.values / j**2)
    return w_hat, p_hat, j


def head_pressure(u: VelocityField, p: ScalarField, lam: float) -> ScalarField:
    """Total head pressure Phi = p + (lambda/2)(u_r^2 + u_theta^2)."""
    phi = p.values + 0.5 * lam * (u.u_r.values**2 + u.u_theta.values**2)
    return ScalarField(p.grid, phi)


# -- boundary pressures and maximum principle ---------------------------------------


class BoundaryPressures(NamedTuple):
    p1: float
    p2: float
    deviation: float


def boundary_pressures(p: ScalarField) -> BoundaryPressures:
    """Angular means of p on Gamma_1 and Gamma_2 plus the worst constancy defect."""
    outer = p.values[0, :]
    inner = p.values[-1, :]
    dev = max(
        float(np.max(np.abs(outer - outer.mean()))),
        float(np.max(np.abs(inner - inner.mean()))),
    )
    return BoundaryPressures(float(outer.mean()), float(inner.mean()), dev)


class MaxPrincipleResult(NamedTuple):
    ok: bool
    margin: float
    scale: float
    interior_sup: float
    boundary_sup: float


def max_principle_check(phi: ScalarField) -> MaxPrincipleResult:
    """One-sided maximum principle: interior sup against the boundary sup.

    margin = sup_interior(phi) - max(sup_Gamma1, sup_Gamma2); the check
    passes iff margin <= 1e-8 * scale with scale = max(1, sup|phi|).
    """
    interior = float(phi.values[1:-1, :].max())
    bnd = max(float(phi.values[0, :].max()), float(phi.values[-1, :].max()))
    margin = interior - bnd
    scale = max(1.0, float(np.max(np.abs(phi.values))))
    return MaxPrincipleResult(margin <= 1e-8 * scale, margin, scale, interior, bnd)


# -- Bernoulli law ------------------------------------------------------------------


def bernoulli_deviation(phi: ScalarField, psi: ScalarField, n_levels: int = 64,
                        critical_rel: float = 1e-6, full_output: bool = False):
    """Worst spread of the head pressure along sampled level sets of psi.

    The ``n_levels`` levels sit at the midpoints of ``n_levels`` equal parts
    of the range of psi.  A level is sampled on the radial grid lines only:
    where it crosses a radial edge between two rings (psi - level changes
    sign, the product of the two ends below 0), phi is interpolated linearly
    at the root, and at every node where psi equals the level exactly.  The
    angular edges are not sampled.  A level with a sample at or next to a
    near-critical node of psi, or with fewer than two samples, is not used;
    the deviation is the largest max - min of phi over the used levels, 0.0
    if none is used.  One scan finds the crossings: each edge's levels are
    the ones strictly between its end values, looked up in the sorted
    levels, so the work and memory grow with the number of crossings, not
    with ``n_levels`` times the grid.

    A constant psi is degenerate (every point is critical); in that case the
    global spread of phi is returned and flagged in the ``full_output`` info,
    which also counts the ``levels_used``.

    Raises
    ------
    ValueError
        If the fields live on different grids or ``n_levels`` < 1, which
        would test nothing and pass.
    """
    if phi.grid != psi.grid:
        raise ValueError("phi and psi live on different grids")
    if n_levels < 1:
        raise ValueError(f"need n_levels >= 1 to test anything, got {n_levels}")
    pv, sv = phi.values, psi.values
    smin, smax = float(sv.min()), float(sv.max())
    span = smax - smin

    grad_psi = gradient(psi)
    grad_mag = np.hypot(grad_psi.u_r.values, grad_psi.u_theta.values)
    gmax = float(grad_mag.max())

    if span <= 1e-12 * max(1.0, abs(smin), abs(smax)) or gmax == 0.0:
        dev = float(pv.max() - pv.min())
        info = {"degenerate": True, "levels_used": 0}
        return (dev, info) if full_output else dev

    critical = grad_mag < critical_rel * gmax
    del grad_psi, grad_mag  # each array goes once used, which keeps the peak to a few grids
    levels = smin + (np.arange(n_levels) + 0.5) * span / n_levels
    # the levels below each node's psi, and at or below it
    below = np.searchsorted(levels, sv.ravel(), side="left")
    upto = np.searchsorted(levels, sv.ravel(), side="right")
    # the few nodes where psi is exactly on a level
    on = np.flatnonzero(upto > below)
    node, node_level = _ranges(below[on], upto[on] - below[on])
    node = on[node]
    # each radial edge (i, j)-(i+1, j) with each level strictly between its end values
    nt = sv.shape[1]
    start = np.minimum(upto[:-nt], upto[nt:])
    count = np.maximum(below[:-nt], below[nt:])
    del below, upto
    count -= start
    np.maximum(count, 0, out=count)  # equal end values cross no level
    edge, level = _ranges(start, count)
    del start, count
    d0 = sv[:-1].ravel()[edge] - levels[level]
    d1 = sv[1:].ravel()[edge] - levels[level]
    # a product that underflows to 0 is no crossing: such a pair goes to a spare bin
    level[~(d0 * d1 < 0.0)] = n_levels
    t = d0 / (d0 - d1)
    del d0, d1
    samples = pv[:-1].ravel()[edge] * (1.0 - t) + pv[1:].ravel()[edge] * t
    near_critical = critical[:-1].ravel()[edge] | critical[1:].ravel()[edge]

    n_samples = np.zeros(n_levels + 1, dtype=np.intp)
    touched = np.zeros(n_levels + 1, dtype=bool)  # a level through a near-critical region
    top = np.full(n_levels + 1, -np.inf)
    bottom = np.full(n_levels + 1, np.inf)
    for lv, values, crit in ((level, samples, near_critical),
                             (node_level, pv.ravel()[node], critical.ravel()[node])):
        n_samples += np.bincount(lv, minlength=n_levels + 1)
        touched[lv[crit]] = True
        np.maximum.at(top, lv, values)
        np.minimum.at(bottom, lv, values)
    used = ((n_samples >= 2) & ~touched)[:n_levels]
    worst = float((top - bottom)[:n_levels][used].max()) if used.any() else 0.0
    info = {"degenerate": False, "levels_used": int(used.sum())}
    return (worst, info) if full_output else worst


def _ranges(start: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (i, start[i] + j) for every 0 <= j < count[i], ordered by i, then j."""
    item = np.repeat(np.arange(count.size), count)
    offset = np.cumsum(count)
    offset -= count
    np.subtract(start, offset, out=offset)  # start[i] less the pairs before item i
    k = offset[item]
    k += np.arange(item.size)
    return item, k


# -- identities ---------------------------------------------------------------------


@dataclass(frozen=True)
class EnergyIdentity:
    """Pairing lambda0 int (w.grad)w . U against F(p1 - p2)."""

    lhs: float          # lambda0 * int (w.grad)w . U
    rhs: float          # F * (p1 - p2)
    abs_diff: float


def identity_energy(w_hat: VelocityField, u_ext: VelocityField, lambda0: float,
                    p1: float, p2: float, flux: float) -> EnergyIdentity:
    """Evaluate both sides of the energy pairing for a normalized candidate.

    ``u_ext`` must be solenoidal with net inner-boundary flux ``flux``; the
    boundary pressure constants p1, p2 belong to the candidate pressure.
    """
    lhs = lambda0 * trilinear(w_hat, w_hat, u_ext)
    rhs = flux * (p1 - p2)
    return EnergyIdentity(lhs=lhs, rhs=rhs, abs_diff=abs(lhs - rhs))


@dataclass(frozen=True)
class Identity37:
    """Volume integral of the head pressure against the boundary constants."""

    lhs: float          # int_Omega Phi
    rhs: float          # p1 |Omega_1| - p2 |Omega_2|
    abs_diff: float
    bound: float        # max(p1, p2) |Omega|
    bound_ok: bool      # lhs <= bound (up to rounding)


def identity_37(phi_hat: ScalarField, p1: float, p2: float, grid: PolarGrid) -> Identity37:
    lhs = integrate(grid, phi_hat)
    rhs = p1 * grid.area_outer_disk - p2 * grid.area_inner_disk
    bound = max(p1, p2) * grid.area
    scale = max(1.0, abs(lhs), abs(bound))
    return Identity37(lhs=lhs, rhs=rhs, abs_diff=abs(lhs - rhs),
                      bound=bound, bound_ok=lhs <= bound + 1e-10 * scale)


def euler_residual(w_hat: VelocityField, p_hat: ScalarField, lambda0: float) -> float:
    """L2 norm of lambda0 (w.grad)w + grad(p) plus the divergence residual."""
    conv = advect(w_hat, w_hat)
    grad_p = gradient(p_hat)
    res = lambda0 * conv + grad_p
    return velocity_l2_norm(res) + l2_norm(divergence(w_hat))


# -- assembled record ---------------------------------------------------------------


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Scalar summary attached to solver reports and the diagnose command."""

    p1: float
    p2: float
    phi_interior_sup: float
    phi_boundary_sup: float
    max_principle_ok: bool
    max_principle_margin: float
    bernoulli_deviation: float
    identity26_lhs: float
    identity26_rhs: float
    identity32_lhs: float
    identity32_rhs: float
    identity37_lhs: float
    identity37_rhs: float
    euler_residual: float

    def __post_init__(self) -> None:
        for name, value in self.to_dict().items():
            if name == "max_principle_ok":
                continue
            if not np.isfinite(value):
                raise ValueError(f"diagnostic entry {name} is not finite")

    def to_dict(self) -> dict:
        return asdict(self)


def _assemble(grid: PolarGrid, u: VelocityField, p: ScalarField, lam: float, nu: float,
              candidate_w: VelocityField, candidate_p: ScalarField,
              u_ext: VelocityField, flux: float, psi: ScalarField) -> DiagnosticsRecord:
    phi = head_pressure(u, p, lam)
    mp = max_principle_check(phi)
    bern = bernoulli_deviation(phi, psi)

    cp1, cp2, _ = boundary_pressures(candidate_p)
    energy = identity_energy(candidate_w, u_ext, lam, cp1, cp2, flux)
    phi_hat = head_pressure(candidate_w, candidate_p, lam)
    id37 = identity_37(phi_hat, cp1, cp2, grid)
    eul = euler_residual(candidate_w, candidate_p, lam)

    p1, p2, _ = boundary_pressures(p)
    return DiagnosticsRecord(
        p1=p1, p2=p2,
        phi_interior_sup=mp.interior_sup,
        phi_boundary_sup=mp.boundary_sup,
        max_principle_ok=mp.ok,
        max_principle_margin=mp.margin,
        bernoulli_deviation=bern,
        identity26_lhs=energy.lhs, identity26_rhs=nu,
        identity32_lhs=energy.lhs, identity32_rhs=energy.rhs,
        identity37_lhs=id37.lhs, identity37_rhs=id37.rhs,
        euler_residual=eul,
    )


def diagnostics_for_solution(grid: PolarGrid, u: VelocityField, p: ScalarField,
                             lam: float, nu: float, u_stokes: VelocityField,
                             w: VelocityField, J: float, psi: ScalarField) -> DiagnosticsRecord:
    """Record for a converged solve: identities evaluated on the normalized pair.

    The head pressure, maximum principle, Bernoulli spread (on the level
    sets of ``psi``, the stream function of the zero-flux part of ``u``) and
    boundary pressures refer to the physical fields (u, p); the identity and
    Euler entries refer to the blow-up pair (w/J, p/J^2), which is where the
    argument uses them.  ``J`` is the Dirichlet norm of ``w``, as the solve
    measured it; for flows with J ~ 0 the normalized entries degenerate to
    zero candidates.
    """
    flux = flux_inner(u)
    if J > 1e-12:
        w_hat, p_hat, _ = normalize(w, p)
    else:
        w_hat = VelocityField.zeros(grid)
        p_hat = ScalarField.zeros(grid)
    return _assemble(grid, u, p, lam, nu, w_hat, p_hat, u_stokes, flux, psi)


def diagnostics_for_fields(grid: PolarGrid, u: VelocityField, p: ScalarField,
                           lam: float, nu: float) -> DiagnosticsRecord:
    """Record for stored fields, e.g. an Euler candidate loaded from disk.

    The zero-flux part of ``u`` itself is the identity candidate (no
    normalization: every tested identity is homogeneous in the pair) and
    the flux carrier serves as the pairing field.  Raises ValueError when
    that zero-flux part has no stream function (:func:`stream_function` at
    flux_tol 1e-8, div_tol 1e-6), since the Bernoulli spread needs one.
    """
    flux = flux_inner(u)
    carrier = flux_carrier(grid, flux)
    w = u - carrier
    psi = stream_function(w, flux_tol=1e-8, div_tol=1e-6)
    return _assemble(grid, u, p, lam, nu, w, p, carrier, flux, psi)
