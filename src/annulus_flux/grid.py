"""Spectral collocation grid for the annulus R2 < |x| < R1.

The discretization is Chebyshev-Gauss-Lobatto collocation in the radius
(affinely mapped to [r_inner, r_outer]) and equispaced Fourier collocation
in the angle.  Radial quadrature uses Clenshaw-Curtis weights with the
polar Jacobian r; angular quadrature is the trapezoid rule, which is
spectrally exact for periodic integrands.

Index convention: nodal arrays have shape (n_r, n_theta) with the radial
index running from the outer boundary (row 0, r = r_outer) to the inner
boundary (row n_r - 1, r = r_inner), following the native Chebyshev node
ordering x_j = cos(pi j / N).

Per-mode systems are held as :class:`BlockFactors`, the one way a stack of
per-mode blocks is made.  Its builder assembles a block, and
:func:`solve_blocks` LU-factors it, the first time a right-hand side is not
exactly zero in its mode; a block no solve reaches is never assembled.  For
axisymmetric data the FFT leaves every mode k >= 1 exactly zero on most
grids, and then one block is assembled and factored.  On the two angular
nodes of a grid's ring (:attr:`PolarGrid.ring`), where the nonlinear solver
iterates axisymmetric data, mode 1 is exactly zero on every grid.  Every
modal solve of the package, the stream and Neumann systems and the Newton
preconditioner, goes through :func:`solve_modes`, which packs rfft
coefficients onto the stack; only this module calls :func:`solve_blocks`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import get_lapack_funcs


def chebyshev_diff_matrix(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Gauss-Lobatto nodes and differentiation matrix.

    Parameters
    ----------
    n : int
        Number of collocation points (polynomial degree n - 1).

    Returns
    -------
    x : ndarray, shape (n,)
        Nodes cos(pi*j/(n-1)), decreasing from 1 to -1.
    d : ndarray, shape (n, n)
        First-derivative collocation matrix, exact on polynomials of
        degree <= n - 1.
    """
    if n < 2:
        raise ValueError("need at least two Chebyshev points")
    big_n = n - 1
    j = np.arange(n)
    x = np.cos(np.pi * j / big_n)
    c = np.hstack([2.0, np.ones(big_n - 1), 2.0]) * (-1.0) ** j
    dx = x[:, None] - x[None, :]
    d = np.outer(c, 1.0 / c) / (dx + np.eye(n))
    d -= np.diag(d.sum(axis=1))
    return x, d


def clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Clenshaw-Curtis quadrature weights on [-1, 1] for the n CGL nodes.

    Exact for polynomials of degree <= n - 1 (degree n for even n - 1).
    """
    big_n = n - 1
    if big_n == 0:
        return np.array([2.0])
    theta = np.pi * np.arange(n) / big_n
    w = np.zeros(n)
    v = np.ones(big_n - 1)
    if big_n % 2 == 0:
        w[0] = w[big_n] = 1.0 / (big_n**2 - 1)
        for k in range(1, big_n // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[1:big_n]) / (4.0 * k * k - 1.0)
        v -= np.cos(big_n * theta[1:big_n]) / (big_n**2 - 1.0)
    else:
        w[0] = w[big_n] = 1.0 / big_n**2
        for k in range(1, (big_n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[1:big_n]) / (4.0 * k * k - 1.0)
    w[1:big_n] = 2.0 * v / big_n
    return w


@dataclass(frozen=True)
class PolarGrid:
    """Immutable collocation grid on the annulus r_inner < r < r_outer.

    Differentiation and quadrature operators are computed at construction.
    The per-mode operators (the mode Laplacians and the block stacks of the
    stream and Neumann systems) are made on first use and kept; a block of
    a stack is assembled and LU-factored when a solve first reaches its mode.
    :func:`build_grid` applies the precondition checks and hands every caller
    asking for the same grid one shared instance, so its arrays are read-only
    to callers and every operation on it is pure.  Grids compare and hash by
    ``(n_r, n_theta, r_inner, r_outer)``.

    Attributes of interest
    ----------------------
    r, theta : 1d node arrays (r decreasing from r_outer to r_inner).
    rr, tt : broadcast (n_r, n_theta) node meshes.
    d_r, d_rr : radial differentiation matrices d/dr, d2/dr2.
    wavenumbers : the rfft angular wavenumbers 0 .. n_theta/2.
    w_area : radial Clenshaw-Curtis weights including the polar Jacobian
        r; together with the uniform angular weight 2*pi/n_theta they
        integrate over the annulus.
    area, area_outer_disk, area_inner_disk : measures of Omega,
        Omega_1 (disk bounded by Gamma_1) and Omega_2 (hole).
    mode_laplacians : (n_modes, n_r, n_r) stack of Lap_k.
    stream_lu, neumann_lu : :class:`BlockFactors` of the per-mode
        systems, for :func:`solve_modes`.
    ring : the grid with these radial nodes and two angular nodes, made on
        first use and held by this grid, not by :func:`build_grid`'s four;
        axisymmetric data iterate on it.
    """

    n_r: int
    n_theta: int
    r_inner: float
    r_outer: float

    # derived from the four parameters above, so equality and hashing skip them
    r: np.ndarray = field(init=False, repr=False, compare=False)
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    rr: np.ndarray = field(init=False, repr=False, compare=False)
    tt: np.ndarray = field(init=False, repr=False, compare=False)
    d_r: np.ndarray = field(init=False, repr=False, compare=False)
    d_rr: np.ndarray = field(init=False, repr=False, compare=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)
    _angular_factors: tuple = field(init=False, repr=False, compare=False)
    w_area: np.ndarray = field(init=False, repr=False, compare=False)
    w_theta: float = field(init=False, compare=False)
    area: float = field(init=False, compare=False)
    area_outer_disk: float = field(init=False, compare=False)
    area_inner_disk: float = field(init=False, compare=False)

    def __post_init__(self) -> None:
        half_width = 0.5 * (self.r_outer - self.r_inner)
        x, d = chebyshev_diff_matrix(self.n_r)
        r = self.r_inner + half_width * (x + 1.0)
        d_r = d / half_width
        w_line = clenshaw_curtis_weights(self.n_r) * half_width
        theta = 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta

        set_ = object.__setattr__
        set_(self, "r", r)
        set_(self, "theta", theta)
        set_(self, "rr", np.broadcast_to(r[:, None], (self.n_r, self.n_theta)).copy())
        set_(self, "tt", np.broadcast_to(theta[None, :], (self.n_r, self.n_theta)).copy())
        set_(self, "d_r", d_r)
        set_(self, "d_rr", d_r @ d_r)
        k = np.arange(self.n_theta // 2 + 1)
        set_(self, "wavenumbers", k)
        # d/dtheta zeroes the Nyquist coefficient (see diff_theta)
        d1 = 1j * k
        d1[-1] = 0.0
        set_(self, "_angular_factors", (d1, (1j * k) ** 2))
        set_(self, "w_area", w_line * r)
        set_(self, "w_theta", 2.0 * np.pi / self.n_theta)
        set_(self, "area", np.pi * (self.r_outer**2 - self.r_inner**2))
        set_(self, "area_outer_disk", np.pi * self.r_outer**2)
        set_(self, "area_inner_disk", np.pi * self.r_inner**2)

        for array in (r, theta, self.rr, self.tt, d_r, self.d_rr, self.w_area, k,
                      *self._angular_factors):
            array.setflags(write=False)

    # -- angular spectral helpers -------------------------------------------------

    @property
    def n_modes(self) -> int:
        """Number of rfft angular modes, n_theta//2 + 1."""
        return self.n_theta // 2 + 1

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        """rfft along the angular axis."""
        return np.fft.rfft(values, axis=-1)

    def from_modes(self, coef: np.ndarray) -> np.ndarray:
        return np.fft.irfft(coef, n=self.n_theta, axis=-1)

    def diff_theta(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        """Spectral angular derivative of nodal data (last axis is theta).

        The rfft coefficients are multiplied by (i k)^order, kept on the grid.
        For order 1 the Nyquist coefficient is zeroed, the usual convention
        that keeps the result real and antisymmetric.
        """
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        return self.from_modes(self.to_modes(values) * self._angular_factors[order - 1])

    def diff_r(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        """Radial derivative of nodal data (first axis is r)."""
        op = self.d_r if order == 1 else self.d_rr
        if order not in (1, 2):
            raise ValueError("order must be 1 or 2")
        return op @ values

    def radial_antiderivative(self, values: np.ndarray) -> np.ndarray:
        """Antiderivative in r vanishing at the inner boundary.

        Solves d_r(F) = values with F(r_inner) = 0; spectrally exact for
        integrands resolved by the radial basis.  Works on 1d radial
        profiles or full (n_r, n_theta) arrays.

        Raises
        ------
        ValueError
            If ``values`` off the pinned inner row are not finite.
        """
        rhs = np.array(values, dtype=float, copy=True)
        rhs[-1] = 0.0
        if not np.all(np.isfinite(rhs)):
            raise ValueError("radial antiderivative of values containing infs or NaNs")
        return solve_blocks(self._antiderivative_lu, rhs[None])[0]

    @functools.cached_property
    def _antiderivative_lu(self) -> BlockFactors:
        """One-block stack of d/dr with the inner row pinned, the antiderivative operator."""
        def build(modes: slice, out: np.ndarray) -> None:
            out[0] = self.d_r
            out[0, -1, :] = 0.0
            out[0, -1, -1] = 1.0

        return BlockFactors(build, 1, self.n_r)

    @functools.cached_property
    def ring(self) -> PolarGrid:
        """The grid of two angular nodes with these radial nodes; this grid if n_theta = 2.

        A field constant along theta keeps only mode 0, which the ring
        carries exactly, so rotationally symmetric data iterate on it.
        """
        if self.n_theta == 2:
            return self
        return PolarGrid(n_r=self.n_r, n_theta=2, r_inner=self.r_inner, r_outer=self.r_outer)

    # -- per-mode operators -------------------------------------------------------

    @functools.cached_property
    def mode_laplacians(self) -> np.ndarray:
        """Radial collocation matrices of Lap_k = d_rr + (1/r) d_r - k^2/r^2."""
        base = self.d_rr + (1.0 / self.r)[:, None] * self.d_r
        laps = base - (self.wavenumbers**2)[:, None, None] * np.diag(1.0 / self.r**2)
        laps.setflags(write=False)
        return laps

    def stream_blocks(self, modes: slice = slice(None), out: np.ndarray | None = None,
                      dtype=float) -> np.ndarray:
        """Per-mode matrices of the clamped biharmonic pair in (psi, omega).

        Rows 0..n_r-1 hold the slopes of psi on the circles and Lap psi +
        omega inside; rows n_r.. hold Lap omega inside and the values of psi
        on the circles, except that mode 0 replaces the outer value by the
        single-valued-pressure side condition d omega/dr (r_outer).  Writes
        the blocks of the consecutive ``modes`` (default all) into ``out``
        (default a fresh zero stack of ``dtype``), a :class:`BlockFactors`
        builder, and returns ``out``, shape (n_modes, 2 n_r, 2 n_r).  Entries
        off the pattern are left as they are, zero in a fresh stack.
        """
        n = self.n_r
        m = _block_stack(self.n_modes, 2 * n, dtype) if out is None else out
        first, stop, _ = modes.indices(self.n_modes)
        laps = self.mode_laplacians[modes, 1:n - 1]
        m[modes, 0, :n] = self.d_r[0]
        m[modes, 1:n - 1, :n] = laps
        m[modes, 1:n - 1, n:] = np.eye(n)[1:n - 1]
        m[modes, n - 1, :n] = self.d_r[-1]
        if first == 0:
            m[0, n, n:] = self.d_r[0]       # single-valued pressure
        m[max(first, 1):stop, n, 0] = 1.0   # psi value at the outer circle
        m[modes, n + 1:2 * n - 1, n:] = laps
        m[modes, 2 * n - 1, n - 1] = 1.0    # psi value at the inner circle
        return m

    @functools.cached_property
    def stream_lu(self) -> BlockFactors:
        return BlockFactors(self.stream_blocks, self.n_modes, 2 * self.n_r)

    @functools.cached_property
    def neumann_lu(self) -> BlockFactors:
        """Lap_k with slope rows on both circles and a zero mean for mode 0."""
        n = self.n_r

        def build(modes: slice, m: np.ndarray) -> None:
            m[modes] = self.mode_laplacians[modes]
            m[modes, 0] = self.d_r[0]
            m[modes, n - 1] = self.d_r[-1]
            # Neumann mode 0 is defined up to a constant; trade one interior
            # row for the zero-mean condition, absorbing the discrete
            # compatibility defect there.
            if modes.indices(self.n_modes)[0] == 0:
                m[0, n // 2] = self.w_area

        return BlockFactors(build, self.n_modes, n)


def build_grid(n_r: int, n_theta: int, r_inner: float, r_outer: float) -> PolarGrid:
    """The :class:`PolarGrid` for these values, validating the preconditions.

    Equal values give the same instance while it is among the four grids
    most recently asked for, so its per-mode factors are built once.

    Raises
    ------
    ValueError
        If n_theta is odd, n_r < 8, a radius is not finite, r_inner < 1 or
        r_inner >= r_outer.
    """
    if n_theta % 2 != 0 or n_theta < 2:
        raise ValueError(f"n_theta must be a positive even integer, got {n_theta}")
    if n_r < 8:
        raise ValueError(f"n_r must be at least 8, got {n_r}")
    if not (math.isfinite(r_inner) and math.isfinite(r_outer)):
        raise ValueError(f"radii must be finite, got r_inner = {r_inner}, r_outer = {r_outer}")
    if r_inner < 1.0:
        raise ValueError(f"r_inner must be >= 1 (unit disk inside the hole), got {r_inner}")
    if r_inner >= r_outer:
        raise ValueError(f"need r_inner < r_outer, got {r_inner} >= {r_outer}")
    return _shared_grid(int(n_r), int(n_theta), float(r_inner), float(r_outer))


# a process works on a few grids at a time (verify uses three); each keeps its
# factor stacks, about 15 MB at 64x128
@functools.lru_cache(maxsize=4)
def _shared_grid(n_r: int, n_theta: int, r_inner: float, r_outer: float) -> PolarGrid:
    return PolarGrid(n_r=n_r, n_theta=n_theta, r_inner=r_inner, r_outer=r_outer)


def _block_stack(count: int, size: int, dtype=float) -> np.ndarray:
    """Zero (count, size, size) stack whose slices are Fortran ordered.

    LAPACK factors such a slice in place, so :class:`BlockFactors` needs no
    second stack.
    """
    return np.zeros((count, size, size), dtype=dtype).transpose(0, 2, 1)


class BlockFactors:
    """LU factors of ``count`` per-mode blocks, each assembled and factored when first reached.

    ``build(modes, out)`` writes the blocks of ``modes``, a slice of
    consecutive modes, into ``out[modes]``; ``out`` is the zero
    (count, size, size) stack of ``dtype`` with Fortran-ordered slices that
    becomes the factors.  :func:`solve_blocks` builds the blocks of the modes
    it reaches first, each the first time a right-hand side is not exactly
    zero in its mode, and factors them in place with LAPACK ``getrf``.  Each
    run of consecutive new modes is built in one call, through views of the
    stack, so the usual sets, mode 0 alone or every mode, take one call.
    ``lu``, ``piv`` and ``factored`` are read-only to callers: once
    ``factored[k]``, ``lu[k]`` and ``piv[k]`` are what
    ``scipy.linalg.lu_factor`` gives for block k; until then ``lu[k]`` is
    zero.  Only the factor step writes them.  An exactly singular block is
    factored without complaint and gives a non-finite solve.
    """

    def __init__(self, build: Callable[[slice, np.ndarray], object], count: int,
                 size: int, dtype=float):
        self._build = build
        # writable stacks for the factor step, behind read-only public views
        self._lu = _block_stack(count, size, dtype)
        self._piv = np.empty((count, size), dtype=np.int32)
        self._factored = np.zeros(count, dtype=bool)
        self.lu = self._lu.view()
        self.piv = self._piv.view()
        self.factored = self._factored.view()
        for public in (self.lu, self.piv, self.factored):
            public.setflags(write=False)

    def _factor(self, modes: np.ndarray) -> None:
        """Build and factor the blocks of ``modes`` not yet factored, in place, in order.

        Raises
        ------
        ValueError
            Naming the first of ``modes`` whose factor is not finite; that
            block is zeroed again and not marked factored.
        """
        todo = modes[~self._factored[modes]]
        if not todo.size:
            return
        for run in np.split(todo, np.flatnonzero(np.diff(todo) != 1) + 1):
            self._build(slice(run[0], run[-1] + 1), self._lu)
        getrf, = get_lapack_funcs(("getrf",), (self._lu,))
        for k in todo:
            lu, self._piv[k], info = getrf(self._lu[k], overwrite_a=True)
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of getrf")
            if not np.all(np.isfinite(lu)):
                self._lu[k] = 0.0  # a later build starts from a zero slice again
                raise ValueError(f"ill-conditioned collocation system at angular mode {k}")
            self._lu[k] = lu  # no copy for Fortran-ordered slices, which LAPACK overwrites
            self._factored[k] = True


def solve_blocks(factors: BlockFactors, rhs: np.ndarray) -> np.ndarray:
    """Solve each block of ``factors`` for the matching slice of ``rhs``.

    ``rhs`` stacks one right-hand side per block, a vector or a matrix of
    columns.  An exactly zero slice gets an exactly zero solution and no
    LAPACK call; any other slice, NaN included, is solved by LAPACK
    ``getrs``, the routine ``scipy.linalg.lu_solve`` calls, after its block
    is built and factored if it is not yet.  So each slice of the C-ordered
    result is bit-identical to ``scipy.linalg.lu_solve`` on the factored
    block.
    Nothing is checked for finiteness: a non-finite input gives a
    non-finite result.

    Raises
    ------
    ValueError
        Naming the first reached angular mode whose factor is not finite.
    """
    reached = np.flatnonzero(rhs.reshape(len(rhs), -1).any(axis=1))
    factors._factor(reached)
    lu, piv = factors.lu, factors.piv
    getrs, = get_lapack_funcs(("getrs",), (lu, rhs))
    out = np.zeros(rhs.shape, dtype=getrs.dtype)
    for k in reached:
        out[k], info = getrs(lu[k], piv[k], rhs[k])
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of getrs")
    return out


def solve_modes(factors: BlockFactors, coef: np.ndarray) -> np.ndarray:
    """Solve each mode's block of ``factors`` for rfft coefficients ``coef``, (..., rows, n_modes).

    A real stack solves the real and imaginary parts as two columns, a
    complex stack one complex column.  The result has the layout of ``coef``,
    C-ordered: ``from_modes`` returns a transposed view's values in that
    view's order, and BLAS products such as the one in :func:`integrate`
    round differently on it.  Raises ValueError if ``coef`` is not finite,
    or as :func:`solve_blocks`.
    """
    if not np.all(np.isfinite(coef)):
        raise ValueError("modal right-hand side contains infs or NaNs")
    rhs = coef.reshape(-1, coef.shape[-1]).T
    if np.iscomplexobj(factors.lu):
        sol = solve_blocks(factors, rhs)
    else:
        sol = solve_blocks(factors, np.stack([rhs.real, rhs.imag], axis=-1))
        sol = sol[..., 0] + 1j * sol[..., 1]
    return np.ascontiguousarray(sol.T).reshape(coef.shape)


def integrate(grid: PolarGrid, f) -> float:
    """Integral of a scalar field over the annulus, spectrally accurate.

    ``f`` may be a ScalarField living on ``grid`` or a bare (n_r, n_theta)
    array.  Exact for constants by construction of the weights.
    """
    values = getattr(f, "values", f)
    owner = getattr(f, "grid", None)
    if owner is not None and grid != owner:
        raise ValueError("field lives on a different grid")
    values = np.asarray(values)
    if values.shape != (grid.n_r, grid.n_theta):
        raise ValueError(
            f"field shape {values.shape} does not match grid "
            f"({grid.n_r}, {grid.n_theta})"
        )
    return float((grid.w_area @ values).sum() * grid.w_theta)
