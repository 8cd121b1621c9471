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

Per-mode systems are held as :class:`BlockFactors`, a stack of blocks that
:func:`solve_blocks` LU-factors one by one, each the first time a right-hand
side is not exactly zero in its mode.  For axisymmetric data the FFT leaves
every mode k >= 1 exactly zero on most grids, and then one block is factored.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

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
    stream, Dirichlet and Neumann systems) are built on first use and kept;
    a block of a stack is LU-factored when a solve first reaches its mode.
    :func:`build_grid` applies the precondition checks and hands every caller
    asking for the same grid one shared instance, so its arrays are read-only
    to callers and every operation on it is pure.  Grids compare and hash by
    ``(n_r, n_theta, r_inner, r_outer)``.

    Attributes of interest
    ----------------------
    r, theta : 1d node arrays (r decreasing from r_outer to r_inner).
    rr, tt : broadcast (n_r, n_theta) node meshes.
    d_r, d_rr : radial differentiation matrices d/dr, d2/dr2.
    w_r_line : radial Clenshaw-Curtis weights on [r_inner, r_outer]
        (no Jacobian), for line integrals in r.
    w_area : radial weights including the polar Jacobian r; together
        with the uniform angular weight 2*pi/n_theta they integrate
        over the annulus.
    area, area_outer_disk, area_inner_disk : measures of Omega,
        Omega_1 (disk bounded by Gamma_1) and Omega_2 (hole).
    mode_laplacians : (n_modes, n_r, n_r) stack of Lap_k.
    stream_lu, dirichlet_lu, neumann_lu : :class:`BlockFactors` of the
        per-mode systems, for :func:`solve_blocks`.
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
    w_r_line: np.ndarray = field(init=False, repr=False, compare=False)
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
        set_(self, "w_r_line", w_line)
        set_(self, "w_area", w_line * r)
        set_(self, "w_theta", 2.0 * np.pi / self.n_theta)
        set_(self, "area", np.pi * (self.r_outer**2 - self.r_inner**2))
        set_(self, "area_outer_disk", np.pi * self.r_outer**2)
        set_(self, "area_inner_disk", np.pi * self.r_inner**2)

        for name in ("r", "theta", "rr", "tt", "d_r", "d_rr", "w_r_line", "w_area"):
            getattr(self, name).setflags(write=False)

    # -- angular spectral helpers -------------------------------------------------

    @property
    def n_modes(self) -> int:
        """Number of rfft angular modes, n_theta//2 + 1."""
        return self.n_theta // 2 + 1

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(self.n_modes)

    def to_modes(self, values: np.ndarray) -> np.ndarray:
        """rfft along the angular axis."""
        return np.fft.rfft(values, axis=-1)

    def from_modes(self, coef: np.ndarray) -> np.ndarray:
        return np.fft.irfft(coef, n=self.n_theta, axis=-1)

    def diff_theta(self, values: np.ndarray, order: int = 1) -> np.ndarray:
        """Spectral angular derivative of nodal data (last axis is theta).

        For odd orders the Nyquist coefficient is zeroed, the usual
        convention that keeps the result real and antisymmetric.
        """
        coef = self.to_modes(values)
        k = self.wavenumbers
        factor = (1j * k) ** order
        if order % 2 == 1:
            factor = factor.copy()
            factor[-1] = 0.0
        return self.from_modes(coef * factor)

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

    def angular_mean(self, values: np.ndarray) -> np.ndarray:
        return values.mean(axis=-1)

    @functools.cached_property
    def _antiderivative_lu(self) -> BlockFactors:
        """One-block stack of d/dr with the inner row pinned, the antiderivative operator."""
        anti = self.d_r.copy()
        anti[-1, :] = 0.0
        anti[-1, -1] = 1.0
        return factor_blocks(anti[None])

    # -- per-mode operators -------------------------------------------------------

    @functools.cached_property
    def mode_laplacians(self) -> np.ndarray:
        """Radial collocation matrices of Lap_k = d_rr + (1/r) d_r - k^2/r^2."""
        base = self.d_rr + (1.0 / self.r)[:, None] * self.d_r
        laps = base - (self.wavenumbers**2)[:, None, None] * np.diag(1.0 / self.r**2)
        laps.setflags(write=False)
        return laps

    def stream_blocks(self, dtype=float) -> np.ndarray:
        """Per-mode matrices of the clamped biharmonic pair in (psi, omega).

        Rows 0..n_r-1 hold the slopes of psi on the circles and Lap psi +
        omega inside; rows n_r.. hold Lap omega inside and the values of psi
        on the circles, except that mode 0 replaces the outer value by the
        single-valued-pressure side condition d omega/dr (r_outer).  Returns
        a fresh (n_modes, 2 n_r, 2 n_r) stack for :func:`factor_blocks`.
        """
        n = self.n_r
        laps = self.mode_laplacians[:, 1:n - 1]
        m = _block_stack(self.n_modes, 2 * n, dtype)
        m[:, 0, :n] = self.d_r[0]
        m[:, 1:n - 1, :n] = laps
        m[:, 1:n - 1, n:] = np.eye(n)[1:n - 1]
        m[:, n - 1, :n] = self.d_r[-1]
        m[0, n, n:] = self.d_r[0]       # single-valued pressure
        m[1:, n, 0] = 1.0               # psi value at the outer circle
        m[:, n + 1:2 * n - 1, n:] = laps
        m[:, 2 * n - 1, n - 1] = 1.0    # psi value at the inner circle
        return m

    @functools.cached_property
    def stream_lu(self) -> BlockFactors:
        return factor_blocks(self.stream_blocks())

    @functools.cached_property
    def dirichlet_lu(self) -> BlockFactors:
        """Lap_k with value rows on both circles."""
        n = self.n_r
        m = _block_stack(self.n_modes, n)
        m[:] = self.mode_laplacians
        m[:, [0, n - 1]] = 0.0
        m[:, 0, 0] = 1.0
        m[:, n - 1, n - 1] = 1.0
        return factor_blocks(m)

    @functools.cached_property
    def neumann_lu(self) -> BlockFactors:
        """Lap_k with slope rows on both circles and a zero mean for mode 0."""
        n = self.n_r
        m = _block_stack(self.n_modes, n)
        m[:] = self.mode_laplacians
        m[:, 0] = self.d_r[0]
        m[:, n - 1] = self.d_r[-1]
        # Neumann mode 0 is defined up to a constant; trade one interior row
        # for the zero-mean condition, absorbing the discrete compatibility
        # defect there.
        m[0, n // 2] = self.w_area
        return factor_blocks(m)


def build_grid(n_r: int, n_theta: int, r_inner: float, r_outer: float) -> PolarGrid:
    """The :class:`PolarGrid` for these values, validating the preconditions.

    Equal values give the same instance while it is among the four grids
    most recently asked for, so its per-mode factors are built once.

    Raises
    ------
    ValueError
        If n_theta is odd, n_r < 8, r_inner < 1 or r_inner >= r_outer.
    """
    if n_theta % 2 != 0 or n_theta < 2:
        raise ValueError(f"n_theta must be a positive even integer, got {n_theta}")
    if n_r < 8:
        raise ValueError(f"n_r must be at least 8, got {n_r}")
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
    """LU factors of a stack of per-mode blocks, each block factored when first reached.

    Made by :func:`factor_blocks` and applied by :func:`solve_blocks`, which
    factors block k with LAPACK ``getrf`` the first time a right-hand side is
    not exactly zero in mode k.  ``lu``, ``piv`` and ``factored`` are
    read-only to callers: once ``factored[k]``, ``lu[k]`` and ``piv[k]`` are
    what ``scipy.linalg.lu_factor`` gives for the block; until then ``lu[k]``
    is the block itself.  Only the factor step writes them.
    """

    def __init__(self, blocks: np.ndarray):
        # writable views for the factor step, taken before the flags close
        self._lu = blocks.view()
        self._piv = np.empty(blocks.shape[:2], dtype=np.int32)
        self._factored = np.zeros(len(blocks), dtype=bool)
        self.lu = blocks
        self.piv = self._piv.view()
        self.factored = self._factored.view()
        for public in (self.lu, self.piv, self.factored):
            public.setflags(write=False)

    def _factor(self, modes: np.ndarray) -> None:
        """Factor the blocks of ``modes`` not yet factored, in place, in order.

        Raises
        ------
        ValueError
            Naming the first of ``modes`` whose factor is not finite; that
            block is not marked factored.
        """
        todo = modes[~self._factored[modes]]
        if not todo.size:
            return
        getrf, = get_lapack_funcs(("getrf",), (self._lu,))
        for k in todo:
            lu, self._piv[k], info = getrf(self._lu[k], overwrite_a=True)
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of getrf")
            if not np.all(np.isfinite(lu)):
                raise ValueError(f"ill-conditioned collocation system at angular mode {k}")
            self._lu[k] = lu  # no copy for Fortran-ordered slices, which LAPACK overwrites
            self._factored[k] = True


def factor_blocks(blocks: np.ndarray) -> BlockFactors:
    """Lazy LU factors of a stack of per-mode matrices, taking over ``blocks``.

    No block is factored here: :func:`solve_blocks` factors a block the first
    time it reaches its mode.  ``blocks`` becomes read-only and is overwritten
    by the factors; Fortran-ordered slices are factored without a copy.  An
    exactly singular block is factored without complaint and gives a
    non-finite solve.
    """
    return BlockFactors(blocks)


def solve_blocks(factors: BlockFactors, rhs: np.ndarray) -> np.ndarray:
    """Solve each block of ``factors`` for the matching slice of ``rhs``.

    ``rhs`` stacks one right-hand side per block, a vector or a matrix of
    columns.  An exactly zero slice gets an exactly zero solution and no
    LAPACK call; any other slice, NaN included, is solved by LAPACK
    ``getrs``, the routine ``scipy.linalg.lu_solve`` calls, after its block
    is factored if it is not yet.  So each slice of the C-ordered result is
    bit-identical to ``scipy.linalg.lu_solve`` on the factored block.
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
