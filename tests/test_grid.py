"""Discretization checks: areas, quadrature exactness, spectral differentiation.

Reference values are closed forms: |Omega| = pi (R1^2 - R2^2), the annulus
integral of 1/r^2 is 2 pi log(R1/R2), and monomials/log have hand
derivatives.
"""

import json

import numpy as np
import pytest
from scipy.linalg import lu_factor, lu_solve

from annulus_flux import ScalarField, build_grid, integrate, read_velocity_csv
from annulus_flux.cli import main
from annulus_flux.grid import (
    PolarGrid,
    chebyshev_diff_matrix,
    clenshaw_curtis_weights,
    factor_blocks,
    solve_blocks,
)


def test_canonical_annulus_areas():
    g = build_grid(32, 64, 1.0, 2.0)
    assert g.area == pytest.approx(3.0 * np.pi, rel=1e-15)
    assert g.area_outer_disk == pytest.approx(4.0 * np.pi, rel=1e-15)
    assert g.area_inner_disk == pytest.approx(np.pi, rel=1e-15)


def test_minimal_grid():
    g = build_grid(8, 2, 1.0, 1.5)
    assert g.area == pytest.approx(1.25 * np.pi, rel=1e-14)
    ones = np.ones((g.n_r, g.n_theta))
    assert integrate(g, ones) == pytest.approx(1.25 * np.pi, rel=1e-12)


@pytest.mark.parametrize("args", [
    (32, 63, 1.0, 2.0),   # odd angular count
    (32, 64, 0.5, 2.0),   # hole smaller than the unit disk
    (32, 64, 2.0, 2.0),   # empty annulus
    (32, 64, 2.0, 1.0),   # inverted radii
    (4, 64, 1.0, 2.0),    # too few radial nodes
])
def test_build_grid_rejects(args):
    with pytest.raises(ValueError):
        build_grid(*args)


def test_quadrature_exact_for_constant(grid):
    ones = ScalarField.from_function(grid, lambda r, t: np.ones_like(r))
    assert abs(integrate(grid, ones) - 3.0 * np.pi) <= 1e-12 * 3.0 * np.pi


def test_quadrature_inverse_square(grid):
    # int_Omega r^-2 dx = 2 pi log 2 by hand integration
    f = ScalarField.from_function(grid, lambda r, t: 1.0 / r**2)
    assert integrate(grid, f) == pytest.approx(2.0 * np.pi * np.log(2.0), abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 5, 7])
def test_pure_harmonics_integrate_to_zero(fine_grid, k):
    for fn in (np.cos, np.sin):
        f = ScalarField.from_function(fine_grid, lambda r, t: fn(k * t))
        assert abs(integrate(fine_grid, f)) < 1e-12


def test_angular_symmetry(grid):
    f = ScalarField.from_function(grid, lambda r, t: np.cos(t))
    assert abs(integrate(grid, f)) < 1e-12


@pytest.mark.parametrize("k", [0, 1, 4, 15, 31])
def test_differentiation_exact_on_monomials(grid, k):
    exact = k * grid.r ** (k - 1) if k > 0 else np.zeros_like(grid.r)
    got = grid.d_r @ grid.r**k
    scale = max(1.0, np.max(np.abs(exact)))
    assert np.max(np.abs(got - exact)) / scale < 1e-10


def test_second_derivative_of_log(grid):
    got = grid.d_rr @ np.log(grid.r)
    assert np.max(np.abs(got + 1.0 / grid.r**2)) < 1e-8


def test_doubling_radial_resolution_improves_exponential():
    errs = []
    for n_r in (8, 16):
        g = build_grid(n_r, 2, 1.0, 2.0)
        errs.append(np.max(np.abs(g.d_r @ np.exp(g.r) - np.exp(g.r))))
    assert errs[0] / errs[1] >= 10.0


def test_clenshaw_curtis_polynomial_exactness():
    n = 9
    x, _ = chebyshev_diff_matrix(n)
    w = clenshaw_curtis_weights(n)
    for k in range(n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert np.sum(w * x**k) == pytest.approx(exact, abs=1e-14)


def test_integrate_rejects_grid_mismatch(grid):
    other = build_grid(16, 16, 1.0, 2.0)
    f = ScalarField.from_function(other, lambda r, t: r)
    with pytest.raises(ValueError, match="different grid"):
        integrate(grid, f)


def test_grids_compare_and_hash_by_parameters():
    shared = build_grid(16, 8, 1.0, 2.0)
    direct = PolarGrid(16, 8, 1.0, 2.0)
    assert direct is not shared
    assert direct == shared
    assert hash(direct) == hash(shared)
    assert build_grid(16, 8, 1.0, 3.0) != shared


def test_grid_arrays_immutable(grid):
    with pytest.raises(ValueError):
        grid.r[0] = 0.0
    with pytest.raises(ValueError):
        grid.d_r[0, 0] = 1.0


def test_radial_antiderivative_spectral(grid):
    got = grid.radial_antiderivative(np.cos(grid.r))
    assert np.max(np.abs(got - (np.sin(grid.r) - np.sin(1.0)))) < 1e-13


@pytest.mark.parametrize("shape", [(16, 8), (32, 64), (64, 128)])
def test_radial_antiderivative_matches_lu_solve(shape):
    g = build_grid(*shape, 1.0, 2.0)
    anti = g.d_r.copy()
    anti[-1] = 0.0
    anti[-1, -1] = 1.0
    factors = lu_factor(anti)
    rng = np.random.default_rng(5)
    for values in (np.cos(g.r), rng.standard_normal((g.n_r, g.n_theta))):
        rhs = values.copy()
        rhs[-1] = 0.0
        assert np.array_equal(g.radial_antiderivative(values), lu_solve(factors, rhs))
    bad = np.cos(g.rr)
    bad[3, 2] = np.inf
    with pytest.raises(ValueError, match="infs or NaNs"):
        g.radial_antiderivative(bad)


def test_factor_blocks_names_first_non_finite_mode():
    def poisoned():
        blocks = np.stack([np.eye(4) * (k + 1.0) for k in range(5)])
        blocks[2, 1, 1] = np.nan
        blocks[3, 0, 0] = np.inf
        return factor_blocks(blocks)

    with pytest.raises(ValueError, match=r"angular mode 2$"):
        solve_blocks(poisoned(), np.ones((5, 4)))
    # the factor step names the first mode a solve reaches, not the first in the stack
    rhs = np.ones((5, 4))
    rhs[2] = 0.0
    with pytest.raises(ValueError, match=r"angular mode 3$"):
        solve_blocks(poisoned(), rhs)
    # a solve that reaches neither bad block needs neither factor
    rhs[3] = 0.0
    factors = poisoned()
    assert np.array_equal(solve_blocks(factors, rhs), rhs / (np.arange(5.0) + 1.0)[:, None])
    assert factors.factored.tolist() == [True, True, False, False, True]


def test_build_grid_shares_one_grid_and_its_factors(tmp_path):
    g = build_grid(32, 64, 1.0, 2.0)
    assert build_grid(32, 64, 1.0, 2.0) is g
    assert g.stream_lu is g.stream_lu
    assert g.dirichlet_lu is g.dirichlet_lu
    assert g.neumann_lu is g.neumann_lu
    # the shared stacks stay read-only to callers once a solve has factored them
    for factors in (g.stream_lu, g.dirichlet_lu, g.neumann_lu):
        solve_blocks(factors, np.ones(factors.piv.shape))
        assert factors.factored.all()
        for stack in (factors.lu, factors.piv, factors.factored):
            with pytest.raises(ValueError):
                stack[0] = 1
    # a solve's fields.csv reads back onto the same grid, so a check of the
    # output reuses the solve's factors
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "grid": {"n_r": 32, "n_theta": 64, "r_inner": 1.0, "r_outer": 2.0},
        "boundary": {"preset": "couette", "omega1": 1.0, "omega2": 0.0},
    }))
    assert main(["solve", "--config", str(config), "--out", str(tmp_path), "--quiet"]) == 0
    assert read_velocity_csv(tmp_path / "fields.csv").grid is g
