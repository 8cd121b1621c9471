"""Divergence-free test fields with zero boundary trace, in separated form.

Used by the weak-form residual checks: curls of clamped stream functions
P_m(r) Theta_n(theta), with P_m = (1 - x^2)^2 T_m(x) and Theta_n from
1, cos(n theta), sin(n theta), vanish with their first radial derivative at
both circles, so the resulting velocities are admissible test fields for the
weak formulation.  Each field eta_mn = curl(P_m Theta_n) has
eta_r = (P_m / r) Theta_n' and eta_theta = -P_m' Theta_n, so every component
of its gradient frame (see ``fields._gradient_frame``) is a short sum of
radial times angular factors,

    A = (P/r)' Theta',   B = (P/r^2) Theta'' + (P'/r) Theta,
    C = -P'' Theta,      D = (P/r^2 - P'/r) Theta',

with ' the grid's derivative in r or theta.  :class:`ClampedFamily` holds the
family in that form, so integrals against all its members are a few matrix
products and no member is ever formed.
"""

from __future__ import annotations

import numpy as np

from .grid import PolarGrid

# the family: profiles P_m for m < N_RADIAL, angular factors up to n = N_ANGULAR
N_RADIAL, N_ANGULAR = 4, 3


def clamped_radial_profiles(grid: PolarGrid, count: int) -> np.ndarray:
    """First ``count`` profiles (1-x^2)^2 T_m(x) on the mapped radial nodes, shape (count, n_r)."""
    span = grid.r_outer - grid.r_inner
    x = 2.0 * (grid.r - grid.r_inner) / span - 1.0
    window = (1.0 - x**2) ** 2
    m = np.arange(count)[:, None]
    return window * np.cos(m * np.arccos(np.clip(x, -1.0, 1.0)))


def angular_modes(grid: PolarGrid, n_angular: int) -> np.ndarray:
    """1, cos(n theta), sin(n theta) for 1 <= n <= n_angular below n_theta/2, one per row."""
    modes = [np.ones(grid.n_theta)]
    for n in range(1, min(n_angular, grid.n_theta // 2 - 1) + 1):
        modes += [np.cos(n * grid.theta), np.sin(n * grid.theta)]
    return np.array(modes)


class ClampedFamily:
    """The test fields curl(P_m Theta_n), held by their gradient frames.

    ``frames`` lists, for each frame component A, B, C, D in turn, the pairs
    (radial, angular) of arrays of shapes (N_RADIAL, n_r) and
    (n_angular_modes, n_theta) whose outer products sum to that component:
    component X of member (m, n) is the sum over X's pairs of
    ``radial[m][:, None] * angular[n][None, :]``.
    """

    def __init__(self, grid: PolarGrid):
        self.grid = grid
        r = grid.r[:, None]
        p = clamped_radial_profiles(grid, N_RADIAL).T
        dp = grid.diff_r(p)
        theta = angular_modes(grid, N_ANGULAR)
        d_theta = grid.diff_theta(theta)
        d2_theta = grid.diff_theta(d_theta)
        self.frames = (
            ((grid.diff_r(p / r).T, d_theta),),
            (((p / r**2).T, d2_theta), ((dp / r).T, theta)),
            ((-grid.diff_r(dp).T, theta),),
            (((p / r**2 - dp / r).T, d_theta),),
        )

    def integrals(self, weights) -> np.ndarray:
        """int W_A A + W_B B + W_C C + W_D D for each member, shape (N_RADIAL, n_angular_modes).

        ``weights`` are the four (n_r, n_theta) arrays W_A, W_B, W_C, W_D.
        """
        g = self.grid
        total = 0.0
        for weight, pairs in zip(weights, self.frames):
            for radial, angular in pairs:
                total = total + ((radial * g.w_area) @ weight) @ angular.T
        return total * g.w_theta

    def dirichlet_norms(self) -> np.ndarray:
        """Dirichlet norm of each member, shape (N_RADIAL, n_angular_modes)."""
        g = self.grid
        total = 0.0
        for pairs in self.frames:
            for radial_1, angular_1 in pairs:
                for radial_2, angular_2 in pairs:
                    total = total + np.outer((radial_1 * radial_2) @ g.w_area,
                                             (angular_1 * angular_2).sum(axis=1))
        return np.sqrt(np.maximum(total * g.w_theta, 0.0))
