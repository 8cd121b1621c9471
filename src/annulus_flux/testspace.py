"""Divergence-free test fields with zero boundary trace.

Used by the weak-form residual checks: curls of clamped stream functions
(1 - x^2)^2 T_m(x) * {cos, sin}(n theta) vanish with their first radial
derivative at both circles, so the resulting velocities are admissible
test fields for the weak formulation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .fields import ScalarField, VelocityField, curl_of_stream
from .grid import PolarGrid


def clamped_radial_profiles(grid: PolarGrid, count: int) -> list[np.ndarray]:
    """First ``count`` profiles (1-x^2)^2 T_m(x) on the mapped radial nodes."""
    span = grid.r_outer - grid.r_inner
    x = 2.0 * (grid.r - grid.r_inner) / span - 1.0
    window = (1.0 - x**2) ** 2
    profiles = []
    for m in range(count):
        profiles.append(window * np.cos(m * np.arccos(np.clip(x, -1.0, 1.0))))
    return profiles


def divergence_free_test_fields(grid: PolarGrid, n_radial: int = 4,
                                n_angular: int = 3) -> Iterator[VelocityField]:
    """Curls of the clamped stream family, zero trace and exactly solenoidal.

    Yielded one at a time, so a caller that differentiates each field holds
    one field's cached derivatives, not the whole family's.
    """
    for profile in clamped_radial_profiles(grid, n_radial):
        base = profile[:, None]
        angulars = [np.ones(grid.n_theta)]
        for n in range(1, n_angular + 1):
            if n >= grid.n_theta // 2:
                break
            angulars.append(np.cos(n * grid.theta))
            angulars.append(np.sin(n * grid.theta))
        for ang in angulars:
            psi = ScalarField(grid, base * ang[None, :])
            yield curl_of_stream(psi)
