"""Steady incompressible Navier-Stokes on the annulus with net boundary flux.

A spectral (Chebyshev x Fourier) collocation solver for the steady
Navier-Stokes system in the annulus r_inner < |x| < r_outer with velocity
boundary data carrying a prescribed net flux through the inner circle,
together with diagnostics that mechanize the measurable skeleton of the
continuation existence argument (homotopy family, blow-up normalization,
Bernoulli law, one-sided maximum principle, boundary pressure constants and
the associated integral identities) against closed-form reference flows.
"""

from types import ModuleType as _ModuleType

from .boundary import (
    BoundaryTrace,
    couette_trace,
    flux_carrier,
    make_trace,
    pure_flux_trace,
    spiral_trace,
)
from .diagnostics import (
    DiagnosticsRecord,
    bernoulli_deviation,
    boundary_pressures,
    diagnostics_for_fields,
    diagnostics_for_solution,
    euler_residual,
    head_pressure,
    identity_37,
    identity_energy,
    max_principle_check,
    normalize,
)
from .fields import (
    ScalarField,
    VelocityField,
    curl,
    curl_of_stream,
    dirichlet_norm,
    divergence,
    flux_inner,
    read_velocity_csv,
    stream_function,
    write_scalar_csv,
    write_velocity_csv,
)
from .grid import PolarGrid, build_grid, integrate
from .navier_stokes import (
    ContinuationTrace,
    SolveReport,
    SolverConfig,
    SweepPoint,
    solve,
    sweep,
    weak_residual,
)
from .oracle import (
    AmickProfile,
    amick_flow,
    amick_pressure_drop,
    couette,
    radial_source,
    spiral_flow,
)
from .stokes import (
    StokesSolution,
    pressure_from_momentum,
    stokes_solve,
)

__version__ = "0.1.0"

# public functions and classes; a star import binds no submodule such as grid
__all__ = [name for name in dir()
           if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)]
