"""Package surface: the public names and options, and no unused imports in the modules.

The solver's steps run only inside ``solve`` and ``sweep``, and the pressure
has one solver, the least-squares Neumann solve; the package exports no
second way into either.  The boundary datum has one extension, the Stokes
solution: ``stokes_solve`` returns its velocity, and the Stokes pressure
comes from ``solve`` at lambda = 0.  No linter runs on the sources, so
``ast`` walks check that every module-level import of the package and of its
tests is used by its own module, and that every module-level private name of
the package is read by its own module or imported by another one, and that
only the grid applies its per-mode factors.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

import pytest

import annulus_flux
from annulus_flux import PolarGrid, StokesSolution, solve, stokes_solve

PACKAGE = Path(annulus_flux.__file__).parent
# every package module but __init__.py, which imports to re-export, and every
# test module, keyed by the test id
MODULES = {p.name: p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
MODULES.update({f"tests/{p.name}": p for p in Path(__file__).parent.glob("*.py")})


@pytest.mark.parametrize("name", ["picard_step", "newton_step", "pressure_poisson"])
def test_single_step_and_dirichlet_pressure_not_exported(name):
    assert not hasattr(annulus_flux, name)
    assert name not in annulus_flux.__all__


def test_grid_holds_no_dirichlet_factors():
    assert not hasattr(PolarGrid, "dirichlet_lu")


def test_public_names():
    # __all__ is every public function and class of the package namespace;
    # the submodules imported while the package loads stay out of it
    assert sorted(annulus_flux.__all__) == [
        "AmickProfile", "BoundaryTrace", "ContinuationTrace", "DiagnosticsRecord",
        "PolarGrid", "ScalarField", "SolveReport", "SolverConfig",
        "StokesSolution", "SweepPoint", "VelocityField", "amick_flow", "amick_pressure_drop",
        "bernoulli_deviation", "boundary_pressures", "build_grid", "couette",
        "couette_trace", "curl", "curl_of_stream", "diagnostics_for_fields",
        "diagnostics_for_solution", "dirichlet_norm", "divergence", "euler_residual",
        "flux_carrier", "flux_inner", "head_pressure",
        "identity_37", "identity_energy", "integrate", "make_trace",
        "max_principle_check", "normalize",
        "pressure_from_momentum", "pure_flux_trace", "radial_source", "read_velocity_csv",
        "solve", "spiral_flow", "spiral_trace", "stokes_solve", "stream_function",
        "sweep", "weak_residual", "write_scalar_csv", "write_velocity_csv",
    ]


def test_public_options():
    # every parameter with a default of the public callables, pinned as the
    # names are above: an option comes back only by changing this table
    options = {}
    for name in annulus_flux.__all__:
        parameters = inspect.signature(getattr(annulus_flux, name)).parameters.values()
        optional = [p.name for p in parameters if p.default is not inspect.Parameter.empty]
        if optional:
            options[name] = optional
    assert options == {
        "AmickProfile": ["lambda0", "r_inner", "r_outer"],
        "BoundaryTrace": ["normal_outer", "angular_outer", "normal_inner", "angular_inner"],
        "ContinuationTrace": ["points"],
        "SolverConfig": ["nu", "lam", "method", "tol", "max_iter"],
        "bernoulli_deviation": ["n_levels", "critical_rel", "full_output"],
        "couette_trace": ["r_inner", "r_outer"],
        "pure_flux_trace": ["r_inner", "r_outer"],
        "solve": ["warm_start"],
        "spiral_trace": ["r_inner", "r_outer"],
        "stream_function": ["flux_tol", "div_tol"],
    }
    assert sum(map(len, options.values())) == 25


def test_stokes_entry_points():
    assert list(inspect.signature(solve).parameters) == ["grid", "trace", "cfg", "warm_start"]
    assert list(inspect.signature(stokes_solve).parameters) == ["grid", "trace"]
    assert [f.name for f in dataclasses.fields(StokesSolution)] == [
        "velocity", "trace_error", "norm_ratio"]


def imported_names(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports of ``tree``, bar ``__future__``."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    return names


@pytest.mark.parametrize("path", sorted(MODULES))
def test_every_module_import_is_used(path):
    tree = ast.parse(MODULES[path].read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []


def private_names(tree: ast.Module) -> set[str]:
    """Private (``_x``) names bound at module level by ``tree``, dunders aside."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    return {name for name in bound if name.startswith("_") and not name.startswith("__")}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    # read in its own module, or imported from it by another package module
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    imported = set()
    for other in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(other.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == path.stem:
                imported.update(alias.name for alias in node.names)
    assert sorted(private_names(tree) - read - imported) == []


def test_only_the_grid_applies_block_factors():
    # every modal solve packs its right-hand side through grid.solve_modes
    def names(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name

    users = sorted(path.name for path in PACKAGE.glob("*.py") if "solve_blocks" in names(path))
    assert users == ["grid.py"]
