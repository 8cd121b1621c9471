"""Package surface: the public names, and no unused imports in the modules.

The solver's steps run only inside ``solve`` and ``sweep``, and the pressure
has one solver, the least-squares Neumann solve; the package exports no
second way into either.  No linter runs on the sources, so an ``ast`` walk
checks that every module-level import of the package and of its tests is used
by its own module.
"""

import ast
from pathlib import Path

import pytest

import annulus_flux
from annulus_flux import PolarGrid

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
