"""The package's intended import layering, read statically.

Importing ``absorbctl.planar`` runs the package ``__init__``, which loads
every module, so ``sys.modules`` cannot tell which module imports which;
the import statements are read with ``ast`` instead.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "absorbctl"


def absorbctl_imports(source: str) -> set[str]:
    """Names of the ``absorbctl`` modules that the module ``source`` imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("absorbctl."):
                found.add(node.module.split(".")[1])
            elif node.module == "absorbctl":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("absorbctl."))
    return found


def package_imports(module: str) -> set[str]:
    return absorbctl_imports((PACKAGE / f"{module}.py").read_text())


def test_reader_sees_every_import_form():
    source = ("from .model import PlantModel\nfrom . import rk4\n"
              "from absorbctl.errors import NonFiniteError\nimport absorbctl.halton as h\n"
              "from absorbctl import observer\nimport numpy\n")
    assert absorbctl_imports(source) == {"model", "rk4", "errors", "halton", "observer"}


def test_planar_example_rests_on_the_model_and_observer_only():
    assert package_imports("planar") == {"errors", "model", "observer"}


@pytest.mark.parametrize("layer", ["predictor", "rk4", "simulator", "controller", "planar"])
def test_checks_do_not_reach_into_the_loop(layer):
    assert layer not in package_imports("verification")


def test_every_import_names_a_module_of_the_package():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    for path in PACKAGE.glob("*.py"):
        assert absorbctl_imports(path.read_text()) <= modules, path.name
