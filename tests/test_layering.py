"""The package's intended import layering and its count of settable
values, read statically.

Importing ``absorbctl.planar`` runs the package ``__init__``, which loads
every module, so ``sys.modules`` cannot tell which module imports which;
the import statements are read with ``ast`` instead.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "absorbctl"

# defaulted parameters and dataclass fields across the package; a new knob
# must replace an old one
MAX_SETTABLE = 16
# lines of the package's modules, as `cat src/absorbctl/*.py | wc -l` counts
# them; a change that grows the package raises this cap and says why
MAX_SOURCE_LINES = 2459


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


def test_planar_example_rests_on_errors_and_model_only():
    assert package_imports("planar") == {"errors", "model"}


def test_generated_kernels_rest_on_no_loop_module():
    # the generated code takes every callable and gain as an argument
    assert package_imports("kernels") <= {"errors"}


@pytest.mark.parametrize("layer", ["predictor", "rk4", "simulator", "controller", "planar"])
def test_checks_do_not_reach_into_the_loop(layer):
    assert layer not in package_imports("verification")


def test_every_import_names_a_module_of_the_package():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    for path in PACKAGE.glob("*.py"):
        assert absorbctl_imports(path.read_text()) <= modules, path.name


def settable_values(source: str) -> int:
    """Defaulted parameters of the functions (lambdas not counted) and
    defaulted fields of the dataclasses in the module ``source``."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(default is not None for default in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(deco) for deco in node.decorator_list):
            count += sum(isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                         for stmt in node.body)
    return count


def test_counter_sees_every_settable_form():
    source = ("from dataclasses import dataclass, field\n"
              "def f(a, b=1, *, c=2, d):\n    return lambda x=0: x\n"
              "@dataclass(frozen=True)\nclass C:\n    x: int\n    y: int = 0\n"
              "    z: list = field(default_factory=list)\n    def m(self, k=3): pass\n"
              "class Plain:\n    w: int = 1\n")
    assert settable_values(source) == 5


def test_settable_values_are_capped():
    total = sum(settable_values(path.read_text()) for path in PACKAGE.glob("*.py"))
    assert total <= MAX_SETTABLE


def test_source_lines_are_capped():
    total = sum(path.read_text().count("\n") for path in PACKAGE.glob("*.py"))
    assert total <= MAX_SOURCE_LINES


def test_every_check_the_cli_runs_is_a_table_entry():
    # a seventh check arrives as an entry: verification.py defines no check_*
    # function, and each check_* that cli imports writes the report it names
    from absorbctl import SampleSpec, build_planar_example, verification

    source = (PACKAGE / "verification.py").read_text()
    assert not [node.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")]
    imported = [alias.name for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text()))
                if isinstance(node, ast.ImportFrom) and node.module == "verification"
                for alias in node.names if alias.name.startswith("check_")]
    entries = [getattr(verification, name) for name in imported]
    assert len(entries) == 6
    assert all(isinstance(entry, verification._SampledCheck) for entry in entries)
    plant, assm = build_planar_example(0.01)[:2]
    names = [entry(plant, assm, SampleSpec(n_points=1)).name for entry in entries]
    assert names == [entry.name for entry in entries] and len(set(names)) == 6


# lines that normalise a value's type again: ``np.asarray(``, ``atleast_1d`` or
# ``reshape(-1)``; results are normalised where the user's callables enter, so
# this count may only go down
MAX_RENORMALISING_LINES = 20


def test_renormalising_lines_are_capped():
    total = sum(len(re.findall(r"^.*(?:np\.asarray\(|atleast_1d|reshape\(-1\)).*$",
                               path.read_text(), re.MULTILINE))
                for path in PACKAGE.glob("*.py"))
    assert total <= MAX_RENORMALISING_LINES


def test_no_module_state_is_rebound():
    # a ``global`` statement makes a function's behaviour hang on module state
    for path in PACKAGE.glob("*.py"):
        assert not any(isinstance(node, ast.Global)
                       for node in ast.walk(ast.parse(path.read_text()))), path.name


def names_numpy_random(source: str) -> bool:
    """Whether the module ``source`` imports ``numpy.random`` or reads it as
    ``np.random`` or ``numpy.random``; a docstring naming it does not count."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found = node.attr == "random" and ast.unparse(node.value) in ("np", "numpy")
        elif isinstance(node, ast.Import):
            found = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found = node.module.startswith("numpy.random") or (
                node.module == "numpy" and any(alias.name == "random" for alias in node.names))
        else:
            found = False
        if found:
            return True
    return False


def test_numpy_random_reader_sees_every_form():
    for source in ("import numpy as np\nnp.random.default_rng(0)\n", "import numpy.random\n",
                   "from numpy.random import default_rng\n", "from numpy import random\n",
                   "import numpy\nnumpy.random.seed\n"):
        assert names_numpy_random(source), source
    assert not names_numpy_random('"""Bits of numpy.random.default_rng."""\nimport random\n'
                                  "from . import random\nrandom.random()\n")


def test_no_module_uses_numpy_random():
    # seeds become bits in absorbctl.stream, whose draws numpy's releases cannot change
    for path in PACKAGE.glob("*.py"):
        assert not names_numpy_random(path.read_text()), path.name


def test_declared_numpy_has_vecdot_and_matvec():
    # np.vecdot came in numpy 2.0 and np.matvec in 2.2
    pyproject = (PACKAGE.parents[1] / "pyproject.toml").read_text()
    (floor,) = re.findall(r'"numpy>=(\d+)\.(\d+)', pyproject)
    assert tuple(map(int, floor)) >= (2, 2)


PROCESS_MODULES = {"multiprocessing", "concurrent", "subprocess"}


def forks(source: str) -> bool:
    """Whether the module ``source`` names ``os.fork``, called or imported."""
    return any((isinstance(node, ast.Attribute) and node.attr == "fork"
                and ast.unparse(node.value) == "os")
               or (isinstance(node, ast.ImportFrom) and node.module == "os"
                   and any(alias.name == "fork" for alias in node.names))
               for node in ast.walk(ast.parse(source)))


def top_level_imports(source: str) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_process_readers_see_every_form():
    assert forks("import os\nos.fork()\n") and forks("from os import fork\n")
    assert not forks("import os\nos.forkpty\nos.getpid()\n")
    assert top_level_imports("import concurrent.futures\nfrom multiprocessing import Pool\n"
                             "import subprocess as sp\nfrom . import model\n") == PROCESS_MODULES


def test_only_the_checks_fork():
    # _run_checks forks its children itself; nothing else starts processes
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert {name for name, source in sources.items() if forks(source)} == {"verification"}
    assert [node.name for node in ast.parse(sources["verification"]).body
            if isinstance(node, ast.FunctionDef) and forks(ast.unparse(node))] == ["_run_checks"]
    for name, source in sources.items():
        assert not top_level_imports(source) & PROCESS_MODULES, name
