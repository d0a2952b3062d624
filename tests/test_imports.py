"""The package's import graph: every module imports first, and no import
hides inside a function."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "drsplit"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")

# import one submodule with nothing of the package loaded before it: the
# package itself is a bare namespace, so its __init__ imports nothing first
FIRST_IMPORT = """
import importlib, sys, types
package = types.ModuleType("drsplit")
package.__path__ = [{path!r}]
sys.modules["drsplit"] = package
importlib.import_module("drsplit.{name}")
"""


@pytest.mark.parametrize("name", MODULES)
def test_each_module_imports_first(name):
    code = FIRST_IMPORT.format(path=str(PACKAGE), name=name)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr


def _tree(name):
    path = PACKAGE / f"{name}.py"
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("name", ["__init__", *MODULES])
def test_no_import_or_global_inside_a_function(name):
    # a deferred import hid the cycle sets -> epigraph -> methods -> sets
    found = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{type(inner).__name__} at line {inner.lineno}"
                      for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))]
        if isinstance(node, ast.Global):
            found.append(f"global at line {node.lineno}")
    assert found == []


def _package_imports(name):
    """The package modules that a module imports, each import a statement
    of the module body, under no condition such as ``if TYPE_CHECKING:``."""
    tree = _tree(name)
    deps = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            assert node in tree.body, f"{name}: conditional import at line {node.lineno}"
            deps |= {node.module} if node.module else {a.name for a in node.names}
    return deps & set(MODULES)


def test_sets_imports_no_package_module_and_trace_only_sets():
    # sets owns the inner products and norms its projectors' bits rest on,
    # and trace derives its columns with them
    assert _package_imports("sets") == set()
    assert _package_imports("trace") == {"sets"}


def test_methods_imports_no_set_descriptor():
    # Spingarn's affine reduction belongs to the descriptors that own it:
    # methods reads the subspace and shift an affine set keeps, and names
    # no ConvexSet subclass
    sets = importlib.import_module("drsplit.sets")
    names = {a.name for node in _tree("methods").body if isinstance(node, ast.ImportFrom)
             and node.level == 1 and node.module == "sets" for a in node.names}
    assert "ConvexSet" in names
    assert [n for n in sorted(names) if isinstance(getattr(sets, n), type)
            and issubclass(getattr(sets, n), sets.ConvexSet)] == ["ConvexSet"]


def test_the_module_graph_is_acyclic():
    # functions, sets -> trace -> methods -> epigraph, lifting -> cli
    edges = {name: _package_imports(name) for name in MODULES}
    order = []
    while len(order) < len(edges):
        ready = sorted(n for n, deps in edges.items() if n not in order and deps <= set(order))
        assert ready, f"cycle among {sorted(set(edges) - set(order))}"
        order += ready
    assert order.index("sets") < order.index("methods") < order.index("epigraph")
    assert order[-1] == "cli"


def test_every_module_parses_at_the_least_python_it_claims():
    # requires-python is ">=3.10": every module's syntax must be 3.10's.
    # ast checks syntax only, not API; the API the package leans on at that
    # version includes dataclass(slots=True), new in 3.10 (Termination)
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    least = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.M)
    version = (int(least[1]), int(least[2]))
    assert version == (3, 10)
    for name in ["__init__", *MODULES]:
        path = PACKAGE / f"{name}.py"
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
