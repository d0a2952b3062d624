"""The package's import graph: every module imports first, and no import
hides inside a function."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
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
    # a deferred import hid the cycle sets -> epigraph -> methods -> sets;
    # trace's module-level ``if TYPE_CHECKING:`` import is not in a function
    found = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [f"{type(inner).__name__} at line {inner.lineno}"
                      for inner in ast.walk(node)
                      if isinstance(inner, (ast.Import, ast.ImportFrom))]
        if isinstance(node, ast.Global):
            found.append(f"global at line {node.lineno}")
    assert found == []


def test_the_module_graph_is_acyclic():
    # functions, trace -> sets -> methods -> epigraph, lifting -> cli
    edges = {}
    for name in MODULES:
        deps = set()
        for node in _tree(name).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                deps |= {node.module} if node.module else {a.name for a in node.names}
        edges[name] = deps & set(MODULES)
    assert "epigraph" not in edges["sets"]
    order = []
    while len(order) < len(edges):
        ready = sorted(n for n, deps in edges.items() if n not in order and deps <= set(order))
        assert ready, f"cycle among {sorted(set(edges) - set(order))}"
        order += ready
    assert order.index("sets") < order.index("methods") < order.index("epigraph")
    assert order[-1] == "cli"
