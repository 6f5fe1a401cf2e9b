"""Static checks of the package source that need no linter: every name a
module imports is used in that module, and one function parses CSV text
with numpy."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ioht_pipeline"
# The package's __init__ imports names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names `source` binds by import and never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_sees_through_attributes_and_aliases():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from typing import Optional, Sequence\nx: Optional[int] = np.pi\n")
    assert unused_imports(source) == ["os", "Sequence"]


def loadtxt_callers(source: str, module: str) -> set[str]:
    """The top-level functions (`module.name`, or `module.Class.name` for a
    method) of `source` that name numpy's loadtxt; `module` if code outside
    any function names it."""
    tree = ast.parse(source)
    numpy = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names if alias.name == "numpy"}
    loadtxt = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "numpy"
               for alias in node.names if alias.name == "loadtxt"}

    def names_loadtxt(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "loadtxt"
                   and isinstance(n.value, ast.Name) and n.value.id in numpy
                   or isinstance(n, ast.Name) and n.id in loadtxt for n in ast.walk(node))

    def scope(node, prefix):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return f"{prefix}.{node.name}"
        return prefix

    parts = [(scope(node, module), node) for node in tree.body]
    parts += [(scope(member, f"{module}.{node.name}"), member) for node in tree.body
              if isinstance(node, ast.ClassDef) for member in node.body]
    return {name for name, node in parts
            if not isinstance(node, ast.ClassDef) and names_loadtxt(node)}


def test_one_function_calls_loadtxt():
    callers = set().union(*(loadtxt_callers(path.read_text(), path.stem)
                            for path in PACKAGE.glob("*.py")))
    assert callers == {"trace._parse_csv"}


def test_loadtxt_callers_sees_aliases_methods_and_module_code():
    source = ("import numpy\nfrom numpy import loadtxt as lt\nrows = numpy.loadtxt('a')\n"
              "def f():\n    return lt\ndef g():\n    return numpy.load\n"
              "class C:\n    def m(self):\n        return numpy.loadtxt\n")
    assert loadtxt_callers(source, "m") == {"m", "m.f", "m.C.m"}
