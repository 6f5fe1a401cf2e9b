"""Static checks of the package source that need no linter: every name a
module imports is used in that module, importing the package loads no
`cryptography`, one function parses CSV text with numpy, one function
interpolates, one function spells the rule for an integer setting, one
writes a CSV table, one module knows how many records a message holds, and
every noisy release outside the epsilon sweep goes through `dp`."""
import ast
from operator import attrgetter
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


def import_time_imports(source: str, package: str) -> list[str]:
    """The modules of `package` that `source` imports when it is itself
    imported: at module level or in a class body, outside any function and
    outside `if TYPE_CHECKING:`."""
    found = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                found.extend(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                found.append(node.module)
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(source).body)
    return [name for name in found if name == package or name.startswith(package + ".")]


def test_no_module_level_cryptography_import():
    # The cipher library loads with the first cipher built (crypto._library),
    # so that Tier 2 and the size formulas run without it.
    found = {path.name: import_time_imports(path.read_text(), "cryptography")
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: modules for name, modules in found.items() if modules} == {}


def test_import_time_imports_skips_functions_and_type_checking():
    source = ("from typing import TYPE_CHECKING\nimport cryptography.x as c, cryptographyx\n"
              "if TYPE_CHECKING:\n    from cryptography import y\nelse:\n    import cryptography.z\n"
              "def f():\n    from cryptography import w\n"
              "class C:\n    from cryptography.v import u\n    def m(self):\n"
              "        import cryptography\n"
              "try:\n    import cryptography\nexcept ImportError:\n    pass\n")
    assert import_time_imports(source, "cryptography") == [
        "cryptography.x", "cryptography.z", "cryptography.v", "cryptography"]


def callers(source: str, module: str, library: str, function: str) -> set[str]:
    """The top-level functions (`module.name`, or `module.Class.name` for a
    method) of `source` that name `library`'s `function`; `module` if code
    outside any function names it."""
    tree = ast.parse(source)
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.Import) for alias in node.names if alias.name == library}
    direct = {alias.asname or alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.module == library
              for alias in node.names if alias.name == function}

    def names_function(node):
        return any(isinstance(n, ast.Attribute) and n.attr == function
                   and isinstance(n.value, ast.Name) and n.value.id in imported
                   or isinstance(n, ast.Name) and n.id in direct for n in ast.walk(node))

    def scope(node, prefix):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return f"{prefix}.{node.name}"
        return prefix

    parts = [(scope(node, module), node) for node in tree.body]
    parts += [(scope(member, f"{module}.{node.name}"), member) for node in tree.body
              if isinstance(node, ast.ClassDef) for member in node.body]
    return {name for name, node in parts
            if not isinstance(node, ast.ClassDef) and names_function(node)}


def package_callers(library: str, function: str) -> set[str]:
    return set().union(*(callers(path.read_text(), path.stem, library, function)
                         for path in PACKAGE.glob("*.py")))


def test_one_function_calls_loadtxt():
    assert package_callers("numpy", "loadtxt") == {"trace._parse_csv"}


def test_one_function_calls_interp():
    # reconstruct and the VR sweep share one reconstruction kernel
    assert package_callers("numpy", "interp") == {"inference._reconstruct_rows"}


def test_one_function_calls_operator_index():
    # every integer setting goes through trace._integer: a float, even 2.0, is refused
    assert package_callers("operator", "index") == {"trace._integer"}


def test_one_function_calls_csv_writer():
    # every CSV table, the population file's too, goes through one writer
    assert package_callers("csv", "writer") == {"trace.save_table_csv"}


def test_only_the_epsilon_sweep_draws_laplace_noise_outside_dp():
    # a release elsewhere is a dp.noisy_query, dp.add_noise or dp.perturb_series call
    assert package_callers("dp", "laplace_noise") == {"experiments.run_epsilon_sweep"}


def modules_naming(name: str) -> set[str]:
    """The package modules that name `name`: read it, read it as an
    attribute, or import it."""
    def names(node):
        return (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name)

    return {path.stem for path in PACKAGE.glob("*.py")
            if any(names(node) for node in ast.walk(ast.parse(path.read_text())))}


def test_only_crypto_knows_how_many_records_a_message_holds():
    # the batch rule is crypto.message_batch
    assert modules_naming("MAX_MESSAGE_RECORDS") == {"crypto"}


def test_loadtxt_callers_sees_aliases_methods_and_module_code():
    source = ("import numpy\nfrom numpy import loadtxt as lt\nrows = numpy.loadtxt('a')\n"
              "def f():\n    return lt\ndef g():\n    return numpy.load\n"
              "class C:\n    def m(self):\n        return numpy.loadtxt\n")
    assert callers(source, "m", "numpy", "loadtxt") == {"m", "m.f", "m.C.m"}
    source = ("import operator as op\nfrom operator import index\n"
              "def f(x):\n    return op.index(x)\nn = index(1)\n")
    assert callers(source, "m", "operator", "index") == {"m", "m.f"}


def package_reads(source: str, name: str = "io") -> set[str]:
    """Every dotted attribute path that `source` reads off a variable `name`,
    with `name` dropped: `io.experiments.run_vr_sweep` gives
    `experiments.run_vr_sweep` and `experiments`."""
    paths = set()
    for node in ast.walk(ast.parse(source)):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id == name:
            paths.add(".".join(reversed(parts)))
    return paths


def test_package_reads_follows_attribute_chains():
    source = "def f(io, x):\n    return io.a.b(io.c['k'], x.d, io)\n"
    assert package_reads(source) == {"a", "a.b", "c"}


def test_package_has_every_name_the_benchmark_reads():
    # perfbench/run.py imports the package and its experiments module, then
    # hands the package to each workload as `io`
    import ioht_pipeline.experiments

    workloads = PACKAGE.parent.parent / "perfbench" / "workloads.py"
    paths = package_reads(workloads.read_text())
    assert "load_csv" in paths and "experiments.run_vr_sweep" in paths
    missing = []
    for path in sorted(paths):
        try:
            attrgetter(path)(ioht_pipeline)
        except AttributeError:
            missing.append(path)
    assert missing == []
