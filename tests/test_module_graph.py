"""The import graph between the package's modules.

Module-level imports between package modules form no cycle, so no module
needs a function-level import to break one.  The only function-level
package import is of ``traces``, which is deferred to keep the scalar
session classes off the CLI's path.  Only ``_pcg64`` loads
``numpy.random``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hasqoe

PACKAGE = Path(hasqoe.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}


def package_imports(tree: ast.AST):
    """``(module, in_function)`` for each import of a package module under ``tree``."""

    def visit(node, in_function):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            targets = [node.module] if node.module else [alias.name for alias in node.names]
            for target in targets:
                if target in MODULES:
                    yield target, in_function
        in_function = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for child in ast.iter_child_nodes(node):
            yield from visit(child, in_function)

    return visit(tree, False)


def uses_numpy_random(tree: ast.AST) -> bool:
    """Whether ``tree`` imports ``numpy.random`` or reads a ``random`` attribute of numpy."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
                alias.name.startswith("numpy.random") for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (
                (node.module or "").startswith("numpy.random")
                or node.module == "numpy" and any(a.name == "random" for a in node.names)):
            return True
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            return True
    return False


def import_graph() -> dict[str, dict[str, set[str]]]:
    """Each module's package imports, as ``{"module": set, "function": set}``."""
    graph = {}
    for name in sorted(MODULES):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        imports = {"module": set(), "function": set()}
        for target, in_function in package_imports(tree):
            imports["function" if in_function else "module"].add(target)
        graph[name] = imports
    return graph


def first_cycle(edges: dict[str, set[str]]):
    """The first import cycle of ``edges`` as a tuple of names, its start repeated at its end."""
    done: set[str] = set()

    def visit(name, path):
        if name in path:
            return (*path[path.index(name):], name)
        if name not in done:
            for target in sorted(edges[name]):
                found = visit(target, (*path, name))
                if found:
                    return found
            done.add(name)
        return None

    return next(filter(None, (visit(name, ()) for name in sorted(edges))), None)


def test_module_level_imports_form_no_cycle() -> None:
    assert first_cycle({"a": {"b"}, "b": {"c"}, "c": {"a", "d"}, "d": set()}) == (
        "a", "b", "c", "a")
    edges = {name: imports["module"] for name, imports in import_graph().items()}
    assert edges["cli"] >= {"baselines", "evaluation", "fitting", "io", "model", "synth"}
    assert first_cycle(edges) is None


def test_only_traces_is_imported_inside_a_function() -> None:
    deferred = {name: imports["function"] for name, imports in import_graph().items()}
    assert deferred["io"] == {"traces"}
    assert set().union(*deferred.values()) == {"traces"}


def test_importing_evaluation_loads_neither_fitting_nor_baselines() -> None:
    code = "import sys, hasqoe.evaluation; print(sorted(m for m in sys.modules if 'hasqoe' in m))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    assert result.stdout == (
        "['hasqoe', 'hasqoe._pcg64', 'hasqoe.errors', 'hasqoe.evaluation', 'hasqoe.model']\n"
    )


def test_only_pcg64_loads_numpy_random() -> None:
    spellings = ["import numpy.random", "import numpy.random as npr", "from numpy import random",
                 "from numpy.random import PCG64", "def f():\n    return np.random.PCG64",
                 "x = numpy.random"]
    assert all(uses_numpy_random(ast.parse(code)) for code in spellings)
    assert not uses_numpy_random(ast.parse("import random\nfrom numpy import linalg\nx.random"))
    users = {name for name in MODULES
             if uses_numpy_random(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")))}
    assert users == {"_pcg64"}
