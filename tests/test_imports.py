"""The package's internal imports, read from its source with `ast`, and
what importing it loads."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

PACKAGE = Path("src/bgpsteer")


def module_imports(source: str) -> set[str]:
    """The package modules `source` imports at module level (`from .x
    import ...`, `from . import x`), leaving out `if TYPE_CHECKING:` blocks,
    which never run.  Imports inside functions and classes run only when
    called, so they are not read."""
    found: set[str] = set()
    stack = list(ast.parse(source).body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If):
            checking = isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING"
            stack += node.orelse if checking else node.body + node.orelse
        elif isinstance(node, ast.Try):
            stack += node.body + node.orelse + node.finalbody
            stack += [s for handler in node.handlers for s in handler.body]
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_module_imports_reads_module_level_imports_outside_type_checking():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from .routes import Route\n"
        "if TYPE_CHECKING:\n    from .policies import PolicyCatalog\n"
        "else:\n    from .flows import Flow\n"
        "try:\n    from .engine import TeConfig\nexcept ImportError:\n    from . import scenario\n"
        "def f():\n    from .planner import Plan\n"
        "from . import cli, topology  # noqa: E402\n"
    )
    assert module_imports(source) == {"routes", "flows", "engine", "scenario", "cli", "topology"}


def test_the_package_imports_form_a_dag():
    """Each module of the package imports only modules of the package, and
    no chain of imports comes back to where it started."""
    graph = {path.stem: module_imports(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    assert set().union(*graph.values()) <= set(graph)
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        pytest.fail("import cycle: " + " -> ".join(exc.args[1]))
    assert graph["topology"] == set() and graph["routes"] == {"topology"}


def test_importing_the_cli_does_not_load_dataclasses():
    """Every record is a NamedTuple, so a fresh interpreter that imports the
    CLI never loads `dataclasses` (nor the `inspect`, `ast` and `dis` that
    it imports)."""
    code = "import sys, bgpsteer.cli; print('dataclasses' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def test_no_package_class_is_a_dataclass():
    classes = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module("bgpsteer" if path.stem == "__init__" else f"bgpsteer.{path.stem}")
        for _, c in inspect.getmembers(module, inspect.isclass):
            if c.__module__ == module.__name__:
                classes[f"{module.__name__}.{c.__qualname__}"] = c
    assert {"bgpsteer.topology.Topology", "bgpsteer.planner.Objective"} <= set(classes)
    assert [name for name, c in classes.items() if dataclasses.is_dataclass(c)] == []
