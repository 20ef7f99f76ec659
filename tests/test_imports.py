"""Every module of the package uses each name it imports at module level,
and every module-level private name is used somewhere in the package.

Checked with the standard library's ``ast``, so no linter is needed.  The
last test checks which modules ``import fatoulab.cli`` executes.
"""

import ast
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "fatoulab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(tree) -> list:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_modules_found():
    assert len(MODULES) >= 9


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def _private_definitions(tree):
    """(name, node) for each private name (one leading underscore) that the
    module defines or imports at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.asname for alias in node.names if alias.asname]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_name_is_used():
    # a helper whose last caller is gone stays behind unnoticed otherwise
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in SRC.glob("*.py")}
    uses = defaultdict(set)  # name -> ids of the nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].add(id(node))
            elif isinstance(node, ast.Attribute):
                uses[node.attr].add(id(node))
    unused = [f"{module}: {name} (line {definition.lineno})"
              for module, tree in sorted(trees.items())
              for name, definition in _private_definitions(tree)
              if not uses[name] - {id(n) for n in ast.walk(definition)}]
    assert unused == []


def test_cli_does_not_execute_the_renderer():
    # start-up: a process without cached bytecode compiles every module it
    # executes, and only render needs the renderer.  The module is in
    # sys.modules from the start (so that wrappers installed after import
    # find it) but runs on first use, and the package resolves it on demand
    probe = """
import sys, types
import fatoulab.cli
lazy = sys.modules.get("fatoulab.renderer")
print(lazy is None or type(lazy) is not types.ModuleType)
import fatoulab
print(fatoulab.renderer.GridSpec.__name__, type(fatoulab.renderer) is types.ModuleType)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["True", "GridSpec", "True"]
