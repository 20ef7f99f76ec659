"""Every module of the package uses each name it imports at module level,
and every module-level private name is used somewhere in the package.

Checked with the standard library's ``ast``, so no linter is needed.  The
last test checks which modules ``import fatoulab.cli`` and six of its
commands execute.
"""

import ast
import json
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


def _defaulted_parameters(tree):
    """(function name, parameter, positional index or None) for each
    parameter with a default of a module-level function or method; a
    method's index counts ``self`` or ``cls``, and ``__init__`` is called by
    its class's name.  Nested functions are skipped."""
    functions = [(node, node.name, False) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        functions += [(node, cls.name if node.name == "__init__" else node.name, True)
                      for node in cls.body if isinstance(node, ast.FunctionDef)]
    for node, name, method in functions:
        a = node.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        shift = int(method and not static)
        positional = a.posonlyargs + a.args
        for i in range(len(positional) - len(a.defaults), len(positional)):
            yield name, positional[i].arg, i - shift
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def test_every_default_is_overridden_somewhere():
    # a parameter that no call sets is a constant with the cost of a knob
    roots = [SRC, SRC.parents[1] / "tests", SRC.parents[1] / "perfbench"]
    calls = defaultdict(list)  # callee name -> call nodes
    for path in (p for root in roots for p in root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                f = node.func
                calls[getattr(f, "id", getattr(f, "attr", None))].append(node)

    def passes(call, param, index):
        if any(k.arg in (param, None) for k in call.keywords):  # None: **kw
            return True
        if index is None:
            return False
        return (len(call.args) > index
                or any(isinstance(a, ast.Starred) for a in call.args))

    unset = [f"{path.name}: {name}({param})"
             for path in MODULES
             for name, param, index in _defaulted_parameters(
                 ast.parse(path.read_text(encoding="utf-8")))
             if not any(passes(c, param, index) for c in calls[name])]
    assert unset == []


_LAZY = ("blaschke", "circle_dynamics", "covering", "harmonic", "histograms", "map_zoo",
         "renderer")

# the probe prints, as its last line, which of _LAZY have been executed: after
# ``import fatoulab.cli``, and then after running the command in its argv.  A
# render on one thread does not import the thread pool
_PROBE = f"""
import json, sys, types
import fatoulab.cli
def executed():
    return [name for name in {_LAZY!r}
            if type(sys.modules[f"fatoulab.{{name}}"]) is types.ModuleType]
if len(sys.argv) > 1:
    assert fatoulab.cli.main(sys.argv[1:]) == 0
    assert sys.argv[1] != "render" or "concurrent.futures" not in sys.modules
else:
    print(json.dumps(executed()))
    import fatoulab
    assert fatoulab.renderer.GridSpec.__name__ == "GridSpec"
    assert type(fatoulab.renderer) is types.ModuleType
print(json.dumps(executed()))
"""

# command: (argv, modules it executes, modules it must not execute)
_COMMAND_MODULES = {
    "render": (["render", "--map", '{"kind": "exp_baker", "alpha": 0.4}',
                "--config", "grid.json"],
               {"map_zoo", "renderer"},
               {"blaschke", "circle_dynamics", "covering", "harmonic", "histograms"}),
    "harmonic": (["harmonic", "--domain", "annulus", "--method", "wos", "--walks", "100",
                  "--seed", "1"],
                 {"harmonic", "histograms"}, {"blaschke", "circle_dynamics", "renderer"}),
    "circle-stats": (["circle-stats", "--map", '{"kind": "blaschke", "alpha": 0.4}',
                      "--n", "100", "--seed", "1"],
                     {"blaschke", "circle_dynamics", "histograms"},
                     {"covering", "harmonic", "renderer"}),
    "spread": (["spread", "--map", '{"kind": "rotation", "theta": 1.0}', "--arc", "1.0,0.01",
                "--n-max", "3"],
               {"circle_dynamics", "histograms", "map_zoo"},
               {"blaschke", "covering", "harmonic", "renderer"}),
    "classify-radial": (["classify-radial", "--R", "2", "--xi", "0.3"],
                        {"covering", "map_zoo"},
                        {"blaschke", "circle_dynamics", "harmonic", "histograms", "renderer"}),
    "tau": (["tau", "--alpha", "0.4"],
            {"blaschke"},
            {"circle_dynamics", "covering", "harmonic", "histograms", "map_zoo", "renderer"}),
}


def _executed(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=env, cwd=cwd,
                         capture_output=True, text=True, check=True).stdout
    return out.splitlines()


def test_cli_does_not_execute_the_renderer(tmp_path):
    # start-up: a process without cached bytecode compiles every module it
    # executes.  ``import fatoulab.cli`` places the modules of _LAZY in
    # sys.modules (so that wrappers installed after import find them) but
    # executes none of them: each runs on first use, and the package
    # resolves it on demand.  So each command executes only what it uses
    lines = _executed([], tmp_path)
    assert json.loads(lines[0]) == [] and json.loads(lines[-1]) == ["map_zoo", "renderer"]
    (tmp_path / "grid.json").write_text(json.dumps(
        {"center": [0.0, 0.0], "width": 4.0, "height": 4.0, "nx": 8, "ny": 8, "max_iter": 8}))
    for command, (argv, runs, skips) in _COMMAND_MODULES.items():
        executed = set(json.loads(_executed(argv + ["--out-dir", "out"], tmp_path)[-1]))
        assert runs <= executed and not skips & executed, (command, executed)
