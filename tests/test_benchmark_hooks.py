"""The benchmark's layer tracer finds every function it hooks, and each one
is live.

perfbench/layertrace.py wraps the module attributes the pipeline looks up
at call time, and reports a name that no longer resolves as absent, with
zero calls: a renamed or deleted function would silently read 0 in the
per-layer metrics.  So would a name that resolves only because an unused
import keeps it, since nothing looks it up.  These tests fail instead.
"""
import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"
PACKAGE = ROOT / "src" / "ekcyclo"


def _hooks():
    spec = importlib.util.spec_from_file_location("_layertrace_under_test", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)  # loads the table; installs nothing
    assert layertrace.HOOKS
    return [(module, attr) for module, attr, *_ in layertrace.HOOKS]


def test_every_tracer_hook_resolves():
    missing = [f"{module}.{attr}" for module, attr in _hooks()
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert not missing, missing


def test_every_tracer_hook_is_looked_up():
    """Each hooked attribute is read where the tracer wraps it: as a bare name
    in its own module (an import binds a name but reads none), or as
    module.attr from another module, as cli reads analysis.histogram."""
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    names, attributes = set(), set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add((module, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                attributes.add((module, node.value.id, node.attr))
    dead = []
    for hooked, attr in _hooks():
        module = hooked.rpartition(".")[2]
        if (module, attr) not in names and not any(
                (other, module, attr) in attributes for other in trees if other != module):
            dead.append(f"{hooked}.{attr}")
    assert not dead, dead
