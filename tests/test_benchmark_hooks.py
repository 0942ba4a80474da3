"""The benchmark's layer tracer finds every function it hooks, and each one
is live and called in a real benchmark round; the benchmark's own output
checks pass.

perfbench/layertrace.py wraps the module attributes the pipeline looks up
at call time, and reports a name that no longer resolves as absent, with
zero calls: a renamed or deleted function would silently read 0 in the
per-layer metrics.  So would a name that resolves only because an unused
import keeps it, since nothing looks it up.  These tests fail instead.
"""
import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAYERTRACE = ROOT / "perfbench" / "layertrace.py"
PACKAGE = ROOT / "src" / "ekcyclo"


def _table():
    spec = importlib.util.spec_from_file_location("_layertrace_under_test", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)  # loads the table; installs nothing
    assert layertrace.HOOKS
    return layertrace.HOOKS


def _hooks():
    return [(module, attr) for module, attr, *_ in _table()]


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


def test_benchmark_checks_pass():
    """perfbench/test_checks.py calls library names that HOOKS does not pin:
    ek_core.primitive_root, PrimeContext(q=, g=, n=), ctx.powers(),
    charsum.kernel_values and KernelId, and the .hi/.lo pairs of
    dd.dd_gamma_zeta_kernels.  A break there fails here, not first in a
    benchmark run."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "perfbench/test_checks.py"], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_rounds_call_every_hook(tmp_path):
    """One traced round per precision, through perfbench/worker.py and its own
    patching of store.compute_record and cli.main: together they call every
    timed layer.  The untimed store.checkpoints stays out: a run this short
    ends before its first checkpoint."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    called = set()
    for precision in ("double", "dd"):
        run = tmp_path / precision
        run.mkdir()
        result = run / "result.json"
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(ROOT / "src"),
             repr(time.monotonic()), str(result), "--out", str(run / "r.csv"),
             "--analyze", str(run / "a_"), "--trace", str(run / "spans.json"),
             "--host-parts", "python", "--compute", "--min", "3", "--max", "200",
             "--threads", "1", "--precision", precision],
            cwd=run, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        out = json.loads(result.read_text())
        assert out["absent"] == [], precision
        called |= {key.removesuffix("_calls") for key in out["layers"] if key.endswith("_calls")}
    assert called == {layer for _, _, layer, _, timed in _table() if timed}
