"""The benchmark's layer tracer finds every function it hooks.

perfbench/layertrace.py wraps the module attributes the pipeline looks up
at call time, and reports a name that no longer resolves as absent, with
zero calls: a renamed or deleted function would silently read 0 in the
per-layer metrics.  This test fails instead.
"""
import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def test_every_tracer_hook_resolves():
    spec = importlib.util.spec_from_file_location("_layertrace_under_test", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)  # loads the table; installs nothing
    missing = [f"{module}.{attr}" for module, attr, *_ in layertrace.HOOKS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert layertrace.HOOKS
    assert not missing, missing
