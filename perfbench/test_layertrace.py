"""The layer tracer: self time, call counts, absent names, one spans file.

    python3 -m pytest perfbench/test_layertrace.py
"""
from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from layertrace import Tracer  # noqa: E402


def test_self_time_counts_and_absent_names(monkeypatch, tmp_path):
    toy = types.ModuleType("toy_layers")

    def inner(x):
        time.sleep(0.02)
        return x

    def outer(x):
        return toy.inner(x) + toy.tally()

    toy.inner, toy.outer, toy.tally = inner, outer, lambda: 1
    monkeypatch.setitem(sys.modules, "toy_layers", toy)
    tracer = Tracer(hooks=(
        ("toy_layers", "outer", "toy.outer", None, True),
        ("toy_layers", "inner", "toy.inner", lambda args, kwargs: 3, True),
        ("toy_layers", "tally", "toy.tally", None, False),
        ("toy_layers", "renamed_away", "toy.gone", None, True),
        ("no_such_module_here", "f", "toy.f", None, True),
    ))
    tracer.install()
    assert toy.outer(1) == 2
    assert toy.outer(1) == 2

    assert tracer.absent == ["toy_layers.renamed_away", "no_such_module_here.f"]
    summary = tracer.summary()
    assert summary["toy.outer_calls"] == 2
    assert summary["toy.inner_calls"] == 2
    assert summary["toy.tally"] == 2
    assert summary["toy.inner_points"] == 6
    assert summary["toy.inner_s"] >= 0.04
    assert 0.0 <= summary["toy.outer_s"] < 0.02
    assert "toy.gone_calls" not in summary
    assert "toy.tally_s" not in summary and "toy.tally_calls" not in summary

    path = tmp_path / "spans.json"
    tracer.write(path)
    data = json.loads(path.read_text())
    assert data["absent"] == tracer.absent
    layers = [(span[0], span[3]) for span in data["spans"]]
    assert layers == [("toy.outer", -1), ("toy.inner", 0), ("toy.outer", -1), ("toy.inner", 2)]
