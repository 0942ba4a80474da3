"""Layer trace of one compute run, taken from outside the library.

The tracer replaces, for the life of one worker process, the module
attributes through which the pipeline calls into each layer (the names that
ek_core, charsum, store, cli and analysis look up at call time) with
wrappers that record a span per call.  Nothing under src/ changes.  A name a
later version no longer has is reported as absent and counts zero calls.

Spans are kept in memory and written out once, when the run ends.  A
layer's self time is its spans' duration minus the part covered by the
spans of its traced callees.
"""
from __future__ import annotations

import importlib
import json
import math
import statistics
import time
from collections import Counter, defaultdict


def _transform_points(args, kwargs) -> int:
    return int(args[0].size)  # rows x transform length


def _bluestein_points(args, kwargs) -> int:
    # rows x padded length; the padding rule is dd._BluesteinPlan's
    shape = args[0].shape
    n = shape[-1]
    return math.prod(shape[:-1]) * (1 << (2 * n - 1).bit_length() if n > 1 else 1)


# (module, attribute, layer, points per call or None, timed).  An untimed
# hook only counts calls, under the layer name itself, and its time stays in
# its caller's self time.
HOOKS = (
    ("ekcyclo.cli", "run_range", "store.run_range", None, True),
    ("ekcyclo.cli", "read_records", "store.read_records", None, True),
    ("ekcyclo.store", "primes_in", "primes.primes_in", None, True),
    ("ekcyclo.store", "compute_record", "ek_core.compute_record", None, True),
    ("ekcyclo.store", "format_record", "store.format_record", None, True),
    ("ekcyclo.store", "_write_checkpoint", "store.checkpoints", None, False),
    ("ekcyclo.ek_core", "primitive_root", "primes.primitive_root", None, True),
    ("ekcyclo.ek_core", "neighbor_flags", "primes.neighbor_flags", None, True),
    ("ekcyclo.ek_core", "kernel_values", "charsum.kernel_values", None, True),
    ("ekcyclo.ek_core", "transform_kernel", "charsum.transform", _transform_points, True),
    ("ekcyclo.ek_core", "spectrum_checks", "charsum.spectrum_checks", None, True),
    ("ekcyclo.ek_core", "character_sums_dd", "charsum.character_sums_dd", None, True),
    ("ekcyclo.ek_core", "compensated_sum", "special_functions.compensated_sum", None, True),
    ("ekcyclo.ek_core", "kappa", "ek_core.kappa", None, True),
    ("ekcyclo.ek_core", "kummer_r", "ek_core.kummer_r", None, True),
    ("ekcyclo.ek_core", "gamma_pair", "ek_core.gamma_pair", None, True),
    ("ekcyclo.ek_core", "assemble_dd", "ek_core.assemble_dd", None, True),
    ("ekcyclo.charsum", "ln_gamma", "special_functions.ln_gamma", None, True),
    ("ekcyclo.charsum", "hurwitz_z2_at_rationals", "special_functions.hurwitz_z2", None, True),
    ("ekcyclo.charsum", "dd_dft", "dd.dft", _bluestein_points, True),
    ("ekcyclo.charsum", "dd_gamma_zeta_kernels", "dd.gamma_zeta_kernels", None, True),
    ("ekcyclo.analysis", "histogram", "analysis.analyze", None, True),
    ("ekcyclo.analysis", "spike_report", "analysis.analyze", None, True),
    ("ekcyclo.analysis", "delta_stats", "analysis.analyze", None, True),
    ("ekcyclo.analysis", "envelope_check", "analysis.analyze", None, True),
)

RECORD_LAYER = "ek_core.compute_record"


class Tracer:
    """Span recorder for the hooks above; one per process."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        # span: [layer, start, end, parent index, q of the enclosing record, points]
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()  # of the untimed hooks
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for module_name, attr, layer, points, timed in self.hooks:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, layer, points) if timed
                    else self._count(fn, layer))

    def _count(self, fn, layer: str):
        calls = self.counts

        def counted(*args, **kwargs):
            calls[layer] += 1
            return fn(*args, **kwargs)
        return counted

    def _wrap(self, fn, layer: str, points):
        spans, stack, calls, clock = self.spans, self._stack, self.calls, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if layer == RECORD_LAYER:
                q = int(args[0])
            else:
                q = spans[parent][4] if stack else None
            span = [layer, 0.0, 0.0, parent, q, points(args, kwargs) if points else 0]
            stack.append(len(spans))
            spans.append(span)
            calls[layer] += 1
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def summary(self) -> dict[str, float]:
        """Self seconds, call and point counts per layer, and per-record quantiles."""
        self_s: defaultdict[str, float] = defaultdict(float)
        points: Counter[str] = Counter()
        for layer, start, end, parent, _, n in self.spans:
            self_s[layer] += end - start
            points[layer] += n
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        per_record = sorted(end - start for layer, start, end, *_ in self.spans
                            if layer == RECORD_LAYER)
        out = {f"{layer}_s": v for layer, v in self_s.items()}
        out.update({f"{layer}_calls": n for layer, n in self.calls.items()})
        out.update(self.counts)
        out.update({f"{layer}_points": n for layer, n in points.items() if n})
        if per_record:
            out[f"{RECORD_LAYER}_p50_s"] = statistics.median(per_record)
        # a p99 needs at least ten records beyond it
        if len(per_record) >= 1000:
            out[f"{RECORD_LAYER}_p99_s"] = statistics.quantiles(per_record, n=100)[98]
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as f:
            json.dump({"absent": self.absent,
                       "fields": ["layer", "start", "end", "parent", "q", "points"],
                       "spans": self.spans}, f)
