"""Host-speed sampling interleaved with the measured code.

The host this benchmark runs on is shared: its speed drifts by tens of
percent over minutes and swings second by second, and a round's process
CPU time drifts with its wall time, so neither clock alone separates the
program from the host.  A `Sampler` runs a short burst of fixed work every
PERIOD_S seconds of wall time, from a SIGALRM handler inside the measured
process, so that the bursts see the same core in the same state as the code
around them.  The bursts' own time is taken out of the measured phase, and
their mean duration against the reference host's says how fast the host
ran: a phase that took `t` seconds while the bursts ran at `1/k` of the
reference speed took `t / k` reference seconds.

The burst is independent of ekcyclo, so a change to the program cannot move
it.  It has one part for each kind of work the workloads spend their time
on, timed apart:

- `python`: a pure-Python float loop (the interpreter, as in per-record
  overhead and the assembly);
- `native`: a small numpy rfft and log (native array code, as in the
  kernels);
- `memory`: a sum over a freshly allocated 2 MB array (allocation and
  memory traffic, as in the large-q transforms).

A workload runs and rescales by the parts that track it; leaving `memory`
out where it does not also keeps its 2 MB out of the peak resident set.
Over twelve 6 s runs of the range-double and golden-dd work, `python` +
`native` cut the quartile spread of the rate from 0.18 and 0.21 to 0.04 and
0.06, and adding `memory` widened it to 0.10 and 0.13; over fourteen 10 s
runs of the large-q work `python` + `native` cut it from 0.17 to 0.07, and
all three parts to 0.03.
"""
from __future__ import annotations

import signal
import time

import numpy as np
# numpy loads its fft module on first use; load it now, so that no burst
# imports it from inside a signal handler, where the next signal can
# re-enter the half-done import
from numpy.fft import rfft

PERIOD_S = 0.02
PARTS = ("python", "native", "memory")
# Typical part durations on the reference host, a 2-vCPU Intel Xeon virtual
# machine (Python 3.11.7, numpy 2.4.6), rounded.  They set the unit of the
# rescaled times; only ratios of figures taken with the same constants mean
# anything.
REFERENCE_S = {"python": 2.2e-4, "native": 1.3e-4, "memory": 5.0e-4}

_PY_ITERATIONS = 3000
_ARRAY = np.linspace(0.0, 1.0, 1 << 12)
_FRESH_LENGTH = 1 << 18  # float64: 2 MB


def _python() -> None:
    s = 0.0
    for i in range(_PY_ITERATIONS):
        s += i * 0.5


def _native() -> None:
    rfft(_ARRAY)
    np.log(_ARRAY + 1.0)


def _memory() -> None:
    np.ones(_FRESH_LENGTH).sum()


_WORK = {"python": _python, "native": _native, "memory": _memory}


class Sampler:
    """Runs a burst of `parts` every PERIOD_S seconds between start() and stop().

    Python runs the handler between bytecodes, so inside a long native call
    the sample waits until the call returns; samples then come less often
    but still in the same process and on the same core.  A signal that
    arrives during a burst (a host stall longer than the period) is
    dropped, so that bursts never nest.
    """

    def __init__(self, parts: tuple[str, ...]) -> None:
        unknown = set(parts) - set(PARTS)
        if unknown:
            raise ValueError(f"unknown burst parts {sorted(unknown)}")
        self.parts = parts
        self.count = 0
        self.busy_s = dict.fromkeys(PARTS, 0.0)
        self._previous = None
        self._in_burst = False

    def _sample(self, signum, frame) -> None:
        if self._in_burst:
            return
        self._in_burst = True
        try:
            for part in self.parts:
                t0 = time.perf_counter()
                _WORK[part]()
                self.busy_s[part] += time.perf_counter() - t0
            self.count += 1
        finally:
            self._in_burst = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def snapshot(self) -> dict:
        """{"bursts": count, "python": seconds, ...}, summed since start()."""
        return {"bursts": self.count, **self.busy_s}


def between(before: dict, after: dict) -> dict:
    """The bursts of the interval between two snapshots."""
    return {key: after[key] - before[key] for key in after}


def busy_s(samples: dict) -> float:
    """The seconds the bursts of `samples` took, all parts."""
    return sum(samples[p] for p in PARTS)


def reference_seconds(seconds: float, samples: dict, parts: tuple[str, ...]) -> float:
    """`seconds` of measured time rescaled to the reference host's speed.

    `samples` are the bursts taken while the time was measured, as
    Sampler.snapshot() gives them; `parts` are the burst parts that track
    the measured work, and the sampler must have run them.  Without a
    sample the time is returned as it is.
    """
    if samples["bursts"] == 0:
        return seconds
    measured = sum(samples[p] for p in parts) / samples["bursts"]
    return seconds * sum(REFERENCE_S[p] for p in parts) / measured
