"""The host-speed sampler: bursts are counted and timed, and the rescaling.

    python3 -m pytest perfbench/test_hostspeed.py
"""
from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402


def test_reference_seconds():
    ref = hostspeed.REFERENCE_S
    samples = {"bursts": 10, "python": 20 * ref["python"], "native": 10 * ref["native"],
               "memory": 0.0}
    # bursts twice as slow as the reference's: the host ran at half speed
    assert hostspeed.reference_seconds(4.0, samples, ("python",)) == pytest.approx(2.0)
    assert hostspeed.reference_seconds(4.0, samples, ("native",)) == pytest.approx(4.0)
    both = 4.0 * (ref["python"] + ref["native"]) / (2 * ref["python"] + ref["native"])
    assert hostspeed.reference_seconds(4.0, samples, ("python", "native")) == pytest.approx(both)
    assert hostspeed.busy_s(samples) == pytest.approx(20 * ref["python"] + 10 * ref["native"])
    idle = {"bursts": 0, "python": 0.0, "native": 0.0, "memory": 0.0}
    assert hostspeed.reference_seconds(4.0, idle, hostspeed.PARTS) == 4.0


def test_sampler_runs_bursts_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = hostspeed.Sampler(hostspeed.PARTS)
    sampler.start()
    try:
        deadline = time.monotonic() + 10 * hostspeed.PERIOD_S
        while time.monotonic() < deadline:
            sum(range(1000))
    finally:
        sampler.stop()
    samples = sampler.snapshot()
    assert samples["bursts"] >= 3
    assert all(samples[p] > 0.0 for p in hostspeed.PARTS)
    assert hostspeed.busy_s(samples) < 10 * hostspeed.PERIOD_S
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    time.sleep(2 * hostspeed.PERIOD_S)
    assert hostspeed.between(samples, sampler.snapshot()) == dict.fromkeys(samples, 0)


def test_sampler_runs_only_its_parts():
    sampler = hostspeed.Sampler(("python",))
    sampler._sample(signal.SIGALRM, None)
    samples = sampler.snapshot()
    assert samples["bursts"] == 1 and samples["python"] > 0.0
    assert samples["native"] == samples["memory"] == 0.0
    with pytest.raises(ValueError):
        hostspeed.Sampler(("python", "disk"))


def test_a_signal_during_a_burst_is_dropped():
    sampler = hostspeed.Sampler(("python",))
    sampler._in_burst = True
    sampler._sample(signal.SIGALRM, None)
    assert sampler.snapshot()["bursts"] == 0
    sampler._in_burst = False
    sampler._sample(signal.SIGALRM, None)
    assert sampler.snapshot()["bursts"] == 1
