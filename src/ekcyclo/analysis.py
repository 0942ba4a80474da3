"""Distribution statistics: histograms, spike classes, delta study, envelopes."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ek_core import EkRecord
from .primes import count_primes_in, is_prime

DEFAULT_BIN_WIDTH = 0.005
DEFAULT_RANGE = (-0.6, 0.6)
MAX_BINS = 10 ** 6


def pi_star(Q: float) -> int:
    """pi(Q) - pi(Q/2): the prime count in (Q/2, Q]."""
    if Q < 2:
        raise ValueError("Q must be >= 2")
    return count_primes_in(int(Q / 2), int(Q))


@dataclass(frozen=True)
class HistogramSummary:
    """Binned counts with two-pass sample statistics and the normal overlay."""

    bin_width: float
    lo: float
    hi: float
    counts: np.ndarray
    underflow: int
    overflow: int
    n: int
    mean: float | None
    sigma: float | None

    def normal_density(self, x) -> np.ndarray:
        """N(x, mean, sigma) = exp(-(x-mean)^2/(2 sigma^2)) / (sigma sqrt(2 pi))."""
        if self.n == 0 or self.sigma is None or self.sigma == 0.0:
            raise ValueError("normal overlay undefined without spread")
        z = (np.asarray(x, dtype=np.float64) - self.mean) / self.sigma
        return np.exp(-0.5 * z * z) / (self.sigma * math.sqrt(2.0 * math.pi))

    def bin_centers(self) -> np.ndarray:
        k = np.arange(self.counts.size)
        return self.lo + (k + 0.5) * self.bin_width


def histogram(values: Sequence[float], bin_width: float = DEFAULT_BIN_WIDTH,
              lo: float = DEFAULT_RANGE[0], hi: float = DEFAULT_RANGE[1]) -> HistogramSummary:
    """Counts on [lo, hi) with explicit under/overflow cells; NaN is rejected,
    and so is a grid of no cell, of more than MAX_BINS or of a width that does
    not divide the range (to a relative 1e-9), before anything is allocated."""
    if bin_width <= 0 or lo >= hi:
        raise ValueError("need bin_width > 0 and lo < hi")
    cells = (hi - lo) / bin_width
    nbins = round(cells) if cells <= MAX_BINS else 0  # a NaN count gives 0 too
    if not (nbins >= 1 and abs(cells - nbins) <= 1e-9 * cells):
        raise ValueError(f"bin width {bin_width:g} on [{lo:g}, {hi:g}) gives "
                         f"{cells:.6g} cells, not 1 to {MAX_BINS} whole cells")
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    nan = np.flatnonzero(np.isnan(v))
    if nan.size:
        raise ValueError(f"histogram value {int(nan[0])} is NaN (no cell holds it)")
    n = v.size
    if n == 0:
        return HistogramSummary(bin_width, lo, hi, np.zeros(nbins, dtype=np.int64),
                                0, 0, 0, None, None)
    under = int(np.count_nonzero(v < lo))
    over = int(np.count_nonzero(v >= hi))
    inside = v[(v >= lo) & (v < hi)]
    idx = np.minimum((((inside - lo) / bin_width)).astype(np.int64), nbins - 1)
    counts = np.bincount(idx, minlength=nbins).astype(np.int64)
    mean = float(np.sum(v) / n)
    sigma = float(math.sqrt(np.sum((v - mean) ** 2) / (n - 1))) if n > 1 else 0.0
    return HistogramSummary(bin_width, lo, hi, counts, under, over, n, mean, sigma)


@dataclass(frozen=True)
class SpikeReport:
    """kappa statistics of the class of primes q with m q + b prime."""

    m: int
    b: int
    exclusive: bool
    count: int
    sample_mean: float | None
    target: float


def _in_spike_class(q: int, m: int, b: int, exclusive: bool) -> bool:
    if not is_prime(m * q + b):
        return False
    if not exclusive:
        return True
    for mp in range(2, m, 2):
        if is_prime(mp * q + 1) or is_prime(mp * q - 1):
            return False
    return not is_prime(m * q - b)


def spike_report(records: Iterable[EkRecord], m: int, b: int,
                 exclusive: bool = False) -> SpikeReport:
    """Restrict to q with m q + b prime; exclusive mode also requires every
    stronger neighbour (m' < m, either sign, and the mirror m q - b) composite."""
    if m < 2 or m % 2:
        raise ValueError("m must be a positive even integer")
    if b not in (1, -1):
        raise ValueError("b must be +1 or -1")
    kappas = [rec.kappa for rec in records if _in_spike_class(rec.q, m, b, exclusive)]
    mean = float(np.mean(kappas)) if kappas else None
    return SpikeReport(m=m, b=b, exclusive=exclusive, count=len(kappas),
                       sample_mean=mean, target=b / (2.0 * m))


def delta_stats(records: Iterable[EkRecord], cap: float) -> tuple[float, float]:
    """(fraction with |delta| <= cap, mean |delta|)."""
    if not cap > 0:  # NaN too
        raise ValueError(f"cap must be positive, got {cap:g}")
    deltas = np.array([rec.delta for rec in records], dtype=np.float64)
    if deltas.size == 0:
        raise ValueError("no records")
    frac = float(np.count_nonzero(np.abs(deltas) <= cap)) / deltas.size
    return frac, float(np.mean(np.abs(deltas)))


@dataclass(frozen=True)
class EnvelopeAnomaly:
    q: int
    kappa: float
    kind: str  # "hard" (RH-grade envelope) or "soft" (extremal-growth note)


def envelope_check(records: Iterable[EkRecord]) -> list[EnvelopeAnomaly]:
    """Flag |kappa| >= log log q + 1.41 (hard, q >= 17) and
    2|kappa| > log log log q + 2 (soft, q >= 20)."""
    out = []
    for rec in records:
        ak = abs(rec.kappa)
        if rec.q >= 17 and ak >= math.log(math.log(rec.q)) + 1.41:
            out.append(EnvelopeAnomaly(rec.q, rec.kappa, "hard"))
        elif rec.q >= 20 and 2.0 * ak > math.log(math.log(math.log(rec.q))) + 2.0:
            out.append(EnvelopeAnomaly(rec.q, rec.kappa, "soft"))
    return out
