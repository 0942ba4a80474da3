"""Admissible sets, measure thresholds, and the explicit proof constants."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import digamma

from .primes import prime_blocks, primes_in
from .special_functions import CONSTANTS

C1_CUTOFF = 10 ** 8  # the singular series C1 is a product over the primes up to this cutoff
_C2_K_MAX = 201  # c2 is minimised over odd k up to this bound
_HARMONIC_C_MAX = 16.0  # there N ~ 6e12, and the measure steps by 1/(2N) ~ 20 ulps of c


@dataclass(frozen=True)
class AdmissibleSet:
    """Finite set of distinct positive integers with measure mu = sum 1/a."""

    elements: tuple[int, ...]

    @staticmethod
    def of(values) -> "AdmissibleSet":
        elems = tuple(sorted(int(v) for v in values))
        if any(v <= 0 for v in elems):
            raise ValueError("elements must be positive")
        if len(set(elems)) != len(elems):
            raise ValueError("elements must be distinct")
        return AdmissibleSet(elements=elems)

    @property
    def mu(self) -> float:
        return math.fsum(1.0 / a for a in self.elements)


def omega(p: int, a: AdmissibleSet) -> int:
    """Number of residues X mod p with X prod_i (a_i X + 1) = 0 (mod p).

    Exhaustive scan over all residues; p is small wherever this is used
    (the finite admissibility criterion only needs p <= s + 1).
    """
    if p > 10 ** 6:
        raise ValueError("omega is restricted to p <= 1e6")
    x = np.arange(p, dtype=np.int64)
    acc = x.copy()
    for ai in a.elements:
        acc = acc * ((ai % p) * x % p + 1) % p
    return int(np.count_nonzero(acc == 0))


def is_admissible(a: AdmissibleSet) -> bool:
    """omega(p) < p for all primes p; finitely checkable at p <= s + 1."""
    s = len(a.elements)
    return all(omega(int(p), a) < p for p in primes_in(0, s + 1))


def harmonic_threshold(c: float) -> tuple[int, float]:
    """Least N whose greedy multiplier measure exceeds c, with that measure.

    The measure is mu({1, 2, 4, ..., 2N}) = 1 + H_N/2, H_N = sum_{n<=N} 1/n,
    the cheapest growth available when every multiplier beyond the unit must
    be even.  H_N = psi(N + 1) + gamma, and H_N - log N - gamma lies in (0,
    1/(2N)], so the start n0 = floor(exp(2(c - 1) - gamma)) has measure(n0 -
    1) <= c - 1/(4 n0): the search only steps up from it.
    """
    if not 0 < c < math.inf:  # a NaN would stop at once, an inf never
        raise ValueError(f"c must be finite and positive, got {c!r}")
    if c > _HARMONIC_C_MAX:
        raise ValueError(f"c must be at most {_HARMONIC_C_MAX:g}, got {c!r}")

    def measure(n: int) -> float:  # 1.0 at n = 0: psi(1) = -gamma in binary64
        return 1.0 + 0.5 * (float(digamma(n + 1.0)) + CONSTANTS.euler_gamma)

    n = int(math.exp(2.0 * (c - 1.0) - CONSTANTS.euler_gamma))
    while measure(n) <= c:
        n += 1
    return n, measure(n)


def c1_sum(q: int, k: int) -> float:
    """c1(q, k) = (1/4) sum_{j <= (k-1)/2} log(2 j q - 1)/(j log q), odd k."""
    if k < 3 or k % 2 == 0:
        raise ValueError("k must be an odd integer >= 3")
    if q < 2:  # log q would vanish or be undefined
        raise ValueError(f"q must be >= 2, got {q}")
    lq = math.log(q)
    return 0.25 * math.fsum(
        math.log(2 * j * q - 1) / (j * lq) for j in range(1, (k - 1) // 2 + 1))


def c2_sum(k: int) -> float:
    """c2(k) = (1/4) sum_{j <= (k-1)/2} (1/j)(1 + log(2j)/1400) - log log k."""
    if k < 3 or k % 2 == 0:
        raise ValueError("k must be an odd integer >= 3")
    s = math.fsum((1.0 / j) * (1.0 + math.log(2 * j) / 1400.0)
                  for j in range(1, (k - 1) // 2 + 1))
    return 0.25 * s - math.log(math.log(k))


def c2_minimum() -> tuple[int, float]:
    """Minimiser of c2 over odd k <= _C2_K_MAX."""
    best = min(range(3, _C2_K_MAX + 1, 2), key=c2_sum)
    return best, c2_sum(best)


def singular_series_c1(cutoff: int = C1_CUTOFF) -> tuple[float, float]:
    """prod_{p <= cutoff} (1 + 2/(p(p-1))) and a radius bounding the tail.

    The omitted factor is below exp(sum_{n > cutoff} 2/(n(n-1))) =
    exp(2/cutoff), so six digits are stable from cutoff ~ 4e6 on.
    """
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    log_total = 0.0
    for block in prime_blocks(1, cutoff):
        p = block.astype(np.float64)
        log_total += float(np.sum(np.log1p(2.0 / (p * (p - 1.0)))))
    value = math.exp(log_total)
    return value, value * math.expm1(2.0 / cutoff)


@dataclass(frozen=True)
class NamedConstant:
    name: str
    value: float
    expression: str


def constants_table(c1_cutoff: int = C1_CUTOFF) -> dict[str, NamedConstant]:
    """The named constants used in the explicit bounds, with their formulas."""
    kummer_lead = (43.0 - 18.0 * CONSTANTS.zeta3) / 13.0
    c1_value, c1_tail = singular_series_c1(c1_cutoff)
    k_best, c2_best = c2_minimum()
    return {
        "kummer_lead": NamedConstant(
            "kummer_lead", kummer_lead, "(43 - 18 zeta(3))/13"),
        "C1": NamedConstant(
            "C1", c1_value,
            f"prod_p<= {c1_cutoff:.0e} (1 + 2/(p(p-1))), tail radius {c1_tail:.2e}"),
        "c2_argmin": NamedConstant(
            "c2_argmin", float(k_best), f"argmin over odd k <= {_C2_K_MAX} of c2(k)"),
        "c2_min": NamedConstant(
            "c2_min", c2_best,
            "(1/4) sum_j (1/j)(1 + log(2j)/1400) - log log k at the minimiser"),
    }
