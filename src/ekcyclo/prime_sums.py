"""Truncated prime-sum estimators over the residue classes +-1 mod q.

These sums converge (conditionally, and slowly) to the same quantities the
character-sum route computes in closed form:

    f_q(x): sum over prime powers p^m <= x of +-1/(m p^m)
    g_q(x): the m = 1 part of f_q(x)
    w_q(x): (1/log q) sum over primes of +-log(p)/p
    v_q(x): (1/log q) sum over prime powers, m >= 2, of +-log(p)/p^m

with sign +1 for p^m = 1 (mod q) and -1 for p^m = -1 (mod q); the pairs
((q-1)/2 f_q, r(q)) and ((q-1)/2 (v_q + w_q), kappa(q)) form the
independent cross-route oracle.  Primes are streamed through a segmented
sieve; every reduction is an exactly-rounded sum per segment, and the
segment sums are merged by one more exactly-rounded sum, so results are
deterministic.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .primes import is_prime, mult_order, prime_blocks, primes_in
from .special_functions import compensated_sum


@dataclass(frozen=True)
class TruncatedSums:
    """All four estimators of one (q, x) pair."""

    q: int
    x: float
    f: float
    g: float
    v: float
    w: float


def _check_modulus(q: int) -> int:
    q = operator.index(q)  # a float raises TypeError, as in is_prime
    if q < 3:  # below 3 the classes +1 and -1 mod q are not distinct
        raise ValueError(f"modulus q must be >= 3, got {q}")
    return q


def _power_terms(x: float) -> np.ndarray:
    """Rows log p, m and p^m in float64 over the prime powers p^m <= x, m >= 2."""
    out = []
    for p in primes_in(0, math.isqrt(int(x))).tolist():
        pm = p * p
        m = 2
        while pm <= x:
            out.append((math.log(p), m, pm))
            pm *= p
            m += 1
    return np.array(out, dtype=np.float64).reshape(-1, 3).T


def truncated_sums(qs, x: float) -> dict[int, TruncatedSums]:
    """f/g/v/w for several moduli in a single pass over the primes <= x."""
    if not 2 <= x < math.inf:  # NaN fails too
        raise ValueError(f"x must be >= 2 and finite, got {x}")
    qs = list(dict.fromkeys(_check_modulus(q) for q in qs))  # each modulus once, in order
    inv = {q: [] for q in qs}  # signed class sums per segment, m = 1
    logp = {q: [] for q in qs}
    for block in prime_blocks(0, int(x)):
        p = block.astype(np.float64)
        logs = np.log(p)
        for q in qs:
            residues = p % q
            for sign, cls in ((1.0, 1.0), (-1.0, float(q - 1))):
                sel = residues == cls
                if not sel.any():
                    continue
                inv[q].append(sign * compensated_sum(1.0 / p[sel]))
                logp[q].append(sign * compensated_sum(logs[sel] / p[sel]))
    log_p, m, pm = _power_terms(x)
    out = {}
    for q in qs:
        rem = pm % q  # exact: p^m < 2^53
        sign = (rem == 1).astype(np.float64) - (rem == q - 1)  # off both classes: +0.0
        g = math.fsum(inv[q])
        w = math.fsum(logp[q]) / math.log(q)
        f = g + math.fsum(sign / (m * pm))
        v = math.fsum(sign * log_p / pm) / math.log(q)
        out[q] = TruncatedSums(q=q, x=float(x), f=f, g=g, v=v, w=w)
    return out


@dataclass(frozen=True)
class OrderSums:
    """S1/S2 order-weighted sums with the truncation tail as a radius."""

    s1: float
    s2: float
    tail: float


def s12(q: int, cutoff: int) -> OrderSums:
    """S1 = sum_{ord_q(p) >= 2} log p/(p^ord - 1), S2 likewise for ord_q(p^2).

    Terms are kept while p^ord <= cutoff; the reported tail radius bounds
    the discarded mass by sum_{n > cutoff} log n/(n(n-1)).
    """
    q = _check_modulus(q)
    # mult_order rejects a composite q too, but only once a prime p <= sqrt(cutoff) reaches it
    if not is_prime(q):
        raise ValueError(f"s12 requires a prime modulus, got {q}")
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    log_cut = math.log(cutoff)
    s1, s2 = [], []
    for p in primes_in(0, math.isqrt(cutoff)).tolist():
        if p == q:
            continue
        ord1 = mult_order(p, q)
        ord2 = ord1 // math.gcd(ord1, 2)
        lp = math.log(p)
        # float pre-check only guards the bignum power; the exact test decides
        if ord1 >= 2 and ord1 * lp <= log_cut + 1e-9 and p ** ord1 <= cutoff:
            s1.append(lp / (p ** ord1 - 1))
        if ord2 >= 2 and ord2 * lp <= log_cut + 1e-9 and p ** ord2 <= cutoff:
            s2.append(lp / (p ** ord2 - 1))
    tail = (math.log(cutoff) + 1.0) / cutoff
    return OrderSums(s1=math.fsum(s1), s2=math.fsum(s2), tail=tail)


def bias(t: float, q: int) -> int:
    """pi(t; q, 1) - pi(t; q, -1) via the segmented sieve."""
    q = _check_modulus(q)
    if not 2 <= t < math.inf:  # NaN fails too
        raise ValueError(f"t must be >= 2 and finite, got {t}")
    plus = minus = 0
    for p in prime_blocks(0, int(t)):
        residues = p % q
        plus += int(np.count_nonzero(residues == 1))
        minus += int(np.count_nonzero(residues == q - 1))
    return plus - minus
