"""Prime utilities: deterministic primality, segmented sieve, primitive roots.

Everything here is exact integer arithmetic; the rest of the library relies
on these routines both for production runs and as test oracles.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

# Witness set proving primality for every n < psi_12, in particular all 64-bit
# integers: psi_12 = 399165290221 * 798330580441 is the least strong
# pseudoprime to all twelve bases (Sorenson & Webster, Math. Comp. 86, 2017).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461

_SEGMENT = 1 << 22  # integers per sieve segment of prime_blocks, read at each call


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proven for n < psi_12 (about 3.2e23, past
    every 64-bit input); from psi_12 on it raises ValueError."""
    n = operator.index(n)
    if n >= _PSI_12:
        raise ValueError(f"is_prime is proven only below {_PSI_12}, got {n}")
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_blocks(lo: int, hi: int):
    """Yield the ascending int64 primes of (lo, hi], one non-empty array per
    sieve segment of _SEGMENT integers; a range with lo < 0 or hi < lo raises
    ValueError at the first step."""
    if lo < 0 or hi < lo:
        raise ValueError(f"invalid range ({lo}, {hi}]")
    if hi <= max(lo, 1):
        return
    base = primes_in(0, math.isqrt(hi))  # this sieve again, ended by the return above
    start = lo + 1
    while start <= hi:
        stop = min(start + _SEGMENT, hi + 1)  # exclusive
        mask = np.ones(stop - start, dtype=bool)
        if start == 1:
            mask[0] = False
        for p in base:
            p = int(p)
            first = max(p * p, ((start + p - 1) // p) * p)
            if first < stop:
                mask[first - start:: p] = False
        block = start + np.flatnonzero(mask).astype(np.int64, copy=False)
        if block.size:
            yield block
        start = stop


def primes_in(lo: int, hi: int) -> np.ndarray:
    """Ascending primes p with lo < p <= hi (segmented sieve, bounded memory)."""
    return np.concatenate([np.empty(0, dtype=np.int64), *prime_blocks(lo, hi)])


def count_primes_in(lo: int, hi: int) -> int:
    """Number of primes in (lo, hi] without materialising them."""
    return sum(block.size for block in prime_blocks(lo, hi))


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division; adequate for n up to ~1e14."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mult_order(a: int, q: int) -> int:
    """Least m >= 1 with a^m = 1 (mod q), for a prime q not dividing a."""
    a, q = operator.index(a), operator.index(q)
    if not is_prime(q):
        raise ValueError(f"mult_order requires a prime modulus, got {q}")
    if a % q == 0:
        raise ValueError(f"gcd({a}, {q}) != 1")
    m = q - 1
    for p in factorize(m):
        while m % p == 0 and pow(a, m // p, q) == 1:
            m //= p
    return m


@dataclass(frozen=True)
class PrimeContext:
    """An odd prime q with its smallest primitive root g and DFT length n = q - 1."""

    q: int
    g: int
    n: int
    _powers: dict = field(default_factory=dict, repr=False, compare=False)

    def powers(self) -> np.ndarray:
        """g^k mod q for k = 0..n-1; a bijection onto {1, .., q-1}."""
        cached = self._powers.get("p")
        if cached is None:
            cached = _power_table(self.g, self.q, self.n)
            self._powers["p"] = cached
        return cached


# _power_table multiplies two int64 residues below q, so (q - 1)^2 must fit in int64
MAX_Q = math.isqrt(2**63 - 1) + 1


def _power_table(g: int, q: int, n: int) -> np.ndarray:
    # baby-step/giant-step layout keeps the Python-level loop at O(sqrt n)
    if q > MAX_Q:
        raise ValueError(f"q = {q} is above {MAX_Q}, past which the power table's "
                         "int64 products overflow")
    B = math.isqrt(n) + 1
    row = np.empty(B, dtype=np.int64)
    acc = 1
    for j in range(B):
        row[j] = acc
        acc = acc * g % q
    gB = pow(g, B, q)
    nblocks = (n + B - 1) // B
    col = np.empty(nblocks, dtype=np.int64)
    acc = 1
    for i in range(nblocks):
        col[i] = acc
        acc = acc * gB % q
    table = (col[:, None] * row[None, :]) % q
    return table.reshape(-1)[:n]


def primitive_root(q: int) -> PrimeContext:
    """Smallest positive primitive root modulo an odd prime q (any integer
    type, numpy's too; the context holds a Python int)."""
    q = operator.index(q)
    if q < 3 or not is_prime(q):
        raise ValueError(f"{q} is not an odd prime")
    phi = q - 1
    factors = list(factorize(phi))
    g = 2
    while True:
        if all(pow(g, phi // p, q) != 1 for p in factors):
            return PrimeContext(q=q, g=g, n=phi)
        g += 1


@dataclass(frozen=True)
class NeighborFlags:
    """Primality of 2q+1, 2q-1, 4q+1, 4q-1."""

    sg2p: bool
    sg2m: bool
    sg4p: bool
    sg4m: bool


def neighbor_flags(q: int) -> NeighborFlags:
    return NeighborFlags(
        sg2p=is_prime(2 * q + 1),
        sg2m=is_prime(2 * q - 1),
        sg4p=is_prime(4 * q + 1),
        sg4m=is_prime(4 * q - 1),
    )
