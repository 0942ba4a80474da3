"""Real special functions feeding the character-sum kernels.

The Hurwitz-zeta derivatives at s = 0 are needed at the rational points
x = a/q, a = 1..q-1, only.  They come from an Euler-Maclaurin expansion
differentiated analytically in s: with w = x + N and L = log w,

    zeta'(0, x) = -sum_{n<N} log(x+n) + w(L - 1) - L/2
                  + sum_k B_{2k}/(2k(2k-1)) w^{1-2k}
    zeta''(0,x) = sum_{n<N} log^2(x+n) + w(2L - L^2 - 2) + L^2/2
                  + 2 sum_k B_{2k}/(2k(2k-1)) (H_{2k-2} - L) w^{1-2k}

where log(a/q + n) = log(a + n q) - log q takes exact integer logs.
Binary64 uses N = 6 with Bernoulli terms through B_20 (truncation near
2e-15 on (0, 1), far inside the 1e-10 contract), double-double (``dd``)
N = 32 through B_24; both run the blocked rational_kernels.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math
from math import comb

import numpy as np
from scipy.special import gammaln


def _bernoulli_list(n_max: int) -> list[Fraction]:
    # sum_{j<=m} C(m+1, j) B_j = 0 gives each B_m exactly
    bern = [Fraction(1)]
    for m in range(1, n_max + 1):
        s = sum(comb(m + 1, j) * bern[j] for j in range(m))
        bern.append(-s / (m + 1))
    return bern


BERNOULLI_2K: dict[int, Fraction] = {
    n: b for n, b in enumerate(_bernoulli_list(56)) if n >= 2 and n % 2 == 0
}


def harmonic_fraction(m: int) -> Fraction:
    """H_m = sum_{i<=m} 1/i as an exact rational."""
    return sum((Fraction(1, i) for i in range(1, m + 1)), Fraction(0))


# Decimal expansions kept to 40 digits so both the double and the
# double-double layers parse the same source of truth; pi to 70, for the
# fixed-point seeds of the dd roots of unity.
EULER_GAMMA_STR = "0.5772156649015328606065120900824024310422"
ZETA3_STR = "1.2020569031595942853997381615114499907650"
LOG_2PI_STR = "1.8378770664093454835606594728112352797228"
PI_STR = "3.141592653589793238462643383279502884197169399375105820974944592307816"
LOG_PI_STR = "1.1447298858494001741434273513530587116473"
LN2_STR = "0.6931471805599453094172321214581765680755"


@dataclass(frozen=True)
class Constants:
    euler_gamma: float
    zeta3: float
    log_2pi: float


CONSTANTS = Constants(
    euler_gamma=float(Fraction(EULER_GAMMA_STR)),
    zeta3=float(Fraction(ZETA3_STR)),
    log_2pi=float(Fraction(LOG_2PI_STR)),
)


def ln_gamma(x):
    """log Gamma(x) for x > 0 (scalar or array)."""
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise ValueError("ln_gamma requires x > 0")
    out = gammaln(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


# (B_2k/(2k(2k-1)), H_{2k-2}) for k = 1..12, exact; each precision converts
# the prefix it uses once
EM_COEFFS: list[tuple[Fraction, Fraction]] = [
    (BERNOULLI_2K[2 * k] / (2 * k * (2 * k - 1)), harmonic_fraction(2 * k - 2))
    for k in range(1, 13)
]

_EM_SHIFT = 6  # binary64; see the module docstring
_EM_COEFF = tuple(tuple(float(x) for x in col) for col in zip(*EM_COEFFS[:10]))  # (c, h)


def euler_maclaurin_tails(w, L, coeff, s2, s1=None):
    """(zeta'(0, x), zeta''(0, x)) from their heads, with w = x + N, L = log w.

    s2 = sum_{n<N} log^2(x+n) and s1 = -sum_{n<N} log(x+n); without s1 the
    first derivative is skipped and returned as None.  Only arithmetic
    operators are used, so w, L and the heads may be float64 or DD arrays,
    with coeff = (c, h) the K coefficients in the same precision: floats, or
    DD columns of shape (K, 1).  Float64 and large DD operands add one term
    at a time; small DD operands (s1 given) take the K terms as rows, each
    element through the same steps.
    """
    z2 = s2 + w * (2.0 * L - L * L - 2.0) + 0.5 * L * L
    z1 = None if s1 is None else s1 + w * (L - 1.0) - 0.5 * L
    # not (1/w)^2: in binary64 that moves gamma_q+ by up to 2.2e-12 near q = 1e6
    w2 = 1.0 / (w * w)
    wp = 1.0 / w
    c, h = coeff
    if isinstance(w, np.ndarray) or 8 * c.shape[0] * w.hi.size > _ROWS_BYTES:
        for ck, hk in zip(c, h):  # a DD column yields (1,) rows
            # in place only where no bit changes: DD rebinds, operand order kept
            t = 2.0 * ck * (hk - L)
            t *= wp
            z2 += t
            if z1 is not None:
                z1 += ck * wp
            wp *= w2
        return z1, z2
    powers = type(w).zeros(c.shape[:1] + w.shape)  # row k - 1 holds w^(1-2k)
    powers[0] = wp
    for k in range(1, c.shape[0]):
        powers[k] = powers[k - 1] * w2
    terms = type(w).stack([2.0 * c * (h - L) * powers, c * powers], axis=1)
    z = type(w).stack([z2, z1])
    for k in range(c.shape[0]):
        z = z + terms[k]
    return z[1], z[0]


# The DD rows save Python overhead, which matters only for few columns S.  They
# run while a (K, S) word array stays below glibc's default 128 KiB mmap threshold
# (S <= 1365 for K = 12); past it each temporary is faulted in anew.  The dd kernels
# took as long either way at S = 1408, 1.1 times the loop's at 2002, twice at 16384.
_ROWS_BYTES = 1 << 17


class IntegerLogCache:
    """log 1, ..., log m from one table, grown by doubling up to a cap.

    A range run reads the logs of a + n q from the table; growing takes only
    the new logs, block by block.  ``log`` maps a float64 array of integers
    to their logs (float or DD); ``zeros`` makes an array of that kind.
    """

    def __init__(self, log, zeros, cap: int):
        self.log = log
        self.zeros = zeros
        self.cap = cap
        self.limit = 0
        self.table = zeros(0)

    def upto(self, top: int):
        """log m for m = 1..top (element m - 1 holds log m); None past the cap."""
        if top > self.cap:
            return None
        if top > self.limit:
            limit = min(2 * top, self.cap)
            table = self.zeros(limit)
            table[:self.limit] = self.table
            for lo in range(self.limit, limit, _BLOCK):
                hi = min(lo + _BLOCK, limit)
                table[lo:hi] = self.log(np.arange(lo + 1, hi + 1, dtype=np.float64))
            self.table, self.limit = table, limit
        return self.table[:top]


_BLOCK = 16384  # values of a per block: its log rows stay in cache
_LOG_TABLE_CAP = 2_000_000
_integer_logs = IntegerLogCache(np.log, np.zeros, _LOG_TABLE_CAP)


def rational_kernels(q: int, logs: IntegerLogCache, log_q, shift: int, coeff, first=False):
    """(zeta'(0, a/q) or None, zeta''(0, a/q)) for a = 1..q-1 by blocks of a, in the
    precision of logs, log_q and coeff.  Every operation is elementwise: no
    value depends on its block or on where its logs came from."""
    # table rows are views; the last block's reaches one row past (shift + 1) q
    table = logs.upto((shift + 2) * q)
    rows = q * np.arange(shift + 1.0)[:, None]
    z1 = logs.zeros(q - 1) if first else None
    z2 = logs.zeros(q - 1)
    for lo in range(0, q - 1, _BLOCK):
        hi = min(lo + _BLOCK, q - 1)
        L = (table[lo:lo + (shift + 1) * q].reshape(shift + 1, q)[:, :hi - lo]
             if table is not None else
             logs.log(np.arange(lo + 1.0, hi + 1.0) + rows)) - log_q  # log(a/q + n)
        head = L[:shift]
        w = (logs.zeros(hi - lo) + np.arange(lo + 1.0, hi + 1.0) + shift * q) / q
        s1 = -head.sum(axis=0) if first else None
        head *= head  # in place on float64, which keeps the temporaries small
        b1, b2 = euler_maclaurin_tails(w, L[shift], coeff, head.sum(axis=0), s1)
        z2[lo:hi] = b2
        if first:
            z1[lo:hi] = b1
    return z1, z2


def hurwitz_z2_at_rationals(a: np.ndarray, q: int) -> np.ndarray:
    """zeta''(0, a/q) for integer arrays 0 < a < q."""
    _, z2 = rational_kernels(q, _integer_logs, math.log(q), _EM_SHIFT, _EM_COEFF)
    return z2[np.asarray(a, dtype=np.int64) - 1]


def compensated_sum(values) -> float:
    """Exactly rounded sum, bit for bit math.fsum's, which makes it
    independent of chunking or order.  Three levels of error-free extraction
    (AccSum: Rump, Ogita, Oishi, SIAM J. Sci. Comput. 31(1), 2008) take the
    bulk in array operations; fsum rounds the rest once."""
    p = np.asarray(values, dtype=np.float64).reshape(-1)
    mu = float(np.max(np.abs(p), initial=0.0))
    # sigma = 2^(M + e) >= 2^M mu, n + 2 <= 2^M, stays below 2^986: no
    # overflow.  NaN and inf go to fsum, which propagates them as before
    if not 0.0 < mu < 2.0 ** 960 or p.size > 1 << 25:
        return math.fsum(p.tolist())
    big_m = (p.size + 1).bit_length()
    levels = []
    for _ in range(3):  # mu = 0 extracts zeros, harmlessly
        sigma = math.ldexp(1.0, big_m + math.frexp(mu)[1])
        # q is a multiple of 2^-53 sigma with |q| <= 2^-M sigma, so every
        # partial sum of n of them is exact; p - q is exact too
        q = (sigma + p) - sigma
        levels.append(float(np.sum(q)))
        p = p - q
        mu = float(np.max(np.abs(p)))
    return math.fsum(levels + p[p != 0.0].tolist())
