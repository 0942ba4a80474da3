"""Real special functions feeding the character-sum kernels.

The Hurwitz-zeta derivatives at s = 0 are needed at the rational points
x = a/q, a = 1..q-1, only.

Binary64 takes zeta''(0, x) = log^2 x + F(3/2 + t), t = x - 1/2, from the
Taylor series of F(y) = zeta''(0, y) at y = 3/2: its even and odd parts in
t serve a and q - a at once (hurwitz_z2_at_rationals).

Double-double (``dd``) takes both derivatives from an Euler-Maclaurin
expansion differentiated analytically in s: with w = x + N and L = log w,

    zeta'(0, x) = -sum_{n<N} log(x+n) + w(L - 1) - L/2
                  + sum_k B_{2k}/(2k(2k-1)) w^{1-2k}
    zeta''(0,x) = sum_{n<N} log^2(x+n) + w(2L - L^2 - 2) + L^2/2
                  + 2 sum_k B_{2k}/(2k(2k-1)) (H_{2k-2} - L) w^{1-2k}

where log(a/q + n) = log(a + n q) - log q takes exact integer logs, with
N = 32 through B_24 (rational_kernels).
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
    if not np.all(arr > 0.0):  # NaN too
        raise ValueError("ln_gamma requires x > 0")
    out = gammaln(arr)
    return float(out) if np.isscalar(x) or arr.ndim == 0 else out


# (B_2k/(2k(2k-1)), H_{2k-2}) for k = 1..12, exact; dd converts them once
EM_COEFFS: list[tuple[Fraction, Fraction]] = [
    (BERNOULLI_2K[2 * k] / (2 * k * (2 * k - 1)), harmonic_fraction(2 * k - 2))
    for k in range(1, 13)
]


def euler_maclaurin_tails(w, L, coeff, s2, s1):
    """(zeta'(0, x), zeta''(0, x)) from their heads, with w = x + N, L = log w.

    s2 = sum_{n<N} log^2(x+n) and s1 = -sum_{n<N} log(x+n).  w, L and the
    heads are DD arrays and coeff = (c, h) the K coefficients as DD columns
    of shape (K, 1).  Large operands add one term at a time; small ones
    take the K terms as rows, each element through the same steps.
    """
    z2 = s2 + w * (2.0 * L - L * L - 2.0) + 0.5 * L * L
    z1 = s1 + w * (L - 1.0) - 0.5 * L
    w2 = 1.0 / (w * w)
    wp = 1.0 / w
    c, h = coeff
    if 8 * c.shape[0] * w.hi.size > _ROWS_BYTES:
        for ck, hk in zip(c, h):  # a DD column yields (1,) rows
            z2 = z2 + 2.0 * ck * (hk - L) * wp
            z1 = z1 + ck * wp
            wp = wp * w2
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


_BLOCK = 16384  # values of a (b for the binary64 zeta'') per block: its rows stay in cache


def rational_kernels(q: int, logs: IntegerLogCache, log_q, shift: int, coeff):
    """(zeta'(0, a/q), zeta''(0, a/q)) for a = 1..q-1 by blocks of a, in the
    precision of logs, log_q and coeff.  Every operation is elementwise: no
    value depends on its block or on where its logs came from."""
    # table rows are views; the last block's reaches one row past (shift + 1) q
    table = logs.upto((shift + 2) * q)
    rows = q * np.arange(shift + 1.0)[:, None]
    z1 = logs.zeros(q - 1)
    z2 = logs.zeros(q - 1)
    for lo in range(0, q - 1, _BLOCK):
        hi = min(lo + _BLOCK, q - 1)
        L = (table[lo:lo + (shift + 1) * q].reshape(shift + 1, q)[:, :hi - lo]
             if table is not None else
             logs.log(np.arange(lo + 1.0, hi + 1.0) + rows)) - log_q  # log(a/q + n)
        head = L[:shift]
        w = (logs.zeros(hi - lo) + np.arange(lo + 1.0, hi + 1.0) + shift * q) / q
        z1[lo:hi], z2[lo:hi] = euler_maclaurin_tails(
            w, L[shift], coeff, (head * head).sum(axis=0), -head.sum(axis=0))
    return z1, z2


# Taylor coefficients c_j, j = 0..33, of F(3/2 + t), F(y) = zeta''(0, y): the
# doubles nearest to 40-digit mpmath values of the closed forms below.  With
# d/dy zeta(s, y) = -s zeta(s+1, y), F^(j)(y)/j! = ((-1)^j/j!) d^2/ds^2 [(s)_j
# zeta(s+j, y)] at s = 0, and zeta(1+s, y) = 1/s - psi(y) - gamma_1(y) s + ...
# (Stieltjes) for j = 1:
#     c_0 = zeta''(0, 3/2) = -(3/2) log^2 2 - log 2 log 2pi,
#     c_1 = 2 gamma_1(3/2),
#     c_j = (2/j)(-1)^j [H_{j-1} zeta(j, 3/2) + zeta'(j, 3/2)]   for j >= 2.
# F is analytic for |y - 3/2| < 3/2, its nearest singularity being y = 0.  The
# leading (2/3)^j of zeta(j, 3/2) sets |c_{j+1}/c_j| < 2/3 for j >= 33 (it rises
# to 2/3 from 0.652), so at |t| <= 1/2 the terms past c_33 shrink by at least
# 3 each and sum to below |c_34| 2^-34 / (1 - 1/3) = 1.95e-17.
_Z2_TAYLOR = (
    -1.9945988276747233, 0.0656693606298982,
    -0.08970564207122216, -0.23677010991883699,
    0.15494024137216617, -0.09395232405376236,
    0.057047526300523795, -0.03496931348832883,
    0.021628684502825502, -0.013476302229343639,
    0.008446793499844783, -0.005320095890043493,
    0.00336433675739655, -0.0021348428158003115,
    0.0013586738930764994, -0.0008669379985392043,
    0.0005544425794821517, -0.0003553171922479806,
    0.00022812856634725433, -0.00014671444994729635,
    9.450009773485192e-05, -6.0954041262729066e-05,
    3.936725928863715e-05, -2.5455843753739968e-05,
    1.6478642298070437e-05, -1.0678321611453787e-05,
    6.926306622735239e-06, -4.496660447866178e-06,
    2.9217515311148066e-06, -1.899934857555258e-06,
    1.2363910363714388e-06, -8.051484157344502e-07,
    5.246646861086693e-07, -3.421037021151368e-07,
)
# F(3/2 +- t) = P_e(t^2) +- t P_o(t^2): row k holds the columns (c_2k, c_2k+1)
# of (P_e, P_o), highest k first, for one Horner pass on a (2, S) block
_Z2_HORNER = np.array(_Z2_TAYLOR).reshape(-1, 2)[::-1, :, None]


def hurwitz_z2_at_rationals(a: np.ndarray, q: int) -> np.ndarray:
    """zeta''(0, a/q) for integer arrays 0 < a < q.

    zeta''(0, x) = log^2 x + F(x + 1), and x + 1 = 3/2 + t with t = x - 1/2:
    the pair a = b and a = q - b, b = 1..q/2, shares t^2 and the two Horner
    polynomials.  Blocks of b are filled in place; every operation is
    elementwise, so no value depends on its block.
    """
    z2 = np.zeros(q - 1)  # not empty: a value left unwritten reads 0, not a stale one
    half = q // 2
    for lo in range(0, half, _BLOCK):
        b = np.arange(lo + 1.0, min(lo + _BLOCK, half) + 1.0)
        t = (2.0 * b - q) / (2.0 * q)  # exactly b/q - 1/2, rounded once
        u = t * t
        p = np.empty((2, b.size))
        p[:] = _Z2_HORNER[0]
        for c in _Z2_HORNER[1:]:
            p *= u
            p += c
        p[1] *= t  # (P_e(u), t P_o(u))
        z = np.stack([b, q - b])
        z /= q
        np.log(z, out=z)
        z *= z
        z[0] += p[0] + p[1]
        z[1] += p[0] - p[1]
        z2[lo:lo + b.size] = z[0]
        z2[q - 1 - lo - b.size:q - 1 - lo] = z[1, ::-1]
    return z2[np.asarray(a, dtype=np.int64) - 1]


# Up to this many values math.fsum over a list is the faster exact sum: at 50
# values it took 1.4 us against 18 us for the array levels, and the two broke
# even between 512 and 768 full-mantissa values (2-core Xeon, numpy 2.4).
_FSUM_MAX = 512


def compensated_sum(values) -> float:
    """Exactly rounded sum, bit for bit math.fsum's, which makes it
    independent of chunking or order.  Past _FSUM_MAX values, up to three
    levels of error-free extraction (AccSum: Rump, Ogita, Oishi, SIAM J. Sci.
    Comput. 31(1), 2008) take the bulk in array operations, and fsum rounds
    the rest once."""
    p = np.asarray(values, dtype=np.float64).reshape(-1)
    if p.size <= _FSUM_MAX or p.size > 1 << 25:
        return math.fsum(p.tolist())
    mu = max(float(p.max()), -float(p.min()))  # NaN if any value is NaN
    # sigma = 2^(M + e) >= 2^M mu, n + 2 <= 2^M, stays below 2^986: no
    # overflow.  NaN and inf go to fsum, which propagates them as before
    if not 0.0 < mu < 2.0 ** 960:
        return math.fsum(p.tolist())
    big_m = (p.size + 1).bit_length()
    levels = []
    rest, q = p.copy(), np.empty_like(p)
    for _ in range(3):
        sigma = math.ldexp(1.0, big_m + math.frexp(mu)[1])
        # q is a multiple of 2^-53 sigma with |q| <= 2^-M sigma, so every
        # partial sum of n of them is exact; rest - q is exact too
        np.add(rest, sigma, out=q)
        q -= sigma
        levels.append(float(q.sum()))
        rest -= q
        mu = max(float(rest.max()), -float(rest.min()))
        if mu == 0.0:  # nothing is left to extract
            return math.fsum(levels)
    return math.fsum(levels + rest[rest != 0.0].tolist())
