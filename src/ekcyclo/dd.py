"""Vectorised double-double (~31 significant digits) arithmetic.

A value is an unevaluated sum hi + lo of two doubles with |lo| <= ulp(hi)/2.
All primitives are branch-free elementwise numpy expressions built from the
classic error-free transforms (Knuth two-sum, Dekker split/product), so the
whole layer vectorises over arrays of any shape.

On top of the scalar layer sit complex values (DDC, a DD with complex128
words), exp/log, roots of unity and a Bluestein chirp-z DFT of any length
n.  exp is table-driven: a Cody-Waite reduction by ln2/64, a 64-entry table
of 2^(j/64) built from Python integers and ten Taylor terms; log is one
Newton step on it.  The roots of unity of an even n are powers of one root
up to a quarter turn and exact reflections of them.  The DFT's convolution
is taken exactly: the double-double rows are cut into signed integer slices
of b bits, the slices are convolved on binary64 FFTs (scipy.fft) with an
error bound below 1/8, and rint recovers the integer convolutions, which
are summed back in double-double.  No fused-multiply-add is assumed.  The
DFT takes its chirp table from the caller: a record's twiddles
exp(2 pi i k / (q-1)) are that table, so one root of unity serves both.
Last come the record's kernels log Gamma(a/q) and zeta''(0, a/q), from the
Taylor series at 3/2 of special_functions (dd_gamma_zeta_kernels).
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import scipy.fft

from .special_functions import (
    EULER_GAMMA_STR,
    F_TAYLOR_STR,
    LG_TAYLOR_STR,
    LN2_STR,
    LOG_2PI_STR,
    LOG_PI_STR,
    PI_STR,
    horner_rows,
)

_SPLITTER = 134217729.0  # 2^27 + 1


def _two_sum(a, b):
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def _quick_two_sum(a, b):
    # requires |a| >= |b| elementwise
    s = a + b
    err = b - (s - a)
    return s, err


def _split(a):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = (ah, al) if b is a else _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


class DD:
    """Array of double-double reals; DD(hi, lo) coerces and broadcasts."""

    __slots__ = ("hi", "lo")

    def __init__(self, hi, lo=0.0):
        self.hi = np.asarray(hi, dtype=np.float64)
        lo = np.asarray(lo, dtype=np.float64)
        if lo.shape != self.hi.shape:
            lo = np.broadcast_to(lo, self.hi.shape)
        self.lo = lo

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_fraction(fr: Fraction) -> "DD":
        hi = float(fr)
        lo = float(fr - Fraction(hi))
        return DD(hi, lo)

    @staticmethod
    def from_str(s: str) -> "DD":
        return DD.from_fraction(Fraction(s))

    @staticmethod
    def zeros(shape) -> "DD":
        return _dd(np.zeros(shape), np.zeros(shape))

    @staticmethod
    def stack(parts, axis=0, join=np.stack) -> "DD":
        """The words of parts joined by np.stack, or by join (np.concatenate)."""
        return _dd(join([p.hi for p in parts], axis), join([p.lo for p in parts], axis))

    # -- structure helpers --------------------------------------------
    @property
    def shape(self):
        return self.hi.shape

    def __getitem__(self, idx) -> "DD":
        return _dd(self.hi[idx], self.lo[idx])

    def __setitem__(self, idx, value: "DD"):
        self.hi[idx] = value.hi
        self.lo[idx] = value.lo

    def reshape(self, *shape) -> "DD":
        return _dd(self.hi.reshape(*shape), self.lo.reshape(*shape))

    def copy(self) -> "DD":
        return _dd(self.hi.copy(), self.lo.copy())

    def to_float(self):
        return self.hi + self.lo

    # -- arithmetic ----------------------------------------------------
    def __neg__(self):
        return _dd(-self.hi, -self.lo)

    def __add__(self, other):
        # "sloppy" addition: error O(eps^2 max(|a|,|b|)) instead of the
        # IEEE-style O(eps^2 |a+b|); ample for the ~1e-30 budget here.  A
        # double, or an array of them, adds no low word
        b, lo = (other.hi, self.lo + other.lo) if isinstance(other, DD) else (other, self.lo)
        s, e = _two_sum(self.hi, b)
        return _dd(*_quick_two_sum(s, e + lo))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, float) and math.frexp(other)[0] == 0.5:
            return self.scale_pow2(other)  # a power of two scales exactly
        if isinstance(other, DD):
            p1, p2 = _two_prod(self.hi, other.hi)
            p2 = p2 + (self.hi * other.lo + self.lo * other.hi)
        else:  # a double, or an array of them: two error-free transforms
            p1, p2 = _two_prod(self.hi, other)
            p2 = p2 + self.lo * other
        return _dd(*_quick_two_sum(p1, p2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, DD):
            other = DD(other)
        q1 = self.hi / other.hi
        r = self - other * q1
        q2 = r.hi / other.hi
        r = r - other * q2
        q3 = r.hi / other.hi
        return _dd(*_quick_two_sum(q1, q2)) + q3

    def scale_pow2(self, f) -> "DD":
        """Multiply by an exact power of two (per-element allowed); on complex
        words, by f + 0i, which may flip the sign of a zero part."""
        return _dd(self.hi * f, self.lo * f)

    def square(self) -> "DD":
        return self * self

    def sum(self) -> "DD":
        """Pairwise tree reduction along the last axis."""
        acc = self
        while acc.shape[-1] > 1:
            m = acc.shape[-1]
            half = m // 2
            pair = acc[..., :2 * half:2] + acc[..., 1:2 * half:2]
            if m % 2:
                pair = _dd(np.concatenate([pair.hi, acc.hi[..., -1:]], axis=-1),
                           np.concatenate([pair.lo, acc.lo[..., -1:]], axis=-1))
            acc = pair
        return acc[..., 0]


_COMPLEX = np.dtype(np.complex128)


def _dd(hi, lo) -> DD:
    """DD(hi, lo) unchecked, a DDC if complex: the words of an arithmetic result."""
    out = object.__new__(DDC if hi.dtype is _COMPLEX else DD)
    out.hi, out.lo = hi, lo
    return out


# -- transcendental constants ------------------------------------------
PI_DD = DD.from_str(PI_STR)
LOG_2PI_DD = DD.from_str(LOG_2PI_STR)
LOG_PI_DD = DD.from_str(LOG_PI_STR)
EULER_GAMMA_DD = DD.from_str(EULER_GAMMA_STR)

_INV_FACT = [DD.from_fraction(Fraction(1, math.factorial(i))) for i in range(44)]
_FIX = 160  # fraction bits of the fixed-point seeds; PI_STR carries 230 bits


def _exp_table() -> DD:
    """2^(j/64) for j < 64: 2^(1/64) by six nested isqrt of 2 in _FIX-bit fixed
    point, the others its powers, in Python integers (each within 2^-150); the
    int divisions round hi and lo to nearest."""
    one, root = 1 << _FIX, 2 << _FIX
    for _ in range(6):
        root = math.isqrt(root << _FIX)
    x, his, los = one, [], []
    for _ in range(64):
        his.append(x / one)
        los.append((x - int(his[-1] * one)) / one)
        x = x * root >> _FIX
    return DD(his, los)


_EXP_TABLE = _exp_table()
# Cody-Waite split of ln2/64: C1 keeps 36 significant bits, so n C1 is exact for
# |n| < 2^17 (|a| < 1400), and C2 = ln2/64 - C1 is a dd
_LN2_64 = Fraction(LN2_STR) / 64
_EXP_C1 = round(_LN2_64 * 2 ** 42) / 2.0 ** 42
_EXP_C2 = DD.from_fraction(_LN2_64 - Fraction(_EXP_C1))
_INV_LN2_64 = float(1 / _LN2_64)


def dd_exp(a: DD) -> DD:
    """exp(a), to dd precision for -670 < a < 709 (below, the low word goes
    subnormal); table-driven (Tang, ACM TOMS 15(2), 1989).

    a = (64 k + j) ln2/64 + r with |r| <= ln2/128, so exp(a) = 2^k T_j (1 +
    expm1(r)), T_j = 2^(j/64) from a dd table and expm1(r) by 10 Taylor terms
    (truncation below 3e-33).  r = (a.hi - n C1) + a.lo - n C2: n C1 is exact,
    and so, by Sterbenz, is its difference from a.hi.
    """
    n = np.rint(a.hi * _INV_LN2_64)
    r = _dd(*_two_sum(a.hi - n * _EXP_C1, a.lo)) - _EXP_C2 * n
    p = _INV_FACT[10] * r  # the bits of (0 + 1/10!) r
    for i in range(9, 0, -1):
        p = (p + _INV_FACT[i]) * r
    n = n.astype(np.int64)
    t = _EXP_TABLE[n & 63]
    out = t + t * p
    two_k = np.ldexp(1.0, n >> 6)
    return _dd(out.hi * two_k, out.lo * two_k)


def dd_log(a: DD) -> DD:
    """log(a) for a > 0, by one Newton correction of the double log."""
    y0 = np.log(a.hi)
    r = a * dd_exp(DD(-y0)) - 1.0
    # |r| ~ 1e-16, so r^2/2 only matters at double precision
    return r + y0 - 0.5 * r.hi * r.hi


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i im, written straight into one complex128 array."""
    out = np.empty(re.shape, np.complex128)
    out.real, out.imag = re, im
    return out


class DDC(DD):
    """Array of double-double complex values: a DD with complex128 words.  A
    complex sum is two IEEE sums, so DD's sums, scalings and containers act
    exactly part by part; only the products below need the parts."""

    __slots__ = ()

    def __init__(self, real: DD, imag: DD):
        self.hi = _complex(real.hi, imag.hi)
        self.lo = _complex(real.lo, imag.lo)

    @staticmethod
    def zeros(shape) -> "DDC":
        return _dd(np.zeros(shape, np.complex128), np.zeros(shape, np.complex128))

    @property
    def real(self) -> DD:
        return _dd(self.hi.real, self.lo.real)

    @property
    def imag(self) -> DD:
        return _dd(self.hi.imag, self.lo.imag)

    def __mul__(self, other: "DDC") -> "DDC":
        ar, ai, br, bi = self.real, self.imag, other.real, other.imag
        return DDC(ar * br - ai * bi, ar * bi + ai * br)

    __rmul__ = __mul__

    def conj(self) -> "DDC":
        return _dd(self.hi.conj(), self.lo.conj())

    def abs2(self) -> DD:
        return self.real.square() + self.imag.square()

    def __truediv__(self, other: "DDC") -> "DDC":
        den = other.abs2()
        num = self * other.conj()
        return DDC(num.real / den, num.imag / den)

    to_complex = DD.to_float  # hi + lo


# -- roots of unity and the DFT -------------------------------------------
_PI_FIX = round(Fraction(PI_STR) * 2 ** _FIX)


def _root_of_unity(m: int) -> DDC:
    """exp(2 pi i / m) in double-double, m a positive integer, each part the
    nearest dd to a value within 2^-150.  2 pi / m = t pi/2 + phi, t = round(4/m)
    quarter turns, phi = (pi/2) r/m with |r/m| <= 1/2: cos and sin of phi are
    Taylor series in Python integers with _FIX fraction bits, and i^t swaps parts."""
    t = (4 + m // 2) // m
    r = 4 - t * m
    x = _PI_FIX * abs(r) // (2 * m)  # |phi| <= pi/4 in fixed point
    parts, term, k = [0, 0], 1 << _FIX, 0
    while term:  # x^k / k! for cos (k even) and sin (k odd), alternating by pairs
        parts[k % 2] += term if k % 4 < 2 else -term
        k += 1
        term = term * x // (k << _FIX)
    c, s = parts[0], parts[1] if r >= 0 else -parts[1]
    for _ in range(t % 4):
        c, s = -s, c
    return DDC(*(DD.from_fraction(Fraction(v, 1 << _FIX)) for v in (c, s)))


def _powers(w: DDC, count: int) -> DDC:
    """w^k for k < count, by doubling the computed prefix; one product per step
    gives out[:take] w^s and the next w^s w^s.  Element k is filled at the same
    step for any count: a shorter table is a prefix."""
    out = DDC.zeros(count)
    out.hi[0] = 1.0
    wp, size = w, 1
    while size < count:
        take = min(size, count - size)
        step = DD.stack([out[:take], wp.reshape(1)], join=np.concatenate) * wp
        out[size:size + take], wp = step[:take], step[take]
        size *= 2
    return out


def roots_of_unity(n: int) -> DDC:
    """exp(2 pi i k / n) for k < n, n even: with n = 2 len, the chirp table of
    dd_dft.  The powers k < n/4 of the root, w^(n/4) = i when 4 | n, and the
    rest by exact symmetries, negations and copies: w^(n/2 - k) = -conj(w^k)
    and w^(n/2 + k) = -w^k.
    """
    half, count = n // 2, (n + 2) // 4
    head = _powers(_root_of_unity(n), count)
    out = DDC.zeros(n)
    out[:count] = head
    if 4 * count == n:
        out.hi[count] = 1j
    out[half + 1 - count:half + 1] = -head[::-1].conj()
    out[half:] = -out[:half]
    return out


class RoundingError(ArithmeticError):
    """An FFT convolution of integer slices came out too far from integers."""


# Error model of slice_plan.  A Bluestein convolution of length m = 2^k
# convolves a data row of n <= m/2 points with a filter of 2n - 1 < m
# points.  Both are cut into slices of Gaussian integers whose parts are at
# most 2^b, so a data slice has ||A||_2 <= sqrt(2n) 2^b <= sqrt(m) 2^b and a
# filter slice ||F||_2 <= sqrt(2(2n-1)) 2^b < sqrt(2m) 2^b.  Percival (Math.
# Comp. 72, 2003, Thm 5.1) bounds the binary64 FFT convolution of x and y,
# with unit roundoff eps = 2^-53 and twiddles within beta of exact, by
#     ||z' - z||_inf <= ||x|| ||y|| ((1+eps)^3k (1+sqrt5 eps)^(3k+1) (1+beta)^3k - 1).
# Group g adds at most count spectral products before its one inverse, one
# rounding (1+eps) more per addition, so each group sum is off by at most
#     count sqrt(2) m 4^b ((1+eps)^(3k+count) (1+sqrt5 eps)^(3k+1) (1+beta)^3k - 1).
# The model takes beta = 4 eps (pocketfft multiplies two table entries, each
# within about an ulp, into one twiddle), and takes pocketfft's radix-4
# passes to round no worse per level than the radix-2 butterflies of the
# theorem.  With the bound at most 1/8, the sums |Z_g| <= count m 4^b lie
# far below 2^53, so rint recovers them exactly; the runtime check allows 1/4.
_EPS = 2.0 ** -53
_TWIDDLE_ERR = 4.0 * _EPS
_DD_BITS = 106  # significand bits of a dd word, to be covered by the slices
_MAX_RESIDUAL = 0.25


def slice_plan(m: int) -> tuple[int, int]:
    """(b, count) for exact convolutions of length m = 2^k: the fewest slices
    count, each b = ceil(106 / count) bits wide, whose bound in the error
    model above is at most 1/8."""
    k = m.bit_length() - 1
    for count in range(1, _DD_BITS + 1):
        b = -(-_DD_BITS // count)
        growth = math.expm1((3 * k + count) * math.log1p(_EPS)
                            + (3 * k + 1) * math.log1p(math.sqrt(5.0) * _EPS)
                            + 3 * k * math.log1p(_TWIDDLE_ERR))
        if count * math.sqrt(2.0) * m * 4.0 ** b * growth <= 0.125:
            return b, count
    raise ValueError(f"no exact slicing for length {m}")


def split_slices(hi: np.ndarray, lo: np.ndarray, b: int, out: np.ndarray):
    """Cut the dd words hi + lo, shape (rows, L), into len(out) slices of b bits.

    One block exponent e per row (the binary exponent of its largest |hi|);
    out[s] receives integers |out[s]| <= 2^b such that, exactly,
        hi + lo = 2^e (sum_s out[s] 2^(-b(s+1)) + 2^(-b count) (r_hi + r_lo)),
    with |r_hi + r_lo| <= 1/2 + 2^(b-53).  Every step is error-free: a
    scaling by 2^b, rint, and two_sum of the remainder.  Returns (e, r_hi, r_lo).
    """
    e = np.frexp(np.max(np.abs(hi), axis=-1, keepdims=True))[1]
    scale = np.ldexp(1.0, b - e)
    hi, lo = hi * scale, lo * scale
    for s, y in enumerate(out):
        if s:
            hi, lo = hi * 2.0 ** b, lo * 2.0 ** b
        np.rint(hi, out=y)
        hi, lo = _two_sum(hi - y, lo)
    return e, hi, lo


def convolve_slices(stack: np.ndarray, n: int) -> np.ndarray:
    """The first n points of Z_g = sum_{s+t=g} conv(stack[s, r], stack[t, -1]), g < count.

    stack has shape (count, rows + 1, m): Gaussian-integer slices of the
    data rows r and, last, of the filter; conv is cyclic of length m.  One
    forward FFT of the stack, the group sums in the frequency domain, one
    inverse FFT and rint give Z exactly, as float64 of shape (count, rows,
    2n) with real and imaginary parts interleaved.  The stack is overwritten.
    Raises RoundingError if a point is further than 1/4 from an integer.
    """
    count, rows = stack.shape[0], stack.shape[1] - 1
    spec = scipy.fft.fft(stack, overwrite_x=True)
    data, filt = spec[:, :rows], spec[:, rows]
    for g in range(count - 1, -1, -1):  # data[g] is read last by group g
        data[g] = np.einsum("sm,srm->rm", filt[g::-1], data[:g + 1])
    z = scipy.fft.ifft(data, overwrite_x=True)[:, :, :n].view(np.float64)
    ints = np.rint(z)
    np.abs(np.subtract(z, ints, out=z), out=z)
    residual = float(z.max())
    if not residual <= _MAX_RESIDUAL:
        raise RoundingError(f"FFT convolution off an integer by {residual:.3e} > "
                            f"{_MAX_RESIDUAL:g} ({count} slices, length {stack.shape[-1]})")
    return ints


def dd_dft(x: DDC, u: DDC) -> DDC:
    """X[j] = sum_k x[k] exp(+2 pi i j k / n) along the last axis, any n.

    Bluestein, with u = roots_of_unity(2n) and the chirp c[j] = u[j^2 mod
    2n] = exp(i pi j^2 / n): X = c (conv(x c, conj c)), a cyclic convolution
    of length m >= 2n-1, a power of two.  The data rows and the filter conj
    c are cut into integer slices (split_slices, widths from slice_plan),
    whose convolutions convolve_slices takes exactly on binary64 FFTs; the
    groups are summed back in double-double from the smallest.
    """
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    m = 1 << (2 * n - 1).bit_length()
    rows = math.prod(x.shape[:-1])
    chirp = u[(np.arange(n, dtype=np.int64) ** 2) % (2 * n)]
    # the data rows x c and, last, the filter conj c, parts interleaved in the words
    a = DD.stack([x.reshape(rows, n) * chirp, chirp.conj().reshape(1, n)], join=np.concatenate)
    b, count = slice_plan(m)
    stack = np.zeros((count, rows + 1, m), dtype=np.complex128)
    e = split_slices(a.hi.view(np.float64), a.lo.view(np.float64), b,
                     stack.view(np.float64)[:, :, :2 * n])[0]
    stack[:, rows, m - (n - 1):] = stack[:, rows, n - 1:0:-1]
    z = convolve_slices(stack, n)
    del a, stack  # only z is read from here on: free the slice stack for the sums
    conv = _dd(z[count - 1], 0.0)
    for g in range(count - 2, -1, -1):
        conv = conv + z[g] * 2.0 ** (b * (count - 1 - g))
    conv = conv.scale_pow2(np.ldexp(1.0, e[:rows] + e[rows] - b * (count + 1)))
    conv = _dd(conv.hi.view(np.complex128), conv.lo.view(np.complex128))
    return (conv * chirp).reshape(*x.shape)


# -- double-double kernels at rational points a/q -----------------------
# The Taylor series at 3/2 of special_functions as Horner columns in u = t^2:
# column k holds (c_2k, c_2k+1) of LG and of F, the rows (LG even, LG odd, F
# even, F odd), highest k first.  The head k < 17 (c_0..c_33) takes dd steps.
# The tail k >= 17 runs in binary64 on u.hi: at |t| = 1/2 its terms sum to at
# most 2.7e-18 (LG) and 1.95e-17 (F), and its 18 Horner steps and the dropped
# u.lo move each by at most about 55 eps relative, 1.6e-32 (LG) and 1.2e-31 (F).
_HEAD_COLUMNS = 17
_COLUMNS = [[Fraction(table[j + i]) for table in (LG_TAYLOR_STR, F_TAYLOR_STR) for i in (0, 1)]
            for j in range(0, len(LG_TAYLOR_STR), 2)][::-1]
_TAIL = np.array(_COLUMNS[:-_HEAD_COLUMNS], dtype=np.float64)[:, :, None]
_HEAD = [DD.stack([DD.from_fraction(c) for c in col])[:, None] for col in _COLUMNS[-_HEAD_COLUMNS:]]

# Values of b per block.  A (4, S) word array of 128000 bytes stays below glibc's
# default 128 KiB mmap threshold, past which temporaries can be faulted in anew: a
# cold kernel at q = 99991 took about 1e3 to 2e3 minor faults for S <= 4096, 2.9e3
# at S = 6000 and 8192, 6.4e3 at 16384, and about as long for S = 4000 to 8192.
_BLOCK = 4000


def dd_gamma_zeta_kernels(b: np.ndarray, q: int) -> tuple[DD, DD]:
    """(log Gamma(a/q), zeta''(0, a/q)) in double-double at a = b, then at
    a = q - b, for integers 0 < b < q: each of length 2 len(b).

    log Gamma(x) = LG(3/2 + t) - log x and zeta''(0, x) = F(3/2 + t) + log^2 x
    with t = x - 1/2 (see special_functions): a = b and a = q - b share u =
    t^2 and the four Horner polynomials, and log x is the dd log of the
    integer b or q - b less log q.  Blocks of b fill the (2, 2, len(b))
    result, and as in binary64 no value depends on its block or on which of
    a pair is b.
    """
    b = np.asarray(b, dtype=np.float64)
    out = _dd(np.empty((2, 2, b.size)), np.empty((2, 2, b.size)))  # LG, F; a = b, q - b
    for lo in range(0, b.size, _BLOCK):
        bb = b[lo:lo + _BLOCK]
        t = DD(2.0 * bb - q) / DD(2.0 * q)  # b/q - 1/2
        u = t * t
        p = DD(horner_rows(_TAIL, u.hi))
        for c in _HEAD:
            p = p * u + c
        even, odd = p[0::2], p[1::2] * t  # rows LG, F
        logs = dd_log(DD(np.concatenate([bb, q - bb, [q]])))  # log q rides along, last
        logs = (logs[:-1] - logs[-1]).reshape(2, bb.size)  # log(b/q), log((q - b)/q)
        # rows LG, F; columns a = b (at 3/2 + t) and a = q - b (at 3/2 - t)
        out[:, :, lo:lo + bb.size] = (DD.stack([even + odd, even - odd], axis=1)
                                      + DD.stack([-logs, logs * logs]))
    return out[0].reshape(-1), out[1].reshape(-1)
