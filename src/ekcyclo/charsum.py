"""Character sums for the Dirichlet characters mod q via DFTs.

Indexing the characters by the smallest primitive root g (chi_j(g^k) =
exp(2 pi i j k / n), n = q-1) turns the family of sums

    S_f(chi_j) = sum_{a=1}^{q-1} chi_j(a) f(a/q)

into entry s[j] of the length-n DFT of the kernel values x_k = f(g^k / q),
with the +i sign convention and no normalisation.  chi_j is odd exactly
when j is odd, and for a real kernel s[n-j] = conj(s[j]).

The pipeline needs one parity per kernel, so it splits each parity into a
length-h DFT, h = n/2.  With a_k = g^k mod q, a_{k+h} = q - a_k, and w =
exp(2 pi i / n):

    s[2m]   = sum_{k<h} (x_k + x_{k+h}) exp(2 pi i m k / h)
    s[2m+1] = sum_{k<h} (x_k - x_{k+h}) w^k exp(2 pi i m k / h)

Two real rows go into one complex transform: the even row packs LNGAMMA +
i ZETA2, the odd row LINEAR + i LNGAMMA (the odd part of LINEAR is exactly
2 a_k / q - 1).  Both precisions run one pipeline on one (2, h) batch per
q: pack_parities fills the rows, twiddles the odd one by w^k and returns
the terms that the checks read before the transform overwrites the rows;
spectrum_checks judges the residuals against SPECTRUM_TOL, and
PackedTransforms.sums separates the spectra by conjugate symmetry into
one sum per conjugate pair of characters, with its fold weight.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .dd import DD, DDC, RoundingError, dd_dft, dd_gamma_zeta_kernels, roots_of_unity
from .primes import PrimeContext
from .special_functions import hurwitz_z2_at_rationals, ln_gamma


class KernelId(enum.Enum):
    LINEAR = "linear"     # f(x) = x
    LNGAMMA = "lngamma"   # f(x) = log Gamma(x)
    ZETA2 = "zeta2"       # f(x) = zeta''(0, x)


class ComputationError(ArithmeticError):
    """A record failed a check: a non-finite kernel, an inexact dd transform,
    a spectrum invariant or a vanishing sum.  Built by record_error from its
    message alone, so it pickles back from a pool worker."""


def record_error(what: str, q: int, kernel: str, stage: str) -> ComputationError:
    """The failure `what` of the record at q, naming the kernel and the stage."""
    return ComputationError(f"{what} (q={q}, kernel {kernel}, stage {stage})")


def kernel_values(ctx: PrimeContext, kernel: KernelId) -> np.ndarray:
    """f((g^k mod q)/q) for k = 0..q-2, in power order."""
    if kernel is KernelId.ZETA2:  # the pairs (a_k, a_{k+h} = q - a_k), k < h
        return hurwitz_z2_at_rationals(ctx.powers()[:ctx.n // 2], ctx.q)
    x = ctx.powers() / ctx.q  # float64: every power is exact in it
    return x if kernel is KernelId.LINEAR else ln_gamma(x)


# -- parity split ----------------------------------------------------------

EVEN, ODD = 0, 1  # rows of the packed transforms
# The real part of each row enters times 4, an exact power of two that
# brings its norm near the imaginary part's (the LNGAMMA odd part, the ZETA2
# even part, both about 3 times larger).  Unbalanced, the smaller part's
# spectrum takes on the larger part's rounding: the worst golden kappa
# deviation is then 6.7e-14 instead of 4.5e-14.
_REAL_SCALE = 4.0
# (real part, imaginary part) of each packed row
PACKED_KERNELS = ((KernelId.LNGAMMA, KernelId.ZETA2), (KernelId.LINEAR, KernelId.LNGAMMA))
PACKED_LABELS = tuple(f"{re.value}+{im.value} ({parity})"
                      for (re, im), parity in zip(PACKED_KERNELS, ("even", "odd")))


@dataclass(frozen=True)
class ParitySums:
    """One character sum per conjugate pair, by parity (complex128 or DDC).

    The representatives are the non-principal j <= h = (q-1)/2, ascending:
    b1[m] and lg_odd[m] are s[2m+1] of LINEAR and LNGAMMA for 2m+1 <= h,
    lg_even[m] and z2[m] are s[2m+2] of LNGAMMA and ZETA2 for 2m+2 <= h
    (none for q = 3).  w_odd and w_even count the characters each stands
    for: 2, or 1 at the self-conjugate j = h.  Neither B1 nor L'(0) (the
    even LNGAMMA sums) vanishes (Washington, ch. 4): an exact zero is a fault.
    """

    q: int
    b1: np.ndarray | DDC
    lg_odd: np.ndarray | DDC
    lg_even: np.ndarray | DDC
    z2: np.ndarray | DDC
    w_odd: np.ndarray
    w_even: np.ndarray

    def __post_init__(self):
        for sums, what, kernel in ((self.b1, "B1", KernelId.LINEAR),
                                   (self.lg_even, "L'(0)", KernelId.LNGAMMA)):
            if np.any(getattr(sums, "hi", sums) == 0):  # a normalized dd with hi 0 is 0
                raise record_error(f"vanishing {what} sum", self.q, kernel.value, "assembly")


def _unpack(y, start: int, size: int):
    """(U, V) at the characters y[start:start + size] of Y = DFT(_REAL_SCALE u + i v),
    u, v real, in the precision of y.

    Their partners, the conjugate characters, are y[h-1], y[h-2], ... in
    turn, so U = (Y + conj Y')/(2 _REAL_SCALE) and V = (Y - conj Y')/(2i).
    Every scale is an exact power of two.  Binary64 writes U and V straight
    into two complex128 arrays and scales each part in place.
    """
    a, b = y[start:start + size], y[::-1][:size]
    scale = 0.5 / _REAL_SCALE
    if isinstance(y, DDC):
        return (DDC((a.real + b.real) * scale, (a.imag - b.imag) * scale),
                DDC((a.imag + b.imag) * 0.5, (b.real - a.real) * 0.5))
    u, v = np.empty(size, np.complex128), np.empty(size, np.complex128)
    np.add(a.real, b.real, out=u.real)
    np.subtract(a.imag, b.imag, out=u.imag)
    np.add(a.imag, b.imag, out=v.real)
    np.subtract(b.real, a.real, out=v.imag)
    for part, s in ((u.real, scale), (u.imag, scale), (v.real, 0.5), (v.imag, 0.5)):
        part *= s
    return u, v


def _row_energy(z: np.ndarray) -> np.ndarray:
    """sum |z|^2 along the last axis of a (rows, length) complex array."""
    v = np.ascontiguousarray(z).view(np.float64)
    return np.einsum("ij,ij->i", v, v)


@dataclass(frozen=True)
class PackedTransforms:
    """The length-h DFTs of the packed rows y (EVEN, ODD) of one q, and the
    terms of y that pack_parities returns for spectrum_checks, the same in
    both precisions: energy = h sum |y|^2 per row and s0 = sum y of the even
    row, over the hi words of dd rows.

    Binary64 spectra are complex128 arrays of shape (2, h), which overwrite
    their rows; double-double spectra are one DDC of that shape.
    """

    q: int
    spec: np.ndarray | DDC
    energy: np.ndarray
    s0: complex

    def sums(self) -> ParitySums:
        """Split the packed spectra into one sum per conjugate pair and parity;
        each binary64 sum is written into its own array, in place (_unpack)."""
        spec = self.spec
        h = spec.shape[-1]
        # j = 2m for m = 1..h//2, j = 2m + 1 for m < (h+1)/2; each sum stands
        # for j and its conjugate -j, but j = h is its own
        lg_even, z2 = _unpack(spec[EVEN], 1, h // 2)
        b1, lg_odd = _unpack(spec[ODD], 0, (h + 1) // 2)
        w_even, w_odd = np.full(h // 2, 2.0), np.full((h + 1) // 2, 2.0)
        (w_odd if h % 2 else w_even)[-1:] = 1.0
        return ParitySums(q=self.q, b1=b1, lg_odd=lg_odd, lg_even=lg_even, z2=z2,
                          w_odd=w_odd, w_even=w_even)


def _twiddles(n: int) -> np.ndarray:
    """w^k = exp(2 pi i k / n) for k < n/2, the angle reduced exactly.

    For k <= n/4, 2 pi k / n = t pi/2 + phi with t = round(4k/n) in {0, 1}
    and |phi| <= pi/4: the integer 4k - t n carries the reduction, and the
    factor i^t only swaps parts.  The rest follows exactly from w^(n/2) =
    -1: w^k = -conj(w^(n/2 - k)).
    """
    h = n // 2
    top = h // 2 + 1
    r = np.arange(0, 4 * top, 4, dtype=np.int64)
    k1 = -(-n // 8)  # the first k with t = 1
    r[k1:] -= n
    phi = (0.5 * np.pi) * (r / n)
    c, s = np.cos(phi), np.sin(phi)
    out = np.empty(h, dtype=np.complex128)
    out.real[:k1], out.imag[:k1] = c[:k1], s[:k1]
    np.negative(s[k1:], out=out.real[k1:top])
    out.imag[k1:top] = c[k1:]
    np.negative(out.real[h - top:0:-1], out=out.real[top:])
    out.imag[top:] = out.imag[h - top:0:-1]
    return out


def pack_parities(ctx: PrimeContext, lg, z2, lin, twiddles, packed) -> dict:
    """Fill the (2, h) packed rows from kernel rows in power order, times
    twiddles[:h] = w^k on the odd row, and return the PackedTransforms terms
    that spectrum_checks reads of the rows (over the hi words of a DDC).

    lg and z2 are the LNGAMMA and ZETA2 values (length 2h) of ctx.q, lin =
    (2 a_k - q)/q for k < h the odd part of LINEAR.  It fills a DDC from DD
    rows, and writes a complex128 array from float rows in place, with no
    row temporary; either way it first refuses a non-finite LNGAMMA, then
    ZETA2, value (the hi word of a DD).
    """
    for kernel, vals in ((KernelId.LNGAMMA, lg), (KernelId.ZETA2, z2)):
        bad = np.flatnonzero(~np.isfinite(getattr(vals, "hi", vals)))
        if bad.size:
            raise record_error(f"non-finite value at k={bad[0]}, a={ctx.powers()[bad[0]]}",
                               ctx.q, kernel.value, "kernel evaluation")
    h = packed.shape[-1]
    if isinstance(packed, DDC):
        packed.real[EVEN] = (lg[:h] + lg[h:]) * _REAL_SCALE
        packed.imag[EVEN] = z2[:h] + z2[h:]
        packed.real[ODD] = lin * _REAL_SCALE
        packed.imag[ODD] = lg[:h] - lg[h:]
    else:
        np.add(lg[:h], lg[h:], out=packed.real[EVEN])
        packed.real[EVEN] *= _REAL_SCALE
        np.add(z2[:h], z2[h:], out=packed.imag[EVEN])
        np.multiply(lin, _REAL_SCALE, out=packed.real[ODD])
        np.subtract(lg[:h], lg[h:], out=packed.imag[ODD])
    packed[ODD] *= twiddles[:h]
    y = getattr(packed, "hi", packed)
    return {"energy": h * _row_energy(y), "s0": np.sum(y[EVEN])}


# scipy.fft keeps the complex plans of its last 16 transform lengths (an
# LRU in scipy 1.17).  Every q has its own h, so no plan is ever used twice.
# A Bluestein plan at prime h holds about 96 h bytes, three times its (2, h)
# input, so at h >= 2**18 sixteen of them hold 400 MB and more.  From
# _FREE_PLANS_LENGTH on, transform_kernel first pushes them out with 16
# tiny transforms.  Below it the plans stay: records at h just above 2**17
# took 11% longer with them freed, faulting their memory in anew.  From the
# same length on, the rows go one at a time: pocketfft's work space for a
# batch of rows is about twice that of one row (at h = 500001, Bluestein,
# 107 MB against 61 MB).  Below it the batch stays: rows one at a time at
# every length cut the range-double benchmark (every prime below 2e4, 2
# cores) from a median 519 to 491 records/s, lower in 10 of 10 alternated
# 20 s runs, for 0.6 MB less peak.
_FREE_PLANS_LENGTH = 1 << 18
_PLAN_CACHE_SIZE = 16


def transform_kernel(packed) -> np.ndarray:
    """The length-h DFTs of the rows, along the last axis, in place:
    Y[j] = sum_k y[k] e^{+2 pi i j k / h}, the +i sign and no normalisation.

    A complex128 array is overwritten with its spectra and returned; any
    other input is converted to a new one first.
    """
    y = np.asarray(packed, dtype=np.complex128)
    rows = [y]
    if y.shape[-1] >= _FREE_PLANS_LENGTH:
        for n in range(2, 2 + _PLAN_CACHE_SIZE):  # one plan of length 2..17 per slot
            scipy.fft.ifft(np.zeros(n, dtype=np.complex128))
        rows = [y[row] for row in np.ndindex(y.shape[:-1])]
    for x in rows:
        spec = scipy.fft.ifft(x, norm="forward", overwrite_x=True)
        if not np.shares_memory(spec, x):  # overwrite_x permits, it does not promise
            x[...] = spec
    return y


def character_sums_dd(ctx: PrimeContext) -> PackedTransforms:
    """The packed parity transforms in double-double, batched in one DFT."""
    q, h = ctx.q, ctx.n // 2
    a = ctx.powers()[:h]
    packed, u = DDC.zeros((2, h)), roots_of_unity(ctx.n)  # w^k, and the chirp table of length h
    # the kernel rows in power order (a_{k+h} = q - a_k) die in pack_parities
    terms = pack_parities(ctx, *dd_gamma_zeta_kernels(a, q), DD(2 * a - q) / DD(float(q)),
                          u, packed)
    try:
        spec = dd_dft(packed, u)
    except RoundingError as exc:
        raise record_error(str(exc), q, " and ".join(PACKED_LABELS), "dd transform") from exc
    return PackedTransforms(q=q, spec=spec, **terms)


SPECTRUM_TOL = {"s0": 1e-12, "parseval": 1e-9}


def spectrum_checks(pt: PackedTransforms) -> dict[tuple[str, str], float]:
    """Residuals of the identities of each packed transform y -> Y; the first
    above its SPECTRUM_TOL raises, naming the kernels and the precision.

    Keys are (invariant, kernels): Parseval sum |Y|^2 = h sum |y|^2 on both
    rows, and on the even row the principal sums Y_0 = sum y, whose real
    and imaginary parts are the principal LNGAMMA (times _REAL_SCALE) and
    ZETA2 sums; the terms of y are read from pt.  The same four keys come
    back in both precisions: double-double transforms are checked here in
    binary64 against the high words of their inputs (dd_dft has checked
    the zero bin of each row in dd).
    """
    dd = isinstance(pt.spec, DDC)
    spec = pt.spec.to_complex() if dd else pt.spec
    energy, total = pt.energy, _row_energy(spec)
    out = {("parseval", label): abs(float(total[row] - energy[row])) / max(1.0, float(energy[row]))
           for row, label in enumerate(PACKED_LABELS)}
    s0, total0 = spec[EVEN, 0], pt.s0
    lg, z2 = PACKED_KERNELS[EVEN]
    for kernel, got, want in ((lg, s0.real, total0.real), (z2, s0.imag, total0.imag)):
        out["s0", kernel.value] = abs(float(got - want)) / max(1.0, abs(float(got)))
    for (name, kernels), residual in out.items():
        if not residual <= SPECTRUM_TOL[name]:
            raise record_error(f"spectrum invariant '{name}' failed: residual {residual:.3e} > "
                               f"{SPECTRUM_TOL[name]:g}", pt.q, kernels,
                               f"{'dd' if dd else 'double'} spectrum check")
    return out
