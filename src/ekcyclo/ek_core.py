"""Assembly of kappa(q), r(q), gamma_q+, gamma_q from character sums.

Both parities of characters are reduced to s = 0 data through the
functional equation, which avoids Gauss sums entirely:

    odd chi:   L'/L(1, chi) = log 2pi + gamma + G(conj chi)/B1(conj chi)
    even chi:  L'/L(1, chi) = log 2pi + gamma
                              - Z(conj chi) / (2 G(conj chi))

with B1(chi) = sum_a chi(a) a/q (the LINEAR spectrum), G(chi) =
sum_a chi(a) log Gamma(a/q) (LNGAMMA) and Z(chi) = sum_a chi(a)
zeta''(0, a/q) (ZETA2).  Summed over a conjugation-closed family the
conjugations drop out, so the per-parity totals fold into weighted sums
of real parts over one representative 0 < j <= (q-1)/2 per conjugate pair:
kappa and r read the odd sums of charsum.ParitySums, gamma_q+ the even
ones, each with the fold weights that come with them.

    kappa(q)   = -[ (q-1)/2 (log 2pi + gamma) + sum_{odd j} Re G_j/B1_j ] / log q
    r(q)       = (q-1)/2 log(pi/sqrt q) + sum_{odd j} log |B1_j|
    gamma_q+   = gamma + sum_{even j != 0} [ log 2pi + gamma - Re Z_j/(2 G_j) ]
    gamma_q    = gamma_q+ - kappa(q) log q
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import dd as ddm
from .charsum import (ODD, ComputationError, KernelId, PackedTransforms, ParitySums, _twiddles,
                      character_sums_dd, kernel_values, pack_parities, record_error,
                      spectrum_checks, transform_kernel)
from .dd import DD, DDC, dd_exp, dd_log
from .primes import NeighborFlags, PrimeContext, neighbor_flags, primitive_root
from .special_functions import CONSTANTS, compensated_sum

_C = CONSTANTS.log_2pi + CONSTANTS.euler_gamma
PRECISIONS = ("double", "dd")  # binary64 and double-double; the first is the default


@dataclass(frozen=True)
class EkRecord:
    """One output row of the per-prime pipeline."""

    q: int
    kappa: float
    r: float
    gamma_plus: float
    gamma: float
    delta: float
    flags: NeighborFlags


@dataclass(frozen=True)
class KummerCheck:
    q: int
    h1_approx: float
    nearest_int: int
    gap: float


def kappa(sums: ParitySums) -> float:
    """kappa(q) = (gamma_q+ - gamma_q)/log q from the odd LINEAR and LNGAMMA sums."""
    ratios = sums.lg_odd / sums.b1
    total = compensated_sum(sums.w_odd * ratios.real)
    return -(0.5 * (sums.q - 1) * _C + total) / math.log(sums.q)


def kummer_r(sums: ParitySums) -> float:
    """r(q) = log R(q), the log of the product of |L(1, chi)| over odd chi."""
    base = 0.5 * (sums.q - 1) * (math.log(math.pi) - 0.5 * math.log(sums.q))
    return base + compensated_sum(sums.w_odd * np.log(np.abs(sums.b1)))


def gamma_pair(sums: ParitySums, kap: float) -> tuple[float, float]:
    """(gamma_q+, gamma_q) given kappa(q) and the even LNGAMMA and ZETA2 sums;
    the even sums are empty for q = 3 (gamma_q+ = gamma)."""
    u = (sums.z2 / (2.0 * sums.lg_even)).real
    gplus = CONSTANTS.euler_gamma + compensated_sum(sums.w_even * (_C - u))
    return gplus, gplus - kap * math.log(sums.q)


def log_deriv_ratios(sums: ParitySums) -> np.ndarray:
    """Per-character L'/L(1, chi_j) for j = 1..q-2 (index 0 is NaN).

    The ratios G/B1 (odd j) and Z/(2G) (even j) are formed in the precision
    of the sums at each representative j <= (q-1)/2; the partner q-1-j
    takes the conjugate.
    """
    to_complex = DDC.to_complex if isinstance(sums.b1, DDC) else np.asarray
    n = sums.q - 1
    out = np.full(n, np.nan + 0j)
    for first, ratio in ((1, to_complex(sums.lg_odd / sums.b1)),
                         (2, -0.5 * to_complex(sums.z2 / sums.lg_even))):
        j = np.arange(first, first + 2 * ratio.size, 2)
        out[n - j] = _C + ratio
        out[j] = _C + np.conj(ratio)  # j = (q-1)/2 is its own partner
    return out


# -- double-double route -------------------------------------------------


def assemble_dd(sums: ParitySums) -> dict[str, DD]:
    """kappa/r/gamma_plus/gamma in double-double from the parity spectra: the
    real parts of G/B1 (odd) and Z/(2G) (even) by one division of the joined
    sums, the three fold sums by one tree over a zero-padded (3, L) DD."""
    c_dd = ddm.LOG_2PI_DD + ddm.EULER_GAMMA_DD
    half = (sums.q - 1) / 2.0
    odd, even = sums.w_odd.size, sums.w_even.size
    num, den = (DD.stack([x, y], join=np.concatenate)
                for x, y in ((sums.lg_odd, sums.z2), (sums.b1, sums.lg_even.scale_pow2(2.0))))
    den2 = den.abs2()
    ratios = (num.real * den.real - num.imag * -den.imag) / den2  # Re(num conj(den)) / |den|^2

    terms, weights = DD.zeros((3, odd)), np.zeros((3, odd))
    # log |B1|^2 and, last, log q in one dd_log
    logs = dd_log(DD.stack([den2[:odd], DD([float(sums.q)])], join=np.concatenate))
    log_q = logs[-1]
    terms[0], terms[1] = ratios[:odd], logs[:odd].scale_pow2(0.5)  # log |B1|
    terms[2, :even] = c_dd - ratios[odd:]
    weights[:2], weights[2, :even] = sums.w_odd, sums.w_even
    fold = terms.scale_pow2(weights).sum()

    kap = -(c_dd * half + fold[0]) / log_q
    r = (ddm.LOG_PI_DD - log_q.scale_pow2(0.5)) * half + fold[1]
    gplus = ddm.EULER_GAMMA_DD + fold[2]
    gamma = gplus - kap * log_q
    return {"kappa": kap, "r": r, "gamma_plus": gplus, "gamma": gamma}


_SPECTRUM_TOL = {"s0": 1e-12, "parseval": 1e-9}


# The dd principal sums Y_0 = sum y of the even row are checked in dd, against
# one tree sum, relative to S = sum |y|.  With u = 2^-53, a dd product is within
# 7u^2 relative (Joldes, Muller and Popescu, ACM TOMS 44(2), 2017) and a dd sum
# within 3u^2 (|a| + |b|), so a DDC product is within rho = 15u^2 |a| |b|.
# dd_dft gives Y_0 = c_0 conv_0 with c_0 = 1 exactly and conv_0 = sum_k (y_k c_k)
# conj(c_k), the chirp c_k = +-w^i or +-conj(w^i), i <= h/2, from roots_of_unity:
# the root is within u^2/2 of |w| = 1 and w^i takes at most i products, so
# ||c_k|^2 - 1| <= 4h (u^2/2 + rho).  Beyond that, relative to S, the products
# y_k c_k add rho, the slice bits dropped past 106 3u^2 h (data) and 3u^2
# (filter), the count group sums 6 count u^2, the tree of depth d 3 d u^2 and
# the difference 6u^2.
def _s0_dd_tolerance(h: int) -> float:
    count = ddm.slice_plan(1 << (2 * h - 1).bit_length())[1]
    return (65 * h + 6 * count + 3 * (h - 1).bit_length() + 24) * 2.0 ** -106


def parity_transforms(ctx: PrimeContext) -> PackedTransforms:
    """The two packed parity transforms of ctx.q in binary64 (see charsum)."""
    lg, z2 = kernel_values(ctx, KernelId.LNGAMMA), kernel_values(ctx, KernelId.ZETA2)
    h = ctx.n // 2
    lin = (2 * ctx.powers()[:h] - ctx.q) / ctx.q
    packed = pack_parities(ctx, lg, z2, lin, np.empty((2, h), dtype=np.complex128))
    packed[ODD] *= _twiddles(ctx.n)
    # the kernel rows die after the twiddles, before the transform.  Freed
    # before the twiddles, they left the transform 10% more page faults at
    # q ~ 1e6, and large-q 4% fewer records/s
    del lg, z2, lin
    return PackedTransforms(q=ctx.q, packed=packed, spec=transform_kernel(packed))


def check_precision(mode: str) -> None:
    """Refuse a precision mode that is not one of PRECISIONS."""
    if mode not in PRECISIONS:
        raise ValueError(f"unknown precision mode {mode!r}")


def _parity_sums(ctx: PrimeContext, mode: str) -> ParitySums:
    """The parity sums of ctx.q in the precision mode, from transforms that pass their checks."""
    pt = parity_transforms(ctx) if mode == "double" else character_sums_dd(ctx)
    for (name, kernels), residual in spectrum_checks(pt).items():
        tol = _s0_dd_tolerance(pt.packed.shape[-1]) if name == "s0 dd" else _SPECTRUM_TOL[name]
        if not residual <= tol:
            raise record_error(f"spectrum invariant '{name}' failed: residual {residual:.3e} "
                               f"> {tol:g}", pt.q, kernels, f"{mode} spectrum check")
    return pt.sums()


def compute_record(q: int, mode: str = PRECISIONS[0]) -> EkRecord:
    """Full pipeline for one odd prime q.

    Each record takes two packed length-(q-1)/2 transforms, one per parity
    of characters (see charsum), checks their invariants and assembles.
    mode "double" runs in binary64; mode "dd" recomputes kernels, twiddle
    factors and the assembly in double-double arithmetic.
    """
    check_precision(mode)
    ctx = primitive_root(q)
    flags = neighbor_flags(ctx.q)
    sums = _parity_sums(ctx, mode)
    if mode == "double":
        kap = kappa(sums)
        r = kummer_r(sums)
        gplus, g = gamma_pair(sums, kap)
    else:
        parts = assemble_dd(sums)
        kap, r, gplus, g = (float(parts[k].hi) for k in ("kappa", "r", "gamma_plus", "gamma"))
    return EkRecord(q=ctx.q, kappa=kap, r=r, gamma_plus=gplus, gamma=g,
                    delta=kap - r, flags=flags)


def kummer_check(q: int) -> KummerCheck:
    """h1(q) recovered as R(q) G(q) with its distance to the nearest integer.

    The ratio is computed in double-double from spectra that pass the
    record's checks: for q near 100 the class number reaches ~4e11 and a
    1e-6 gap needs far more than binary64 accuracy in exp(r + log G).
    """
    q = operator.index(q)
    if q > 100:
        raise ValueError("kummer_check is limited to q <= 100")
    r_dd = assemble_dd(_parity_sums(primitive_root(q), "dd"))["r"]
    log_g = dd_log(DD(2.0 * q)) + (dd_log(DD(float(q))) - ddm.LOG_2PI_DD.scale_pow2(2.0)) * ((q - 1) / 4.0)
    h1 = dd_exp(r_dd + log_g)
    nearest = int(round(float(h1.hi)))
    gap = abs(float((h1 - float(nearest)).to_float()))
    return KummerCheck(q=q, h1_approx=float(h1.to_float()), nearest_int=nearest, gap=gap)
