"""Independent reference implementations used only by the tests."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ekcyclo.charsum import KernelId, kernel_values
from ekcyclo.primes import PrimeContext, primitive_root


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def naive_primes_upto(limit: int) -> list[int]:
    return [n for n in range(2, limit + 1) if naive_is_prime(n)]


def dirichlet_series_ratios(q: int, n_terms: int = 10 ** 7,
                            chunk: int = 2_000_000) -> dict[int, complex]:
    """L'/L(1, chi_j) from smoothed partial sums of the defining series.

    Partial sums of sum chi(n)/n and -sum chi(n) log(n)/n are averaged over a
    trailing window whose length is a multiple of the period q, which kills
    the oscillating boundary term of the conditionally convergent series.
    Equivalent weight form: w_n = min(1, (N - n + 1)/W).
    """
    ctx = primitive_root(q)
    dlog = np.zeros(q, dtype=np.int64)
    dlog[ctx.powers()] = np.arange(q - 1)
    window = q * ((n_terms // 2) // q)
    t0 = n_terms - window
    per_res_inv = np.zeros(q)
    per_res_log = np.zeros(q)
    for start in range(1, n_terms + 1, chunk):
        stop = min(start + chunk, n_terms + 1)
        n = np.arange(start, stop, dtype=np.float64)
        w = np.where(n <= t0, 1.0, (n_terms - n + 1) / window)
        res = np.arange(start, stop, dtype=np.int64) % q
        per_res_inv += np.bincount(res, weights=w / n, minlength=q)
        per_res_log += np.bincount(res, weights=w * np.log(n) / n, minlength=q)
    order = q - 1
    out = {}
    for j in range(1, order):
        chi = np.exp(2.0 * np.pi * 1j * j * dlog[1:] / order)
        l_one = np.sum(chi * per_res_inv[1:])
        l_prime = -np.sum(chi * per_res_log[1:])
        out[j] = l_prime / l_one
    return out


def character_table(ctx: PrimeContext) -> np.ndarray:
    """chi[j, a-1] = chi_j(a) built directly from the discrete log."""
    q = ctx.q
    dlog = np.zeros(q, dtype=np.int64)
    dlog[ctx.powers()] = np.arange(q - 1)
    j = np.arange(q - 1)[:, None]
    return np.exp(2.0 * np.pi * 1j * j * dlog[1:][None, :] / (q - 1))


def dft_direct(x, rows=None) -> np.ndarray:
    """X[j] = sum_k x[k] e^{+2 pi i j k / n} in quadratic time, along the first
    axis of x, at the rows j (all n by default).

    The rows are taken 512 at a time, so a few rows of a long transform never
    build the full n x n matrix.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
    k = np.arange(n)
    out = np.empty(rows.shape + x.shape[1:], dtype=np.complex128)
    for start in range(0, rows.size, 512):
        j = rows[start:start + 512]
        out[start:start + 512] = np.exp(2j * np.pi * (np.outer(j, k) % n) / n) @ x
    return out


def direct_parity_sums(ctx: PrimeContext) -> dict[str, np.ndarray]:
    """The fields of charsum.ParitySums by dft_direct of the kernel values at
    their representatives j <= (q-1)/2: odd j for b1 and lg_odd, non-principal
    even j for lg_even and z2 (none for q = 3)."""
    h = ctx.n // 2
    x = np.stack([kernel_values(ctx, kernel)
                  for kernel in (KernelId.LINEAR, KernelId.LNGAMMA, KernelId.ZETA2)], axis=-1)
    odd, even = dft_direct(x, np.arange(1, h + 1, 2)), dft_direct(x, np.arange(2, h + 1, 2))
    return {"b1": odd[:, 0], "lg_odd": odd[:, 1], "lg_even": even[:, 1], "z2": even[:, 2]}


def mirrored_prime_sum(q: int, x: float, weight: str) -> float:
    """Class-swapped (+1 <-> -1) truncated sums by direct enumeration."""
    total = 0.0
    for p in naive_primes_upto(int(x)):
        pm, m = p, 1
        while pm <= x:
            rem = pm % q
            if rem == q - 1:
                sign = 1.0
            elif rem == 1:
                sign = -1.0
            else:
                sign = 0.0
            if sign:
                if weight == "f":
                    total += sign / (m * pm)
                elif weight == "g" and m == 1:
                    total += sign / pm
                elif weight == "w" and m == 1:
                    total += sign * math.log(p) / pm
                elif weight == "v" and m >= 2:
                    total += sign * math.log(p) / pm
            pm *= p
            m += 1
    return total / math.log(q) if weight in ("w", "v") else total


def harmonic_threshold_loop(c: float) -> tuple[int, float]:
    """Least N with 1 + sum_{n<=N} 1/(2n) > c, and that sum, by adding one term
    at a time (the threshold as first written: O(N) in time and memory)."""
    terms = [1.0]
    n = 0
    total = 1.0
    while total <= c:
        n += 1
        terms.append(1.0 / (2 * n))
        total += terms[-1]
    return n, math.fsum(terms)


def omega_mirrored(p: int, elements: tuple[int, ...]) -> int:
    """Root count of X prod (a_i X - 1) mod p by direct scan."""
    count = 0
    for x in range(p):
        acc = x
        for a in elements:
            acc = acc * (a * x - 1) % p
        if acc % p == 0:
            count += 1
    return count


def unblocked_dd_kernels(q: int):
    """(log Gamma(a/q), zeta''(0, a/q)), a = 1..q-1, in double-double, by one
    pass of the Taylor series over every a with its own t = a/q - 1/2: no
    blocks, and a and q - a not paired."""
    from ekcyclo.dd import _HEAD, _TAIL, DD, dd_log
    from ekcyclo.special_functions import horner_rows
    a = np.arange(1.0, q)
    t = DD(2.0 * a - q) / DD(2.0 * q)
    u = t * t
    p = DD(horner_rows(_TAIL, u.hi))
    for c in _HEAD:
        p = p * u + c
    f = p[0::2] + p[1::2] * t  # LG(1 + a/q), F(1 + a/q)
    logs = dd_log(DD(a)) - dd_log(DD(float(q)))
    return f[0] - logs, f[1] + logs * logs


def bits_equal(x, y) -> bool:
    """Whether two DD or DDC arrays have the same shape and the same hi and lo bits."""
    if hasattr(x, "real"):
        return bits_equal(x.real, y.real) and bits_equal(x.imag, y.imag)
    return all(np.shape(a) == np.shape(b) and np.array_equal(np.asarray(a).view(np.int64),
                                                             np.asarray(b).view(np.int64))
               for a, b in ((x.hi, y.hi), (x.lo, y.lo)))


def looped_dd_cos_sin(theta):
    """cos and sin of a DD theta, |theta| <= pi/2, as two Taylor loops of 20
    Horner steps each on DD arrays (the dd root-of-unity seed before the
    integer one)."""
    from ekcyclo.dd import _INV_FACT, DD
    t2 = theta.square()
    c, s = DD.zeros(theta.shape), DD.zeros(theta.shape)
    for i in range(40, 1, -2):
        c = (c + _INV_FACT[i] * (1 if i % 4 == 0 else -1)) * t2
        s = (s + _INV_FACT[i + 1] * (1 if i % 4 == 0 else -1)) * t2
    return c + 1.0, (s + 1.0) * theta


def two_product_powers(w, count: int):
    """dd._powers with two DDC products per doubling step, one for the new
    block of powers and one for the next square (the form before merging)."""
    from ekcyclo.dd import DD, DDC
    out = DDC.zeros(count)
    out[0] = DDC(DD(1.0), DD(0.0))
    wp, size = w, 1
    while size < count:
        take = min(size, count - size)
        out[size:size + take] = out[0:take] * wp
        size *= 2
        if size < count:
            wp = wp * wp
    return out


def separate_assemble_dd(sums):
    """ek_core.assemble_dd with one DDC division per parity, the imaginary
    parts formed too, and one fold tree per quantity (the form before merging)."""
    import ekcyclo.dd as ddm
    from ekcyclo.dd import DD, dd_log

    def fold(values, weights):
        return DD(0.0) if values.shape[-1] == 0 else values.scale_pow2(weights).sum()

    log_q = dd_log(DD(float(sums.q)))
    c_dd = ddm.LOG_2PI_DD + ddm.EULER_GAMMA_DD
    half = (sums.q - 1) / 2.0
    kap = -(c_dd * half + fold((sums.lg_odd / sums.b1).real, sums.w_odd)) / log_q
    log_mags = dd_log(sums.b1.abs2()).scale_pow2(0.5)
    r = (ddm.LOG_PI_DD - log_q.scale_pow2(0.5)) * half + fold(log_mags, sums.w_odd)
    u = (sums.z2 / sums.lg_even.scale_pow2(2.0)).real
    gplus = ddm.EULER_GAMMA_DD + fold(c_dd - u, sums.w_even)
    return {"kappa": kap, "r": r, "gamma_plus": gplus, "gamma": gplus - kap * log_q}


def _bit_reverse_indices(m: int) -> np.ndarray:
    bits = m.bit_length() - 1
    idx = np.arange(m)
    rev = np.zeros(m, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def dd_fft_pow2(x):
    """X[j] = sum_k x[k] exp(-2 pi i j k / m) along the last axis of a DDC, m a
    power of 2, by an in-order iterative radix-2 FFT with a double-double
    twiddle table (the transform dd_dft took before its integer slices).
    The inverse is conj(dd_fft_pow2(conj X)) / m, bit for bit."""
    from ekcyclo.dd import DDC, _powers, _root_of_unity
    m = x.shape[-1]
    if m == 1:
        return x.copy()
    table = _powers(_root_of_unity(m).conj(), m // 2)
    x = x[..., _bit_reverse_indices(m)]
    lead = x.shape[:-1]
    h = 1
    while h < m:
        y = x.reshape(*lead, m // (2 * h), 2, h)
        even = y[..., 0, :]
        odd = y[..., 1, :] * table[::m // (2 * h)]
        x = DDC.zeros(y.shape)
        x[..., 0, :] = DDC(even.real + odd.real, even.imag + odd.imag)
        x[..., 1, :] = DDC(even.real - odd.real, even.imag - odd.imag)
        x = x.reshape(*lead, m)
        h *= 2
    return x


def radix2_dd_dft(x, u):
    """dd.dd_dft's Bluestein reduction with its convolution taken by dd_fft_pow2."""
    from ekcyclo.dd import DDC
    n = x.shape[-1]
    if n == 1:
        return x.copy()
    m = 1 << (2 * n - 1).bit_length()
    chirp = u[(np.arange(n, dtype=np.int64) ** 2) % (2 * n)]
    filt = DDC.zeros(m)
    filt[0:n] = chirp.conj()
    filt[m - (n - 1):m] = chirp[n - 1:0:-1].conj()
    a = DDC.zeros(x.shape[:-1] + (m,))
    a[..., 0:n] = x * chirp
    spec = dd_fft_pow2(a) * dd_fft_pow2(filt)
    conv = dd_fft_pow2(spec.conj()).conj().scale_pow2(1.0 / m)
    return conv[..., 0:n] * chirp


def _kronecker_bias(length: int) -> int:
    return int.from_bytes(np.full(length, 2 ** 62, dtype="<u8").tobytes(), "little")


def _kronecker_pack(v) -> int:
    """sum_k v[k] 2^(64 k) for integers |v[k]| < 2^62, as one Python int."""
    v = np.asarray(v, dtype=np.int64)
    return int.from_bytes((v + 2 ** 62).astype("<u8").tobytes(), "little") - _kronecker_bias(v.size)


def _kronecker_unpack(p: int, length: int) -> np.ndarray:
    """The digits of p = sum_k c[k] 2^(64 k), |c[k]| < 2^62, k < length."""
    raw = (p + _kronecker_bias(length)).to_bytes(8 * length, "little")
    return np.frombuffer(raw, dtype="<u8").astype(np.int64) - 2 ** 62


def grouped_int_convolutions(data, filt) -> np.ndarray:
    """Z[g] = sum_{s+t=g} conv(data[s], filt[t]), g < count, cyclic of length m,
    from Gaussian-integer slices data and filt of shape (count, m); exact, in
    Python ints by Kronecker substitution (64-bit digits, every partial sum
    below 2^62) and three products per complex pair.  Returns complex128."""
    count, m = filt.shape
    dp = [(_kronecker_pack(v.real), _kronecker_pack(v.imag)) for v in data]
    fp = [(_kronecker_pack(v.real), _kronecker_pack(v.imag)) for v in filt]
    out = np.zeros((count, m), dtype=np.complex128)
    for g in range(count):
        re = im = 0
        for (ar, ai), (fr, fi) in zip(dp[:g + 1], fp[g::-1]):
            rr, ii = ar * fr, ai * fi
            re += rr - ii
            im += (ar + ai) * (fr + fi) - rr - ii
        for part, total in ((out.real, re), (out.imag, im)):
            linear = _kronecker_unpack(total, 2 * m)
            part[g] = linear[:m] + linear[m:]
    return out


def own_root_dd_dft(x):
    """dd.dd_dft with its own chirp table roots_of_unity(2n), one row of a
    (rows, n) batch at a time."""
    from ekcyclo.dd import DDC, dd_dft, roots_of_unity
    n = x.shape[-1]
    u = roots_of_unity(2 * n)
    if len(x.shape) == 1:
        return dd_dft(x, u)
    out = DDC.zeros(x.shape)
    for r in range(x.shape[0]):
        out[r] = dd_dft(x[r], u)
    return out


def own_root_dd_spectra(ctx: PrimeContext):
    """(packed rows, spectra) of charsum.character_sums_dd with the twiddles
    and the chirp each from a roots_of_unity table of their own and
    own_root_dd_dft."""
    from ekcyclo.charsum import ODD, pack_parities
    from ekcyclo.dd import DD, DDC, dd_gamma_zeta_kernels, roots_of_unity
    q, h = ctx.q, ctx.n // 2
    a = ctx.powers()[:h]
    lg, z2 = dd_gamma_zeta_kernels(a, q)
    packed = pack_parities(ctx, lg, z2, DD(2 * a - q) / DD(float(q)), DDC.zeros((2, h)))
    packed[ODD] *= roots_of_unity(ctx.n)[:h]
    return packed, own_root_dd_dft(packed)


def resultant(f: list, g: list) -> Fraction:
    """Res(f, g) of two polynomials given as coefficient lists, lowest degree
    first, with nonzero leading coefficients, by the Euclidean algorithm over
    Fraction: Res(f, g) = (-1)^(mn) lc(g)^(m-k) Res(g, f mod g), k = deg(f mod g),
    down to Res(f, c) = c^m for a constant c."""
    res = Fraction(1)
    while len(g) > 1:
        m, n = len(f) - 1, len(g) - 1
        r = [Fraction(c) for c in f]
        for i in range(m, n - 1, -1):  # clear r[i] with r[i]/lc(g) x^(i-n) g
            c = r[i] / g[-1]
            for j in range(n + 1):
                r[i - n + j] -= c * g[j]
        r = r[:n]
        while r and r[-1] == 0:
            r.pop()
        if not r:
            return Fraction(0)
        res *= (-1) ** (m * n) * Fraction(g[-1]) ** (m - len(r) + 1)
        f, g = g, r
    return res * Fraction(g[0]) ** (len(f) - 1)


def exact_h1(q: int) -> Fraction:
    """The relative class number h1(q) = 2q prod_{chi odd} (-B_{1,chi}/2) of an
    odd prime q (Washington, Introduction to Cyclotomic Fields, Thm 4.17), exactly.

    With h = (q-1)/2, a_k = g^k mod q and G(x) = sum_{k<h} (2 a_k - q) x^k,
    G at the root chi(g) of x^h + 1 is q B_{1,chi}, so the product over the
    odd characters is Res(x^h + 1, G) and h1 = 2q (-1)^h Res / (2q)^h.
    """
    h = (q - 1) // 2
    g = [2 * int(a) - q for a in primitive_root(q).powers()[:h]]
    return 2 * q * (-1) ** h * resultant([1] + [0] * (h - 1) + [1], g) / Fraction(2 * q) ** h
