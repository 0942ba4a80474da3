import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

import ekcyclo.dd as ddm
from _oracles import (bits_equal, dd_fft_pow2, dft_direct, grouped_int_convolutions,
                      looped_dd_cos_sin, own_root_dd_dft, radix2_dd_dft, two_product_powers)
from ekcyclo.dd import (DD, DDC, EULER_GAMMA_DD, LOG_2PI_DD, PI_DD, RoundingError, _powers,
                        _root_of_unity, convolve_slices, dd_dft, dd_exp, dd_gamma_zeta_kernels,
                        dd_log, roots_of_unity, slice_plan, split_slices)
from ekcyclo.special_functions import PI_STR

mp.mp.dps = 45


def as_mp(x: DD, idx=()):
    hi = np.asarray(x.hi)[idx] if idx != () else np.asarray(x.hi).reshape(-1)[0]
    lo = np.asarray(x.lo)[idx] if idx != () else np.asarray(x.lo).reshape(-1)[0]
    return mp.mpf(float(hi)) + mp.mpf(float(lo))


def test_constants_are_double_double():
    # hi+lo representation carries ~32 digits; half an ulp of lo is ~1.2e-32
    assert abs(as_mp(PI_DD) - mp.pi) < mp.mpf("2e-32")
    assert abs(as_mp(LOG_2PI_DD) - mp.log(2 * mp.pi)) < mp.mpf("2e-32")
    assert abs(as_mp(EULER_GAMMA_DD) - mp.euler) < mp.mpf("2e-32")


def test_field_operations_against_mpmath():
    rng = np.random.default_rng(5)
    a = rng.uniform(-100, 100, 64)
    b = rng.uniform(0.1, 100, 64)
    da, db = DD(a), DD(b)
    for op, ref in ((da + db, lambda x, y: x + y),
                    (da - db, lambda x, y: x - y),
                    (da * db, lambda x, y: x * y),
                    (da / db, lambda x, y: x / y)):
        for i in range(64):
            want = ref(mp.mpf(a[i]), mp.mpf(b[i]))
            assert abs(as_mp(op, (i,)) - want) <= mp.mpf("1e-28") * (1 + abs(want))


def test_ddc_is_a_dd_with_complex_words():
    # sums, scalings and containers act on the complex words part by part,
    # bit for bit; products take the four-product formula on the parts
    rng = np.random.default_rng(37)

    def part():
        hi = rng.uniform(-3, 3, (2, 37))
        return DD(hi, hi * rng.uniform(-1, 1, hi.shape) * 2.0 ** -54)

    ar, ai, br, bi = (part() for _ in range(4))
    a, b = DDC(ar, ai), DDC(br, bi)
    assert isinstance(a, DD) and a.hi.dtype == a.lo.dtype == np.complex128
    assert np.all(a.lo.real != 0) and np.all(a.lo.imag != 0)
    copy = a.copy()
    assert not np.shares_memory(copy.hi, a.hi) and not np.shares_memory(copy.lo, a.lo)
    for got, re, im in ((a + b, ar + br, ai + bi),
                        (a - b, ar - br, ai - bi),
                        (-a, -ar, -ai),
                        (a.scale_pow2(0.25), ar.scale_pow2(0.25), ai.scale_pow2(0.25)),
                        (a[1, ::3], ar[1, ::3], ai[1, ::3]),
                        (a[0, 5], ar[0, 5], ai[0, 5]),
                        (a.reshape(-1), ar.reshape(-1), ai.reshape(-1)),
                        (copy, ar, ai),
                        (DD.stack([a, b], join=np.concatenate),
                         DD.stack([ar, br], join=np.concatenate),
                         DD.stack([ai, bi], join=np.concatenate)),
                        (a.sum(), ar.sum(), ai.sum()),
                        (a * b, ar * br - ai * bi, ar * bi + ai * br)):
        assert isinstance(got, DDC)
        assert bits_equal(got.real, re) and bits_equal(got.imag, im)
    x = DDC.zeros((2, 37))
    x.real[0] = ar[0]  # writes through to the words
    assert bits_equal(DD(x.hi.real[0], x.lo.real[0]), ar[0])
    assert not x.hi.imag.any() and not x.lo.imag.any() and not x.hi[1].any()


def test_power_of_two_product_is_a_scaling():
    # a double 2^k multiplies by scale_pow2's exact path, negative k too
    rng = np.random.default_rng(41)
    hi = rng.uniform(-3, 3, 64)
    x = DD(hi, hi * rng.uniform(-1, 1, 64) * 2.0 ** -54)
    for k in (-60, -3, -1, 0, 1, 2, 40):
        assert bits_equal(x * 2.0 ** k, x.scale_pow2(2.0 ** k))
        assert bits_equal(2.0 ** k * x, x.scale_pow2(2.0 ** k))


def test_exp_log_against_mpmath():
    rng = np.random.default_rng(6)
    xs = rng.uniform(-25, 25, 40)
    ex = dd_exp(DD(xs))
    for i, x in enumerate(xs):
        want = mp.e ** mp.mpf(x)
        assert abs(as_mp(ex, (i,)) / want - 1) < mp.mpf("1e-30")
    ys = rng.uniform(1e-8, 1e9, 40)
    lg = dd_log(DD(ys))
    for i, y in enumerate(ys):
        assert abs(as_mp(lg, (i,)) - mp.log(mp.mpf(y))) < mp.mpf("1e-30")


def test_exp_log_at_dd_precision():
    # dd_exp within 5e-32 relative of 50-digit mpmath: random a in [-600, 700]
    # with random low words (below about -670 the low word goes subnormal and
    # no dd keeps 32 digits), every table edge m ln2/64 and midpoint (m + 1/2)
    # ln2/64, where j wraps and k carries, 0 and |a| < 1e-300.  dd_log within
    # 3e-31 absolute over (1e-8, 1e9), the integers 1..2000 and 2^-30..2^29.
    rng = np.random.default_rng(17)
    with mp.workdps(50):
        edges = [mp.log(2) * m / 128 for m in range(-128, 129)]
        hi = np.concatenate([rng.uniform(-600, 700, 500), [float(e) for e in edges],
                             [0.0, 1e-300, -1e-300, 5e-324, -5e-324]])
        lo = np.zeros_like(hi)
        lo[:500] = np.spacing(np.abs(hi[:500])) * rng.uniform(-0.5, 0.5, 500)
        lo[500:500 + len(edges)] = [float(e - mp.mpf(float(e))) for e in edges]
        ex = dd_exp(DD(hi, lo))
        for i in range(hi.size):
            want = mp.exp(mp.mpf(hi[i]) + mp.mpf(lo[i]))
            assert abs(as_mp(ex, (i,)) / want - 1) < mp.mpf("5e-32"), (hi[i], lo[i])
        spread = np.exp(rng.uniform(math.log(1e-8), math.log(1e9), 500))
        ys = np.concatenate([spread, np.arange(1.0, 2001.0), 2.0 ** np.arange(-30, 30)])
        ylo = np.zeros_like(ys)
        ylo[:500] = np.spacing(spread) * rng.uniform(-0.5, 0.5, 500)
        lg = dd_log(DD(ys, ylo))
        for i in range(ys.size):
            want = mp.log(mp.mpf(ys[i]) + mp.mpf(ylo[i]))
            assert abs(as_mp(lg, (i,)) - want) < mp.mpf("3e-31"), (ys[i], ylo[i])


def test_pi_str_matches_mpmath():
    # the fixed-point seeds of _root_of_unity need pi well past 160 bits
    with mp.workprec(300):
        assert abs(mp.mpf(Fraction(PI_STR).numerator) / Fraction(PI_STR).denominator
                   - mp.pi) < mp.mpf("1e-69")


@pytest.mark.parametrize("ms", [range(1, 401), [999_983, 10 ** 6, 10 ** 6 + 3, 2 * 10 ** 6 + 2]],
                         ids=["1-400", "near 1e6"])
def test_root_of_unity_within_half_dd_ulp(ms):
    # each part within half a dd ulp, ulp(hi) 2^-53, of 300-bit mpmath; the
    # exact cases m = 1, 2, 4 come out exact
    with mp.workprec(300):
        for m in ms:
            w = _root_of_unity(m)
            for part, want in ((w.real, mp.cos(2 * mp.pi / m)), (w.imag, mp.sin(2 * mp.pi / m))):
                hi = float(part.hi)
                err = abs(mp.mpf(hi) + mp.mpf(float(part.lo)) - want)
                half_ulp = math.ulp(hi) * 2.0 ** -54 if hi else 0.0
                assert err <= mp.mpf(half_ulp) + mp.mpf(2) ** -290, (m, err)


@pytest.mark.parametrize("m", [4, 5, 8, 9, 12, 100, 996, 1998, 10 ** 6])
def test_root_of_unity_matches_looped_taylor(m):
    # the DD Taylor loops of the angle 2 pi / m <= pi/2 agree to 1e-31
    c, s = looped_dd_cos_sin((PI_DD * 2.0) / float(m))
    w = _root_of_unity(m)
    for got, want in ((w.real, c), (w.imag, s)):
        assert abs(float((got - want).to_float())) < 1e-31


@pytest.mark.parametrize("count", [1, 2, 3, 64, 100, 998])
def test_powers_match_two_product_doubling(count):
    # one product per doubling step keeps every bit of the two-product form
    w = _root_of_unity(998)
    assert bits_equal(_powers(w, count), two_product_powers(w, count))


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 100, 102, 996, 998, 1000, 1002])
def test_roots_of_unity_by_symmetry(n):
    # the powers k < n/4 and their exact reflections are no further from
    # 300-bit mpmath than every power of the root, and the symmetries hold
    # exactly (as values: the sign of a zero word aside)
    u = roots_of_unity(n)
    with mp.workprec(300):
        want = [mp.expjpi(mp.mpf(2 * k) / n) for k in range(n)]

        def worst(table):
            return max(max(abs(as_mp(table.real, (k,)) - w.real), abs(as_mp(table.imag, (k,)) - w.imag))
                       for k, w in enumerate(want))

        assert worst(u) <= worst(_powers(_root_of_unity(n), n))
    k = np.arange(n)
    for got, mirror in ((u[(n // 2 + k) % n], DDC(-u.real, -u.imag)),
                        (u[(n // 2 - k) % n], DDC(-u.real, u.imag))):
        for a, b in ((got.real, mirror.real), (got.imag, mirror.imag)):
            assert np.array_equal(a.hi, b.hi) and np.array_equal(a.lo, b.lo)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 16, 31, 97])
def test_dd_dft_against_mpmath(n):
    rng = np.random.default_rng(n)
    re = rng.uniform(-3, 3, n)
    im = rng.uniform(-3, 3, n)
    out = dd_dft(DDC(DD(re), DD(im)), roots_of_unity(2 * n))
    for j in range(n):
        want = mp.fsum((mp.mpf(re[k]) + 1j * mp.mpf(im[k])) *
                       mp.e ** (2j * mp.pi * j * k / n) for k in range(n))
        got = as_mp(out.real, (j,)) + 1j * as_mp(out.imag, (j,))
        assert abs(got - want) < mp.mpf("1e-27")


@pytest.mark.parametrize("n", [1, 2, 3, 6, 16, 31, 97, 498, 499])
@pytest.mark.parametrize("rows", [None, 2])
def test_dd_dft_matches_own_root_reference(n, rows):
    # the rows batched with one filter and one chirp table give the bits of
    # a table of their own, one row at a time
    rng = np.random.default_rng(n)
    shape = (n,) if rows is None else (rows, n)
    x = DDC(DD(rng.uniform(-3, 3, shape), rng.uniform(-1e-17, 1e-17, shape)),
            DD(rng.uniform(-3, 3, shape), rng.uniform(-1e-17, 1e-17, shape)))
    got = dd_dft(x, roots_of_unity(2 * n))
    assert got.shape == shape
    assert bits_equal(got, own_root_dd_dft(x))


@pytest.mark.parametrize("n", [2, 3, 31, 256, 257, 499])
def test_dd_dft_against_radix2_oracle_and_direct(n):
    # rows of unequal size: each keeps its own error scale
    rng = np.random.default_rng(100 + n)
    shape = (3, n)
    scale = np.array([[1.0], [1e-3], [1e6]])
    x = DDC(DD(rng.uniform(-3, 3, shape) * scale), DD(rng.uniform(-3, 3, shape) * scale))
    got = dd_dft(x, roots_of_unity(2 * n))
    want = radix2_dd_dft(x, roots_of_unity(2 * n))
    size = scale * 3 * n  # sum |x| bounds every |X[j]|
    for part in ("real", "imag"):
        diff = (getattr(got, part) - getattr(want, part)).to_float()
        assert np.all(np.abs(diff) <= 1e-29 * size)
    direct = dft_direct(x.to_complex().T).T
    assert np.all(np.abs(got.to_complex() - direct) <= 1e-13 * size)


def test_fft_roundtrip_and_batching():
    rng = np.random.default_rng(9)
    x = DDC(DD(rng.uniform(-1, 1, (3, 32))), DD(rng.uniform(-1, 1, (3, 32))))
    spec = dd_fft_pow2(x)
    # the inverse by the conjugation identity
    back = dd_fft_pow2(spec.conj()).conj().scale_pow2(1.0 / 32)
    assert np.max(np.abs(back.to_complex() - x.to_complex())) < 1e-25
    ref = np.fft.fft(x.to_complex(), axis=-1)
    assert np.max(np.abs(spec.to_complex() - ref)) < 1e-12


@pytest.mark.parametrize("b, count", [(18, 6), (14, 8), (8, 14)])
def test_split_slices_rebuild_words_exactly(b, count):
    rng = np.random.default_rng(b)
    hi = rng.uniform(-1, 1, (5, 12)) * np.array([[1.0], [1e-5], [3e7], [0.0], [1.0]])
    hi[4, ::2] *= -1e-20  # mixed signs and sizes in one row
    lo = hi * rng.uniform(-2 ** -53, 2 ** -53, hi.shape)
    lo[0, :3] = [5e-324, -1e-310, 2e-300]  # tiny lo words
    out = np.empty((count,) + hi.shape)
    e, r_hi, r_lo = split_slices(hi, lo, b, out)
    assert np.all(out == np.rint(out)) and np.all(np.abs(out) <= 2 ** b)
    assert np.all(out[:, 3] == 0)
    for i, j in np.ndindex(hi.shape):
        rest = Fraction(r_hi[i, j]) + Fraction(r_lo[i, j])
        assert abs(rest) <= Fraction(1, 2) + Fraction(2) ** (b - 53)
        rebuilt = sum(Fraction(out[s, i, j]) / 2 ** (b * (s + 1)) for s in range(count))
        rebuilt = (rebuilt + rest / Fraction(2) ** (b * count)) * Fraction(2) ** int(e[i, 0])
        assert rebuilt == Fraction(hi[i, j]) + Fraction(lo[i, j])


def test_split_slices_all_zero_operand():
    out = np.full((6, 2, 4), np.nan)
    e, r_hi, r_lo = split_slices(np.zeros((2, 4)), np.zeros((2, 4)), 18, out)
    assert np.all(out == 0) and np.all(r_hi == 0) and np.all(r_lo == 0)


def _extreme_slices(rng, b, count, shape):
    """Gaussian-integer slices mixing parts of the largest size 2^b with random ones."""
    parts = rng.integers(-2 ** b, 2 ** b + 1, (2, count) + shape)
    parts[:, :, ..., ::3] = 2 ** b * rng.choice([-1, 1], parts[:, :, ..., ::3].shape)
    return parts[0] + 1j * parts[1]


@pytest.mark.parametrize("k", range(1, 13))
def test_convolve_slices_exact(k):
    # at the widths slice_plan gives, with the data on n = m/2 points and
    # the filter on 2n - 1 points as in dd_dft
    m = 2 ** k
    n = max(1, m // 2)
    b, count = slice_plan(m)
    rng = np.random.default_rng(k)
    stack = np.zeros((count, 2, m), dtype=np.complex128)  # one data row, the filter
    stack[:, :, :n] = _extreme_slices(rng, b, count, (2, n))
    stack[:, 1, m - (n - 1):] = stack[:, 1, n - 1:0:-1]
    want = grouped_int_convolutions(stack[:, 0], stack[:, 1])
    got = convolve_slices(stack.copy(), m)
    assert np.array_equal(got, want[:, None].view(np.float64))


def test_slice_plan_meets_error_bound():
    # the error model of dd.slice_plan evaluated in 60-digit arithmetic: the
    # bound is at most 1/8 and one slice fewer would break it, the slices
    # cover 106 bits, and every group sum is an integer below 2^53
    with mp.workdps(60):
        eps = mp.mpf(2) ** -53
        for k in range(1, 22):
            m = 2 ** k
            b, count = slice_plan(m)
            assert b * count >= 106 and b == -(-106 // count)

            def bound(b, count):
                growth = ((1 + eps) ** (3 * k + count) * (1 + mp.sqrt(5) * eps) ** (3 * k + 1)
                          * (1 + 4 * eps) ** (3 * k) - 1)
                return count * mp.sqrt(2) * m * mp.mpf(4) ** b * growth

            assert bound(b, count) <= mp.mpf(1) / 8
            assert bound(-(-106 // (count - 1)), count - 1) > mp.mpf(1) / 8
            assert count * m * 4 ** b < 2 ** 53
    # 2^31 still slices; past it no slice count meets the bound
    b, count = slice_plan(2 ** 31)
    assert b * count >= 106
    with pytest.raises(ValueError, match="no exact slicing for length 4294967296"):
        slice_plan(2 ** 32)


def test_wide_slices_trip_residual_check(monkeypatch):
    # 26-bit slices at m = 1024 put the group sums near 2^62, past exactness
    real = slice_plan
    monkeypatch.setattr(ddm, "slice_plan", lambda m: (26, 5) if m == 1024 else real(m))
    rng = np.random.default_rng(26)
    rows = lambda n: DDC(DD(rng.uniform(-3, 3, (2, n))), DD(rng.uniform(-3, 3, (2, n))))
    dd_dft(rows(256), roots_of_unity(512))  # m = 512 keeps its planned widths
    with pytest.raises(RoundingError, match=r"off an integer by .* > 0.25 \(5 slices, length 1024\)"):
        dd_dft(rows(257), roots_of_unity(514))


def test_gamma_zeta_kernels_against_mpmath():
    q = 61
    b = np.arange(1, 31)
    a = np.concatenate([b, q - b])  # the kernels return at b, then at q - b
    lngam, z2 = dd_gamma_zeta_kernels(b, q)
    assert lngam.shape == z2.shape == (q - 1,)
    for i in (0, 1, 29, 30, 58, 59):
        xa = mp.mpf(int(a[i])) / q
        assert abs(as_mp(lngam, (i,)) - mp.loggamma(xa)) < mp.mpf("1e-27")
        assert abs(as_mp(z2, (i,)) - mp.zeta(0, xa, 2)) < mp.mpf("1e-27")


def _kernel_points(q: int) -> np.ndarray:
    """16 seeded a in 1..q-1, the ends, and the pair around q/2 (|t| at its largest and least)."""
    rng = np.random.default_rng(q)
    return np.unique(np.concatenate([rng.integers(1, q, 16), [1, q - 1, q // 2, q // 2 + 1]]))


@pytest.mark.parametrize("q", [3, 101, 997, 10007])
def test_gamma_zeta_kernels_at_dd_precision(q):
    # both dd kernels within 1e-30 of 45-digit mpmath, relative to max(1, |f|)
    # (5.2e-31 at most measured, most of it from the dd logs of a and q)
    a = _kernel_points(q)
    lngam, z2 = dd_gamma_zeta_kernels(a, q)
    for i, ai in enumerate(np.concatenate([a, q - a])):
        x = mp.mpf(int(ai)) / q
        for got, want in ((as_mp(lngam, (i,)), mp.loggamma(x)), (as_mp(z2, (i,)), mp.zeta(0, x, 2))):
            assert abs(got - want) <= mp.mpf("1e-30") * max(1, abs(want)), (q, int(ai))


@pytest.mark.parametrize("block", [4096, 10])
def test_blocked_kernels_match_unblocked_reference(monkeypatch, block):
    # 4104 values of b, the first half of the power order, in blocks of 4096
    # (one full block and one of 8), or of 10 (410 full blocks and one of 4),
    # against one pass over every a, in both halves b and q - b
    from _oracles import unblocked_dd_kernels
    from ekcyclo.primes import primitive_root
    monkeypatch.setattr(ddm, "_BLOCK", block)
    q = 8209
    b = primitive_root(q).powers()[:q // 2]
    got = dd_gamma_zeta_kernels(b, q)
    for lhs, rhs in zip(got, unblocked_dd_kernels(q)):
        assert bits_equal(lhs, rhs[np.concatenate([b, q - b]) - 1])


def test_from_string_round_trip():
    x = DD.from_str("0.12345678901234567890123456789")
    want = mp.mpf("0.12345678901234567890123456789")
    assert abs(as_mp(x) - want) < mp.mpf("2e-33")
