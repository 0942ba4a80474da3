import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekcyclo.dd import dd_gamma_zeta_kernels
from ekcyclo.primes import primitive_root
from ekcyclo.special_functions import (CONSTANTS, F_TAYLOR_STR, LG_TAYLOR_STR,
                                       compensated_sum, hurwitz_z2_at_rationals, ln_gamma)
from make_hurwitz_taylor import TERMS, f_coefficient, lg_coefficient, tables

mp.mp.dps = 40

# frozen with mpmath at 45 digits
LNGAMMA_THIRD_DIFF = 0.6822703717802435005113112


def test_constants():
    assert abs(CONSTANTS.euler_gamma - 0.57721566) < 5e-9
    assert abs(CONSTANTS.zeta3 - 1.2020569031595943) < 1e-15
    assert abs(CONSTANTS.log_2pi - math.log(2 * math.pi)) < 1e-15


def test_ln_gamma_examples():
    assert ln_gamma(1.0) == 0.0
    assert abs(ln_gamma(0.5) - 0.5 * math.log(math.pi)) < 1e-15
    assert abs(ln_gamma(1 / 3) - ln_gamma(2 / 3) - LNGAMMA_THIRD_DIFF) < 1e-14


def test_ln_gamma_against_mpmath():
    xs = np.linspace(0.001, 1.0, 257)
    vals = ln_gamma(xs)
    for x, v in zip(xs, vals):
        ref = float(mp.loggamma(mp.mpf(float(x))))
        assert abs(v - ref) <= 1e-14 * max(1.0, abs(ref)), x


def test_ln_gamma_rejects_nonpositive():
    with pytest.raises(ValueError):
        ln_gamma(0.0)
    with pytest.raises(ValueError):
        ln_gamma(-1.5)


@pytest.mark.parametrize("x", [math.nan, [0.5, math.nan], np.array([[math.nan]])])
def test_ln_gamma_rejects_nan(x):
    # NaN is not > 0: it must not pass through as a NaN value
    with pytest.raises(ValueError):
        ln_gamma(x)


def _rationals(xs, q):
    """The integers a with a/q nearest to each x of xs."""
    return np.rint(np.asarray(xs) * q).astype(np.int64)


def _z2_second_difference(x):
    """zeta''(0, x) by a central second difference of mpmath's Hurwitz zeta."""
    step = mp.mpf("1e-4")
    return float((mp.zeta(step, x) - 2 * mp.zeta(0, x) + mp.zeta(-step, x)) / step ** 2)


def test_hurwitz_examples():
    # the dd log Gamma kernel against scipy's, at b = 1 and its partner q - b
    lg, _ = dd_gamma_zeta_kernels(np.array([1]), 4)
    assert lg.shape == (2,)
    assert abs(lg.hi[0] - ln_gamma(0.25)) < 1e-11
    assert abs(lg.hi[1] - ln_gamma(0.75)) < 1e-11
    z2 = hurwitz_z2_at_rationals(np.array([1]), 3)
    assert z2.shape == (2,)
    for x, got in zip((mp.mpf(1) / 3, mp.mpf(2) / 3), z2):
        assert abs(got - _z2_second_difference(x)) < 1e-6


def _with_partners(b, q):
    """The points a the kernels return at for b: b, then q - b."""
    return np.concatenate([b, q - b])


def test_hurwitz_against_mpmath_direct():
    rng = np.random.default_rng(7)
    q = 10007
    a = _rationals(rng.uniform(0.005, 0.995, 60), q)
    z1 = dd_gamma_zeta_kernels(a, q)[0].hi - 0.5 * CONSTANTS.log_2pi
    z2 = hurwitz_z2_at_rationals(a, q)
    assert z1.shape == z2.shape == (2 * a.size,)
    for ai, d1, d2 in zip(_with_partners(a, q), z1, z2):
        x = mp.mpf(int(ai)) / q
        assert abs(d1 - float(mp.zeta(0, x, 1))) < 1e-10
        assert abs(d2 - float(mp.zeta(0, x, 2))) < 1e-10


def test_hurwitz_z2_finite_difference_oracle():
    rng = np.random.default_rng(11)
    q = 997
    a = _rationals(rng.uniform(0.01, 0.99, 100), q)
    z2s = hurwitz_z2_at_rationals(a, q)
    assert z2s.shape == (2 * a.size,)
    for ai, z2 in zip(_with_partners(a, q), z2s):
        assert abs(z2 - _z2_second_difference(mp.mpf(int(ai)) / q)) < 1e-6


def test_lerch_property_random():
    rng = np.random.default_rng(3)
    q = 10007
    a = _rationals(rng.uniform(0.01, 0.99, 1000), q)
    lg, _ = dd_gamma_zeta_kernels(a, q)
    assert np.max(np.abs(lg.hi - ln_gamma(_with_partners(a, q) / q))) <= 1e-11


@settings(max_examples=200)
@given(st.floats(0.01, 0.99))
def test_reflection_identity(x):
    lhs = ln_gamma(x) + ln_gamma(1.0 - x)
    rhs = math.log(math.pi) - math.log(math.sin(math.pi * x))
    assert abs(lhs - rhs) < 1e-12


def test_z2_rational_fast_path_matches_generic():
    # the generic evaluator is mpmath's Hurwitz zeta; a full row at q = 997
    # takes about a second there, so that row is sampled.  b = 1..(q-1)/2
    # and its partners are the full rows at q = 7 and 97
    rng = np.random.default_rng(5)
    for q, b in ((7, np.arange(1, 4)), (97, np.arange(1, 49)),
                 (997, np.sort(rng.choice(np.arange(1, 997), 100, replace=False)))):
        fast = hurwitz_z2_at_rationals(b, q)
        ref = np.array([float(mp.zeta(0, mp.mpf(int(ai)) / q, 2)) for ai in _with_partners(b, q)])
        assert np.max(np.abs(fast - ref)) < 1e-12


@pytest.mark.parametrize("q", [8191, 8209, 16411, 32771])
@pytest.mark.parametrize("small_block", [False, True])
def test_blocked_z2_matches_unblocked_reference(monkeypatch, q, small_block):
    # the kernel fills the values at b, the first half of the power order, and
    # at the partners q - b by blocks of b: (q-1)/2 = 4095, 4104, 8205 and
    # 16385 values of b take one partial block of 8192 at the first two q,
    # then a last block of 13 and of 1; blocks of 7 end in 7, 2, 1 and 5.
    # Either must match one block over all b, bit for bit, in both halves
    import ekcyclo.special_functions as sf
    b = primitive_root(q).powers()[:q // 2]
    monkeypatch.setattr(sf, "_BLOCK", q)
    want = hurwitz_z2_at_rationals(b, q)
    monkeypatch.setattr(sf, "_BLOCK", 7 if small_block else 8192)
    got = hurwitz_z2_at_rationals(b, q)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_taylor_tables_match_closed_forms():
    # every stored string within 1e-36 of its closed form, relative, and the
    # LG forms against mpmath's own Taylor expansion of log Gamma
    stored = {"LG_TAYLOR_STR": LG_TAYLOR_STR, "F_TAYLOR_STR": F_TAYLOR_STR}
    with mp.workdps(50):
        for j, s in enumerate(mp.taylor(mp.loggamma, mp.mpf(3) / 2, 6)):
            assert abs(lg_coefficient(j) - s) < mp.mpf("1e-45")
        for name, exact in tables().items():
            assert len(stored[name]) == len(exact) == TERMS
            for j, (text, c) in enumerate(zip(stored[name], exact)):
                assert abs(mp.mpf(text) - c) <= mp.mpf("1e-36") * abs(c), (name, j)


def test_taylor_tails_within_stated_bounds():
    # the comment above special_functions.LG_TAYLOR_STR: |c_{j+1}/c_j| < 2/3
    # from j = 33 on (checked to 130), so the terms at |t| = 1/2 past c_{m-1}
    # sum to below |c_m| 2^-m / (1 - 1/3), which it states for m = 34 and 72
    with mp.workdps(40):
        for coefficient, past_33, past_71 in ((lg_coefficient, 2.7e-18, 9.3e-37),
                                              (f_coefficient, 1.95e-17, 8.3e-36)):
            c = {j: abs(coefficient(j)) for j in range(33, 131)}
            assert all(c[j + 1] < c[j] * 2 / 3 for j in range(33, 130))
            assert 1.5 * c[34] / mp.mpf(2) ** 34 < past_33
            assert 1.5 * c[72] / mp.mpf(2) ** 72 < past_71


def test_z2_taylor_coefficients_are_nearest_doubles():
    from ekcyclo.special_functions import _Z2_HORNER, _Z2_TAYLOR
    with mp.workdps(40):
        exact = [f_coefficient(j) for j in range(len(_Z2_TAYLOR))]
        # the closed forms against mpmath's own Taylor expansion of zeta''(0, y)
        series = mp.taylor(lambda y: mp.zeta(0, y, 2), mp.mpf(3) / 2, 4)
        for c, s in zip(exact, series):
            assert abs(c - s) < mp.mpf("1e-35")
        # the omitted tail at |t| = 1/2, which the kernel's comment bounds
        tail = sum(abs(f_coefficient(j)) / mp.mpf(2) ** j for j in range(34, 90))
    assert len(_Z2_TAYLOR) == 34 and tail < 2e-17
    for c, stored in zip(exact, _Z2_TAYLOR):
        # nearest: the stored double is within half an ulp of the exact value
        assert stored == float(c)
        assert abs(mp.mpf(stored) - c) <= math.ulp(stored) / 2
    assert np.array_equal(_Z2_HORNER[::-1, :, 0].reshape(-1), _Z2_TAYLOR)


@pytest.mark.parametrize("q", [3, 5, 7, 101, 997, 10007])
def test_z2_kernel_within_rounding_bound_of_dd(q):
    # every a against the double-double kernel (accurate to 1e-30).  The bound
    # is the rounding of the kernel's own steps, with eps = 2^-53:
    # - term c_j t^j: t and u = t^2 round (3 eps on t^2), the stored c_j (1),
    #   Horner's multiply and add per step, the product t P_o and the two final
    #   additions stay within gamma_{3j+4} |c_j| |t|^j, gamma_n = n eps/(1 - n eps);
    # - log x: a/q rounds once (eps) and the log adds at most 4 ulp (numpy's
    #   SIMD bound) <= 8 eps |L|, so |dL| <= eps (1 + 8|L|); squaring and the
    #   final addition round once each: 2|L||dL| + dL^2 + 2 eps L^2;
    # - the series tail past c_33 (below 2e-17) and the dd value's own error.
    from ekcyclo.special_functions import _Z2_TAYLOR
    eps = 2.0 ** -53
    b = np.arange(1, q // 2 + 1)
    a = _with_partners(b, q)  # every a once
    lg, z2_dd = dd_gamma_zeta_kernels(b, q)
    got = hurwitz_z2_at_rationals(b, q)
    t = np.abs(a / q - 0.5)
    j = np.arange(len(_Z2_TAYLOR))[:, None]
    n = 3 * j + 4
    gamma = n * eps / (1 - n * eps)
    series = np.sum(np.abs(np.array(_Z2_TAYLOR))[:, None] * t ** j * gamma, axis=0)
    L = np.abs(np.log(a / q))
    dL = eps * (1 + 8 * L)
    bound = series + 2 * L * dL + dL ** 2 + 2 * eps * L ** 2 + 2e-17 + 1e-25 * np.maximum(1, L ** 2)
    err = np.abs((got - z2_dd.hi) - z2_dd.lo)
    assert np.all(err <= bound), (int(a[np.argmax(err / bound)]), float(np.max(err / bound)))


def test_compensated_sum_examples():
    assert compensated_sum([1.0, 1e-17, -1.0]) == 1e-17
    assert compensated_sum([]) == 0.0
    total = compensated_sum(np.full(10 ** 6, 0.1))
    assert abs(total - 10 ** 5) < 1e-9


def exact_sum(values) -> float:
    from fractions import Fraction
    return float(sum((Fraction(v) for v in values), Fraction(0)))


# every magnitude from subnormal up to 1e300, of either sign
WIDE = st.floats(-1e300, 1e300, allow_nan=False, allow_subnormal=True)


def _signs(rng, n):
    return rng.choice([-1.0, 1.0], n)


def _wide_tail(rng, n):
    # mantissas of full width times 2^-1074 .. 2^995: subnormal up to 4e299
    mantissas = rng.uniform(0.5, 1.0, n)
    return (_signs(rng, n) * np.ldexp(mantissas, rng.integers(-1074, 996, n))).tolist()


def _moderate_tail(rng, n):
    return (_signs(rng, n) * 10.0 ** rng.uniform(-12.0, 12.0, n)).tolist()


@st.composite
def float_lists(draw, elements, tail, max_head=60):
    """A drawn head of up to max_head values, then n generated ones.

    n runs to 3000, so the extraction level M (n + 2 <= 2^M) takes several
    values; hypothesis could not draw that many floats one by one."""
    head = draw(st.lists(elements, max_size=max_head))
    n = draw(st.integers(0, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return head + tail(rng, n)


def _assert_fsum_bits(values):
    got = compensated_sum(values)
    assert got == math.fsum(values) == exact_sum(values)
    assert math.copysign(1.0, got) == math.copysign(1.0, math.fsum(values))


@settings(max_examples=100, deadline=None)
@given(float_lists(st.floats(-1e12, 1e12, allow_nan=False), _moderate_tail))
def test_compensated_sum_is_exactly_rounded(values):
    # exact rounding is what makes the result independent of how callers
    # chunk or stream a fixed-order sequence
    _assert_fsum_bits(values)


@settings(max_examples=100, deadline=None)
@given(float_lists(WIDE, _wide_tail))
def test_compensated_sum_wide_exponent_range(values):
    _assert_fsum_bits(values)


@settings(max_examples=100, deadline=None)
@given(float_lists(st.tuples(WIDE, st.integers(-3, 3)),
                   lambda rng, n: list(zip(_wide_tail(rng, n), rng.integers(-3, 4, n).tolist())),
                   max_head=40),
       st.randoms())
def test_compensated_sum_near_cancelling_pairs(pairs, rnd):
    # x and -x nudged by a few ulps: the sum is all in the low bits
    values = []
    for x, k in pairs:
        y = x
        for _ in range(abs(k)):
            y = math.nextafter(y, math.copysign(math.inf, k))
        values += [x, -y]
    rnd.shuffle(values)
    _assert_fsum_bits(values)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 254, 255, 256, 257, 512, 513,
                               4094, 4095, 4096, 4097])
def test_compensated_sum_length_around_powers_of_two(n):
    # n + 2 <= 2^M sets the extraction level; it changes at n = 2^k - 1
    rng = np.random.default_rng(n)
    values = rng.standard_normal(n).tolist()  # full mantissas of like size
    assert compensated_sum(values) == exact_sum(values)


def test_compensated_sum_subnormal_input():
    # subnormals, exact multiples of 2^-1074, set the rounding of a total
    # near 2^-960 whose ulp is 2^-1012
    rng = np.random.default_rng(1074)
    values = np.concatenate([rng.integers(-2 ** 52, 2 ** 52, 150) * 5e-324,
                             np.ldexp(rng.uniform(-1.0, 1.0, 150), -960)])
    rng.shuffle(values)
    assert np.count_nonzero(np.abs(values) < 2.0 ** -1022) == 150
    _assert_fsum_bits(values.tolist())


@pytest.mark.parametrize("fine_bits", [0, 24, -24])
@pytest.mark.parametrize("n", [513, 3000, 70_000])
def test_compensated_sum_stops_when_nothing_is_left(n, fine_bits):
    # integers below 2^40 plus multiples of 2^-|fine_bits| below 2^(20 - |fine_bits|),
    # subtracted for a negative fine_bits: no remainder past the integers is > 0.
    # The first level extracts multiples of 2^(M - 12), n + 2 <= 2^M, so the
    # integers leave nothing after it for n <= 2^12 - 2 and nothing after the
    # second level for larger n; the fine part leaves nothing after the second
    rng = np.random.default_rng(n + abs(fine_bits))
    fine = np.ldexp(rng.integers(0, 2 ** 20, n), -abs(fine_bits))
    values = rng.integers(-2 ** 40, 2 ** 40, n) + np.copysign(fine, fine_bits)
    _assert_fsum_bits(values)


def test_compensated_sum_keeps_the_remainder_after_three_levels():
    # the levels extract 2^100 - 2^100, then 1, then 2^-53, a tie at half an
    # ulp of 1; only 2^-700, left over after them, rounds it up
    values = [2.0 ** 100, -2.0 ** 100, 1.0, 2.0 ** -53, 2.0 ** -700] + [0.0] * 512
    assert compensated_sum(values) == 1.0 + 2.0 ** -52
    _assert_fsum_bits(values)


def test_compensated_sum_nonfinite_matches_fsum():
    nan, inf = math.nan, math.inf
    for pad in ([], [0.0] * 512):
        assert math.isnan(compensated_sum([1.0, nan, 2.0] + pad))
        assert math.isnan(compensated_sum(np.array([nan] + pad)))
        assert compensated_sum([1.0, inf] + pad) == inf == math.fsum([1.0, inf])
        assert compensated_sum([-inf, 2.0] + pad) == -inf
        # fsum raises on inf - inf and on an overflowing total; so does the sum
        with pytest.raises(ValueError):
            compensated_sum([inf, -inf] + pad)
        with pytest.raises(OverflowError):
            compensated_sum([1e308, 1e308] + pad)
