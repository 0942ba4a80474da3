import math

import numpy as np
import pytest

from ekcyclo import primes
from ekcyclo.prime_sums import bias, s12, truncated_sums
from ekcyclo.primes import mult_order

from _oracles import mirrored_prime_sum, naive_primes_upto

LOG2, LOG3, LOG5, LOG7 = (math.log(k) for k in (2, 3, 5, 7))


def _sums(q, x):
    return truncated_sums([q], x)[q]


def test_f_q_hand_enumeration():
    # prime powers <= 10: classes mod 3: +1 {4, 7}, -1 {2, 5, 8}
    want = (1 / 8 + 1 / 7) - (1 / 2 + 1 / 5 + 1 / 24)
    assert abs(_sums(3, 10).f - want) < 1e-15
    assert _sums(3, 2).f == -0.5
    assert _sums(5, 3).f == 0.0


def test_g_q_hand_enumeration():
    assert abs(_sums(3, 10).g - (1 / 7 - 1 / 2 - 1 / 5)) < 1e-15
    assert abs(_sums(5, 11).g - 1 / 11) < 1e-16
    assert _sums(7, 6).g == 0.0


def test_w_q_hand_enumeration():
    assert abs(_sums(3, 10).w - (LOG7 / 7 - LOG2 / 2 - LOG5 / 5) / LOG3) < 1e-15
    assert abs(_sums(3, 2).w - (-(LOG2 / 2) / LOG3)) < 1e-16
    assert _sums(11, 20).w == 0.0


def test_v_q_hand_enumeration():
    assert abs(_sums(3, 10).v - (LOG2 / 4 - LOG2 / 8) / LOG3) < 1e-16
    assert abs(_sums(5, 8).v - (-(LOG2 / 4) / LOG5)) < 1e-16
    assert _sums(7, 7).v == 0.0


def test_domain_guards():
    with pytest.raises(ValueError):
        truncated_sums([3], 1.5)
    # below 3 the classes +1 and -1 mod q are not distinct
    for call in (lambda q: truncated_sums([3, q], 100), lambda q: bias(100, q),
                 lambda q: s12(q, 100)):
        for q in (1, 2):
            with pytest.raises(ValueError, match=f"modulus q must be >= 3, got {q}"):
                call(q)
    with pytest.raises(ValueError, match="cutoff must be >= 2"):
        s12(7, 1)
    with pytest.raises(ValueError, match="t must be >= 2"):
        bias(1.5, 7)


def test_modulus_must_be_an_integer():
    # int(3.5) is 3: a float must not answer for another modulus
    for q in (3.5, 4.0):
        for call in (lambda: truncated_sums([q], 1000), lambda: s12(q, 1000),
                     lambda: bias(1000, q)):
            with pytest.raises(TypeError):
                call()
    q = np.int64(7)
    assert list(truncated_sums([q], 1000)) == [7]
    assert bias(1000, q) == bias(1000, 7) and s12(q, 1000) == s12(7, 1000)


def test_segment_size_determinism(monkeypatch):
    c = truncated_sums([7], 10 ** 4)[7]
    monkeypatch.setattr(primes, "_SEGMENT", 509)
    a = truncated_sums([7], 10 ** 4)[7]
    b = truncated_sums([7], 10 ** 4)[7]
    assert (a.f, a.g, a.v, a.w) == (b.f, b.g, b.v, b.w)
    # different segmentations may differ by the last ulp of the merge
    assert abs(a.f - c.f) < 1e-14 and abs(a.w - c.w) < 1e-14


def test_repeated_modulus_counts_once():
    # a repeat used to append its m = 1 class sums once per occurrence
    got, want = truncated_sums([5, 5, 7], 10 ** 5), truncated_sums([5, 7], 10 ** 5)
    assert list(got) == [5, 7] and repr(got) == repr(want)


def test_antisymmetry_under_class_swap():
    for q, x in ((3, 500.0), (7, 300.0), (13, 1000.0)):
        got = truncated_sums([q], x)[q]
        for kind, val in (("f", got.f), ("g", got.g), ("v", got.v), ("w", got.w)):
            assert abs(val + mirrored_prime_sum(q, x, kind)) < 1e-12


def test_f_minus_g_is_prime_power_part():
    rng = np.random.default_rng(13)
    for _ in range(20):
        q = int(rng.choice([3, 5, 7, 11, 13]))
        x = float(rng.integers(10, 3000))
        got = truncated_sums([q], x)[q]
        part = 0.0
        for p in naive_primes_upto(int(math.isqrt(int(x)))):
            pm, m = p * p, 2
            while pm <= x:
                if pm % q == 1:
                    part += 1.0 / (m * pm)
                elif pm % q == q - 1:
                    part -= 1.0 / (m * pm)
                pm *= p
                m += 1
        assert abs((got.f - got.g) - part) < 1e-14


def test_s12_structure():
    out = s12(3, 10 ** 4)
    # ord_3(2) = 2 contributes log 2/(4-1) to S1
    assert out.s1 >= LOG2 / 3
    direct = 0.0
    for p in naive_primes_upto(100):
        if p == 3:
            continue
        o = mult_order(p, 3)
        if o >= 2 and p ** o <= 10 ** 4:
            direct += math.log(p) / (p ** o - 1)
    assert abs(out.s1 - direct) < 1e-12
    assert out.tail == (math.log(10 ** 4) + 1) / 10 ** 4


def test_s12_rejects_composite_modulus():
    # up front: at cutoff 3 no prime up to sqrt(cutoff) reaches mult_order
    for q, cutoff in ((9, 10 ** 4), (15, 100), (9, 3)):
        with pytest.raises(ValueError, match=f"requires a prime modulus, got {q}"):
            s12(q, cutoff)


def test_s12_order_one_contributes_nothing():
    # q=7: p=29 = 1 mod 7 has order 1 and must not appear in S1
    full = s12(7, 30 * 30)
    assert math.log(29) / 28 > full.s1  # way larger than actual S1 at that cutoff


def test_s1_s2_support_relation():
    # ord_q(p^2) = ord_q(p)/gcd(2, ord), so S2 ranges over ord_q(p) >= 3 with
    # termwise larger summands; S1 restricted to that support bounds below
    out = s12(5, 10 ** 6)
    s1_restricted = 0.0
    for p in naive_primes_upto(1000):
        if p == 5:
            continue
        o = mult_order(p, 5)
        if o >= 3 and p ** o <= 10 ** 6:
            s1_restricted += math.log(p) / (p ** o - 1)
    assert out.s2 >= s1_restricted
    assert out.s1 >= 0.0 and out.s2 >= 0.0


def test_bias_examples():
    assert bias(10, 3) == -1   # {7} vs {2, 5}
    assert bias(2, 3) == -1    # {} vs {2}
    assert bias(500, 997) == 0


def test_bias_against_naive():
    for q, t in ((3, 1000), (5, 2500), (11, 700)):
        plus = sum(1 for p in naive_primes_upto(t) if p % q == 1)
        minus = sum(1 for p in naive_primes_upto(t) if p % q == q - 1)
        assert bias(t, q) == plus - minus
