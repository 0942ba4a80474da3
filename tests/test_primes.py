import dataclasses
import math

import numpy as np
import pytest

from ekcyclo import primes
from ekcyclo.admissible import singular_series_c1
from ekcyclo.prime_sums import bias, truncated_sums
from ekcyclo.primes import (count_primes_in, is_prime, mult_order, neighbor_flags,
                            primes_in, primitive_root)

from _oracles import naive_is_prime, naive_primes_upto


def test_is_prime_basics():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2 * 11 + 1)  # 11 is a Sophie Germain prime


def test_is_prime_matches_trial_division():
    for n in range(2000):
        assert is_prime(n) == naive_is_prime(n), n


def test_is_prime_large_and_carmichael():
    assert is_prime(2 ** 61 - 1)  # Mersenne prime
    assert not is_prime((2 ** 31 - 1) ** 2)
    for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911, 252601):
        assert not is_prime(carmichael)


def test_is_prime_refuses_past_its_witness_proof(monkeypatch):
    # psi_12 is a strong pseudoprime to all twelve witnesses (Sorenson and
    # Webster), so from it on a True would prove nothing
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    for n in (psi_12, psi_12 + 2, 2 ** 128):
        with pytest.raises(ValueError, match=f"proven only below {psi_12}, got {n}"):
            is_prime(n)
    assert is_prime(2 ** 64 - 59)  # the largest prime below 2^64
    monkeypatch.setattr(primes, "_PSI_12", psi_12 + 1)
    assert is_prime(psi_12)  # what the witnesses alone would answer


def _types(x):
    return [type(v) for v in dataclasses.astuple(x)] if dataclasses.is_dataclass(x) else type(x)


@pytest.mark.parametrize("kind", [np.int64, np.int32])
def test_numpy_integers_give_python_results(kind):
    # the element types of primes_in give the results, and the result types, of int
    for n in (5, 41, 101):
        for f in (is_prime, neighbor_flags, lambda q: mult_order(2, q)):
            want, got = f(n), f(kind(n))
            assert got == want and _types(got) == _types(want), (f, n)
    with pytest.raises(TypeError):
        is_prime(41.0)


def test_primes_in_examples():
    assert primes_in(0, 10).tolist() == [2, 3, 5, 7]
    assert primes_in(13, 14).tolist() == []
    assert len(primes_in(500, 1000)) == 73  # pi(1000) - pi(500) = 168 - 95


def test_empty_range_sieves_nothing(monkeypatch):
    # an empty range returns before the base sieve up to sqrt(hi), which at
    # hi = 1e18 would take a gigabyte; the base sieve is the module's
    # primes_in, while this test's primes_in is the real one, bound at import
    def no_sieve(lo, hi):
        raise AssertionError(f"sieved ({lo}, {hi}]")
    monkeypatch.setattr(primes, "primes_in", no_sieve)
    assert primes_in(5, 5).tolist() == []
    assert primes_in(0, 1).tolist() == []
    assert count_primes_in(10 ** 18, 10 ** 18) == 0


def test_primes_in_matches_naive():
    ref = naive_primes_upto(10 ** 4)
    assert primes_in(0, 10 ** 4).tolist() == ref
    assert primes_in(97, 1000).tolist() == [p for p in ref if 97 < p <= 1000]


@pytest.mark.parametrize("segment", [997, 8192])
def test_segmentation_invariance(monkeypatch, segment):
    # Below 2^22 each call sieves one segment.  Smaller segments keep the
    # primes, counts and biases exactly.  A sum rounds each segment's class
    # sums once before its exact merge, so it moves by at most 2^-52 times
    # the mass of its terms, plus the roundings of the two results.
    x, qs = 10 ** 5, (3, 4, 7, 997)
    full, count = primes_in(0, x), count_primes_in(500, x)
    biases, sums, c1 = [bias(x, q) for q in qs], truncated_sums(qs, x), singular_series_c1(x)
    monkeypatch.setattr(primes, "_SEGMENT", segment)
    assert full.tolist() == naive_primes_upto(x)
    assert np.array_equal(primes_in(0, x), full)
    assert count_primes_in(500, x) == count == len(full) - 95
    assert [bias(x, q) for q in qs] == biases
    got = truncated_sums(qs, x)
    assert got == truncated_sums(qs, x)
    p = full.astype(np.float64)
    inv, logs = np.sum(1 / p), np.sum(np.log(p) / p)
    for q in qs:
        assert got[q].v == sums[q].v  # the prime powers are not sieved in segments
        for name, mass in (("f", inv), ("g", inv), ("w", logs / math.log(q))):
            a, b = getattr(got[q], name), getattr(sums[q], name)
            assert abs(a - b) <= 2 * math.ulp(b) + 2.0 ** -52 * mass, (q, name, a, b)
    # C1 adds its segments' log sums one by one: at most 4 ulps apart here
    for a, b in zip(singular_series_c1(x), c1):
        assert abs(a - b) <= 8 * math.ulp(b), (a, b)


def test_primes_in_segmentation_invariance(monkeypatch):
    # at 5 the base primes come through short segments at every level too
    full = primes_in(0, 50_000)
    for segment in (997, 5):
        monkeypatch.setattr(primes, "_SEGMENT", segment)
        assert np.array_equal(primes_in(0, 50_000), full)
        assert count_primes_in(0, 50_000) == len(full)


def test_primes_in_rejects_bad_range():
    with pytest.raises(ValueError):
        primes_in(-1, 10)
    with pytest.raises(ValueError):
        primes_in(10, 5)


def test_count_primes_in_rejects_bad_range():
    for lo, hi in ((-10, 10), (5, 3)):
        with pytest.raises(ValueError, match=rf"invalid range \({lo}, {hi}\]"):
            count_primes_in(lo, hi)


def test_primitive_root_examples():
    assert primitive_root(3).g == 2
    assert primitive_root(7).g == 3  # 2 has order 3 mod 7
    ctx = primitive_root(997)
    for p in (2, 3, 83):  # 996 = 2^2 * 3 * 83
        assert pow(ctx.g, ctx.n // p, 997) != 1


def test_primitive_root_rejects_non_prime():
    for bad in (1, 2, 9, 15, 100):
        with pytest.raises(ValueError):
            primitive_root(bad)


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23, 97, 101, 499])
def test_powers_bijection(q):
    ctx = primitive_root(q)
    pw = ctx.powers()
    assert sorted(pw.tolist()) == list(range(1, q))
    assert pw[ctx.n // 2] == q - 1  # g^((q-1)/2) = -1


def test_powers_bijection_exhaustive_to_1e4():
    for q in [int(q) for q in primes_in(2, 10 ** 4)][1:]:
        ctx = primitive_root(q)
        pw = ctx.powers()
        seen = np.zeros(q, dtype=bool)
        seen[pw] = True
        assert seen[1:].all()
        assert pw[ctx.n // 2] == q - 1


def test_power_table_refuses_q_past_int64_products():
    # (q - 1)^2 fits int64 up to MAX_Q; past it the products wrapped, so at
    # q = 4000000007 497 of the first 5000 powers were wrong
    for q in (3000000019, primes.MAX_Q):
        assert primes._power_table(2, q, 5000).tolist() == [pow(2, k, q) for k in range(5000)]
    for q in (primes.MAX_Q + 1, 4000000007):
        with pytest.raises(ValueError, match=f"q = {q} is above {primes.MAX_Q}"):
            primes._power_table(2, q, 5000)


def test_mult_order_examples():
    assert mult_order(2, 7) == 3
    assert mult_order(1, 13) == 1
    assert mult_order(2, 3) == 2


def test_mult_order_divides_group_order():
    rng = np.random.default_rng(42)
    qs = primes_in(2, 2000)
    for _ in range(10_000):
        q = int(rng.choice(qs))
        a = int(rng.integers(1, q))
        m = mult_order(a, q)
        assert (q - 1) % m == 0
        assert pow(a, m, q) == 1


def test_mult_order_rejects_non_coprime():
    # the message names the caller's a, not its residue 0
    for a in (14, 0, -7):
        with pytest.raises(ValueError, match=rf"gcd\({a}, 7\) != 1"):
            mult_order(a, 7)


@pytest.mark.parametrize("q", [1, 4, 9, 15, 561])
def test_mult_order_rejects_composite_modulus(q):
    # the order mod 9 of 2 is 6, not a divisor search from q - 1 = 8
    with pytest.raises(ValueError, match="prime modulus"):
        mult_order(2, q)


def test_neighbor_flags_examples():
    f = neighbor_flags(11)
    assert (f.sg2p, f.sg2m, f.sg4p, f.sg4m) == (True, False, False, True)
    f = neighbor_flags(3)
    assert (f.sg2p, f.sg2m, f.sg4p, f.sg4m) == (True, True, True, True)
    f = neighbor_flags(17)
    assert (f.sg2p, f.sg2m, f.sg4p, f.sg4m) == (False, False, False, True)
