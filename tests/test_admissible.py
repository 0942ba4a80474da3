import math

import numpy as np
import pytest
from scipy.special import digamma

from ekcyclo.admissible import (AdmissibleSet, c1_sum, c2_minimum, c2_sum,
                                constants_table, harmonic_threshold, is_admissible,
                                omega, singular_series_c1)
from ekcyclo.special_functions import CONSTANTS

from _oracles import harmonic_threshold_loop, naive_primes_upto, omega_mirrored


def test_omega_examples():
    assert omega(2, AdmissibleSet.of([2])) == 1
    assert omega(3, AdmissibleSet.of([2])) == 2
    for p in (2, 3, 5, 7, 11):
        assert omega(p, AdmissibleSet.of([])) == 1
    with pytest.raises(ValueError, match=r"omega is restricted to p <= 1e6"):
        omega(1000003, AdmissibleSet.of([1]))


def test_omega_bounded_by_size():
    rng = np.random.default_rng(17)
    for _ in range(60):
        elems = sorted(set(rng.integers(1, 60, size=rng.integers(1, 7)).tolist()))
        a = AdmissibleSet.of(elems)
        for p in (2, 3, 5, 7, 11, 13):
            assert omega(p, a) <= len(elems) + 1


def test_omega_sign_flip_invariance():
    rng = np.random.default_rng(19)
    primes = naive_primes_upto(60)
    for _ in range(100):
        elems = tuple(sorted(set(rng.integers(1, 80, size=rng.integers(1, 6)).tolist())))
        a = AdmissibleSet.of(elems)
        p = int(rng.choice(primes))
        assert omega(p, a) == omega_mirrored(p, elems)


def test_is_admissible_examples():
    assert is_admissible(AdmissibleSet.of([2]))
    assert not is_admissible(AdmissibleSet.of([1, 2]))
    assert is_admissible(AdmissibleSet.of([]))
    assert is_admissible(AdmissibleSet.of([2, 6]))
    # {2, 4} covers every residue mod 3 and is inadmissible
    assert not is_admissible(AdmissibleSet.of([2, 4]))


def test_measure():
    a = AdmissibleSet.of([2, 4, 6])
    assert abs(a.mu - (0.5 + 0.25 + 1 / 6)) < 1e-14


def test_admissible_set_validation():
    with pytest.raises(ValueError):
        AdmissibleSet.of([0, 2])
    with pytest.raises(ValueError):
        AdmissibleSet.of([2, 2])


def test_harmonic_thresholds_paper_values():
    n, total = harmonic_threshold(4.0)
    assert n == 227
    assert abs(total - 4.0021833) < 1e-7
    n, total = harmonic_threshold(6.0)
    assert n == 12367
    assert abs(total - 6.0000215) < 1e-7


def test_harmonic_threshold_small_c():
    # the unit multiplier alone already exceeds any c < 1
    assert harmonic_threshold(0.4) == (0, 1.0)
    # a NaN would end the search at once and an infinite c never
    for c in (math.nan, 0.0, -1.0, math.inf):
        with pytest.raises(ValueError, match=f"finite and positive, got {c!r}"):
            harmonic_threshold(c)


def test_harmonic_threshold_matches_term_by_term_loop():
    # the same N as adding 1/(2n) one term at a time, and the measure within
    # 1e-15 of that sum's exactly rounded value (3.2e-16 at most measured)
    rng = np.random.default_rng(2024)
    for c in [1.0, 1.5, 4.0, 6.0, 8.0, *rng.uniform(0.3, 8.0, 40)]:
        n, total = harmonic_threshold(c)
        want_n, want_total = harmonic_threshold_loop(c)
        assert n == want_n, c
        assert abs(total - want_total) <= 1e-15 * want_total, c


def test_harmonic_threshold_large_c():
    # N = 2e9 at c = 12, and the first measure past c stays distinguishable
    # from the one before it up to c = 16, which is the limit
    n, total = harmonic_threshold(12.0)
    assert n == 2012783315 and 12.0 < total < 12.0 + 1e-10
    n, total = harmonic_threshold(16.0)
    assert total > 16.0
    with pytest.raises(ValueError, match=r"c must be at most 16, got 16\.5"):
        harmonic_threshold(16.5)


def test_harmonic_threshold_steps_at_each_measure():
    # the start never lies above the answer: one ulp below measure(n) gives
    # n, measure(n) itself gives n + 1; the last n is the last whose measure
    # is at most 16
    def measure(n):
        return 1.0 + 0.5 * (float(digamma(n + 1.0)) + CONSTANTS.euler_gamma)

    for n in (1, 2, 227, 12367, 10 ** 6, 10 ** 9, harmonic_threshold(16.0)[0] - 1):
        c = measure(n)
        assert harmonic_threshold(math.nextafter(c, 0.0)) == (n, c), n
        assert harmonic_threshold(c)[0] == n + 1, n


def test_harmonic_threshold_monotone():
    prev = -1
    for c in (0.5, 1.2, 2.0, 3.0, 4.0, 4.5, 5.0):
        n, _ = harmonic_threshold(c)
        assert n >= prev
        prev = n


def test_constants_kummer_lead():
    t = constants_table(c1_cutoff=10 ** 5)
    assert abs(t["kummer_lead"].value - 1.6433058) < 1e-7


def test_singular_series_rejects_small_cutoff():
    for cutoff in (1, 0, -5):
        with pytest.raises(ValueError, match="cutoff must be >= 2"):
            singular_series_c1(cutoff)


def test_constants_c1_six_digits():
    value, tail = singular_series_c1(4 * 10 ** 6)
    assert abs(value - 3.279577) < 5e-7
    assert tail < 1e-5


def test_c2_minimiser():
    k, val = c2_minimum()
    assert k == 55
    assert val < -0.413812
    assert c2_sum(53) > val and c2_sum(57) > val
    with pytest.raises(ValueError, match="k must be an odd integer >= 3"):
        c2_sum(4)


def test_c1_sum_direct():
    q, k = 5, 9
    want = 0.25 * sum(math.log(2 * j * q - 1) / (j * math.log(q)) for j in (1, 2, 3, 4))
    assert abs(c1_sum(q, k) - want) < 1e-15
    with pytest.raises(ValueError):
        c1_sum(5, 8)


@pytest.mark.parametrize("q", [1, 0, -5])
def test_c1_sum_refuses_q_below_2(q):
    # log q vanishes at q = 1 and is undefined below it
    with pytest.raises(ValueError, match=rf"q must be >= 2, got {q}$"):
        c1_sum(q, 3)
