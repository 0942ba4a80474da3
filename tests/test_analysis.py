import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ekcyclo.analysis import (delta_stats, envelope_check, histogram, pi_star,
                              spike_report)
from ekcyclo.ek_core import EkRecord
from ekcyclo.primes import neighbor_flags, primes_in
from ekcyclo.reference import kappa_reference


def _fake_record(q, kappa, r=0.0):
    return EkRecord(q=q, kappa=kappa, r=r, gamma_plus=0.0, gamma=0.0, flags=neighbor_flags(q))


@pytest.fixture(scope="module")
def table_records():
    return [_fake_record(q, k) for q, k in kappa_reference().items()]


def test_pi_star_examples():
    assert pi_star(10) == 1   # pi(10) - pi(5) = 4 - 3
    assert pi_star(4) == 1    # pi(4) - pi(2) = 2 - 1
    assert pi_star(2) == 1
    for q in (1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match=f"Q must be >= 2 and finite, got {q}"):
            pi_star(q)


def test_pi_star_matches_primes_in():
    for Q in (100, 1234, 10 ** 5, 10 ** 6):
        assert pi_star(Q) == len(primes_in(Q // 2, Q))


def test_histogram_trivial():
    h = histogram([0.0, 0.0, 0.0], bin_width=1.0, lo=-1.0, hi=1.0)
    assert h.counts.tolist() == [0, 3]
    assert h.mean == 0.0 and h.sigma == 0.0
    assert h.n == 3 and h.underflow == 0 and h.overflow == 0


def test_histogram_normal_peak():
    h = histogram(np.random.default_rng(0).normal(0.3, 0.2, 1000),
                  bin_width=0.05, lo=-1.0, hi=1.0)
    peak = h.normal_density(h.mean)
    assert abs(peak - 1.0 / (h.sigma * math.sqrt(2 * math.pi))) < 1e-12


def test_histogram_table_kappa(table_records):
    h = histogram([r.kappa for r in table_records], bin_width=0.1, lo=-0.6, hi=0.6)
    assert int(h.counts.sum()) + h.underflow + h.overflow == 167
    assert h.underflow == 0 and h.overflow == 0


def test_histogram_empty():
    h = histogram([], bin_width=0.1, lo=0.0, hi=1.0)
    assert h.n == 0 and h.mean is None and h.sigma is None
    with pytest.raises(ValueError):
        h.normal_density(0.5)


@settings(max_examples=100)
@given(st.lists(st.floats(-10, 10, allow_nan=False), max_size=200))
def test_histogram_conservation(values):
    h = histogram(values, bin_width=0.25, lo=-2.0, hi=2.0)
    assert int(h.counts.sum()) + h.underflow + h.overflow == len(values)


def test_two_pass_statistics():
    rng = np.random.default_rng(5)
    v = rng.normal(2.0, 3.0, 500)
    h = histogram(v, 0.5, -20, 20)
    mean = sum(v) / len(v)
    sigma = math.sqrt(sum((x - mean) ** 2 for x in v) / (len(v) - 1))
    assert abs(h.mean - mean) < 1e-12
    assert abs(h.sigma - sigma) < 1e-12


def test_spike_targets():
    recs = [_fake_record(11, 0.1)]
    assert spike_report(recs, 2, 1).target == 0.25
    assert spike_report(recs, 4, -1).target == -0.125


def test_spike_count_table_range(table_records):
    # 36 odd primes q < 1000 have 2q+1 prime (derived by direct sieve; the
    # classical count of 37 Sophie Germain primes below 1000 includes q = 2)
    rep = spike_report(table_records, 2, 1)
    assert rep.count == 36
    rep_x = spike_report(table_records, 2, 1, exclusive=True)
    assert rep_x.count == 35
    assert rep_x.count <= rep.count


def test_spike_exclusive_semantics():
    # q = 3: 2q+1 = 7 prime but 2q-1 = 5 prime too -> not exclusive
    recs = [_fake_record(3, 0.0)]
    assert spike_report(recs, 2, 1).count == 1
    assert spike_report(recs, 2, 1, exclusive=True).count == 0
    # q = 11: 23 prime, 21 composite -> exclusive Sophie Germain
    recs = [_fake_record(11, 0.0)]
    assert spike_report(recs, 2, 1, exclusive=True).count == 1
    # q = 13: 4q+1 = 53 prime, 2q+-1 = 27/25 composite, 4q-1 = 51 composite
    recs = [_fake_record(13, 0.0)]
    assert spike_report(recs, 4, 1, exclusive=True).count == 1


def test_spike_validation():
    with pytest.raises(ValueError):
        spike_report([], 3, 1)
    with pytest.raises(ValueError):
        spike_report([], 2, 0)


def test_delta_stats_trivial():
    zeros = [_fake_record(5, 0.0, 0.0)] * 4
    assert delta_stats(zeros, 0.08) == (1.0, 0.0)
    one = [_fake_record(5, 0.1, 0.0)]
    assert delta_stats(one, 0.08) == (0.0, pytest.approx(0.1))
    with pytest.raises(ValueError):
        delta_stats([], 0.08)
    with pytest.raises(ValueError):
        delta_stats(one, -1.0)


def test_envelope_check(table_records):
    hard = [a for a in envelope_check(table_records) if a.kind == "hard"]
    assert hard == []
    for q in (100, 101):
        bad = envelope_check([_fake_record(q, 5.0)])
        assert len(bad) == 1 and bad[0].kind == "hard" and bad[0].q == q
    assert envelope_check([]) == []
    # at q = 1e5 the hard envelope is log log q + 1.41 = 3.85 and the soft one
    # 2|kappa| > log log log q + 2 = 2.89: kappa = +-2 is soft, 1.4 is neither
    got = envelope_check([_fake_record(10 ** 5, k) for k in (2.0, -2.0, 1.4)])
    assert [(a.q, a.kappa, a.kind) for a in got] == [(10 ** 5, 2.0, "soft"),
                                                     (10 ** 5, -2.0, "soft")]
    # below q = 20 there is no soft check
    assert envelope_check([_fake_record(19, 2.0)]) == []


def test_histogram_rejects_nan():
    # no cell holds NaN, and an infinity would make the mean inf and sigma NaN
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^histogram value 1 is {bad}, not finite$"):
            histogram([0.1, bad, 0.2])


def test_histogram_rejects_grid_size():
    # 1e7 cells, refused before any count array is allocated; 0.24 and 0.498
    # cells round to none; 0.502 and 171.43 cells are no whole number, whose
    # last cell would be 1.5 and 1.43 widths wide
    for width in (1.2e-7, 5.0, 2.41, 2.39, 0.007):
        with pytest.raises(ValueError, match="cells, not 1 to 1000000 whole cells"):
            histogram([0.1], width)
    # no width and an empty range are refused before any cell count
    for args in ((0.0,), (0.1, 0.5, 0.5)):
        with pytest.raises(ValueError, match="need bin_width > 0 and lo < hi"):
            histogram([0.1], *args)
    assert histogram([0.5], 1.0, 0.0, 1e6).counts.size == 10 ** 6
