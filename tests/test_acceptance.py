"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criteria 4 and 6 are the heavy ones (a 1e8 sieve pass and a q <= 1e5
production run on four workers); both carry explicit wall-clock budgets.
"""
import math
import time

import numpy as np
import pytest

from ekcyclo.admissible import (AdmissibleSet, c2_minimum, harmonic_threshold,
                                omega, singular_series_c1)
from ekcyclo.analysis import delta_stats, envelope_check, histogram, spike_report
from ekcyclo.charsum import character_sums_dd, spectrum_checks, transform_kernel
from ekcyclo.dd import dd_gamma_zeta_kernels
from ekcyclo.ek_core import compute_record, kummer_check, log_deriv_ratios, parity_transforms
from ekcyclo.primes import primes_in, primitive_root
from ekcyclo.prime_sums import truncated_sums
from ekcyclo.special_functions import CONSTANTS, hurwitz_z2_at_rationals, ln_gamma
from ekcyclo.store import RunConfig, read_records, run_range, verify_reference

from _oracles import dft_direct, direct_parity_sums, dirichlet_series_ratios, omega_mirrored

import mpmath as mp

mp.mp.dps = 40


def _report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("desk") / "desk.csv"
    start = time.time()
    rows = run_range(RunConfig(3, 10 ** 5, str(out), threads=4))
    elapsed = time.time() - start
    records = read_records(out)
    assert rows == len(records)
    return records, elapsed


def test_criterion_1_reference_table_reproduction():
    start = time.time()
    double_res = verify_reference("double")
    dd_res = verify_reference("dd")
    elapsed = time.time() - start
    # the criterion's own bounds, so that a looser VERIFY_TOL fails here
    ok = (double_res.ok and double_res.max_deviation <= 1e-8
          and dd_res.ok and dd_res.max_deviation <= 1e-14 and elapsed < 10.0)
    _report("criterion 1: 167-value reference reproduction", ok,
            f"double max {double_res.max_deviation:.2e}, dd max "
            f"{dd_res.max_deviation:.2e}, {elapsed:.1f}s single-threaded")


def test_criterion_2_kummer_integrality():
    worst = 0.0
    for q in primes_in(2, 100)[1:]:
        kc = kummer_check(int(q))
        worst = max(worst, kc.gap)
        if kc.gap > 1e-6 or kc.nearest_int < 1:
            _report("criterion 2: Kummer integrality", False,
                    f"q={q} gap={kc.gap:.2e}")
    ok = kummer_check(3).nearest_int == 1 and kummer_check(23).nearest_int == 3
    _report("criterion 2: Kummer integrality (h1 integral for q <= 100)",
            ok and worst <= 1e-6, f"worst gap {worst:.2e}; h1(3)=1, h1(23)=3")


def test_criterion_3_series_oracle_per_character():
    # the parity sums that records read, in both precisions; np.max keeps a NaN
    worst = {"double": 0.0, "dd": 0.0}
    for q in (3, 5, 7, 11, 13, 17, 19):
        ctx = primitive_root(q)
        series = dirichlet_series_ratios(q, n_terms=10 ** 7)
        j, want = np.array(list(series)), np.array(list(series.values()))
        for mode, pt in (("double", parity_transforms(ctx)), ("dd", character_sums_dd(ctx))):
            closed = log_deriv_ratios(pt.sums())
            worst[mode] = np.max(np.abs(closed[j] - want), initial=worst[mode])
    _report("criterion 3: closed form vs smoothed Dirichlet series (q=3..19, double and dd)",
            all(w <= 1e-5 for w in worst.values()),
            f"worst per-character deviation {worst['double']:.2e} double, {worst['dd']:.2e} dd")


def test_criterion_4_cross_route_smoke():
    start = time.time()
    sums = truncated_sums([3, 5, 7], 10 ** 8)
    elapsed = time.time() - start
    dev_k, dev_r = [], []
    for q in (3, 5, 7):
        rec = compute_record(q)
        half = (q - 1) / 2.0
        got = sums[q]
        dev_k.append(abs(half * (got.v + got.w) - rec.kappa))
        dev_r.append(abs(half * got.f - rec.r))
    # np.max keeps a NaN, which then fails the bound
    worst_k, worst_r = float(np.max(dev_k)), float(np.max(dev_r))
    ok = worst_k <= 0.1 and worst_r <= 0.1 and elapsed < 300.0
    _report("criterion 4: truncated prime sums at 1e8 vs closed forms", ok,
            f"kappa dev {worst_k:.2e}, r dev {worst_r:.2e}, sieve {elapsed:.0f}s")


def test_criterion_5_named_constants():
    start = time.time()
    n4, s4 = harmonic_threshold(4.0)
    n6, s6 = harmonic_threshold(6.0)
    lead = (43.0 - 18.0 * CONSTANTS.zeta3) / 13.0
    c1, _ = singular_series_c1(4 * 10 ** 6)
    k_best, c2_best = c2_minimum()
    elapsed = time.time() - start
    ok = (n4 == 227 and abs(s4 - 4.0021833) < 1e-7
          and n6 == 12367 and abs(s6 - 6.0000215) < 1e-7
          and abs(lead - 1.6433058) < 1e-7
          and abs(c1 - 3.279577) < 5e-7
          and k_best == 55 and c2_best < -0.413812
          and elapsed < 1.0)
    _report("criterion 5: explicit proof constants", ok,
            f"N(4)={n4}, N(6)={n6}, lead={lead:.8f}, C1={c1:.7f}, "
            f"argmin={k_best}, {elapsed:.2f}s")


def test_criterion_6_desk_scale_distribution(desk_run):
    records, elapsed = desk_run
    kappas = np.array([r.kappa for r in records])
    mean_all = float(np.mean(kappas))
    sg = spike_report(records, 2, 1, exclusive=True)
    sg_m = spike_report(records, 2, -1, exclusive=True)
    q4 = spike_report(records, 4, 1, exclusive=True)
    frac, _ = delta_stats(records, 0.08)
    ok_a = abs(mean_all) < 0.01
    ok_b = abs(sg.sample_mean - 0.25) < 0.1 and abs(sg_m.sample_mean + 0.25) < 0.1
    ok_c = sg.sample_mean > q4.sample_mean > mean_all
    ok_d = frac > 0.95
    ok = ok_a and ok_b and ok_c and ok_d and elapsed < 300.0
    _report("criterion 6: desk-scale distribution properties (q <= 1e5)", ok,
            f"mean {mean_all:+.4f}; SG+ {sg.sample_mean:.3f} (n={sg.count}), "
            f"SG- {sg_m.sample_mean:.3f}, 4q+1 {q4.sample_mean:.3f}; "
            f"frac|delta|<=0.08 {frac:.3f}; run {elapsed:.0f}s on 4 workers")


def test_criterion_7_property_battery(desk_run, tmp_path):
    records, _ = desk_run
    rng = np.random.default_rng(123)

    # DFT against the quadratic-time oracle
    ok_dft = True
    for n in list(range(1, 65)) + [int(rng.integers(65, 700)) for _ in range(100)]:
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        err = np.max(np.abs(transform_kernel(x.copy()) - dft_direct(x)))  # x itself is overwritten
        ok_dft &= bool(err < 1e-11 * max(1.0, n))

    # principal sums and Parseval of the packed parity transforms: compute_record
    # already enforced both on every production q during the desk run; re-check
    # explicitly on a sample, with the parity sums, which the conjugate symmetry
    # of the spectra splits out of the packed rows, against the quadratic-time DFT
    tol = {"s0": 1e-12, "parseval": 1e-9}
    ok_spec = True
    for q in (3, 7, 61, 499, 1009, 4001):
        ctx = primitive_root(q)
        pt = parity_transforms(ctx)
        res = spectrum_checks(pt)
        ok_spec &= all(residual < tol[name] for (name, _), residual in res.items())
        sums = pt.sums()
        for field, want in direct_parity_sums(ctx).items():
            err = np.max(np.abs(getattr(sums, field) - want), initial=0.0)
            ok_spec &= bool(err < 1e-9 * max(1.0, np.max(np.abs(want), initial=0.0)))

    # the dd log Gamma kernel against scipy's gammaln and the zeta''(0, x)
    # finite-difference oracle, on the kernels that records read, at the
    # points a/q nearest to uniform draws
    q = 10007
    a = np.rint(rng.uniform(0.01, 0.99, 1000) * q).astype(np.int64)
    lg, _ = dd_gamma_zeta_kernels(a, q)  # at a, then at q - a
    ok_lerch = bool(np.max(np.abs(lg.hi - ln_gamma(np.concatenate([a, q - a]) / q))) <= 1e-11)
    q = 997
    a = np.rint(rng.uniform(0.01, 0.99, 25) * q).astype(np.int64)
    step = mp.mpf("1e-4")
    ok_fd = True
    for ai, z2 in zip(np.concatenate([a, q - a]), hurwitz_z2_at_rationals(a, q)):
        xx = mp.mpf(int(ai)) / q
        fd = (mp.zeta(step, xx) - 2 * mp.zeta(0, xx) + mp.zeta(-step, xx)) / step ** 2
        ok_fd &= abs(z2 - float(fd)) < 1e-6

    # omega sign-flip invariance
    ok_omega = True
    for _ in range(100):
        elems = tuple(sorted(set(rng.integers(1, 60, size=rng.integers(1, 6)).tolist())))
        p = int(rng.choice([2, 3, 5, 7, 11, 13, 17]))
        ok_omega &= omega(p, AdmissibleSet.of(elems)) == omega_mirrored(p, elems)

    # histogram conservation
    vals = rng.normal(0, 0.5, 5000)
    h = histogram(vals, 0.05, -0.6, 0.6)
    ok_hist = int(h.counts.sum()) + h.underflow + h.overflow == len(vals)

    # byte-identical output across thread counts
    blobs = []
    for threads in (1, 2, 8):
        out = tmp_path / f"threads{threads}.csv"
        run_range(RunConfig(3, 2000, str(out), threads=threads))
        blobs.append(out.read_bytes())
    ok_bytes = blobs[0] == blobs[1] == blobs[2]

    # zero envelope anomalies over the full desk-scale run
    hard = [a for a in envelope_check(records) if a.kind == "hard"]
    ok_env = not hard

    ok = all((ok_dft, ok_spec, ok_lerch, ok_fd, ok_omega, ok_hist, ok_bytes, ok_env))
    _report("criterion 7: property battery", ok,
            f"dft={ok_dft} spectra={ok_spec} lerch={ok_lerch} fd={ok_fd} "
            f"omega={ok_omega} hist={ok_hist} bytes={ok_bytes} envelope={ok_env}")
