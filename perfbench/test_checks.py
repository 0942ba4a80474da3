"""Each output check passes on correct rows and fails on a corrupted copy.

    python3 -m pytest perfbench/test_checks.py

The correct rows are built from the stored mpmath oracle (odd q < 100) and
trial division, so the value checks run without the program; the two
property checks call it at small q.
"""
from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from ekcyclo.reference import KAPPA_REFERENCE  # noqa: E402

TABLE = dict(KAPPA_REFERENCE)
ORACLE = checks.load_oracle()
QS = checks.odd_primes(3, 97)


def _row(q: int) -> checks.Row:
    ref = {name: float(ORACLE[q][name]) for name in checks.OUTPUTS}
    flags = tuple(int(checks.is_prime(n)) for n in (2 * q + 1, 2 * q - 1, 4 * q + 1, 4 * q - 1))
    return checks.Row(q=q, delta=ref["kappa"] - ref["r"], flags=flags, **ref)


@pytest.fixture
def rows() -> list[checks.Row]:
    return [_row(q) for q in QS]


def _replace(rows, q, **changes):
    return [dataclasses.replace(r, **changes) if r.q == q else r for r in rows]


def test_oracle_covers_the_odd_primes_below_100():
    assert sorted(ORACLE) == QS


def test_correct_rows_pass(rows):
    for mode in ("double", "dd"):
        tol = checks.TOLERANCE[mode]
        assert checks.check_kappa_table(rows, TABLE, tol["table"]) == []
        assert checks.check_oracle(rows, ORACLE, tol["oracle"]) == []
    assert checks.check_rows_are_primes(rows, QS) == []
    assert checks.check_flags(rows) == []
    assert checks.check_identities(rows) == []
    assert checks.check_integrality(rows, ORACLE) == []


@pytest.mark.parametrize("mode", ["double", "dd"])
@pytest.mark.parametrize("q", [3, 59, 97])
def test_kappa_off_by_1e_9_fails(rows, mode, q):
    row = next(r for r in rows if r.q == q)
    bad = _replace(rows, q, kappa=row.kappa + 1e-9)
    tol = checks.TOLERANCE[mode]
    assert checks.check_kappa_table(bad, TABLE, tol["table"])
    assert checks.check_oracle(bad, ORACLE, tol["oracle"])
    assert checks.check_identities(bad)


def test_missing_row_fails(rows):
    assert checks.check_rows_are_primes(rows[:10] + rows[11:], QS)
    assert checks.check_rows_are_primes(rows[:-1], QS)


def test_repeated_row_fails(rows):
    problems = checks.check_rows_are_primes(rows[:11] + rows[10:], QS)
    assert problems and "repeated" in problems[0]
    assert checks.check_rows_are_primes(rows + rows[-1:], QS)


def test_swapped_rows_fail(rows):
    rows[4], rows[5] = rows[5], rows[4]
    assert checks.check_rows_are_primes(rows, QS)


@pytest.mark.parametrize("bit", range(4))
def test_wrong_flag_fails(rows, bit):
    row = rows[7]
    flags = list(row.flags)
    flags[bit] ^= 1
    assert checks.check_flags(_replace(rows, row.q, flags=tuple(flags)))


def test_r_off_breaks_integrality(rows):
    row = next(r for r in rows if r.q == 79)
    assert checks.check_integrality(_replace(rows, 79, r=row.r + 1e-9), ORACLE)


def test_unknown_q_below_1000_fails_the_table_check(rows):
    assert checks.check_kappa_table(rows + [dataclasses.replace(rows[0], q=999)], TABLE, 1.0)


def test_histogram_conservation(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("bin_center,count,normal_overlay\n-0.6,1,nan\n0.1,5,nan\n0.6,0,nan\n")
    assert checks.check_histogram(path, 6) == []
    assert checks.check_histogram(path, 7)


def test_root_invariance_catches_a_changed_row(rows):
    assert checks.check_root_invariance(rows, "double", random.Random(0), 3) == []
    row = next(r for r in rows if r.q == 97)
    bad = _replace(rows, 97, kappa=row.kappa + 1e-9)
    problems = checks.check_root_invariance([r for r in bad if r.q == 97], "double",
                                            random.Random(0), 1)
    assert problems and "kappa" in problems[0]


@pytest.mark.parametrize("mode", ["double", "dd"])
def test_kernel_points_agree_with_mpmath(mode):
    assert checks.check_kernel_points(97, mode, random.Random(1)) == []


def test_kernel_points_fail_on_a_wrong_kernel(monkeypatch):
    from ekcyclo import charsum

    real = charsum.kernel_values
    monkeypatch.setattr(charsum, "kernel_values", lambda ctx, k: real(ctx, k) + 1e-9)
    assert checks.check_kernel_points(97, "double", random.Random(1))
