"""Output checks of the benchmark, made apart from the program under test.

Each ``check_*`` function returns a list of problems (empty when the check
passes).  Rows are parsed here with the csv module, not with ekcyclo.store,
and every expected value comes from an independent source:

- the odd primes of a range and the neighbour flags, by trial division;
- kappa(q) for q < 1000, from the 30-digit table shipped with the program;
- kappa, r, gamma_plus, gamma and h1(q) for q < 100, from the mpmath oracle
  stored in oracle_small_q.json (see make_oracle.py for the command that
  regenerates it);
- log Gamma and zeta''(0, a/q) at sampled points, from mpmath.

Only the two property checks at the end call the program, and they compare
it with itself under a change that must not matter (the primitive root that
indexes the characters) or with mpmath.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
ORACLE_PATH = HERE / "oracle_small_q.json"
HEADER = ["q", "kappa", "r", "delta", "gamma_plus", "gamma", "sg2p", "sg2m", "sg4p", "sg4m"]
OUTPUTS = ("kappa", "r", "gamma_plus", "gamma")
EPS = 2.0 ** -52

# Deviations from the independent references, per precision mode.  Each is
# about a hundred times the worst deviation seen over the benchmark's rows
# (see README.md), and far below the 1e-9 error the checks must catch.
TOLERANCE = {
    "double": {"table": 5e-12, "oracle": 2e-12, "kernel": 1e-12, "root": 1e-10},
    "dd": {"table": 3e-15, "oracle": 1e-14, "kernel": 1e-27, "root": 1e-15},
}
# R(q)G(q) is an integer, but exp(r + log G) from a binary64 r is only good
# to about h1(q) * 1e-15, so the 1e-6 gate holds up to q = 79 (h1 ~ 1e8).
INTEGRALITY_Q_MAX = 79
INTEGRALITY_GAP = 1e-6
# seeded points a/q at which the kernels are compared with mpmath
KERNEL_SAMPLES = 8


@dataclass(frozen=True)
class Row:
    q: int
    kappa: float
    r: float
    delta: float
    gamma_plus: float
    gamma: float
    flags: tuple[int, int, int, int]


def parse_csv(path: str | Path) -> list[Row]:
    """Rows of a compute CSV; raises ValueError on a malformed file."""
    with open(path, newline="", encoding="ascii") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != HEADER:
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = []
        for fields in reader:
            if len(fields) != len(HEADER):
                raise ValueError(f"{path}: row {len(rows) + 1} has {len(fields)} fields")
            reals = [float(v) for v in fields[1:6]]
            rows.append(Row(int(fields[0]), *reals, tuple(int(v) for v in fields[6:])))
    return rows


def is_prime(n: int) -> bool:
    """Trial division."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def odd_primes(lo: int, hi: int) -> list[int]:
    """Odd primes q with lo <= q <= hi, by trial division."""
    return [n for n in range(max(lo, 3) | 1, hi + 1, 2) if is_prime(n)]


def primes_above(start: int, count: int) -> list[int]:
    """The first ``count`` primes greater than ``start``, by trial division."""
    out = []
    n = start + 1
    while len(out) < count:
        if is_prime(n):
            out.append(n)
        n += 1
    return out


def load_oracle() -> dict[int, dict[str, object]]:
    data = json.loads(ORACLE_PATH.read_text())
    return {int(q): v for q, v in data["values"].items()}


def check_rows_are_primes(rows: list[Row], expected: list[int]) -> list[str]:
    """The rows are exactly the expected odd primes, in order, each once."""
    got = [row.q for row in rows]
    if got == expected:
        return []
    for i, (g, e) in enumerate(zip(got, expected)):
        if g != e:
            kind = "repeated" if i and got[i - 1] == g else "missing or out of order"
            return [f"row {i + 1}: q={g}, expected q={e} ({kind})"]
    return [f"{len(got)} rows, expected {len(expected)}"]


def check_flags(rows: list[Row]) -> list[str]:
    """sg2p, sg2m, sg4p, sg4m are the primality of 2q+1, 2q-1, 4q+1, 4q-1."""
    problems = []
    for row in rows:
        q = row.q
        want = tuple(int(is_prime(n)) for n in (2 * q + 1, 2 * q - 1, 4 * q + 1, 4 * q - 1))
        if row.flags != want:
            problems.append(f"q={q}: flags {row.flags}, trial division gives {want}")
    return problems


def check_kappa_table(rows: list[Row], table: dict[int, str], tol: float) -> list[str]:
    """Every row with q < 1000 against the 30-digit kappa table."""
    problems = []
    with mpmath.workdps(40):
        for row in rows:
            if row.q >= 1000:
                continue
            if row.q not in table:
                problems.append(f"q={row.q}: not in the reference table")
                continue
            dev = abs(mpmath.mpf(row.kappa) - mpmath.mpf(table[row.q]))
            if dev > tol:
                problems.append(f"q={row.q}: |kappa - table| = {float(dev):.3e} > {tol:g}")
    return problems


def check_oracle(rows: list[Row], oracle: dict[int, dict], tol: float) -> list[str]:
    """kappa, r, gamma_plus and gamma against the mpmath oracle (relative to max(1, |v|))."""
    problems = []
    with mpmath.workdps(40):
        for row in rows:
            ref = oracle.get(row.q)
            if ref is None:
                continue
            for name in OUTPUTS:
                want = mpmath.mpf(ref[name])
                dev = abs(mpmath.mpf(getattr(row, name)) - want) / max(1, abs(want))
                if dev > tol:
                    problems.append(
                        f"q={row.q}: {name} off the oracle by {float(dev):.3e} > {tol:g}")
    return problems


def check_integrality(rows: list[Row], oracle: dict[int, dict]) -> list[str]:
    """R(q)G(q) from the r column is within 1e-6 of the positive integer h1(q)."""
    problems = []
    with mpmath.workdps(40):
        for row in rows:
            if row.q > INTEGRALITY_Q_MAX:
                continue
            q = row.q
            log_g = mpmath.log(2 * q) + (q - 1) * (mpmath.log(q) - 2 * mpmath.log(2 * mpmath.pi)) / 4
            h = mpmath.exp(mpmath.mpf(row.r) + log_g)
            nearest = int(mpmath.nint(h))
            gap = float(abs(h - nearest))
            if nearest < 1 or gap > INTEGRALITY_GAP:
                problems.append(f"q={q}: R(q)G(q) = {mpmath.nstr(h, 20)}, gap {gap:.3e}")
            elif q in oracle and nearest != oracle[q]["h1"]:
                problems.append(f"q={q}: h1 = {nearest}, oracle gives {oracle[q]['h1']}")
    return problems


def check_identities(rows: list[Row]) -> list[str]:
    """delta = kappa - r and gamma = gamma_plus - kappa log q, to rounding."""
    problems = []
    for row in rows:
        if abs(row.delta - (row.kappa - row.r)) > 2 * EPS * (abs(row.kappa) + abs(row.r)):
            problems.append(f"q={row.q}: delta != kappa - r")
        k_log = row.kappa * math.log(row.q)
        if abs(row.gamma - (row.gamma_plus - k_log)) > 8 * EPS * (abs(row.gamma_plus) + abs(k_log)):
            problems.append(f"q={row.q}: gamma != gamma_plus - kappa log q")
    return problems


def check_histogram(path: str | Path, n_rows: int) -> list[str]:
    """The analyze histogram (cells plus under/overflow) counts every row once."""
    with open(path, newline="", encoding="ascii") as f:
        reader = csv.reader(f)
        next(reader)
        total = sum(int(fields[1]) for fields in reader)
    return [] if total == n_rows else [f"histogram counts {total} values, CSV has {n_rows} rows"]


# -- property checks that call the program -------------------------------


def check_root_invariance(rows: list[Row], mode: str, rng: random.Random,
                          samples: int) -> list[str]:
    """Results do not change when another primitive root indexes the characters.

    For each sampled row the pipeline is rerun with ek_core's primitive_root
    answering g^k (k a seeded unit mod q-1) in place of the smallest root.
    """
    from ekcyclo import ek_core
    from ekcyclo.primes import PrimeContext

    tol = TOLERANCE[mode]["root"]
    smallest = ek_core.primitive_root
    problems = []
    for row in rng.sample(rows, min(samples, len(rows))):
        n = row.q - 1
        units = [k for k in range(2, min(n, 200)) if math.gcd(k, n) == 1]
        if not units:
            continue  # q = 3: the smallest root is the only one
        k = rng.choice(units)

        def other_root(q: int, k: int = k) -> PrimeContext:
            ctx = smallest(q)
            return PrimeContext(q=q, g=pow(ctx.g, k, q), n=ctx.n)

        ek_core.primitive_root = other_root
        try:
            rec = ek_core.compute_record(row.q, mode=mode)
        finally:
            ek_core.primitive_root = smallest
        for name in OUTPUTS:
            a, b = getattr(rec, name), getattr(row, name)
            if abs(a - b) > tol * max(1.0, abs(b)):
                problems.append(f"q={row.q}: {name} moves by {abs(a - b):.3e} under g -> g^{k}")
    return problems


def check_kernel_points(q: int, mode: str, rng: random.Random) -> list[str]:
    """log Gamma(a/q) and zeta''(0, a/q) of the program against mpmath.

    Double mode checks the kernel rows the pipeline transforms
    (charsum.kernel_values); dd mode checks the double-double kernels.
    """
    import numpy as np
    from ekcyclo import charsum, dd, primitive_root

    tol = TOLERANCE[mode]["kernel"]
    ctx = primitive_root(q)
    ks = sorted(rng.sample(range(ctx.n), min(KERNEL_SAMPLES, ctx.n)))
    a = [int(v) for v in ctx.powers()[ks]]
    if mode == "double":
        rows = [charsum.kernel_values(ctx, kernel)[ks]
                for kernel in (charsum.KernelId.LNGAMMA, charsum.KernelId.ZETA2)]
        parts = [(row, np.zeros_like(row)) for row in rows]
    else:
        parts = [(v.hi, v.lo) for v in dd.dd_gamma_zeta_kernels(np.asarray(a), q)]
    problems = []
    with mpmath.workdps(40):
        for i, ai in enumerate(a):
            x = mpmath.mpf(ai) / q
            for name, (hi, lo), want in (("lngamma", parts[0], mpmath.loggamma(x)),
                                         ("zeta2", parts[1], mpmath.zeta(0, x, 2))):
                got = mpmath.mpf(float(hi[i])) + float(lo[i])
                dev = abs(got - want) / max(1, abs(want))
                if dev > tol:
                    problems.append(f"q={q}, a={ai}: {name} off mpmath by {float(dev):.3e}")
    return problems
