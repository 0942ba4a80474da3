"""Independent mpmath oracle for kappa, r, gamma_plus and gamma at small q.

For every nontrivial character chi mod q (prime q, so every such chi is
primitive) the oracle evaluates, at the working precision,

    L(1, chi)  = -(1/q) sum_a chi(a) psi(a/q)
    L'(1, chi) =  (1/q) sum_a chi(a) [log q psi(a/q) - gamma_1(a/q)]

with mpmath.digamma and the Hurwitz-Stieltjes constant mpmath.stieltjes(1, x),
and then sums over the parities:

    kappa   = -sum_{odd chi} Re L'/L(1, chi) / log q
    r       =  sum_{odd chi} log |L(1, chi)|
    gamma_+ =  gamma + sum_{even chi != 1} Re L'/L(1, chi)
    gamma_q =  gamma_+ - kappa log q
    h1      =  round(exp(r) 2q (q / 4 pi^2)^((q-1)/4))

Nothing here imports ekcyclo.  Regenerate the stored table with

    python3 perfbench/make_oracle.py > perfbench/oracle_small_q.json
"""
from __future__ import annotations

import json
import sys

import mpmath

Q_MAX = 100
DPS = 40
DIGITS = 32
COMMAND = "python3 perfbench/make_oracle.py > perfbench/oracle_small_q.json"


def _odd_primes(limit: int) -> list[int]:
    return [n for n in range(3, limit + 1, 2)
            if all(n % d for d in range(3, int(n ** 0.5) + 1, 2))]


def _primitive_root(q: int) -> int:
    n = q - 1
    factors = [p for p in range(2, n + 1) if n % p == 0
               and all(p % d for d in range(2, int(p ** 0.5) + 1))]
    g = 2
    while any(pow(g, n // p, q) == 1 for p in factors):
        g += 1
    return g


def oracle(q: int) -> dict[str, object]:
    """The four outputs and h1(q) at DPS working digits."""
    mp = mpmath.mp
    n = q - 1
    g = _primitive_root(q)
    index = {}
    a = 1
    for k in range(n):
        index[a] = k
        a = a * g % q
    x = [mpmath.mpf(a) / q for a in range(1, q)]
    psi = [mpmath.digamma(v) for v in x]
    log_q = mpmath.log(q)
    dpsi = [log_q * p - mpmath.stieltjes(1, v) for p, v in zip(psi, x)]
    roots = [mpmath.expjpi(mpmath.mpf(2 * m) / n) for m in range(n)]
    kappa_sum = mp.zero
    r = mp.zero
    even_sum = mp.zero
    for j in range(1, n):
        chi = [roots[j * index[a] % n] for a in range(1, q)]
        big_l = -mpmath.fsum(c * p for c, p in zip(chi, psi)) / q
        big_lp = mpmath.fsum(c * d for c, d in zip(chi, dpsi)) / q
        ratio = (big_lp / big_l).real
        if j % 2:
            kappa_sum += ratio
            r += mpmath.log(abs(big_l))
        else:
            even_sum += ratio
    kappa = -kappa_sum / log_q
    gamma_plus = mpmath.euler + even_sum
    gamma = gamma_plus - kappa * log_q
    log_g = mpmath.log(2 * q) + (q - 1) * (log_q - 2 * mpmath.log(2 * mpmath.pi)) / 4
    h1 = int(mpmath.nint(mpmath.exp(r + log_g)))
    values = {name: mpmath.nstr(v, DIGITS, strip_zeros=False)
              for name, v in (("kappa", kappa), ("r", r),
                              ("gamma_plus", gamma_plus), ("gamma", gamma))}
    values["h1"] = h1
    return values


def main() -> int:
    mpmath.mp.dps = DPS
    table = {str(q): oracle(q) for q in _odd_primes(Q_MAX)}
    json.dump({"command": COMMAND, "dps": DPS, "values": table}, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
