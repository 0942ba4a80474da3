"""The Taylor tables at 3/2 that special_functions stores as decimal strings.

LG(y) = log Gamma(y) and F(y) = zeta''(0, y) are sum_j c_j t^j, t = y - 3/2,
j < TERMS, with the closed forms

    LG: c_0 = log Gamma(3/2), c_1 = psi(3/2),
        c_j = (-1)^j zeta(j, 3/2) / j                           for j >= 2;
    F:  c_0 = -(3/2) log^2 2 - log 2 log 2pi, c_1 = 2 gamma_1(3/2),
        c_j = (2/j)(-1)^j [H_{j-1} zeta(j, 3/2) + zeta'(j, 3/2)]  for j >= 2

(see the comment above special_functions.LG_TAYLOR_STR).  Each value is
printed to DIGITS significant digits.  tests/test_special_functions.py checks
the stored strings against these; a change of the tables is pasted from

    python3 tests/make_hurwitz_taylor.py
"""
from __future__ import annotations

import mpmath as mp

TERMS = 72
DIGITS = 40
_DPS = 50


def lg_coefficient(j: int) -> mp.mpf:
    y = mp.mpf(3) / 2
    if j == 0:
        return mp.loggamma(y)
    if j == 1:
        return mp.digamma(y)
    return (-1) ** j * mp.zeta(j, y) / j


def f_coefficient(j: int) -> mp.mpf:
    y = mp.mpf(3) / 2
    if j == 0:
        return -y * mp.log(2) ** 2 - mp.log(2) * mp.log(2 * mp.pi)
    if j == 1:
        return 2 * mp.stieltjes(1, y)
    return 2 * (-1) ** j * (mp.harmonic(j - 1) * mp.zeta(j, y) + mp.zeta(j, y, 1)) / j


def tables() -> dict[str, list[mp.mpf]]:
    """{name in special_functions: the TERMS coefficients at _DPS digits}."""
    with mp.workdps(_DPS):
        return {name: [+coefficient(j) for j in range(TERMS)]
                for name, coefficient in (("LG_TAYLOR_STR", lg_coefficient),
                                          ("F_TAYLOR_STR", f_coefficient))}


def main() -> None:
    for name, coefficients in tables().items():
        strings = [f'"{mp.nstr(c, DIGITS, min_fixed=1, max_fixed=1)}"' for c in coefficients]
        print(f"{name} = (")
        for i in range(0, TERMS, 2):
            print(f"    {', '.join(strings[i:i + 2])},")
        print(")")


if __name__ == "__main__":
    main()
