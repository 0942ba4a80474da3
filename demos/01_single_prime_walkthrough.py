"""Walk through everything the pipeline computes for a single odd prime.

The route: index the Dirichlet characters mod q by the smallest primitive
root, evaluate three real kernels at the points a/q, take their DFTs, and
assemble kappa(q), r(q) and both Euler-Kronecker constants from the
spectra.  The pipeline needs each kernel at one parity of characters only,
so it takes two packed transforms of length (q-1)/2, one per parity, and
keeps one sum per conjugate pair of characters.
"""
import math

import numpy as np

from ekcyclo import (KernelId, character_sums_dd, compute_record, kernel_values,
                     log_deriv_ratios, primitive_root)
from ekcyclo.charsum import EVEN
from ekcyclo.ek_core import parity_transforms

q = 101
ctx = primitive_root(q)
print(f"q = {q}: smallest primitive root g = {ctx.g}, {ctx.n} characters")

# the three kernels, evaluated in power order g^0, g^1, ...
vals = {kernel: kernel_values(ctx, kernel) for kernel in KernelId}
for kernel, v in vals.items():
    print(f"  kernel {kernel.value:8s}: f(g^0/q) = {v[0]:+.6f}, sum over a = {v.sum():+.6f}")

# the even packed row is 4 LNGAMMA + i ZETA2 (paired over a and q-a); its
# entry 0 holds the principal sums of both kernels
pt = parity_transforms(ctx)
y0 = pt.spec[EVEN, 0]
print(f"  packed transforms of length {ctx.n // 2}: Y_0 = {y0.real / 4:+.6f} (lngamma) "
      f"{y0.imag:+.6f} (zeta2)")

# one sum per conjugate pair: odd j = 1, 3, .. for LINEAR and LNGAMMA,
# non-principal even j = 2, 4, .. for LNGAMMA and ZETA2
sums = pt.sums()
for name, first in (("b1", 1), ("lg_odd", 1), ("lg_even", 2), ("z2", 2)):
    s = getattr(sums, name)
    print(f"  {name:7s} j = {first}, {first + 2}: " + ", ".join(f"{z:.6f}" for z in s[:2]))

# per-character L'/L(1, chi_j): the closed form at each representative, the
# conjugate at its partner q-1-j; the same function reads double-double sums
ratios = log_deriv_ratios(sums)
for j in (1, 2, ctx.n - 1):
    print(f"  L'/L(1, chi_{j}) = {ratios[j]:.12f}")
ratios_dd = log_deriv_ratios(character_sums_dd(ctx).sums())
print(f"  max over j of |double - double-double| = {np.nanmax(np.abs(ratios - ratios_dd)):.1e}")

rec = compute_record(q)
print(f"\nkappa({q})       = {rec.kappa:+.15f}")
print(f"r({q})           = {rec.r:+.15f}")
print(f"gamma_{q}+       = {rec.gamma_plus:+.15f}")
print(f"gamma_{q}        = {rec.gamma:+.15f}")
print(f"delta = kappa-r  = {rec.delta:+.15f}")
print(f"neighbors        = 2q+1 prime: {rec.flags.sg2p}, 2q-1: {rec.flags.sg2m}, "
      f"4q+1: {rec.flags.sg4p}, 4q-1: {rec.flags.sg4m}")

# the assembly identity ties the three headline numbers together
lhs = rec.gamma_plus - rec.gamma
rhs = rec.kappa * math.log(q)
print(f"\nassembly identity |gamma+ - gamma - kappa log q| = {abs(lhs - rhs):.2e}")

# the double-double mode recomputes everything in ~31-digit arithmetic
rec_dd = compute_record(q, mode="dd")
print(f"double vs double-double kappa difference = {abs(rec.kappa - rec_dd.kappa):.2e}")
