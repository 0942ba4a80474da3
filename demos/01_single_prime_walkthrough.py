"""Walk through everything the pipeline computes for a single odd prime.

The route: index the Dirichlet characters mod q by the smallest primitive
root, evaluate three real kernels at the points a/q, take their DFTs, and
assemble kappa(q), r(q) and both Euler-Kronecker constants from the
spectra.  The pipeline needs each kernel at one parity of characters only,
so it takes two packed transforms of length (q-1)/2 instead of three of
length q-1.
"""
import math

import numpy as np

from ekcyclo import (KernelId, character_sums, compute_record, kernel_values,
                     primitive_root)
from ekcyclo.ek_core import parity_transforms

q = 101
ctx = primitive_root(q)
print(f"q = {q}: smallest primitive root g = {ctx.g}, DFT length n = {ctx.n}")

# the three kernels, evaluated in power order g^0, g^1, ...
for kernel in KernelId:
    vals = kernel_values(ctx, kernel)
    cs = character_sums(ctx, kernel)
    print(f"  kernel {kernel.value:8s}: f(g^0/q) = {vals[0]:+.6f}, "
          f"principal sum s[0] = {cs.s[0].real:+.6f}")

# the parity split: one sum per conjugate pair, odd-j LINEAR (j = 1, 3, ..) and
# non-principal even-j ZETA2 (j = 2, 4, ..), from the packed transforms
sums = parity_transforms(ctx).sums()
full_b1 = character_sums(ctx, KernelId.LINEAR).s
full_z2 = character_sums(ctx, KernelId.ZETA2).s
print(f"  parity split, length {ctx.n // 2}: max |B1 odd - full| = "
      f"{np.max(np.abs(sums.b1 - full_b1[1::2][:sums.b1.size])):.1e}, "
      f"max |Z even - full| = {np.max(np.abs(sums.z2 - full_z2[2::2][:sums.z2.size])):.1e}")

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
