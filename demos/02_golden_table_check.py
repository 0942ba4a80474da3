"""Verify the embedded golden table of kappa(q) for all odd primes < 1000.

The table stores 30 truncated digits per prime; binary64 reproduces them to
a few 1e-14, the double-double mode to the last representable bit.
"""
import time

from ekcyclo import verify_reference
from ekcyclo.store import VERIFY_TOL

for mode in ("double", "dd"):
    start = time.time()
    res = verify_reference(mode)
    print(f"{mode:6s}: max deviation {res.max_deviation:.3e} at q={res.worst_q} "
          f"-> {'OK' if res.ok else 'FAIL'} at {VERIFY_TOL[mode]:g} ({time.time() - start:.1f}s)")
