"""The exact bits of a few records, pinned by tests/test_record_bits.py.

For each (precision, q) below the file holds float.hex of kappa, r,
gamma_plus and gamma as compute_record returns them.  The binary64 rows
sum their folds through the array levels of compensated_sum, and
q = 1000003 takes its zeta'' kernel in more than one block.  Of the dd rows, q = 103 has q - 1 = 2 (mod 4), so its roots of unity
have no exact quarter turn, and q = 8209 takes its kernels in two blocks.  A change that moves these bits on purpose regenerates the file with

    PYTHONPATH=src python3 tests/make_record_bits.py > tests/data/record_bits.json

and says why.
"""
from __future__ import annotations

import json

from ekcyclo.ek_core import compute_record

FIELDS = ("kappa", "r", "gamma_plus", "gamma")
ROWS = (("double", (3, 5, 7, 13, 101, 1009, 10007, 1000003)),
        ("dd", (3, 101, 103, 997, 8209)))


def record_bits(q: int, precision: str) -> dict[str, str]:
    rec = compute_record(q, precision)
    return {field: float.hex(getattr(rec, field)) for field in FIELDS}


def main() -> None:
    table = {precision: {str(q): record_bits(q, precision) for q in qs} for precision, qs in ROWS}
    print(json.dumps(table, indent=1))


if __name__ == "__main__":
    main()
