"""Records reproduce the bits stored in tests/data/record_bits.json.

The golden tests allow a tolerance; this one allows none, so a change that
means to keep every output bit is held to it.  tests/make_record_bits.py
writes the file.
"""
import json
from pathlib import Path

import pytest

from make_record_bits import ROWS, record_bits

STORED = json.loads((Path(__file__).parent / "data" / "record_bits.json").read_text())


def test_stored_rows_are_the_listed_ones():
    assert {p: sorted(map(int, rows)) for p, rows in STORED.items()} == \
        {p: sorted(qs) for p, qs in ROWS}


@pytest.mark.parametrize("precision, q", [(p, q) for p, qs in ROWS for q in qs])
def test_record_bits_unchanged(precision, q):
    assert record_bits(q, precision) == STORED[precision][str(q)]
