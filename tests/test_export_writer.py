"""The block-wise table writer against the per-row writer it replaced.

``cli._emit`` spells each column in blocks of ``EMIT_BLOCK_ROWS`` rows.
The oracle below is the earlier writer, one ``csv.writer`` or
``json.dumps`` call per row; both must write the same bytes for any
int64 and float64 columns, including NaN, infinities, -0.0, subnormals
and the magnitudes that ``repr`` spells in exponent form.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from soundersim import cli

BLOCK = 4

SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.2e-308,
                  1e16, -1e16, 1.2345678901234567e22, 1.7976931348623157e308]

FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS),
                   st.floats(min_value=1e16), st.floats(max_value=-1e16))

INTS = st.integers(-2**63, 2**63 - 1)


def _emit_per_row(columns, out_path, fmt):
    """Write equal-length columns as CSV with a header row, or JSON-lines."""
    names = list(columns)
    rows = zip(*(column.tolist() for column in columns.values()))
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            writer = csv.writer(fh)
            writer.writerow(names)
            writer.writerows(rows)
        else:  # json-lines
            for row in rows:
                fh.write(json.dumps(dict(zip(names, row))) + "\n")


@st.composite
def tables(draw):
    """Named int64 and float64 columns of one length around the block size."""
    length = draw(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1]))
    kinds = draw(st.lists(st.booleans(), min_size=1, max_size=4))
    return {f"c{i}_{'f' if is_float else 'i'}":
            draw(arrays(np.float64, length, elements=FLOATS) if is_float
                 else arrays(np.int64, length, elements=INTS))
            for i, is_float in enumerate(kinds)}


@given(columns=tables(), fmt=st.sampled_from(["csv", "json-lines"]))
def test_block_writer_matches_per_row_writer(columns, fmt):
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(cli, "EMIT_BLOCK_ROWS", BLOCK)
        expected, actual = Path(tmp, "expected"), Path(tmp, "actual")
        _emit_per_row(columns, expected, fmt)
        cli._emit(columns, actual, fmt)
        assert actual.read_bytes() == expected.read_bytes()
