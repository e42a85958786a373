"""The block-wise table writer against the per-row writer it replaced.

``cli._emit`` spells each column in blocks of ``EMIT_BLOCK_ROWS`` rows,
and the values of a ``(values, index)`` pair once per table.  The oracle
below is the earlier writer, one ``csv.writer`` or ``json.dumps`` call
per row, given ``values[index]`` for a pair; both must write the same
bytes for any int64 and float64 columns, including NaN, infinities,
-0.0, subnormals and the magnitudes that ``repr`` spells in exponent
form.
"""

import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
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
    """Named int64 and float64 columns of one length around the block size.

    A column is an array or a pair ``(values, index)`` whose index may be
    unsorted and repeat entries.
    """
    length = draw(st.sampled_from([0, 1, BLOCK - 1, BLOCK, BLOCK + 1]))
    kinds = draw(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=4))
    columns = {}
    for i, (is_float, is_pair) in enumerate(kinds):
        size = draw(st.integers(1 if length else 0, 6)) if is_pair else length
        values = draw(arrays(np.float64, size, elements=FLOATS) if is_float
                      else arrays(np.int64, size, elements=INTS))
        columns[f"c{i}_{'f' if is_float else 'i'}{'_pair' if is_pair else ''}"] = (
            (values, draw(arrays(np.int64, length, elements=st.integers(0, max(size - 1, 0)))))
            if is_pair else values)
    return columns


# A pair's JSON fallback covers its whole table: here the index reaches a
# non-finite value only in the last block.
@example(columns={"delay": (np.array([-0.0, 5e-324, math.nan, -math.inf]),
                            np.array([1, 0, 1, 0, 0, 3, 2]))}, fmt="json-lines")
@example(columns={"bin": (np.array([7, -2**63]), np.array([1, 1, 0])),
                  "y": np.array([math.inf, 1e16, -0.0])}, fmt="json-lines")
@settings(max_examples=400)
@given(columns=tables(), fmt=st.sampled_from(["csv", "json-lines"]))
def test_block_writer_matches_per_row_writer(columns, fmt):
    gathered = {name: c[0][c[1]] if isinstance(c, tuple) else c
                for name, c in columns.items()}
    with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
        mp.setattr(cli, "EMIT_BLOCK_ROWS", BLOCK)
        expected, actual = Path(tmp, "expected"), Path(tmp, "actual")
        _emit_per_row(gathered, expected, fmt)
        cli._emit(columns, actual, fmt)
        assert actual.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json-lines"])
@pytest.mark.parametrize("columns", [
    {"a": np.arange(3), "b": np.zeros(2)},
    {"a": (np.arange(5), np.array([0, 4, 4])), "b": np.zeros(4)},
    {"a": np.zeros(1), "b": (np.arange(2), np.array([], dtype=np.int64))},
], ids=["arrays", "pair-longer", "pair-empty"])
def test_columns_of_different_lengths_raise(tmp_path, columns, fmt):
    with pytest.raises(ValueError, match="one length"):
        cli._emit(columns, tmp_path / "out", fmt)
    assert not (tmp_path / "out").exists()
