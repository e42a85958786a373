"""The float formatter's rare lanes and its writes into a wider row matrix.

``floattext._decimal`` decides Dragonbox's edge cases in its main path
where the words of one product settle them: a remainder equal to the
interval's width (is the lower end below the candidate?), a distance
divisible by 100 (is the estimate one high?), and zero.  It flags the
rest as rare lanes, which ``spell`` writes as ``repr`` spells them after
each pass: an end or a value that may be an integer where that matters,
a tie at an edge, powers of two, whose gap below is half the gap above,
and subnormals.  Random bit patterns reach these cases only by chance; each
has named inputs here, checked against ``repr`` alone, among ordinary
values, at the edges of a pass and filling a whole pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soundersim import floattext

#: Deterministic inputs for each rare lane of the digit search.
RARE_LANES = {
    "upper end excluded": [3.8537782149011656e16, 6.3091004258123976e16],
    "lower end inside by parity": [1.579931034208909e164, 2.424588099502069e-144],
    "lower end on a closed interval": [3.250296022406579e16, 5.37926970493815e16],
    "lower end outside": [2.8131768692576492e16, 9.054486081381251e-278],
    "distance estimate one high": [1.2945121553754902e-294, 1.3295954672315255e84],
    "exact tie to even": [1483039052054336.2, 1533661600446129.2],
    "shorter interval": np.ldexp(1.0, np.arange(-1021, 1024)).tolist(),
    "smallest normal and neighbours": [2.2250738585072014e-308, 2.225073858507202e-308,
                                       2.225073858507201e-308],
    "smallest subnormal": [5e-324],
    "zero": [0.0],
}


@pytest.mark.parametrize("lane", sorted(RARE_LANES))
def test_rare_lanes_match_repr(lane):
    values = np.array(RARE_LANES[lane])
    values = np.concatenate([values, -values])
    rows = floattext.spell(values)
    assert [row.tobytes().rstrip(b"\0").decode() for row in rows] == [
        repr(v) for v in values.tolist()]


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_rare_lanes_inside_ordinary_blocks_match_repr(seed):
    # Every rare lane's values, of both signs, at drawn places among ordinary
    # values over a block and three more: a lane's fixup that lands on
    # another lane of the block shows here, as it cannot among rare values
    # alone.  Both spellings, standalone and into an unaligned field.
    rare = np.array(sum(RARE_LANES.values(), []))
    rng = np.random.default_rng(seed)
    length = floattext.BLOCK_LEN + 3
    values = rng.standard_normal(length) * 10.0 ** rng.integers(-12, 12, length)
    values[rng.choice(length, 2 * len(rare), replace=False)] = np.concatenate([rare, -rare])
    expected = [repr(v).encode() for v in values.tolist()]
    for special in [(), ("NaN", "Infinity")]:
        field = np.zeros((length, 31), np.uint8)[:, 5:5 + floattext.WIDTH]
        for rows in (floattext.spell(values, *special),
                     floattext.spell(values, *special, out=field)):
            assert [row.tobytes().rstrip(b"\0") for row in rows] == expected


#: Values the export meets, non-finite ones and subnormals among them.
EDGE_VALUES = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308,
               1e16, -1.2345678901234567e-5, 123.456, 1e-4]


@pytest.mark.parametrize("special", [(), ("NaN", "Infinity")], ids=["csv", "json-lines"])
@pytest.mark.parametrize("length", [0, 1, floattext.BLOCK_LEN - 1, floattext.BLOCK_LEN,
                                    floattext.BLOCK_LEN + 1])
def test_spelling_into_a_field_matches_the_standalone_rows(length, special):
    # The field starts at byte 5 of a 35-byte row, so its words are unaligned;
    # the bytes around it keep their fill.
    rng = np.random.default_rng(length)
    values = rng.standard_normal(length) * 10.0 ** rng.integers(-320, 300, length)
    values[:len(EDGE_VALUES)] = EDGE_VALUES[:length]
    matrix = np.full((length, 35), 0xA5, np.uint8)
    field = matrix[:, 5:5 + floattext.WIDTH]
    assert floattext.spell(values, *special, out=field) is field
    assert field.tobytes() == floattext.spell(values, *special).tobytes()
    assert (matrix[:, :5] == 0xA5).all() and (matrix[:, 5 + floattext.WIDTH:] == 0xA5).all()


def _rare_lanes(values):
    """The lanes that ``floattext`` leaves to ``repr``."""
    return floattext._decimal(np.asarray(values).view(np.uint64))[2]


def _assert_both_spellings_match_repr(values):
    """Standalone and into an unaligned field, each row is ``repr`` of its value."""
    expected = [repr(v).encode() for v in values.tolist()]
    field = np.zeros((len(values), 31), np.uint8)[:, 5:5 + floattext.WIDTH]
    for rows in (floattext.spell(values), floattext.spell(values, out=field)):
        assert [row.tobytes().rstrip(b"\0") for row in rows] == expected


def test_rare_lanes_at_the_edges_of_a_pass_match_repr():
    # Rare values at the first and last lane of the first pass and at the
    # first lane of the second: each is written into its own row, counted
    # from the start of the whole array, not of its pass.
    rng = np.random.default_rng(3002)
    length = floattext.BLOCK_LEN + 1
    values = rng.standard_normal(length) * 10.0 ** rng.integers(-12, 12, length)
    edges = [0, floattext.BLOCK_LEN - 1, floattext.BLOCK_LEN]
    values[edges] = [5e-324, -3.8537782149011656e16, 1483039052054336.2]
    assert set(_rare_lanes(values[:floattext.BLOCK_LEN])) == {0, floattext.BLOCK_LEN - 1}
    assert list(_rare_lanes(values[floattext.BLOCK_LEN:])) == [0]
    _assert_both_spellings_match_repr(values)


def test_a_pass_of_rare_lanes_only_matches_repr():
    # Half subnormals, half integers between 2^53 and 2^56 whose scaled
    # interval ends may be integers, of both signs: every lane of the pass
    # is rare.
    rng = np.random.default_rng(3003)
    half = floattext.BLOCK_LEN // 2
    tiny = rng.integers(1, 2**52, half, dtype=np.uint64).view(np.float64)
    whole = rng.uniform(2.0**53, 2.0**56, 8 * half)
    whole = whole[_rare_lanes(whole)][:half]
    values = np.concatenate([tiny, whole]) * rng.choice([-1.0, 1.0], 2 * half)
    assert len(_rare_lanes(values)) == floattext.BLOCK_LEN
    _assert_both_spellings_match_repr(values)
