"""The vectorized float formatter against ``repr``, value by value.

``floattext.spell`` must give exactly ``repr`` of every finite float64:
the shortest digits that read back to the same double, the closest of
them to it, and ``repr``'s positional and exponent layouts.  The values
cover the algorithm's edges: every power of two (whose gap below is half
the gap above) and of ten with their neighbours, subnormals down to
``5e-324``, integers up to 2^53, the switches between layouts, and a
million random bit patterns.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from soundersim import floattext

ROOT = Path(__file__).resolve().parents[1]


def _assert_spelled_as_repr(values):
    """Each row holds ``repr`` of its value, NUL-padded after the text."""
    values = np.asarray(values, np.float64)
    rows = floattext.spell(values)
    assert rows.shape == (len(values), floattext.WIDTH) and rows.dtype == np.uint8
    texts = [repr(v) for v in values.tolist()]
    assert max(map(len, texts), default=0) <= floattext.WIDTH
    expected = np.array(texts, f"S{floattext.WIDTH}").view(np.uint8).reshape(rows.shape)
    wrong = np.flatnonzero((rows != expected).any(axis=1))
    assert [(texts[i], rows[i].tobytes()) for i in wrong[:10]] == []


@settings(max_examples=300)
@given(arrays(np.float64, st.integers(1, 64),
              elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.array([5e-324, -0.0, 0.0, 1e-4, 1e-5, 9999999999999998.0, 1e16]))
def test_spelling_matches_repr(values):
    _assert_spelled_as_repr(values)


def test_random_bit_patterns_match_repr():
    bits = np.random.default_rng(1601).integers(0, 2**64, 1_000_000, dtype=np.uint64,
                                                endpoint=False)
    values = bits.view(np.float64)
    _assert_spelled_as_repr(values[np.isfinite(values)])


@pytest.mark.parametrize("step", [0, 1, -1], ids=["exact", "next_up", "next_down"])
def test_powers_of_two_and_ten_and_their_neighbours_match_repr(step):
    exact = np.concatenate([np.ldexp(1.0, np.arange(-1074, 1024)),
                            [float(f"1e{e}") for e in range(-323, 309)]])
    values = exact if step == 0 else np.nextafter(exact, step * np.inf)
    _assert_spelled_as_repr(np.concatenate([values, -values]))


def test_subnormals_match_repr():
    rng = np.random.default_rng(1602)
    tiny = np.arange(1, 20_000, dtype=np.uint64)
    spread = rng.integers(1, 2**52, 100_000, dtype=np.uint64)
    values = np.concatenate([tiny, spread, np.array([2**52 - 1], np.uint64)]).view(np.float64)
    assert values[0] == 5e-324
    _assert_spelled_as_repr(np.concatenate([values, -values]))


def test_integers_and_short_decimals_match_repr():
    rng = np.random.default_rng(1603)
    integers = np.concatenate([np.arange(-1000, 1001), rng.integers(0, 2**53, 100_000),
                               [2**53 - 1, 2**53]]).astype(np.float64)
    decimals = np.concatenate([np.round(rng.uniform(-1e4, 1e4, 20_000), places)
                               for places in range(8)])
    _assert_spelled_as_repr(np.concatenate([integers, decimals]))


def test_layout_switches_match_repr():
    switches = [1e-4, 1e-5, 9.999999999999999e-05, 0.00010000000000000002,
                9999999999999998.0, 1e16, 1.0000000000000002e16, 123456789012345.6,
                0.0, -0.0, 1.0, 1.5, 100.0, 1e22, 1e23, 5e-324, 1.7976931348623157e308,
                2.2250738585072014e-308, 2.225073858507201e-308]
    _assert_spelled_as_repr(switches + [-v for v in switches])


def test_non_finite_values_are_spelled_as_given():
    values = np.array([np.nan, -np.nan, np.inf, -np.inf, 1.5, -0.0])
    for special in [(), ("NaN", "Infinity")]:
        nan, inf = special or ("nan", "inf")
        rows = floattext.spell(values, *special).view(f"S{floattext.WIDTH}").ravel()
        assert rows.tolist() == [t.encode() for t in (nan, nan, inf, "-" + inf, "1.5", "-0.0")]


def test_empty_and_strided_input():
    assert floattext.spell(np.array([])).shape == (0, floattext.WIDTH)
    values = np.arange(12.0).reshape(3, 4) / 7
    _assert_spelled_as_repr(values[:, 1])  # not contiguous
    # More than one block of work.
    _assert_spelled_as_repr(np.linspace(-3.0, 3.0, 2 * floattext.BLOCK_LEN + 5))


def test_spelling_does_not_depend_on_the_cpu_dispatch_level():
    # numpy picks SIMD loops for its integer ufuncs by CPU at import; the
    # differential tests above must pass at every level.
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("the dispatch levels below are x86 feature groups")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 X86_V3")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "not dispatch_level"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert " passed" in proc.stdout and "failed" not in proc.stdout
