"""Sample-domain arithmetic: quantization, shifts, float round trips."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from soundersim import fixedpoint as fp
from soundersim.averager import AveragerConfig, select_and_average
from soundersim.errors import ConfigurationError


def test_quantize_zero():
    s = fp.quantize(0 + 0j)
    assert s["i"] == 0 and s["q"] == 0


def test_quantize_positive_saturation():
    # +1.0 would be 32768; the quantizer saturates to the largest code.
    s = fp.quantize(1.0 + 0j)
    assert s["i"] == 32767 and s["q"] == 0


def test_quantize_negative_full_scale_exact():
    s = fp.quantize(-1.0 + 0j)
    assert s["i"] == -32768 and s["q"] == 0


def test_quantize_counts_clipped_components():
    values = np.array([2.0 + 0j, -3.0 - 3j, 0.5 + 0.5j])
    samples, clipped = fp.quantize_clipped(values)
    assert clipped == 3
    assert samples["i"].tolist() == [32767, -32768, 16384]
    assert samples["q"].tolist() == [0, -32768, 16384]


def test_quantize_headroom_never_clips():
    rng = np.random.default_rng(7)
    values = (rng.uniform(-1, 1, 5000) + 1j * rng.uniform(-1, 1, 5000))
    values *= 1 - 2**-15
    _, clipped = fp.quantize_clipped(values)
    assert clipped == 0


@pytest.mark.parametrize("value, code, clipped", [
    (-1.0, -32768, 0),
    (-1 - 2**-16, -32768, 0),  # -32768.5 rounds half-even onto the rail
    (1 - 2**-16, 32767, 1),  # 32767.5 rounds half-even to 32768, past the rail
    (-1 - 2**-15, -32768, 1),
    (1 - 2**-15, 32767, 0),
])
def test_clip_count_counts_rounded_values_outside_the_rails(value, code, clipped):
    samples, count = fp.quantize_clipped(np.array([value + 0j, 1j * value]))
    assert samples["i"].tolist() == [code, 0] and samples["q"].tolist() == [0, code]
    assert count == 2 * clipped


def _unguarded_quantize_clipped(values):
    """Round, count and clip every component in one pass, with no skipping."""
    parts = np.rint(np.asarray(values, np.complex128).view(np.float64) * fp.FULL_SCALE)
    clipped = np.count_nonzero(parts < fp.INT_MIN) + np.count_nonzero(parts > fp.INT_MAX)
    samples = np.clip(parts, fp.INT_MIN, fp.INT_MAX).astype("<i2").view(fp.SAMPLE_DTYPE)
    return samples, int(clipped)


_COMPONENTS = st.one_of(
    st.floats(-1.1, 1.1),
    st.floats(-1e300, 1e300),
    st.sampled_from([-np.inf, np.inf, -1.0, -1 - 2**-16, 1 - 2**-16, -1 - 2**-15]),
)


@given(length=st.sampled_from([0, 1, fp.BLOCK_LEN - 1, fp.BLOCK_LEN, fp.BLOCK_LEN + 1,
                               2 * fp.BLOCK_LEN + 3]),
       background=st.sampled_from([0.5, 1.0]),
       seed=st.integers(0, 2**32 - 1),
       placed=st.lists(st.tuples(st.integers(0, 2**31), st.booleans(), _COMPONENTS),
                       max_size=6))
def test_quantize_clipped_matches_an_unguarded_oracle(length, background, seed, placed):
    # Blocks whose extremes stay within the rails skip the count and the
    # clip; samples and counts must be those of clipping every block.
    rng = np.random.default_rng(seed)
    values = background * (rng.uniform(-1, 1, length) + 1j * rng.uniform(-1, 1, length))
    for where, imag, component in placed:
        if length:
            (values.imag if imag else values.real)[where % length] = component
    samples, clipped = fp.quantize_clipped(values)
    expected, expected_clipped = _unguarded_quantize_clipped(values)
    assert samples.tobytes() == expected.tobytes()
    assert clipped == expected_clipped


def test_to_float_examples():
    assert fp.to_float(fp.from_components(0, 0)) == 0 + 0j
    assert abs(fp.to_float(fp.from_components(32767, 0)) - 0.999969482421875) < 1e-9
    assert fp.to_float(fp.from_components(-32768, 16384)) == -1.0 + 0.5j


def _random_samples(shape, seed=11):
    rng = np.random.default_rng(seed)
    return fp.from_components(rng.integers(-32768, 32768, shape),
                              rng.integers(-32768, 32768, shape))


@pytest.mark.parametrize("samples", [
    pytest.param(fp.from_components(-32768, 32767), id="0-d"),
    pytest.param(_random_samples(17), id="1-d"),
    pytest.param(_random_samples((4, 6)), id="N-by-L"),
    pytest.param(_random_samples(17)[::3], id="strided-1-d"),
    pytest.param(_random_samples((4, 6))[::2, 1::2], id="strided-N-by-L"),
])
def test_to_float_is_componentwise_and_keeps_shape(samples):
    out = fp.to_float(samples)
    assert out.shape == samples.shape and out.dtype == np.complex128
    assert np.array_equal(out, samples["i"] * fp.LSB + 1j * samples["q"] * fp.LSB)


def test_quantize_to_float_identity_exhaustive():
    # Every representable component must round-trip, including -32768.
    codes = np.arange(-32768, 32768, dtype=np.int64)
    samples = fp.from_components(codes, (-codes).clip(min=-32768, max=32767))
    back = fp.quantize(fp.to_float(samples))
    assert np.array_equal(back, samples)


def _shift(samples, bits):
    """The averager's pre-sum shift alone: one symbol, no discard."""
    cfg = AveragerConfig(signal_len=len(samples), discard_len=0, avg_count=1,
                         shift_bits=bits)
    return select_and_average(samples.copy(), cfg).data  # which consumes its window


def test_shift_right_examples():
    s = _shift(fp.from_components([64, -1, 32767, 63], [-64, 0, -32768, -63]), 6)
    assert s["i"].tolist() == [1, -1, 511, 0]
    assert s["q"].tolist() == [-1, 0, -512, -1]  # arithmetic shift floors toward -inf


def test_shift_right_is_floor_division_exhaustive():
    codes = np.arange(-32768, 32768, dtype=np.int64)
    samples = fp.from_components(codes, codes[::-1])
    for bits in (0, 1, 5, 6, 15):
        shifted = _shift(samples, bits)
        oracle = codes // 2**bits  # Python floor division
        assert np.array_equal(shifted["i"].astype(np.int64), oracle), bits
        assert np.array_equal(shifted["q"].astype(np.int64), oracle[::-1]), bits


def test_sum_of_shifted_never_overflows():
    # Worst case: 64 samples of -32768 shifted by 6 sum to exactly -32768.
    worst = fp.from_components([-32768] * 64, [-32768] * 64)
    total = (worst["i"] >> 6).astype(np.int64).sum()
    assert total == -32768
    rng = np.random.default_rng(20)
    for _ in range(50):
        vals = rng.integers(-32768, 32768, 64)
        total = (fp.from_components(vals, vals)["i"] >> 6).astype(np.int64).sum()
        assert -32768 <= total <= 32767


def test_from_components_rejects_out_of_range():
    with pytest.raises(ConfigurationError):
        fp.from_components(40000, 0)
    with pytest.raises(ConfigurationError):
        fp.from_components(0, -32769)


def test_sample_dtype_wire_layout():
    # Little-endian I then Q, four bytes per sample.
    s = fp.from_components([1, -2], [256, 5])
    assert fp.SAMPLE_DTYPE.itemsize == 4
    assert s.tobytes() == b"\x01\x00\x00\x01" + b"\xfe\xff\x05\x00"
