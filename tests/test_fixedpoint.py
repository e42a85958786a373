"""Sample-domain arithmetic: quantization, shifts, float round trips."""

import numpy as np
import pytest

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


def test_to_float_examples():
    assert fp.to_float(fp.from_components(0, 0)) == 0 + 0j
    assert abs(fp.to_float(fp.from_components(32767, 0)) - 0.999969482421875) < 1e-9
    assert fp.to_float(fp.from_components(-32768, 16384)) == -1.0 + 0.5j


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
    return select_and_average(samples, cfg).data


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
