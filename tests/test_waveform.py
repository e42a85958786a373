"""Sounding symbol synthesis and transmit frame assembly."""

import hashlib

import numpy as np
import pytest

from soundersim import fixedpoint as fp
from soundersim.config import SounderConfig, config_from_dict
from soundersim.errors import ConfigurationError
from soundersim.waveform import (
    SoundingWaveform,
    ZcParams,
    build_sounding_symbol,
    build_tx_frame,
    generate_zc,
    occupied_bins,
    tx_frame_samples,
)


def test_zc_starts_at_one():
    x = generate_zc(ZcParams(813, 7))
    assert x[0] == 1 + 0j


def test_zc_constant_modulus():
    x = generate_zc(ZcParams(813, 7))
    assert np.abs(np.abs(x) - 1.0).max() < 1e-12


def test_zc_ideal_circular_autocorrelation():
    # Direct O(N^2) oracle: perfect peak at lag 0, nothing anywhere else.
    x = generate_zc(ZcParams(813, 7))
    n = len(x)
    for lag in range(n):
        corr = np.sum(x * np.conj(np.roll(x, -lag)))
        if lag == 0:
            assert abs(corr - n) < 1e-9 * n
        else:
            assert abs(corr) < 1e-9 * n


def test_zc_even_length_form():
    # Even lengths use the n^2 phase profile.
    x = generate_zc(ZcParams(4, 1))
    oracle = np.exp(-1j * np.pi * np.arange(4) ** 2 / 4)
    assert np.allclose(x, oracle, atol=1e-15)


def test_zc_params_validation():
    with pytest.raises(ConfigurationError):
        ZcParams(813, 3)  # gcd(3, 813) = 3
    with pytest.raises(ConfigurationError):
        ZcParams(813, 0)
    with pytest.raises(ConfigurationError):
        ZcParams(813, 813)
    with pytest.raises(ConfigurationError):
        ZcParams(0, 1)


def test_occupied_bins_centered_on_dc():
    bins = occupied_bins(813, 1024)
    assert len(bins) == 813
    assert 0 in bins  # DC included
    assert set(range(0, 407)) <= set(bins)  # positive half
    assert set(range(618, 1024)) <= set(bins)  # negative half wraps
    assert not set(range(407, 618)) & set(bins)  # guard band empty
    with pytest.raises(ConfigurationError):
        occupied_bins(9, 8)


def test_every_occupied_block_includes_dc():
    # The capture header's dc_bin_included relies on this rule.
    for fft_size in range(1, 65):
        for count in range(1, fft_size + 1):
            assert 0 in occupied_bins(count, fft_size), (count, fft_size)
    for count in (812, 813, 1023, 1024):  # even and odd at the default signal_len
        assert 0 in occupied_bins(count, 1024)


def test_symbol_peak_equals_backoff():
    wf = build_sounding_symbol(ZcParams(813, 7), 1024, 0.5)
    peak = max(np.abs(wf.time_signal.real).max(), np.abs(wf.time_signal.imag).max())
    assert abs(peak - 0.5) < 1e-12


def test_symbol_constant_modulus_on_occupied_bins():
    wf = build_sounding_symbol(ZcParams(813, 7), 1024, 0.5)
    mags = np.abs(wf.freq_bins[wf.occupied_mask])
    assert np.abs(mags - mags[0]).max() < 1e-12 * mags[0]
    assert np.count_nonzero(wf.occupied_mask) == 813
    assert np.all(wf.freq_bins[~wf.occupied_mask] == 0)


def test_symbol_time_signal_is_exact_idft_of_bins():
    wf = build_sounding_symbol(ZcParams(813, 7), 1024, 0.5)
    assert np.array_equal(wf.time_signal, np.fft.ifft(wf.freq_bins))


def test_symbol_parseval():
    wf = build_sounding_symbol(ZcParams(813, 7), 1024, 0.5)
    time_energy = np.sum(np.abs(wf.time_signal) ** 2)
    bin_energy = np.sum(np.abs(wf.freq_bins) ** 2)
    assert abs(time_energy * 1024 - bin_energy) < 1e-9 * bin_energy


def test_symbol_occupied_bandwidth():
    # 813 of 1024 bins at 500 Msps covers just under 400 MHz.
    sample_rate = 1.0 / 2e-9
    bandwidth = 813 / 1024 * sample_rate
    assert abs(bandwidth - 396.97e6) < 0.01e6


def test_single_bin_symbol_is_constant():
    wf = build_sounding_symbol(ZcParams(1, 1), 8, 0.5)
    assert np.abs(wf.time_signal - wf.time_signal[0]).max() < 1e-15


def test_symbol_rejects_sequence_longer_than_fft():
    with pytest.raises(ConfigurationError):
        build_sounding_symbol(ZcParams(9, 2), 8, 0.5)
    with pytest.raises(ConfigurationError):
        build_sounding_symbol(ZcParams(3, 2), 8, 0.0)
    with pytest.raises(ConfigurationError, match="fft_size"):
        build_sounding_symbol(ZcParams(3, 2), -1, 0.5)


def test_symbol_is_built_once_per_argument_tuple():
    wf = build_sounding_symbol(ZcParams(813, 7), 1024, 0.5)
    assert build_sounding_symbol(ZcParams(813, 7), 1024, 0.5) is wf
    assert build_sounding_symbol(ZcParams(813, 5), 1024, 0.5) is not wf
    # An int entry never answers a float fft_size, which np.zeros rejects.
    with pytest.raises(TypeError):
        build_sounding_symbol(ZcParams(813, 7), 1024.0, 0.5)


@pytest.mark.parametrize("field", ["occupied_mask", "freq_bins", "time_signal"])
def test_shared_symbol_arrays_are_read_only(field):
    array = getattr(build_sounding_symbol(ZcParams(51, 2), 64, 0.5), field)
    with pytest.raises(ValueError, match="read-only"):
        array[0] = array[1]
    with pytest.raises(ValueError, match="read-only"):
        array *= True


@pytest.mark.parametrize("args", [(ZcParams(813, 7), 1024, 0.5),
                                  (ZcParams(51, 2), 64, 1 - 2**-15), (ZcParams(1, 1), 8, 1.0)])
def test_cached_symbol_equals_a_fresh_build_bit_for_bit(args):
    cached, fresh = build_sounding_symbol(*args), build_sounding_symbol.__wrapped__(*args)
    assert cached.fft_size == fresh.fft_size
    for field in ("occupied_mask", "freq_bins", "time_signal"):
        a, b = getattr(cached, field), getattr(fresh, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field


def test_invalid_backoff_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(ConfigurationError, match="backoff"):
            build_sounding_symbol(ZcParams(3, 2), 8, 1.5)


def test_symbol_quantization_saturation_free_at_max_backoff():
    wf = build_sounding_symbol(ZcParams(813, 7), 1024, 1 - 2**-15)
    _, clipped = fp.quantize_clipped(wf.time_signal)
    assert clipped == 0


def test_frame_structure_standard_config():
    cfg = SounderConfig()
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    frame = build_tx_frame(wf, cfg)
    assert len(frame) == 2_500_000
    assert cfg.train_repetitions == 66
    train = 66 * 1024
    symbol = fp.quantize(wf.time_signal)
    assert np.array_equal(frame[:train], np.tile(symbol, 66))
    tail = frame[train:]
    assert np.all(tail["i"] == 0) and np.all(tail["q"] == 0)
    assert len(tail) == 2_432_416


def test_frame_duration_matches_rep_period():
    cfg = SounderConfig()
    assert len(build_tx_frame(
        build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff), cfg
    )) * cfg.sample_period_s == cfg.rep_period_s


def test_frame_single_repetition():
    # One signal, nothing discarded: the train is exactly one symbol.
    cfg = SounderConfig(
        signal_len=1024, discard_len=0, avg_count=1, shift_bits=0,
        rep_period_s=2.048e-6, sample_period_s=2e-9,
    )
    assert cfg.train_repetitions == 1
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    frame = build_tx_frame(wf, cfg)
    assert len(frame) == 1024
    assert np.array_equal(frame, fp.quantize(wf.time_signal))


@pytest.mark.parametrize("params, digest", [
    ({}, "9cf25a5a22ce228009a257b5d01e2893d2244d23f78ae77a0c1243db9e3dbea4"),
    (dict(signal_len=64, discard_len=128, avg_count=4, shift_bits=2,
          rep_period_s=400 * 2e-9, sample_period_s=2e-9, zc=ZcParams(51, 2)),
     "2795bf6383a15bd86c712a5ee493fc66e81e0181b7922f5f841ef96be7c9b762"),
    (dict(signal_len=1024, discard_len=0, avg_count=1, shift_bits=0,
          rep_period_s=2.048e-6, sample_period_s=2e-9),
     "22e1aec71f526c3bd727dfcf400a3ab0e42f132ccda3eff9d4293d7258038e84"),
], ids=["default", "400-sample", "single-repetition"])
def test_tx_frame_sha256_pinned(params, digest):
    cfg = SounderConfig(**params)
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    frame = build_tx_frame(wf, cfg)
    assert hashlib.sha256(frame.tobytes()).hexdigest() == digest


def test_frame_rejects_mismatched_symbol():
    cfg = SounderConfig()
    wf = build_sounding_symbol(ZcParams(51, 2), 64, 0.5)
    with pytest.raises(ConfigurationError):
        build_tx_frame(wf, cfg)
    with pytest.raises(ConfigurationError):
        tx_frame_samples(wf, cfg, 0, 4)


@pytest.mark.parametrize("frame_len", [400, 384])  # a zero fill, and none
def test_frame_samples_gather_the_frame_without_building_it(frame_len):
    cfg = SounderConfig(
        signal_len=64, discard_len=128, avg_count=4, shift_bits=2,
        rep_period_s=frame_len * 2e-9, sample_period_s=2e-9, zc=ZcParams(51, 2),
    )
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    frame = build_tx_frame(wf, cfg)
    train = cfg.train_repetitions * cfg.signal_len
    edges = [0, 1, train - 1, train, train + 1, frame_len - 1]
    starts = [k * frame_len + e for k in (-3, -1, 0, 2, 10**9) for e in edges]
    counts = [0, 1, 5, train, frame_len - 1, frame_len, frame_len + 1, 3 * frame_len + 7]
    for start in starts:
        for count in counts:
            got = tx_frame_samples(wf, cfg, start, count)
            assert got.dtype == fp.SAMPLE_DTYPE
            expected = frame[(start + np.arange(count)) % frame_len]
            assert np.array_equal(got, expected), (start, count)


def test_frame_rejects_train_longer_than_frame():
    # Window fits (66 <= 100) but whole-symbol rounding needs 128 samples.
    params = dict(
        signal_len=64, discard_len=2, avg_count=1, shift_bits=0,
        rep_period_s=100 * 2e-9, sample_period_s=2e-9, zc=ZcParams(51, 2),
    )
    with pytest.raises(ConfigurationError, match="does not fit"):
        SounderConfig(**params)
    with pytest.raises(ConfigurationError, match="does not fit"):
        config_from_dict(dict(params, zc=dict(length=51, root=2)))


def test_frame_budget_identity_random_configs():
    # nonzero + zero sample counts always add up to the frame length, and
    # a config is rejected exactly when its train does not fit its frame.
    rng = np.random.default_rng(3)
    for _ in range(40):
        signal_len = int(rng.choice([64, 128, 256]))
        avg_count = int(rng.integers(1, 9))
        shift_bits = int(np.ceil(np.log2(max(avg_count, 1)))) if avg_count > 1 else 0
        discard_len = 2 * int(rng.integers(0, 200))
        window = discard_len + avg_count * signal_len
        train = -(-window // signal_len) * signal_len
        frame_len = train + int(rng.integers(1 - signal_len, 2 * signal_len))
        params = dict(
            signal_len=signal_len, discard_len=discard_len,
            avg_count=avg_count, shift_bits=shift_bits,
            rep_period_s=frame_len * 2e-9, sample_period_s=2e-9,
            zc=ZcParams(51, 2),
        )
        if train > frame_len:
            with pytest.raises(ConfigurationError, match="does not fit"):
                SounderConfig(**params)
            continue
        cfg = SounderConfig(**params)
        wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
        frame = build_tx_frame(wf, cfg)
        assert cfg.train_repetitions * signal_len == train
        assert train + (len(frame) - train) == cfg.frame_len
        assert train <= cfg.frame_len
