"""Select-and-average golden model and its streaming state machine."""

import numpy as np
import pytest

from soundersim import fixedpoint as fp
from soundersim.averager import (
    AveragerConfig,
    AveragerState,
    Phase,
    run_state_machine,
    select_and_average,
    step_state_machine,
)
from soundersim.config import SounderConfig
from soundersim.errors import ConfigurationError, TruncatedStreamError
from soundersim.waveform import ZcParams


def _random_stream(rng, count):
    return fp.from_components(
        rng.integers(-32768, 32768, count), rng.integers(-32768, 32768, count)
    )


def test_single_signal_no_shift_is_identity():
    rng = np.random.default_rng(1)
    stream = _random_stream(rng, 300)
    cfg = AveragerConfig(signal_len=256, discard_len=0, avg_count=1, shift_bits=0)
    snap = select_and_average(stream, cfg)
    assert np.array_equal(snap.data, stream[:256])


def test_constant_input_reproduces_itself():
    # (64, 0) shifted by 6 is (1, 0); summed 64 times gives (64, 0) back.
    cfg = AveragerConfig(signal_len=8, discard_len=0, avg_count=64, shift_bits=6)
    stream = fp.from_components([64] * (8 * 64), [0] * (8 * 64))
    snap = select_and_average(stream, cfg)
    assert np.all(snap.data["i"] == 64)
    assert np.all(snap.data["q"] == 0)


def test_floor_shift_visible_on_negative_constant():
    # -1 >> 6 is -1 (floor), so 64 copies accumulate to -64, not 0.
    cfg = AveragerConfig(signal_len=8, discard_len=0, avg_count=64, shift_bits=6)
    stream = fp.from_components([-1] * (8 * 64), [-1] * (8 * 64))
    snap = select_and_average(stream, cfg)
    assert np.all(snap.data["i"] == -64)
    assert np.all(snap.data["q"] == -64)


def test_wide_integer_oracle_bound():
    # Raw sums sit within (exact/2^K - M, exact/2^K] of the unshifted sum.
    rng = np.random.default_rng(2)
    cfg = AveragerConfig(signal_len=1024, discard_len=2048, avg_count=64,
                         shift_bits=6)
    stream = _random_stream(rng, cfg.window_len)
    snap = select_and_average(stream, cfg)
    window = stream[cfg.discard_len:cfg.window_len]
    for comp in ("i", "q"):
        exact = window[comp].astype(np.int64).reshape(64, 1024).sum(axis=0)
        out = snap.data[comp].astype(np.int64)
        assert np.all(64 * out <= exact)
        assert np.all(64 * out > exact - 64 * 64)


def test_streaming_matches_batch_bit_for_bit():
    rng = np.random.default_rng(3)
    shapes = [
        dict(signal_len=64, discard_len=128, avg_count=8, shift_bits=3),
        dict(signal_len=64, discard_len=0, avg_count=1, shift_bits=0),
        dict(signal_len=64, discard_len=6, avg_count=2, shift_bits=1),
        dict(signal_len=10, discard_len=4, avg_count=3, shift_bits=2),
        dict(signal_len=128, discard_len=2, avg_count=16, shift_bits=4),
    ]
    for shape in shapes:
        cfg = AveragerConfig(**shape)
        stream = _random_stream(rng, cfg.window_len + 50)
        batch = select_and_average(stream, cfg)
        streamed = run_state_machine(stream, cfg)
        assert np.array_equal(batch.data, streamed.data), shape


def test_state_machine_phase_walk():
    # L=4, P=2, M=3: one discard word, IN, ADD_IN, ADD_OUT, then SKIP.
    cfg = AveragerConfig(signal_len=4, discard_len=2, avg_count=3, shift_bits=2)
    state = AveragerState(cfg)
    assert state.phase is Phase.DISCARD

    state, out = step_state_machine(state, ((8, -8), (4, 4)))
    assert state.phase is Phase.IN and out is None
    state, out = step_state_machine(state, ((12, -4), (16, 8)))
    assert out is None  # IN only stores
    state, out = step_state_machine(state, ((-8, 20), (5, 5)))
    assert state.phase is Phase.ADD_IN
    # Memory now holds the first signal shifted right by 2.
    assert state.memory[0] == ((3, -1), (4, 2))
    assert state.memory[1] == ((-2, 5), (1, 1))
    state, out = step_state_machine(state, ((20, 4), (8, -16)))
    assert out is None
    assert state.memory[0] == ((8, 0), (6, -2))
    state, out = step_state_machine(state, ((4, 4), (-4, -4)))
    assert state.phase is Phase.ADD_OUT
    assert state.memory[1] == ((-1, 6), (0, 0))
    state, out = step_state_machine(state, ((40, 0), (0, 40)))
    assert out == ((18, 0), (6, 8))  # memory plus the shifted last signal
    state, out = step_state_machine(state, ((-40, 8), (8, -40)))
    assert out == ((-11, 8), (2, -10))
    assert state.phase is Phase.SKIP
    state, out = step_state_machine(state, ((1, 1), (1, 1)))
    assert out is None  # SKIP absorbs everything


def test_m1_memory_bypass():
    # Degenerate single-signal case: ADD_OUT passes the shifted input.
    cfg = AveragerConfig(signal_len=4, discard_len=0, avg_count=1, shift_bits=1)
    state = AveragerState(cfg)
    assert state.phase is Phase.ADD_OUT
    state, out = step_state_machine(state, ((9, -9), (5, -5)))
    assert out == ((4, -5), (2, -3))


def test_m2_skips_add_in():
    cfg = AveragerConfig(signal_len=4, discard_len=0, avg_count=2, shift_bits=1)
    state = AveragerState(cfg)
    assert state.phase is Phase.IN
    state, _ = step_state_machine(state, ((2, 2), (4, 4)))
    state, _ = step_state_machine(state, ((6, 6), (8, 8)))
    assert state.phase is Phase.ADD_OUT


def test_truncated_stream_reports_need():
    cfg = AveragerConfig(signal_len=256, discard_len=64, avg_count=4, shift_bits=2)
    stream = np.zeros(cfg.window_len - 1, fp.SAMPLE_DTYPE)
    with pytest.raises(TruncatedStreamError, match="need 1088"):
        select_and_average(stream, cfg)
    with pytest.raises(TruncatedStreamError, match="snapshot 3"):
        select_and_average(stream, cfg, snapshot_index=3)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AveragerConfig(signal_len=7, discard_len=0, avg_count=1, shift_bits=0)
    with pytest.raises(ConfigurationError):
        AveragerConfig(signal_len=8, discard_len=3, avg_count=1, shift_bits=0)
    with pytest.raises(ConfigurationError):
        AveragerConfig(signal_len=8, discard_len=0, avg_count=0, shift_bits=0)
    with pytest.raises(ConfigurationError):
        AveragerConfig(signal_len=8, discard_len=0, avg_count=3, shift_bits=1)
    with pytest.raises(ConfigurationError):
        AveragerConfig(signal_len=8, discard_len=0, avg_count=1, shift_bits=16)
    with pytest.raises(ConfigurationError):
        AveragerConfig(signal_len=8, discard_len=0, avg_count=1, shift_bits=-1)


def _small_sounder_config():
    # 64-sample symbol, frame of 512 samples.
    return SounderConfig(
        signal_len=64, discard_len=128, avg_count=4, shift_bits=2,
        rep_period_s=512 * 2e-9, sample_period_s=2e-9,
        zc=ZcParams(51, 2), num_snapshots=1,
    )


def _average_frames(stream, cfg, count):
    # One trigger per frame: snapshot k averages the window at k * frame_len.
    acfg = cfg.averager_config()
    return [
        select_and_average(stream[k * cfg.frame_len:k * cfg.frame_len + acfg.window_len],
                           acfg, snapshot_index=k)
        for k in range(count)
    ]


def test_periodic_stream_gives_identical_snapshots():
    cfg = _small_sounder_config()
    rng = np.random.default_rng(4)
    frame = _random_stream(rng, cfg.frame_len)
    snaps = _average_frames(np.tile(frame, 3), cfg, 3)
    assert [s.snapshot_index for s in snaps] == [0, 1, 2]
    assert np.array_equal(snaps[0].data, snaps[1].data)
    assert np.array_equal(snaps[0].data, snaps[2].data)


def test_samples_outside_averaging_windows_never_reach_output():
    # Only [discard_len, window_len) of each trigger period is averaged,
    # which is what lets a campaign simulate the window alone.
    cfg = _small_sounder_config()
    rng = np.random.default_rng(5)
    stream = _random_stream(rng, 2 * cfg.frame_len)
    reference = [s.data.copy() for s in _average_frames(stream, cfg, 2)]
    window = cfg.discard_len + cfg.avg_count * cfg.signal_len
    corrupted = stream.copy()
    for k in (0, 1):
        corrupted[k * cfg.frame_len + window:(k + 1) * cfg.frame_len] = \
            fp.from_components(12345 % 32768, -11111)
        corrupted[k * cfg.frame_len:k * cfg.frame_len + cfg.discard_len] = \
            fp.from_components(31000, 31000)
    snaps = _average_frames(corrupted, cfg, 2)
    for ref, snap in zip(reference, snaps):
        assert np.array_equal(ref, snap.data)


def test_snapshot_budget_matches_frame():
    cfg = SounderConfig()
    window = cfg.discard_len + cfg.avg_count * cfg.signal_len
    assert cfg.discard_len + 64 * 1024 + cfg.skip_len == cfg.frame_len == 2_500_000
    assert window + cfg.skip_len == cfg.frame_len
