"""Campaign orchestration and the capture file format."""

import dataclasses
import hashlib
import json
import os
import struct
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from soundersim import campaign, fixedpoint
from soundersim.averager import Snapshot, select_and_average
from soundersim.campaign import (
    read_capture,
    report_reduction,
    run_campaign,
    snapshot_rng,
    storage_rate_bytes,
    write_capture,
)
from soundersim.channel import (
    ChannelModel,
    Interferer,
    add_interference_and_noise,
    apply_channel,
    convolve_taps,
)
from soundersim.config import SounderConfig
from soundersim.errors import CaptureFormatError, ConfigurationError, ValidationError
from soundersim.fixedpoint import quantize_clipped
from soundersim.sync import PpsSchedule
from soundersim.waveform import ZcParams, build_sounding_symbol, build_tx_frame

CREATED = "2026-03-01T12:00:00+00:00"


def _small_config(**overrides):
    # 512-sample frame at 512 kS/s: 1000 snapshots per second, so the
    # schedule is flank-independent and campaigns stay fast.
    params = dict(
        signal_len=64, discard_len=128, avg_count=4, shift_bits=2,
        rep_period_s=1e-3, sample_period_s=1.0 / 512_000,
        zc=ZcParams(51, 2), num_snapshots=3,
    )
    params.update(overrides)
    return SounderConfig(**params)


def _small_channel(**overrides):
    params = dict(
        taps=((5, 1.0), (30, 0.5j)),
        interferers=(Interferer(freq=0.013, amplitude=0.1, phase=0.4),),
        noise_std=0.0,
        seed=21,
    )
    params.update(overrides)
    return ChannelModel(**params)


_SMALL = _small_config()

#: A receiver offset at which the window starts in the frame's zero fill.
_ZERO_FILL_OFFSET = _SMALL.frame_len - _SMALL.averager_config().window_len + 5


@pytest.mark.parametrize("offset", [
    0,
    _SMALL.frame_len - 5,  # the delay line reaches back across the frame start
    _SMALL.discard_len - _SMALL.signal_len - 5,  # latest valid arrival; the window wraps
    _ZERO_FILL_OFFSET,
])
def test_campaign_matches_linear_simulation_bit_for_bit(offset):
    # The campaign simulates each snapshot from one channel pass over
    # the transmit samples its window depends on, gathered modulo the
    # frame.  Simulating the link the long way -- the transmitter
    # replaying the frame over a single continuous channel run -- must
    # give identical snapshots, including the interferer phase carried
    # across frame boundaries.  The tap at signal_len - 1 reaches
    # furthest back across the frame boundary.  The first arrival is 5,
    # so _ZERO_FILL_OFFSET puts it past the discard and is rejected.
    cfg = _small_config()
    model = _small_channel(taps=((5, 1.0), (30, 0.5j), (cfg.signal_len - 1, 0.25)))
    schedule = PpsSchedule(rep_period_s=cfg.rep_period_s,
                           sample_period_s=cfg.sample_period_s,
                           timing_error=offset)
    if offset == _ZERO_FILL_OFFSET:
        with pytest.raises(ValidationError, match="discard covers first arrival"):
            run_campaign(cfg, model, schedule, created=CREATED)
        return
    capture = run_campaign(cfg, model, schedule, created=CREATED)

    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    rx_frame = np.roll(build_tx_frame(wf, cfg), offset)
    long_stream = apply_channel(np.tile(rx_frame, cfg.num_snapshots), model,
                                start_index=0).samples
    acfg = cfg.averager_config()
    for k, row in enumerate(capture.snapshots):
        window = long_stream[k * cfg.frame_len:
                             k * cfg.frame_len + acfg.window_len]
        expected = select_and_average(window, acfg, snapshot_index=k)
        assert np.array_equal(row, expected.data), f"snapshot {k}"


_PIN_TAPS = {
    "small": ((5, 1.5), (30, 0.5j), (63, 0.25)),  # hot enough to clip
    "default": ((5, 0.8), (60, 0.4j), (170, -0.2 + 0.1j)),
}
_PIN_TONES = {"small": 0.013, "default": 0.0371}
_PIN_TIMING = {"small": _SMALL.frame_len - 5, "default": 7}


@pytest.mark.parametrize("size, kind, digest, clipped", [
    ("small", "noisy", "ace0abcd02537d7a9d914601663db97bf86239968d1a3fe9ecef3657a52a8a93", 4),
    ("small", "noiseless", "89c88f814fb7e2e6f9ad525d3251b4d63bc0ffad2201936418497079ee6be453", 3),
    ("small", "cable", "171d421d55e29561cb92802078cc0619333f4a6cf20663de2db3f75060b8516b", 0),
    ("default", "noisy", "36d748c686c3425746ecef840c60bfc00f11044cd2d77fea7e1cbe621453640b", 0),
    ("default", "noiseless", "c09819d0a9cf7408383702676a53bc3765b48f7cea50c3247d4ce0820d698463", 0),
    ("default", "cable", "8739c73c30b6e573f6d75279997108dccaf075dbe920782ea4cade32c39c83ff", 0),
])
def test_campaign_payload_sha256_pinned(tmp_path, size, kind, digest, clipped):
    # The payload bytes of noisy, noiseless and cable campaigns, taken
    # from the straightforward per-snapshot simulation: any refactor of
    # run_campaign must reproduce them.  The multipath cases carry an
    # interferer and a non-zero timing error.
    cfg = _small_config() if size == "small" else SounderConfig(num_snapshots=2)
    tone = (Interferer(freq=_PIN_TONES[size], amplitude=0.1, phase=0.4),)
    if kind == "cable":
        model, timing_error = ChannelModel(taps=((0, 1.0),), seed=21), 0
    else:
        noise_std = 0.05 if kind == "noisy" else 0.0
        model = ChannelModel(taps=_PIN_TAPS[size], noise_std=noise_std,
                             interferers=tone, seed=21)
        timing_error = _PIN_TIMING[size]
    schedule = PpsSchedule(rep_period_s=cfg.rep_period_s,
                           sample_period_s=cfg.sample_period_s,
                           timing_error=timing_error)
    capture = run_campaign(cfg, model, schedule, created=CREATED)
    path = tmp_path / "pinned.capture"
    write_capture(path, capture)
    raw = path.read_bytes()
    header_end = 10 + struct.unpack_from("<I", raw, 6)[0]
    assert len(raw) - header_end == capture.payload_bytes
    assert hashlib.sha256(raw[header_end:]).hexdigest() == digest
    assert capture.clipped_components == clipped


def test_noiseless_tone_free_snapshots_are_identical():
    cfg = _small_config()
    model = ChannelModel(taps=((5, 1.0), (30, 0.5j)))
    capture = run_campaign(cfg, model, created=CREATED)
    assert len(capture.snapshots) == 3
    assert np.array_equal(capture.snapshots[0], capture.snapshots[1])
    assert np.array_equal(capture.snapshots[0], capture.snapshots[2])


def _per_snapshot_reference(cfg, model):
    """Each snapshot simulated on its own from the full transmit frame."""
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    frame = build_tx_frame(wf, cfg)
    tail = model.max_delay
    window_len = cfg.averager_config().window_len
    segment = frame[np.arange(-tail, window_len) % cfg.frame_len]
    data, clipped = [], 0
    for k in range(cfg.num_snapshots):
        result = apply_channel(segment, model, start_index=k * cfg.frame_len - tail,
                               rng=snapshot_rng(model.seed, k))
        clipped += result.clipped_components
        stream = result.samples[tail:tail + window_len]
        data.append(select_and_average(stream, cfg.averager_config()).data)
    return data, clipped


def test_static_channel_is_simulated_once(monkeypatch):
    # No noise and no interferer: nothing depends on the snapshot index,
    # so one snapshot is averaged and the rest copy it.  Its window
    # repeats one symbol period of the tap sum, so only that period and
    # the two edges around it are quantized, never the whole segment.
    cfg = _small_config(num_snapshots=4)
    model = ChannelModel(taps=((0, 2.5), (3, 0.2)))  # clips
    sizes, averaged = [], []

    def counted(calls, fn):
        def wrapper(values, *args, **kwargs):
            calls.append(np.size(values))
            return fn(values, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(fixedpoint, "quantize_clipped",
                        counted(sizes, fixedpoint.quantize_clipped))
    monkeypatch.setattr(campaign, "quantize_clipped",
                        counted(sizes, campaign.quantize_clipped))
    monkeypatch.setattr(campaign, "select_and_average",
                        counted(averaged, campaign.select_and_average))
    capture = run_campaign(cfg, model, created=CREATED)
    assert sizes and max(sizes) <= cfg.signal_len + 2 * model.max_delay
    assert len(averaged) == 1
    monkeypatch.undo()

    data, clipped = _per_snapshot_reference(cfg, model)
    assert clipped > 0
    assert capture.clipped_components == clipped
    assert capture.snapshots.shape == (4, cfg.signal_len)
    assert capture.snapshots.flags.c_contiguous
    for row, expected in zip(capture.snapshots, data, strict=True):
        assert np.array_equal(row, expected)
    # Each snapshot owns its samples: writing one leaves the others alone.
    capture.snapshots[0]["i"] += 1
    for row in capture.snapshots[1:]:
        assert np.array_equal(row, data[0])

    empty = run_campaign(_small_config(num_snapshots=0), model, created=CREATED)
    assert empty.snapshots.shape == (0, cfg.signal_len)
    assert empty.clipped_components == 0


@pytest.mark.parametrize("model, convolved, quantized", [
    # A cable at offset 0 has no head, no tail and no partial period: one
    # piece is gathered, convolved and quantized.
    (ChannelModel(taps=((0, 1.0),)), 1, 1),
    # A 3-tap channel's head and period are convolved together and its tail
    # on its own; the noisy workers quantize in place.
    (ChannelModel(taps=((5, 0.8), (60, 0.4j), (170, -0.2 + 0.1j)), noise_std=0.02,
                  interferers=(Interferer(freq=0.0371, amplitude=0.05),), seed=3), 2, 0),
], ids=["cable", "noisy"])
def test_a_campaign_convolves_and_quantizes_only_pieces_that_hold_samples(
        monkeypatch, model, convolved, quantized):
    calls = {"convolve_taps": 0, "quantize_clipped": 0}

    def counted(name):
        fn = getattr(campaign, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(campaign, name, counted(name))
    run_campaign(SounderConfig(num_snapshots=2), model, created=CREATED)
    assert calls == {"convolve_taps": convolved, "quantize_clipped": quantized}


@pytest.mark.parametrize("model, budget_kib", [
    (ChannelModel(taps=((0, 1.0),)), 456),
    (ChannelModel(taps=((5, 0.8), (60, 0.4j), (170, -0.2 + 0.1j)), noise_std=0.02,
                  interferers=(Interferer(freq=0.0371, amplitude=0.05),), seed=3), 2212),
], ids=["cable", "noisy"])
def test_default_campaign_never_builds_the_frame(monkeypatch, model, budget_kib):
    # The default transmit frame is 2.5 M samples of 4 bytes, 10 MB on
    # its own; a campaign needs only the window's segment of it, and a
    # static one only one symbol period of that segment's tap sum.  The
    # budgets are 1.25 x the traced peaks measured with numpy 2.4 on one
    # worker: 365 KiB static and 1770 KiB noisy, whose worker holds one
    # window-sized complex128 buffer (1.04 MiB).  Another such buffer,
    # shared or not, or a float copy of the segment breaks them.
    monkeypatch.setattr(campaign, "_usable_cores", lambda: 1)
    cfg = SounderConfig(num_snapshots=2)
    run_campaign(cfg, model, created=CREATED)  # fills the symbol and tone caches
    tracemalloc.start()
    try:
        run_campaign(cfg, model, created=CREATED)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget_kib * 1024


def test_noisy_campaign_memory_grows_by_one_row_per_snapshot(monkeypatch):
    # A worker's buffers are allocated once per campaign, so the traced
    # peak grows only by the capture's own rows: at most 1.25 x one
    # 4 KiB row per extra snapshot, measured at N = 2 and N = 64 on one
    # worker (2025 and 2273 KiB with numpy 2.4).
    monkeypatch.setattr(campaign, "_usable_cores", lambda: 1)
    model = ChannelModel(taps=((5, 0.8), (60, 0.4j), (170, -0.2 + 0.1j)), noise_std=0.02,
                         interferers=(Interferer(freq=0.0371, amplitude=0.05),), seed=3)
    run_campaign(SounderConfig(), model, created=CREATED)  # fills the symbol and tone caches
    peaks = []
    for num_snapshots in (2, 64):
        tracemalloc.start()
        try:
            run_campaign(SounderConfig(num_snapshots=num_snapshots), model, created=CREATED)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    row = SounderConfig().signal_len * fixedpoint.SAMPLE_DTYPE.itemsize
    assert peaks[1] - peaks[0] <= 1.25 * 62 * row


def test_asynchronous_tone_makes_snapshots_differ():
    cfg = _small_config()
    capture = run_campaign(cfg, _small_channel(), created=CREATED)
    assert not np.array_equal(capture.snapshots[0], capture.snapshots[1])


def test_timing_error_shifts_the_received_frame():
    cfg = _small_config(num_snapshots=1)
    model = ChannelModel(taps=((0, 1.0),))
    shift = 9
    schedule = PpsSchedule(rep_period_s=cfg.rep_period_s,
                           sample_period_s=cfg.sample_period_s,
                           timing_error=shift)
    capture = run_campaign(cfg, model, schedule, created=CREATED)

    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    frame = build_tx_frame(wf, cfg)
    expected = select_and_average(np.roll(frame, shift), cfg.averager_config())
    assert np.array_equal(capture.snapshots[0], expected.data)


@pytest.mark.parametrize("timing_error", [-1, -5, 2_432_421])
def test_early_arrival_that_outruns_the_train_is_rejected(timing_error):
    # The default train is exactly discard + avg_count symbols long, so
    # a signal arriving early (2,432,421 is 67,579 samples early modulo
    # the frame) makes the last averaged symbol read the zero fill.
    cfg = SounderConfig()
    schedule = PpsSchedule(rep_period_s=cfg.rep_period_s,
                           sample_period_s=cfg.sample_period_s,
                           timing_error=timing_error)
    with pytest.raises(ValidationError, match="FAIL transmit train covers"):
        run_campaign(cfg, ChannelModel(taps=((0, 1.0),)), schedule,
                     created=CREATED)


def test_start_flanks_do_not_change_the_capture(tmp_path):
    cfg = _small_config()
    model = _small_channel()
    base = run_campaign(cfg, model, created=CREATED)
    write_capture(tmp_path / "base.capture", base)
    moved = run_campaign(
        cfg, model,
        PpsSchedule(rep_period_s=cfg.rep_period_s,
                    sample_period_s=cfg.sample_period_s,
                    tx_start_flank=2, rx_start_flank=7),
        created=CREATED,
    )
    write_capture(tmp_path / "moved.capture", moved)
    assert np.array_equal(base.snapshots, moved.snapshots)
    # The files are byte-identical: the schedule leaves no trace.
    assert (tmp_path / "base.capture").read_bytes() == \
        (tmp_path / "moved.capture").read_bytes()


def test_noise_streams_are_per_snapshot_and_reproducible():
    a = snapshot_rng(21, 0).standard_normal(8)
    b = snapshot_rng(21, 0).standard_normal(8)
    c = snapshot_rng(21, 1).standard_normal(8)
    d = snapshot_rng(22, 0).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_noisy_campaign_is_deterministic():
    cfg = _small_config()
    model = _small_channel(noise_std=0.05)
    one = run_campaign(cfg, model, created=CREATED)
    two = run_campaign(cfg, model, created=CREATED)
    assert np.array_equal(one.snapshots, two.snapshots)
    assert one.clipped_components == two.clipped_components


@pytest.mark.parametrize("num_snapshots", [0, 1, 2, 5])
def test_capture_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch,
                                                         num_snapshots):
    # A noisy campaign simulates snapshot k on worker k mod W, with the
    # noise stream of snapshot k, so its bytes and its clip count must be
    # the same on any number of cores.  The first tap clips in every snapshot.
    cfg = _small_config(num_snapshots=num_snapshots)
    model = _small_channel(taps=((5, 1.9), (30, 0.5j), (63, 0.25)), noise_std=0.05)
    average = campaign.select_and_average
    files, clipped = set(), set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the interpreter lock over as often as it can
    try:
        for workers in (1, 2, 3, 8):
            seen = set()  # the Thread objects themselves, so none is reused
            averaged = {}  # snapshot index: its averager output

            def tracked(*args, **kwargs):
                seen.add(threading.current_thread())
                snap = average(*args, **kwargs)
                averaged[kwargs["snapshot_index"]] = snap.data.copy()
                return snap

            monkeypatch.setattr(campaign, "_usable_cores", lambda: workers)
            monkeypatch.setattr(campaign, "select_and_average", tracked)
            capture = run_campaign(cfg, model, created=CREATED)
            assert len(seen) == min(workers, num_snapshots)
            # Row k holds what the averager returned for snapshot k.
            assert sorted(averaged) == list(range(num_snapshots))
            for k, row in enumerate(capture.snapshots):
                assert np.array_equal(row, averaged[k])
            path = tmp_path / f"{workers}.capture"
            write_capture(path, capture)
            files.add(path.read_bytes())
            clipped.add(capture.clipped_components)
    finally:
        sys.setswitchinterval(interval)
    assert len(files) == 1 and len(clipped) == 1
    assert (clipped.pop() > 0) == (num_snapshots > 0)


@pytest.mark.parametrize("failing", [0, 2, 4])
def test_a_failing_worker_is_raised_after_every_thread_is_joined(monkeypatch, failing):
    # Three workers over five snapshots: snapshot 0 is the first of worker
    # 0, 2 the only one of worker 2 and 4 the last of worker 1.  The
    # worker that quantizes the failing snapshot raises; run_campaign
    # must raise that exception and leave no thread behind.
    current = threading.local()
    rng, quantize = campaign.snapshot_rng, campaign.quantize_in_place

    def indexed_rng(seed, k):
        current.k = k
        return rng(seed, k)

    def quantize_or_fail(values, out):
        if current.k == failing:
            raise ArithmeticError(f"quantizer failed on snapshot {failing}")
        return quantize(values, out)

    monkeypatch.setattr(campaign, "_usable_cores", lambda: 3)
    monkeypatch.setattr(campaign, "snapshot_rng", indexed_rng)
    monkeypatch.setattr(campaign, "quantize_in_place", quantize_or_fail)
    before = threading.active_count()
    with pytest.raises(ArithmeticError, match=f"snapshot {failing}$"):
        run_campaign(_small_config(num_snapshots=5), _small_channel(noise_std=0.05),
                     created=CREATED)
    assert threading.active_count() == before


def test_a_failing_worker_stops_the_others(monkeypatch):
    # Two workers over 40 snapshots.  Worker 1 holds its first snapshot
    # until worker 0 fails on snapshot 0, then must give up instead of
    # simulating its other 19 snapshots.
    current, failed, quantized = threading.local(), threading.Event(), []
    rng, quantize = campaign.snapshot_rng, campaign.quantize_in_place

    def indexed_rng(seed, k):
        current.k = k
        return rng(seed, k)

    def quantize_or_fail(values, out):
        if current.k == 0:
            failed.set()
            raise ArithmeticError("quantizer failed on snapshot 0")
        failed.wait(timeout=10)
        quantized.append(current.k)
        return quantize(values, out)

    monkeypatch.setattr(campaign, "_usable_cores", lambda: 2)
    monkeypatch.setattr(campaign, "snapshot_rng", indexed_rng)
    monkeypatch.setattr(campaign, "quantize_in_place", quantize_or_fail)
    with pytest.raises(ArithmeticError, match="snapshot 0$"):
        run_campaign(_small_config(num_snapshots=40), _small_channel(noise_std=0.05),
                     created=CREATED)
    assert failed.is_set() and len(quantized) < 20, quantized


def test_a_thread_that_cannot_start_is_raised_after_the_others_stop(monkeypatch):
    # The system refuses worker 1's thread: worker 0, already running,
    # must stop and be joined before the refusal reaches the caller.
    started = []

    class Thread(threading.Thread):
        def start(self):
            if started:
                raise RuntimeError("can't start new thread")
            started.append(self)
            super().start()

    monkeypatch.setattr(campaign.threading, "Thread", Thread)
    monkeypatch.setattr(campaign, "_usable_cores", lambda: 2)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        run_campaign(_small_config(num_snapshots=40), _small_channel(noise_std=0.05),
                     created=CREATED)
    assert len(started) == 1 and not started[0].is_alive()


def test_validation_failure_blocks_campaign():
    cfg = _small_config()
    model = ChannelModel(taps=((0, 1.0), (64, 0.5)))  # span == signal_len
    with pytest.raises(ValidationError, match="delay spread"):
        run_campaign(cfg, model, created=CREATED)


def test_schedule_config_mismatch_is_rejected():
    cfg = _small_config()
    schedule = PpsSchedule(rep_period_s=2e-3, sample_period_s=1.0 / 512_000)
    with pytest.raises(ValidationError, match="disagree"):
        run_campaign(cfg, ChannelModel(taps=((0, 1.0),)), schedule,
                     created=CREATED)


def test_saturation_is_counted_across_snapshots():
    # clipped_components counts the propagated segment of each snapshot:
    # its window plus max_delay samples either side.  The oracle is the
    # long stream, led by one extra frame so snapshot 0 has a history.
    cfg = _small_config()
    model = _small_channel(taps=((0, 2.5), (3, 0.2)))
    capture = run_campaign(cfg, model, created=CREATED)

    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    frame = build_tx_frame(wf, cfg)
    stream = np.tile(frame, cfg.num_snapshots + 1)
    received = add_interference_and_noise(convolve_taps(stream, model), model,
                                          start_index=-cfg.frame_len)
    tail = model.max_delay
    window_len = cfg.averager_config().window_len
    expected = 0
    for k in range(cfg.num_snapshots):
        start = (k + 1) * cfg.frame_len - tail
        expected += quantize_clipped(received[start:start + window_len + 2 * tail])[1]
    assert expected > 0
    assert capture.clipped_components == expected


def test_reduction_and_storage_rate():
    table = SounderConfig()
    assert report_reduction(table) == 2441.40625
    assert storage_rate_bytes(table) == 819_200.0
    # No skip region: every input sample is represented in the output.
    unity = SounderConfig(
        signal_len=1024, discard_len=0, avg_count=1, shift_bits=0,
        rep_period_s=1024 * 2e-9,
    )
    assert report_reduction(unity) == 1.0
    # Doubling the repetition period doubles the reduction, halves the rate.
    slower = SounderConfig(rep_period_s=1e-2)
    assert report_reduction(slower) == 2 * report_reduction(table)
    assert storage_rate_bytes(slower) == storage_rate_bytes(table) / 2


def test_payload_bytes():
    cfg = SounderConfig(num_snapshots=10)
    model = ChannelModel(taps=((0, 1.0),))
    capture = run_campaign(cfg, model, created=CREATED)
    assert capture.payload_bytes == 10 * 1024 * 4


def test_capture_file_round_trip(tmp_path):
    cfg = _small_config()
    model = _small_channel(noise_std=0.02)
    capture = run_campaign(cfg, model, created=CREATED)
    path = tmp_path / "run.capture"
    write_capture(path, capture)
    back = read_capture(path)
    assert back.config == cfg
    assert back.channel_digest == capture.channel_digest
    assert back.prng == "pcg64-window"
    assert back.seed == 21
    assert back.created == CREATED
    assert back.clipped_components == capture.clipped_components
    assert back.snapshots.shape == capture.snapshots.shape == (3, cfg.signal_len)
    assert np.array_equal(back.snapshots, capture.snapshots)
    assert back.snapshots.flags.writeable and back.snapshots.flags.c_contiguous


@pytest.mark.parametrize("num_snapshots", [0, 3])
@pytest.mark.parametrize("form", ["block", "rows", "snapshots"])
def test_capture_holds_one_block_whichever_form_it_is_given(tmp_path, form, num_snapshots):
    # At 0 snapshots the rows and the snapshots are each an empty list.
    cfg = _small_config(num_snapshots=num_snapshots)
    made = run_campaign(cfg, _small_channel(noise_std=0.02), created=CREATED)
    write_capture(tmp_path / "made.capture", made)
    block = np.asfortranarray(made.snapshots)  # rows that are not contiguous
    acfg = cfg.averager_config()
    given = {"block": block, "rows": list(block),
             "snapshots": [Snapshot(row, k, acfg) for k, row in enumerate(block)]}[form]
    capture = dataclasses.replace(made, snapshots=given)
    assert isinstance(capture.snapshots, np.ndarray)
    assert capture.snapshots.shape == (num_snapshots, cfg.signal_len)
    assert capture.snapshots.dtype == fixedpoint.SAMPLE_DTYPE
    assert capture.snapshots.flags.c_contiguous
    write_capture(tmp_path / "given.capture", capture)
    assert (tmp_path / "given.capture").read_bytes() == \
        (tmp_path / "made.capture").read_bytes()


def test_capture_must_hold_num_snapshots(tmp_path):
    # The header's config could otherwise contradict the payload it describes.
    capture = run_campaign(_small_config(), _small_channel(), created=CREATED)
    path = tmp_path / "short.capture"
    with pytest.raises(ConfigurationError, match="num_snapshots 3 does not match the 2"):
        write_capture(path, dataclasses.replace(capture, snapshots=capture.snapshots[:-1]))
    assert not path.exists()


def test_capture_bytes_are_reproducible(tmp_path):
    cfg = _small_config()
    model = _small_channel(noise_std=0.02)
    for name in ("a.capture", "b.capture"):
        write_capture(tmp_path / name,
                      run_campaign(cfg, model, created=CREATED))
    assert (tmp_path / "a.capture").read_bytes() == \
        (tmp_path / "b.capture").read_bytes()


def test_source_date_epoch_pins_the_timestamp(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    cfg = _small_config(num_snapshots=1)
    capture = run_campaign(cfg, ChannelModel(taps=((0, 1.0),)))
    assert capture.created == "2023-11-14T22:13:20+00:00"
    # An explicit timestamp still wins.
    pinned = run_campaign(cfg, ChannelModel(taps=((0, 1.0),)),
                          created=CREATED)
    assert pinned.created == CREATED


@pytest.mark.parametrize("model", [ChannelModel(taps=((0, 1.0),)),
                                   _small_channel(noise_std=0.02)],
                         ids=["static", "noisy"])
def test_malformed_source_date_epoch_fails_before_simulating(monkeypatch, model):
    def simulated(*args, **kwargs):
        raise AssertionError("the channel ran before the timestamp was resolved")

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
    monkeypatch.setattr(campaign, "convolve_taps", simulated)  # both branches' first step
    with pytest.raises(ConfigurationError, match="SOURCE_DATE_EPOCH"):
        run_campaign(_small_config(), model)


def _write_valid_capture(tmp_path):
    cfg = _small_config(num_snapshots=2)
    capture = run_campaign(cfg, ChannelModel(taps=((0, 1.0),)),
                           created=CREATED)
    path = tmp_path / "valid.capture"
    write_capture(path, capture)
    return path, path.read_bytes()


def test_read_rejects_bad_magic(tmp_path):
    path, raw = _write_valid_capture(tmp_path)
    path.write_bytes(b"XSND" + raw[4:])
    with pytest.raises(CaptureFormatError, match="magic"):
        read_capture(path)


def test_read_rejects_unknown_version(tmp_path):
    path, raw = _write_valid_capture(tmp_path)
    path.write_bytes(raw[:4] + struct.pack("<H", 2) + raw[6:])
    with pytest.raises(CaptureFormatError, match="version 2"):
        read_capture(path)


def test_read_rejects_short_file(tmp_path):
    path, raw = _write_valid_capture(tmp_path)
    path.write_bytes(raw[:6])
    with pytest.raises(CaptureFormatError, match="too short"):
        read_capture(path)


def test_read_rejects_truncated_header(tmp_path):
    path, raw = _write_valid_capture(tmp_path)
    path.write_bytes(raw[:20])
    with pytest.raises(CaptureFormatError, match="header"):
        read_capture(path)


def test_read_rejects_malformed_header_json(tmp_path):
    path = tmp_path / "bad.capture"
    header = b"not json at all!"
    path.write_bytes(struct.pack("<4sHI", b"CSND", 1, len(header)) + header)
    with pytest.raises(CaptureFormatError, match="malformed"):
        read_capture(path)


def test_read_rejects_missing_header_fields(tmp_path):
    path = tmp_path / "bad.capture"
    header = b'{"format": "CSND"}'
    path.write_bytes(struct.pack("<4sHI", b"CSND", 1, len(header)) + header)
    with pytest.raises(CaptureFormatError, match="missing"):
        read_capture(path)


def test_read_rejects_payload_size_mismatch(tmp_path):
    path, raw = _write_valid_capture(tmp_path)
    path.write_bytes(raw[:-4])
    with pytest.raises(CaptureFormatError, match="payload"):
        read_capture(path)
    path.write_bytes(raw + b"\x00\x00\x00\x00")
    with pytest.raises(CaptureFormatError, match="payload"):
        read_capture(path)


def _write_counting_capture(path, count):
    """A capture of ``count`` default-config snapshots whose samples, read as
    32-bit words, count up from 0."""
    cfg = SounderConfig(num_snapshots=count)
    words = np.arange(count * cfg.signal_len, dtype="<u4").reshape(count, cfg.signal_len)
    write_capture(path, campaign.Capture(
        config=cfg, channel_digest="0" * 64, prng="pcg64", seed=count, created=CREATED,
        clipped_components=0, snapshots=words.view(fixedpoint.SAMPLE_DTYPE)))
    return words


def test_read_capture_reads_a_pipe(tmp_path):
    # A pipe has no size to read ahead of its bytes (fstat says 0), and
    # cannot be mapped: it is read into one buffer, which the snapshots
    # view, within 1.25 x the file (1.11 x measured with numpy 2.4).
    path = tmp_path / "run.capture"
    words = _write_counting_capture(path, 256)
    raw = path.read_bytes()
    fifo = tmp_path / "capture.fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(raw,))
    writer.start()
    tracemalloc.start()
    try:
        got = read_capture(fifo)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        writer.join()
    assert np.array_equal(got.snapshots.view("<u4"), words)
    assert got.snapshots.flags.writeable
    assert peak <= 1.25 * len(raw)


@pytest.mark.parametrize("count", [16, 256, 1024, 4096])
def test_read_capture_holds_the_file_once(tmp_path, count):
    # A regular file is held once, by the map of its payload: only the
    # prologue and the header are read, so the traced peak stays under
    # 64 KiB at any length (about 11 KiB measured with numpy 2.4).
    words = _write_counting_capture(tmp_path / "run.capture", count)
    read_capture(tmp_path / "run.capture")
    tracemalloc.start()
    try:
        capture = read_capture(tmp_path / "run.capture")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(capture.snapshots.view("<u4"), words)
    assert peak <= 64 * 1024


def test_mapped_snapshots_are_copy_on_write(tmp_path):
    path = tmp_path / "run.capture"
    words = _write_counting_capture(path, 16)
    raw = path.read_bytes()
    capture = read_capture(path)
    assert type(capture.snapshots) is np.ndarray
    capture.snapshots[3, 5] = (7, -7)
    capture.snapshots[-1] = capture.snapshots[3]
    assert tuple(capture.snapshots[-1, 5]) == (7, -7)
    assert path.read_bytes() == raw
    assert np.array_equal(read_capture(path).snapshots.view("<u4"), words)


@pytest.mark.parametrize("created", [CREATED, "2026-03-01T12:00:00Z",
                                     "2026-03-01T12:00:00.500+01:00"])
def test_write_capture_over_the_file_its_payload_maps(tmp_path, created):
    # Truncating the file first would unmap the payload it writes (SIGBUS),
    # so it is copied to memory: the bytes are those of the same capture
    # written from memory, and byte-identical when nothing changes.
    path = tmp_path / "run.capture"
    write_capture(path, run_campaign(_small_config(num_snapshots=5),
                                     _small_channel(noise_std=0.05), created=CREATED))
    original = path.read_bytes()
    capture = dataclasses.replace(read_capture(path), created=created)
    write_capture(tmp_path / "expected.capture", capture)
    assert ((tmp_path / "expected.capture").read_bytes() == original) == (created == CREATED)
    snapshots = np.array(capture.snapshots)
    os.link(path, tmp_path / "hard.capture")
    for target in (path, tmp_path / "hard.capture"):
        mapped = dataclasses.replace(read_capture(path), created=created)
        write_capture(target, mapped)
        assert target.read_bytes() == (tmp_path / "expected.capture").read_bytes()
        assert mapped.snapshots.base is None  # it keeps the copy, as the map has moved
        assert np.array_equal(mapped.snapshots, snapshots)


def test_write_capture_of_a_payload_in_memory_checks_no_file(tmp_path, monkeypatch):
    # Campaigns write captures in their timed loops: no file is compared
    # unless the payload is mapped.
    def no_check(*paths):
        raise AssertionError(f"compared {paths}")
    capture = run_campaign(_small_config(), _small_channel(noise_std=0.05), created=CREATED)
    write_capture(tmp_path / "run.capture", capture)
    other = dataclasses.replace(capture, snapshots=np.concatenate([capture.snapshots] * 2)[:3])
    monkeypatch.setattr(campaign, "_same_file", no_check)
    write_capture(tmp_path / "run.capture", capture)
    write_capture(tmp_path / "other.capture", other)
    assert (tmp_path / "run.capture").read_bytes() == (tmp_path / "other.capture").read_bytes()


_RAGGED = r"snapshots must form one \(2, 64\) block: .* inhomogeneous shape"
_GOT = r"snapshots must form one \(2, 64\) \[.*\] block, got "


@pytest.mark.parametrize("field, value, message", [
    ("snapshots", "short", _RAGGED),
    ("snapshots", "complex128", _GOT + r"\(2, 64\) object$"),
    ("snapshots", "2-D", _RAGGED),
    ("snapshots", "ragged", _RAGGED),
    ("snapshots", "int16", _GOT + r"\(2, 64\) int16$"),
    ("snapshots", "block-per-snapshot", _GOT + r"\(2, 2, 64\) \[\('i', '<i2'\), .*\]$"),
    ("snapshots", "empty", r"config num_snapshots 2 does not match the 0 snapshots held$"),
    ("seed", -1, r"seed must be in \[0, 18446744073709551616\), got -1$"),
    ("seed", 2**64, r"seed must be in \[0, 18446744073709551616\), got 18446744073709551616$"),
    ("clipped_components", -3, r"clipped_components must be in \[0, inf\), got -3$"),
], ids=["short-row", "complex128-row", "2d-row", "ragged-rows", "int16-rows",
        "snapshot-holding-the-block", "empty-list", "negative-seed", "seed-2**64",
        "negative-clip-count"])
def test_capture_rejects_what_read_capture_rejects(tmp_path, field, value, message):
    # write_capture must not write a file that read_capture then rejects.
    path, raw = _write_valid_capture(tmp_path)
    valid = read_capture(path)
    if field == "snapshots":
        block, acfg = valid.snapshots, valid.config.averager_config()
        row = block[1]
        bad = {"short": row[:-1], "complex128": row["i"] + 1j * row["q"],
               "2-D": row[np.newaxis]}
        if value in bad:  # snapshot 1 short, complex128 or two-dimensional
            value = [Snapshot(block[0], 0, acfg), Snapshot(bad[value], 1, acfg)]
        else:  # rows of two lengths, plain int16 rows, the block as each snapshot
            value = {"ragged": [block[0], row[:-2]], "int16": [r["i"] for r in block],
                     "block-per-snapshot": [Snapshot(block, k, acfg) for k in range(2)],
                     "empty": []}[value]
    with pytest.raises(ConfigurationError, match=message):
        dataclasses.replace(valid, **{field: value})
    if field != "snapshots":  # the reader says the same of such a header
        header_len = struct.unpack_from("<I", raw, 6)[0]
        header = json.loads(raw[10:10 + header_len])
        header[field] = value
        encoded = json.dumps(header).encode("utf-8")
        path.write_bytes(struct.pack("<4sHI", b"CSND", 1, len(encoded)) + encoded
                         + raw[10 + header_len:])
        with pytest.raises(CaptureFormatError, match="capture header " + message):
            read_capture(path)


def test_header_is_sorted_json_with_spec_fields(tmp_path):
    path, raw = _write_valid_capture(tmp_path)
    header_len = struct.unpack_from("<I", raw, 6)[0]
    header = json.loads(raw[10:10 + header_len].decode("utf-8"))
    assert list(header.keys()) == sorted(header.keys())
    assert set(header.keys()) == {
        "format", "version", "config", "channel_digest", "prng", "seed",
        "created", "clipped_components", "dc_bin_included", "snapshot_count",
    }
    assert header["format"] == "CSND"
    assert header["version"] == 1
    assert header["dc_bin_included"] is True
    assert header["snapshot_count"] == 2


@pytest.mark.parametrize("zc", [ZcParams(1, 1), ZcParams(2, 1), ZcParams(50, 3)])
def test_header_includes_the_dc_bin_for_any_sequence(tmp_path, zc):
    # occupied_bins centres every sequence on DC, so the flag is true for
    # any valid configuration, not only the default one.
    path = tmp_path / "c.capture"
    cfg = _small_config(zc=zc, num_snapshots=1)
    write_capture(path, run_campaign(cfg, ChannelModel(taps=((0, 1.0),)), created=CREATED))
    raw = path.read_bytes()
    header = json.loads(raw[10:10 + struct.unpack_from("<I", raw, 6)[0]])
    assert header["dc_bin_included"] is True
