"""Acceptance gate: ten end-to-end checks of the simulator.

Each test prints one ``[PASS]``/``[FAIL]`` line (run with ``pytest -s``
to see them all) and then asserts, so a red test always names its
criterion and the measured numbers.
"""

import numpy as np

from soundersim.averager import Snapshot, run_state_machine, select_and_average
from soundersim.campaign import (
    run_campaign,
    storage_rate_bytes,
    write_capture,
)
from soundersim.channel import ChannelModel, Interferer, validate_config
from soundersim.config import SounderConfig
from soundersim.estimator import (
    averaging_suppression,
    estimate_response,
    read_tap_gains,
    rescale_snapshot,
    to_cir,
)
from soundersim.fixedpoint import from_components
from soundersim.sync import PpsSchedule
from soundersim.waveform import ZcParams, build_sounding_symbol, build_tx_frame

CREATED = "2026-01-15T00:00:00+00:00"


def _report(num: int, text: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_sample_budget_identity():
    cfg = SounderConfig()
    skip = cfg.skip_len
    total = cfg.discard_len + cfg.avg_count * cfg.signal_len + skip
    ok = (skip == 2_432_416 and total == 2_500_000
          and cfg.frame_len == 2_500_000)
    _report(1, f"skip region {skip} samples, P + M*L + skip = {total}", ok)


def test_criterion_02_frame_structure():
    cfg = SounderConfig()
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    frame = build_tx_frame(wf, cfg)
    reps = cfg.train_repetitions
    symbol = frame[:1024]
    train_is_tiled = np.array_equal(frame[: reps * 1024],
                                    np.tile(symbol, reps))
    tail = frame[reps * 1024:]
    tail_zeros = int(np.count_nonzero((tail["i"] == 0) & (tail["q"] == 0)))
    ok = (reps == 66 and train_is_tiled and tail_zeros == len(tail) == 2_432_416
          and np.count_nonzero(symbol["i"]) > 0)
    _report(2, f"{reps} symbol repetitions then {tail_zeros} zero samples", ok)


def test_criterion_03_storage_rate():
    rate = storage_rate_bytes(SounderConfig())
    ok = rate == 819_200.0 and 0.5e6 <= rate <= 1.25e6
    _report(3, f"snapshot storage rate {rate:.0f} B/s (about 1 MB/s)", ok)


def test_criterion_04_fixed_point_oracle_and_state_machine():
    cfg = SounderConfig().averager_config()
    rng = np.random.default_rng(2026)
    streams = 16
    total = streams * cfg.window_len
    bound_ok = True
    stream_ok = True
    for _ in range(streams):
        stream = from_components(
            rng.integers(-32768, 32768, cfg.window_len),
            rng.integers(-32768, 32768, cfg.window_len),
        )
        batch = select_and_average(stream.copy(), cfg)  # consumes its window
        window = stream[cfg.discard_len:cfg.window_len]
        for comp in ("i", "q"):
            exact = window[comp].astype(np.int64).reshape(64, 1024).sum(axis=0)
            out = batch.data[comp].astype(np.int64)
            # exact/2**6 - 64 < out <= exact/2**6, in exact integers
            bound_ok &= bool(np.all(64 * out <= exact))
            bound_ok &= bool(np.all(64 * out > exact - 64 * 64))
        streamed = run_state_machine(stream, cfg)
        stream_ok &= bool(np.array_equal(batch.data, streamed.data))
    ok = bound_ok and stream_ok and total >= 1_000_000
    _report(4, f"{total} random samples: wide-integer bound "
               f"{'held' if bound_ok else 'VIOLATED'}, state machine "
               f"{'bit-exact' if stream_ok else 'DIVERGED'}", ok)


def _pdp_noise_floor_db(cfg, model, snapshots):
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    capture = run_campaign(cfg, model, created=CREATED)
    acfg = cfg.averager_config()
    floors = []
    for k, row in enumerate(capture.snapshots):
        cir = to_cir(estimate_response(Snapshot(row, k, acfg), wf))
        floors.append(10.0 * np.log10(np.median(np.abs(cir) ** 2)))
    assert len(floors) == snapshots
    return float(np.mean(floors))


def test_criterion_05_averaging_snr_gain():
    # AWGN-only link (gain-zero tap): the 64-fold average must push the
    # PDP noise floor down by 10*log10(64) = 18.06 dB relative to M = 1.
    runs = 100
    noise = ChannelModel(taps=((0, 0.0),), noise_std=0.1, seed=505)
    averaged = SounderConfig(rep_period_s=2e-4, num_snapshots=runs)
    single = SounderConfig(avg_count=1, shift_bits=0, rep_period_s=1e-5,
                           num_snapshots=runs)
    floor_avg = _pdp_noise_floor_db(averaged, noise, runs)
    floor_one = _pdp_noise_floor_db(single, noise, runs)
    gain = floor_one - floor_avg
    ok = abs(gain - 18.06) <= 1.0
    _report(5, f"noise floor gain {gain:.2f} dB over {runs} runs "
               f"(expected 18.06 +/- 1)", ok)


def test_criterion_06_interference_suppression():
    # A continuous tone at nu cycles/sample is attenuated by the
    # periodic-sinc factor |sin(pi nu L M) / (M sin(pi nu L))|.  The
    # offsets (in DFT bins) span barely-suppressed to ~-35 dB; measured
    # by coherently correlating the averaged symbols with the tone.
    cfg = SounderConfig(rep_period_s=2e-4, num_snapshots=4)
    frame_len, acfg = cfg.frame_len, cfg.averager_config()
    amplitude = 0.25
    offsets_bins = [0.004, 0.006, 0.008, 0.010, 0.012, 0.020,
                    0.210, 0.570, 0.770, 1.900, 4.200, 7.770]
    worst = 0.0
    levels = []
    for r in offsets_bins:
        nu = r / 1024.0
        model = ChannelModel(
            taps=((0, 0.0),),
            noise_std=0.02,  # dither for the shift truncation
            interferers=(Interferer(freq=nu, amplitude=amplitude, phase=0.3),),
            seed=808,
        )
        capture = run_campaign(cfg, model, created=CREATED)
        corrs = []
        for k, row in enumerate(capture.snapshots):
            x = rescale_snapshot(Snapshot(row, k, acfg))
            base = k * frame_len + cfg.discard_len
            idx = base + np.arange(1024)
            template = np.exp(-2j * np.pi * np.mod(nu * idx, 1.0))
            corrs.append(np.mean(x * template))
        measured = abs(np.mean(corrs)) / amplitude
        expected = averaging_suppression(nu, 1024, 64)
        err_db = abs(20.0 * np.log10(measured / expected))
        worst = max(worst, err_db)
        levels.append(20.0 * np.log10(expected))
    ok = worst <= 1.0 and len(offsets_bins) >= 10
    _report(6, f"{len(offsets_bins)} tones spanning {max(levels):.1f} to "
               f"{min(levels):.1f} dB suppression, worst model error "
               f"{worst:.2f} dB", ok)


def test_criterion_07_cir_recovery():
    cfg = SounderConfig()
    delays = (0, 50, 120)
    gains = (1.0, 0.5j, -0.25)
    model = ChannelModel(taps=tuple(zip(delays, gains)))
    capture = run_campaign(cfg, model, created=CREATED)
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    first = Snapshot(capture.snapshots[0], 0, cfg.averager_config())
    cir = to_cir(estimate_response(first, wf))
    top3 = np.sort(np.argsort(np.abs(cir))[-3:])
    delays_ok = top3.tolist() == list(delays)
    recovered = read_tap_gains(cir, wf.occupied_mask, delays)
    rel_err = np.abs(recovered - np.asarray(gains)) / np.abs(gains)
    ok = delays_ok and bool(np.all(rel_err <= 0.01))
    _report(7, f"peaks at {top3.tolist()}, gain errors "
               f"{[f'{e:.2%}' for e in rel_err]}", ok)


def test_criterion_08_timing_error_tolerance():
    # Reduced geometry, same structure: discard P = 3L covers any start
    # offset up to P - L, turning it into a pure cyclic shift.
    cfg = SounderConfig(
        signal_len=64, discard_len=192, avg_count=4, shift_bits=2,
        rep_period_s=512 * 2e-9, sample_period_s=2e-9, zc=ZcParams(51, 2),
    )
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    frame = build_tx_frame(wf, cfg)
    acfg = cfg.averager_config()

    def capture_cir(offset):
        snap = select_and_average(np.roll(frame, offset), acfg)
        return snap.data, to_cir(estimate_response(snap, wf))

    data0, cir0 = capture_cir(0)
    max_offset = cfg.discard_len - cfg.signal_len
    data_ok = True
    cir_ok = True
    for e in range(max_offset + 1):
        data_e, cir_e = capture_cir(e)
        data_ok &= bool(np.array_equal(data_e, np.roll(data0, e)))
        cir_ok &= bool(np.allclose(cir_e, np.roll(cir0, e),
                                   rtol=0, atol=1e-12))
    ok = data_ok and cir_ok and max_offset == 128
    _report(8, f"offsets 0..{max_offset}: snapshots cyclic-shift bit-exactly "
               f"({'yes' if data_ok else 'NO'}), CIRs within 1e-12 "
               f"({'yes' if cir_ok else 'NO'})", ok)


def test_criterion_09_pps_flank_invariance(tmp_path):
    cfg = SounderConfig(num_snapshots=2)
    model = ChannelModel(taps=((0, 1.0), (50, 0.5j)), noise_std=0.01, seed=9)
    blobs = []
    for flank in (0, 1, 3, 7):
        schedule = PpsSchedule(rep_period_s=cfg.rep_period_s,
                               sample_period_s=cfg.sample_period_s,
                               rx_start_flank=flank)
        capture = run_campaign(cfg, model, schedule, created=CREATED)
        path = tmp_path / f"flank{flank}.capture"
        write_capture(path, capture)
        blobs.append(path.read_bytes())
    ok = all(blob == blobs[0] for blob in blobs[1:])
    _report(9, f"captures at flanks (0, 1, 3, 7) byte-identical: "
               f"{len(blobs[0])} bytes each", ok)


def test_criterion_10_deployment_validator():
    cfg = SounderConfig()
    # 2.0 us delay spread = 1000 samples: passes with margin 24.
    good = validate_config(cfg, ChannelModel(taps=((0, 1.0), (1000, 0.5))))
    margin = good.checks[0].margin_samples
    # 2.05 us = 1025 samples: one sample too wide.
    bad = validate_config(cfg, ChannelModel(taps=((0, 1.0), (1025, 0.5))))
    # First arrival at 0 with discard 1024 = exactly one settling symbol.
    tight = validate_config(SounderConfig(discard_len=1024),
                            ChannelModel(taps=((0, 1.0),)))
    zero_margin = tight.checks[1].margin_samples
    ok = (good.passed and margin == 24 and not bad.passed
          and tight.passed and zero_margin == 0)
    _report(10, f"2.0 us spread passes (margin {margin}), 2.05 us fails, "
                f"zero-margin settling passes", ok)
