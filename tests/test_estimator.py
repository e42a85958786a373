"""Frequency response, impulse response, tap readout and calibration."""

import dataclasses

import numpy as np
import pytest

from soundersim import fixedpoint as fp
from soundersim.averager import AveragerConfig, Snapshot, select_and_average
from soundersim.campaign import run_campaign
from soundersim.channel import ChannelModel, Interferer, apply_channel
from soundersim.config import SounderConfig
from soundersim.errors import ConfigurationError, DegenerateWaveformError
from soundersim.estimator import (
    CalibrationProfile,
    FrequencyResponse,
    apply_calibration,
    averaging_suppression,
    band_limit_kernel,
    build_calibration,
    calibration_from_dict,
    calibration_to_dict,
    estimate_response,
    load_calibration,
    power_delay_profile,
    read_tap_gains,
    rescale_snapshot,
    save_calibration,
    to_cir,
)
from soundersim.waveform import ZcParams, build_sounding_symbol, occupied_bins


DEFAULT_WF = build_sounding_symbol(ZcParams(), 1024, 0.5)
PASSTHROUGH = AveragerConfig(signal_len=1024, discard_len=0, avg_count=1,
                             shift_bits=0)


def _measure(wf, model, acfg=PASSTHROUGH):
    """One estimate through a static channel in symbol-periodic steady state."""
    tx = fp.quantize(wf.time_signal)
    start = wf.fft_size * (1 + model.max_delay // wf.fft_size)
    reps = -(-(start + acfg.window_len) // wf.fft_size)
    result = apply_channel(np.tile(tx, reps), model)
    stream = result.samples[start:start + acfg.window_len]
    snap = select_and_average(stream, acfg)
    return estimate_response(snap, wf)


def _block_snapshot(capture):
    """The capture's snapshots as one ``(N, signal_len)`` snapshot."""
    return Snapshot(data=np.stack([snap.data for snap in capture.snapshots]),
                    snapshot_index=0, config=capture.config.averager_config())


def test_block_estimate_matches_each_snapshot_bit_for_bit():
    cfg = SounderConfig(
        signal_len=64, discard_len=128, avg_count=4, shift_bits=2,
        rep_period_s=1e-3, sample_period_s=1.0 / 512_000,
        zc=ZcParams(51, 2), num_snapshots=5,
    )
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    tone = Interferer(freq=0.013, amplitude=0.1, phase=0.4)
    measured = run_campaign(cfg, ChannelModel(
        taps=((5, 0.9), (30, 0.5j)), noise_std=0.05, interferers=(tone,), seed=3))
    cable = run_campaign(cfg, ChannelModel(taps=((0, 1.0),), noise_std=0.01, seed=4))

    block = estimate_response(_block_snapshot(measured), wf)
    assert block.bins.shape == (5, 64)
    assert np.array_equal(block.occupied_mask, wf.occupied_mask)
    rows = [estimate_response(snap, wf) for snap in measured.snapshots]
    assert len({row.bins.tobytes() for row in rows}) == 5  # noise differs per row
    for got, row in zip(block.bins, rows):
        assert np.array_equal(got, row.bins)

    profile = build_calibration(estimate_response(_block_snapshot(cable), wf))
    calibrated = apply_calibration(block, profile)
    assert calibrated.occupied_mask.shape == (64,)
    for got, row in zip(calibrated.bins, rows):
        assert np.array_equal(got, apply_calibration(row, profile).bins)


def test_zero_snapshot_gives_zero_response():
    cfg = SounderConfig()
    snap = Snapshot(data=np.zeros(1024, fp.SAMPLE_DTYPE), snapshot_index=0,
                    config=cfg.averager_config())
    resp = estimate_response(snap, DEFAULT_WF)
    assert np.all(resp.bins == 0)
    assert np.array_equal(resp.occupied_mask, DEFAULT_WF.occupied_mask)


def test_rescale_factor_is_unity_for_matched_shift():
    cfg = SounderConfig()  # avg_count 64 == 2**6
    data = fp.from_components([100, -3], [0, 7])
    snap = Snapshot(data=data, snapshot_index=0, config=cfg.averager_config())
    assert np.array_equal(rescale_snapshot(snap), fp.to_float(data))


def test_back_to_back_truncation_error_bound():
    # Identity channel through the real averager: the only distortion is
    # the pre-sum right shift, which floors, so the recovered symbol sits
    # within one shifted LSB *below* the quantized transmit symbol.
    cfg = SounderConfig()
    frame = np.tile(fp.quantize(DEFAULT_WF.time_signal),
                    cfg.discard_len // 1024 + 64)
    snap = select_and_average(frame, cfg.averager_config())
    err = rescale_snapshot(snap) - fp.to_float(fp.quantize(DEFAULT_WF.time_signal))
    for comp in (err.real, err.imag):
        assert np.all(comp <= 0)
        assert np.all(comp > -(2.0 ** -9))


def test_back_to_back_response_is_flat_at_unit_gain():
    cfg = SounderConfig()
    resp = _measure(DEFAULT_WF, ChannelModel(taps=((0, 1.0),)),
                    cfg.averager_config())
    occupied = resp.bins[resp.occupied_mask]
    assert occupied.shape == (813,)
    # The shift-truncation bias is a DC offset: large on the DC bin,
    # small everywhere else.
    err = np.abs(resp.bins - 1.0)
    err[~resp.occupied_mask] = 0.0
    assert err[0] <= 0.125
    off_dc = resp.occupied_mask.copy()
    off_dc[0] = False
    assert err[off_dc].max() <= 0.008


def test_response_obeys_shift_theorem():
    # A pure delay should turn into a linear phase ramp across the bins.
    delay = 37
    resp = _measure(DEFAULT_WF, ChannelModel(taps=((delay, 1.0),)))
    k = np.arange(1024)
    expected = np.exp(-2j * np.pi * k * delay / 1024)
    got = resp.bins[resp.occupied_mask]
    assert np.allclose(got, expected[resp.occupied_mask], atol=1e-3)


def test_complex_gain_recovered_on_every_bin():
    gain = 0.375 - 0.25j
    resp = _measure(DEFAULT_WF, ChannelModel(taps=((0, gain),)))
    got = resp.bins[resp.occupied_mask]
    assert np.allclose(got, gain, atol=1e-3)


def test_to_cir_of_flat_response_is_impulse():
    mask = np.ones(64, dtype=bool)
    resp = FrequencyResponse(bins=np.ones(64, dtype=np.complex128),
                             occupied_mask=mask)
    cir = to_cir(resp)
    assert abs(cir[0] - 1.0) < 1e-14
    assert np.abs(cir[1:]).max() < 1e-14


def test_band_limit_kernel_matches_dirichlet_sum():
    mask = np.zeros(1024, dtype=bool)
    mask[occupied_bins(813, 1024)] = True
    kernel = band_limit_kernel(mask)
    n = np.arange(1, 1024)
    expected = np.empty(1024)
    expected[0] = 813 / 1024
    expected[1:] = (np.sin(np.pi * 813 * n / 1024)
                    / (1024 * np.sin(np.pi * n / 1024)))
    assert np.abs(kernel.imag).max() < 1e-12
    assert np.allclose(kernel.real, expected, atol=1e-12)


def test_cir_peak_sits_at_the_tap_delay():
    resp = _measure(DEFAULT_WF, ChannelModel(taps=((50, 0.5),)))
    cir = to_cir(resp)
    assert int(np.argmax(np.abs(cir))) == 50
    # Peak height is the gain times the kernel peak (813/1024).
    assert abs(np.abs(cir[50]) - 0.5 * 813 / 1024) < 0.005


def test_power_delay_profile_levels():
    taps = np.zeros(16, dtype=np.complex128)
    taps[0] = 1.0
    taps[2] = 0.1j
    taps[5] = 1e-11
    pdp = power_delay_profile(taps)
    assert pdp[0] == 0.0
    assert abs(pdp[2] - (-20.0)) < 1e-12
    assert pdp[5] == -200.0  # floored
    assert pdp[1] == -200.0  # exact zero


def test_averaging_suppression_against_direct_sum():
    rng = np.random.default_rng(12)
    for _ in range(30):
        freq = float(rng.uniform(-0.5, 0.5))
        length = int(rng.integers(2, 600)) * 2
        count = int(rng.integers(1, 65))
        m = np.arange(count)
        oracle = abs(np.exp(2j * np.pi * freq * length * m).sum()) / count
        got = averaging_suppression(freq, length, count)
        assert abs(got - oracle) < 1e-9, (freq, length, count)


def test_averaging_suppression_edge_cases():
    assert averaging_suppression(0.123, 1024, 1) == 1.0
    # A symbol-periodic tone is passed unattenuated.
    assert abs(averaging_suppression(3 / 1024, 1024, 64) - 1.0) < 1e-12
    with pytest.raises(ConfigurationError):
        averaging_suppression(0.1, 1024, 0)


def test_averaging_suppression_matches_scipy_diric():
    from scipy.special import diric  # the oracle; scipy is a dev dependency
    rng = np.random.default_rng(31)
    cases = [(float(f), int(length))
             for f, length in zip(rng.uniform(-0.5, 0.5, 200),
                                  rng.integers(1, 4097, 200))]
    for length in range(1, 33):
        for k in range(-length // 2, length // 2 + 1):
            cases.append((k / length, length))
            for eps in (1e-9, -1e-9, 1e-12):
                cases.append((k / length + eps, length))
    for f, length in cases:
        for count in (1, 2, 64, 1000):
            oracle = float(abs(diric(2 * np.pi * f * length, count)))
            assert averaging_suppression(f, length, count) == oracle, (
                f, length, count)


def _synthetic_cir(delays, gains, mask):
    size = len(mask)
    k = np.arange(size)
    bins = np.zeros(size, dtype=np.complex128)
    for d, g in zip(delays, gains):
        bins += g * np.exp(-2j * np.pi * k * d / size)
    bins[~mask] = 0.0
    return to_cir(FrequencyResponse(bins=bins, occupied_mask=mask))


def test_read_tap_gains_exact_on_synthetic_channel():
    mask = np.zeros(1024, dtype=bool)
    mask[occupied_bins(813, 1024)] = True
    delays = [0, 50, 120]
    gains = [1.0, 0.5j, -0.25]
    cir = _synthetic_cir(delays, gains, mask)
    # Naive readout is polluted by kernel sidelobes of the other taps...
    naive = cir[delays] / (813 / 1024)
    assert np.abs(naive - gains).max() > 1e-3
    # ...the deconvolving readout is exact.
    got = read_tap_gains(cir, mask, delays)
    assert np.allclose(got, gains, atol=1e-9)


def test_read_tap_gains_random_round_trip():
    rng = np.random.default_rng(13)
    mask = np.zeros(1024, dtype=bool)
    mask[occupied_bins(813, 1024)] = True
    for _ in range(10):
        count = int(rng.integers(1, 5))
        delays = rng.choice(1024, size=count, replace=False)
        gains = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        cir = _synthetic_cir(delays, gains, mask)
        got = read_tap_gains(cir, mask, delays)
        assert np.allclose(got, gains, atol=1e-8)


def test_read_tap_gains_reads_each_row_of_a_block():
    # A 3 x 64 block used to be sized by its row count, so delay 5 was
    # rejected as outside [0, 3).
    cfg = SounderConfig(
        signal_len=64, discard_len=128, avg_count=4, shift_bits=2,
        rep_period_s=1e-3, sample_period_s=1.0 / 512_000,
        zc=ZcParams(51, 2), num_snapshots=3,
    )
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    measured = run_campaign(cfg, ChannelModel(
        taps=((0, 0.9), (5, 0.5j), (30, -0.25)), noise_std=0.05, seed=3))
    delays = [0, 5, 30]
    block = to_cir(estimate_response(_block_snapshot(measured), wf))
    gains = read_tap_gains(block, wf.occupied_mask, delays)
    assert gains.shape == (3, 3)
    assert len({row.tobytes() for row in gains}) == 3  # noise differs per row
    for got, snap in zip(gains, measured.snapshots):
        row = read_tap_gains(to_cir(estimate_response(snap, wf)), wf.occupied_mask, delays)
        assert np.array_equal(got, row)
    assert read_tap_gains(block, wf.occupied_mask, []).shape == (3, 0)


def test_read_tap_gains_validation():
    mask = np.ones(64, dtype=bool)
    cir = np.zeros(64, dtype=np.complex128)
    assert read_tap_gains(cir, mask, []).shape == (0,)
    with pytest.raises(ConfigurationError):
        read_tap_gains(cir, mask, [64])
    with pytest.raises(ConfigurationError):
        read_tap_gains(cir, mask, [-1])
    with pytest.raises(ConfigurationError):
        read_tap_gains(cir, mask, [3, 3])


def test_estimate_rejects_mismatched_sizes():
    snap = Snapshot(
        data=np.zeros(64, fp.SAMPLE_DTYPE), snapshot_index=0,
        config=AveragerConfig(signal_len=64, discard_len=0, avg_count=1,
                              shift_bits=0),
    )
    with pytest.raises(ConfigurationError, match="does not match"):
        estimate_response(snap, DEFAULT_WF)


def test_estimate_rejects_degenerate_waveform():
    wf = build_sounding_symbol(ZcParams(3, 2), fft_size=8)
    bins = wf.freq_bins.copy()
    bins[np.flatnonzero(wf.occupied_mask)[1]] = 0
    wf = dataclasses.replace(wf, freq_bins=bins)
    snap = Snapshot(
        data=np.zeros(8, fp.SAMPLE_DTYPE), snapshot_index=0,
        config=AveragerConfig(signal_len=8, discard_len=0, avg_count=1,
                              shift_bits=0),
    )
    with pytest.raises(DegenerateWaveformError):
        estimate_response(snap, wf)


def test_self_calibration_is_unity():
    resp = _measure(DEFAULT_WF, ChannelModel(taps=((0, 1.0),)))
    profile = build_calibration(resp)
    cal = apply_calibration(resp, profile)
    assert np.allclose(cal.bins[cal.occupied_mask], 1.0, rtol=0, atol=1e-14)
    assert np.array_equal(cal.occupied_mask, resp.occupied_mask)


def test_calibration_removes_chain_ripple():
    # The "RF chain" is a short static filter.  Calibrating against a
    # through measurement must cancel its ripple from later estimates.
    chain = ((0, 0.8), (3, 0.15), (6, 0.1j))
    reference = _measure(DEFAULT_WF, ChannelModel(taps=chain))
    profile = build_calibration(reference)

    # Measurement = chain convolved with a single propagation path.
    combined = tuple((d + 10, g * 0.9) for d, g in chain)
    measured = _measure(DEFAULT_WF, ChannelModel(taps=combined))
    calibrated = apply_calibration(measured, profile)

    k = np.arange(1024)
    expected = 0.9 * np.exp(-2j * np.pi * k * 10 / 1024)
    mask = calibrated.occupied_mask
    raw_err = np.abs(measured.bins[mask] - expected[mask]).max()
    cal_err = np.abs(calibrated.bins[mask] - expected[mask]).max()
    assert raw_err > 0.1  # the ripple is plainly visible before...
    assert cal_err < 5e-3  # ...and gone after calibration


def test_calibration_zeroes_weak_reference_bins():
    bins = np.zeros(16, dtype=np.complex128)
    mask = np.zeros(16, dtype=bool)
    mask[[0, 1, 2]] = True
    bins[[0, 1, 2]] = [1.0, 1e-6, 2.0]
    profile = build_calibration(FrequencyResponse(bins=bins, occupied_mask=mask))
    measured = FrequencyResponse(
        bins=np.where(mask, 4.0 + 0j, 0.0), occupied_mask=mask
    )
    cal = apply_calibration(measured, profile)
    assert cal.bins[0] == 4.0
    assert cal.bins[1] == 0.0  # weak bin removed, not inverted
    assert cal.bins[2] == 2.0
    assert cal.occupied_mask.tolist() == mask.tolist()[:1] + [False] + [True] + [False] * 13


def test_calibration_mask_mismatch_is_rejected():
    resp = _measure(DEFAULT_WF, ChannelModel(taps=((0, 1.0),)))
    other_mask = resp.occupied_mask.copy()
    other_mask[5] = not other_mask[5]
    other = FrequencyResponse(bins=resp.bins.copy(), occupied_mask=other_mask)
    profile = build_calibration(resp)
    with pytest.raises(ConfigurationError, match="masks"):
        apply_calibration(other, profile)
    with pytest.raises(ConfigurationError, match="at least one"):
        build_calibration(FrequencyResponse(bins=np.zeros((0, 1024), complex),
                                            occupied_mask=resp.occupied_mask))


def test_calibration_averages_references():
    mask = np.ones(4, dtype=bool)
    rows = np.array([np.full(4, 2.0 + 0j), np.full(4, 4.0 + 0j)])
    profile = build_calibration(FrequencyResponse(bins=rows, occupied_mask=mask))
    assert np.all(profile.reference.bins == 3.0)


def test_calibration_file_round_trip(tmp_path):
    resp = _measure(DEFAULT_WF, ChannelModel(taps=((0, 0.7), (2, 0.2j))))
    profile = build_calibration(resp, threshold=2e-3)
    path = tmp_path / "cal.json"
    save_calibration(path, profile)
    back = load_calibration(path)
    assert back.threshold == 2e-3
    assert np.array_equal(back.reference.bins, profile.reference.bins)
    assert np.array_equal(back.reference.occupied_mask,
                          profile.reference.occupied_mask)


def test_weak_reference_bins_are_logged_once_per_command(tmp_path, caplog):
    # Loading and applying a profile used to warn twice about the same bin.
    mask = np.array([True, True, True, False])
    bins = np.array([1.0, 1e-4, 2.0, 0.0], dtype=np.complex128)
    path = tmp_path / "cal.json"
    save_calibration(path, CalibrationProfile(
        reference=FrequencyResponse(bins=bins, occupied_mask=mask)))
    caplog.clear()
    with caplog.at_level("WARNING", logger="soundersim"):
        profile = load_calibration(path)
        out = apply_calibration(FrequencyResponse(bins=2 * bins, occupied_mask=mask),
                                profile)
    assert [r.getMessage() for r in caplog.records] == [
        "calibration reference has 1 occupied bins below 1.000e-03"]
    assert np.array_equal(out.occupied_mask, [True, False, True, False])
    assert np.array_equal(out.bins, [2.0, 0.0, 2.0, 0.0])


def test_malformed_calibration_file(tmp_path):
    path = tmp_path / "cal.json"
    path.write_text("[1, 2")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_calibration(path)
    path.write_text('{"fft_size": 8}')
    with pytest.raises(ConfigurationError, match="malformed"):
        load_calibration(path)


def test_calibration_dict_round_trip():
    bins = np.zeros(8, dtype=np.complex128)
    mask = np.zeros(8, dtype=bool)
    mask[[7, 0, 1]] = True
    bins[[7, 0, 1]] = [1 + 1j, 2.0, -0.5j]
    profile = build_calibration(FrequencyResponse(bins=bins, occupied_mask=mask))
    back = calibration_from_dict(calibration_to_dict(profile))
    assert np.array_equal(back.reference.bins, profile.reference.bins)
    assert np.array_equal(back.reference.occupied_mask, mask)
    assert back.threshold == profile.threshold
