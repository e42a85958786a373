"""Property tests: the campaign and the channel against straightforward oracles.

``run_campaign`` convolves one symbol period of the segment a window
reads, plus its two edges, once per campaign, gathers them from the
quantized symbol, and simulates a static channel once.  The oracles here
do none of that: they build the full transmit frame and
propagate every snapshot on its own, with the channel arithmetic written
out in its plain one-pass form.
"""

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from soundersim import campaign
from soundersim.averager import select_and_average
from soundersim.campaign import TapSum, run_campaign, snapshot_rng, tap_sum
from soundersim.channel import (
    ChannelModel,
    Interferer,
    add_interference_and_noise,
    apply_channel,
    convolve_taps,
    validate_config,
)
from soundersim.config import SounderConfig
from soundersim.fixedpoint import SAMPLE_DTYPE, quantize_clipped
from soundersim.sync import PpsSchedule, receiver_offset
from soundersim.waveform import ZcParams, build_sounding_symbol, build_tx_frame, tx_frame_samples

CREATED = "2026-03-01T12:00:00+00:00"
SETTINGS = settings(max_examples=60)


def _plain_tone(tone, n):
    """Interferer ``tone`` at absolute indices ``n``, in one pass over all of them.

    ``(A·e^{iφ}·C[n >> 16])·M[(n >> 8) & 255]·F[n & 255]``, each table
    entry ``exp(2πi·x)`` with ``x = frac(f·m)`` in [-1/2, 1/2) taken
    exactly, and every complex product written out in real arithmetic.
    """
    def table(freq, parts):
        turns = [float(x - math.floor(x + Fraction(1, 2)))
                 for x in (Fraction(freq) * int(m) for m in parts)]
        angle = np.zeros(len(turns), dtype=np.complex128)
        angle.imag = 2.0 * np.pi * np.array(turns)
        phasor = np.exp(angle)
        return phasor.real, phasor.imag

    def times(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    spin = np.exp(complex(0.0, tone.phase))
    top, where = np.unique(n >> 16, return_inverse=True)
    scaled = times((tone.amplitude * spin.real, tone.amplitude * spin.imag),
                   table(tone.freq * 65536, top))
    coarse = times([part[where] for part in scaled],
                   [part[(n >> 8) & 255] for part in table(tone.freq * 256, range(256))])
    return times(coarse, [part[n & 255] for part in table(tone.freq, range(256))])


def _plain_propagate(tx, model, start_index, rng):
    """The channel in one pass over the whole output, without blocks."""
    tx_float = (tx["i"].astype(np.float64) + 1j * tx["q"].astype(np.float64)) * 2.0**-15
    out = np.zeros(len(tx) + model.max_delay, dtype=np.complex128)
    for delay, gain in model.taps:
        out[delay:delay + len(tx)] += gain * tx_float
    index = np.arange(start_index, start_index + len(out))
    for tone in model.interferers:
        real, imag = _plain_tone(tone, index)
        out.real += real
        out.imag += imag
    if model.noise_std > 0:
        out += model.noise_std * rng.standard_normal(len(out))
        out += 1j * model.noise_std * rng.standard_normal(len(out))
    return out


def _plain_quantize(values):
    """Quantization in one pass over the whole array, without blocks."""
    i_raw = np.rint(values.real * 32768.0)
    q_raw = np.rint(values.imag * 32768.0)
    clipped = int(np.count_nonzero((i_raw < -32768) | (i_raw > 32767))
                  + np.count_nonzero((q_raw < -32768) | (q_raw > 32767)))
    out = np.empty(values.shape, dtype=SAMPLE_DTYPE)
    out["i"] = np.clip(i_raw, -32768, 32767).astype(np.int16)
    out["q"] = np.clip(q_raw, -32768, 32767).astype(np.int16)
    return out, clipped


def _oracle_snapshots(cfg, model, offset):
    """Each snapshot's row and clip count, from the full frame, propagated on its own."""
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    frame = build_tx_frame(wf, cfg)
    acfg = cfg.averager_config()
    tail = model.max_delay
    segment = frame[(np.arange(-tail, acfg.window_len) - offset) % cfg.frame_len]
    for k in range(cfg.num_snapshots):
        received = _plain_propagate(segment, model, k * cfg.frame_len - tail,
                                    snapshot_rng(model.seed, k))
        samples, count = _plain_quantize(received)
        stream = samples[tail:tail + acfg.window_len]
        yield select_and_average(stream, acfg, snapshot_index=k).data, count


def _per_snapshot_oracle(cfg, model, offset):
    """Every snapshot from the full frame, propagated on its own."""
    snapshots = list(_oracle_snapshots(cfg, model, offset))
    return [data for data, _ in snapshots], sum(count for _, count in snapshots)


def _long_stream_oracle(cfg, model, offset):
    """Snapshots cut from one continuous channel run over replayed frames."""
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    rx_frame = np.roll(build_tx_frame(wf, cfg), offset)
    stream = apply_channel(np.tile(rx_frame, cfg.num_snapshots), model).samples
    acfg = cfg.averager_config()
    return [select_and_average(stream[k * cfg.frame_len:
                                      k * cfg.frame_len + acfg.window_len], acfg).data
            for k in range(cfg.num_snapshots)]


gains = st.builds(
    complex,
    st.floats(-1.5, 1.5, allow_nan=False),
    st.floats(-1.5, 1.5, allow_nan=False),
)
tones = st.builds(
    Interferer,
    freq=st.floats(-0.5, 0.5, exclude_min=True),
    amplitude=st.floats(0.0, 0.3),
    phase=st.floats(-10.0, 10.0),
)


@st.composite
def campaigns(draw, max_avg_count=4):
    """A small sounder, a channel it can measure and a valid timing error."""
    signal_len = draw(st.sampled_from([16, 32, 64]))
    zc_len = draw(st.integers(3, signal_len))
    root = draw(st.sampled_from([r for r in range(1, zc_len) if math.gcd(r, zc_len) == 1]))
    avg_count = draw(st.integers(1, max_avg_count))
    least_shift = (avg_count - 1).bit_length()
    shift_bits = draw(st.integers(least_shift, max(least_shift, 3)))
    first = draw(st.integers(0, 8))
    delays = draw(st.lists(st.integers(first, first + signal_len - 1),
                           min_size=0, max_size=2, unique=True))
    delays = [first] + [d for d in delays if d != first]
    discard_len = 2 * ((first + signal_len + 1) // 2 + draw(st.integers(0, 16)))
    window_len = discard_len + avg_count * signal_len
    train = -(-window_len // signal_len) * signal_len
    frame_len = train + draw(st.integers(0, 64))
    cfg = SounderConfig(
        signal_len=signal_len, discard_len=discard_len, avg_count=avg_count,
        shift_bits=shift_bits, rep_period_s=1e-3, sample_period_s=1e-3 / frame_len,
        backoff=draw(st.floats(0.2, 1.0)), zc=ZcParams(zc_len, root),
        num_snapshots=draw(st.integers(1, 3)),
    )
    model = ChannelModel(
        taps=tuple(zip(delays, draw(st.lists(gains, min_size=len(delays),
                                             max_size=len(delays))))),
        noise_std=draw(st.sampled_from([0.0, 0.0, 0.01, 0.1])),
        interferers=tuple(draw(st.lists(tones, max_size=2))),
        seed=draw(st.integers(0, 2**64 - 1)),
    )
    lag = draw(st.integers(window_len - train - first, discard_len - signal_len - first))
    timing_error = lag + frame_len * draw(st.integers(-2, 2))
    return cfg, model, timing_error


@SETTINGS
@given(campaigns())
def test_campaign_matches_oracles_bit_for_bit(case):
    cfg, model, timing_error = case
    schedule = PpsSchedule(rep_period_s=cfg.rep_period_s,
                           sample_period_s=cfg.sample_period_s,
                           timing_error=timing_error)
    offset = receiver_offset(schedule)
    # A lag past half a frame reads as an early arrival, which may fail.
    assume(validate_config(cfg, model, offset).passed)
    capture = run_campaign(cfg, model, schedule, created=CREATED)

    data, clipped = _per_snapshot_oracle(cfg, model, offset)
    assert capture.clipped_components == clipped
    assert len(capture.snapshots) == cfg.num_snapshots
    for row, expected in zip(capture.snapshots, data):
        assert np.array_equal(row, expected)
    if model.noise_std == 0:  # the long stream draws its noise differently
        long_stream = _long_stream_oracle(cfg, model, offset)
        for row, expected in zip(capture.snapshots, long_stream):
            assert np.array_equal(row, expected)


def _check_reused_buffers(cfg, model, timing_error, cores, tone_rows):
    """Run a campaign on ``cores`` workers whose scratch holds ``tone_rows``
    rows of 256 tone samples, and compare it with the per-snapshot oracle.

    Returns each snapshot's clip count."""
    schedule = PpsSchedule(rep_period_s=cfg.rep_period_s,
                           sample_period_s=cfg.sample_period_s,
                           timing_error=timing_error)
    offset = receiver_offset(schedule)
    with mock.patch.object(campaign, "_usable_cores", lambda: cores), \
            mock.patch.object(campaign, "SCRATCH_LEN", 2 * 256 * tone_rows):
        capture = run_campaign(cfg, model, schedule, created=CREATED)
    expected = list(_oracle_snapshots(cfg, model, offset))
    assert capture.clipped_components == sum(count for _, count in expected)
    for row, (data, _) in zip(capture.snapshots, expected, strict=True):
        assert np.array_equal(row, data)
    return [count for _, count in expected]


#: A 2150-sample segment: with one or two tone rows of scratch, the noise's
#: blocks of 1024 or 2048 draws end inside it.
_LONG_WINDOW = (
    SounderConfig(signal_len=64, discard_len=80, avg_count=32, shift_bits=5,
                  rep_period_s=1e-3, sample_period_s=1e-3 / 2176, zc=ZcParams(61, 5)),
    ChannelModel(taps=((2, 0.7), (11, 0.3j)), noise_std=0.1,
                 interferers=(Interferer(0.0123, 0.2, 1.0),), seed=5),
    0,
)


@SETTINGS
@example(case=_LONG_WINDOW, snapshots=5, cores=2, rows=1)
@example(case=_LONG_WINDOW, snapshots=3, cores=1, rows=2)
@given(case=campaigns(max_avg_count=32), snapshots=st.integers(1, 7), cores=st.integers(1, 3),
       rows=st.integers(1, 3))
def test_reused_worker_buffers_match_the_oracle_bit_for_bit(case, snapshots, cores, rows):
    # A noisy worker reuses its buffers for every snapshot it takes, and
    # works tones and noise in scratch of SCRATCH_LEN doubles per row.
    # Cut down to a few tone rows, the tone's and the noise's block edges
    # fall inside windows of up to 32 symbols.
    cfg, model, timing_error = case
    assume(validate_config(cfg, model, timing_error % cfg.frame_len).passed)
    _check_reused_buffers(dataclasses.replace(cfg, num_snapshots=snapshots), model,
                          timing_error, cores, rows)


@pytest.mark.parametrize("cores", [1, 2])
def test_a_worker_alternates_clipping_and_clean_snapshots(cores):
    # Snapshots 2 and 4 clip and the others do not, so worker 0 quantizes
    # clean, clipping, clean, clipping, clean samples into the same buffers.
    cfg = SounderConfig(signal_len=32, discard_len=40, avg_count=4, shift_bits=2,
                        rep_period_s=1e-3, sample_period_s=1e-3 / 224,
                        backoff=1.0, zc=ZcParams(31, 3), num_snapshots=7)
    model = ChannelModel(taps=((3, 0.85), (9, 0.1j)), noise_std=0.05,
                         interferers=(Interferer(0.1234, 0.05, 0.5),), seed=0)
    clips = _check_reused_buffers(cfg, model, 0, cores, 1)
    assert [bool(count) for count in clips] == [False, False, True, False, True, False, False]


def _edge_case(signal_len, discard_len, avg_count, frame_len, taps, timing_error):
    cfg = SounderConfig(signal_len=signal_len, discard_len=discard_len, avg_count=avg_count,
                        shift_bits=2, rep_period_s=1e-3, sample_period_s=1e-3 / frame_len,
                        zc=ZcParams(signal_len - 1, 2), num_snapshots=1)
    return cfg, ChannelModel(taps=taps), timing_error


@SETTINGS
@example(_edge_case(  # arrives 16 samples early; the train ends and the next
    16, 20, 2, 64,    # one starts inside the segment; max_delay is 4 + 15
    ((4, 1.5 + 1.5j), (11, -0.7j), (19, 1.2)), -16))
@example(_edge_case(16, 16, 3, 80, ((0, -1.5 + 1j), (15, 1.4)), 0))  # max_delay 15
# A hot cable at offset 0: head, tail and partial period are all empty,
# so only the period is gathered, convolved and quantized, and it clips.
@example(_edge_case(16, 16, 3, 80, ((0, 2.5),), 0))
# The train starts at segment index 0 and the tail holds samples; the head
# cannot be empty then, as it holds the max_delay outputs of the taps' run-in.
@example(_edge_case(16, 20, 2, 64, ((0, 2.2), (3, -1.1 + 0.4j)), -3))
# A cable arriving 5 samples late: a head of 5 outputs, no tail.
@example(_edge_case(16, 24, 2, 64, ((0, 2.4j),), 5))
@given(campaigns())
def test_tap_sum_pieces_match_the_whole_segment_bit_for_bit(case):
    # The pieces hold the same convolve_taps arithmetic as one pass over
    # the whole gathered segment, and the averaging window lies where
    # the tap sum repeats the period.
    cfg, model, timing_error = case
    offset = timing_error % cfg.frame_len
    assume(validate_config(cfg, model, offset).passed)
    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    tail, acfg = model.max_delay, cfg.averager_config()
    whole = convolve_taps(tx_frame_samples(wf, cfg, -tail - offset, tail + acfg.window_len),
                          model)
    taps = tap_sum(wf, cfg, model, offset)
    pieces = taps.fill(np.full_like(whole, np.nan))
    assert np.array_equal(pieces.view(np.uint64), whole.view(np.uint64))
    assert taps.start <= tail + acfg.discard_len
    assert tail + acfg.window_len <= taps.stop
    assert len(taps.period) == cfg.signal_len
    # The first and last max_delay outputs never see every tap, so an edge
    # can be empty only when max_delay is 0.
    assert len(taps.head) >= tail and len(taps.tail) >= tail
    # A static campaign quantizes the pieces, not the whole: laid out in a
    # uint32 buffer they are the whole quantized, and the period's clips,
    # counted once per whole period, add up to the whole's.
    samples, clipped = quantize_clipped(whole)
    (head, h), (period, p), (end, t) = map(quantize_clipped, (taps.head, taps.period, taps.tail))
    words = TapSum(head.view(np.uint32), period.view(np.uint32), taps.start, taps.stop,
                   end.view(np.uint32)).fill(np.zeros(len(whole), np.uint32))
    assert np.array_equal(words, samples.view(np.uint32))
    periods, rest = divmod(taps.stop - taps.start, len(taps.period))
    assert h + periods * p + quantize_clipped(taps.period[:rest])[1] + t == clipped
    # The static branch, which skips the empty pieces, keeps the row and count.
    schedule = PpsSchedule(rep_period_s=cfg.rep_period_s, sample_period_s=cfg.sample_period_s,
                           timing_error=timing_error)
    capture = run_campaign(dataclasses.replace(cfg, num_snapshots=1),
                           dataclasses.replace(model, noise_std=0.0, interferers=()),
                           schedule, created=CREATED)
    assert capture.clipped_components == clipped
    row = select_and_average(samples[tail : tail + acfg.window_len], acfg).data
    assert np.array_equal(capture.snapshots[0], row)


@SETTINGS
@given(
    length=st.integers(1, 20_000),  # crosses several 8192-sample blocks
    start_index=st.integers(-(2**40), 2**40),
    taps=st.lists(st.tuples(st.integers(0, 40), gains), min_size=1, max_size=3,
                  unique_by=lambda tap: tap[0]),
    interferers=st.lists(tones, max_size=2),
    noise_std=st.sampled_from([0.0, 0.05]),
    seed=st.integers(0, 2**32),
)
def test_tap_sum_interference_and_noise_match_one_pass_bit_for_bit(
        length, start_index, taps, interferers, noise_std, seed):
    rng = np.random.default_rng(seed)
    tx = np.empty(length, dtype=SAMPLE_DTYPE)
    tx["i"] = rng.integers(-32768, 32768, length)
    tx["q"] = rng.integers(-32768, 32768, length)
    model = ChannelModel(taps=tuple(taps), noise_std=noise_std,
                         interferers=tuple(interferers), seed=seed)
    got = add_interference_and_noise(convolve_taps(tx, model), model, start_index,
                                     snapshot_rng(seed, 1))
    expected = _plain_propagate(tx, model, start_index, snapshot_rng(seed, 1))
    assert np.array_equal(got, expected)


@SETTINGS
@given(
    shape=st.sampled_from([(), (1,), (5,), (3, 7), (20_000,), (3, 8193)]),
    strided=st.booleans(),
    scale=st.sampled_from([0.5, 1.0, 1.5]),
    seed=st.integers(0, 2**32),
)
def test_quantize_clipped_matches_one_pass_bit_for_bit(shape, strided, scale, seed):
    rng = np.random.default_rng(seed)
    values = scale * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    if strided and values.ndim:
        values = values[..., ::2]  # not contiguous
    samples, clipped = quantize_clipped(values)
    expected, expected_clipped = _plain_quantize(values)
    assert samples.shape == values.shape
    assert np.array_equal(samples, expected)
    assert clipped == expected_clipped
