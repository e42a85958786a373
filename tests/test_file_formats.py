"""Config, channel and calibration files: pinned bytes and strict round trips."""

import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from soundersim.channel import (
    ChannelModel,
    Interferer,
    channel_digest,
    channel_to_dict,
    load_channel,
    save_channel,
)
from soundersim.config import SounderConfig, config_to_dict, load_config, save_config
from soundersim.errors import ConfigurationError
from soundersim.estimator import (
    CalibrationProfile,
    FrequencyResponse,
    calibration_to_dict,
    load_calibration,
    save_calibration,
)
from soundersim.waveform import ZcParams

#: name: (model, channel_digest, SHA-256 of the save_channel text).
CHANNEL_PINS = {
    "cable": (
        ChannelModel(taps=((0, 1.0),)),
        "d74900c5f49135387bfef341ace20d76679bc47b5f069769ca100282968f2be7",
        "b98c3d8ce48f9c1c9e43b3535a9f321437a79882ea86c39b030f9ed5fb2b114e",
    ),
    "three-taps-two-tones": (
        ChannelModel(taps=((0, 1.0), (7, 0.25 - 0.5j), (31, -0.1 + 0.05j)),
                     noise_std=0.02,
                     interferers=(Interferer(freq=0.013, amplitude=0.05, phase=0.4),
                                  Interferer(freq=-0.2, amplitude=0.01)),
                     seed=7),
        "cda0406707fd2ed23ff5eb0e12f7720f3d7eae0ee6622eca48fb0a1b7a46d46e",
        "01721a35bcb76b0f861cea3663e356d26ed2ab4b20662f96ba99d7eb46a95a12",
    ),
    "large-seed": (
        ChannelModel(taps=((3, 0.5j),), noise_std=1e-3, seed=2**64 - 1),
        "2bb33ee9dcb3e66b19a469d20d826f84902de2ab62cafdb870a136a3630ec90b",
        "e85496a0f357085ce6aaa9ce0dc28cf2685bff4918a88ca1d33adc9a008adceb",
    ),
}


@pytest.mark.parametrize("name", CHANNEL_PINS)
def test_channel_digest_and_saved_text_are_pinned(tmp_path, name):
    model, digest, text_sha256 = CHANNEL_PINS[name]
    path = tmp_path / "channel.json"
    save_channel(path, model)
    assert channel_digest(model) == digest
    assert hashlib.sha256(path.read_bytes()).hexdigest() == text_sha256
    assert load_channel(path) == model


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def configs(draw):
    signal_len = 2 * draw(st.integers(1, 256))
    length = draw(st.integers(1, signal_len))
    root = draw(st.integers(1, max(length - 1, 1)).filter(
        lambda r: math.gcd(r, length) == 1))
    shift_bits = draw(st.integers(0, 8))
    avg_count = draw(st.integers(1, 2**shift_bits))
    discard_len = 2 * draw(st.integers(0, 512))
    # One symbol more than discard plus window always fits the whole-symbol train.
    frame_len = (avg_count + 1) * signal_len + discard_len + draw(st.integers(0, 10_000))
    sample_period_s = draw(st.sampled_from([2e-9, 1.0 / 512_000, 0.125]))
    return SounderConfig(
        signal_len=signal_len, discard_len=discard_len, avg_count=avg_count,
        shift_bits=shift_bits, rep_period_s=frame_len * sample_period_s,
        sample_period_s=sample_period_s, center_freq_hz=draw(st.floats(1.0, 1e11)),
        tx_power_dbm=draw(FINITE), backoff=draw(st.floats(0.0, 1.0, exclude_min=True)),
        zc=ZcParams(length, root), num_snapshots=draw(st.integers(0, 10**6)))


interferers = st.builds(
    Interferer,
    freq=st.floats(-0.5, 0.5, exclude_min=True), amplitude=st.floats(0, 10),
    phase=FINITE)

channels = st.builds(
    ChannelModel,
    taps=st.dictionaries(st.integers(0, 10_000), st.complex_numbers(
        allow_nan=False, allow_infinity=False), min_size=1, max_size=8).map(
            lambda taps: tuple(taps.items())),
    noise_std=st.floats(0, 10), interferers=st.lists(interferers, max_size=3),
    seed=st.integers(0, 2**64 - 1))


@st.composite
def calibrations(draw):
    fft_size = draw(st.integers(1, 64))
    mask = np.array(draw(st.lists(st.booleans(), min_size=fft_size,
                                  max_size=fft_size)))
    values = draw(st.lists(st.complex_numbers(allow_nan=False, allow_infinity=False),
                           min_size=fft_size, max_size=fft_size))
    bins = np.where(mask, np.array(values, dtype=np.complex128), 0)
    return CalibrationProfile(
        reference=FrequencyResponse(bins=bins, occupied_mask=mask),
        threshold=draw(st.floats(0, 1e6, exclude_min=True)))


#: format name: (strategy, save, load, to_dict).
FORMATS = {
    "config": (configs(), save_config, load_config, config_to_dict),
    "channel": (channels, save_channel, load_channel, channel_to_dict),
    "calibration": (calibrations(), save_calibration, load_calibration,
                    calibration_to_dict),
}


def _same(a, b) -> bool:
    if isinstance(a, CalibrationProfile):
        return (a.threshold == b.threshold
                and np.array_equal(a.reference.bins, b.reference.bins)
                and np.array_equal(a.reference.occupied_mask, b.reference.occupied_mask))
    return a == b


@pytest.mark.parametrize("kind", FORMATS)
def test_load_inverts_save(kind):
    strategy, save, load, _ = FORMATS[kind]

    @settings(max_examples=60)
    @given(strategy)
    def check(obj):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{kind}.json"
            save(path, obj)
            assert _same(load(path), obj)

    check()


@pytest.mark.parametrize("kind", FORMATS)
def test_renamed_or_added_key_is_rejected(kind):
    strategy, _, load, to_dict = FORMATS[kind]

    @settings(max_examples=60)
    @given(obj=strategy, data=st.data())
    def check(obj, data):
        fields = to_dict(obj)
        new_key = data.draw(st.text(max_size=12).filter(lambda k: k not in fields))
        old_key = data.draw(st.sampled_from([None, *fields]))  # None adds a key
        fields[new_key] = 0 if old_key is None else fields.pop(old_key)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / f"{kind}.json"
            path.write_text(json.dumps(fields), encoding="utf-8")
            with pytest.raises(ConfigurationError, match="malformed"):
                load(path)

    check()
