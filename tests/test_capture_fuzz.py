"""Fuzzing the capture reader: it parses a file or raises CaptureFormatError."""

import json
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from soundersim.campaign import read_capture, run_campaign, write_capture
from soundersim.channel import ChannelModel
from soundersim.config import SounderConfig
from soundersim.errors import CaptureFormatError
from soundersim.waveform import ZcParams

PROLOGUE = struct.Struct("<4sHI")

CFG = SounderConfig(
    signal_len=64, discard_len=128, avg_count=4, shift_bits=2,
    rep_period_s=1e-3, sample_period_s=1.0 / 512_000,
    zc=ZcParams(51, 2), num_snapshots=2,
)


def _valid_capture() -> bytes:
    capture = run_campaign(CFG, ChannelModel(taps=((3, 0.9),), noise_std=0.01),
                           created="2026-03-01T12:00:00+00:00")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "valid.capture"
        write_capture(path, capture)
        return path.read_bytes()


VALID = _valid_capture()
_, _, HEADER_LEN = PROLOGUE.unpack_from(VALID)
HEADER = json.loads(VALID[PROLOGUE.size:PROLOGUE.size + HEADER_LEN])
PAYLOAD = VALID[PROLOGUE.size + HEADER_LEN:]

#: Where a header mutation lands: a top-level key, a config key or a zc key.
PATHS = ([(key,) for key in HEADER]
         + [("config", key) for key in HEADER["config"]]
         + [("config", "zc", key) for key in HEADER["config"]["zc"]])

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=8),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


def _mutate(header: dict, path: tuple, action: str, value) -> None:
    *parents, key = path
    target = header
    for parent in parents:
        target = target[parent]
    if action == "delete":
        del target[key]
    elif action == "float":
        if isinstance(target[key], int) and not isinstance(target[key], bool):
            target[key] = float(target[key])
    else:
        target[key] = value


def _encode(header: dict, payload: bytes) -> bytes:
    encoded = json.dumps(header).encode("utf-8")
    return PROLOGUE.pack(b"CSND", 1, len(encoded)) + encoded + payload


@pytest.fixture(scope="module")
def capture_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzzed.capture"


def _read(path, data: bytes) -> None:
    """Read ``data`` as a capture; a parsed one accounts for every byte."""
    path.write_bytes(data)
    try:
        capture = read_capture(path)
    except CaptureFormatError:
        return
    _, _, header_len = PROLOGUE.unpack_from(data)
    assert capture.payload_bytes == len(data) - PROLOGUE.size - header_len


@given(cut=st.integers(0, len(VALID) - 1))
def test_truncated_capture_is_a_format_error(capture_path, cut):
    capture_path.write_bytes(VALID[:cut])
    with pytest.raises(CaptureFormatError):
        read_capture(capture_path)


@given(flips=st.lists(st.tuples(st.integers(0, PROLOGUE.size + HEADER_LEN - 1),
                                st.integers(0, 7)), min_size=1, max_size=8))
def test_bit_flips_in_prologue_or_header(capture_path, flips):
    data = bytearray(VALID)
    for index, bit in flips:
        data[index] ^= 1 << bit
    _read(capture_path, bytes(data))


@given(mutations=st.lists(st.tuples(st.sampled_from(PATHS),
                                    st.sampled_from(["delete", "float", "set"]),
                                    JSON_VALUES), min_size=1, max_size=3),
       empty=st.booleans())
@example(mutations=[(("seed",), "set", float("inf"))], empty=False)
@example(mutations=[(("config", "signal_len"), "float", None)], empty=False)
# An empty capture whose valid config has a record too large to address.
@example(mutations=[(("snapshot_count",), "set", 0),
                    (("config", "signal_len"), "set", 2**62),
                    (("config", "rep_period_s"), "set", 1e14)], empty=True)
def test_header_mutations(capture_path, mutations, empty):
    header = json.loads(json.dumps(HEADER))
    for path, action, value in mutations:
        try:
            _mutate(header, path, action, value)
        except (KeyError, TypeError):
            pass  # an earlier mutation removed or replaced the parent
    _read(capture_path, _encode(header, b"" if empty else PAYLOAD))
