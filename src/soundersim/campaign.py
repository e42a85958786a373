"""Campaign orchestration and the capture file format.

:func:`run_campaign` wires the whole simulator together: it validates
the sounder/channel pairing, builds the waveform, derives the receiver
alignment from the trigger schedule, pushes every trigger window through
the channel and the select-and-average stage, and returns the snapshots
plus provenance as a :class:`Capture`.

The transmitter replays one frame forever, so the steady-state link is
periodic with the frame length, and the averager reads only the first
``window_len`` samples after each trigger.  So each snapshot propagates
just the transmit samples its window depends on: the window plus the
``max_delay`` samples before it, at frame positions taken modulo the
frame length (either may wrap across the frame end), which is exact for
every sample of the window.  That segment is gathered straight from the
quantized symbol's repetition train; the frame itself is never built.
The channel output keeps its ``max_delay`` tail, so ``window_len + 2 *
max_delay`` samples are propagated, and the header's saturation count
covers exactly those.

Only the noise and interferer phases differ between snapshots, so the
tap convolution of the segment is computed once per campaign and each
snapshot adds its own interference and noise to a copy of it.  Noise
for snapshot k comes from an independent PCG64 stream spawned from the
channel seed with key (k,), drawn over the propagated samples (the
``"pcg64-window"`` scheme named in the header), so any snapshot can be
reproduced without generating its predecessors.  A static channel (no
noise, no interferer) gives every snapshot the same samples, so it is
simulated, quantized and averaged once and its saturation count is
multiplied by the snapshot count.

Capture files are a fixed 10-byte prologue, a JSON header, then the raw
snapshot payload::

    bytes 0..3   magic "CSND"
    bytes 4..5   format version, uint16 LE (currently 1)
    bytes 6..9   header length in bytes, uint32 LE
    header       UTF-8 JSON: config, channel digest, PRNG name + seed,
                 creation time, saturation count
    payload      per snapshot, signal_len records of int16 LE I then Q

With the standard configuration a snapshot is 4 KiB every 5 ms, about
0.8 MB/s of sustained capture rate.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .averager import Snapshot, select_and_average
from .channel import (
    ChannelModel,
    add_interference_and_noise,
    apply_channel,
    channel_digest,
    convolve_taps,
    validate_config,
)
from .config import SounderConfig, config_from_dict, config_to_dict, from_json
from .errors import CaptureFormatError, ConfigurationError, ValidationError
from .fixedpoint import SAMPLE_DTYPE, quantize_clipped
from .sync import PpsSchedule, receiver_offset
from .waveform import build_sounding_symbol, occupied_bins, tx_frame_samples

MAGIC = b"CSND"
FORMAT_VERSION = 1
_PROLOGUE = struct.Struct("<4sHI")


@dataclass
class Capture:
    """All ``config.num_snapshots`` snapshots of one campaign, with provenance.

    ``channel_digest`` fingerprints the channel model file so captures
    can be traced back to the exact propagation scenario; ``created``
    is an ISO 8601 UTC timestamp.  The trigger schedule is deliberately
    not part of a capture: under flank-independent scheduling the start
    flanks leave no trace in the data, so captures taken at different
    flanks are byte-identical.
    """

    config: SounderConfig
    channel_digest: str
    prng: str
    seed: int
    created: str
    clipped_components: int
    snapshots: list[Snapshot]

    def __post_init__(self) -> None:
        if len(self.snapshots) != self.config.num_snapshots:
            raise ConfigurationError(
                f"config num_snapshots {self.config.num_snapshots} does not "
                f"match the {len(self.snapshots)} snapshots held")

    @property
    def payload_bytes(self) -> int:
        """Size of the snapshot payload on disk."""
        return len(self.snapshots) * self.config.signal_len * SAMPLE_DTYPE.itemsize


def _timestamp(created: str | None) -> str:
    """Resolve the capture timestamp.

    Explicit value wins; otherwise the SOURCE_DATE_EPOCH environment
    variable (for reproducible output), otherwise the current time.
    """
    if created is not None:
        return created
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        try:
            stamp = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
        except (ValueError, OverflowError, OSError) as exc:
            raise ConfigurationError(
                f"SOURCE_DATE_EPOCH must be a Unix time in whole seconds, got {epoch!r}"
            ) from exc
    else:
        stamp = datetime.now(tz=timezone.utc)
    return stamp.isoformat(timespec="seconds")


def snapshot_rng(seed: int, snapshot_index: int) -> np.random.Generator:
    """The noise generator for one snapshot of a campaign."""
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(snapshot_index,))
    return np.random.Generator(np.random.PCG64(seq))


def run_campaign(
    cfg: SounderConfig,
    model: ChannelModel,
    schedule: PpsSchedule | None = None,
    *,
    created: str | None = None,
) -> Capture:
    """Simulate a full campaign: ``cfg.num_snapshots`` averaged snapshots.

    Args:
        cfg: sounder configuration.
        model: channel between TX and RX.
        schedule: trigger schedule; defaults to both devices on flank 0
            with zero timing error.
        created: capture timestamp override (ISO 8601).  With a fixed
            value the output is bit-reproducible.

    Raises:
        ValidationError: the configuration cannot measure this channel
            at the schedule's timing error.
        SchedulingError: no schedule is given and the config's period
            does not divide one second.
    """
    if schedule is None:
        schedule = PpsSchedule(
            rep_period_s=cfg.rep_period_s, sample_period_s=cfg.sample_period_s
        )
    elif (schedule.rep_period_s != cfg.rep_period_s
          or schedule.sample_period_s != cfg.sample_period_s):
        raise ValidationError("schedule and config disagree on periods")
    offset = receiver_offset(schedule)
    report = validate_config(cfg, model, offset)
    if not report.passed:
        raise ValidationError(f"configuration cannot measure channel:\n{report}")

    wf = build_sounding_symbol(cfg.zc, cfg.signal_len, cfg.backoff)
    frame_len = cfg.frame_len
    acfg = cfg.averager_config()

    # The receiver sees frame[(n - offset) mod frame_len]; its window
    # needs only its own transmit samples and the max_delay before them.
    tail = model.max_delay
    window_len = acfg.window_len
    segment = tx_frame_samples(wf, cfg, -tail - offset, tail + window_len)

    if model.noise_std == 0 and not model.interferers:
        # A static channel adds nothing that depends on the snapshot
        # index: every snapshot is snapshot 0, each in its own row.
        result = apply_channel(segment, model, start_index=-tail)
        first = select_and_average(result.samples[tail : tail + window_len], acfg)
        block = np.repeat(first.data[np.newaxis], cfg.num_snapshots, axis=0)
        snapshots = [Snapshot(data=row, snapshot_index=k, config=acfg)
                     for k, row in enumerate(block)]
        clipped = cfg.num_snapshots * result.clipped_components
    else:
        taps_out = convolve_taps(segment, model)  # the same for every snapshot
        received = np.empty_like(taps_out)
        snapshots, clipped = [], 0
        for k in range(cfg.num_snapshots):
            np.copyto(received, taps_out)
            add_interference_and_noise(
                received, model, start_index=k * frame_len - tail,
                rng=snapshot_rng(model.seed, k),
            )
            samples, count = quantize_clipped(received)
            clipped += count
            stream = samples[tail : tail + window_len]
            snapshots.append(select_and_average(stream, acfg, snapshot_index=k))

    return Capture(
        config=cfg,
        channel_digest=channel_digest(model),
        prng="pcg64-window",
        seed=model.seed,
        created=_timestamp(created),
        clipped_components=clipped,
        snapshots=snapshots,
    )


def report_reduction(cfg: SounderConfig) -> float:
    """On-device data reduction factor: input samples per stored sample."""
    return cfg.frame_len / cfg.signal_len


def storage_rate_bytes(cfg: SounderConfig) -> float:
    """Sustained capture output rate in bytes per second."""
    return cfg.signal_len * SAMPLE_DTYPE.itemsize / cfg.rep_period_s


def _header_dict(capture: Capture) -> dict:
    dc_included = bool(0 in occupied_bins(capture.config.zc.length,
                                          capture.config.signal_len))
    return {
        "format": MAGIC.decode("ascii"),
        "version": FORMAT_VERSION,
        "config": config_to_dict(capture.config),
        "channel_digest": capture.channel_digest,
        "prng": capture.prng,
        "seed": capture.seed,
        "created": capture.created,
        "clipped_components": capture.clipped_components,
        "dc_bin_included": dc_included,
        "snapshot_count": len(capture.snapshots),
    }


def write_capture(path, capture: Capture) -> None:
    """Write a capture file (see module docstring for the layout)."""
    header = json.dumps(_header_dict(capture), sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_PROLOGUE.pack(MAGIC, FORMAT_VERSION, len(header)))
        fh.write(header)
        for snap in capture.snapshots:
            fh.write(snap.data.tobytes())


def read_capture(path) -> Capture:
    """Read a capture file back into a :class:`Capture`.

    Raises:
        CaptureFormatError: bad magic, unsupported version, malformed
            header, or payload size mismatch.
    """
    with open(path, "rb") as fh:
        raw = bytearray(fh.read())  # writable, so snapshot data is too
    if len(raw) < _PROLOGUE.size:
        raise CaptureFormatError(f"file too short for prologue: {len(raw)} bytes")
    magic, version, header_len = _PROLOGUE.unpack_from(raw)
    if magic != MAGIC:
        raise CaptureFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise CaptureFormatError(
            f"unsupported format version {version}, expected {FORMAT_VERSION}"
        )
    header_end = _PROLOGUE.size + header_len
    if len(raw) < header_end:
        raise CaptureFormatError("file too short for declared header length")
    try:
        header = json.loads(raw[_PROLOGUE.size : header_end].decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an over-long integer
        raise CaptureFormatError(f"malformed capture header: {exc}") from exc
    try:
        cfg = config_from_dict(header["config"])
        count = header["snapshot_count"]
        meta = {key: header[key] for key in
                ("channel_digest", "prng", "seed", "created", "clipped_components")}
    except (KeyError, TypeError, ConfigurationError) as exc:
        raise CaptureFormatError(f"capture header missing or invalid fields: {exc}") from exc
    for key, bound in (("snapshot_count", math.inf), ("seed", 2**64),
                       ("clipped_components", math.inf)):
        if type(header[key]) is not int:
            raise CaptureFormatError(
                f"capture header {key} must be an integer, got {header[key]!r}")
        if not 0 <= header[key] < bound:
            raise CaptureFormatError(
                f"capture header {key} must be in [0, {bound}), got {header[key]}")
    record_bytes = cfg.signal_len * SAMPLE_DTYPE.itemsize
    expected = count * record_bytes
    payload = memoryview(raw)[header_end:]
    if len(payload) != expected:
        raise CaptureFormatError(
            f"payload is {len(payload)} bytes, expected {expected} "
            f"({count} snapshots x {record_bytes})"
        )
    try:  # an empty capture can declare a signal_len too large to address
        data = np.frombuffer(payload, SAMPLE_DTYPE).reshape(count, cfg.signal_len)
    except ValueError as exc:
        raise CaptureFormatError(f"unaddressable snapshot records: {exc}") from exc
    acfg = cfg.averager_config()
    snapshots = [Snapshot(data=row, snapshot_index=k, config=acfg)
                 for k, row in enumerate(data)]
    try:
        return from_json(Capture, meta, config=cfg, snapshots=snapshots)
    except ConfigurationError as exc:
        raise CaptureFormatError(f"capture header {exc}") from exc
