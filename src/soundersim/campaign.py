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
every sample of the window.  The channel output keeps its ``max_delay``
tail, so ``window_len + 2 * max_delay`` samples are propagated, and the
header's saturation count covers exactly those.  Inside the repetition
train the segment repeats the symbol, so wherever every tap reads the
train the noiseless tap sum repeats every ``signal_len`` samples.
:func:`tap_sum` convolves one such period and the two edges around it
(echoes of the zero fill before the train; the convolution tail after
it, as the train check keeps the train's end out of every earlier
output), bit-identical to convolving the whole segment; neither the
segment nor the frame is built, and an empty edge is neither gathered
nor convolved.

Only the noise and interferer phases differ between snapshots, so the
tap sum is computed once per campaign, for static and noisy channels
alike, and each noisy snapshot lays its pieces out in a complex buffer
(:meth:`TapSum.fill`) and adds its own interference and noise.  Noise
for snapshot k comes from an independent PCG64 stream spawned from the
channel seed with key (k,), drawn over the propagated samples (the
``"pcg64-window"`` scheme named in the header), so any snapshot can be
reproduced without generating its predecessors.  So they run on up to one thread per usable core,
worker w of W taking snapshots w, w + W, ... on buffers it allocates once
per campaign (the window's complex128 samples, their int16 image and
float64 scratch for the tones and noise, about 1.8 MiB at the default
config), quantizing and averaging in place, and a capture's payload is the
same across runs, hosts, core counts and trigger flanks.  A static
channel (no noise, no interferer) gives every snapshot the same
samples, and :func:`validate_config` puts its whole averaging window in
the tap sum's periodic part, so every averaged symbol is the quantized
period rotated to the window's phase.  Its non-empty pieces are quantized
once, for the saturation count, which is multiplied by the snapshot
count, and the rotated period is averaged once as ``avg_count`` repeats
of itself (:func:`average_repeated`): the window is never laid out, so
neither time nor memory grows with ``avg_count``.  No step calls the
long-stream oracle that tests compare campaigns against.

Capture files are a fixed 10-byte prologue, a JSON header, then the raw
snapshot payload::

    bytes 0..3   magic "CSND"
    bytes 4..5   format version, uint16 LE (currently 1)
    bytes 6..9   header length in bytes, uint32 LE
    header       UTF-8 JSON, keys sorted: format, version, config, channel_digest,
                 prng, seed, created, clipped_components, dc_bin_included, snapshot_count
    payload      the (snapshot_count, signal_len) block of int16 LE I, Q

With the standard configuration a snapshot is 4 KiB every 5 ms, about
0.8 MB/s of sustained capture rate.
"""

from __future__ import annotations

import json
import math
import os
import stat
import struct
import threading
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import NamedTuple

import numpy as np

from .averager import AveragerConfig, average_repeated, select_and_average
from .channel import (
    SCRATCH_LEN,
    ChannelModel,
    add_interference_and_noise,
    channel_digest,
    convolve_taps,
    validate_config,
)
from .config import SounderConfig, check_field_types, config_from_dict, config_to_dict
from .errors import CaptureFormatError, ConfigurationError, ValidationError
from .fixedpoint import SAMPLE_DTYPE, quantize_clipped, quantize_in_place
from .sync import PpsSchedule, receiver_offset
from .waveform import SoundingWaveform, build_sounding_symbol, tx_frame_samples

MAGIC = b"CSND"
FORMAT_VERSION = 1
_PROLOGUE = struct.Struct("<4sHI")


@dataclass
class Capture:
    """All ``config.num_snapshots`` snapshots of one campaign, with provenance.

    ``snapshots`` is the payload, one C-contiguous ``(num_snapshots, signal_len)``
    ``SAMPLE_DTYPE`` block; a list of rows or of ``Snapshot`` objects converts to it.
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
    snapshots: np.ndarray

    def __post_init__(self) -> None:
        check_field_types(self)  # what read_capture rejects, write_capture must too
        for key, bound in (("seed", 2**64), ("clipped_components", math.inf)):
            if not 0 <= getattr(self, key) < bound:
                raise ConfigurationError(
                    f"{key} must be in [0, {bound}), got {getattr(self, key)}")
        if len(self.snapshots) != self.config.num_snapshots:
            raise ConfigurationError(
                f"config num_snapshots {self.config.num_snapshots} does not "
                f"match the {len(self.snapshots)} snapshots held")
        shape = (self.config.num_snapshots, self.config.signal_len)
        try:  # an empty list has no rows to give the block its shape and dtype
            self.snapshots = np.ascontiguousarray(
                self.snapshots if len(self.snapshots) else np.empty(shape, SAMPLE_DTYPE))
        except ValueError as exc:  # ragged rows
            raise ConfigurationError(f"snapshots must form one {shape} block: {exc}") from exc
        if self.snapshots.shape != shape or self.snapshots.dtype != SAMPLE_DTYPE:
            raise ConfigurationError(f"snapshots must form one {shape} {SAMPLE_DTYPE} block, "
                                     f"got {self.snapshots.shape} {self.snapshots.dtype}")

    @property
    def payload_bytes(self) -> int:
        """Size of the snapshot payload on disk."""
        return self.snapshots.nbytes


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


def _usable_cores() -> int:
    """Cores this process may run on: one campaign thread or export process each."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


class TapSum(NamedTuple):
    """A tap sum in pieces: ``head`` up to ``start``, then ``period`` repeated
    from its first sample, then ``tail``, the last ``len(tail)`` outputs."""

    head: np.ndarray
    period: np.ndarray
    start: int
    tail: np.ndarray

    def fill(self, out: np.ndarray) -> np.ndarray:
        """Write the whole tap sum into ``out``, of any dtype, and return it.

        A noisy worker fills its window buffer each snapshot; a static
        campaign fills nothing, as it averages one rotated period."""
        stop = len(out) - len(self.tail)
        whole, rest = divmod(stop - self.start, len(self.period))
        out[: self.start] = self.head
        out[self.start : stop - rest].reshape(whole, len(self.period))[:] = self.period
        out[stop - rest : stop] = self.period[:rest]
        out[stop:] = self.tail
        return out


def tap_sum(wf: SoundingWaveform, cfg: SounderConfig, model: ChannelModel,
            offset: int) -> TapSum:
    """:func:`convolve_taps` over the ``max_delay + window_len`` link samples
    from ``-max_delay - offset`` on, which a snapshot's window reads.

    ``offset`` is the receiver offset, in ``[0, frame_len)``.  Each
    output gets the same arithmetic as over the whole gathered segment,
    bit for bit, from only the samples it reads.  If :func:`validate_config`
    passes, outputs from ``start`` up to the last ``max_delay`` read the train.
    """
    tail = model.max_delay
    seg_len = tail + cfg.averager_config().window_len
    # The train starts at segment index tail + lag, the offset read as a signed
    # lag as validate_config reads it; outputs from start to seg_len read it alone.
    start = max(tail + offset - (cfg.frame_len if 2 * offset > cfg.frame_len else 0), 0) + tail

    def outputs(lo: int, hi: int) -> np.ndarray:
        """Outputs ``lo`` to ``hi - 1``, from the segment samples they read."""
        if lo >= hi:  # a cable's tail: no samples to gather or convolve
            return np.empty(0, np.complex128)
        first = max(lo - tail, 0)
        piece = tx_frame_samples(wf, cfg, first - tail - offset, min(hi, seg_len) - first)
        return convolve_taps(piece, model)[lo - first : hi - first]

    lead = outputs(0, start + cfg.signal_len)
    return TapSum(lead[:start], lead[start:], start, outputs(seg_len, seg_len + tail))


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
        ConfigurationError: ``created`` is not given and
            ``SOURCE_DATE_EPOCH`` is malformed; raised before any
            snapshot is simulated.
    """
    created = _timestamp(created)
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
    tail = model.max_delay
    window_len = acfg.window_len
    taps = tap_sum(wf, cfg, model, offset)  # the same for every snapshot
    if model.noise_std == 0 and not model.interferers:
        # A static channel adds nothing that depends on the snapshot index, and
        # validate_config puts the averaging window in the tap sum's periodic
        # part: every row is the quantized period, rotated to the window's
        # phase and averaged as avg_count repeats of itself.  The window is
        # whole symbols ending rest samples into a period, so that is its phase.
        whole, rest = divmod(tail + window_len - taps.start, cfg.signal_len)
        (_, h), (period, p), (_, t), (_, r) = (
            quantize_clipped(piece) if len(piece) else (None, 0)
            for piece in (taps.head, taps.period, taps.tail, taps.period[:rest]))
        words = period.view(np.uint32)  # whole samples, moved faster than a record dtype
        rotated = np.concatenate((words[rest:], words[:rest])).view(SAMPLE_DTYPE)
        symbol = AveragerConfig(cfg.signal_len, 0, 1, acfg.shift_bits)  # the period alone
        first = average_repeated(select_and_average(rotated, symbol), acfg)
        block = np.repeat(first.data[np.newaxis], cfg.num_snapshots, axis=0)
        clipped = cfg.num_snapshots * (h + whole * p + r + t)  # the whole tap sum's clips
    else:
        workers = min(_usable_cores(), cfg.num_snapshots)
        block = np.empty((cfg.num_snapshots, cfg.signal_len), SAMPLE_DTYPE)
        clips, errors = [0] * workers, []

        def work(w: int) -> None:
            """Snapshots w, w + workers, ... into their rows, on buffers of its own."""
            try:
                received = np.empty(window_len + 2 * tail, np.complex128)
                samples = np.empty(len(received), SAMPLE_DTYPE)
                scratch = np.empty((2, SCRATCH_LEN))
                for k in range(w, cfg.num_snapshots, workers):
                    if errors:  # another worker failed
                        return
                    add_interference_and_noise(taps.fill(received), model, k * frame_len - tail,
                                               snapshot_rng(model.seed, k), scratch)
                    clips[w] += quantize_in_place(received, samples)
                    block[k] = select_and_average(samples[tail : tail + window_len], acfg,
                                                  snapshot_index=k).data
            except BaseException as exc:  # raised again by the calling thread
                errors.append(exc)

        # Even a lone worker gets a thread: a worker thread's heap keeps
        # its pages between campaigns, the main thread's is trimmed.
        started = []
        try:
            for w in range(workers):
                thread = threading.Thread(target=work, args=(w,))
                thread.start()
                started.append(thread)
        except BaseException as exc:  # stops the workers already running
            errors.append(exc)
        for thread in started:
            thread.join()
        if errors:
            raise errors[0]
        clipped = sum(clips)

    return Capture(
        config=cfg,
        channel_digest=channel_digest(model),
        prng="pcg64-window",
        seed=model.seed,
        created=created,
        clipped_components=clipped,
        snapshots=block,
    )


def report_reduction(cfg: SounderConfig) -> float:
    """On-device data reduction factor: input samples per stored sample."""
    return cfg.frame_len / cfg.signal_len


def storage_rate_bytes(cfg: SounderConfig) -> float:
    """Sustained capture output rate in bytes per second."""
    return cfg.signal_len * SAMPLE_DTYPE.itemsize / cfg.rep_period_s


#: The :class:`Capture` fields a header holds under their own names.
_HEADER_FIELDS = ("channel_digest", "prng", "seed", "created", "clipped_components")


def _header_dict(capture: Capture) -> dict:
    cfg = capture.config
    return {
        "format": MAGIC.decode("ascii"),
        "version": FORMAT_VERSION,
        "config": config_to_dict(cfg),
        **{key: getattr(capture, key) for key in _HEADER_FIELDS},
        # occupied_bins centres the sequence on DC, so any sequence occupies bin 0
        "dc_bin_included": cfg.zc.length >= 1,
        "snapshot_count": cfg.num_snapshots,
    }


def _same_file(a, b) -> bool:
    """Whether ``a`` and ``b`` both exist and are one file (symlinks and hard links too)."""
    try:
        return os.path.samefile(a, b)
    except (OSError, TypeError):  # a missing file, or a map without a name
        return False


def write_capture(path, capture: Capture) -> None:
    """Write a capture file (see module docstring for the layout)."""
    header = json.dumps(_header_dict(capture), sort_keys=True).encode("utf-8")
    mapped = capture.snapshots
    while isinstance(mapped, np.ndarray) and not isinstance(mapped, np.memmap):
        mapped = mapped.base  # attribute reads: no system call for a payload in memory
    if isinstance(mapped, np.memmap) and _same_file(path, mapped.filename):
        capture.snapshots = np.array(capture.snapshots)  # as truncating unmaps the file
    with open(path, "wb") as fh:
        fh.write(_PROLOGUE.pack(MAGIC, FORMAT_VERSION, len(header)))
        fh.write(header)
        fh.write(capture.snapshots)


def read_capture(path) -> Capture:
    """Read a capture file back into a :class:`Capture`.

    A regular file's payload is mapped copy-on-write, not read: the snapshots are
    a writable ``ndarray`` view of it that never writes the file, file-backed pages
    (shared with forked children) that count in RSS once touched but not in
    ``tracemalloc``.  Changing the file in place while it is read is undefined
    (the kernel may raise SIGBUS); replacing it by rename is safe.  A pipe, and
    an empty payload, are read into one writable buffer.

    Raises:
        CaptureFormatError: bad magic, unsupported version, malformed
            header, or payload size mismatch.
    """
    with open(path, "rb") as fh:
        info = os.fstat(fh.fileno())
        mapped = stat.S_ISREG(info.st_mode)
        raw = bytearray(fh.read(_PROLOGUE.size))
        while not mapped and (chunk := fh.read1()):  # a pipe: every byte, in one buffer
            raw += chunk
        size = info.st_size if mapped else len(raw)
        if len(raw) < _PROLOGUE.size:
            raise CaptureFormatError(f"file too short for prologue: {size} bytes")
        magic, version, header_len = _PROLOGUE.unpack_from(raw)
        if magic != MAGIC:
            raise CaptureFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
        if version != FORMAT_VERSION:
            raise CaptureFormatError(
                f"unsupported format version {version}, expected {FORMAT_VERSION}"
            )
        header_end = _PROLOGUE.size + header_len
        if size < header_end:
            raise CaptureFormatError("file too short for declared header length")
        raw += fh.read(header_len if mapped else 0)
        try:
            header = json.loads(raw[_PROLOGUE.size : header_end].decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or JSON, or an over-long integer
            raise CaptureFormatError(f"malformed capture header: {exc}") from exc
        try:
            cfg = config_from_dict(header["config"])
            declared = header["snapshot_count"]
            meta = {key: header[key] for key in _HEADER_FIELDS}
        except (KeyError, TypeError, ConfigurationError) as exc:
            raise CaptureFormatError(f"capture header missing or invalid fields: {exc}") from exc
        count = cfg.num_snapshots
        if type(declared) is not int or declared != count:
            raise CaptureFormatError(f"capture header snapshot_count must be the config's "
                                     f"num_snapshots, {count}, got {declared!r}")
        record_bytes = cfg.signal_len * SAMPLE_DTYPE.itemsize
        expected = count * record_bytes
        if size - header_end != expected:
            raise CaptureFormatError(
                f"payload is {size - header_end} bytes, expected {expected} "
                f"({count} snapshots x {record_bytes})"
            )
        shape = (count, cfg.signal_len)
        try:  # an empty capture can declare a signal_len too large to address
            data = (np.memmap(fh, SAMPLE_DTYPE, "c", header_end, shape).view(np.ndarray)
                    if mapped and expected else
                    np.frombuffer(memoryview(raw)[header_end:], SAMPLE_DTYPE).reshape(shape))
        except ValueError as exc:
            raise CaptureFormatError(f"unaddressable snapshot records: {exc}") from exc
    try:
        return Capture(config=cfg, snapshots=data, **meta)
    except ConfigurationError as exc:
        raise CaptureFormatError(f"capture header {exc}") from exc
