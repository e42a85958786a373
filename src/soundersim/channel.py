"""Tapped delay line channel with noise and narrowband interferers.

The propagation model is deliberately simple and exactly reproducible:

* multipath as a tapped delay line with integer-sample delays and
  complex gains,
* additive white Gaussian noise, independent per I/Q component,
* optional continuous-wave interferers whose value is a function of the
  absolute sample index alone, so consecutive stream chunks join
  seamlessly, bit for bit.

An interferer of frequency f, amplitude A and phase φ adds
``A·exp(i(2π·frac(f·n) + φ))`` at absolute sample index n.  It is
evaluated as ``(A·e^{iφ}·C[n >> 16])·M[(n >> 8) & 255]·F[n & 255]``,
where each table entry is ``exp(2πi·frac(f·m))`` for its part m of n,
with ``frac`` taken exactly in integers.  So the error is a few ulp of
the amplitude at any n, however large (at most 4e-15·A is tested).
Complex products are written as real ufunc calls, which round the same
on every host: numpy's complex multiply fuses a multiply-add on some
CPUs and not on others.

Outputs are quantized back to the 16-bit sample domain, counting
saturated components, because that is what the receiver hardware would
digitize.

The module also hosts the deployment feasibility checks that relate a
sounder configuration to a channel: the symbol must be longer than the
channel's delay spread (otherwise echoes of one symbol bleed past the
circular window), and the post-trigger discard must cover the first
arrival plus one settling symbol (otherwise averaging starts on a
partial symbol).
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fixedpoint
from .config import MALFORMED, SounderConfig, _is_integer, from_json, read_json, to_dict, write_json
from .errors import ConfigurationError
from .fixedpoint import BLOCK_LEN


@dataclass(frozen=True)
class Interferer:
    """One continuous-wave interferer at the receiver input.

    Attributes:
        freq: tone frequency in cycles per sample, in (-0.5, 0.5].
        amplitude: peak amplitude as a fraction of full scale (>= 0).
        phase: phase in radians at absolute sample index 0.
    """

    freq: float
    amplitude: float
    phase: float = 0.0

    def __post_init__(self) -> None:
        if not -0.5 < self.freq <= 0.5:
            raise ConfigurationError(
                f"interferer freq must be in (-0.5, 0.5] cycles/sample, got {self.freq}"
            )
        if not (np.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ConfigurationError(
                f"interferer amplitude must be finite and >= 0, got {self.amplitude}"
            )
        if not np.isfinite(self.phase):
            raise ConfigurationError(f"interferer phase must be finite, got {self.phase}")


@dataclass(frozen=True)
class ChannelModel:
    """Static description of everything between TX DAC and RX ADC.

    Attributes:
        taps: (delay_samples, complex gain) pairs; delays are unique
            integers >= 0.
        noise_std: per-component standard deviation of the additive
            Gaussian noise, in full-scale units.
        interferers: continuous-wave interferers.
        seed: base seed for the noise generator (PCG64); snapshot k of
            a campaign uses the child stream spawned with key (k,).
    """

    taps: tuple[tuple[int, complex], ...]
    noise_std: float = 0.0
    interferers: tuple[Interferer, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if not all(_is_integer(d) for d, _ in self.taps):
            raise ConfigurationError(
                f"tap delays must be integers, got {[d for d, _ in self.taps]}")
        if not _is_integer(self.seed):
            raise ConfigurationError(f"seed must be an integer, got {self.seed!r}")
        taps = tuple((int(d), complex(g)) for d, g in self.taps)
        object.__setattr__(self, "taps", taps)
        object.__setattr__(self, "interferers", tuple(self.interferers))
        object.__setattr__(self, "seed", int(self.seed))
        if not taps:
            raise ConfigurationError("channel must have at least one tap")
        delays = [d for d, _ in taps]
        if any(d < 0 for d in delays):
            raise ConfigurationError(f"tap delays must be >= 0, got {delays}")
        if len(set(delays)) != len(delays):
            raise ConfigurationError(f"tap delays must be unique, got {delays}")
        if not np.all(np.isfinite([g for _, g in taps])):
            raise ConfigurationError(f"tap gains must be finite, got {taps}")
        if not (np.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ConfigurationError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed must be an unsigned 64-bit int, got {self.seed}")

    @property
    def first_arrival(self) -> int:
        """Delay of the earliest tap, in samples."""
        return min(d for d, _ in self.taps)

    @property
    def max_delay(self) -> int:
        """Delay of the latest tap, in samples."""
        return max(d for d, _ in self.taps)

    @property
    def delay_span(self) -> int:
        """Spread between first and last arrival, in samples."""
        return self.max_delay - self.first_arrival


class ChannelResult(NamedTuple):
    """Quantized channel output plus saturation diagnostics."""

    samples: np.ndarray  # SAMPLE_DTYPE
    clipped_components: int


def convolve_taps(tx: np.ndarray, model: ChannelModel) -> np.ndarray:
    """The tapped delay line's output: the part that depends only on ``tx``.

    Each output sample sums its echoes in tap order, ``tx`` converted to
    float once, with no block loop (see ``fixedpoint.BLOCK_LEN``).

    Returns:
        complex128 array of ``len(tx) + model.max_delay`` samples: the
        full convolution tail is kept so no echo is dropped.
    """
    out = np.zeros(len(tx) + model.max_delay, dtype=np.complex128)
    tx_float = fixedpoint.to_float(tx)
    echo = np.empty_like(tx_float)
    for delay, gain in model.taps:
        # Not in place: numpy's in-place complex product may take a
        # vector loop that fuses the multiply-add and rounds apart.
        out[delay : delay + len(tx)] += np.multiply(gain, tx_float, out=echo)
    return out


#: An interferer's sample index n splits into ``n >> 16``, ``(n >> 8) & 255``
#: and ``n & 255``; a row is the 256 samples that share ``n >> 8``.
_ROW = 256


def _phasors(freq: float, parts: range) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of ``exp(2πi·frac(freq·m))`` for m in ``parts``.

    ``freq`` is exactly ``p / 2**e``, so the fractional cycle is the
    residue of ``p·m`` modulo ``2**e``, centred on [-1/2, 1/2) in
    integers; only its conversion to float rounds.
    """
    p, q = freq.as_integer_ratio()
    half = q // 2
    residues = [((p * m + half) & (q - 1)) - half for m in parts]
    turns = np.ldexp(np.array(residues, dtype=np.float64), 1 - q.bit_length())
    angle = np.zeros(len(turns), dtype=np.complex128)
    angle.imag = 2.0 * np.pi * turns
    phasor = np.exp(angle)
    return phasor.real, phasor.imag


def _cmul(ar, ai, br, bi):
    """``(ar + i·ai)·(br + i·bi)`` as real ufunc calls, unfused on every host."""
    return ar * br - ai * bi, ar * bi + ai * br


@functools.lru_cache(maxsize=16)
def _row_tables(freq: float) -> tuple[np.ndarray, ...]:
    """The tables of a tone that depend on its frequency alone, read-only:
    ``M``'s real and imaginary parts, then ``F`` and ``i·F`` as (re, im) pairs."""
    mid_r, mid_i = _phasors(freq * 256, range(_ROW))
    fine_r, fine_i = _phasors(freq, range(_ROW))
    tables = (mid_r, mid_i, np.stack([fine_r, fine_i], axis=-1),
              np.stack([-fine_i, fine_r], axis=-1))
    for table in tables:
        table.flags.writeable = False
    return tables


#: Doubles in each of the two rows of the scratch that the tone and noise
#: loops work in: 64 tone rows, or 8 × ``BLOCK_LEN`` noise draws over both rows.
SCRATCH_LEN = 4 * BLOCK_LEN


def _add_tone(out: np.ndarray, tone: Interferer, start_index: int, scratch: np.ndarray) -> None:
    """Add ``tone`` at absolute indices ``start_index, ...`` to ``out`` in place.

    Each row's coarse value ``A·e^{iφ}·C·M = rr + i·ri`` is computed once.
    A block of rows times ``F`` is ``rr·F + ri·(i·F)`` over interleaved
    (re, im) pairs, the same real arithmetic as :func:`_cmul`, worked out
    in the two rows of ``scratch`` and added to the piece of ``out`` it covers.
    """
    first, last = start_index >> 8, (start_index + len(out) - 1) >> 8
    spin = np.exp(complex(0.0, tone.phase))
    top_r, top_i = _cmul(tone.amplitude * spin.real, tone.amplitude * spin.imag,
                         *_phasors(tone.freq * 65536, range(first >> 8, (last >> 8) + 1)))
    mid_r, mid_i, fine, fine_times_i = _row_tables(tone.freq)
    rows = np.arange(first, last + 1)
    top, mid = (rows >> 8) - (first >> 8), rows & 255
    row_r, row_i = _cmul(top_r[top], top_i[top], mid_r[mid], mid_i[mid])
    per_block = scratch.shape[1] // (2 * _ROW)
    pairs, product = (part[: per_block * 2 * _ROW].reshape(per_block, _ROW, 2)
                      for part in scratch)
    for r in range(0, len(rows), per_block):
        k = min(per_block, len(rows) - r)
        np.multiply(row_r[r : r + k, np.newaxis, np.newaxis], fine, out=pairs[:k])
        np.multiply(row_i[r : r + k, np.newaxis, np.newaxis], fine_times_i,
                    out=product[:k])
        np.add(pairs[:k], product[:k], out=pairs[:k])
        block = pairs[:k].view(np.complex128).reshape(-1)
        lo = (first + r) * _ROW - start_index  # where the block starts in ``out``
        a, b = max(lo, 0), min(lo + len(block), len(out))
        out[a:b] += block[a - lo : b - lo]


def add_interference_and_noise(
    out: np.ndarray,
    model: ChannelModel,
    start_index: int = 0,
    rng: np.random.Generator | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Add the interferer tones, then the noise, to ``out`` in place.

    Interferer ``(f, A, φ)`` adds ``A·exp(i(2π·frac(f·n) + φ))`` at
    absolute index n, evaluated from exact fractional cycles (see the
    module docstring): within a few ulp of A at any n, and bit-identical
    however the stream is cut into chunks.

    Args:
        out: channel output (complex128).
        model: channel description.
        start_index: absolute index of ``out[0]`` in the stream.
        rng: noise generator; defaults to a fresh PCG64 seeded with
            ``model.seed``.  All real parts are drawn before the
            imaginary parts.
        scratch: float64 ``(2, n)`` work space, ``n`` a multiple of 512, for
            a caller that reuses it; made to fit ``out`` if not given.

    Returns:
        ``out``.
    """
    if scratch is None:
        scratch = np.empty((2, min(-(-max(len(out), 1) // 512) * 512, SCRATCH_LEN)))
    for tone in model.interferers:
        _add_tone(out, tone, start_index, scratch)

    if model.noise_std > 0:
        if rng is None:
            rng = np.random.default_rng(model.seed)
        draw = scratch.reshape(-1)
        for part in (out.real, out.imag):
            for lo in range(0, len(out), len(draw)):
                block = part[lo : lo + len(draw)]
                noise = draw[: len(block)]
                rng.standard_normal(out=noise)
                noise *= model.noise_std
                block += noise
    return out


def apply_channel(
    tx: np.ndarray,
    model: ChannelModel,
    start_index: int = 0,
    rng: np.random.Generator | None = None,
) -> ChannelResult:
    """Propagate ``tx`` through the channel and requantize, in one pass.

    The long-stream oracle that tests and ``bench/`` compare campaigns
    against (``run_campaign`` never calls it).  Deterministic: the same
    arguments always produce bit-identical samples.  The output is quantized
    in its own buffer, saturated I/Q components clipped to the rails and counted.
    """
    received = add_interference_and_noise(convolve_taps(tx, model), model, start_index, rng)
    samples = np.empty(len(received), fixedpoint.SAMPLE_DTYPE)
    return ChannelResult(samples, fixedpoint.quantize_in_place(received, samples))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one feasibility check."""

    name: str
    passed: bool
    margin_samples: int
    detail: str

    def __str__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"{verdict} {self.name} (margin {self.margin_samples} samples): {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    """All feasibility checks for one sounder/channel pairing."""

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        return "\n".join(str(c) for c in self.checks)


def validate_config(
    cfg: SounderConfig, model: ChannelModel, offset: int = 0
) -> ValidationReport:
    """Check that a sounder configuration can measure a channel.

    ``offset`` is the schedule's receiver offset (see
    :func:`soundersim.sync.receiver_offset`).  Read as a signed lag in
    (-frame_len/2, frame_len/2], it moves the channel's first arrival.
    Three conditions, all in whole samples:

    * symbol covers delay spread: ``signal_len`` must be strictly
      larger than the spread between first and last arrival, or echoes
      of adjacent symbols alias into the circular window;
    * discard covers settling: the first arrival plus one full symbol
      must fit inside ``discard_len``, so the averaging window starts
      only after every tap is fed by the repeated symbol train;
    * train covers the window: the transmit train, delayed by the
      first arrival, must last until the averaging window ends, or the
      last averaged symbol reads the zero fill after the train.
    """
    lag = offset % cfg.frame_len
    if 2 * lag > cfg.frame_len:
        lag -= cfg.frame_len
    arrival = model.first_arrival + lag
    span = model.delay_span
    span_margin = cfg.signal_len - span
    settle_margin = cfg.discard_len - (arrival + cfg.signal_len)
    train = cfg.train_repetitions * cfg.signal_len
    window_len = cfg.averager_config().window_len
    train_margin = arrival + train - window_len
    checks = (
        CheckResult(
            name="symbol covers delay spread",
            passed=span_margin > 0,
            margin_samples=span_margin,
            detail=f"signal_len {cfg.signal_len} vs delay span {span}",
        ),
        CheckResult(
            name="discard covers first arrival",
            passed=settle_margin >= 0,
            margin_samples=settle_margin,
            detail=(
                f"discard_len {cfg.discard_len} vs first arrival "
                f"{arrival} + signal_len {cfg.signal_len}"
            ),
        ),
        CheckResult(
            name="transmit train covers the averaging window",
            passed=train_margin >= 0,
            margin_samples=train_margin,
            detail=f"first arrival {arrival} + train {train} vs window_len {window_len}",
        ),
    )
    return ValidationReport(checks=checks)


def channel_to_dict(model: ChannelModel) -> dict:
    """JSON-ready dict representation (complex values as [re, im])."""
    data = to_dict(model)
    data["taps"] = [{"delay": d, "gain": [g.real, g.imag]} for d, g in model.taps]
    data["interferers"] = tuple(map(to_dict, model.interferers))
    return data


def _tap(delay, gain) -> tuple[int, complex]:
    """One ``{"delay", "gain": [re, im]}`` entry of a channel file."""
    re, im = gain
    if not (type(re) in (int, float) and type(im) in (int, float)):
        raise ConfigurationError(f"tap gain components must be numbers, got {gain!r}")
    return delay, complex(re, im)


def channel_from_dict(data: dict) -> ChannelModel:
    """Inverse of :func:`channel_to_dict`; field types are checked."""
    try:
        return from_json(
            ChannelModel, data,
            taps=tuple(_tap(**t) for t in data["taps"]),
            interferers=tuple(from_json(Interferer, t)
                              for t in data.get("interferers", ())),
        )
    except MALFORMED as exc:
        raise ConfigurationError(f"malformed channel model: {exc}") from exc


def channel_digest(model: ChannelModel) -> str:
    """SHA-256 over the canonical JSON form; file formatting agnostic."""
    canonical = json.dumps(channel_to_dict(model), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def save_channel(path, model: ChannelModel) -> None:
    """Write a channel model as JSON."""
    write_json(path, channel_to_dict(model), indent=2)


def load_channel(path) -> ChannelModel:
    """Read a channel model written by :func:`save_channel`."""
    return channel_from_dict(read_json(path, "channel"))
