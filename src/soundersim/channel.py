"""Tapped delay line channel with noise and narrowband interferers.

The propagation model is deliberately simple and exactly reproducible:

* multipath as a tapped delay line with integer-sample delays and
  complex gains,
* additive white Gaussian noise, independent per I/Q component,
* optional continuous-wave interferers whose phase is a function of the
  absolute sample index, so consecutive stream chunks join seamlessly.

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

import hashlib
import json
import numbers
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import fixedpoint
from .config import MALFORMED, SounderConfig, from_json, read_json
from .errors import ConfigurationError
from .fixedpoint import BLOCK_LEN


def _is_integer(value) -> bool:
    """True for integers; floats would be truncated and bools are not counts."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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

    Each output sample sums its echoes in tap order.

    Returns:
        complex128 array of ``len(tx) + model.max_delay`` samples: the
        full convolution tail is kept so no echo is dropped.
    """
    out = np.zeros(len(tx) + model.max_delay, dtype=np.complex128)
    echo = np.empty(min(len(tx), BLOCK_LEN), dtype=np.complex128)
    for delay, gain in model.taps:
        for lo in range(0, len(tx), BLOCK_LEN):
            tx_float = fixedpoint.to_float(tx[lo : lo + BLOCK_LEN])
            # Not in place: numpy's in-place complex product may take a
            # vector loop that fuses the multiply-add and rounds apart.
            product = np.multiply(gain, tx_float, out=echo[: len(tx_float)])
            out[delay + lo : delay + lo + len(tx_float)] += product
    return out


def add_interference_and_noise(
    out: np.ndarray,
    model: ChannelModel,
    start_index: int = 0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Add the interferer tones, then the noise, to ``out`` in place.

    Args:
        out: channel output (complex128).
        model: channel description.
        start_index: absolute index of ``out[0]`` in the stream;
            interferer phases are evaluated against absolute indices so
            chunked processing is seamless.
        rng: noise generator; defaults to a fresh PCG64 seeded with
            ``model.seed``.  All real parts are drawn before the
            imaginary parts.

    Returns:
        ``out``.
    """
    starts = range(0, len(out), BLOCK_LEN)
    for tone in model.interferers:
        for lo in starts:
            block = out[lo : lo + BLOCK_LEN]
            index = np.arange(start_index + lo, start_index + lo + len(block),
                              dtype=np.float64)
            # The fractional cycle before the 2*pi multiply keeps the
            # phase accurate at large absolute indices; x - floor(x)
            # rounds the same exact value as np.mod(x, 1.0), once.
            cycles = tone.freq * index
            phase = 2.0 * np.pi * (cycles - np.floor(cycles)) + tone.phase
            block += tone.amplitude * np.exp(1j * phase)

    if model.noise_std > 0:
        if rng is None:
            rng = np.random.default_rng(model.seed)
        draw = np.empty(min(len(out), BLOCK_LEN))
        for part in (out.real, out.imag):
            for lo in starts:
                block = part[lo : lo + BLOCK_LEN]
                noise = draw[: len(block)]
                rng.standard_normal(out=noise)
                noise *= model.noise_std
                block += noise
    return out


def propagate_float(
    tx: np.ndarray,
    model: ChannelModel,
    start_index: int = 0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Float-domain channel output, before requantization.

    :func:`convolve_taps` followed by :func:`add_interference_and_noise`;
    ``start_index`` is the absolute index of ``tx[0]`` in the transmit
    stream.  Returns ``len(tx) + model.max_delay`` complex128 samples.
    """
    out = convolve_taps(tx, model)
    return add_interference_and_noise(out, model, start_index=start_index, rng=rng)


def apply_channel(
    tx: np.ndarray,
    model: ChannelModel,
    start_index: int = 0,
    rng: np.random.Generator | None = None,
) -> ChannelResult:
    """Propagate ``tx`` through the channel and requantize.

    Deterministic: the same arguments always produce bit-identical
    samples.  Saturated I/Q components are clipped to the rails and
    counted.
    """
    received = propagate_float(tx, model, start_index=start_index, rng=rng)
    return ChannelResult(*fixedpoint.quantize_clipped(received))


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
    data = asdict(model)
    data["taps"] = [{"delay": d, "gain": [g.real, g.imag]} for d, g in model.taps]
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(channel_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_channel(path) -> ChannelModel:
    """Read a channel model written by :func:`save_channel`."""
    return channel_from_dict(read_json(path, "channel"))
