"""Sounding waveform synthesis.

The transmitted signal is one OFDM-style symbol built from a Zadoff-Chu
sequence: the sequence is placed on a contiguous block of subcarriers
centered on DC, everything else is left empty, and the time signal is
the inverse DFT.  Zadoff-Chu sequences have constant modulus, so every
occupied bin carries the same power and inverting the channel estimate
never divides by a weak bin.

The symbol is repeated back to back to form the transmit frame: because
the symbol is one full DFT window, a receiver that starts anywhere
inside the repetition train sees a circular shift of the same symbol,
which is what makes averaging across repetitions exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import fixedpoint
from .errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .config import SounderConfig


@dataclass(frozen=True)
class ZcParams:
    """Zadoff-Chu sequence parameters.

    Attributes:
        length: number of elements (= number of occupied subcarriers).
        root: sequence root; must be coprime with length so the
            sequence keeps its perfect periodic autocorrelation.
    """

    length: int = 813
    root: int = 7

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ConfigurationError(f"sequence length must be >= 1, got {self.length}")
        if not 1 <= self.root < self.length and self.length > 1:
            raise ConfigurationError(
                f"root must be in [1, {self.length - 1}], got {self.root}"
            )
        if math.gcd(self.root, self.length) != 1:
            raise ConfigurationError(
                f"root {self.root} and length {self.length} must be coprime"
            )


def generate_zc(params: ZcParams) -> np.ndarray:
    """Generate a unit-modulus Zadoff-Chu sequence.

    Odd lengths use exp(-j*pi*u*n*(n+1)/N), even lengths
    exp(-j*pi*u*n^2/N); both have |x[n]| = 1 and ideal periodic
    autocorrelation.
    """
    n = np.arange(params.length, dtype=np.float64)
    if params.length % 2:
        phase = -np.pi * params.root * n * (n + 1.0) / params.length
    else:
        phase = -np.pi * params.root * n * n / params.length
    return np.exp(1j * phase)


def occupied_bins(count: int, fft_size: int) -> np.ndarray:
    """Indices of ``count`` DFT bins centered on DC.

    Bins run from -(count//2) up through the remaining positive
    frequencies and are wrapped into [0, fft_size).  For odd ``count``
    the block is symmetric around (and includes) bin 0.
    """
    if count > fft_size:
        raise ConfigurationError(
            f"cannot occupy {count} bins of a {fft_size}-point DFT"
        )
    offsets = np.arange(count) - count // 2
    return np.mod(offsets, fft_size)


@dataclass(frozen=True)
class SoundingWaveform:
    """One sounding symbol in both domains.

    ``time_signal`` is exactly the inverse DFT of ``freq_bins`` and
    ``samples``, what the transmitter sends, is its quantization; the
    amplitude scale lives in the bins.  The scale is chosen so the largest
    I or Q excursion of the time signal equals the ``backoff`` fraction of
    full scale given to :func:`build_sounding_symbol`, which keeps
    quantization saturation-free for any backoff <= 1 - 2**-15.
    """

    fft_size: int
    occupied_mask: np.ndarray  # bool, length fft_size
    freq_bins: np.ndarray  # complex128, zero outside the mask
    time_signal: np.ndarray  # complex128, length fft_size
    samples: np.ndarray  # SAMPLE_DTYPE, length fft_size


@functools.lru_cache(maxsize=16, typed=True)
def build_sounding_symbol(
    zc: ZcParams, fft_size: int = 1024, backoff: float = 0.5
) -> SoundingWaveform:
    """Place a Zadoff-Chu sequence on centered subcarriers and scale it.

    Args:
        zc: sequence parameters; its length is the number of occupied bins.
        fft_size: DFT length and samples per symbol.
        backoff: peak I/Q amplitude of the time signal as a fraction of
            full scale.  Must be in (0, 1].

    Returns:
        The waveform with scaled frequency bins, their exact inverse DFT
        and its quantization.  It is built once per argument tuple and
        shared, so its arrays are read-only: ``.copy()`` one to edit it.
    """
    if fft_size < 1:
        raise ConfigurationError(f"fft_size must be >= 1, got {fft_size}")
    if not 0.0 < backoff <= 1.0:
        raise ConfigurationError(f"backoff must be in (0, 1], got {backoff}")
    sequence = generate_zc(zc)
    bins = np.zeros(fft_size, dtype=np.complex128)
    indices = occupied_bins(len(sequence), fft_size)
    bins[indices] = sequence
    mask = np.zeros(fft_size, dtype=bool)
    mask[indices] = True

    unscaled = np.fft.ifft(bins)
    peak = max(np.abs(unscaled.real).max(), np.abs(unscaled.imag).max())
    scale = backoff / peak
    bins *= scale
    time_signal = np.fft.ifft(bins)
    samples = fixedpoint.quantize(time_signal)
    for array in (mask, bins, time_signal, samples):
        array.flags.writeable = False
    return SoundingWaveform(
        fft_size=fft_size,
        occupied_mask=mask,
        freq_bins=bins,
        time_signal=time_signal,
        samples=samples,
    )


def build_tx_frame(wf: SoundingWaveform, cfg: "SounderConfig") -> np.ndarray:
    """Assemble one transmit frame from the quantized symbol.

    The frame is ``cfg.frame_len`` samples: a train of identical
    quantized symbols long enough to feed the receiver's discard and
    averaging windows, followed by zeros until the next trigger.  The
    transmitter replays this frame every repetition period, so sample
    ``n`` of the link is ``frame[n % frame_len]``.  It is the full-frame
    call of :func:`tx_frame_samples`.
    """
    return tx_frame_samples(wf, cfg, 0, cfg.frame_len)


def tx_frame_samples(
    wf: SoundingWaveform, cfg: "SounderConfig", start: int, count: int
) -> np.ndarray:
    """Samples ``start`` to ``start + count - 1`` of the transmitted link.

    The transmitter replays :func:`build_tx_frame` every frame, so link
    sample ``n`` is frame sample ``m = n mod frame_len``, which is
    ``symbol[m mod signal_len]`` inside the repetition train and zero
    after it.  Wherever a frame's train overlaps the range, ``wf.samples``,
    the symbol quantized once when ``wf`` was built, is rotated to the
    overlap's phase by two slices and repeated over it; neither the train
    nor the frame is built.  The configuration guarantees that the train
    fits in the frame.
    """
    if wf.fft_size != cfg.signal_len:
        raise ConfigurationError(
            f"waveform length {wf.fft_size} does not match signal_len {cfg.signal_len}"
        )
    # Whole records copy as 32-bit words; numpy copies structured
    # records field by field, many times slower.
    symbol = wf.samples.view(np.uint32)
    train_len = cfg.train_repetitions * cfg.signal_len
    out = np.zeros(count, dtype=np.uint32)
    frame_len = cfg.frame_len
    for frame_start in range(start - start % frame_len, start + count, frame_len):
        lo = max(frame_start, start)
        hi = min(frame_start + train_len, start + count)
        if lo < hi:  # symbol[(n - frame_start) mod signal_len] for n in [lo, hi)
            phase = (lo - frame_start) % len(symbol)
            rotated = np.concatenate((symbol[phase:], symbol[:phase]))
            whole, rest = divmod(hi - lo, len(symbol))
            out[lo - start : hi - start - rest].reshape(whole, len(symbol))[:] = rotated
            out[hi - start - rest : hi - start] = rotated[:rest]
    return out.view(fixedpoint.SAMPLE_DTYPE)
