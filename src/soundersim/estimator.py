"""Channel estimation from averaged snapshots.

A snapshot is one averaged sounding symbol.  Estimation is classic
frequency-domain sounding:

1. undo the averager's fixed-point scaling (``2**shift_bits /
   avg_count``),
2. DFT the symbol,
3. divide by the known transmitted spectrum on the occupied bins.

Because the transmitted spectrum carries the full digital amplitude
scale (see :mod:`soundersim.waveform`), the result is an absolute
frequency response: a direct wire between TX DAC and RX ADC estimates
to magnitude ~1 on every occupied bin.

Only ``zc.length`` of ``signal_len`` bins are occupied, so the inverse
DFT of the response is the channel convolved with a narrow band-limit
kernel (the inverse DFT of the occupied mask).  For display this is
fine; for reading exact tap gains at known integer delays,
:func:`read_tap_gains` deconvolves that kernel with a small linear
solve instead of naively sampling the blurred impulse response.

Back-to-back calibration measures the cabled TX->RX response once and
divides later measurements by it, removing the static frequency ripple
of both RF chains.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import fixedpoint
from .averager import Snapshot
from .config import MALFORMED, from_json, read_json, write_json
from .errors import ConfigurationError, DegenerateWaveformError
from .waveform import SoundingWaveform

_log = logging.getLogger(__name__)

#: Occupied bins with smaller magnitude than this cannot be inverted.
DEGENERATE_BIN_TOL = 1e-12


@dataclass(frozen=True)
class FrequencyResponse:
    """Channel frequency response on the occupied subcarriers.

    ``bins`` is full DFT length with zeros outside ``occupied_mask``;
    every row of an ``(N, fft_size)`` block shares the one mask.
    """

    bins: np.ndarray  # complex128, shape (..., fft_size)
    occupied_mask: np.ndarray  # bool, shape (fft_size,)

    @property
    def fft_size(self) -> int:
        return self.bins.shape[-1]


#: PDP floor for zero (or vanishing) taps, in dB.
PDP_FLOOR_DB = -200.0


def rescale_snapshot(snapshot: Snapshot) -> np.ndarray:
    """Averaged symbol in float units (full scale = 1.0).

    The averager stores sum(x >> shift_bits); multiplying by
    ``2**shift_bits / avg_count`` recovers the mean symbol amplitude.
    Exact (factor 1.0) when ``avg_count == 2**shift_bits``.
    """
    cfg = snapshot.config
    factor = float(2**cfg.shift_bits) / cfg.avg_count
    values = fixedpoint.to_float(snapshot.data)
    return np.multiply(values, factor, out=values)


def estimate_response(
    snapshot: Snapshot, wf: SoundingWaveform
) -> FrequencyResponse:
    """Estimate the frequency response seen by a snapshot, row by row.

    An ``(N, signal_len)`` block of snapshots gives an ``(N, signal_len)``
    response.

    Args:
        snapshot: averaged symbol from the receiver.
        wf: the sounding waveform that was transmitted.

    Raises:
        ConfigurationError: snapshot length and waveform DFT size differ.
        DegenerateWaveformError: an occupied bin of ``wf`` is too small
            to divide by.
    """
    if wf.fft_size != snapshot.config.signal_len:
        raise ConfigurationError(
            f"waveform fft_size {wf.fft_size} does not match snapshot "
            f"signal_len {snapshot.config.signal_len}"
        )
    mask = wf.occupied_mask
    occupied = wf.freq_bins[mask]
    weakest = np.abs(occupied).min() if occupied.size else 0.0
    if occupied.size == 0 or weakest < DEGENERATE_BIN_TOL:
        raise DegenerateWaveformError(
            f"weakest occupied bin magnitude {weakest:.3e} is below "
            f"{DEGENERATE_BIN_TOL:.0e}; cannot invert waveform"
        )
    bins = np.fft.fft(rescale_snapshot(snapshot))
    np.divide(bins, wf.freq_bins, out=bins, where=mask)
    np.copyto(bins, 0.0, where=~mask)
    return FrequencyResponse(bins=bins, occupied_mask=mask.copy())


def to_cir(response: FrequencyResponse) -> np.ndarray:
    """Inverse DFT over the last axis: the complex band-limited impulse response."""
    return np.fft.ifft(response.bins)


def power_delay_profile(cir: np.ndarray) -> np.ndarray:
    """Tap power in dB, per tap of ``cir``, floored at -200 dB, row by row."""
    mag = np.abs(cir)
    power_db = np.full(mag.shape, PDP_FLOOR_DB)
    nonzero = mag > 0
    np.log10(mag, out=power_db, where=nonzero)
    np.multiply(power_db, 20.0, out=power_db, where=nonzero)
    return np.maximum(power_db, PDP_FLOOR_DB, out=power_db)


def band_limit_kernel(occupied_mask: np.ndarray) -> np.ndarray:
    """Inverse DFT of the occupied mask.

    This is the shape every physical tap takes in the band-limited
    impulse response; its peak value is (occupied bins / fft_size).
    """
    return np.fft.ifft(occupied_mask.astype(np.float64))


def read_tap_gains(
    cir: np.ndarray, occupied_mask: np.ndarray, delays
) -> np.ndarray:
    """Read complex tap gains at known integer delays.

    Each tap appears in the band-limited impulse response as the
    band-limit kernel centered on its delay, so nearby taps leak into
    each other's bins.  Solving the small kernel system removes that
    leakage and returns the underlying gains.

    Args:
        cir: band-limited impulse response, ``(fft_size,)`` or an
            ``(N, fft_size)`` block.
        occupied_mask: occupied-bin mask of the sounding waveform.
        delays: integer sample delays at which taps are present.

    Returns:
        complex gain per delay, same order as ``delays``; ``(N,
        len(delays))`` for a block, one row per impulse response.
    """
    delays = np.asarray(delays, dtype=np.int64)
    if delays.size == 0:
        return np.zeros(cir.shape[:-1] + (0,), dtype=np.complex128)
    size = cir.shape[-1]
    if np.any(delays < 0) or np.any(delays >= size):
        raise ConfigurationError(f"delays must be in [0, {size}), got {delays}")
    if len(np.unique(delays)) != delays.size:
        raise ConfigurationError(f"delays must be unique, got {delays}")
    kernel = band_limit_kernel(occupied_mask)
    matrix = kernel[np.mod(delays[:, None] - delays[None, :], size)]
    try:
        # One right-hand side per row, so a block row solves as its own 1-D CIR.
        return np.linalg.solve(matrix, cir[..., delays, np.newaxis])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(
            f"band-limit kernel is singular at delays {delays}: {exc}"
        ) from exc


def averaging_suppression(
    freq_cycles_per_sample: float, signal_len: int, avg_count: int
) -> float:
    """Amplitude factor averaging applies to an asynchronous tone.

    A tone at ``f`` cycles/sample advances ``f * signal_len`` cycles
    between averaged symbols; summing ``avg_count`` rotated copies
    scales its amplitude by \\|sin(pi f L M) / (M sin(pi f L))\\| -- the
    periodic-sinc magnitude.  It is 1.0 when the tone is symbol-periodic,
    taken as \\|sin(pi f L)\\| < 1e-7, the usual float64 Dirichlet cutoff.
    """
    if avg_count < 1:
        raise ConfigurationError(f"avg_count must be >= 1, got {avg_count}")
    half = math.pi * freq_cycles_per_sample * signal_len
    if abs(math.sin(half)) < 1e-7:
        return 1.0
    return abs(math.sin(avg_count * half) / (avg_count * math.sin(half)))


@dataclass(frozen=True)
class CalibrationProfile:
    """Back-to-back reference response plus inversion threshold.

    Occupied reference bins with magnitude below ``threshold`` cannot
    be divided by; :func:`apply_calibration` zeroes them in the output
    and drops them from its mask.
    """

    reference: FrequencyResponse
    threshold: float = 1e-3

    def __post_init__(self) -> None:
        if not 0 < self.threshold < math.inf:
            raise ConfigurationError(
                f"threshold must be positive and finite, got {self.threshold}"
            )
        occ = self.reference.bins[self.reference.occupied_mask]
        weak = int(np.count_nonzero(np.abs(occ) < self.threshold))
        if weak:
            _log.warning(
                "calibration reference has %d occupied bins below %.3e",
                weak, self.threshold,
            )


def build_calibration(
    responses: FrequencyResponse | Iterable[FrequencyResponse],
    threshold: float = CalibrationProfile.threshold,
) -> CalibrationProfile:
    """Average back-to-back responses into a calibration profile.

    ``responses`` is one response, an ``(N, fft_size)`` block, or blocks
    of them one after another; the complex mean of all their rows becomes
    the reference.  The rows are added in order into one accumulator, as
    ``mean(axis=0)`` adds them, so blocks give the bits of one block.
    """
    total, count = None, 0
    for block in [responses] if isinstance(responses, FrequencyResponse) else responses:
        for row in block.bins.reshape(-1, block.fft_size):
            total = row.copy() if total is None else np.add(total, row, out=total)
            count += 1
        mask = block.occupied_mask
    if not count:
        raise ConfigurationError("need at least one response to calibrate")
    reference = FrequencyResponse(bins=total / count, occupied_mask=mask.copy())
    return CalibrationProfile(reference=reference, threshold=threshold)


def apply_calibration(
    response: FrequencyResponse, profile: CalibrationProfile
) -> FrequencyResponse:
    """Divide a measured response, row by row, by the back-to-back reference.

    Occupied bins where the reference is weaker than the profile
    threshold are zeroed and removed from the output mask; the profile
    logged their count when it was built or loaded.
    """
    mask = response.occupied_mask
    if not np.array_equal(mask, profile.reference.occupied_mask):
        raise ConfigurationError(
            "response and calibration profile have differing occupied masks"
        )
    ref = profile.reference.bins
    good = mask & ~(np.abs(ref) < profile.threshold)
    bins = np.zeros_like(response.bins)
    np.divide(response.bins, ref, out=bins, where=good)
    return FrequencyResponse(bins=bins, occupied_mask=good)


def calibration_to_dict(profile: CalibrationProfile) -> dict:
    """JSON-ready dict; only occupied bins are stored."""
    mask = profile.reference.occupied_mask
    indices = np.flatnonzero(mask)
    values = profile.reference.bins[indices]
    return {
        "fft_size": int(len(mask)),
        "threshold": profile.threshold,
        "occupied": indices.tolist(),
        "real": values.real.tolist(),
        "imag": values.imag.tolist(),
    }


def _calibration(fft_size, threshold, occupied, real, imag) -> CalibrationProfile:
    """The profile a calibration file holds; the parameters are its keys."""
    if type(fft_size) is not int or not all(type(k) is int and 0 <= k < fft_size
                                            for k in occupied):
        raise ConfigurationError(f"fft_size {fft_size!r} and occupied bins must be "
                                 "integers, bins in [0, fft_size)")
    if len(set(occupied)) != len(occupied):
        raise ConfigurationError(f"occupied bins must be unique, got {occupied}")
    if not (len(real) == len(imag) == len(occupied) and all(
            type(v) in (int, float) and math.isfinite(v) for v in (*real, *imag))):
        raise ConfigurationError("real and imag need one finite number per occupied bin")
    bins = np.zeros(fft_size, dtype=np.complex128)
    bins[occupied] = np.asarray(real) + 1j * np.asarray(imag)
    mask = np.zeros(fft_size, dtype=bool)
    mask[occupied] = True
    return from_json(CalibrationProfile, {"threshold": threshold},
                     reference=FrequencyResponse(bins=bins, occupied_mask=mask))


def calibration_from_dict(data: dict) -> CalibrationProfile:
    """Inverse of :func:`calibration_to_dict`; field types are checked."""
    try:
        return _calibration(**data)
    except MALFORMED as exc:
        raise ConfigurationError(f"malformed calibration profile: {exc}") from exc


def save_calibration(path, profile: CalibrationProfile) -> None:
    """Write a calibration profile as JSON."""
    write_json(path, calibration_to_dict(profile))


def load_calibration(path) -> CalibrationProfile:
    """Read a profile written by :func:`save_calibration`."""
    return calibration_from_dict(read_json(path, "calibration"))
