"""Complex 16-bit sample domain.

Everything the hardware datapath touches is a pair of signed 16-bit
integers (I, Q).  This module pins down that representation once so the
rest of the package can move between float vectors and wire samples
without re-deriving scaling rules:

* full scale is 1.0 <-> 32768, so the largest representable component
  is 32767/32768 and the smallest is -1.0 exactly,
* float -> int uses round-half-even then saturation,
* int -> float is exact (divide by 32768),
* right shifts are arithmetic (sign preserving, rounding toward -inf),
  matching what a synthesized ``>>>`` does to signed operands.

Samples travel as numpy structured arrays of :data:`SAMPLE_DTYPE`, which
is also the exact byte layout used on disk: little-endian I then Q,
four bytes per sample.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

#: Wire/file layout of one complex sample: int16 I, then int16 Q (LE).
SAMPLE_DTYPE = np.dtype([("i", "<i2"), ("q", "<i2")])

#: Representable component range.
INT_MIN = -32768
INT_MAX = 32767

#: Float value of one full-scale unit.
FULL_SCALE = 32768.0

#: Value of one least significant bit in float units.
LSB = 1.0 / FULL_SCALE


def zeros(count: int) -> np.ndarray:
    """Return ``count`` all-zero complex samples."""
    return np.zeros(count, dtype=SAMPLE_DTYPE)


def from_components(i, q) -> np.ndarray:
    """Build samples from integer I and Q components.

    Accepts scalars or arrays; broadcasts like numpy.  Raises
    :class:`ConfigurationError` if any component is outside the signed
    16-bit range -- this constructor never wraps silently.
    """
    i64 = np.asarray(i, dtype=np.int64)
    q64 = np.asarray(q, dtype=np.int64)
    i64, q64 = np.broadcast_arrays(i64, q64)
    for name, comp in (("i", i64), ("q", q64)):
        if comp.size and (comp.min() < INT_MIN or comp.max() > INT_MAX):
            raise ConfigurationError(
                f"component '{name}' outside int16 range [{INT_MIN}, {INT_MAX}]"
            )
    out = np.empty(i64.shape, dtype=SAMPLE_DTYPE)
    out["i"] = i64.astype(np.int16)
    out["q"] = q64.astype(np.int16)
    return out


def to_complex(samples: np.ndarray) -> np.ndarray:
    """Return the integer sample values as complex128 (no rescaling)."""
    return samples["i"].astype(np.float64) + 1j * samples["q"].astype(np.float64)


def to_float(samples: np.ndarray) -> np.ndarray:
    """Map samples to complex floats with full scale at 1.0.

    Exact: every representable sample has an exact float image, so
    ``quantize(to_float(s)) == s`` for all s.
    """
    return to_complex(samples) * LSB


def quantize(values) -> np.ndarray:
    """Quantize complex floats to samples (round, then saturate).

    Components are scaled by 32768, rounded half-to-even and clipped to
    the int16 range.  Values with \\|component\\| <= 1 - 2**-15 never
    saturate.
    """
    samples, _ = quantize_clipped(values)
    return samples


def quantize_clipped(values) -> tuple[np.ndarray, int]:
    """Like :func:`quantize` but also count saturated components.

    Returns:
        ``(samples, clipped)`` where ``clipped`` is the number of I/Q
        components (not samples) that hit a rail.
    """
    values = np.asarray(values, dtype=np.complex128)
    i_raw = np.rint(values.real * FULL_SCALE)
    q_raw = np.rint(values.imag * FULL_SCALE)
    clipped = int(np.count_nonzero(i_raw < INT_MIN) + np.count_nonzero(i_raw > INT_MAX)
                  + np.count_nonzero(q_raw < INT_MIN) + np.count_nonzero(q_raw > INT_MAX))
    out = np.empty(values.shape, dtype=SAMPLE_DTYPE)
    out["i"] = np.clip(i_raw, INT_MIN, INT_MAX).astype(np.int16)
    out["q"] = np.clip(q_raw, INT_MIN, INT_MAX).astype(np.int16)
    return out, clipped
