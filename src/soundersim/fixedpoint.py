"""Complex 16-bit sample domain.

Everything the hardware datapath touches is a pair of signed 16-bit
integers (I, Q).  This module pins down that representation once so the
rest of the package can move between float vectors and wire samples
without re-deriving scaling rules:

* full scale is 1.0 <-> 32768, so the largest representable component
  is 32767/32768 and the smallest is -1.0 exactly,
* float -> int uses round-half-even then saturation,
* int -> float is exact (divide by 32768).

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

#: Samples per block where a long run of samples is processed piecewise.
#: Every sample gets the same arithmetic however the run is blocked; small
#: blocks let the temporaries be reused instead of paged in afresh.
BLOCK_LEN = 8192


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


def to_float(samples: np.ndarray) -> np.ndarray:
    """Map samples to complex floats with full scale at 1.0.

    Exact: every representable sample has an exact float image, so
    ``quantize(to_float(s)) == s`` for all s.
    """
    out = np.empty(samples.shape, dtype=np.complex128)
    np.multiply(samples["i"], LSB, out=out.real)
    np.multiply(samples["q"], LSB, out=out.imag)
    return out


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
    out = np.empty(values.shape, dtype=SAMPLE_DTYPE)
    # Both sides as interleaved components (I, Q, I, Q, ...): one pass
    # per block over contiguous memory handles I and Q alike.
    parts = np.ravel(values).view(np.float64)
    words = out.reshape(-1).view("<i2")
    raw = np.empty(min(parts.size, 2 * BLOCK_LEN))
    clipped = 0
    for lo in range(0, parts.size, 2 * BLOCK_LEN):
        block = parts[lo : lo + 2 * BLOCK_LEN]
        scaled = raw[: len(block)]
        np.multiply(block, FULL_SCALE, out=scaled)
        np.rint(scaled, out=scaled)
        clipped += int(np.count_nonzero(scaled < INT_MIN))
        clipped += int(np.count_nonzero(scaled > INT_MAX))
        np.clip(scaled, INT_MIN, INT_MAX, out=scaled)
        words[lo : lo + 2 * BLOCK_LEN] = scaled
    return out, clipped
