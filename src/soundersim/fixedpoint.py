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
four bytes per sample.  I/Q arithmetic runs in one pass over the
interleaved ``'<i2'`` view (I, Q, I, Q, ...), whole records copy as
``uint32`` words (numpy copies structured records field by field, many
times slower), and the named fields are for building samples.
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

#: Block unit of the loops that still run in blocks: a noisy worker's noise
#: and tone scratch is sized from it (``channel.SCRATCH_LEN``), and export
#: tables and the float formatter take this many rows or values at a time.
#: Every sample, row and value gets the same arithmetic however it is
#: blocked.  Quantization and the tap convolution take their input whole.
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
    out = np.empty(np.shape(samples), dtype=np.complex128)
    np.multiply(np.ravel(samples).view("<i2"), LSB, out=out.reshape(-1).view(np.float64))
    return out


def quantize(values) -> np.ndarray:
    """Quantize complex floats to samples (round, then saturate).

    Components are scaled by 32768, rounded half-to-even and clipped to
    the int16 range.  Values with \\|component\\| <= 1 - 2**-15 never
    saturate.
    """
    return quantize_clipped(values)[0]


def quantize_clipped(values) -> tuple[np.ndarray, int]:
    """Like :func:`quantize` but also count saturated components.

    :func:`quantize_in_place` on a C-ordered copy, so ``values`` itself is
    never written.

    Returns:
        ``(samples, clipped)`` where ``clipped`` is the number of I/Q
        components (not samples) whose rounded value lies outside
        ``[INT_MIN, INT_MAX]`` and was saturated to that rail.
    """
    values = np.array(values, dtype=np.complex128, order="C")
    out = np.empty(values.shape, dtype=SAMPLE_DTYPE)
    return out, quantize_in_place(values, out)


def quantize_in_place(values: np.ndarray, out: np.ndarray) -> int:
    """:func:`quantize_clipped` of contiguous complex128 ``values`` into ``out``, of
    ``SAMPLE_DTYPE``, using ``values`` as scratch: allocates nothing on a clean run.
    Components are counted and clipped only if one lies outside the rails."""
    parts = values.reshape(-1).view(np.float64)
    np.multiply(parts, FULL_SCALE, out=parts)
    np.rint(parts, out=parts)
    clipped = 0
    if parts.size and (parts.min() < INT_MIN or parts.max() > INT_MAX):  # NaN fails both
        clipped = int(np.count_nonzero(parts < INT_MIN) + np.count_nonzero(parts > INT_MAX))
        np.clip(parts, INT_MIN, INT_MAX, out=parts)
    out.reshape(-1).view("<i2")[...] = parts
    return clipped
