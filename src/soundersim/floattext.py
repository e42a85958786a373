"""Shortest round-trip text of float64 blocks, as ``repr`` spells them.

The digits come from Dragonbox (J. Jeon, "Dragonbox: A New
Floating-Point Binary-to-Decimal Conversion Algorithm", 2020) in numpy
integer arithmetic: one 64 x 128-bit product per value scales the upper
end of the value's rounding interval by a power of ten, and its
remainder modulo 1000 against the interval's width picks the shortest
candidate.  The words of that product also settle, on every lane, the
edges Dragonbox tests with a second product: whether the lower end is
below a candidate on it, and whether a distance divisible by 100 puts
the estimate one high.  The few lanes left, where an end or the value
may be an integer where that matters, powers of two, whose interval is
shorter below the value, and subnormals, are written by ``repr`` itself
after the pass; a noisy export's values reach none of them.  A one-digit
result is allowed, as in Python (``5e-324``).  The layout is
``repr``'s: positional when the decimal point falls in -4 < decpt <= 16,
a whole number ending in ``.0``, otherwise ``d[.ddd]e±XX`` with at least
two exponent digits.  The text is built as three little-endian 64-bit
words per value in one pass per word: the digits, looked up four at a
time, are cut after the shown ones, those after the point move up a byte
for it, the prefix's bytes shift them all up and the suffix follows.
"""

from __future__ import annotations

import numpy as np

from .fixedpoint import BLOCK_LEN

_K_MIN, _K_MAX = -292, 326
_M32 = np.uint64(2**32 - 1)
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII "0"
_DOT = np.uint64(ord("."))


def _cache():
    """Dragonbox's ``ceil(10^k 2^(127 - floor(log2 10^k)))`` for k in
    [-292, 326], as its high and low 64-bit words."""
    words = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        if k >= 0:
            x = -(-(p << 127) >> p.bit_length() - 1)
        else:
            x = -((-1 << 127 + (p - 1).bit_length()) // p)
        words.append((x >> 64, x & 2**64 - 1))
    return np.array(words, np.uint64).T.copy()


def _words(texts, width=8):
    """Strings of up to ``width`` bytes, NUL-padded to it, as little-endian uint64s."""
    return np.frombuffer(b"".join(t.encode().ljust(width, b"\0") for t in texts), "<u8")


_HI, _LO = _cache()
#: Sign and leading "0." with 0-3 zeros, indexed ``2 * (zeros + 1) + neg``,
#: or ``neg`` alone for the sign without a leading "0.".
_PREFIXES = _words([s + z for z in ("", "0.", "0.0", "0.00", "0.000") for s in ("", "-")])
#: By the decimal point's place ``decpt`` in [-323, 309], at ``decpt + 323``:
#: the exponent suffix, empty in the positional layout.
_SUFFIXES = _words(["" if -4 < d <= 16 else f"e{d - 1:+03d}" for d in range(-323, 310)])
#: ``_LOW[i, n]`` masks the lowest ``n`` bytes of a string in its word ``i``,
#: ``_HIGH[i, n]`` the others.
_LOW = np.array([[(1 << 8 * min(max(n - 8 * i, 0), 8)) - 1 for n in range(25)]
                 for i in range(2)], np.uint64)
_HIGH = ~_LOW
#: ``_DIGITS[n]``: the four decimal digits of ``n < 10^4`` as ASCII, first digit lowest.
_DIGITS = (np.arange(10_000, dtype=np.int16)[:, None] // 10 ** np.arange(3, -1, -1, dtype=np.int16)
           % 10 + 48).astype(np.uint8).view("<u4").ravel()

#: Bytes of one spelled value, NUL-padded.
WIDTH = 24


def _mul(u, hi, lo):
    """The top two words of the 192-bit product ``u (hi 2^64 + lo)`` for
    ``u < 2^63``, from 32-bit limbs: ``floor(u phi / 2^128)`` and the next
    64 bits."""
    u0, u1 = u & _M32, u >> 32

    def high(g):  # the high word of u g; the middle sum cannot overflow
        g0, g1 = g & _M32, g >> 32
        mid = u0 * g0
        mid >>= 32
        carry = u1 * g0
        mid += carry & _M32
        mid += u0 * g1
        carry >>= 32
        g1 *= u1
        g1 += carry
        mid >>= 32
        g1 += mid
        return g1
    low = u * hi
    mid = high(lo)
    mid += low
    top = high(hi)
    top += mid < low
    return top, mid


def _decimal(bits):
    """``(f, e, rare)``: ``f 10^e`` is the shortest decimal that reads back
    as each finite float64 magnitude whose bits are given, the closest such
    decimal, ties to an even ``f``, but on the lanes that ``rare`` indexes,
    whose ``f`` and ``e`` are only in range; ``f`` has 16 or 17 digits, the
    last ones may be zeros, and zero is ``0 10^-15``.

    Dragonbox's search: ``z`` is the interval's upper end ``Z`` scaled by
    ``10^k`` and floored, ``delta`` its width, so the multiple of 1000 just
    below ``z`` is in the interval when ``z mod 1000 < delta``, and
    otherwise the multiple of 100 nearest the value is.
    """
    be = (bits >> 52).astype(np.int16) & 0x7FF  # the biased exponent
    q = np.maximum(be, 1) - 1075  # the value is c 2^q
    e = (q * np.int32(315_653)) >> 20  # floor(q log10 2)
    k = 2 - e
    beta = (q + (k * 1_741_647 >> 19)).astype(np.uint64)  # q + floor(k log2 10), in [6, 9]
    row = (k - _K_MIN).astype(np.intp)
    hi, lo = np.take(_HI, row), np.take(_LO, row)
    fraction = bits & 2**52 - 1
    c = fraction | np.left_shift(be > 0, 52, dtype=np.uint64)
    z, mid = _mul((c << 1 | 1) << beta, hi, lo)
    delta = (hi >> 63 - beta).astype(np.uint16)  # under 2^10, as are r and dist
    s = z // 1000
    r = (z - s * 1000).astype(np.uint16)
    edge = r == delta
    # X's (at an edge) or Y's product is Z's less phi 2^sh: t is its middle
    # word up to a borrow from below, and a borrow out of it flips the floor.
    sh = beta + edge
    t = mid - (hi << sh | lo >> 64 - sh)
    borrow = t > mid
    above = r > delta
    dist = r - (delta >> 1) + 50  # wraps only where the multiple of 1000 is inside
    dq = dist // 100
    tie = dq * 100 == dist
    # The multiple of 1000 is inside below delta, or on it when X's floor is odd.
    f = s * 10 + dq * (above | edge & ~borrow)
    # A distance divisible by 100: the estimate is one high when Y's floor
    # has the other parity than it, that is when its product borrows.
    f -= tie & above & borrow
    # Zero's search lands on f = 0, and its point follows its first digit.
    e[f == 0] = -15
    # Rare lanes: an end or the value that may be an integer where that
    # matters (r and mid 0 for Z, t 0 or 1 for X at an edge or Y at a tie),
    # a tie at an edge, a power of two or a subnormal.
    rare = np.flatnonzero((r == 0) & (mid == 0) | (t < 2) & (edge | tie) | tie & edge
                          | (fraction == 0) ^ (be == 0))
    return f, e, rare


def _spell_words(x, out):
    """Write ``repr`` of each finite float64 value as the three words of its
    ``out`` row, but for the rare lanes, whose indices it returns."""
    f, e, rare = _decimal(x.view(np.uint64))
    sixteen = f < 10**16
    f *= np.uint64(1) + np.uint64(9) * sixteen  # 17 digits, "0.0" for zero
    decpt = e.astype(np.int16) + 17 - sixteen  # digits before the point
    # Digits 1-8 and 9-17 as 32-bit halves, then 1-16 in four 4-digit
    # groups, looked up at once as two words.
    halves = np.empty((2, len(f)), np.uint32)
    halves[0] = f // 10**9
    halves[1] = f - halves[0] * np.uint64(10**9)
    rest = halves[1] // 10
    last = halves[1] - rest * np.uint32(10)
    halves[1] = rest
    groups = np.empty((2, len(f), 2), np.intp)
    groups[..., 0] = rest = halves // 10**4
    np.subtract(halves, rest * np.uint32(10**4), out=groups[..., 1])
    digits = np.take(_DIGITS, groups).view(np.uint64).reshape(2, -1)
    # Significant digits: up to the last nonzero byte of the digits xor "0",
    # read from the exponent of both words as one float.
    both = (digits ^ _ZEROS).astype(np.float64)
    both[0] += both[1] * 2.0**64
    sig = both[0].view(np.int16)[3::4] - (1015 << 4) >> 7
    np.maximum(sig, (last > 0) * np.int16(17), out=sig)
    positional = (decpt > -4) & (decpt <= 16)
    whole = positional & (decpt > 0)
    below = positional ^ whole  # "0." and -decpt zeros lead
    shown = np.maximum(sig, (decpt + 1) * whole)  # a whole number shows its zeros and one more
    dot = whole | ~positional & (sig > 1)
    cut = 24 - dot * (23 - whole * (decpt - 1))  # digits before the point, 24 for none
    neg = np.signbit(x)
    lead = below * (2 - decpt) + neg  # bytes before the first digit
    end = lead + shown + dot  # where the suffix starts
    # The digits, cut after the shown ones, as three words; h holds those
    # after the point, and d + 255 h moves them up a byte to make room for it.
    d0, d1 = digits
    d2 = (last + (shown > 16) * np.uint32(48) << dot * np.uint32(8)).astype(np.uint64)
    shown = shown.astype(np.intp)
    d0 &= np.take(_LOW[0], shown)
    d1 &= np.take(_LOW[1], shown)
    cut = cut.astype(np.intp)
    h0 = d0 & np.take(_HIGH[0], cut)
    h1 = d1 & np.take(_HIGH[1], cut)
    at = (8 * cut).view(np.uint64)  # shifts by 64 or more give 0, and a negative count wraps
    d1 += h0 >> 56
    d2 |= h1 >> 56
    for d, h, word in ((d0, h0, 0), (d1, h1, 64)):
        h *= 255
        d += h
        d |= _DOT << at - word
    d2 |= _DOT << at - 128
    # The prefix leads, then the suffix follows the text.
    up = (8 * lead).astype(np.uint64)
    down = 64 - up
    for high, low in ((d2, d1), (d1, d0)):
        high <<= up
        high |= low >> down
    d0 <<= up
    d0 |= np.take(_PREFIXES, (below * (2 - 2 * decpt) + neg).astype(np.intp))
    suffix = np.take(_SUFFIXES, (decpt + 323).astype(np.intp))
    at = (8 * end).astype(np.uint64)
    np.bitwise_or(d0, suffix << at, out=out[:, 0])
    np.bitwise_or(d1, suffix << at - 64 | suffix >> 64 - at, out=out[:, 1])
    np.bitwise_or(d2, suffix << at - 128 | suffix >> 128 - at, out=out[:, 2])
    return rare


def spell(values: np.ndarray, nan: str = "nan", inf: str = "inf",
          out: np.ndarray | None = None) -> np.ndarray:
    """The text of each float64 value as one NUL-padded ``(len(values), WIDTH)``
    uint8 row: ``repr`` of the value, or for a non-finite one ``nan``,
    ``inf`` or ``-`` and ``inf`` as given.  The rows are written into
    ``out`` when it is given, a uint8 array of that shape whose rows need
    only be contiguous (a field of a wider row matrix), and it is returned."""
    x = np.ascontiguousarray(values, np.float64)
    if out is None:
        out = np.empty((len(x), WIDTH), np.uint8)
    words = out.view("<u8")
    for i in range(0, len(x), BLOCK_LEN):
        rare = i + _spell_words(x[i:i + BLOCK_LEN], words[i:i + BLOCK_LEN])
        if rare.size:
            words[rare] = _words(map(repr, x[rare].tolist()), WIDTH).reshape(-1, 3)
    if not np.isfinite(x).all():
        for mask, word in ((np.isnan(x), nan), (x == np.inf, inf), (x == -np.inf, "-" + inf)):
            words[mask] = _words([word], WIDTH)
    return out
