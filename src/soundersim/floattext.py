"""Shortest round-trip text of float64 blocks, as ``repr`` spells them.

The digits come from Dragonbox (J. Jeon, "Dragonbox: A New
Floating-Point Binary-to-Decimal Conversion Algorithm", 2020) in numpy
integer arithmetic: one 64 x 128-bit product per value scales the upper
end of the value's rounding interval by a power of ten, and its
remainder modulo 1000 against the interval's width picks the shortest
candidate.  The few lanes where that remainder or the distance to the
value sits on an edge, the shorter interval below a power of two, and
subnormals and zero are finished on their own subset, with exact tests
of which scaled ends are integers.  A one-digit result is allowed, as in
Python (``5e-324``).  The layout is ``repr``'s: positional when the
decimal point falls in -4 < decpt <= 16, a whole number ending in
``.0``, otherwise ``d[.ddd]e±XX`` with at least two exponent digits.
The text is built as three little-endian 64-bit words per value, its
digits looked up four at a time.
"""

from __future__ import annotations

import numpy as np

from .fixedpoint import BLOCK_LEN

_K_MIN, _K_MAX = -292, 326
_M32 = np.uint64(2**32 - 1)
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII "0"


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


def _words(texts):
    """Strings of up to 8 bytes, NUL-padded, as one little-endian uint64 each."""
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), "<u8")


_HI, _LO = _cache()
_POW5 = 5 ** np.arange(28, dtype=np.uint64)
#: ``2c`` plus these is ``2c + 1`` and ``2c - 1``.
_ENDS = np.array([[1], [2**64 - 1]], np.uint64)
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
#: Sign and leading "0." with 0-3 zeros, indexed ``2 * (zeros + 1) + neg``,
#: or ``neg`` alone for the sign without a leading "0.".
_PREFIX_TEXT = [s + z for z in ("", "0.", "0.0", "0.00", "0.000") for s in ("", "-")]
_PREFIXES = _words(_PREFIX_TEXT)
_PREFIX_BITS = np.array([8 * len(t) for t in _PREFIX_TEXT], np.uint64)
#: By the decimal point's place ``decpt`` in [-323, 309], at ``decpt + 323``:
#: the exponent suffix, empty in the positional layout, and the prefix of
#: a positional number below 1 (``-decpt`` zeros after "0.").
_DECPT = range(-323, 310)
_SUFFIXES = _words(["" if -4 < d <= 16 else f"e{d - 1:+03d}" for d in _DECPT])
_ZERO_PREFIX = np.array([2 * (1 - d) if -4 < d <= 0 else 0 for d in _DECPT], np.int8)
#: ``_LOW[n + _ROWS]`` masks the lowest ``n`` bytes of a three-word string, and
#: ``_DOTS[n + _ROWS]`` holds a "." at byte ``n`` (none at 24).
_LOW = np.array([[(1 << 8 * min(max(n - 8 * i, 0), 8)) - 1 for n in range(26)]
                 for i in range(3)], np.uint64)
_DOTS = ((_LOW ^ np.roll(_LOW, -1, axis=1)) & np.uint64(0x2E2E2E2E2E2E2E2E)).ravel()
_LOW = _LOW.ravel()
_ROWS = np.array([[0], [26], [52]])
_BITS = np.array([[0], [64], [128]], np.uint64)  # where each word starts
#: ``_DIGITS[n]``: the four decimal digits of ``n < 10^4`` as ASCII, first digit lowest.
_DIGITS = (np.arange(10_000, dtype=np.int16)[:, None] // 10 ** np.arange(3, -1, -1, dtype=np.int16)
           % 10 + 48).astype(np.uint8).view("<u4").ravel()

#: Bytes of one spelled value, NUL-padded.
WIDTH = 24


def _mul(u, hi, lo):
    """The top two words of the 192-bit product ``u (hi 2^64 + lo)``, from
    32-bit limbs: ``floor(u phi / 2^128)`` and the next 64 bits."""
    u0, u1 = u & _M32, u >> 32

    def high(g):  # the high word of u g
        g0, g1 = g & _M32, g >> 32
        mid, b, c = u0 * g0, u0 * g1, u1 * g0
        g1 *= u1
        mid >>= 32
        mid += b & _M32
        mid += c & _M32
        for part in (b, c, mid):
            part >>= 32
            g1 += part
        return g1
    low = u * hi
    mid = high(lo)
    mid += low
    top = high(hi)
    top += mid < low
    return top, mid


def _less(top, mid, low, hi, lo, shift):
    """The top word of ``top 2^128 + mid 2^64 + low - (hi 2^64 + lo) 2^shift``,
    for ``0 < shift < 64``."""
    below = hi << shift | lo >> 64 - shift
    borrow = (mid < below) | (mid == below) & (low < lo << shift)
    return top - (hi >> 64 - shift) - borrow


def _integral(m, q, k):
    """Whether each ``m 2^(q-1) 10^k`` is an integer, for ``0 < m < 2^54``."""
    twos = np.maximum(1 - q - k, 0).view(np.uint64)  # a shift by 64 or more gives 0
    fives = np.take(_POW5, np.minimum(np.maximum(-k, 0), len(_POW5) - 1))
    return (m & (np.uint64(1) << twos) - 1 == 0) & (m % fives == 0)


def _decimal(bits):
    """``(f, e)`` with ``f 10^e`` the shortest decimal that reads back as
    each finite float64 magnitude whose bits are given, the closest such
    decimal, ties to an even ``f``; ``f`` has 16 or 17 digits, the last
    ones may be zeros, and zero is ``0 10^-15``.

    Dragonbox's search: ``z`` is the interval's upper end ``Z`` scaled by
    ``10^k`` and floored, ``delta`` its width, so the multiple of 1000 just
    below ``z`` is in the interval when ``z mod 1000 < delta``, and
    otherwise the multiple of 100 nearest the value is.
    """
    be = (bits >> 52 & 0x7FF).view(np.int64)
    c = np.minimum(be, 1).view(np.uint64) << 52
    c |= bits & 2**52 - 1
    q = np.maximum(be, 1) - 1075  # the value is c 2^q
    e = q * 315_653 >> 20  # floor(q log10 2)
    k = 2 - e
    beta = (q + (k * 1_741_647 >> 19)).view(np.uint64)  # q + floor(k log2 10), in [6, 9]
    hi, lo = np.take(_HI, k - _K_MIN), np.take(_LO, k - _K_MIN)
    z, mid = _mul((c << 1 | 1) << beta, hi, lo)
    delta = hi >> 63 - beta
    s = z // 1000
    r = z - s * 1000
    dist = r - (delta >> 1) + 50
    dq = dist // 100
    f = s * 10 + dq * (r > delta)
    # Rare lanes: r = 0 or delta, a distance divisible by 100, a power of two,
    # a subnormal or zero.
    rare = np.flatnonzero(np.minimum(np.minimum(np.minimum(r, r ^ delta), dist - dq * 100),
                                     np.minimum(bits << 12, be.view(np.uint64))) == 0)
    if rare.size:
        f[rare], e[rare] = _rare(*(a[rare] for a in (be, c, q, k, beta, hi, lo, z, mid, delta)))
    return f, e


def _rare(be, c, q, k, beta, hi, lo, z, mid, delta):
    """Dragonbox's fixups of ``_decimal`` on a few lanes, from the top words
    ``z`` and ``mid`` of the upper end's product, with exact tests of which
    scaled interval ends and values are integers."""
    s = z // 1000
    r = z - s * 1000
    closed = (c & 1) == 0  # an odd significand's interval excludes its ends
    # The ends Z and X, scaled, are integers only for q >= -2.
    z_int = x_int = np.zeros(len(c), bool)
    if (q >= -2).any():
        z_int, x_int = _integral((c << 1) + _ENDS, q, k)
        out = (r == 0) & ~closed & z_int  # z is the excluded upper end: step below it
        s -= out
        r += out * np.uint64(1000)
    # The floors of X and Y: Z's product less phi 2^(beta + 1) and phi 2^beta.
    x, y = _less(z, mid, ((c << 1 | 1) << beta) * lo, hi, lo, np.stack([beta + np.uint64(1), beta]))
    # The multiple of 1000 is inside when X is below it, or on it and included.
    inside = (r < delta) | (r == delta) & ((x & 1 == 1) | closed & x_int)
    dist = r - (delta >> 1) + 50
    dq = dist // 100
    f = s * 10 + dq * ~inside
    # A distance divisible by 100: the estimate is one high when Y's parity
    # says so, and Y exactly halfway goes to the even f.
    tie = ~inside & (dist == dq * 100)
    wrong = tie & ((y ^ dist ^ 50) & 1 == 1)
    f -= wrong
    half = tie & ~wrong & (f & 1 == 1)
    if half.any():
        f -= half & _integral(c << 1, q, k)
    e = 2 - k
    short = np.flatnonzero((c == 2**52) & (be > 1))
    if short.size:  # a power of two: the gap below is half the gap above
        q = q[short]
        k = -((q * 631_305 - 261_663) >> 21)  # -floor(q log10 2 - log10(4/3))
        beta = (q + (k * 1_741_647 >> 19)).view(np.uint64)  # in [0, 3]
        hi = np.take(_HI, k - _K_MIN)
        xi = (hi - (hi >> 54) >> 11 - beta) + ((q < 2) | (q > 3))
        zi = hi + (hi >> 53) >> 11 - beta
        y = (hi >> 10 - beta) + 1 >> 1
        tie = (q == -77) & (y & 1 == 1)
        y -= tie
        y += ~tie & (y < xi)
        ten = zi // 10 * 10
        f[short] = y + (ten - y) * (ten >= xi)
        e[short] = -k
    tiny = np.flatnonzero(be == 0)
    if tiny.size:  # a subnormal's f has fewer digits: pad it to 16, zero's to none
        scale = np.maximum(16 - np.searchsorted(_POW10, f[tiny], "right"), 0)
        f[tiny] *= np.take(_POW10, scale)
        e[tiny] -= scale
        e[tiny[f[tiny] == 0]] = -15  # zero's point follows its first digit
    return f, e


def _spell_words(x, out):
    """Write ``repr`` of each finite float64 value as the three words of its
    ``out`` row."""
    bits = x.view(np.uint64)
    f, e = _decimal(bits)
    sixteen = f < 10**16
    f *= np.uint64(1) + np.uint64(9) * sixteen  # 17 digits, "0.0" for zero
    decpt = e + 17 - sixteen
    # Digits 1-16 in four 4-digit groups, looked up as two words of ASCII.
    rest = f // 10
    last = f - rest * 10
    high = rest // 10**8
    rest -= high * np.uint64(10**8)
    digits = np.empty((len(f), 4), np.uint32)
    for j, half in ((0, high), (2, rest)):
        top = half // 10**4
        digits[:, j] = np.take(_DIGITS, top.view(np.int64))
        digits[:, j + 1] = np.take(_DIGITS, (half - top * np.uint64(10**4)).view(np.int64))
    digits = digits.view(np.uint64)
    # Significant digits: up to the last nonzero byte of the digits xor "0".
    nonzero = np.frexp((digits ^ _ZEROS).astype(np.float64))[1] + 7 >> 3
    sig = np.maximum(nonzero[:, 0], (nonzero[:, 1] + 8) * (nonzero[:, 1] > 0))
    sig = np.maximum(sig, 17 * (last > 0))
    positional = (decpt > -4) & (decpt <= 16)
    whole = positional & (decpt > 0)
    shown = np.maximum(sig, (decpt + 1) * whole)  # a whole number shows its zeros and one more
    dot = whole | ~positional & (sig > 1)
    point = 24 - 23 * dot + whole * (decpt - 1)  # digits before the point
    decpt += 323
    prefix = np.take(_ZERO_PREFIX, decpt) + (bits >> 63).view(np.int64)
    suffix = np.take(_SUFFIXES, decpt)
    # The text as three rows of words: the digits, cut after the shown ones,
    # then the point opens a gap, the suffix follows and the prefix leads.
    text = np.empty((3, len(f)), np.uint64)
    text[:2] = digits.T
    np.add(last, 48, out=text[2])
    text &= np.take(_LOW, shown + _ROWS)
    point = point + _ROWS
    head = text & np.take(_LOW, point)
    text ^= head
    tail = text[:2] >> 56
    text <<= 8
    text |= head
    text |= np.take(_DOTS, point)
    text[1:] |= tail
    at = (8 * (shown + dot)).view(np.uint64)  # the suffix's offset in bits
    # A negative count wraps, and shifts by 64 or more give 0.
    text |= suffix << at - _BITS | suffix >> _BITS - at
    up = np.take(_PREFIX_BITS, prefix)
    spill = text[:2] >> 64 - up
    text <<= up
    np.bitwise_or(text[1:], spill, out=out[:, 1:].T)
    np.bitwise_or(text[0], np.take(_PREFIXES, prefix), out=out[:, 0])


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
        _spell_words(x[i:i + BLOCK_LEN], words[i:i + BLOCK_LEN])
    if not np.isfinite(x).all():
        for mask, word in ((np.isnan(x), nan), (x == np.inf, inf), (x == -np.inf, "-" + inf)):
            out[mask] = np.frombuffer(word.encode().ljust(WIDTH, b"\0"), np.uint8)
    return out
