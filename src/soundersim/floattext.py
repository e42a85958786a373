"""Shortest round-trip text of float64 blocks, as ``repr`` spells them.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to
render doubles", 2020; the algorithm behind JDK 19's
``Double.toString``) in numpy integer arithmetic, with Python's rule in
place of Java's that a result has at least two digits: a one-digit
result is allowed (``5e-324``, not ``4.9e-324``), so a shorter candidate
is looked for whenever ``s`` has two digits or more and tiny subnormals
are not scaled.  The layout is ``repr``'s: positional when the decimal
point falls in -4 < decpt <= 16, a whole number ending in ``.0``,
otherwise ``d[.ddd]e±XX`` with at least two exponent digits.  The text
is built as three little-endian 64-bit words per value.
"""

from __future__ import annotations

import numpy as np

from .fixedpoint import BLOCK_LEN

_K_MIN, _K_MAX = -324, 292
_M32, _M63 = np.uint64(2**32 - 1), np.uint64(2**63 - 1)
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII "0"


def _g_table():
    """For k in [-324, 292], ``g = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1``
    as rows ``g1 = g >> 63`` and the 32-bit halves of ``g1`` and ``g0 = g mod 2^63``."""
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        g.append((p << 126 >> p.bit_length() if k <= 0 else (1 << 125 + p.bit_length()) // p) + 1)
    g1, g0 = np.array([(x >> 63, x & 2**63 - 1) for x in g], np.uint64).T
    return np.stack([g1, g1 & _M32, g1 >> 32, g0 & _M32, g0 >> 32])


def _words(texts):
    """Strings of up to 8 bytes, NUL-padded, as one little-endian uint64 each."""
    return np.frombuffer(b"".join(t.encode().ljust(8, b"\0") for t in texts), "<u8")


_G = _g_table()
_POW10 = 10 ** np.arange(18, dtype=np.uint64)
#: Sign and leading "0." with 0-3 zeros, indexed ``2 * (zeros + 1) + neg``,
#: or ``neg`` alone for the sign without a leading "0.".
_PREFIX_TEXT = [s + z for z in ("", "0.", "0.0", "0.00", "0.000") for s in ("", "-")]
_PREFIXES, _PREFIX_LEN = _words(_PREFIX_TEXT), np.array([len(t) for t in _PREFIX_TEXT])
#: Exponent suffixes "e-324" .. "e+308", then the empty suffix.
_SUFFIXES = _words([f"e{e:+03d}" for e in range(-324, 309)] + [""])
#: ``_LOW[:, n]`` masks the lowest ``n`` bytes of a three-word string, and
#: ``_DOTS[:, n]`` holds a "." at byte ``n`` (none at 24).
_LOW = np.array([[(1 << 8 * min(max(n - 8 * i, 0), 8)) - 1 for n in range(26)]
                 for i in range(3)], np.uint64)
_DOTS = (_LOW[:, 1:] ^ _LOW[:, :-1]) & np.uint64(0x2E2E2E2E2E2E2E2E)
_WORD_START = np.array([[0], [64], [128]], np.uint64)  # in bits

#: Bytes of one spelled value, NUL-padded.
WIDTH = 24


def _rop(g, cp):
    """Schubfach's ``rop(cp g 2^-127)``, the product rounded to odd, for
    ``cp < 2^59`` and ``g`` as ``g1`` and the 32-bit halves of ``g1`` and ``g0``:
    no sum of 32-bit limb products below overflows."""
    g1, g10, g11, g00, g01 = g
    c0, c1 = cp & _M32, cp >> 32
    x1 = g01 * c1 + ((g00 * c0 >> 32) + g00 * c1 + g01 * c0 >> 32)  # high half of g0 cp
    y1 = g11 * c1 + ((g10 * c0 >> 32) + g10 * c1 + g11 * c0 >> 32)  # high half of g1 cp
    z = (g1 * cp >> 1) + x1
    return (y1 + (z >> 63)) | ((z & _M63) + _M63 >> 63)


def _decimal(bits):
    """``(f, k)`` with ``f 10^k`` the shortest decimal that reads back as
    each finite nonzero float64 magnitude whose bits are given; the
    closest such decimal, ties to an even ``f``."""
    be = (bits >> 52) & np.uint64(0x7FF)
    t = bits & np.uint64(2**52 - 1)
    c = t | (be != 0) * np.uint64(2**52)
    q = np.maximum(be, 1).astype(np.int64) - 1075
    irregular = (t == 0) & (be > 1)  # a power of two: the gap below is half
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + ((-k * 913_124_641_741) >> 38) + 2).astype(np.uint64)
    g = np.take(_G, k - _K_MIN, axis=1)
    cb = c << 2
    vbl, vb, vbr = _rop(g, np.stack([cb - 2 + irregular, cb, cb + 2]) << h)
    out = c & 1  # an odd significand's interval excludes its ends
    s = vb >> 2
    sp10 = s // 10 * 10
    upin, wpin = vbl + out <= sp10 << 2, (sp10 + 10 << 2) + out <= vbr
    uin, win = vbl + out <= s << 2, (s + 1 << 2) + out <= vbr
    mid = (s << 2) + 2
    pick_s = uin & ~win | (uin == win) & ((vb < mid) | (vb == mid) & ((s & 1) == 0))
    f = s + ~pick_s  # unless exactly one of sp10 and sp10 + 10 is in: that one, shorter
    f ^= (f ^ (sp10 + np.uint64(10) * wpin)) * ((upin != wpin) & (s >= 10))
    return f, k


def _ascii8(x):
    """The 8 decimal digits of each ``x < 10^8`` as ASCII, first digit lowest."""
    hi = x // 10_000
    v = hi | (x - hi * 10_000) << 32  # two 4-digit lanes
    hi = ((v * 10486) >> 20) & np.uint64(0x0000007F0000007F)  # lane // 100
    v = hi | (v - hi * 100) << 16  # four 2-digit lanes
    hi = ((v * 103) >> 10) & np.uint64(0x000F000F000F000F)  # lane // 10
    return hi | (v - hi * 10) << 8 | _ZEROS


def _shift(words, nbytes):
    """Three-word strings moved up by ``nbytes < 8`` bytes."""
    up = (8 * nbytes).astype(np.uint64)
    out = words << up
    out[1:] |= words[:-1] >> 64 - up  # a shift by 64 gives 0
    return out


def _place(word, at):
    """One word of text at byte offset ``at`` of a three-word string."""
    at = (8 * at).astype(np.uint64)  # a negative count below wraps, and shifts
    return word << at - _WORD_START | word >> _WORD_START - at  # by 64 or more give 0


def _spell_words(x):
    """``repr`` of each finite float64 value as three words (3, len(x))."""
    bits = x.view(np.uint64)
    zero = bits << 1 == 0
    f, k = _decimal(bits)
    f *= ~zero
    # f has lead_exp + 1 digits; the estimate from its bit length is at most one high.
    lead_exp = np.frexp(f.astype(np.float64))[1] * 1233 >> 12
    lead_exp -= f < _POW10[lead_exp]
    f *= _POW10[16 - lead_exp]  # 17 digits, "0.0" for zero
    decpt = (k + 1 + lead_exp) * ~zero + zero  # zero's point follows its first digit
    lead = f // _POW10[16]
    rest = f - lead * _POW10[16]
    high = rest // _POW10[8]
    eight = _ascii8(np.stack([high, rest - high * _POW10[8]]))  # digits 2-9, 10-17
    # Significant digits: up to the last nonzero byte of the digits xor "0".
    nonzero = np.frexp((eight ^ _ZEROS).astype(np.float64))[1] + 7 >> 3
    sig = 1 + nonzero[0] + (nonzero[1] > 0) * (8 + nonzero[1] - nonzero[0])
    text = np.stack([lead + 48 | eight[0] << 8, eight[0] >> 56 | eight[1] << 8, eight[1] >> 56])
    positional = (decpt > -4) & (decpt <= 16)
    whole = positional & (decpt > 0)
    shown = sig + whole * np.maximum(decpt + 1 - sig, 0)
    dot = whole | ~positional & (sig > 1)
    point = 24 - 23 * dot + whole * (decpt - 1)  # digits before the point
    prefix = (bits >> 63).astype(np.intp) + 2 * (positional & ~whole) * (1 - decpt)
    suffix = _SUFFIXES[decpt + 323 + positional * (len(_SUFFIXES) - 324 - decpt)]
    text &= np.take(_LOW, shown, axis=1)
    head = text & np.take(_LOW, point, axis=1)
    tail = text ^ head
    text = head | tail << 8 | np.take(_DOTS, point, axis=1)  # the point opens a gap
    text[1:] |= tail[:-1] >> 56
    text |= _place(suffix, shown + dot)
    out = _shift(text, _PREFIX_LEN[prefix])
    out[0] |= _PREFIXES[prefix]
    return out


def spell(values: np.ndarray, nan: str = "nan", inf: str = "inf") -> np.ndarray:
    """The text of each float64 value as one NUL-padded ``(len(values), WIDTH)``
    uint8 row: ``repr`` of the value, or for a non-finite one ``nan``,
    ``inf`` or ``-`` and ``inf`` as given."""
    x = np.ascontiguousarray(values, np.float64)
    out = np.empty((len(x), 3), "<u8")
    for i in range(0, len(x), BLOCK_LEN):  # a (3, BLOCK_LEN) temporary is 192 KiB
        out[i:i + BLOCK_LEN] = _spell_words(x[i:i + BLOCK_LEN]).T
    out = out.view(np.uint8)
    if not np.isfinite(x).all():
        for mask, word in ((np.isnan(x), nan), (x == np.inf, inf), (x == -np.inf, "-" + inf)):
            out[mask] = np.frombuffer(word.encode().ljust(WIDTH, b"\0"), np.uint8)
    return out
