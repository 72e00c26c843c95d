"""'%.17g' text of a float column as a byte matrix, without a str per value."""

from __future__ import annotations

import numpy as np

# a cell is four little-endian uint64 words: the sign, and for e < 0 '0.' and
# zeros, in word 0, the leading digit in its last byte, and the other 16 digits
# and '.' in words 1 to 3. The widest '%.17g' is 24 bytes
# ('-1.2345678901234567e-308'); its last two bytes are always NUL: a CSV ',' or JSON '.0' slot
WIDTH = 32
_POW10 = 10.0 ** np.arange(23)  # exact doubles
_U = np.uint64
_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], _U)  # the low n bytes
# by e = 0 .. 5, -4 .. -1 (a negative e indexes from the end): word 0's
# prefix, the digit bytes of word 1 before the '.' and the '.' there
_E = [0, 1, 2, 3, 4, 5, -4, -3, -2, -1]
_PREFIX = np.array([int.from_bytes(b"\0" + b"0." + b"0" * (-1 - e), "little") if e < 0 else 0
                    for e in _E], _U)
_BEFORE = _BYTES[np.maximum(_E, 0)]
_DOT = np.array([ord(".") << 8 * e if e >= 0 else 0 for e in _E], _U)


def _split(a):
    """Dekker's split of a into two halves of 26 bits each."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _round_scaled(a, s):
    """round-half-even(a * 10**s) for 0 <= s <= 22, exact for a product in
    [2**53, 2**63) and below 2**53 for a smaller one: the product is p + e
    exactly (Dekker), p is then an even integer, so p + e rounds as e does."""
    b = _POW10[s]
    p = a * b
    (ah, al), (bh, bl) = _split(a), _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p.astype(np.int64) + np.rint(e).astype(np.int64)


def _digit_words(x):
    """The 8 digits of each x < 10**8 as bytes 0..9 of a uint64, the first in
    the lowest: 4-digit halves in 32-bit lanes, then multiply-shift division
    by 100 and by 10 per lane (Warren, Hacker's Delight, ch. 10)."""
    q = x // 10_000
    w = q | (x - q * 10_000) << 32
    q = (w * 5243 >> 19) & _U(0x7F0000007F)
    w = q | (w - q * 100) << 16
    q = (w * 103 >> 10) & _U(0x000F000F000F000F)
    return q | (w - q * 10) << 8


def g17(x) -> np.ndarray:
    """A (len(x), WIDTH) uint8 matrix whose row i, with its NUL bytes
    removed, is exactly '%.17g' % x[i].

    Zeros and values printed in fixed notation with 1e-4 <= |x| < 1e6 take
    the vectorised path; every other value is formatted by Python itself.
    """
    x = np.asarray(x, dtype=float).ravel()
    a = np.abs(x)
    near = (a >= 1e-4) & (a < 1e6)
    a = np.where(near, a, 1.0)
    e = np.clip(np.floor(np.log10(a)), -4, 5).astype(np.int64)
    d = _round_scaled(a, 16 - e)
    # 17 digits prove e (in -4 .. 5 here) is the exponent '%.17g' prints; a
    # log10 that erred by one near a power of ten gives 16 or 18, and Python
    # formats those. Off the window d is 0, which prints as a zero does
    fast = near & (d >= 10**16) & (d < 10**17)
    d = np.where(near, d, 0).view(_U)

    # the leading digit, then digits 1-8 and 9-16 as two digit words
    head = d // 10**16
    words = np.empty((2, len(d)), _U)
    np.divmod(d - head * 10**16, 10**8, out=(words[0], words[1]))
    words = _digit_words(words)
    # keep the digits up to the last nonzero one and the integer digits: the
    # bytes of a word up to its highest set bit, from its float exponent
    # (exact: a byte is at most 9, so no run of 53 ones rounds up)
    used = (np.frexp(words.astype(float))[1] + 7) >> 3
    keep = np.where(used[1] > 0, 8, np.maximum(used[0], e))
    words |= _U(0x3030303030303030)  # '0' in every byte
    words[0] &= _BYTES[keep]
    words[1] &= _BYTES[used[1]]
    hi, lo = words

    out = np.zeros((len(x), 4), "<u8")
    out[:, 0] = _PREFIX[e] | np.signbit(x) * _U(ord("-")) | (head + ord("0")) << 56
    # '.' after byte e of the first digit word, its bytes from e on one byte
    # up, the byte pushed out carried into the next word
    before = _BEFORE[e]
    out[:, 1] = (hi & ~before) << 8 | hi & before | _DOT[e] * (keep > e)
    out[:, 2] = lo << 8 | hi >> 56
    out[:, 3] = lo >> 56

    rest = np.flatnonzero(~fast & (x != 0))
    if len(rest):
        text = (f"%-{WIDTH}.17g" * len(rest)) % tuple(x[rest].tolist())
        out[rest] = np.frombuffer(text.replace(" ", "\0").encode("ascii"), "<u8").reshape(-1, 4)
    return out.view(np.uint8)
