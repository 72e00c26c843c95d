"""'%.17g' text of a float column as a byte matrix, without a str per value."""

from __future__ import annotations

import numpy as np

# the widest '%.17g' is 24 bytes ('-1.2345678901234567e-308'); the fixed
# layout below is sign, 6 integer digits, '.', and 3 + 17 fraction digits
WIDTH = 28
_DOT = 7
_POW10 = 10.0 ** np.arange(23)  # exact doubles


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


def g17(x) -> np.ndarray:
    """A (len(x), WIDTH) uint8 matrix whose row i, with its NUL bytes
    removed, is exactly '%.17g' % x[i].

    Zeros and values printed in fixed notation with 1e-4 <= |x| < 1e6 take
    the vectorised path; every other value is formatted by Python itself.
    """
    x = np.asarray(x, dtype=float).ravel()
    a, neg = np.abs(x), np.signbit(x)
    out = np.zeros((len(x), WIDTH), np.uint8)

    near = np.flatnonzero((a >= 1e-4) & (a < 1e6))
    exp = np.floor(np.log10(a[near])).astype(np.int64)
    d = _round_scaled(a[near], 16 - exp)
    # 17 digits prove exp (in -4 .. 5 here) is the exponent '%.17g' prints; a
    # log10 that erred by one near a power of ten gives 16 or 18, and Python
    # formats those
    fast = (d >= 10**16) & (d < 10**17)
    # sorted by exponent, so that each exponent's rows are one slice
    order = np.argsort(exp[fast])
    rows, exp, d = near[fast][order], exp[fast][order], d[fast][order]

    # the 17 digits of each value, most significant first, as ASCII up to
    # the last nonzero fraction digit and NUL after it
    digits = np.empty((17, len(d)), np.uint8)
    for j in range(16, -1, -1):
        q = d // 10
        digits[j] = d - 10 * q
        d = q
    last = 16 - np.argmax(digits[::-1] != 0, axis=0)  # d >= 1e16: never all zero
    digits += ord("0")
    digits *= np.arange(17)[:, None] <= np.maximum(last, exp)
    digits = np.ascontiguousarray(digits.T)

    block = np.zeros((len(rows), WIDTH), np.uint8)
    bounds = np.searchsorted(exp, np.arange(-4, 7))
    for k, lo, hi in zip(range(-4, 6), bounds[:-1], bounds[1:]):
        if k >= 0:  # k + 1 integer digits, then the fraction
            block[lo:hi, _DOT - 1 - k:_DOT] = digits[lo:hi, :k + 1]
            block[lo:hi, _DOT + 1:_DOT + 17 - k] = digits[lo:hi, k + 1:]
        else:  # '0.', -k - 1 zeros, then every digit
            block[lo:hi, _DOT - 1:_DOT - k] = ord("0")
            block[lo:hi, _DOT - k:_DOT + 17 - k] = digits[lo:hi]
    block[:, _DOT] = np.where(last > exp, ord("."), 0)
    out[rows] = block

    zero = np.flatnonzero(a == 0)
    out[zero, _DOT - 1] = ord("0")
    out[:, 0] = np.where(neg, ord("-"), 0)

    done = np.zeros(len(x), bool)
    done[rows] = done[zero] = True
    rest = np.flatnonzero(~done)
    if len(rest):
        text = (f"%-{WIDTH}.17g" * len(rest)) % tuple(x[rest].tolist())
        cells = np.frombuffer(text.encode("ascii"), np.uint8).reshape(len(rest), WIDTH)
        out[rest] = np.where(cells == ord(" "), 0, cells)
    return out
