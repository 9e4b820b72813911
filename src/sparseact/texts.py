"""Decimal text of float64 and int64 values, a block of values at a time.

``float_chars(a)`` holds ``float.__repr__(v)`` of each value of a float64
array, and ``int_chars(a)`` ``int.__repr__(v)`` of each value of an int64
array or a range of int64 values, as ASCII bytes: one NUL-padded row per
value, computed for 2^13 values at a time with numpy rather than one value
at a time by CPython's big-integer ``dtoa``.  Net files
(``SparseNet.to_json``, its nonzero weights in one call), float64 table
columns and range table columns go through them; every other table cell
goes through the writer's one per-cell formatter.  No temporary is longer
than a block, whatever the column's length.

Shortest digits.  A nonzero double v = c 2^q rounds back from every real in
an interval around it; ``repr`` prints the shortest decimal in that interval,
the closest to v among those, ties to an even last digit, with the
interval's ends included iff c is even.  Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020) finds it with fixed-width integers.
For k = floor(log10 2^q) (log10 of 3/4 2^q where the lower gap is half the
upper one) the interval is 1 to 10 units of 10^k wide, so the answer is the
one multiple of 10^(k+1) inside it, or else s 10^k or (s+1) 10^k with
s = floor(v / 10^k).  v and both ends are scaled by a 126-bit upper
approximation of 10^-k and rounded to odd, which keeps every comparison
exact.  The 617 powers, k = -324..292, are built at import from Python ints;
the 64x64-bit products are taken from 32-bit halves.  The one departure from
Giulietti's Java code is that ``repr`` has no two-digit minimum, so the
shorter candidate is tried for every s >= 10 and the tiniest subnormals are
not rescaled (Java prints 4.9E-324 where ``repr`` prints 5e-324).

Text.  The digits become characters through a table of the 10,000
four-digit strings, written into one row of bytes per value.  A layout
table, indexed by the sign, the decimal point's position and the digit
count, then picks each row's characters in ``repr``'s order: exponent form
iff the decimal exponent is below -4 or at least 16, the exponent signed and
at least two digits (``1e-05``, ``1e+16``; but ``0.0001``,
``9999999999999998.0``), and ``.0`` after an integral value; no ``str`` is
made.  Zeros take no digit work.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 1 << 13
_WIDTH = 24  # the longest text: "-1.2345678901234567e-308"

# Each value's source row: 20 digit characters (a float's 17 significant
# digits are the last 17), a float's exponent as "0" and three digits, then
# constants that a layout may pick.
_ROW = 32
_MINUS, _POINT, _ZERO, _E, _PLUS, _NUL = range(24, 30)
_CONSTANTS = np.frombuffer(b"-.0e+\0\0\0", dtype=np.uint8)
_FLOAT_DIGITS = range(3, 20)

# the four ASCII digits of 0..9999, each as one uint32 in memory order
_DIGITS4 = (
    (np.arange(10_000)[:, None] // [1000, 100, 10, 1] % 10 + ord("0"))
    .astype(np.uint8)
    .view(np.uint32)
    .ravel()
)
_POW10 = np.array([10**i for i in range(20)], dtype=np.uint64)
_ZEROS = np.array([b"0.0", b"-0.0"], dtype=f"S{_WIDTH}").view(np.uint8).reshape(2, _WIDTH)

_M32 = np.uint64(0xFFFF_FFFF)
_M63 = np.uint64(0x7FFF_FFFF_FFFF_FFFF)
_M52 = np.uint64(0xF_FFFF_FFFF_FFFF)
_K_MIN, _K_MAX = -324, 292


def _flog2pow10(e):
    """floor(e log2 10), exact for |e| <= 1233."""
    return (e * 913_124_641_741) >> 38


def _powers_of_ten() -> tuple[np.ndarray, np.ndarray]:
    """g = floor(10^-k 2^(125 - floor(-k log2 10))) + 1, in [2^125, 2^126),
    split as g1 2^63 + g0 for k = _K_MIN.._K_MAX."""
    g1, g0 = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        r = _flog2pow10(-k) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        g1.append(g >> 63)
        g0.append(g & (1 << 63) - 1)
    return np.array(g1, dtype=np.uint64), np.array(g0, dtype=np.uint64)


_G1, _G0 = _powers_of_ten()


def _layouts(cases) -> tuple[np.ndarray, np.ndarray]:
    """One row of source columns per case, NUL-padded to the text width, and
    each case's text length."""
    cases = list(cases)
    rows = b"".join(bytes(cols + [_NUL] * (_WIDTH - len(cols))) for cols in cases)
    return np.frombuffer(rows, np.uint8).reshape(-1, _WIDTH), np.array(list(map(len, cases)))


def _float_layout(neg: int, point: int, long_exp: int, count: int) -> list:
    """The columns of ``repr``'s text of -1^neg 0.d_1..d_count 10^point, the
    point clipped to [-4, 17]; long_exp marks a three-digit exponent."""
    digits = list(_FLOAT_DIGITS)
    if -4 < point <= 0:
        body = [_ZERO, _POINT] + [_ZERO] * -point + digits[:count]
    elif 0 < point <= 16:  # the digits past count are zeros, so ".0" is d_(point+1)
        body = digits[:point] + [_POINT] + digits[point : max(count, point + 1)]
    else:
        fraction = [_POINT] + digits[1:count] if count > 1 else []
        body = digits[:1] + fraction + [_E, _MINUS if point < 0 else _PLUS]
        body += list(range(22 - long_exp, 24))
    return [_MINUS] * neg + body


# indexed by ((neg * 22 + point + 4) * 2 + long_exp) * 17 + count - 1
_FLOAT_LAYOUTS = _layouts(
    _float_layout(neg, point, long_exp, count)
    for neg in (0, 1)
    for point in range(-4, 18)
    for long_exp in (0, 1)
    for count in range(1, 18)
)
# indexed by neg * 20 + count - 1
_INT_LAYOUTS = _layouts(
    [_MINUS] * neg + list(range(20 - count, 20)) for neg in (0, 1) for count in range(1, 21)
)


def _mul_high(a0, a1, b0, b1):
    """High 64 bits of the 128-bit products (a1 2^32 + a0)(b1 2^32 + b0)."""
    lo, mid1, mid2 = a0 * b0, a1 * b0, a0 * b1
    carry = ((lo >> 32) + (mid1 & _M32) + (mid2 & _M32)) >> 32
    return a1 * b1 + (mid1 >> 32) + (mid2 >> 32) + carry


def _round_to_odd(g0h, g1h, g1, cp):
    """g cp / 2^127 for g = g1 2^63 + g0 (g0h, g1h: their 32-bit halves),
    with any nonzero bit below the unit folded into the lowest bit
    (Giulietti's rop)."""
    cph = cp & _M32, cp >> 32
    x1 = _mul_high(*g0h, *cph)
    y1 = _mul_high(*g1h, *cph)
    z = (g1 * cp >> 1) + x1
    return y1 + (z >> 63) | ((z & _M63) + _M63) >> 63


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(D, k) with D 10^k the text's value, for the bits of nonzero finite
    doubles.  Selections are sums of masks: np.where is slow on mixed ones."""
    t = bits & _M52
    field = (bits >> 52 & 0x7FF).astype(np.int64)
    c = t | (field > 0).astype(np.uint64) << 52
    q = np.maximum(field, 1) - 1075
    irregular = (t == 0) & (field > 1)  # the gap below is half the gap above
    # floor(log10 2^q), or floor(log10(3/4 2^q)) where irregular
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = np.take(_G1, k - _K_MIN), np.take(_G0, k - _K_MIN)
    g0h, g1h = (g0 & _M32, g0 >> 32), (g1 & _M32, g1 >> 32)
    cb = c << 2
    vb = _round_to_odd(g0h, g1h, g1, cb << h)
    vbl = _round_to_odd(g0h, g1h, g1, cb - 2 + irregular << h)
    vbr = _round_to_odd(g0h, g1h, g1, cb + 2 << h)
    vbl += c & 1  # an odd c leaves the interval's ends out
    vbr -= c & 1
    s = vb >> 2
    sp10 = s // 10 * 10
    upin, wpin = vbl <= sp10 << 2, sp10 + 10 << 2 <= vbr
    uin, win = vbl <= s << 2, s + 1 << 2 <= vbr
    # s + 1 if only it is in the interval, or both are and it is the closer,
    # ties going to the even one
    rest = vb & 3
    closer_t = (rest == 3) | (rest == 2) & (s & 1 == 1)
    d = s + (win & ~uin | (uin == win) & closer_t)
    # a multiple of 10 in the interval has a digit fewer
    np.copyto(d, sp10 + wpin * np.uint64(10), where=(s >= 10) & (upin != wpin))
    return d, k


def _source_rows(size: int) -> np.ndarray:
    """Source rows for a block of up to ``size`` values, constants filled in;
    the digits are written block by block."""
    rows = np.zeros((min(size, _BLOCK), _ROW), dtype=np.uint8)
    rows[:, 24:] = _CONSTANTS
    return rows


def _chars(rows: np.ndarray, layouts, index: np.ndarray) -> np.ndarray:
    """The first len(index) rows' texts by layouts[index], NUL-padded."""
    layouts, lengths = layouts
    width = int(np.take(lengths, index).max(initial=1))
    cols = np.take(layouts[:, :width], index, axis=0)
    cols = cols + np.arange(0, index.size * _ROW, _ROW)[:, None]  # flat indices into rows
    return np.take(rows.reshape(-1), cols, mode="clip")  # all in range: no check


def _write_digits(rows: np.ndarray, values: np.ndarray) -> None:
    """Each value's decimal digits, right-aligned in columns 0-19 of its row,
    four at a time up to its highest nonzero four; no layout reads further
    left, so those columns keep what an earlier block left there."""
    words = rows.view(np.uint32)[: values.size]
    for word in range(4, -1, -1):
        quot = values // 10**4
        words[:, word] = np.take(_DIGITS4, values - quot * 10**4)
        if not quot.any():
            break
        values = quot


def _float_block(bits: np.ndarray, rows: np.ndarray) -> np.ndarray:
    d, k = _shortest(bits)
    count = np.searchsorted(_POW10[:18], d, side="right")
    d *= np.take(_POW10, 17 - count)  # 17 digits, the first nonzero
    _write_digits(rows, d)
    point = k + count  # the decimal point's place after the first digit's
    exp = np.abs(point - 1)
    rows.view(np.uint32)[: d.size, 5] = np.take(_DIGITS4, exp)
    # significant digits: 17 less the trailing zeros
    count = 17 - np.argmax(rows[: d.size, 19:2:-1] != ord("0"), axis=1)
    index = ((bits >> 63).astype(np.intp) * 22 + np.clip(point, -4, 17) + 4) * 2 + (exp >= 100)
    return _chars(rows, _FLOAT_LAYOUTS, index * 17 + count - 1)


def _int_block(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    neg = (v >> 63).view(np.uint64)  # all ones where v < 0
    magnitude = (v.view(np.uint64) ^ neg) - neg
    _write_digits(rows, magnitude)
    count = np.maximum(np.searchsorted(_POW10, magnitude, side="right"), 1)
    return _chars(rows, _INT_LAYOUTS, count - 1 + 20 * (v < 0))


def float_chars(a: np.ndarray) -> np.ndarray:
    """``float.__repr__(v)`` of each value of a 1-D float64 array as a row of
    ASCII bytes; ValueError if a value is not finite."""
    bits = a.view(np.uint64)
    magnitude = bits << 1  # the sign shifted out
    if (magnitude >= 0x7FF << 53).any():
        raise ValueError("not every value is finite")
    nonzero = np.flatnonzero(magnitude)
    chars, rows = np.take(_ZEROS, bits >> 63, axis=0), _source_rows(nonzero.size)
    for start in range(0, nonzero.size, _BLOCK):
        at = nonzero[start : start + _BLOCK]
        text = _float_block(bits[at], rows)
        chars[at, : text.shape[1]] = text
    return chars


def int_chars(a) -> np.ndarray:
    """``int.__repr__(v)`` of each value of a 1-D int64 array or a range of
    int64 values as a row of ASCII bytes."""
    chars, rows = np.zeros((len(a), 20), dtype=np.uint8), _source_rows(len(a))
    for start in range(0, len(a), _BLOCK):
        block = a[start : start + _BLOCK]
        if isinstance(block, range):
            block = np.arange(block.start, block.stop, block.step, dtype=np.int64)
        text = _int_block(block, rows)
        chars[start : start + block.size, : text.shape[1]] = text
    return chars
