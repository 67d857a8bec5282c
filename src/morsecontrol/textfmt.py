"""Float-to-text for whole arrays: the bytes of ``format(v, f".{P}g")``.

``float_text(values, P)`` returns a NUL-padded numpy bytes array whose
element i is exactly ``format(values[i], f".{P}g")``, for P from 9 to 17.
Nothing here runs per value in Python except the fallback below.

Fast path (the detect-and-fallback scheme of Grisu3: Loitsch, "Printing
floating-point numbers quickly and accurately with integers", PLDI 2010):

1. Guess the decimal exponent ``X = floor(log10 |v|)``.
2. Scale: ``S = |v| * 10**(P-1-X)`` in double-double arithmetic. The power
   of ten comes from a table of ``(hi, lo)`` pairs built from Python ints,
   each the correctly rounded double of 10**s and of the remainder, so
   ``hi + lo`` is within 2**-106 (relative) of 10**s. ``|v| * hi`` is
   formed exactly by Dekker's two-product (split at 2**27 + 1; numpy does
   not fuse the multiply and add, so each step rounds once), and
   ``|v| * lo`` is added with one rounding.
3. Round S half-even to the integer N and read its P digits.
4. Lay out Python's ``g`` rules: fixed form for X in [-4, P-1], else
   exponent form with at least two exponent digits, trailing zeros
   stripped. The source column of every byte of the text depends only on
   the class (X in the fixed form; the exponent's sign and digit count in
   the exponent form), on the count of digits left after stripping and on
   the sign, so one lookup table, built on first use, gathers each text
   from a row of digits and constant bytes.

Error bound. S is below 10**P < 2**57. The table pair contributes at most
2**57 * 2**-106 = 2**-49 of absolute error. ``|v| * lo`` is below 16, so
rounding it costs at most 2**-50; the two additions that reduce S to
``floor(p) + fraction`` (terms below 1 and 25) cost at most 2**-49 and
2**-48. The error of the computed S is below 2**-46 absolute.

What is handed back to ``format()``, so that every byte is right:

- non-finite values, and |v| outside [1e-250, 1e250], which also excludes
  every subnormal; within that range the products neither overflow nor
  lose bits to underflow, and the table covers every exponent;
- a scaled value whose fraction lies within 1e-9 of one half: only there can
  an error of 2**-46 move the rounding of N (this also sends every exact
  decimal tie to ``format()``, which rounds it half-even on the exact
  value);
- an exponent guess that puts S below 10**(P-1) or N at or above 10**P.
  Then the true exponent is X - 1 or X + 1. A true S in
  [10**(P-1) - 2**-46, 10**(P-1)) that is computed as at least 10**(P-1)
  is harmless: rounded at exponent X - 1 it carries to the same digits.

±0 takes the fast path as ``0`` and ``-0``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: |v| outside [_LOW, _HIGH] goes to format(); see the module docstring.
_LOW, _HIGH = 1e-250, 1e250
_X_MIN, _X_MAX = -251, 250  # floor(log10 |v|) on that range, with a margin
_TIE_MARGIN = 1e-9
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant


def _nearest(num: int, den: int) -> tuple[float, float]:
    """(hi, lo): the nearest double to num/den, and the nearest double to
    the rest. Python's int division is correctly rounded."""
    hi = num / den
    hi_num, hi_den = hi.as_integer_ratio()
    return hi, (num * hi_den - hi_num * den) / (den * hi_den)


@lru_cache(maxsize=None)
def _powers(precision: int) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) of 10**(precision-1-X) for X from _X_MIN to _X_MAX."""
    pairs = []
    for x in range(_X_MIN, _X_MAX + 1):
        s = precision - 1 - x
        pairs.append(_nearest(10 ** s, 1) if s >= 0 else _nearest(1, 10 ** -s))
    hi, lo = (np.array(column) for column in zip(*pairs))
    return hi, lo


# Columns of the per-value source row that ``_layout`` indexes: the P
# digits, the three exponent digits, then constant bytes.
_CONSTANTS = b".e-+0\0"


@lru_cache(maxsize=None)
def _layout(precision: int) -> tuple[np.ndarray, np.ndarray]:
    """(gather, constants): for every (class, kept digit count, sign), the
    source column of each byte of the text, NUL-padded to the width P + 7;
    and the constant bytes that follow the digits in each source row.

    Classes 0 .. P+3 are the fixed form with X = class - 4; classes P+4 ..
    P+7 the exponent form, with a positive exponent in P+6 and P+7 and three
    exponent digits in P+5 and P+7.
    """
    p = precision
    point, e, minus, plus, zero, pad = range(p + 3, p + 9)
    width = p + 7
    gather = np.full((p + 8, p + 1, 2, width), pad, dtype=np.intp)
    for cls in range(p + 8):
        for ndig in range(1, p + 1):
            for negative in (0, 1):
                text = [minus] if negative else []
                x = cls - 4
                if cls >= p + 4:
                    positive, three = divmod(cls - (p + 4), 2)
                    text += [0] + ([point, *range(1, ndig)] if ndig > 1 else [])
                    text += [e, plus if positive else minus, *range(p + 1 - three, p + 3)]
                elif x >= 0:
                    text += range(max(ndig, x + 1))
                    if ndig > x + 1:
                        text.insert(len(text) - (ndig - x - 1), point)
                else:
                    text += [zero, point, *[zero] * (-x - 1), *range(ndig)]
                gather[cls, ndig, negative, :len(text)] = text
    return gather.reshape(-1, width), np.frombuffer(_CONSTANTS, dtype=np.uint8)


def _digit_rows(m: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` decimal digits of the integers ``m`` < 10**count <= 1e9,
    one row per digit, most significant first. Each ``m / 10**k`` is within
    2**-53 relative of its exact value, which is at least 10**-k below the
    next integer, so every floor is exact."""
    q = np.floor(m / 10.0 ** np.arange(count - 1, -1, -1)[:, None])
    q[1:] -= 10.0 * q[:-1]
    return q


def _two_product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(p, e) with p = fl(a*b) and p + e = a*b exactly (Dekker, no FMA)."""
    p = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = _SPLIT * b
    b_hi = t - (t - b)
    b_lo = b - b_hi
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def float_text(values: np.ndarray, precision: int) -> np.ndarray:
    """The texts ``format(v, f".{precision}g")`` of a float64 array, as a
    1-d NUL-padded bytes array of width precision + 7.

    Its scratch arrays take about 300 bytes per value, so large arrays are
    best formatted in blocks."""
    p = precision
    v = np.asarray(values, dtype=np.float64).ravel()
    a = np.abs(v)
    zero = a == 0.0
    fast = (a >= _LOW) & (a <= _HIGH)  # false for nan and inf
    a_fast = np.where(fast, a, 1.0)
    x = np.floor(np.log10(a_fast)).astype(np.int64)
    np.clip(x, _X_MIN, _X_MAX, out=x)
    hi, lo = _powers(p)
    power = x - _X_MIN
    prod, err = _two_product(a_fast, hi[power])
    whole = np.floor(prod)
    frac = (prod - whole) + (err + a_fast * lo[power])
    near = np.rint(frac)
    tie = np.abs(np.abs(frac - near) - 0.5) < _TIE_MARGIN
    whole = whole.astype(np.int64)
    n = whole + near.astype(np.int64)
    low_end = whole + np.floor(frac).astype(np.int64) < 10 ** (p - 1)
    fast &= ~(tie | low_end | (n >= 10 ** p))
    fast |= zero
    n[~fast | zero] = 0
    x[zero] = 0

    # One source row per column of ``_layout``, one source column per value.
    upper, lower = np.divmod(n, 10 ** 8)
    source = np.empty((p + 9, v.size), dtype=np.uint8)
    digits = source[:p]
    digits[:p - 8] = _digit_rows(upper.astype(np.float64), p - 8)
    digits[p - 8:] = _digit_rows(lower.astype(np.float64), 8)
    # Digits left after stripping trailing zeros: the place of the last nonzero one.
    places = np.arange(1, p + 1, dtype=np.uint8)[:, None]
    ndig = np.maximum(((digits != 0) * places).max(axis=0), 1)
    digits += ord("0")
    exponent = np.abs(x)
    source[p] = exponent // 100
    source[p + 1] = exponent // 10 % 10
    source[p + 2] = exponent % 10
    source[p:p + 3] += ord("0")
    gather, constants = _layout(p)
    source[p + 3:] = constants[:, None]
    cls = np.where((x < -4) | (x >= p), p + 4 + 2 * (x > 0) + (exponent >= 100), x + 4)
    index = gather[(cls * (p + 1) + ndig) * 2 + np.signbit(v)]
    index *= v.size
    index += np.arange(v.size)[:, None]
    text = source.ravel()[index].view(f"S{p + 7}").ravel()
    for i in np.flatnonzero(~fast):
        text[i] = format(float(v[i]), f".{p}g").encode("ascii")
    return text
