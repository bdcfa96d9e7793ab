"""CSV tables for the command line: one writer and one float formatter.

Every float in a table is written as ``format(x, ".16e")`` writes it: 17
significant digits, correctly rounded, a sign only when negative, and an
exponent of at least two digits.  `e16` makes those bytes for a whole array
with numpy.  For 1e-280 <= |x| < 1e281 it estimates the decade
e = floor(log10 |x|) and forms |x| 10^(16 - e) as an unevaluated sum hi + lo
by Dekker's exact two-product (Dekker 1971) against 10^(16 - e) held as a
double-double: the double nearest the power and the double nearest the rest,
both from exact integer arithmetic.  The sum is within about 1e-14 of the
exact product, and the 17 digits are its nearest integer; a zero reads
n = 0 from a column of zeros.  What that cannot decide goes through Python's
correctly rounded formatting (Gay 1990), one value at a time:

- a fraction of hi + lo within 1e-6 of one half (an exact tie included);
- a decade estimate that is one off, which happens only a few hundred ulps
  below a power of ten, and the digits 99999999999999999, which could carry
  into the next decade;
- non-finite, subnormal and extreme values.

`write_table` formats every float column of a table in one `e16` call.  An
int column reads its digits from the same four-digit words, after a sign
word that is NUL or "-": with k words for the largest |x| in the column,
word w holds digits 4w .. 4w + 3 of |x| zero-padded to 4k digits, and its
leading zeros are set to NUL, all but the last digit of a zero.  A str
column is its UCS-4 code points cast to bytes, once every one of them is
ASCII.  The NUL bytes of every field are dropped when the rows are joined.
"""

from __future__ import annotations

import functools
import sys
from typing import Sequence

import numpy as np

WIDTH = 24                  # len("-1.2345678901234567e-100"), the widest field
_E_OFF = 300                # decade e lives in column e + _E_OFF of the tables
_CLAMP = 1e-290, 1e290      # |x| outside lands in a column that is never filled
_HIGH = np.int64(-1 << 27)  # keeps the high 26 bits of a significand
_TIE = 1e-6                 # fractions this close to 1/2 go to the fallback
# floor(hi + lo) must lie in [10^16, 10^17 - 1): 17 digits that cannot carry
_N_LO, _N_SPAN = np.int64(10 ** 16), np.uint64(9 * 10 ** 16 - 1)
# n = t 10^15 + g1 10^11 + g2 10^7 + g3 10^3 + g4: the leading two digits t,
# three groups of four and one of three, read from rows 10^4 + g4 of digits
_PLACES = np.array([[10 ** 15], [10 ** 11], [10 ** 7], [10 ** 3], [1]], dtype=np.int64)
_RADIX = np.array([[10 ** 4], [10 ** 4], [10 ** 4], [10 ** 3]], dtype=np.int64)
_GROUP_ROW = np.array([[0], [0], [0], [10 ** 4]], dtype=np.int64)
# int columns: a word keeps its last d characters, _KEEP[d], where d is the
# number of digits, at most 4, of the prefix of |x| that ends with the word:
# d = _STEPS.searchsorted(prefix, "right"), and _LAST_STEPS for the last
# word, where a zero prefix has its one digit.  _KEEP and _MINUS are built
# from bytes, so that they hold for either byte order.
_TEN4 = np.uint64(10 ** 4)
_STEPS = np.array([1, 10, 100, 1000], np.uint64)
_LAST_STEPS = np.array([0, 10, 100, 1000], np.uint64)
_KEEP = np.frombuffer(b"\0\0\0\0" b"\0\0\0\xff" b"\0\0\xff\xff" b"\0\xff\xff\xff"
                      b"\xff\xff\xff\xff", np.uint32)
_MINUS = np.frombuffer(b"\0\0\0-", np.uint32)[0]

# rows h1, h2, lo, hi of 10^(16 - e) in column e + _E_OFF: hi is the double
# nearest the power, lo the double nearest the rest, and h1 + h2 = hi is
# Dekker's split of hi.  A column is filled when a value first needs it;
# _READY marks the filled ones and those outside the fast path, which stay 0
# so that their values always reach the fallback.
_SCALES = np.zeros((4, 2 * _E_OFF + 1))
_READY = np.ones(2 * _E_OFF + 1, dtype=bool)
_READY[_E_OFF - 280:_E_OFF + 281] = False


@functools.cache
def _glyphs() -> tuple[np.ndarray, ...]:
    """The 4-byte words that `e16` assembles its fields from.

    lead[t + 1000 s]: "-" if s else NUL, then "d.d" for the leading two
    digits t (0 for a zero, 10..99; the other t occur only in fields the
    fallback rewrites).
    digits[g]: g in four digits for g < 10^4; digits[10^4 + g]: g in three
    digits and "e".
    exponent[e + _E_OFF]: the sign of e and |e| in two or three digits,
    NUL-padded in front.
    """
    lead = b"".join(b"%c%d.%d" % (sign, *divmod(t % 100, 10))
                    for sign in (0, ord("-")) for t in range(1000))
    digits = (b"".join(b"%04d" % g for g in range(10 ** 4))
              + b"".join(b"%03de" % g for g in range(10 ** 3)))
    exponent = b"".join(b"%c" % (ord("-") if e < 0 else ord("+"))
                        + (b"%02d" % abs(e)).rjust(3, b"\0")
                        for e in range(-_E_OFF, _E_OFF + 1))
    return (np.frombuffer(lead, np.uint32), np.frombuffer(digits, np.uint32),
            np.frombuffer(exponent, np.uint32))


def _fill_scales(columns: set[int]) -> None:
    """Fill these columns of _SCALES.

    Python rounds int / int correctly, so hi and lo come from exact
    integers.
    """
    for col in columns:
        k = 16 - (col - _E_OFF)
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        hi = num / den
        p, q = hi.as_integer_ratio()
        t = hi * 134217729.0        # 2^27 + 1
        h1 = t - (t - hi)
        _SCALES[:, col] = h1, hi - h1, (num * q - p * den) / (den * q), hi
        _READY[col] = True


def _printf(values: np.ndarray) -> np.ndarray:
    """The fallback: Python's own formatting of each value, as NUL-padded rows."""
    return np.array([b"%.16e" % v for v in values.tolist()],
                    dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)


def _scaled(s: np.ndarray, col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s 10^(16 - e) as hi + lo, for the decade e = col - _E_OFF.

    p + err = s t_hi exactly (Dekker's two-product), then err takes s t_lo,
    rounded once; hi, an integer since hi >= 1e16 > 2^53, is p + err rounded.
    """
    h1, h2, t_lo, t_hi = _SCALES.take(col, axis=1)
    p = s * t_hi
    s1 = (s.view(np.int64) & _HIGH).view(np.float64)
    s2 = s - s1
    err = s1 * h1 - p
    err += s1 * h2
    err += s2 * h1
    err += s2 * h2
    err += s * t_lo
    hi = p + err
    return hi, err - (hi - p)


def _decimal(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The decimal form of |x|: n = round(|x| 10^(16 - e)), the column
    e + _E_OFF of its decade e, and where n is not sure.

    n has the 17 significant digits of |x| unless the mask is set: a decade
    estimate one off, n = 10^17 - 1, a fraction within _TIE of one half, or
    a nonzero |x| outside the fast path, whose column of zeros gives n = 0.
    """
    s = np.fmin(np.fmax(np.abs(x), _CLAMP[0]), _CLAMP[1])    # NaN reads _CLAMP[0]
    col = (np.log10(s) + _E_OFF).astype(np.intp)
    ready = _READY[col]
    if not ready.all():
        _fill_scales(set(col[~ready].tolist()))
    hi, lo = _scaled(s, col)
    whole = np.floor(lo)
    lo -= whole
    n = hi.astype(np.int64)
    n += whole.astype(np.int64)
    unsure = (n - _N_LO).view(np.uint64) >= _N_SPAN
    unsure |= np.abs(lo - 0.5) < _TIE
    n += lo > 0.5
    # a zero's column of zeros gives n = 0, its digits; it takes decade 0
    zero = x == 0.0
    unsure[zero] = False
    col[zero] = _E_OFF
    return n, col, unsure


def e16(values) -> np.ndarray:
    """``format(x, ".16e")`` for every x in values, as NUL-padded uint8 rows (n, 24).

    Dropping the NUL bytes of a row leaves exactly the bytes of
    ``format(x, ".16e")``.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    lead, digits, exponent = _glyphs()
    n, col, redo = _decimal(x)
    places = n // _PLACES
    groups = places[:-1] * _RADIX
    np.subtract(places[1:], groups, out=groups)
    groups += _GROUP_ROW
    words = np.empty((len(x), 6), np.uint32)
    words[:, 0] = lead[places[0] + 1000 * np.signbit(x)]
    words[:, 1:5] = digits[groups].T
    words[:, 5] = exponent[col]
    fields = words.view(np.uint8)
    if redo.any():
        redo = np.flatnonzero(redo)
        fields[redo] = _printf(x[redo])
    return fields


def _int_field(c: np.ndarray) -> np.ndarray:
    """The NUL-padded str() of every int in c, as uint8 rows: a sign word,
    then the fewest four-digit words that hold the largest |x|."""
    c = c.astype(np.int64, casting="safe", copy=False)
    mag = np.abs(c).view(np.uint64)     # -2^63 keeps its bits: 2^63
    k = (len(str(mag.max(initial=0))) + 3) // 4
    digits = _glyphs()[1]
    words = np.empty((len(c), k + 1), np.uint32)
    words[:, 0] = (c < 0) * _MINUS
    for w in range(k - 1):
        prefix = mag // np.uint64(10 ** (4 * (k - 1 - w)))
        keep = _KEEP.take(_STEPS.searchsorted(prefix, "right"))
        np.bitwise_and(digits.take(prefix % _TEN4 if w else prefix), keep,
                       out=words[:, w + 1])
    keep = _KEEP.take(_LAST_STEPS.searchsorted(mag, "right"))
    np.bitwise_and(digits.take(mag % _TEN4 if k > 1 else mag), keep, out=words[:, k])
    return words.view(np.uint8)


def _str_field(c: np.ndarray) -> np.ndarray:
    """The NUL-padded bytes of every ASCII str in c, as uint8 rows; a
    non-ASCII str raises UnicodeEncodeError."""
    codes = c.view(np.uint32).reshape(len(c), c.itemsize // 4)
    if codes.max(initial=0) > 127:
        c[(codes > 127).any(axis=1)][0].encode("ascii")     # raises
    return codes.astype(np.uint8)


def write_table(out: str | None, invocation: str, header: Sequence[str],
                columns: Sequence, empty: dict[int, np.ndarray] | None = None) -> None:
    """Write one CSV table to the file out, or to stdout when out is None.

    The first line is '# qpshell ' and the invocation, the second the
    header, then one row per entry of the columns, one column per header
    name, or no columns for a table without rows.  Float columns are
    written by `e16`, all in one call; int and ASCII str columns as their
    str(), from numpy passes over each column (see the module docstring).
    empty maps a column index to a boolean mask of the rows whose field in
    that column stays empty.
    """
    columns = [np.asarray(c) for c in columns or [()] * len(header)]
    rows = len(columns[0])
    at = [i for i, c in enumerate(columns) if c.dtype.kind == "f"]
    fields = [None] * len(columns)
    if at:
        floats = e16(np.concatenate([columns[i] for i in at])).reshape(len(at), rows, WIDTH)
        for i, field in zip(at, floats):
            fields[i] = field
    for i, c in enumerate(columns):
        if fields[i] is None:
            fields[i] = _str_field(c) if c.dtype.kind == "U" else _int_field(c)
    for i, blank in (empty or {}).items():
        fields[i][blank] = 0
    # NUL-padded fields, each followed by its "," or "\n"
    comma = np.full((rows, 1), ord(","), np.uint8)
    pieces = [piece for field in fields for piece in (field, comma)]
    pieces[-1] = np.full((rows, 1), ord("\n"), np.uint8)
    table = np.concatenate(pieces, axis=1)
    head = "# qpshell " + invocation + "\n" + ",".join(header) + "\n"
    body = table[table != 0]
    if out is None:
        sys.stdout.write(head + body.tobytes().decode("ascii"))
    else:
        with open(out, "wb") as fh:
            fh.write(head.encode("utf-8"))
            fh.write(body)
