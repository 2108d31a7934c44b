"""The text of a two-column curve CSV, built in numpy: each row is
'{:.10g},{:.10g}\\r\\n' of its two floats, the bytes Python's format gives.

Only the curves command imports this module.  A chunk's rows are laid out
as a matrix of bytes, one row per CSV row, with every byte no character
fills set to NUL; deleting the NULs leaves the chunk's text.
"""

from __future__ import annotations

import numpy as np

# Bytes of one field: Python's text of a float64 takes at most 17
# ('-2.225073859e-308').  A value on the fast path (_fields) takes at
# most 15: the lead '0.000' of a value below 1, right-aligned in columns
# 0 to 4, then its ten digits from column 5, or from column 4 for a
# value of at least 1, with a decimal point after digit e.
_WIDTH = 17
# A CSV row: the two fields, each NUL-padded, the comma and the line end.
_ROW = np.dtype([("x", f"V{_WIDTH}"), ("comma", "u1"), ("y", f"V{_WIDTH}"), ("end", "<u2")])
_CRLF = 13 | 10 << 8  # b"\r\n" as a little-endian uint16
# The lead of each exponent e from -4 to 9, in columns 0 to 4: below 1,
# '0' in column 4 + e, the point in column 5 + e and zeros up to column 4.
_LEAD = np.array([b"0.000"[:1 - e].rjust(5, b"\0") if e < 0 else bytes(5)
                  for e in range(-4, 10)], dtype="S5").view(np.uint8).reshape(14, 5).T.copy()
_POW10 = 10.0 ** np.arange(14)  # exact: every power of ten up to 1e22 is a float64
_PLACES = (10.0 ** np.arange(4, -1, -1)).astype(np.float32)[:, None]
_INDEX = np.arange(10, dtype=np.int8)[:, None]


def _fields(values: np.ndarray) -> np.ndarray:
    """(values.size, _WIDTH) uint8: row k is "{:.10g}".format(values[k])
    in ASCII with NULs around its characters.

    A value x with 1e-4 <= x < 1e10 takes the fast path.  Its exponent
    e = floor(log10 x) is clipped to [-4, 9], where the true exponent
    lies, and scaled = x * 10**(9 - e) is the ten-digit significand.
    The power of ten is exact, so scaled has one rounding: it lies within
    half an ulp, at most 2**-20 < 1e-6, of the exact product s, for
    every scaled below 2**34 > 1e10.  N = rint(scaled) is kept only when
    frac(scaled) is more than 1e-5 from one half, so no half-integer lies
    between scaled and s and N is s rounded to the nearest integer, and
    only when 1e9 <= N < 1e10.  Then N is x rounded to ten significant
    digits, as Python's correctly rounded format rounds it, and "%g"
    writes it in fixed notation: the digits of N with the decimal point
    after digit e, zeros after the point dropped from the end, and no
    bare point.  N's digits are those of its two halves of five digits,
    whole numbers below 2**24 and so exact in float32, where each
    floor(half / 10**j) is exact: the quotient is within a relative
    2**-24 of a number at least 10**-j from the next whole number above
    it, and exact when it is whole.

    log10 may return its result's neighbour, so e may be one off where x
    is near a power of ten.  One too small, and s >= 1e10 gives
    N >= 1e10.  One too large, and s < 1e9 gives N < 1e9 unless x rounds
    up to 10**e at ten digits, when N = 1e9 writes 10**e: the text "%g"
    writes, whose exponent is that of the rounded value.  So the bytes
    do not depend on the last bit of the CPU's log10.

    Every other value is formatted by Python: 0, -0.0, negatives, NaN,
    the infinities, values below 1e-4 or from 1e10 on, and values whose
    eleventh digit may be a rounding half."""
    fast = (values >= 1e-4) & (values < 1e10)
    x = np.where(fast, values, 1.0)
    e = np.floor(np.log10(x))
    np.clip(e, -4, 9, out=e)
    e = e.astype(np.int8)
    scaled = x * _POW10[9 - e]
    n = np.rint(scaled)
    # |scaled - N| < 0.5 - 1e-5: frac(scaled) is more than 1e-5 from one half
    fast &= (np.abs(scaled - n) < 0.5 - 1e-5) & (n >= 1e9) & (n < 1e10)

    # N's digits, one row each, from its two halves of five digits
    hi = np.floor(n / 1e5)
    halves = np.array((hi, n - 1e5 * hi), dtype=np.float32)[:, None]
    quotients = np.floor(halves / _PLACES)
    quotients[:, 1:] -= 10 * quotients[:, :-1]
    digits = quotients.reshape(10, n.size).astype(np.uint8)
    last = (_INDEX * (digits != 0)).max(axis=0)  # the place of N's last nonzero digit
    # digit j stays if it is in the integer part or no later than the last nonzero one
    digits += 48
    digits *= _INDEX <= np.maximum(last, e)
    field = np.zeros((_WIDTH, n.size), np.uint8)
    field[:5] = np.take(_LEAD, e + 4, axis=1)
    # digit j in column 5 + j, or 4 + j in the integer part from 1 on;
    # the point follows digit e if a kept digit follows it
    field[5:15] = digits
    np.copyto(field[4:14], digits, where=_INDEX <= e)
    whole = np.flatnonzero(e >= 0)
    field[5 + e[whole], whole] = 46 * (last[whole] > e[whole])

    out = field.T.copy()
    # Python's text replaces whatever the fast path laid out for the others
    slow = np.flatnonzero(~fast)
    texts = np.array(list(map("{:.10g}".format, values[slow].tolist())), dtype=f"S{_WIDTH}")
    out[slow] = texts.view(np.uint8).reshape(slow.size, _WIDTH)
    return out


def _column(values: np.ndarray, out: np.ndarray):
    """_fields of each value into out, a field of _ROW, formatting each
    run of equal bits once: an ROC row moves only one of its two
    coordinates.  Bits, not values, mark a run, so that -0.0 after 0.0
    starts one."""
    bits = values.view(np.int64)
    starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
    fields = _fields(values[starts]).view(f"V{_WIDTH}").ravel()
    out[...] = np.repeat(fields, np.diff(starts, append=values.size))


def csv_rows(xs: np.ndarray, ys: np.ndarray) -> bytes:
    """The CSV rows '{:.10g},{:.10g}\\r\\n' of xs and ys, two float64
    arrays of one length, as ASCII bytes."""
    rows = np.empty(xs.size, _ROW)
    _column(xs, rows["x"])
    rows["comma"] = ord(",")
    _column(ys, rows["y"])
    rows["end"] = _CRLF
    return rows.tobytes().translate(None, b"\0")
