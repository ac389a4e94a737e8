"""Float64 tables as CSV text, each value written exactly as ``'%.17g' % v``.

A value x with 1e-280 <= |x| <= 1e280 gets its 17 significant digits from
N = |x| * 10**(16 - X), X = floor(log10|x|), held as a double-double: Dekker's
two-product (Veltkamp split, since numpy has no fused multiply-add) of |x| and
10**s given as a (hi, lo) pair correctly rounded from exact integers.  The pair
holds N to within 1e-14.  Its high part is at least 2**53, so an integer, and
its low part decides the rounding.  Where N's fraction lies within ``TIE`` of
one half (exact decimal ties included) that rounding is not proven, and the
value is written by the template, as is every NaN, infinity and value outside
that range (their split products could overflow or underflow).  This is
Loitsch's Grisu3 pattern: fast digits that are proven exact, or the exact path.
The digits are then laid out by the %g rules (fixed notation for exponents -4
to 16, trailing zeros and a bare point dropped) from byte tables: the 16 digits
after the first are cut into four 4-digit groups by divisions by scalars
(10**8, then 10**4), and each group is one lookup in a table of spelled groups,
whose second half blanks trailing zeros for a group that only zero groups
follow.
"""

from __future__ import annotations

import numpy as np

# Values per formatted block: the block's arrays, not the table's, set the
# writer's peak memory.
BLOCK = 8192
# Scaled fractions this close to 1/2 take the template: far above N's error,
# and it catches the exact ties, whose half-to-even rule is the template's.
TIE = 1e-6
E16, E17 = 10 ** 16, 10 ** 17
# A value's slot is four 8-byte words: sign, "0.000" prefix, first digit and
# point; 16 digits; "e+XXX" and separator (byte 29).  Unused bytes stay NUL and
# are removed per block.
_SEP = 29
_POW_OFFSET = 300   # 10**s is held at index s + _POW_OFFSET, s in [-265, 297]

_tables = {}   # constants built on first use, not at import


def _template(v: float) -> bytes:
    """The exact path: CPython's own %.17g."""
    return b"%.17g" % v


def _pow10(index):
    """(hi, hi split high, hi split low, lo) of 10**s at the given table indices."""
    pw = _tables.get("pow")
    if pw is None:
        pw = _tables["pow"] = np.full((4, 2 * _POW_OFFSET), np.nan)
    need = np.zeros(2 * _POW_OFFSET, bool)
    need[index] = True
    for i in np.flatnonzero(need & np.isnan(pw[0])).tolist():
        s = i - _POW_OFFSET
        p = 10 ** abs(s)
        # int -> float and int / int round correctly, so hi and lo are each
        # the double nearest the exact value
        if s >= 0:
            hi = float(p)
            lo = float(p - int(hi))
        else:
            hi = 1 / p
            num, den = hi.as_integer_ratio()
            lo = (den - num * p) / (den * p)
        t = hi * 134217729.0
        hh = t - (t - hi)
        pw[:, i] = hi, hh, hi - hh, lo
    return pw[:, index]


def _digits(a, X):
    """floor(|x| 10**(16-X)) as int64 and the fraction left over, as doubles."""
    hi, hh, hl, lo = _pow10(16 - X + _POW_OFFSET)
    t = a * 134217729.0
    ah = t - (t - a)
    al = a - ah
    p = a * hi
    low = (((ah * hh - p) + ah * hl + al * hh) + al * hl) + a * lo
    f = np.floor(low)
    return p.astype(np.int64) + f.astype(np.int64), low - f


def _lookups():
    """Byte tables of the slot's words: head, 4-digit groups, tail."""
    if "head" not in _tables:
        # head[sign, -X in 0.000ddd notation (else 0), first digit, point after it]
        digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
        head = np.zeros((2, 5, 10, 2, 8), np.uint8)
        head[1, ..., 0] = ord("-")
        head[:, 1:, ..., 1] = head[:, 2:, ..., 3] = head[:, 3:, ..., 4] = ord("0")
        head[:, 4:, ..., 5] = ord("0")
        head[:, 1:, ..., 2] = head[..., 1, 7] = ord(".")
        head[..., 6] = digits[:, None]
        # groups[k, a, b, c, e] spells 1000a + 100b + 10c + e; k = 1 blanks
        # its trailing zeros (all four for 0)
        groups = np.empty((2,) + (10,) * 4 + (4,), np.uint8)
        for axis in range(4):
            groups[..., axis] = digits.reshape((10,) + (1,) * (3 - axis))
        groups[1, ..., 0, 3] = groups[1, ..., 0, 0, 2] = groups[1, :, 0, 0, 0, 1] = 0
        groups[1, 0, 0, 0, 0, 0] = 0
        # tail[X < 0, |X| digits]: "e-XXX" or "e+XX" and the separator; X = 0
        # (never written as an exponent) holds the fixed-notation tail
        tail = np.zeros((2, 4, 10, 10, 8), np.uint8)
        tail[..., 0] = ord("e")
        tail[0, ..., 1] = ord("+")
        tail[1, ..., 1] = ord("-")
        tail[:, 1:, ..., 2] = digits[1:4, None, None]
        tail[..., 3] = digits[:, None]
        tail[..., 4] = digits
        tail[0, 0, 0, 0, :5] = 0
        tail[..., _SEP - 24] = ord(",")
        _tables.update(head=head.view(np.uint64).ravel(), groups=groups.view(np.uint32).ravel(),
                       tail=tail.view(np.uint64).ravel())
    return _tables["head"], _tables["groups"], _tables["tail"]


def _block_bytes(block: np.ndarray) -> bytes:
    """The CSV lines of a float64 block's rows."""
    v = block.ravel()
    n = len(v)
    a = np.abs(v)
    fast = (a >= 1e-280) & (a <= 1e280)
    zero = a == 0.0
    a = np.where(fast, a, 1.0)   # zeros and template values scale as 1.0
    X = np.floor(np.log10(a)).astype(np.int64)
    F, frac = _digits(a, X)
    # log10 may be one off next to a power of ten: rescale those values once
    off = (F < E16) | (F >= E17)
    if off.any():
        j = np.flatnonzero(off)
        X[j] += np.where(F[j] >= E17, 1, -1)
        F[j], frac[j] = _digits(a[j], X[j])
    slow = ~(fast | zero) | (np.abs(frac - 0.5) <= TIE) | (F < E16) | (F >= E17)
    D = F + (frac > 0.5)
    carry = D == E17
    X += carry
    d0, rest = np.divmod(np.where(carry, E16, D), E16)
    d0[zero] = 0

    # %g: fixed notation for -4 <= X < 17, else d.ddde+XX
    fixed = (X >= -4) & (X < 17)
    small = fixed & (X < 0)
    # four 4-digit groups; the last group, and each group that only zero
    # groups follow, are spelled with their trailing zeros blanked
    hi, lo = np.divmod(rest, 10 ** 8)
    g = np.divmod(hi, 10000) + np.divmod(lo, 10000)
    lo_zero = lo == 0
    blank = (lo_zero & (g[1] == 0), lo_zero, g[3] == 0, True)
    head, groups, tail = _lookups()
    words = np.empty((n, 4), np.uint64)
    words[:, 0] = head[np.signbit(v) * 100 + small * -X * 20 + d0 * 2 + (~small & (rest != 0))]
    for w, gk, bk in zip(words[:, 1:3].view(np.uint32).T, g, blank):
        w[...] = groups[gk + 10000 * bk]
    words[:, 3] = tail[np.where(fixed, 0, (X < 0) * 400 + np.abs(X))]
    s = words.view(np.uint8)
    s[block.shape[1] - 1::block.shape[1], _SEP] = ord("\n")

    # whole numbers of two or more digits: the point (if any) goes after
    # digit X, and zeros before it stay
    j = np.flatnonzero(fixed & (X > 0))
    if j.size:
        c = np.concatenate([d0[j, None] + ord("0"),
                            groups[np.stack([gk[j] for gk in g], axis=1)].view(np.uint8)
                            .reshape(-1, 16)], axis=1)
        x = X[j, None]
        nz = c != ord("0")
        keep = np.maximum(17 - nz[:, ::-1].argmax(axis=1)[:, None], x + 1)
        q = np.arange(18)
        di = q - (q > x)
        out = np.where(di < keep, np.take_along_axis(c, np.minimum(di, 16), axis=1), 0)
        out[q == x + 1] = np.where(keep > x + 1, ord("."), 0)[:, 0]
        s[j, 6:24] = out

    for i in np.flatnonzero(slow).tolist():
        text = _template(float(v[i]))
        s[i, :_SEP] = 0
        s[i, :len(text)] = np.frombuffer(text, np.uint8)
    return s.tobytes().translate(None, b"\0")


def write_table(out, table: np.ndarray) -> None:
    """Write a 2-D float64 table's rows to the text stream ``out``, comma
    separated, each value as ``'%.17g' % v``, in blocks of about ``BLOCK``
    values."""
    rows = max(1, BLOCK // table.shape[1])
    for i in range(0, len(table), rows):
        out.write(_block_bytes(table[i:i + rows]).decode("ascii"))
