"""The bytes of `'%.17g' % x` for every float64 of an array, with numpy.

`format_g17(values, seps)` returns the text `b'%.17g' % v + sep` of each value
in turn, byte for byte what Python's correctly rounded formatting prints.  It
is the fixed-precision case of float printing (Adams, "Ryu revisited: printf
floating point conversion", OOPSLA 2019), in four steps:

1. Digits.  y = |x| 10^(16 - e), with e = floor(log10 |x|), is computed as a
   double-double by error-free transforms against a double-double table of
   powers of ten: a Dekker product with the table's high part plus the
   product with its low part.  That is within about 7 u^2 y of the exact
   value (u = 2^-53, y < 10^17: 1e-14).  Its integer part and rounding
   fraction give the 17-digit significand D and the exponent e.  A value is
   not certified when its fraction lies within `TIE_MARGIN` of 1/2 (an exact
   tie, or too close to tell), when y falls outside [10^16, 10^17) because
   log10 was off near a power of ten, or when e lies outside the table
   (subnormals, |x| >= 1e308, |x| < 1e-292).
2. Layout.  The digits come from a 10 000-entry table of 4-character groups.
   Each value becomes a 32-byte row of four uint64 words (byte 0 in the low
   byte).  Word 0 ends with the sign and the "0.000" prefix, so the digit
   part starts at byte 8 of every row and is never shifted: the digits with
   '.' inserted and trailing zeros dropped as `%g` does, then the `e+XX`
   suffix of the exponent form and the separator.  Everything is shifts and
   masks, with the masks looked up by exponent, sign and digit count.
3. Values that step 1 did not certify are formatted one by one by
   `'%.17g' %` instead, into the same place in their rows.
4. Join.  Each row is zero outside its text.  With K the fewest consecutive
   rows whose 32-byte items never overlap once each is placed at its text's
   offset (at most 16), row i goes whole to zeroed buffer i mod K in one
   assignment per buffer, and the K buffers are OR-ed together.  No two
   items in a buffer overlap, so the result does not depend on the order in
   which numpy writes them.

Shifts by 64 bits or more give 0 in numpy on every platform (unlike C); the
word arithmetic relies on it.
"""

from __future__ import annotations

import numpy as np

# decimal exponents e = floor(log10 |x|) the power table covers: 10^(16 - e)
# and its low part stay normal doubles
E_MIN, E_MAX = -292, 307
# a rounding fraction this close to 1/2 is left to '%.17g' %; the
# double-double error is below 1e-14, so this leaves a wide margin
TIE_MARGIN = 2.0 ** -30

_U64 = np.uint64
_SPLIT_MASK = _U64(0xFFFF_FFFF_F800_0000)   # all but the low 27 bits


def _split(a: np.ndarray):
    """a = hi + lo, hi rounded to 26 significant bits and lo within 26 bits:
    Veltkamp's split, done on the bits so that it cannot overflow."""
    hi = ((a.view(_U64) + _U64(1 << 26)) & _SPLIT_MASK).view(np.float64)
    return hi, a - hi


def _two_product(a: np.ndarray, b: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a b - p exactly, for p = fl(a b) (Dekker; numpy has no fma)."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    err = a_hi * b_hi - p
    err += a_hi * b_lo
    err += a_lo * b_hi
    err += a_lo * b_lo
    return err


def _powers_of_ten():
    """hi + lo within 4 u^2 of 10^(16 - e), for e from E_MIN to E_MAX.

    10^k = 10^(16 q) 10^r with 0 <= r < 16: the powers 10^(16 q) come
    correctly rounded from exact integers, as m 2^s with m within a factor
    of 2 of 1 so that no low part is subnormal, and 10^r is an exact double.
    """
    qr = [divmod(k, 16) for k in range(16 - E_MIN, 15 - E_MAX, -1)]
    m_hi, m_lo, scale = {}, {}, {}
    for q in {q for q, _ in qr}:
        num, den = (10 ** (16 * q), 1) if q >= 0 else (1, 10 ** (-16 * q))
        s = num.bit_length() - den.bit_length()
        num, den = (num, den << s) if s >= 0 else (num << -s, den)
        m_hi[q] = num / den                   # correctly rounded
        a, b = m_hi[q].as_integer_ratio()
        m_lo[q] = (num * b - a * den) / (den * b)
        scale[q] = 2.0 ** s
    ten_r = np.array([float(10 ** r) for _, r in qr])
    hi_m = np.array([m_hi[q] for q, _ in qr])
    hi = hi_m * ten_r
    lo = _two_product(hi_m, ten_r, hi)
    lo += np.array([m_lo[q] for q, _ in qr]) * ten_r
    hi, lo = hi + lo, lo - ((hi + lo) - hi)
    scale = np.array([scale[q] for q, _ in qr])   # exact: hi, lo stay normal
    return hi * scale, lo * scale


def _digit_groups():
    """Group g -> its 4 ASCII digits (first digit in the low byte), and the
    trailing zero digits of g (4 for 0)."""
    digits = np.arange(48, 58, dtype=np.uint8)
    grid = np.zeros((10, 10, 10, 10, 8), dtype=np.uint8)
    grid[..., 0] = digits[:, None, None, None]
    grid[..., 1] = digits[:, None, None]
    grid[..., 2] = digits[:, None]
    grid[..., 3] = digits
    zero = np.arange(100) == 0
    tz2 = np.where(zero, 2, np.arange(100) % 10 == 0)     # of 00..99
    tz4 = tz2 + zero * tz2[:, None]                        # of a * 100 + b
    return grid.reshape(-1).view("<u8").astype(_U64), tz4.ravel()


def _exponent_layout():
    """By exponent and sign (index 2 j + sign): 18 times the '.' position
    (0 for none), the word that ends with the sign and the prefix, their
    length, the suffix and its bit length, and the count of bytes in the
    text that are not in the digit part, the separator included."""
    point, prefix, head, suffix, shift, extra = [], [], [], [], [], []
    for x in range(E_MIN, E_MAX + 1):
        for sign in (b"", b"-"):
            if x < -4 or x > 16:              # d.ddde+XX
                k, p, t = 1, b"", b"e%+03d" % x
            elif x < 0:                       # 0.000ddd: "0." leads, no '.' later
                k, p, t = 0, b"0." + b"0" * (-x - 1), b""
            else:
                k, p, t = x + 1, b"", b""
            p = sign + p
            point.append(18 * k)
            prefix.append(int.from_bytes(p.rjust(8, b"\0"), "little"))
            head.append(len(p))
            suffix.append(int.from_bytes(t, "little"))
            shift.append(8 * len(t))
            extra.append(len(p) + len(t) + 1)
    return (np.array(point), np.array(prefix, dtype=_U64), np.array(head),
            np.array(suffix, dtype=_U64), np.array(shift, dtype=_U64),
            np.array(extra))


def _digit_masks():
    """Per word of the digit part, by k * 18 + nd ('.' after k digits, none
    for k = 0, and nd digits without trailing zeros): the digits kept in
    place, the digits moved one byte up past the '.', and the '.' itself;
    and the part's length."""
    cases = []                                # (bytes kept, length, '.')
    for k in range(18):
        for nd in range(18):
            if k == 0:                        # 0.000ddd: the prefix has the '.'
                cases.append((nd, nd, False))
            elif nd > k:
                cases.append((k, nd + 1, True))
            else:                             # an integer of k digits
                cases.append((k, k, False))
    keep, move, dot = [], [], []
    for w in range(3):
        # low[n]: bytes [0, n) of the string, those in word w
        low = [(1 << 8 * min(max(n - 8 * w, 0), 8)) - 1 for n in range(20)]
        keep.append(np.array([low[n] for n, _, _ in cases], dtype=_U64))
        move.append(np.array([(low[ld] & ~low[n + 1]) * has for n, ld, has in cases],
                             dtype=_U64))
        dot.append(np.array([(0x2E2E_2E2E_2E2E_2E2E & (low[n + 1] - low[n])) * has
                             for n, _, has in cases], dtype=_U64))
    return keep, move, dot, np.array([ld for _, ld, _ in cases])


# The tables are allocated at import, while the heap is still small, and
# filled by the first call, so that only a run that writes CSV computes them.
# Allocated later, they would lie among the freed matrices of an analyze call
# and keep that space from the next call's (peak RSS 100 MB instead of 87 MB
# over repeated calls).  They are built mostly from Python lists: numpy
# routines that the formatter itself does not use would page in their code,
# about 0.3 MB of resident memory.
_N_EXP = E_MAX - E_MIN + 1
_POW_HI, _POW_LO = np.empty(_N_EXP), np.empty(_N_EXP)
_DIG4, _TZ4 = np.empty(10000, _U64), np.empty(10000, np.int64)
_POINT, _HEAD, _EXTRA = (np.empty(2 * _N_EXP, np.int64) for _ in range(3))
_PREFIX, _SUFFIX, _SUFFIX_SHIFT = (np.empty(2 * _N_EXP, _U64) for _ in range(3))
_KEEP, _MOVE, _DOT = ([np.empty(18 * 18, _U64) for _ in range(3)] for _ in range(3))
_DIGITS_LEN = np.empty(18 * 18, np.int64)
_filled = False


def _fill_tables() -> None:
    """Compute the tables into the arrays reserved for them."""
    global _filled
    tables = ((_POW_HI, _POW_LO), _powers_of_ten()), ((_DIG4, _TZ4), _digit_groups())
    for dsts, srcs in tables:
        for dst, src in zip(dsts, srcs):
            dst[...] = src
    layout = (_POINT, _PREFIX, _HEAD, _SUFFIX, _SUFFIX_SHIFT, _EXTRA)
    for dst, src in zip(layout, _exponent_layout()):
        dst[...] = src
    *masks, digits_len = _digit_masks()
    for dsts, srcs in zip((_KEEP, _MOVE, _DOT), masks):
        for dst, src in zip(dsts, srcs):
            dst[...] = src
    _DIGITS_LEN[...] = digits_len
    _filled = True


def _significands(ax: np.ndarray):
    """(D, j, ok): D the 17-digit decimal significand of each |x| (0 for 0),
    j = e - E_MIN, and ok where the rounding is certified."""
    zero = ax == 0
    j = np.floor(np.log10(ax + zero)).astype(np.int64)   # log10(1) = 0 for 0
    j -= E_MIN
    ok = j.view(_U64) < _U64(_N_EXP)
    ph = _POW_HI.take(j, mode="clip")
    p = ax * ph
    err = _two_product(ax, ph, p)
    err += ax * _POW_LO.take(j, mode="clip")
    hi = p + err                          # y ~ hi + lo, hi >= 2^53 when ok
    lo = err - (hi - p)
    d = np.floor(lo)
    lo -= d                               # the rounding fraction
    d = hi.astype(np.int64) + d.astype(np.int64)
    # y below 10^16 comes from a log10 rounded up; y just below it would
    # round to 10^17 - c at the exponent below, not to 10^16
    ok &= (d >= 10 ** 16) | zero
    d += lo > 0.5
    ok &= d < 10 ** 17
    ok &= np.abs(lo - 0.5) > TIE_MARGIN
    d *= ok                               # valid indices for the rest, whose
    j *= ok                               # rows the fallback replaces
    return d, j, ok


def _digit_words(d: np.ndarray):
    """The 17 digits of each D as ASCII in three words, and how many of them
    are left without trailing zeros (1 for D = 0)."""
    hi9 = d // 100_000_000
    lo8 = d - hi9 * 100_000_000
    c0 = hi9 // 100_000_000
    hi9 -= c0 * 100_000_000
    g1 = hi9 // 10_000
    g3 = lo8 // 10_000
    groups = (lo8 - g3 * 10_000, g3, hi9 - g1 * 10_000, g1)   # last first
    a4, a3, a2, a1 = (_DIG4.take(g) for g in groups)
    words = ((c0.view(_U64) + _U64(48)) | a1 << _U64(8) | a2 << _U64(40),
             a2 >> _U64(24) | a3 << _U64(8) | a4 << _U64(40),
             a4 >> _U64(24))
    tz = _TZ4.take(groups[0])
    sel = np.flatnonzero(tz == 4)
    for g in groups[1:]:
        if not sel.size:
            break
        more = _TZ4.take(g.take(sel))
        tz[sel] += more
        sel = sel[more == 4]
    return words, 17 - tz


def _layout(words, nd, js, seps):
    """Rows of four words holding each value's text, the text's length, and
    its head: how many of its bytes lie in word 0.  js is 2 j + sign.

    Word 0 ends with the sign and the prefix, so that the digit part starts
    at byte 8 of every row; the suffix and the separator follow it."""
    kn = _POINT.take(js)
    kn += nd
    ld = _DIGITS_LEN.take(kn)
    suffix = seps << _SUFFIX_SHIFT.take(js)
    suffix |= _SUFFIX.take(js)
    bit = (ld << 3).view(_U64)
    rows = np.empty((ld.size, 4), dtype=_U64)
    rows[:, 0] = _PREFIX.take(js)
    for w, (keep, move, dot) in enumerate(zip(_KEEP, _MOVE, _DOT)):
        part = words[w] << _U64(8)
        if w:
            part |= words[w - 1] >> _U64(56)
        part &= move.take(kn)
        part |= dot.take(kn)
        part |= words[w] & keep.take(kn)
        if w:
            at = _U64(64 * w)
            part |= suffix >> (at - bit)
            np.bitwise_or(part, suffix << (bit - at), out=rows[:, w + 1])
        else:
            np.bitwise_or(part, suffix << bit, out=rows[:, 1])
    ld += _EXTRA.take(js)
    return rows, ld, _HEAD.take(js)


def _buffer_count(at: np.ndarray) -> int:
    """The fewest K for which the 32-byte items of `_join`, at byte offsets
    at[i] and at[i + K], never overlap.

    at[i + K] - at[i] is the length of texts i to i + K - 1 plus the
    difference of two heads.  A text has at most 25 bytes and a head at
    most 6, so K = 1 never serves two texts; each text has at least two
    bytes from byte 8 of its row on, so 16 items span 32 bytes.
    """
    n = at.size
    k = min(n, 2) or 1
    while k < min(n, 16) and (at[k:] - at[:-k]).min() < 32:
        k += 1
    return k


def _join(rows: np.ndarray, length: np.ndarray, head: np.ndarray) -> np.ndarray:
    """Bytes [8 - head[i], 8 - head[i] + length[i]) of each row, concatenated.

    Row i is written whole, as one 32-byte item, to zeroed buffer i mod K
    (`_buffer_count`): no two items in a buffer overlap, so the order of the
    writes does not matter.  Every row is zero outside its text, so OR-ing
    the buffers together gives the output.
    """
    n = length.size
    starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(length, out=starts[1:])
    total = int(starts[-1])
    # item i at buffer byte at[i]; output byte 0 is buffer byte 8
    at = starts[:n] + head
    k = _buffer_count(at)
    width = -(-(total + 32) // 8)
    buffers = np.zeros((k, width), dtype=_U64)
    items = rows.view("V32").ravel()
    for r in range(k):
        dst = np.ndarray((8 * width - 31,), dtype="V32", buffer=buffers[r], strides=(1,))
        dst[at[r::k]] = items[r::k]
    out = buffers[0]
    for r in range(1, k):
        out |= buffers[r]
    return out.view(np.uint8)[8:8 + total]


def _rows(values: np.ndarray, seps: np.ndarray):
    """`_layout`'s rows, lengths and heads for 1-D float64 values and uint64
    separator bytes; a value that step 1 did not certify gets the text of
    '%.17g' % in its row, from byte 8 on after its sign."""
    if not _filled:
        _fill_tables()
    with np.errstate(all="ignore"):
        d, j, ok = _significands(np.abs(values))
    words, nd = _digit_words(d)
    del d
    js = j << 1
    js -= values.view(np.int64) >> 63
    rows, length, head = _layout(words, nd, js, seps)
    del words, nd, j, js
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = [b"%.17g%c" % (v, s)
                for v, s in zip(values[bad].tolist(), seps[bad].tolist())]
        length[bad] = [len(t) for t in text]
        head[bad] = [t[0] == 0x2D for t in text]
        rows[bad] = np.frombuffer(
            b"".join(t.rjust(len(t) + 8 - (t[0] == 0x2D), b"\0").ljust(32, b"\0")
                     for t in text), dtype="<u8").reshape(-1, 4)
    return rows.astype("<u8", copy=False), length, head


def format_g17(values: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The bytes of b''.join(b'%.17g' % v + sep for v, sep in zip(values, seps))
    as a uint8 array, for 1-D float64 values and uint64 separator bytes."""
    return _join(*_rows(values, seps))
