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
   byte): the sign and the "0.000" prefix, the digits with '.' inserted and
   trailing zeros dropped as `%g` does, the `e+XX` suffix of the exponent
   form, and the separator.  Everything is shifts and masks.
3. Values that step 1 did not certify are formatted one by one by
   `'%.17g' %` instead.
4. The rows, sorted by length, are copied to their offsets in the output,
   one length at a time, as items of exactly that many bytes.

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
    """By exponent: %g's form, the '.' position, the prefix and the suffix."""
    point, prefix, suffix = [], [], []
    for x in range(E_MIN, E_MAX + 1):
        if x < -4 or x > 16:                  # d.ddde+XX
            point.append(1)
            prefix.append(b"")
            suffix.append(b"e%+03d" % x)
        elif x < 0:                           # 0.000ddd: "0." leads, no '.' later
            point.append(0)
            prefix.append(b"0." + b"0" * (-x - 1))
            suffix.append(b"")
        else:
            point.append(x + 1)
            prefix.append(b"")
            suffix.append(b"")
    words = [int.from_bytes(t, "little") for t in prefix + suffix]
    lengths = [len(t) for t in prefix + suffix]
    n = len(point)
    return (np.array(point), np.array(words[:n], dtype=_U64), np.array(lengths[:n]),
            np.array(words[n:], dtype=_U64), np.array(lengths[n:], dtype=_U64))


def _digit_masks():
    """Per word of the digit part, by k ('.' after k digits) and, at
    k * 19 + ld, by the part's length ld: the digits kept in place, the
    digits moved one byte up past the '.', and the '.' itself."""
    pairs = [(k, ld) for k in range(18) for ld in range(19)]
    keep, move, dot = [], [], []
    for w in range(3):
        # low[n]: bytes [0, n) of the string, those in word w
        low = [(1 << 8 * min(max(n - 8 * w, 0), 8)) - 1 for n in range(20)]
        keep.append(np.array(low[:18], dtype=_U64))
        move.append(np.array([low[ld] & ~low[k + 1] for k, ld in pairs], dtype=_U64))
        dot.append(np.array([0x2E2E_2E2E_2E2E_2E2E & low[ld] & (low[k + 1] - low[k])
                             for k, ld in pairs], dtype=_U64))
    return keep, move, dot


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
_POINT, _PREFIX_LEN = np.empty(_N_EXP, np.int64), np.empty(_N_EXP, np.int64)
_PREFIX, _SUFFIX, _SUFFIX_LEN = (np.empty(_N_EXP, _U64) for _ in range(3))
_KEEP = [np.empty(18, _U64) for _ in range(3)]
_MOVE, _DOT = ([np.empty(18 * 19, _U64) for _ in range(3)] for _ in range(2))
_filled = False


def _fill_tables() -> None:
    """Compute the tables into the arrays reserved for them."""
    global _filled
    tables = ((_POW_HI, _POW_LO), _powers_of_ten()), ((_DIG4, _TZ4), _digit_groups())
    for dsts, srcs in tables:
        for dst, src in zip(dsts, srcs):
            dst[...] = src
    layout = (_POINT, _PREFIX, _PREFIX_LEN, _SUFFIX, _SUFFIX_LEN)
    for dst, src in zip(layout, _exponent_layout()):
        dst[...] = src
    for dsts, srcs in zip((_KEEP, _MOVE, _DOT), _digit_masks()):
        for dst, src in zip(dsts, srcs):
            dst[...] = src
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


def _layout(words, nd, j, neg, seps):
    """Rows of four words holding each value's text, and the text's length."""
    # '.' after k digits; the digit part is ld bytes (no '.' when ld <= k)
    k = _POINT.take(j)
    k += (k == 0) * nd
    ld = np.maximum(nd, k)
    ld += nd > k
    kl = k * 19
    kl += ld
    body = []
    for w, (keep, move, dot) in enumerate(zip(_KEEP, _MOVE, _DOT)):
        part = words[w] << _U64(8)
        if w:
            part |= words[w - 1] >> _U64(56)
        part &= move.take(kl)
        part |= dot.take(kl)
        part |= words[w] & keep.take(k)
        body.append(part)

    # lp prefix bytes, ld digit bytes, then the suffix and the separator
    suffix_len = _SUFFIX_LEN.take(j)
    suffix = seps << (suffix_len * _U64(8))
    suffix |= _SUFFIX.take(j)
    prefix = _PREFIX.take(j) << (neg * _U64(8))
    prefix |= neg * _U64(0x2D)
    lp = _PREFIX_LEN.take(j)
    lp += neg
    ld += lp
    shift = (lp * 8).view(_U64)
    back = _U64(64) - shift
    bit = (ld * 8).view(_U64)
    rows = np.empty((ld.size, 4), dtype=_U64)
    w = body[0] << shift
    w |= prefix
    w |= suffix << bit
    rows[:, 0] = w
    for i in (1, 2):
        w = body[i] << shift
        w |= body[i - 1] >> back
        w |= (suffix << (bit - _U64(64 * i))) | (suffix >> (_U64(64 * i) - bit))
        rows[:, i] = w
    rows[:, 3] = suffix >> (_U64(192) - bit)
    ld += suffix_len.view(np.int64) + 1
    return rows, ld


def _join(rows: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The first length[i] bytes of each row, concatenated.

    Rows of one length are copied in one assignment as items of that many
    bytes; no two items overlap, so the order of the copies does not matter.
    """
    ends = np.cumsum(length)
    out = np.empty(int(ends[-1]) if ends.size else 0, dtype=np.uint8)
    order = np.argsort(length.astype(np.uint8), kind="stable")
    starts = (ends - length).take(order)
    rows = rows.take(order, axis=0)
    first = 0
    for n, count in enumerate(np.bincount(length, minlength=33).tolist()):
        if not count:
            continue
        dst = np.ndarray((out.size - n + 1,), dtype=f"V{n}", buffer=out, strides=(1,))
        dst[starts[first:first + count]] = np.ndarray(
            (count,), dtype=f"V{n}", buffer=rows, offset=32 * first, strides=(32,))
        first += count
    return out


def format_g17(values: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """The bytes of b''.join(b'%.17g' % v + sep for v, sep in zip(values, seps))
    as a uint8 array, for 1-D float64 values and uint64 separator bytes."""
    if not _filled:
        _fill_tables()
    with np.errstate(all="ignore"):
        d, j, ok = _significands(np.abs(values))
    words, nd = _digit_words(d)
    del d
    rows, length = _layout(words, nd, j, np.signbit(values), seps)
    del words, nd, j
    bad = np.flatnonzero(~ok)
    if bad.size:
        text = [b"%.17g%c" % (v, s)
                for v, s in zip(values[bad].tolist(), seps[bad].tolist())]
        length[bad] = [len(s) for s in text]
        rows[bad] = np.frombuffer(b"".join(s.ljust(32, b"\0") for s in text),
                                  dtype="<u8").reshape(-1, 4)
    return _join(rows.astype("<u8", copy=False), length)
