"""The vectorised '%.17g' writer against the per-value % operator."""

import io
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fundcomp import _g17
from fundcomp.io import _CSV_CHUNK_VALUES, _write_rows


def oracle(table):
    return "".join(",".join("%.17g" % v for v in row) + "\n"
                   for row in table.tolist()).encode("ascii")


def written(table):
    fh = io.BytesIO()
    _write_rows(fh, table)
    return fh.getvalue()


def certified(values):
    _g17._fill_tables()
    with np.errstate(all="ignore"):
        return _g17._significands(np.abs(values))[2]


def with_neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


def is_tie(v):
    """Whether v's 17-significant-digit rounding is an exact tie."""
    q = abs(Fraction(v))
    e = len(str(int(q))) - 1 if q >= 1 else -len(str(int(1 / q)))
    while q * Fraction(10) ** (16 - e) >= 10 ** 17:
        e += 1
    while q * Fraction(10) ** (16 - e) < 10 ** 16:
        e -= 1
    scaled = q * Fraction(10) ** (16 - e)
    return scaled - int(scaled) == Fraction(1, 2)


class TestFormatG17:
    def test_power_table_within_its_bound(self):
        hi, lo = _g17._powers_of_ten()
        for i, e in enumerate(range(_g17.E_MIN, _g17.E_MAX + 1)):
            exact = Fraction(10) ** (16 - e)
            table = Fraction(hi[i]) + Fraction(lo[i])
            assert abs(table - exact) <= 4 * Fraction(2) ** -106 * exact

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64,
                      st.tuples(st.integers(0, 30), st.integers(1, 3)),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_tables_match_per_value_formatting(self, table):
        assert written(table) == oracle(table)

    def test_powers_of_ten_and_neighbours(self):
        x = with_neighbours([float(f"1e{j}") for j in range(-323, 309)])
        assert written(x[:, None]) == oracle(x[:, None])

    def test_g_switch_points(self):
        x = with_neighbours([1e-5, 1e-4, 1e16, 1e17])
        x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
        table = x.reshape(-1, 2)
        assert written(table) == oracle(table)

    def test_exact_ties_fall_back(self):
        # odd multiples of small powers of two: some print 18+ digits whose
        # 17-digit rounding is an exact tie, which rounds half to even
        x = np.array([k * 2.0 ** -n for n in range(1, 80) for k in range(1, 64, 2)]
                     + [1234567890123456.25, 2.0 ** -25])
        ties = np.array([is_tie(v) for v in x.tolist()])
        assert ties.sum() >= 10
        assert not np.any(certified(x[ties]))
        assert written(x[:, None]) == oracle(x[:, None])

    def test_zeros_and_subnormals(self):
        tiny = np.finfo(np.float64).smallest_normal
        x = with_neighbours([0.0, 5e-324, tiny, np.nextafter(tiny, 0.0)])
        assert written(x.reshape(-1, 3)) == oracle(x.reshape(-1, 3))

    def test_chunk_where_every_value_falls_back(self):
        rng = np.random.default_rng(11)
        x = rng.integers(1, 2 ** 52, _CSV_CHUNK_VALUES) * 5e-324
        x[::2] *= -1
        assert not np.any(certified(x))
        assert written(x.reshape(-1, 4)) == oracle(x.reshape(-1, 4))

    def test_fallback_alone_gives_the_same_bytes(self, monkeypatch):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(3000) * 10.0 ** rng.integers(-320, 308, 3000)
        x[:4] = [0.0, -0.0, 1.0, 0.1]
        table = x.reshape(-1, 3)
        expected = oracle(table)
        assert written(table) == expected
        monkeypatch.setattr(_g17, "TIE_MARGIN", 1.0)
        assert not np.any(certified(x))
        assert written(table) == expected

    @pytest.mark.parametrize("n_cols", [1, 5, _CSV_CHUNK_VALUES + 3])
    def test_rows_split_across_chunks(self, n_cols):
        # chunks break rows at any value; the separators follow the columns
        rng = np.random.default_rng(n_cols)
        table = rng.standard_normal((2 * _CSV_CHUNK_VALUES // n_cols + 2, n_cols))
        assert written(table) == oracle(table)


def per_value(values, seps):
    return b"".join(b"%.17g%c" % (v, s) for v, s in zip(values.tolist(), seps.tolist()))


class TestJoin:
    """The join places each 32-byte row at its text's offset in one of K
    zeroed buffers and ORs them: any K consecutive items must not overlap."""

    @staticmethod
    def placement(x, seps):
        _, length, head = _g17._rows(x, seps)
        at = np.concatenate([[0], np.cumsum(length)[:-1]]) + head
        return at, _g17._buffer_count(at)

    def test_chunk_of_zeros(self):
        # every text is 2 bytes, so K is 16, its largest
        x = np.zeros(_CSV_CHUNK_VALUES)
        seps = np.full(x.size, ord(","), dtype=np.uint64)
        assert self.placement(x, seps)[1] == 16
        assert _g17.format_g17(x, seps).tobytes() == per_value(x, seps)
        assert written(x.reshape(-1, 4)) == oracle(x.reshape(-1, 4))

    @pytest.mark.parametrize("long", [
        -1.2345678901234567e-100,     # certified, negative exponent form
        -1.2345678901234567e-300,     # below the power table: '%.17g' %
        -2.2250738585072014e-308,     # the smallest normal: '%.17g' %
        -1.7976931348623157e+308])    # above the power table: '%.17g' %
    def test_zeros_between_longest_texts(self, long):
        x = np.zeros(_CSV_CHUNK_VALUES)
        x[1::2] = long
        x[2::6] = -0.0
        seps = np.full(x.size, ord(","), dtype=np.uint64)
        seps[5::7] = ord("\n")
        assert len(b"%.17g," % long) == 25
        assert _g17.format_g17(x, seps).tobytes() == per_value(x, seps)

    @pytest.mark.parametrize("x,k", [
        # the heads ("-0.000" has 6 bytes) move items apart or together:
        # 4 texts of 8 bytes span 32, but item 0 starts 6 bytes into its text
        ([-0.0001, 1234567.0, 1234567.0, 1234567.0, 1234567.0] * 8, 5),
        # and 2 texts of 13 bytes reach the next item once it starts 6 in
        ([123456789012.0, 123456789012.0, -0.0001], 2)])
    def test_heads_set_the_buffer_count(self, x, k):
        x = np.array(x)
        seps = np.full(x.size, ord(","), dtype=np.uint64)
        assert self.placement(x, seps)[1] == k
        assert _g17.format_g17(x, seps).tobytes() == per_value(x, seps)

    @pytest.mark.parametrize("seed", range(6))
    def test_fewest_buffers_whose_items_never_overlap(self, seed):
        # numpy does not promise an order for overlapping destinations, so
        # the join must never give it any
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        x = rng.choice([0.0, -0.0, 1.0, -3.5, 0.001, -1e-5, 1e300, -5e-324,
                        -1.2345678901234567e-100, 123456.78], n)
        x = x * rng.choice([1.0, 1.0 + 2.0 ** -52], n)
        seps = np.full(n, ord(","), dtype=np.uint64)
        at, k = self.placement(x, seps)
        assert 1 <= k <= 16
        assert np.all(at[k:] - at[:-k] >= 32)
        if k > 1:
            assert np.any(at[k - 1:] - at[:1 - k] < 32)
        assert _g17.format_g17(x, seps).tobytes() == per_value(x, seps)

    def test_empty(self):
        out = _g17.format_g17(np.empty(0), np.empty(0, dtype=np.uint64))
        assert out.dtype == np.uint8 and out.size == 0
        assert written(np.empty((0, 3))) == b""

    def test_rows_are_zero_outside_their_text(self):
        # the OR of the buffers relies on it, for rows of both kinds
        rng = np.random.default_rng(5)
        x = rng.standard_normal(2000) * 10.0 ** rng.integers(-320, 309, 2000)
        x[:8] = [0.0, -0.0, 1.0, -0.5, 1e16, 1e-5, 5e-324, -1.7976931348623157e308]
        x[8:408] = rng.integers(-10 ** 6, 10 ** 6, 400) * 2.0 ** -20
        seps = np.where(np.arange(x.size) % 3 == 2, ord("\n"), ord(",")).astype(np.uint64)
        rows, length, head = _g17._rows(x, seps)
        assert not np.all(certified(x)) and np.any(certified(x))
        data = rows.view(np.uint8).reshape(-1, 32)
        for row, n, h, v, s in zip(data, length.tolist(), head.tolist(),
                                   x.tolist(), seps.tolist()):
            start = 8 - h
            assert row[start:start + n].tobytes() == b"%.17g%c" % (v, s)
            assert not row[:start].any() and not row[start + n:].any()
