import tracemalloc

import numpy as np
import pytest

from fundcomp.activations import ActivationSpec, apply
from fundcomp.errors import EmptyBand, SignalTooShort, ZeroDenominator
from fundcomp.io import _CSV_CHUNK_VALUES
from fundcomp.signal_model import SampledSignal, TrigPolynomial, sample
from fundcomp.spectral import (
    _BLOCK_FRAMES,
    BandEnergy,
    DynamicRange,
    Spectrum,
    Stft,
    dft,
    fundamental_energy_ratio,
    gaussian_window,
    spectrum_to_csv,
    write_spectrogram,
)

def cosine_signal(freq_hz, rate, duration, amp=1.0):
    p = TrigPolynomial(((int(freq_hz), amp),), period=1.0, real_cosine_form=True)
    return sample(p, rate, duration)


def direct_dft(signal):
    """O(N^2) oracle with the package's normalization."""
    x = signal.samples
    n = x.size
    ks = np.arange(n // 2 + 1)
    kernel = np.exp(-2j * np.pi * np.outer(ks, np.arange(n)) / n)
    raw = kernel @ x
    bins = raw * 2.0 / n
    bins[0] = raw[0] / n
    return bins


def stacked_stft_matrix(x, window_length, hop, fft_length):
    """The STFT as one stacked copy of every frame: the blocked stft's oracle."""
    half = window_length // 2
    padded = np.concatenate([np.zeros(half), x, np.zeros(window_length)])
    n_frames = (x.size - 1) // hop + 1
    frames = np.stack([padded[i * hop:i * hop + window_length]
                       for i in range(n_frames)])
    spec = np.fft.rfft(frames * gaussian_window(window_length), n=fft_length,
                       axis=1)
    return np.abs(spec) ** 2


def whole_matrix(spg):
    """Every block of an Stft, stacked."""
    return np.vstack(list(spg.blocks()))


def row_blocks(m, rows=_BLOCK_FRAMES):
    """A matrix as fresh blocks of `rows` rows, the last one partial."""
    return [m[i:i + rows].copy() for i in range(0, len(m), rows)]


def blocked_limits(m, rows=_BLOCK_FRAMES):
    reducer = DynamicRange(m.size)
    for block in row_blocks(m, rows):
        reducer.add(block)
    return reducer.limits()


def blocked_band_ratio(m, freq_step, curve, half_width, band_floor=0.0,
                       band_ceiling=None):
    n_bins = m.shape[1]
    if band_ceiling is None:
        band_ceiling = (n_bins - 1) * freq_step
    band = BandEnergy(freq_step, n_bins, curve, half_width, band_floor,
                      band_ceiling)
    for block in row_blocks(m):
        band.add(block)
    return band.ratio()


def whole_matrix_band_ratio(m, freqs, curve, half_width, band_floor,
                            band_ceiling):
    """The band ratio from the whole matrix, one frame mask at a time: the
    blocked ratio's oracle."""
    denom = float(np.sum(m[:, (freqs >= band_floor) & (freqs <= band_ceiling)]))
    reach = half_width + 4 * np.finfo(np.float64).eps * float(freqs[-1])
    num = 0.0
    for row, c in zip(m, curve):
        num += float(np.sum(row[np.abs(freqs - c) <= reach]))
    return num / denom


def whole_matrix_pgm(m):
    """P5 bytes of a whole matrix, [min, max] mapped linearly to 0..255."""
    lo, hi = m.min(), m.max()
    data = np.zeros(m.shape, dtype=np.uint8)
    if hi > lo:
        data = np.round((m - lo) / (hi - lo) * 255.0).astype(np.uint8)
    return b"P5\n%d %d\n255\n" % (m.shape[1], m.shape[0]) + data.tobytes()


def g17_rows(m):
    return "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                   for row in m).encode("ascii")


def wide_range_values(rng, size):
    """Random signed floats with decimal exponents from -300 to 300."""
    return rng.standard_normal(size) * 10.0 ** rng.integers(-300, 300, size)


class TestDft:
    def test_unit_cosine(self):
        spec = dft(cosine_signal(1, 512, 1.0))
        mags = spec.magnitudes()
        assert mags[1] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.delete(mags, 1)) < 1e-12

    def test_gcd3_amplitudes(self):
        p = TrigPolynomial(((6, 0.8), (9, 1.4), (33, 0.9)),
                           period=1.0, real_cosine_form=True)
        mags = dft(sample(p, 512, 1.0)).magnitudes()
        assert mags[6] == pytest.approx(0.8, abs=1e-12)
        assert mags[9] == pytest.approx(1.4, abs=1e-12)
        assert mags[33] == pytest.approx(0.9, abs=1e-12)

    def test_constant_signal(self):
        spec = dft(SampledSignal(np.ones(64), 64.0))
        assert spec.bins[0] == pytest.approx(1.0)
        assert np.max(np.abs(spec.bins[1:])) < 1e-12

    @pytest.mark.parametrize("n", [16, 255, 1024, 2048])
    def test_fft_matches_direct_oracle(self, n):
        rng = np.random.default_rng(n)
        s = SampledSignal(rng.normal(size=n), float(n))
        assert np.allclose(dft(s).bins, direct_dft(s), atol=1e-9)

    def test_abs_activation_spectrum_vs_oracle(self):
        s = cosine_signal(3, 256, 1.0)
        rectified = SampledSignal(apply(ActivationSpec.abs(), s.samples), 256.0)
        assert np.allclose(dft(rectified).bins, direct_dft(rectified), atol=1e-9)

    @pytest.mark.parametrize("seed", range(100))
    def test_parseval(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 600))
        x = rng.normal(size=n)
        spec = dft(SampledSignal(x, float(n)))
        power = np.sum(x ** 2) / n
        c = np.abs(spec.bins)
        total = c[0] ** 2 + 0.5 * np.sum(c[1:] ** 2)
        if n % 2 == 0:
            total -= 0.25 * c[-1] ** 2  # Nyquist bin is not double-counted
        assert total == pytest.approx(power, rel=1e-10)


class TestEnergyRatio:
    def test_pure_fundamental(self):
        spec = dft(cosine_signal(1, 512, 1.0))
        r = fundamental_energy_ratio(spec.bins)
        assert type(r) is float  # one spectrum, one float
        assert r == pytest.approx(1.0)

    def test_no_fundamental(self):
        spec = dft(cosine_signal(2, 512, 1.0))
        assert fundamental_energy_ratio(spec.bins) == pytest.approx(0.0, abs=1e-20)

    def test_abs_cosine_even_harmonics(self):
        # |cos| is half-period periodic: only even harmonics survive
        rectified = apply(ActivationSpec.abs(), cosine_signal(1, 512, 1.0).samples)
        bins = dft(SampledSignal(rectified, 512.0)).bins
        assert fundamental_energy_ratio(bins, 1, 256) < 1e-20
        assert fundamental_energy_ratio(bins, 2, 256) > 0.9

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=256)
        r1 = fundamental_energy_ratio(dft(SampledSignal(x, 256.0)).bins, 1, 100)
        r2 = fundamental_energy_ratio(dft(SampledSignal(-3.7 * x, 256.0)).bins, 1, 100)
        assert r1 == pytest.approx(r2, rel=1e-12)
        # so raw rFFT bins give dft's ratio
        assert fundamental_energy_ratio(np.fft.rfft(x), 1, 100) == pytest.approx(
            r1, rel=1e-12)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            fundamental_energy_ratio(dft(SampledSignal(np.zeros(64), 64.0)).bins, 1, 16)
        block = np.fft.rfft(np.vstack([np.cos(np.arange(64.0)), np.zeros(64)]), axis=1)
        with pytest.raises(ZeroDenominator):  # one silent row in a block
            fundamental_energy_ratio(block, 1, 16)

    def test_max_bin_bounds(self):
        spec = dft(cosine_signal(1, 64, 1.0))
        with pytest.raises(ValueError):
            fundamental_energy_ratio(spec.bins, 1, 33)  # only bins 0..32 exist

    @pytest.mark.parametrize("fundamental_bin,max_bin", [(1, 256), (3, 100)])
    def test_block_matches_each_row(self, fundamental_bin, max_bin):
        bins = np.fft.rfft(np.random.default_rng(8).normal(size=(33, 512)), axis=1)
        block = fundamental_energy_ratio(bins, fundamental_bin, max_bin)
        assert block.shape == (33,)
        rows = [fundamental_energy_ratio(r, fundamental_bin, max_bin) for r in bins]
        assert np.array_equal(block, rows)


class TestStft:
    def test_tone_localization(self):
        sig = cosine_signal(50, 512, 10.0)
        spg = Stft(sig, 1024, 51, 1024)
        target = int(round(50 / spg.freq_step))
        argmax = np.argmax(whole_matrix(spg), axis=1)
        for a in argmax[3:-3]:
            assert a == target

    def test_zero_signal(self):
        spg = Stft(SampledSignal(np.zeros(4096), 512.0), 1024, 51, 1024)
        assert np.all(whole_matrix(spg) == 0.0)

    def test_chirp_argmax_monotone(self):
        rate = 64.0
        t = np.arange(int(rate * 20)) / rate
        x = np.cos(2 * np.pi * (t + 0.05 * t ** 2))  # IF = 1 + 0.1 t
        spg = Stft(SampledSignal(x, rate), 128, 16, 2048)
        argmax = np.argmax(whole_matrix(spg), axis=1)[5:-5]
        assert np.all(np.diff(argmax) >= 0)
        assert argmax[-1] > argmax[0]

    def test_too_short(self):
        with pytest.raises(SignalTooShort):
            Stft(SampledSignal(np.zeros(100), 512.0), 1024, 51, 1024)

    @pytest.mark.parametrize("window,hop,fft_length", [(64, 4, 32), (32, 0, 32)])
    def test_bad_grid(self, window, hop, fft_length):
        with pytest.raises(ValueError):
            Stft(SampledSignal(np.zeros(100), 64.0), window, hop, fft_length)

    def test_time_shift_moves_frames(self):
        rng = np.random.default_rng(0)
        hop = 32
        core = rng.normal(size=2048)
        x1 = np.concatenate([core, np.zeros(4 * hop)])
        x2 = np.concatenate([np.zeros(4 * hop), core])
        a = whole_matrix(Stft(SampledSignal(x1, 512.0), 256, hop, 256))[8:40]
        b = whole_matrix(Stft(SampledSignal(x2, 512.0), 256, hop, 256))[12:44]
        assert np.max(np.abs(a - b)) < 1e-6 * max(np.max(a), 1.0)

    @pytest.mark.parametrize("hop", [2, 7, 64])
    def test_blocks_match_stacked_oracle(self, hop):
        # a frame count that is not a multiple of the block size
        n_frames = 3 * _BLOCK_FRAMES + 5
        x = np.random.default_rng(hop).standard_normal((n_frames - 1) * hop + 1)
        spg = Stft(SampledSignal(x, 100.0), 96, hop, 128)
        assert (spg.n_frames, spg.n_bins) == (n_frames, 65)
        blocks = list(spg.blocks())
        assert [len(b) for b in blocks] == [_BLOCK_FRAMES] * 3 + [5]
        expected = stacked_stft_matrix(x, 96, hop, 128)
        assert np.vstack(blocks).tobytes() == expected.tobytes()

    def test_every_sweep_has_the_same_bits(self):
        x = np.random.default_rng(1).standard_normal(3000)
        spg = Stft(SampledSignal(x, 100.0), 96, 10, 128)
        first = [b.copy() for b in spg.blocks()]
        for block in spg.blocks():
            block[:] = -1.0  # a consumer may clip or scale a block in place
        second = list(spg.blocks())
        assert all(a.tobytes() == b.tobytes() for a, b in zip(first, second))


class TestDynamicRangeClip:
    def test_all_equal_unchanged(self, tmp_path):
        # hi == lo: the values stay, and the PGM is all 0
        m = np.full((4, 4), 2.5)
        lo, hi = blocked_limits(m, rows=3)
        assert (lo, hi) == (2.5, 2.5)
        write_spectrogram(row_blocks(m, 3), m.shape, lo, hi,
                          tmp_path / "s.csv", tmp_path / "s.pgm")
        assert (tmp_path / "s.csv").read_text() == "2.5,2.5,2.5,2.5\n" * 4
        assert (tmp_path / "s.pgm").read_bytes() == b"P5\n4 4\n255\n" + bytes(16)

    def test_default_percentiles_match_separate_calls(self, tmp_path):
        m = np.random.default_rng(3).random((50, 70)) ** 8
        lo = np.percentile(m.ravel(), 0.0, method="linear")
        hi = np.percentile(m.ravel(), 99.95, method="linear")
        assert blocked_limits(m) == (lo, hi)
        write_spectrogram(row_blocks(m), m.shape, lo, hi, tmp_path / "s.csv", None)
        assert (tmp_path / "s.csv").read_bytes() == g17_rows(np.clip(m, lo, hi))

    @pytest.mark.parametrize("case", [
        "random", "random-wide", "ties", "few-values", "constant", "one-value",
        "two-values", "partial-block", "kept-over-several-blocks",
        "upper-branch"])
    def test_blocked_percentiles_match_numpy(self, case):
        rng = np.random.default_rng(len(case))
        rows = _BLOCK_FRAMES
        if case == "random":
            m = rng.random((600, 257)) ** 4
        elif case == "random-wide":
            m = np.abs(wide_range_values(rng, (40, 513)))
        elif case == "ties":
            m = rng.integers(0, 7, (300, 129)).astype(float)
            m[rng.random(m.shape) < 0.001] = 9.0  # ties at the top ranks
        elif case == "few-values":
            m = rng.random((3, 5))
        elif case == "constant":
            m = np.full((37, 11), 0.125)
        elif case == "one-value":
            m = np.array([[3.0]])
        elif case == "two-values":
            m = np.array([[3.0, 1.0]])
        elif case == "upper-branch":
            # 201 values: the 99.95th percentile lies 0.9 of the way from the
            # second largest to the largest, where a + (b - a) t and numpy's
            # b - (b - a)(1 - t) differ in the last bit for these two
            m = np.append(rng.random(199) * 0.5,
                          [1.0335855753054644, 1.8574042765875693])
            m = rng.permutation(m).reshape(3, 67)
            rows = 1
        elif case == "partial-block":
            m = rng.standard_normal((2 * _BLOCK_FRAMES + 5, 65)) ** 2
        else:
            # blocks of 5 values, fewer than the 11 kept top values
            m, rows = rng.random((4000, 5)), 1
        expected = np.percentile(m.ravel(), (0.0, 99.95), method="linear")
        got = np.array(blocked_limits(m, rows))
        assert got.tobytes() == expected.tobytes()

    def test_counts_the_values(self):
        reducer = DynamicRange(10)
        reducer.add(np.ones((1, 9)))
        with pytest.raises(ValueError, match="9 values added, 10 expected"):
            reducer.limits()


class TestBandEnergyRatio:
    def _tone_spectrogram(self, freq):
        return Stft(cosine_signal(freq, 64, 20.0), 128, 6, 1024)

    def _ratio(self, spg, curve, half_width=0.2):
        return blocked_band_ratio(whole_matrix(spg), spg.freq_step, curve,
                                  half_width)

    def test_band_on_tone(self):
        # band half-width must cover the Gaussian window's spectral width
        spg = self._tone_spectrogram(2)
        curve = np.full(spg.n_frames, 2.0)
        assert self._ratio(spg, curve, 1.0) > 0.95

    def test_band_misses_tone(self):
        spg = self._tone_spectrogram(2)
        curve = np.full(spg.n_frames, 6.0)
        assert self._ratio(spg, curve, 1.0) < 0.05

    def test_zero_signal_denominator(self):
        spg = Stft(SampledSignal(np.zeros(4096), 64.0), 128, 6, 1024)
        with pytest.raises(ZeroDenominator):
            self._ratio(spg, np.full(spg.n_frames, 2.0))

    def test_empty_band(self):
        spg = self._tone_spectrogram(2)
        # 20.01 Hz falls between the 1/16 Hz grid points; the band is checked
        # before any block is made
        curve = np.full(spg.n_frames, 20.01)
        with pytest.raises(EmptyBand, match=r"frame 0: .*0\.0625 Hz apart.* 0\.03125 Hz"):
            BandEnergy(spg.freq_step, spg.n_bins, curve, 1e-6, 0.0, 32.0)

    def test_half_spacing_reaches_a_midpoint(self):
        # bins 0, 0.1, ..., 1.0; 0.55 lies an ulp more than 0.05 from the
        # rounded bins 0.5 and 0.6000000000000001
        freqs = np.arange(11) * 0.1
        curve = np.array([0.55, 0.05])
        assert np.all(np.abs(freqs[5:7] - 0.55) > 0.05)
        assert blocked_band_ratio(np.ones((2, 11)), 0.1, curve, 0.05) == 4 / 22
        with pytest.raises(EmptyBand):
            blocked_band_ratio(np.ones((2, 11)), 0.1, curve, 0.0499)

    @pytest.mark.parametrize("half_width", [0.05, 0.3, 2.0])
    def test_matches_whole_matrix_ratio(self, half_width):
        rate = 64.0
        t = np.arange(int(rate * 30)) / rate
        x = np.cos(2 * np.pi * (3 * t + 0.05 * t ** 2))  # IF = 3 + 0.1 t
        x += 0.1 * np.random.default_rng(2).standard_normal(t.size)
        spg = Stft(SampledSignal(x, rate), 128, 8, 1024)
        m = whole_matrix(spg)
        curve = 3 + 0.1 * np.arange(spg.n_frames) * 8 / rate
        freqs = np.arange(spg.n_bins) * spg.freq_step
        expected = whole_matrix_band_ratio(m, freqs, curve, half_width,
                                           1 / 30, rate / 2)
        got = blocked_band_ratio(m, spg.freq_step, curve, half_width,
                                 1 / 30, rate / 2)
        assert got == pytest.approx(expected, rel=1e-12, abs=0)

    def test_counts_the_frames(self):
        band = BandEnergy(0.1, 11, np.full(3, 0.5), 0.1, 0.0, 1.0)
        band.add(np.ones((2, 11)))
        with pytest.raises(ValueError, match="3 entries for 2 frames"):
            band.ratio()


class TestExports:
    def test_csv_row_per_frame(self, tmp_path):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "s.csv"
        write_spectrogram([m], m.shape, 1.0, 4.0, path, None)
        lines = path.read_text().splitlines()
        assert lines == ["1,2", "3,4"]

    def test_pgm_header_and_size(self, tmp_path):
        m = np.array([[0.0, 1.0], [2.0, 4.0]])
        path = tmp_path / "s.pgm"
        write_spectrogram([m], m.shape, 0.0, 4.0, None, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        pixels = data[len(b"P5\n2 2\n255\n"):]
        assert list(pixels) == [0, 64, 128, 255]

    def test_pgm_rows_match_whole_matrix_scaling(self, tmp_path):
        m = np.random.default_rng(4).random((2 * _BLOCK_FRAMES + 3, 9))
        path = tmp_path / "s.pgm"
        write_spectrogram(row_blocks(m), m.shape, m.min(), m.max(), None, path)
        assert path.read_bytes() == whole_matrix_pgm(m)

    def test_csv_matches_per_value_formatting(self, tmp_path):
        # rows of 4097 bins, a few to a chunk
        m = np.abs(wide_range_values(np.random.default_rng(5), (7, 4097)))
        m[0, :3] = [0.0, 5e-324, 1.0 / 3.0]
        path = tmp_path / "s.csv"
        write_spectrogram(row_blocks(m, 3), m.shape, m.min(), m.max(), path, None)
        assert path.read_bytes() == g17_rows(m)

    @pytest.mark.parametrize("hop", [3, 47])
    def test_blocked_writers_match_whole_matrix_oracle(self, tmp_path, hop):
        rng = np.random.default_rng(hop)
        x = np.cos(np.arange(4000) * 0.3) + 0.2 * rng.standard_normal(4000)
        spg = Stft(SampledSignal(x, 100.0), 96, hop, 128)
        clip = DynamicRange(spg.n_frames * spg.n_bins)
        for block in spg.blocks():
            clip.add(block)
        lo, hi = clip.limits()
        write_spectrogram(spg.blocks(), (spg.n_frames, spg.n_bins), lo, hi,
                          tmp_path / "s.csv", tmp_path / "s.pgm")
        m = stacked_stft_matrix(x, 96, hop, 128)
        assert spg.n_frames % _BLOCK_FRAMES  # a partial last block
        assert (lo, hi) == tuple(np.percentile(m.ravel(), (0.0, 99.95),
                                               method="linear"))
        clipped = np.clip(m, lo, hi)
        assert (tmp_path / "s.csv").read_bytes() == g17_rows(clipped)
        assert (tmp_path / "s.pgm").read_bytes() == whole_matrix_pgm(clipped)

    def test_spectrum_csv_matches_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(6)
        n = _CSV_CHUNK_VALUES // 5 + 7  # more rows than one chunk holds
        bins = wide_range_values(rng, n) + 1j * wide_range_values(rng, n)
        bins[:1000] = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        # inputs where np.abs of the array and abs() of each complex differ
        python_abs = np.array([abs(complex(c)) for c in bins])
        assert np.any(np.abs(bins) != python_abs)
        spec = Spectrum(bins, 0.1)
        path = tmp_path / "spectrum.csv"
        spectrum_to_csv(spec, path)
        expected = "bin,frequency_hz,real,imag,magnitude\n" + "".join(
            f"{k},{k * spec.bin_width:.17g},"
            f"{c.real:.17g},{c.imag:.17g},{abs(c):.17g}\n"
            for k, c in enumerate(spec.bins))
        assert path.read_bytes() == expected.encode("ascii")

    def test_csv_formats_a_few_rows_at_a_time(self, tmp_path):
        # the Python floats and the text of the whole matrix would take
        # several times its bytes
        m = np.random.default_rng(8).random((64, 4097))
        tracemalloc.start()
        try:
            write_spectrogram([m], m.shape, m.min(), m.max(),
                              tmp_path / "s.csv", None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= m.nbytes
