import tracemalloc

import numpy as np
import pytest

from fundcomp.activations import ActivationSpec, apply
from fundcomp.errors import EmptyBand, SignalTooShort, ZeroDenominator
from fundcomp.io import _CSV_CHUNK_VALUES
from fundcomp.signal_model import SampledSignal, TrigPolynomial, sample
from fundcomp.spectral import (
    _BLOCK_FRAMES,
    Spectrogram,
    Spectrum,
    band_energy_ratio,
    dft,
    dynamic_range_clip,
    fundamental_energy_ratio,
    gaussian_window,
    spectrogram_to_csv,
    spectrogram_to_pgm,
    spectrum_to_csv,
    stft,
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
        spg = stft(sig, 1024, 51, 1024)
        target = int(round(50 / spg.freq_step))
        argmax = np.argmax(spg.matrix, axis=1)
        for a in argmax[3:-3]:
            assert a == target

    def test_zero_signal(self):
        spg = stft(SampledSignal(np.zeros(4096), 512.0), 1024, 51, 1024)
        assert np.all(spg.matrix == 0.0)

    def test_chirp_argmax_monotone(self):
        rate = 64.0
        t = np.arange(int(rate * 20)) / rate
        x = np.cos(2 * np.pi * (t + 0.05 * t ** 2))  # IF = 1 + 0.1 t
        spg = stft(SampledSignal(x, rate), 128, 16, 2048)
        argmax = np.argmax(spg.matrix, axis=1)[5:-5]
        assert np.all(np.diff(argmax) >= 0)
        assert argmax[-1] > argmax[0]

    def test_too_short(self):
        with pytest.raises(SignalTooShort):
            stft(SampledSignal(np.zeros(100), 512.0), 1024, 51, 1024)

    def test_time_shift_moves_frames(self):
        rng = np.random.default_rng(0)
        hop = 32
        core = rng.normal(size=2048)
        x1 = np.concatenate([core, np.zeros(4 * hop)])
        x2 = np.concatenate([np.zeros(4 * hop), core])
        s1 = stft(SampledSignal(x1, 512.0), 256, hop, 256)
        s2 = stft(SampledSignal(x2, 512.0), 256, hop, 256)
        a = s1.matrix[8:40]
        b = s2.matrix[12:44]
        assert np.max(np.abs(a - b)) < 1e-6 * max(np.max(a), 1.0)

    @pytest.mark.parametrize("hop", [2, 7, 64])
    def test_blocks_match_stacked_oracle(self, hop):
        # a frame count that is not a multiple of the block size
        n_frames = 3 * _BLOCK_FRAMES + 5
        x = np.random.default_rng(hop).standard_normal((n_frames - 1) * hop + 1)
        spg = stft(SampledSignal(x, 100.0), 96, hop, 128)
        assert spg.n_frames == n_frames
        expected = stacked_stft_matrix(x, 96, hop, 128)
        assert spg.matrix.tobytes() == expected.tobytes()

    def test_peak_allocation_is_about_one_matrix(self):
        # 60 s at 4 kHz with the CLI defaults: window 2 s, hop 0.1 s, FFT 8192
        x = np.random.default_rng(0).standard_normal(240_000)
        signal = SampledSignal(x, 4000.0)
        tracemalloc.start()
        try:
            spg = stft(signal, 8000, 400, 8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert spg.matrix.shape == (600, 4097)
        assert peak <= 1.5 * spg.matrix.nbytes


class TestOwnership:
    def test_writeable_matrix_is_copied(self):
        m = np.arange(6.0).reshape(2, 3)
        spg = Spectrogram(m, 1.0, 1.0, "t")
        m[0, 0] = 99.0
        assert spg.matrix[0, 0] == 0.0
        assert not spg.matrix.flags.writeable

    def test_read_only_view_is_copied(self):
        m = np.arange(6.0).reshape(2, 3)
        view = m[:]
        view.flags.writeable = False
        spg = Spectrogram(view, 1.0, 1.0, "t")
        m[0, 0] = 99.0
        assert spg.matrix[0, 0] == 0.0

    def test_writeable_bins_are_copied(self):
        bins = np.array([1.0 + 0j, 2.0 - 1j])
        spec = Spectrum(bins, 1.0)
        bins[0] = 5.0
        assert spec.bins[0] == 1.0
        assert not spec.bins.flags.writeable

    def test_owned_read_only_array_is_taken(self):
        m = np.zeros((2, 3))
        m.flags.writeable = False
        assert Spectrogram(m, 1.0, 1.0, "t").matrix is m


class TestDynamicRangeClip:
    def test_median_cap(self):
        m = np.arange(10000, dtype=float).reshape(100, 100)
        spg = Spectrogram(m, 1.0, 1.0, "test")
        out = dynamic_range_clip(spg, 0, 50)
        assert np.max(out.matrix) == pytest.approx(4999.5)

    def test_all_equal_unchanged(self):
        spg = Spectrogram(np.full((4, 4), 2.5), 1.0, 1.0, "test")
        out = dynamic_range_clip(spg)
        assert np.array_equal(out.matrix, spg.matrix)

    def test_full_range_unchanged(self):
        rng = np.random.default_rng(1)
        spg = Spectrogram(rng.random((20, 20)), 1.0, 1.0, "test")
        out = dynamic_range_clip(spg, 0, 100)
        assert np.array_equal(out.matrix, spg.matrix)

    def test_matches_percentile_clip_oracle(self):
        rng = np.random.default_rng(2)
        m = rng.random((30, 30))
        spg = Spectrogram(m, 1.0, 1.0, "test")
        out = dynamic_range_clip(spg, 5.0, 95.0)
        lo, hi = np.percentile(m, [5.0, 95.0])
        assert np.array_equal(out.matrix, np.clip(m, lo, hi))

    def test_default_percentiles_match_separate_calls(self):
        m = np.random.default_rng(3).random((50, 70)) ** 8
        out = dynamic_range_clip(Spectrogram(m, 1.0, 1.0, "test"))
        lo = np.percentile(m.ravel(), 0.0, method="linear")
        hi = np.percentile(m.ravel(), 99.95, method="linear")
        assert out.matrix.tobytes() == np.clip(m, lo, hi).tobytes()


class TestBandEnergyRatio:
    def _tone_spectrogram(self, freq):
        sig = cosine_signal(freq, 64, 20.0)
        return stft(sig, 128, 6, 1024)

    def test_band_on_tone(self):
        # band half-width must cover the Gaussian window's spectral width
        spg = self._tone_spectrogram(2)
        curve = np.full(spg.n_frames, 2.0)
        assert band_energy_ratio(spg, curve, 1.0) > 0.95

    def test_band_misses_tone(self):
        spg = self._tone_spectrogram(2)
        curve = np.full(spg.n_frames, 6.0)
        assert band_energy_ratio(spg, curve, 1.0) < 0.05

    def test_zero_signal_denominator(self):
        spg = stft(SampledSignal(np.zeros(4096), 64.0), 128, 6, 1024)
        with pytest.raises(ZeroDenominator):
            band_energy_ratio(spg, np.full(spg.n_frames, 2.0))

    def test_empty_band(self):
        spg = self._tone_spectrogram(2)
        # 20.01 Hz falls between the 1/16 Hz grid points
        curve = np.full(spg.n_frames, 20.01)
        with pytest.raises(EmptyBand, match=r"0\.0625 Hz apart.* 0\.03125 Hz"):
            band_energy_ratio(spg, curve, half_width=1e-6)


    def test_half_spacing_reaches_a_midpoint(self):
        # bins 0, 0.1, ..., 1.0; 0.55 lies an ulp more than 0.05 from the
        # rounded bins 0.5 and 0.6000000000000001
        spg = Spectrogram(np.ones((2, 11)), 1.0, 0.1, "t")
        curve = np.array([0.55, 0.05])
        assert np.all(np.abs(spg.frequencies()[5:7] - 0.55) > 0.05)
        assert band_energy_ratio(spg, curve, spg.freq_step / 2) == 4 / 22
        with pytest.raises(EmptyBand):
            band_energy_ratio(spg, curve, 0.0499)


class TestExports:
    def test_csv_row_per_frame(self, tmp_path):
        spg = Spectrogram(np.array([[1.0, 2.0], [3.0, 4.0]]), 1.0, 1.0, "t")
        path = tmp_path / "s.csv"
        spectrogram_to_csv(spg, path)
        lines = path.read_text().splitlines()
        assert lines == ["1,2", "3,4"]

    def test_pgm_header_and_size(self, tmp_path):
        spg = Spectrogram(np.array([[0.0, 1.0], [2.0, 4.0]]), 1.0, 1.0, "t")
        path = tmp_path / "s.pgm"
        spectrogram_to_pgm(spg, path)
        data = path.read_bytes()
        assert data.startswith(b"P5\n2 2\n255\n")
        pixels = data[len(b"P5\n2 2\n255\n"):]
        assert list(pixels) == [0, 64, 128, 255]

    def test_pgm_rows_match_whole_matrix_scaling(self, tmp_path):
        m = np.random.default_rng(4).random((2 * _BLOCK_FRAMES + 3, 9))
        path = tmp_path / "s.pgm"
        spectrogram_to_pgm(Spectrogram(m, 1.0, 1.0, "t"), path)
        lo, hi = m.min(), m.max()
        expected = np.round((m - lo) / (hi - lo) * 255.0).astype(np.uint8)
        assert path.read_bytes() == b"P5\n9 %d\n255\n" % m.shape[0] + \
            expected.tobytes()

    def test_csv_matches_per_value_formatting(self, tmp_path):
        # rows of 4097 bins, a few to a chunk
        m = np.abs(wide_range_values(np.random.default_rng(5), (7, 4097)))
        m[0, :3] = [0.0, 5e-324, 1.0 / 3.0]
        path = tmp_path / "s.csv"
        spectrogram_to_csv(Spectrogram(m, 1.0, 1.0, "t"), path)
        expected = "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                           for row in m)
        assert path.read_bytes() == expected.encode("ascii")

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
        spg = Spectrogram(np.random.default_rng(8).random((64, 4097)), 1.0,
                          1.0, "t")
        tracemalloc.start()
        try:
            spectrogram_to_csv(spg, tmp_path / "s.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= spg.matrix.nbytes
