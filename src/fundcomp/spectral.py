"""DFT, energy ratios, Gaussian-window STFT and spectrogram utilities.

DFT normalization: c_0 is the mean and c_l = (2/N) sum_n x_n e^{-2pi i l n / N}
for l >= 1, so a unit cosine sampled over one period has |c_l| = 1.  The
fundamental-component energy ratio is therefore independent of N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBand, SignalTooShort, ZeroDenominator
from .io import _write_rows
from .signal_model import SampledSignal

# stft transforms, and spectrogram_to_pgm scales, this many frames at a time,
# so their transients stay a few MB beside the one |V|^2 matrix
_BLOCK_FRAMES = 16
_CLIP_PERCENTILES = (0.0, 99.95)


@dataclass(frozen=True)
class Spectrum:
    bins: np.ndarray
    bin_width: float

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.bins)


@dataclass(frozen=True)
class Spectrogram:
    matrix: np.ndarray          # frames x frequency bins, |V|^2
    freq_step: float
    window_descriptor: str

    @property
    def n_frames(self) -> int:
        return self.matrix.shape[0]

    def frequencies(self) -> np.ndarray:
        return np.arange(self.matrix.shape[1]) * self.freq_step


def dft(signal: SampledSignal) -> Spectrum:
    x = signal.samples
    n = x.size
    bins = np.fft.rfft(x)
    dc = bins[0] / n
    bins *= 2.0 / n
    bins[0] = dc
    return Spectrum(bins=bins, bin_width=signal.sample_rate / n)


def fundamental_energy_ratio(bins: np.ndarray, fundamental_bin: int = 1,
                             max_bin: int = 256):
    """|c_fundamental|^2 / sum_{l=1..max_bin} |c_l|^2 along the last axis of
    the spectrum bins, DC excluded throughout.

    The ratio does not depend on the bins' scale, so raw rFFT bins serve as
    well as dft's.  A float for one spectrum, an array of one ratio per row
    for a block of them.
    """
    if fundamental_bin < 1 or max_bin < fundamental_bin:
        raise ValueError("need 1 <= fundamental_bin <= max_bin")
    if max_bin >= bins.shape[-1]:
        raise ValueError("max_bin beyond the highest spectrum bin")
    mags2 = np.abs(bins[..., 1:max_bin + 1]) ** 2
    denom = np.sum(mags2, axis=-1)
    if np.any(denom == 0.0):
        raise ZeroDenominator("no energy in bins 1..max_bin")
    ratio = mags2[..., fundamental_bin - 1] / denom
    return float(ratio) if ratio.ndim == 0 else ratio


def gaussian_window(length: int) -> np.ndarray:
    """Gaussian window truncated at +-4 sigma with sigma = length / 8."""
    sigma = length / 8.0
    n = np.arange(length) - (length - 1) / 2.0
    return np.exp(-0.5 * (n / sigma) ** 2)


def stft(signal: SampledSignal, window_length: int, hop: int,
         fft_length: int) -> Spectrogram:
    """Magnitude-squared STFT on a centered frame grid with edge zero-padding.

    Frames are strided views of the padded signal, transformed
    `_BLOCK_FRAMES` at a time into the one returned matrix.
    """
    if window_length > fft_length:
        raise ValueError("window_length must not exceed fft_length")
    if hop < 1:
        raise ValueError("hop must be >= 1")
    x = signal.samples
    if x.size < window_length:
        raise SignalTooShort(
            f"{x.size} samples < window_length {window_length}")
    window = gaussian_window(window_length)
    half = window_length // 2
    padded = np.concatenate([np.zeros(half), x, np.zeros(window_length)])
    n_frames = (x.size - 1) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(
        padded, window_length)[::hop][:n_frames]
    matrix = np.empty((n_frames, fft_length // 2 + 1))
    for start in range(0, n_frames, _BLOCK_FRAMES):
        stop = start + _BLOCK_FRAMES
        spec = np.fft.rfft(frames[start:stop] * window, n=fft_length, axis=1)
        blk = matrix[start:stop]
        np.abs(spec, out=blk)
        np.square(blk, out=blk)  # bitwise np.abs(spec) ** 2
    return Spectrogram(
        matrix=matrix,
        freq_step=signal.sample_rate / fft_length,
        window_descriptor=f"gaussian(length={window_length},sigma={window_length / 8:g})",
    )


def dynamic_range_clip(spectrogram: Spectrogram) -> None:
    """Clip the matrix in place to its [0, 99.95] percentiles (linear
    interpolation), the display convention of the exports."""
    m = spectrogram.matrix
    lo, hi = np.percentile(m.ravel(), _CLIP_PERCENTILES, method="linear")
    np.clip(m, lo, hi, out=m)


def band_energy_ratio(spectrogram: Spectrogram, if_curve, half_width: float = 0.2,
                      band_floor: float = 0.0,
                      band_ceiling: float | None = None) -> float:
    """Energy fraction in the band [if(t) - hw, if(t) + hw] per frame.

    The denominator integrates over [band_floor, band_ceiling]; defaults span
    the whole grid.  Riemann sums on the shared grid, so the bin width cancels.
    """
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    curve = np.asarray(if_curve, dtype=np.float64)
    if curve.size != spectrogram.n_frames:
        raise ValueError(
            f"if_curve has {curve.size} entries for {spectrogram.n_frames} frames")
    freqs = spectrogram.frequencies()
    if band_ceiling is None:
        band_ceiling = float(freqs[-1])
    denom_mask = (freqs >= band_floor) & (freqs <= band_ceiling)
    denom = float(np.sum(spectrogram.matrix[:, denom_mask]))
    if denom == 0.0:
        raise ZeroDenominator("no spectrogram energy in the reference band")
    # a bin exactly half_width away still counts when rounding of the grid
    # or the curve puts it an ulp or two further, so that half the bin
    # spacing always reaches a bin
    reach = half_width + 4 * np.finfo(np.float64).eps * float(freqs[-1])
    num = 0.0
    for i in range(spectrogram.n_frames):
        mask = np.abs(freqs - curve[i]) <= reach
        if not np.any(mask):
            raise EmptyBand(
                f"frame {i}: no frequency bin within {half_width} Hz of "
                f"{curve[i]} Hz; bins are {spectrogram.freq_step:g} Hz apart, "
                f"so a half-width of at least {spectrogram.freq_step / 2:g} Hz "
                f"always reaches one")
        num += float(np.sum(spectrogram.matrix[i, mask]))
    return num / denom


def spectrogram_to_csv(spectrogram: Spectrogram, path) -> None:
    """One CSV row per frame, entries printed with 17 significant digits."""
    with open(path, "wb") as fh:
        _write_rows(fh, spectrogram.matrix)


def spectrogram_to_pgm(spectrogram: Spectrogram, path) -> None:
    """Binary 8-bit PGM (P5): row per frame, linear map of [min, max] to 0..255.

    Apply dynamic_range_clip first to follow the display convention.
    """
    m = spectrogram.matrix
    lo = float(np.min(m))
    hi = float(np.max(m))
    data = np.zeros(m.shape, dtype=np.uint8)
    if hi > lo:
        for start in range(0, m.shape[0], _BLOCK_FRAMES):
            rows = slice(start, start + _BLOCK_FRAMES)
            scaled = m[rows] - lo
            scaled /= hi - lo
            scaled *= 255.0
            data[rows] = np.round(scaled, out=scaled)
    header = f"P5\n{m.shape[1]} {m.shape[0]}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())


def spectrum_to_csv(spectrum: Spectrum, path) -> None:
    """Rows bin,frequency_hz,real,imag,magnitude with 17 significant digits.

    The magnitude is np.hypot, which equals abs() of a Python complex bit for
    bit; np.abs of a complex array can differ in the last bit.
    """
    c = spectrum.bins
    k = np.arange(c.size)
    # the bin index is an integral float below 2^53, which %.17g prints as %d
    table = np.column_stack([k, k * spectrum.bin_width, c.real, c.imag,
                             np.hypot(c.real, c.imag)])
    with open(path, "wb") as fh:
        fh.write(b"bin,frequency_hz,real,imag,magnitude\n")
        _write_rows(fh, table)
