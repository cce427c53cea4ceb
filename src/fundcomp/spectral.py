"""DFT, energy ratios, Gaussian-window STFT and spectrogram utilities.

DFT normalization: c_0 is the mean and c_l = (2/N) sum_n x_n e^{-2pi i l n / N}
for l >= 1, so a unit cosine sampled over one period has |c_l| = 1.  The
fundamental-component energy ratio is therefore independent of N.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyBand, SignalTooShort, ZeroDenominator
from .io import _write_rows
from .signal_model import SampledSignal

# Stft.blocks transforms this many frames at a time; no consumer of the
# spectrogram holds more than one block of it
_BLOCK_FRAMES = 16
_CLIP_PERCENTILES = (0.0, 99.95)


@dataclass(frozen=True)
class Spectrum:
    bins: np.ndarray
    bin_width: float

    def magnitudes(self) -> np.ndarray:
        return np.abs(self.bins)


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


@dataclass(frozen=True)
class Stft:
    """Magnitude-squared STFT on a centered frame grid with edge zero-padding,
    made `_BLOCK_FRAMES` frames at a time by `blocks`.

    Nothing holds the frames x bins matrix: each sweep of `blocks` transforms
    the frames again, into the same bits.
    """
    signal: SampledSignal
    window_length: int
    hop: int
    fft_length: int

    def __post_init__(self):
        if self.window_length > self.fft_length:
            raise ValueError("window_length must not exceed fft_length")
        if self.hop < 1:
            raise ValueError("hop must be >= 1")
        if len(self.signal) < self.window_length:
            raise SignalTooShort(
                f"{len(self.signal)} samples < window_length {self.window_length}")

    @property
    def n_frames(self) -> int:
        return (len(self.signal) - 1) // self.hop + 1

    @property
    def n_bins(self) -> int:
        return self.fft_length // 2 + 1

    @property
    def freq_step(self) -> float:
        return self.signal.sample_rate / self.fft_length

    @property
    def window_descriptor(self) -> str:
        length = self.window_length
        return f"gaussian(length={length},sigma={length / 8:g})"

    def blocks(self):
        """Yield the |V|^2 rows of the frames, `_BLOCK_FRAMES` at a time and
        in order. The frames are strided views of the padded signal."""
        length = self.window_length
        window = gaussian_window(length)
        padded = np.concatenate(
            [np.zeros(length // 2), self.signal.samples, np.zeros(length)])
        frames = np.lib.stride_tricks.sliding_window_view(
            padded, length)[::self.hop][:self.n_frames]
        # windowed frames go in the head of zero rows of the FFT length:
        # rfft(n=fft_length) would pad them with the same zeros, at the cost
        # of a padded copy of each block
        rows = np.zeros((_BLOCK_FRAMES, self.fft_length))
        for start in range(0, len(frames), _BLOCK_FRAMES):
            block_frames = frames[start:start + _BLOCK_FRAMES]
            windowed = rows[:len(block_frames)]
            np.multiply(block_frames, window, out=windowed[:, :length])
            block = np.abs(np.fft.rfft(windowed, axis=1))
            yield np.square(block, out=block)  # bitwise np.abs(spec) ** 2


def _linear_rule(n: int, q: float) -> tuple[int, int, float]:
    """The two sorted positions and the weight that np.percentile(...,
    method="linear") interpolates for the fraction q of n values: the
    virtual index (n - 1) q, whose weight numpy takes against the position
    -1 where the index reaches the last value."""
    index = (n - 1) * q
    if index >= n - 1:
        return n - 1, n - 1, index + 1
    below = math.floor(index)
    return below, below + 1, index - below


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's two-branch linear interpolation from a to b, exact at both
    ends."""
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


class _Extremes:
    """The k largest, or the k smallest, of the values added so far."""

    def __init__(self, k: int, largest: bool):
        self.k = k
        self.largest = largest
        self.values = np.empty(0)

    def add(self, values: np.ndarray) -> None:
        kept = self.values
        if kept.size == self.k:
            # only a value past the kept ones' bound changes them; one equal
            # to the bound would replace an equal value
            values = (values[values > kept.min()] if self.largest
                      else values[values < kept.max()])
            if not values.size:
                return
        merged = np.concatenate((kept, values))
        extra = merged.size - self.k
        if extra > 0:
            merged = (np.partition(merged, extra)[extra:] if self.largest
                      else np.partition(merged, self.k - 1)[:self.k])
        self.values = merged


class DynamicRange:
    """The [0, 99.95] percentiles of n values added a block at a time, bit for
    bit those of np.percentile(values, (0, 99.95), method="linear"): the
    display range the spectrogram exports are clipped to.

    Only the values at the sorted positions the percentiles read are kept:
    the lowest two and the top n - floor((n - 1) 0.9995), 1231 of the
    600 x 4097 values of a 60 s recording at 4 kHz with the defaults.
    """

    def __init__(self, n_values: int):
        self._n = n_values
        self._seen = 0
        self._rules = [_linear_rule(n_values, p / 100) for p in _CLIP_PERCENTILES]
        (_, low_top, _), (high_bottom, _, _) = self._rules
        self._low = _Extremes(low_top + 1, largest=False)
        self._high = _Extremes(n_values - high_bottom, largest=True)

    def add(self, block: np.ndarray) -> None:
        values = block.ravel()
        self._seen += values.size
        self._low.add(values)
        self._high.add(values)

    def limits(self) -> tuple[float, float]:
        if self._seen != self._n:
            raise ValueError(f"{self._seen} values added, {self._n} expected")
        low = np.sort(self._low.values)
        high = np.sort(self._high.values)
        high_start = self._n - high.size

        def at(i):
            return float(low[i] if i < low.size else high[i - high_start])

        lo, hi = (_lerp(at(i), at(j), t) for i, j, t in self._rules)
        return lo, hi


class BandEnergy:
    """Energy fraction in the band [if(t) - hw, if(t) + hw] per frame, of
    |V|^2 blocks added in frame order.

    The denominator integrates over [band_floor, band_ceiling]. Riemann sums
    on the shared grid of `n_bins` bins `freq_step` apart, so the bin width
    cancels.
    """

    def __init__(self, freq_step: float, n_bins: int, if_curve,
                 half_width: float, band_floor: float, band_ceiling: float):
        if half_width <= 0:
            raise ValueError("half_width must be positive")
        curve = np.asarray(if_curve, dtype=np.float64)
        freqs = np.arange(n_bins) * freq_step
        # a bin exactly half_width away still counts when rounding of the grid
        # or the curve puts it an ulp or two further, so that half the bin
        # spacing always reaches a bin
        reach = half_width + 4 * np.finfo(np.float64).eps * float(freqs[-1])
        # freqs - c is monotone in floating point, so each frame's band is the
        # run of bins [first, first + count)
        first = np.empty(curve.size, dtype=np.intp)
        count = np.empty(curve.size, dtype=np.intp)
        for start in range(0, curve.size, _BLOCK_FRAMES):
            rows = slice(start, start + _BLOCK_FRAMES)
            mask = np.abs(freqs - curve[rows, None]) <= reach
            first[rows] = np.argmax(mask, axis=1)
            count[rows] = np.count_nonzero(mask, axis=1)
        empty = np.flatnonzero(count == 0)
        if empty.size:
            i = empty[0]
            raise EmptyBand(
                f"frame {i}: no frequency bin within {half_width} Hz of "
                f"{curve[i]} Hz; bins are {freq_step:g} Hz apart, "
                f"so a half-width of at least {freq_step / 2:g} Hz "
                f"always reaches one")
        self._bands = list(zip(first.tolist(), (first + count).tolist()))
        in_reference = np.flatnonzero((freqs >= band_floor) & (freqs <= band_ceiling))
        self._reference = (slice(in_reference[0], in_reference[-1] + 1)
                           if in_reference.size else slice(0, 0))
        self._frame = 0
        self._num = 0.0
        self._denom = 0.0

    def add(self, block: np.ndarray) -> None:
        stop = self._frame + len(block)
        # each band's slice holds the elements of its mask in their order, so
        # the sum (np.sum's own reduction, without its dispatch) adds them as
        # it would the masked copy
        for row, (a, b) in zip(block, self._bands[self._frame:stop]):
            self._num += float(row[a:b].sum())
        self._denom += float(np.sum(block[:, self._reference]))
        self._frame = stop

    def ratio(self) -> float:
        if self._frame != len(self._bands):
            raise ValueError(f"if_curve has {len(self._bands)} entries for "
                             f"{self._frame} frames")
        if self._denom == 0.0:
            raise ZeroDenominator("no spectrogram energy in the reference band")
        return self._num / self._denom


def write_spectrogram(blocks, shape: tuple[int, int], lo: float, hi: float,
                      csv_path, pgm_path) -> None:
    """Clip each |V|^2 block in place to [lo, hi] and append its rows to
    either file; a path of None writes no file.

    CSV: one row per frame, entries printed with 17 significant digits.
    PGM: binary 8-bit (P5), one row per frame, [lo, hi] mapped linearly to
    0..255 (all 0 when hi == lo). `shape` is (frames, bins).
    """
    with contextlib.ExitStack() as stack:
        csv = stack.enter_context(open(csv_path, "wb")) if csv_path else None
        pgm = stack.enter_context(open(pgm_path, "wb")) if pgm_path else None
        if pgm:
            pgm.write(f"P5\n{shape[1]} {shape[0]}\n255\n".encode("ascii"))
        for block in blocks:
            np.clip(block, lo, hi, out=block)
            if csv:
                _write_rows(csv, block)
            if pgm and hi > lo:
                scaled = block - lo
                scaled /= hi - lo
                scaled *= 255.0
                pgm.write(np.round(scaled, out=scaled).astype(np.uint8).tobytes())
            elif pgm:
                pgm.write(bytes(block.size))


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
