"""Trigonometric polynomials: evaluation, sampling, sup-norm and peak analysis.

A :class:`TrigPolynomial` stores positive integer frequencies with complex
amplitudes.  Two evaluation conventions coexist behind one type:

* complex form (default):  f(t) = sum_k a_k exp(i * 2*pi * m_k * t / period)
* real cosine form:        f(t) = sum_k Re(a_k exp(i * 2*pi * m_k * t / period))
                                 = sum_k A_k cos(2*pi*m_k*t/period + phi_k)
  with a_k = A_k * exp(i*phi_k).

Peaks of g = |f| are found from p = |f|^2, a trigonometric polynomial of
degree at most 2*m_max whose coefficients are exact.  One inverse FFT of the
coefficients of p' gives p' on a grid of max(4096, 64*m_max) points; its
sign changes from + to - bracket the local maxima, which are polished all at
once by vectorised Newton iteration on p' with a bisection fallback.  The
sup-norm is the largest of those polished maxima, and a second inverse FFT,
of p itself on the same grid, cross-checks that no maximum went unbracketed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConstantModulus, DegenerateMaximum, NyquistViolation

TWO_PI = 2.0 * math.pi

# Two Newton roots of p' closer than this fraction of the period are merged.
PEAK_DEDUPE_REL_TOL = 1e-6
# |g''| below this at a global maximum violates the non-degeneracy assumption.
DEGENERACY_CUTOFF = 1e-8
# Peaks must reach sup_norm * (1 - GLOBAL_PEAK_REL_TOL) to count as global.
GLOBAL_PEAK_REL_TOL = 1e-9


@dataclass(frozen=True)
class TrigPolynomial:
    terms: tuple[tuple[int, complex], ...]
    period: float = TWO_PI
    real_cosine_form: bool = False

    def __post_init__(self):
        if self.period <= 0:
            raise ValueError("period must be positive")
        merged: dict[int, complex] = {}
        for freq, amp in self.terms:
            if freq != int(freq) or freq < 1:
                raise ValueError(f"frequency {freq!r} is not a positive integer")
            merged[int(freq)] = merged.get(int(freq), 0j) + complex(amp)
        cleaned = tuple(
            (m, merged[m]) for m in sorted(merged) if merged[m] != 0
        )
        if not cleaned:
            raise ValueError("polynomial must have at least one nonzero term")
        object.__setattr__(self, "terms", cleaned)

    @property
    def frequencies(self) -> np.ndarray:
        return np.array([m for m, _ in self.terms], dtype=np.int64)

    @property
    def amplitudes(self) -> np.ndarray:
        return np.array([a for _, a in self.terms], dtype=np.complex128)

    @property
    def max_frequency(self) -> int:
        return int(self.terms[-1][0])

    def frequency_gcd(self) -> int:
        return reduce(math.gcd, (m for m, _ in self.terms))


@dataclass(frozen=True)
class SampledSignal:
    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("need at least 2 samples in a 1-D array")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class Peak:
    location: float
    value: float
    second_derivative: float


@dataclass(frozen=True)
class PeakSet:
    peaks: tuple[Peak, ...]
    sup_norm: float
    period: float = TWO_PI

    def __post_init__(self):
        if not self.peaks:
            raise ValueError("PeakSet must contain at least one peak")
        for p in self.peaks:
            if not 0 <= p.location < self.period:
                raise ValueError(f"peak location {p.location} outside [0, period)")
            if abs(p.value - self.sup_norm) > GLOBAL_PEAK_REL_TOL * self.sup_norm:
                raise ValueError("peak value deviates from sup_norm")
            if p.second_derivative >= 0:
                raise ValueError("peak second derivative must be negative")
        locs = sorted(p.location for p in self.peaks)
        min_sep = PEAK_DEDUPE_REL_TOL * self.period
        for a, b in zip(locs, locs[1:]):
            if b - a <= min_sep:
                raise ValueError("peak locations not pairwise distinct")


def evaluate(poly: TrigPolynomial, t):
    """Evaluate f at scalar or array t of any shape (complex for the complex form)."""
    t_arr = np.asarray(t, dtype=np.float64)
    omega = TWO_PI / poly.period
    phases = np.exp(1j * omega * np.multiply.outer(t_arr, poly.frequencies))
    # einsum, not a BLAS product: see _ModulusSquared.at
    vals = np.einsum("...k,k->...", phases, poly.amplitudes)
    if poly.real_cosine_form:
        vals = vals.real
    if np.ndim(t) == 0:
        return complex(vals) if not poly.real_cosine_form else float(vals)
    return vals


def sample(poly: TrigPolynomial, sample_rate: float, duration: float) -> SampledSignal:
    """Uniformly sample f; real part is stored for real-valued use downstream."""
    if duration <= 0:
        raise ValueError("duration must be positive")
    max_hz = poly.max_frequency / poly.period
    if sample_rate <= 2.0 * max_hz:
        raise NyquistViolation(
            f"sample_rate {sample_rate} Hz <= 2 * max frequency {max_hz} Hz"
        )
    n = int(round(sample_rate * duration))
    if n < 2:
        raise ValueError("duration too short for this sample rate")
    t = np.arange(n) / sample_rate
    vals = evaluate(poly, t)
    return SampledSignal(np.real(vals), sample_rate)


def _exp_coefficients(poly: TrigPolynomial) -> tuple[np.ndarray, np.ndarray]:
    """Signed exponential representation c_m with f(t) = sum_m c_m e^{i m w t}.

    Returns (offset, coeffs) where coeffs[j] multiplies frequency j - offset.
    """
    m_max = poly.max_frequency
    coeffs = np.zeros(2 * m_max + 1, dtype=np.complex128)
    for m, a in poly.terms:
        if poly.real_cosine_form:
            coeffs[m_max + m] += a / 2.0
            coeffs[m_max - m] += np.conj(a) / 2.0
        else:
            coeffs[m_max + m] += a
    return m_max, coeffs


def _modulus_squared_coefficients(poly: TrigPolynomial) -> tuple[np.ndarray, np.ndarray]:
    """Exponential coefficients of p = |f|^2 as (signed frequencies, coeffs)."""
    m_max, c = _exp_coefficients(poly)
    # p_d = sum_m c_m * conj(c_{m-d}); correlation of c with itself.
    p = np.correlate(c, c, mode="full")  # np.correlate conjugates its 2nd arg
    freqs = np.arange(-(len(c) - 1), len(c))
    keep = np.abs(p) > 0
    return freqs[keep], p[keep]


class _ModulusSquared:
    """p = |f|^2 with analytically exact derivatives."""

    def __init__(self, poly: TrigPolynomial):
        d, pd = _modulus_squared_coefficients(poly)
        self.omega = TWO_PI / poly.period
        self.d = d
        self.pd = pd
        self.is_constant = bool(np.all(d == 0))

    def _coefficients(self, order: int) -> np.ndarray:
        return self.pd * (1j * self.d * self.omega) ** order

    def at(self, t, *orders: int) -> np.ndarray:
        """Rows p^(k)(t) for each k in `orders`, at the abscissae t."""
        phases = np.exp(1j * np.multiply.outer(np.asarray(t, dtype=np.float64),
                                               self.d * self.omega))
        coeffs = np.stack([self._coefficients(k) for k in orders])
        # einsum, not a BLAS product: these are small products, which a
        # threaded BLAS can run orders of magnitude slower than one loop
        return np.einsum("kd,td->kt", coeffs, phases).real

    def on_grid(self, n: int, order: int) -> np.ndarray:
        """p^(order) at t_k = k * period / n by one inverse FFT.

        Exact placement: the frequencies d span [-2 m_max, 2 m_max], so they
        are distinct modulo any n > 4 m_max.
        """
        spectrum = np.zeros(n, dtype=np.complex128)
        spectrum[self.d % n] = self._coefficients(order)
        return np.fft.ifft(spectrum, norm="forward").real


def _scan_grid_size(poly: TrigPolynomial) -> int:
    return max(4096, 64 * poly.max_frequency)


def _critical_points(p: _ModulusSquared, period: float, n: int) -> np.ndarray:
    """Roots of p' over one period that can be maxima of p, polished at once.

    Sign changes of p' from + to - on the n-point grid bracket the maxima
    (p is band-limited to 2*m_max and the grid has >= 32 points per top
    harmonic).  Each bracket starts at its midpoint and takes Newton steps on
    p' that stay inside the bracket, else bisects it, until a step moves less
    than 1e-15 * period or 100 steps are spent.  A grid point where p' is
    exactly 0 is a root as it stands.
    """
    h = period / n
    ts = np.arange(n) * h
    dp = p.on_grid(n, 1)
    at_grid = ts[dp == 0.0]
    i = np.flatnonzero((dp > 0.0) & (np.roll(dp, -1) < 0.0))
    lo, hi = ts[i], ts[i] + h
    t = 0.5 * (lo + hi)
    active = np.arange(i.size)
    for _ in range(100):
        if not active.size:
            break
        ta, la, ha = t[active], lo[active], hi[active]
        d1, d2 = p.at(ta, 1, 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_new = ta - d1 / d2
        step_ok = (d2 != 0.0) & (la <= t_new) & (t_new <= ha)
        # bisection fallback keeps the bracket; p' < 0 past the root
        toward_lo = ~step_ok & (d1 < 0.0)
        toward_hi = ~step_ok & ~toward_lo
        ha[toward_lo] = ta[toward_lo]
        la[toward_hi] = ta[toward_hi]
        lo[active], hi[active] = la, ha
        t_new = np.where(step_ok, t_new, 0.5 * (la + ha))
        moving = np.abs(t_new - ta) >= 1e-15 * period
        t[active] = t_new
        active = active[moving]
    return np.concatenate([at_grid, t])


def _local_maxima(p: _ModulusSquared, period: float,
                  n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(locations in [0, period), p, p'') at the roots of p' where p'' < 0.

    Their largest p is sup |f|^2.  The grid values of p cross-check it: a
    grid point above it means a maximum went unbracketed.
    """
    roots = _critical_points(p, period, n) % period
    pv, d2 = p.at(roots, 0, 2)
    is_max = d2 < 0.0
    roots, pv, d2 = roots[is_max], pv[is_max], d2[is_max]
    if not roots.size or (p.on_grid(n, 0).max()
                          > pv.max() * (1.0 + 2.0 * GLOBAL_PEAK_REL_TOL)):
        raise ConstantModulus("no non-degenerate maxima found")
    return roots, pv, d2


def find_global_maxima(poly: TrigPolynomial) -> PeakSet:
    """Locate all global maxima of g = |f| over one period.

    Critical points are roots of p' (p = |f|^2), bracketed on a dense grid and
    polished by Newton iteration on p'.  The global maxima are those within
    GLOBAL_PEAK_REL_TOL of the largest, which is the sup-norm.  At a maximum
    with g > 0, g'' = p''/(2g) because p' vanishes there.
    """
    p = _ModulusSquared(poly)
    if p.is_constant:
        raise ConstantModulus("|f| is constant; no isolated maxima exist")

    period = poly.period
    roots, pv, d2 = _local_maxima(p, period, _scan_grid_size(poly))
    g = np.sqrt(np.maximum(pv, 0.0))
    sup = float(g.max())
    keep = g >= sup * (1.0 - GLOBAL_PEAK_REL_TOL)
    candidates = sorted(zip(roots[keep].tolist(), g[keep].tolist(),
                            d2[keep].tolist()))

    # deduplicate modulo the period
    dedupe_tol = PEAK_DEDUPE_REL_TOL * period
    merged: list[tuple[float, float, float]] = []
    for c in candidates:
        if merged and c[0] - merged[-1][0] <= dedupe_tol:
            continue
        merged.append(c)
    if len(merged) > 1 and (merged[0][0] + period) - merged[-1][0] <= dedupe_tol:
        merged.pop()

    peaks = []
    for t, g, p2 in merged:
        g2 = p2 / (2.0 * g)
        if abs(g2) < DEGENERACY_CUTOFF:
            raise DegenerateMaximum(
                f"global maximum at t={t} has |g''|={abs(g2):.3e} < {DEGENERACY_CUTOFF}"
            )
        peaks.append(Peak(location=t, value=g, second_derivative=g2))
    return PeakSet(peaks=tuple(peaks), sup_norm=sup, period=period)
