"""Peak asymptotics of the adaptive reciprocal activation, verified numerically.

The leading-order prediction for the fundamental Fourier coefficient of
h_eps(|f| / ||f||) is a sum over the global maxima of g = |f|:

    (pi / sqrt(eps)) * sum_j e^{i theta_j} / sqrt(-g''(t_j) / (2 ||g||))

with theta_j the peak position mapped to the unit circle.  The exact integral
is computed by adaptive Gauss-Kronrod quadrature whose initial panels resolve
the eps-dependent peak widths.  Also here: the closed-form tail integral used
in the derivation, and the sumset analysis of frequency supports under powers
of |f|.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .activations import _h_eps_kernel
from .errors import QuadratureNonConvergence
from .signal_model import (
    PeakSet,
    TrigPolynomial,
    TWO_PI,
    evaluate,
    find_global_maxima,
)

# Gauss 7 / Kronrod 15 nodes on [-1, 1] and their weights (rows: Kronrod, Gauss).
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_WEIGHTS = np.array([[
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
], [
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0, 0.381830050505119,
    0.0, 0.279705391489277, 0.0, 0.129484966168870, 0.0,
]])

MAX_PANEL_SPLITS = 20000
_BLOCK_PANELS = 64  # panels per integrand call: bounds evaluate's temporaries


@dataclass(frozen=True)
class AsymptoticReport:
    epsilon: float
    numeric_integral: complex
    prediction: complex

    @property
    def abs_error(self) -> float:
        return abs(self.numeric_integral - self.prediction)

    @property
    def rel_error(self) -> float | None:
        """None where the prediction is 0 (the cancellation case)."""
        return self.abs_error / abs(self.prediction) if self.prediction != 0 else None


@dataclass(frozen=True)
class ScalingResult:
    reports: tuple[AsymptoticReport, ...]
    error_slope: float
    prediction_cancels: bool
    # max over the ladder of |integral| * sqrt(eps), normalized by the
    # peak-sum magnitude; measures how far below the generic eps^{-1/2}
    # scale the integral stays when the peak sum cancels.
    cancellation_residual: float | None = None

    # remainder exponent is 1/4; slack covers the unknown constant
    SLOPE_BOUND = 0.3
    RESIDUAL_BOUND = 1e-3

    @property
    def passed(self) -> bool:
        if self.prediction_cancels:
            # the exact integral may vanish identically, leaving only
            # quadrature noise whose log-log slope is meaningless
            return (self.error_slope <= self.SLOPE_BOUND
                    or self.cancellation_residual <= self.RESIDUAL_BOUND)
        return self.error_slope <= self.SLOPE_BOUND


@dataclass(frozen=True)
class FrequencySet:
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = tuple(sorted(set(int(e) for e in self.elements)))
        if not elems or elems[0] < 1:
            raise ValueError("need a nonempty set of positive integers")
        object.__setattr__(self, "elements", elems)

    @property
    def max_element(self) -> int:
        return self.elements[-1]

    def gcd(self) -> int:
        return reduce(math.gcd, self.elements)


def cauchy_tail_integral(A: float, B: float, C: float = 0.0) -> float:
    """Closed form of the tail integral of 1/(A + B t^2) over |t| > C."""
    if A <= 0 or B <= 0:
        raise ValueError("A and B must be positive")
    if C < 0:
        raise ValueError("C must be nonnegative")
    return (math.pi - 2.0 * math.atan(math.sqrt(B / A) * C)) / math.sqrt(A * B)


def _gk_panels(fun, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kronrod values and |Kronrod - Gauss| error estimates of panels [a, b]."""
    half = 0.5 * (b - a)
    x = (0.5 * (a + b))[:, None] + half[:, None] * _GK_NODES
    vals = np.concatenate([fun(x[i:i + _BLOCK_PANELS])
                           for i in range(0, len(x), _BLOCK_PANELS)])
    ik, ig = half * np.einsum("pn,wn->wp", vals, _GK_WEIGHTS)
    return ik, np.abs(ik - ig)


def adaptive_quadrature(fun, edges, abs_tol: float,
                        max_splits: int = MAX_PANEL_SPLITS) -> complex:
    """Adaptive Gauss-Kronrod integration over the panels defined by `edges`.

    `fun` maps an abscissa array of any shape to complex values.  Each
    generation halves the worst panels, enough to cover all but abs_tol / 2
    of the total error estimate, until that total is at most abs_tol.
    Raises QuadratureNonConvergence once over `max_splits` panels are split.
    """
    edges = np.asarray(edges, dtype=np.float64)
    keep = edges[1:] > edges[:-1]
    a, b = edges[:-1][keep], edges[1:][keep]
    if not a.size:
        return 0j
    val, err = _gk_panels(fun, a, b)
    splits = 0
    while (total_err := err.sum()) > abs_tol:
        order = np.argsort(err)[::-1]
        n = 1 + np.searchsorted(np.cumsum(err[order]), total_err - 0.5 * abs_tol)
        split, kept = order[:n], order[n:]
        splits += split.size
        if splits > max_splits:
            raise QuadratureNonConvergence(
                f"error {total_err:.3e} > tol {abs_tol:.3e} after {max_splits} splits")
        mid = 0.5 * (a[split] + b[split])
        a = np.concatenate([a[kept], a[split], mid])
        b = np.concatenate([b[kept], mid, b[split]])
        new_val, new_err = _gk_panels(fun, a[kept.size:], b[kept.size:])
        val = np.concatenate([val[kept], new_val])
        err = np.concatenate([err[kept], new_err])
    return complex(val.sum())


def _peak_aware_edges(peaks: PeakSet, epsilon: float, period: float,
                      max_frequency: int) -> np.ndarray:
    """Initial panel edges: dyadic refinement at scale eps^{1/4} -> sqrt(eps)/8
    around every peak, uniform panels elsewhere (resolving the top harmonic)."""
    rel = period / TWO_PI  # peak widths scale with the period
    outer = min(epsilon ** 0.25 * rel, period / (4.0 * max(len(peaks.peaks), 1)))
    inner = math.sqrt(epsilon) * rel / 8.0
    offsets = [0.0]
    w = outer
    while w > inner:
        offsets.append(w)
        w *= 0.5
    offsets.append(min(inner, outer))
    edges = set()
    for p in peaks.peaks:
        for off in offsets:
            edges.add((p.location + off) % period)
            edges.add((p.location - off) % period)
    n_uniform = max(64, 4 * max_frequency)
    for i in range(n_uniform):
        edges.add(period * i / n_uniform)
    return np.array(sorted(edges))


def _fundamental_integral(poly: TrigPolynomial, peaks: PeakSet, epsilon: float,
                          target_bin: int) -> complex:
    """numeric_fundamental_integral with the PeakSet of `poly` supplied."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError("epsilon must lie in (0, 1], 1 only as a smoke test")
    if target_bin < 1:
        raise ValueError("target_bin must be a positive integer")
    norm = peaks.sup_norm
    period = poly.period
    omega = TWO_PI / period

    def integrand(t):
        mod = np.minimum(np.abs(evaluate(poly, t)) / norm, 1.0)
        return _h_eps_kernel(mod, epsilon) * np.exp(1j * omega * target_bin * t)

    base = _peak_aware_edges(peaks, epsilon, period, poly.max_frequency)
    edges = np.concatenate([base, [base[0] + period]])
    abs_tol = 1e-6 * epsilon ** -0.5
    return adaptive_quadrature(integrand, edges, abs_tol)


def numeric_fundamental_integral(poly: TrigPolynomial, epsilon: float,
                                 target_bin: int = 1) -> complex:
    """Integral of h_eps(|f(t)|/||f||) e^{i 2 pi b t / period} over one period.

    epsilon = 1 is admitted as an exactness smoke test (h_1 is identically 1).
    """
    return _fundamental_integral(poly, find_global_maxima(poly), epsilon,
                                 target_bin)


def _peak_terms(peaks: PeakSet, target_bin: int) -> np.ndarray:
    """e^{i omega b t_j} / sqrt(-g''(t_j) / (2 ||g||)) for every peak j."""
    loc = np.array([p.location for p in peaks.peaks])
    g2 = np.array([p.second_derivative for p in peaks.peaks])
    if np.any(g2 >= 0):
        raise ValueError("prediction requires strictly negative g''")
    omega = TWO_PI / peaks.period
    return np.exp(1j * omega * target_bin * loc) / np.sqrt(-g2 / (2.0 * peaks.sup_norm))


def asymptotic_prediction(peaks: PeakSet, epsilon: float,
                          target_bin: int = 1) -> complex:
    """Leading-order peak-sum prediction for the target Fourier coefficient."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    total = np.sum(_peak_terms(peaks, target_bin))
    return complex(math.pi / math.sqrt(epsilon) * total)


def _cancellation_ratio(peaks: PeakSet) -> float:
    """|sum of peak terms| relative to the sum of their moduli."""
    terms = _peak_terms(peaks, 1)
    return float(abs(np.sum(terms)) / np.sum(np.abs(terms)))


def scaling_verification(poly: TrigPolynomial, epsilons) -> ScalingResult:
    """Compare quadrature and prediction across an epsilon ladder.

    Fits the exponent of the absolute error against 1/eps by least squares;
    the remainder bound predicts an exponent of at most 1/4 whether or not
    the peak sum cancels (in the cancellation case the prediction is 0 and
    the error is the raw integral).  The peaks are found once for the whole
    ladder.
    """
    eps = [float(e) for e in epsilons]
    if any(not 0.0 < e <= 0.1 for e in eps):
        raise ValueError("epsilons must lie in (0, 0.1]")
    if any(b >= a for a, b in zip(eps, eps[1:])) or len(eps) < 2:
        raise ValueError("need at least 2 strictly decreasing epsilons")

    peaks = find_global_maxima(poly)
    cancels = _cancellation_ratio(peaks) < 1e-6
    reports = []
    for e in eps:
        numeric = _fundamental_integral(poly, peaks, e, 1)
        pred = complex(0) if cancels else asymptotic_prediction(peaks, e)
        reports.append(AsymptoticReport(
            epsilon=e, numeric_integral=numeric, prediction=pred))

    log_inv_eps = np.log([1.0 / r.epsilon for r in reports])
    log_err = np.log([max(r.abs_error, 1e-300) for r in reports])
    # least squares in closed form: np.polyfit's LAPACK costs ~1 MB of RSS
    dx = log_inv_eps - log_inv_eps.mean()
    slope = float(np.sum(dx * (log_err - log_err.mean())) / np.sum(dx * dx))
    residual = None
    if cancels:
        peak_scale = math.pi * float(np.sum(np.abs(_peak_terms(peaks, 1))))
        residual = max(abs(r.numeric_integral) * math.sqrt(r.epsilon)
                       for r in reports) / peak_scale
    return ScalingResult(reports=tuple(reports), error_slope=slope,
                         prediction_cancels=cancels,
                         cancellation_residual=residual)


def gcd_reduction_check(poly: TrigPolynomial, epsilon: float) -> tuple[complex, complex]:
    """(bin-1 integral, bin-G integral) for a polynomial with frequency gcd G > 1."""
    g = poly.frequency_gcd()
    if g <= 1:
        raise ValueError("frequency gcd must exceed 1 for the reduction check")
    peaks = find_global_maxima(poly)
    return (_fundamental_integral(poly, peaks, epsilon, 1),
            _fundamental_integral(poly, peaks, epsilon, g))


def _clipped_supports(M: FrequencySet, range_limit: int):
    """Masks over 0..range_limit of sumset_support(M, k, range_limit), k >= 1.

    kM - kM, the k-fold sumset of D = M - M, is clipped to |d| <= range_limit
    + max(M) at every fold, which loses nothing in range.  A fold ORs shifts
    of the symmetric set by every element of D: one integer convolution."""
    if range_limit < M.max_element:
        raise ValueError("range_limit must be at least max(M)")
    clip = range_limit + M.max_element
    width = M.max_element - M.elements[0]
    kernel = np.zeros(2 * width + 1, dtype=np.int64)
    kernel[[a - b + width for a in M.elements for b in M.elements]] = 1
    current = np.arange(-clip, clip + 1) == 0  # the 0-fold sumset {0}
    while True:
        current = np.convolve(current, kernel, mode="same") > 0
        yield current[clip:clip + range_limit + 1]


def sumset_support(M: FrequencySet, k: int, range_limit: int) -> set[int]:
    """Support {|s - t| : s, t in the k-fold sumset of M}, clipped to range."""
    if k < 1:
        raise ValueError("k must be >= 1")
    mask = next(itertools.islice(_clipped_supports(M, range_limit), k - 1, None))
    return set(np.flatnonzero(mask).tolist())


def sumset_gcd_limit(M: FrequencySet, k_max: int,
                     range_limit: int) -> tuple[int, int | None]:
    """(gcd(M), smallest k whose clipped support equals gcd(M)*Z and stays so)."""
    g = M.gcd()
    target = np.arange(range_limit + 1) % g == 0
    folds = itertools.islice(_clipped_supports(M, range_limit), k_max + 1)
    matches = (np.array_equal(mask, target) for mask in folds)
    for k, (match, next_match) in enumerate(itertools.pairwise(matches), 1):
        if match and next_match:
            return g, k
    return g, None


def write_reports_jsonl(result: ScalingResult, fh) -> None:
    """One JSON line per report plus a trailing summary record."""
    for r in result.reports:
        fh.write(json.dumps({
            "epsilon": r.epsilon,
            "numeric_integral": [r.numeric_integral.real, r.numeric_integral.imag],
            "prediction": [r.prediction.real, r.prediction.imag],
            "abs_error": r.abs_error,
            "rel_error": r.rel_error,
        }, sort_keys=True, allow_nan=False) + "\n")
    fh.write(json.dumps({
        "summary": True,
        "error_slope": result.error_slope,
        "prediction_cancels": result.prediction_cancels,
        "passed": result.passed,
    }, sort_keys=True, allow_nan=False) + "\n")
