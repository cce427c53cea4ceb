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

import heapq
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

# Gauss 7 / Kronrod 15 nodes on [-1, 1] and their weights.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_WEIGHTS_K = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_GK_WEIGHTS_G = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0, 0.381830050505119,
    0.0, 0.279705391489277, 0.0, 0.129484966168870, 0.0,
])

MAX_PANEL_SPLITS = 20000


@dataclass(frozen=True)
class AsymptoticReport:
    epsilon: float
    numeric_integral: complex
    prediction: complex
    abs_error: float
    rel_error: float | None

    def __post_init__(self):
        expected = abs(self.numeric_integral - self.prediction)
        if not math.isclose(self.abs_error, expected, rel_tol=1e-12, abs_tol=1e-300):
            raise ValueError("abs_error inconsistent with its fields")
        if self.prediction != 0:
            expected_rel = self.abs_error / abs(self.prediction)
            if self.rel_error is None or not math.isclose(
                    self.rel_error, expected_rel, rel_tol=1e-12, abs_tol=1e-300):
                raise ValueError("rel_error inconsistent with its fields")


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


def _gk_panel(fun, a: float, b: float) -> tuple[complex, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = fun(mid + half * _GK_NODES)
    ik = half * np.sum(_GK_WEIGHTS_K * vals)
    ig = half * np.sum(_GK_WEIGHTS_G * vals)
    return complex(ik), abs(ik - ig)


def adaptive_quadrature(fun, edges, abs_tol: float,
                        max_splits: int = MAX_PANEL_SPLITS) -> complex:
    """Adaptive Gauss-Kronrod integration over the panels defined by `edges`.

    `fun` must accept an ndarray of abscissae and return complex values.
    Raises QuadratureNonConvergence if the refinement budget is exhausted.
    """
    heap = []
    total = 0.0 + 0.0j
    total_err = 0.0
    for a, b in zip(edges, edges[1:]):
        if b <= a:
            continue
        val, err = _gk_panel(fun, a, b)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, a, b, val))
    splits = 0
    while total_err > abs_tol and heap:
        neg_err, a, b, val = heapq.heappop(heap)
        splits += 1
        if splits > max_splits:
            raise QuadratureNonConvergence(
                f"error {total_err:.3e} > tol {abs_tol:.3e} after {max_splits} splits")
        mid = 0.5 * (a + b)
        v1, e1 = _gk_panel(fun, a, mid)
        v2, e2 = _gk_panel(fun, mid, b)
        total += v1 + v2 - val
        total_err += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, a, mid, v1))
        heapq.heappush(heap, (-e2, mid, b, v2))
    return total


def _peak_aware_edges(peaks: PeakSet, epsilon: float, period: float,
                      poly_max_frequency_hint: int = 16) -> np.ndarray:
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
    n_uniform = max(64, 4 * poly_max_frequency_hint)
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

    base = _peak_aware_edges(peaks, epsilon, period,
                             poly_max_frequency_hint=poly.max_frequency)
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
        abs_err = abs(numeric - pred)
        rel_err = abs_err / abs(pred) if pred != 0 else None
        reports.append(AsymptoticReport(
            epsilon=e, numeric_integral=numeric, prediction=pred,
            abs_error=abs_err, rel_error=rel_err))

    log_inv_eps = np.log([1.0 / r.epsilon for r in reports])
    log_err = np.log([max(r.abs_error, 1e-300) for r in reports])
    slope = float(np.polyfit(log_inv_eps, log_err, 1)[0])
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


def sumset_support(M: FrequencySet, k: int, range_limit: int) -> set[int]:
    """Support {|s - t| : s, t in the k-fold sumset of M}, clipped to range.

    Computed on the difference representation: kM - kM equals the k-fold
    sumset of M - M, which can be clipped to |d| <= range_limit + max(M) at
    every fold without losing any element of the final range.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if range_limit < M.max_element:
        raise ValueError("range_limit must be at least max(M)")
    clip = range_limit + M.max_element
    diffs = {a - b for a in M.elements for b in M.elements}
    current = {d for d in diffs if abs(d) <= clip}
    for _ in range(k - 1):
        current = {d + e for d in current for e in diffs if abs(d + e) <= clip}
    return {abs(d) for d in current if abs(d) <= range_limit}


def sumset_support_bruteforce(M: FrequencySet, k: int, range_limit: int) -> set[int]:
    """Exhaustive oracle: enumerate every k-tuple sum.  Small inputs only."""
    sums = {sum(tup) for tup in itertools.product(M.elements, repeat=k)}
    return {abs(s - t) for s in sums for t in sums if abs(s - t) <= range_limit}


def sumset_gcd_limit(M: FrequencySet, k_max: int,
                     range_limit: int) -> tuple[int, int | None]:
    """(gcd(M), smallest k whose clipped support equals gcd(M)*Z and stays so)."""
    g = M.gcd()
    target = set(range(0, range_limit + 1, g))
    stabilization = None
    prev_match = False
    for k in range(1, k_max + 2):
        match = sumset_support(M, k, range_limit) == target
        if prev_match and match and k - 1 <= k_max:
            stabilization = k - 1
            break
        prev_match = match
    return g, stabilization


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
