"""Reference implementations that the theory tests compare against."""

import heapq
import itertools
import math

import numpy as np

from fundcomp.errors import QuadratureNonConvergence
from fundcomp import theory
from fundcomp.signal_model import TWO_PI, evaluate, find_global_maxima
from fundcomp.theory import MAX_PANEL_SPLITS, FrequencySet

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


def _gk_panel(fun, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = fun(mid + half * _GK_NODES)
    ik = half * np.sum(_GK_WEIGHTS_K * vals)
    ig = half * np.sum(_GK_WEIGHTS_G * vals)
    return complex(ik), abs(ik - ig)


def heap_quadrature(fun, edges, abs_tol, max_splits=MAX_PANEL_SPLITS):
    """Adaptive Gauss-Kronrod 7/15 that splits one panel at a time.

    Always the panel with the largest error estimate, kept on a heap, until
    the running total of the estimates is at most abs_tol.
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


def live_error_estimate(fun, node_rows) -> float:
    """Total |Kronrod - Gauss| estimate over the unsplit panels among those
    whose 15 Gauss-Kronrod nodes are the rows of `node_rows`.

    A panel counts as split when another row's panel is its left half.
    """
    t = np.concatenate(node_rows)
    mid = t[:, 7]
    half = (t[:, -1] - t[:, 0]) / (2.0 * _GK_NODES[-1])
    est = half * np.abs(fun(t) @ (_GK_WEIGHTS_K - _GK_WEIGHTS_G))
    left_half = (np.isclose(mid[:, None] - 0.5 * half[:, None], mid,
                            rtol=0.0, atol=1e-12)
                 & np.isclose(0.5 * half[:, None], half, rtol=0.0, atol=1e-12))
    return float(est[~left_half.any(axis=1)].sum())


def peak_aware_edges_set(peaks, epsilon, period, max_frequency):
    """theory._peak_aware_edges built one edge at a time in a Python set."""
    rel = period / TWO_PI
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


def fundamental_integral_fresh(poly, epsilon, target_bin):
    """theory.numeric_fundamental_integral with |f| and the phase evaluated
    afresh on every call of the integrand, no memo."""
    peaks = find_global_maxima(poly)
    omega = TWO_PI / poly.period

    def integrand(t):
        mod = np.minimum(np.abs(evaluate(poly, t)) / peaks.sup_norm, 1.0)
        return theory._h_eps_kernel(mod, epsilon) * np.exp(1j * omega * target_bin * t)

    base = theory._peak_aware_edges(peaks, epsilon, poly.period, poly.max_frequency)
    edges = np.concatenate([base, [base[0] + poly.period]])
    return theory.adaptive_quadrature(integrand, edges, 1e-6 * epsilon ** -0.5)


def sumset_support_bruteforce(M: FrequencySet, k: int, range_limit: int) -> set[int]:
    """Exhaustive oracle: enumerate every k-tuple sum.  Small inputs only."""
    sums = {sum(tup) for tup in itertools.product(M.elements, repeat=k)}
    return {abs(s - t) for s in sums for t in sums if abs(s - t) <= range_limit}
