import gc
import math
import sys
import weakref

import numpy as np
import pytest
from scipy.integrate import quad

from fundcomp import theory
from fundcomp.errors import ConstantModulus, QuadratureNonConvergence
from fundcomp.signal_model import (
    TWO_PI,
    Peak,
    PeakSet,
    TrigPolynomial,
    find_global_maxima,
)
from fundcomp.theory import (
    FrequencySet,
    adaptive_quadrature,
    asymptotic_prediction,
    cauchy_tail_integral,
    gcd_reduction_check,
    numeric_fundamental_integral,
    scaling_verification,
    sumset_gcd_limit,
    sumset_support,
)
from theory_oracles import (
    fundamental_integral_fresh,
    heap_quadrature,
    live_error_estimate,
    peak_aware_edges_set,
    sumset_support_bruteforce,
)

TWO_EXP = TrigPolynomial(((1, 1 + 0j), (2, 1 + 0j)))  # peak at 0, g''=-1/2, sup 2
GCD3 = TrigPolynomial(((6, 0.8 + 0j), (9, 1.4 + 0j), (33, 0.9 + 0j)))
EIGHT_TERMS = TrigPolynomial(((3, 0.4 - 0.2j), (7, 0.1 + 0.5j), (11, 0.7j),
                              (17, -0.5 + 0j), (23, 0.2 - 0.6j), (29, 0.3 + 0.3j),
                              (34, -0.25j), (40, 0.9 + 0j)))
COS = TrigPolynomial(((1, 1.0),), real_cosine_form=True)  # antipodal peaks
LADDER = [1e-2, 1e-3, 1e-4, 1e-5]


class TestCauchyTailIntegral:
    def test_c_zero_recovers_pi(self):
        assert cauchy_tail_integral(1.0, 1.0, 0.0) == pytest.approx(math.pi, abs=1e-15)

    def test_arctan_one(self):
        assert cauchy_tail_integral(1.0, 1.0, 1.0) == pytest.approx(math.pi / 2)

    def test_against_quadrature(self):
        A, B, C = 0.01, 4.0, 0.1
        oracle = 2 * quad(lambda t: 1.0 / (A + B * t ** 2), C, np.inf)[0]
        assert cauchy_tail_integral(A, B, C) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_triples_vs_quadrature(self, seed):
        rng = np.random.default_rng(seed)
        A, B = 10.0 ** rng.uniform(-3, 3, size=2)
        C = float(rng.uniform(0, 10))
        oracle = 2 * quad(lambda t: 1.0 / (A + B * t ** 2), C, np.inf)[0]
        assert cauchy_tail_integral(A, B, C) == pytest.approx(oracle, rel=1e-8)

    def test_monotone_decreasing_in_c(self):
        vals = [cauchy_tail_integral(2.0, 3.0, c) for c in np.linspace(0, 5, 20)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            cauchy_tail_integral(0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            cauchy_tail_integral(1.0, 1.0, -1.0)


class TestNumericIntegral:
    def test_two_exponentials_near_prediction(self):
        val = numeric_fundamental_integral(TWO_EXP, 1e-4)
        expected = math.pi * math.sqrt(8.0) / math.sqrt(1e-4)
        assert abs(val) == pytest.approx(expected, rel=0.05)

    def test_epsilon_one_smoke(self):
        assert abs(numeric_fundamental_integral(TWO_EXP, 1.0)) < 1e-9

    def test_cancellation_stays_subleading(self):
        poly = TrigPolynomial(((1, 1.0),), real_cosine_form=True)
        scaled = [abs(numeric_fundamental_integral(poly, e)) * math.sqrt(e)
                  for e in (1e-2, 1e-4, 1e-6)]
        assert max(scaled) < 1e-6

    def test_magnitude_grows_as_epsilon_shrinks(self):
        mags = [abs(numeric_fundamental_integral(TWO_EXP, e))
                for e in (1e-3, 1e-4, 1e-5)]
        assert mags[0] < mags[1] < mags[2]

    def test_epsilon_out_of_range(self):
        with pytest.raises(ValueError):
            numeric_fundamental_integral(TWO_EXP, 1.5)


class TestAdaptiveQuadrature:
    A = 1.0 + 1e-4  # 1/(A - cos t) peaks at t = 0 with width about 0.014

    def integrand(self, calls):
        def fun(t):
            calls.append(t)
            return 1.0 / (self.A - np.cos(t))
        return fun

    def test_sharp_periodic_peak_closed_form(self):
        calls = []
        exact = 2 * math.pi / math.sqrt(self.A ** 2 - 1)
        got = adaptive_quadrature(self.integrand(calls),
                                  np.linspace(0, 2 * math.pi, 9), 1e-8)
        assert abs(got - exact) <= 1e-8
        # one call for the 8 initial panels, then one per generation
        assert calls[0].shape == (8, 15)
        assert len(calls) >= 5

    def test_stops_at_first_generation_within_tolerance(self):
        calls = []
        tol = 1e-8
        adaptive_quadrature(self.integrand(calls),
                            np.linspace(0, 2 * math.pi, 9), tol)
        # each generation here has fewer than 64 panels: one call each
        fun = self.integrand([])
        assert live_error_estimate(fun, calls) <= tol
        assert live_error_estimate(fun, calls[:-1]) > tol

    def test_split_budget_exhausted(self, monkeypatch):
        monkeypatch.setattr(theory, "MAX_PANEL_SPLITS", 4)
        with pytest.raises(QuadratureNonConvergence, match="after 4 splits"):
            adaptive_quadrature(self.integrand([]),
                                np.linspace(0, 2 * math.pi, 9), 1e-8)

    @pytest.mark.parametrize("poly", [
        TWO_EXP,
        TrigPolynomial(((3, 0.4 - 0.2j), (11, 0.7j), (17, -0.5 + 0j),
                        (29, 0.3 + 0.3j), (40, 0.9 + 0j))),
    ])
    def test_within_tolerance_of_heap_reference(self, poly, monkeypatch):
        eps = 1e-5
        got = numeric_fundamental_integral(poly, eps)
        monkeypatch.setattr(theory, "adaptive_quadrature", heap_quadrature)
        ref = numeric_fundamental_integral(poly, eps)
        assert abs(got - ref) <= 1e-6 * eps ** -0.5


class TestPeakAwareEdges:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_set_oracle(self, seed):
        rng = np.random.default_rng(seed)
        period = float(rng.choice([TWO_PI, 1.0, 0.37, 50.0]))
        epsilon = 10.0 ** rng.uniform(-12, -1)
        max_frequency = int(rng.integers(1, 300))
        n_uniform = max(64, 4 * max_frequency)
        locs = set(rng.uniform(0.0, period, int(rng.integers(1, 6))).tolist())
        # one peak on a uniform edge, whose offset 0 repeats that edge
        locs.add(period * int(rng.integers(n_uniform)) / n_uniform)
        peaks = PeakSet(tuple(Peak(t, 1.0, -1.0) for t in sorted(locs)),
                        sup_norm=1.0, period=period)
        got = theory._peak_aware_edges(peaks, epsilon, period, max_frequency)
        want = peak_aware_edges_set(peaks, epsilon, period, max_frequency)
        assert np.array_equal(got, want)

    def test_peaks_at_zero_and_near_the_period_end(self):
        period = TWO_PI
        peaks = PeakSet((Peak(0.0, 1.0, -1.0), Peak(period - 1e-9, 1.0, -1.0)),
                        sup_norm=1.0, period=period)
        for eps in (1e-2, 1e-7):
            assert np.array_equal(theory._peak_aware_edges(peaks, eps, period, 16),
                                  peak_aware_edges_set(peaks, eps, period, 16))


def same_bits(a: complex, b: complex) -> bool:
    return (a.real.hex(), a.imag.hex()) == (b.real.hex(), b.imag.hex())


class TestLadderMemo:
    """scaling_verification evaluates |f| once per distinct panel row."""

    @staticmethod
    def record_rows(monkeypatch):
        rows = []

        def recording(poly, t):
            rows.extend(r.tobytes() for r in np.reshape(t, (-1, 15)))
            return evaluate(poly, t)

        evaluate = theory.evaluate
        monkeypatch.setattr(theory, "evaluate", recording)
        return rows

    @pytest.mark.parametrize("poly", [TWO_EXP, EIGHT_TERMS, COS])
    def test_reports_bit_identical_to_each_rung(self, poly):
        res = scaling_verification(poly, LADDER)
        for r in res.reports:
            alone = numeric_fundamental_integral(poly, r.epsilon)
            assert same_bits(r.numeric_integral, alone)

    @pytest.mark.parametrize("target_bin", [1, 2, 3])
    @pytest.mark.parametrize("eps", [1e-2, 1e-5])
    def test_each_bin_bit_identical_to_fresh_evaluation(self, target_bin, eps):
        assert same_bits(numeric_fundamental_integral(GCD3, eps, target_bin),
                         fundamental_integral_fresh(GCD3, eps, target_bin))

    @pytest.mark.parametrize("poly", [TWO_EXP, EIGHT_TERMS, COS])
    def test_no_row_evaluated_twice(self, poly, monkeypatch):
        rows = self.record_rows(monkeypatch)
        for e in LADDER:
            numeric_fundamental_integral(poly, e)
        assert len(set(rows)) < len(rows)  # rung by rung, rows repeat
        rows.clear()
        scaling_verification(poly, LADDER)
        assert rows and len(set(rows)) == len(rows)

    def test_memo_gone_after_the_call(self, monkeypatch):
        memos = []

        class Recorded(theory._Integrals):
            def __init__(self, *args):
                super().__init__(*args)
                memos.append(weakref.ref(self))

        monkeypatch.setattr(theory, "_Integrals", Recorded)
        rows = self.record_rows(monkeypatch)
        before = dict(vars(theory))
        scaling_verification(EIGHT_TERMS, LADDER)
        first = list(rows)
        gc.collect()
        assert len(memos) == 1 and memos[0]() is None
        assert vars(theory) == before
        # a second call keeps nothing from the first: it evaluates the same rows
        rows.clear()
        scaling_verification(EIGHT_TERMS, LADDER)
        assert rows == first


class TestPrediction:
    def test_plugin_single_peak(self):
        from fundcomp.signal_model import Peak, PeakSet
        ps = PeakSet((Peak(0.0, 1.0, -2.0),), sup_norm=1.0)
        assert asymptotic_prediction(ps, 0.01) == pytest.approx(10 * math.pi)

    def test_antipodal_peaks_cancel(self):
        poly = TrigPolynomial(((1, 1.0),), real_cosine_form=True)
        peaks = find_global_maxima(poly)
        assert abs(asymptotic_prediction(peaks, 1e-3)) < 1e-10

    def test_two_exponential_constants(self):
        peaks = find_global_maxima(TWO_EXP)
        val = asymptotic_prediction(peaks, 1e-4)
        assert val == pytest.approx(math.pi * math.sqrt(8) * 100, rel=1e-9)

    def test_exact_half_root_scaling(self):
        peaks = find_global_maxima(TWO_EXP)
        for eps in (1e-2, 1e-3, 1e-4):
            ratio = asymptotic_prediction(peaks, eps) / asymptotic_prediction(peaks, 4 * eps)
            assert ratio == pytest.approx(2.0, rel=1e-14)


class TestScalingVerification:
    def test_two_exponential_ladder(self):
        res = scaling_verification(TWO_EXP, [1e-2, 1e-3, 1e-4, 1e-5])
        rel = [r.rel_error for r in res.reports]
        assert all(a >= b for a, b in zip(rel, rel[1:]))
        assert res.error_slope <= 0.3
        assert not res.prediction_cancels
        assert res.passed
        # bounded remainder constant: rel_error / eps^{1/4} stays modest
        for r in res.reports:
            assert r.rel_error / r.epsilon ** 0.25 <= 10.0

    def test_cancellation_case(self):
        poly = TrigPolynomial(((1, 1.0),), real_cosine_form=True)
        res = scaling_verification(poly, [1e-2, 1e-3, 1e-4])
        assert res.prediction_cancels
        assert res.cancellation_residual < 1e-6
        assert res.passed

    def test_report_invariants(self):
        res = scaling_verification(TWO_EXP, [1e-2, 1e-3])
        for r in res.reports:
            assert r.abs_error == abs(r.numeric_integral - r.prediction)
            assert r.rel_error == r.abs_error / abs(r.prediction)

    def test_ladder_validation(self):
        for bad in ([1e-3, 1e-2], [0.5, 0.1], [0.1], [0.1, 0.1], [0.1, math.nan]):
            with pytest.raises(ValueError):
                scaling_verification(TWO_EXP, bad)
        # the smallest normal float is the ladder's lower end, inclusive
        low = sys.float_info.min
        assert theory.epsilon_ladder(["0.1", low]) == [0.1, low]

    def test_peaks_found_once_per_input(self, monkeypatch):
        calls = []

        def counting(poly):
            calls.append(poly)
            return find_global_maxima(poly)

        monkeypatch.setattr(theory, "find_global_maxima", counting)
        scaling_verification(TWO_EXP, [1e-2, 1e-3, 1e-4, 1e-5])
        assert len(calls) == 1
        gcd_reduction_check(TrigPolynomial(((2, 1 + 0j), (4, 1 + 0j))), 1e-3)
        assert len(calls) == 2

    def test_rotation_covariance(self):
        # f(t - tau): bin-1 integral and prediction both pick up e^{i tau}
        tau = 0.7
        eps = 1e-4
        base = TrigPolynomial(((1, 1 + 0j), (2, 0.5 + 0.3j)))
        shifted = TrigPolynomial(tuple(
            (m, a * np.exp(-1j * m * tau)) for m, a in base.terms))
        i0 = numeric_fundamental_integral(base, eps)
        i1 = numeric_fundamental_integral(shifted, eps)
        assert i1 == pytest.approx(i0 * np.exp(1j * tau), rel=1e-4)
        p0 = asymptotic_prediction(find_global_maxima(base), eps)
        p1 = asymptotic_prediction(find_global_maxima(shifted), eps)
        assert p1 == pytest.approx(p0 * np.exp(1j * tau), rel=1e-6)


class TestGcdReduction:
    def test_g2_pair(self):
        poly = TrigPolynomial(((2, 1 + 0j), (4, 1 + 0j)))
        b1, b2 = gcd_reduction_check(poly, 1e-4)
        assert abs(b2) / max(abs(b1), 1e-300) > 10

    def test_gcd3_frequencies_activate_bin_3(self):
        b1, b3 = gcd_reduction_check(GCD3, 1e-4)
        assert abs(b3) / max(abs(b1), 1e-300) > 10

    def test_each_bin_bit_identical_to_fresh_evaluation(self):
        b1, b3 = gcd_reduction_check(GCD3, 1e-4)
        assert same_bits(b1, fundamental_integral_fresh(GCD3, 1e-4, 1))
        assert same_bits(b3, fundamental_integral_fresh(GCD3, 1e-4, 3))

    def test_each_row_evaluated_once(self, monkeypatch):
        # both bins share one table of |f|: its rows are evaluated once
        rows = TestLadderMemo.record_rows(monkeypatch)
        gcd_reduction_check(GCD3, 1e-4)
        assert len(rows) == len(set(rows)) == 181

    def test_gcd_one_rejected(self):
        with pytest.raises(ValueError):
            gcd_reduction_check(TWO_EXP, 1e-4)


class TestEpsilonFloor:
    """Below the smallest normal float 1/eps overflows: every entry point
    raises instead of returning NaN."""

    @pytest.mark.parametrize("eps", [1e-310, 5e-324])
    def test_subnormal_epsilon_rejected(self, eps):
        with pytest.raises(ValueError):
            scaling_verification(TWO_EXP, [1e-2, eps])
        with pytest.raises(ValueError):
            numeric_fundamental_integral(TWO_EXP, eps)
        with pytest.raises(ValueError):
            gcd_reduction_check(GCD3, eps)


class TestSumsets:
    def test_pair_k1(self):
        # k=1: differences within M itself
        assert sumset_support(FrequencySet((2, 3)), 1, 10) == {0, 1}

    def test_pair_k2(self):
        # 2-fold sums of {2,3} are {4,5,6}; differences are {0,1,2}
        assert sumset_support(FrequencySet((2, 3)), 2, 10) == {0, 1, 2}

    def test_pair_stabilizes_to_full_range(self):
        support = sumset_support(FrequencySet((2, 3)), 20, 20)
        assert support == set(range(21))

    def test_gcd3_multiples_of_three(self):
        M = FrequencySet((6, 9, 33))
        for k in (1, 3, 8, 20):
            support = sumset_support(M, k, 60)
            assert all(v % 3 == 0 for v in support)
        assert sumset_support(M, 20, 60) == set(range(0, 61, 3))

    @pytest.mark.parametrize("elements,k", [
        ((2, 3), 4), ((5, 7, 11), 3), ((4, 6), 6), ((3, 5, 8, 9), 3),
        ((1, 2, 8), 3),
    ])
    def test_matches_bruteforce(self, elements, k):
        M = FrequencySet(elements)
        limit = 4 * M.max_element
        assert sumset_support(M, k, limit) == sumset_support_bruteforce(M, k, limit)

    def test_subset_of_gcd_lattice(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            base = sorted(rng.choice(np.arange(1, 13), 3, replace=False))
            g = int(rng.choice([1, 2, 3, 5]))
            M = FrequencySet(tuple(g * int(b) for b in base))
            limit = 10 * M.max_element
            for k in (1, 2, 5):
                assert all(v % M.gcd() == 0 for v in sumset_support(M, k, limit))

    def test_gcd_limit_pair(self):
        g, k = sumset_gcd_limit(FrequencySet((2, 3)), 50, 20)
        assert g == 1
        assert k == 20  # kM - kM = [-k, k] for M = {2, 3}
        assert sumset_support(FrequencySet((2, 3)), k, 20) == set(range(21))

    def test_singleton_never_stabilizes(self):
        g, k = sumset_gcd_limit(FrequencySet((4,)), 50, 40)
        assert g == 4
        assert k is None
        assert sumset_support(FrequencySet((4,)), 7, 40) == {0}

    def test_gcd3_gcd(self):
        g, k = sumset_gcd_limit(FrequencySet((6, 9, 33)), 50, 330)
        assert g == 3
        assert k is not None


class TestFrequencySet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FrequencySet(())

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            FrequencySet((0, 3))

    def test_sorted_dedup(self):
        assert FrequencySet((5, 2, 5)).elements == (2, 5)
