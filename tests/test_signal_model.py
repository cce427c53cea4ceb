import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundcomp import signal_model
from fundcomp.errors import ConstantModulus, NyquistViolation
from fundcomp.signal_model import (
    TWO_PI,
    TrigPolynomial,
    evaluate,
    find_global_maxima,
    sample,
)


def gcd3_poly():
    # 0.8 cos(2pi 6t) + 1.4 cos(2pi 9t) + 0.9 cos(2pi 33t), period 1
    return TrigPolynomial(((6, 0.8), (9, 1.4), (33, 0.9)),
                          period=1.0, real_cosine_form=True)


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TrigPolynomial(())

    def test_rejects_zero_frequency(self):
        with pytest.raises(ValueError):
            TrigPolynomial(((0, 1.0),))

    def test_zero_amplitudes_normalized_away(self):
        p = TrigPolynomial(((1, 1.0), (2, 0.0)))
        assert [m for m, _ in p.terms] == [1]

    def test_duplicate_frequencies_merged(self):
        p = TrigPolynomial(((3, 1.0), (3, 2.0)))
        assert p.terms == ((3, 3 + 0j),)

    def test_all_zero_after_merge_rejected(self):
        with pytest.raises(ValueError):
            TrigPolynomial(((3, 1.0), (3, -1.0)))


class TestEvaluate:
    def test_unit_exponential_at_origin(self):
        p = TrigPolynomial(((1, 1 + 0j),))
        assert evaluate(p, 0.0) == 1 + 0j

    def test_gcd3_at_zero_sums_amplitudes(self):
        assert evaluate(gcd3_poly(), 0.0) == pytest.approx(3.1, abs=1e-12)

    def test_exact_cancellation_at_pi(self):
        p = TrigPolynomial(((1, 1 + 0j), (2, 1 + 0j)))
        assert abs(evaluate(p, math.pi)) < 1e-12

    @given(st.floats(-50, 50), st.integers(0, 2 ** 32))
    @settings(max_examples=50, deadline=None)
    def test_periodicity(self, t, seed):
        rng = np.random.default_rng(seed)
        terms = tuple((int(m), complex(*rng.normal(size=2)))
                      for m in rng.choice(np.arange(1, 20), 4, replace=False))
        p = TrigPolynomial(terms)
        assert abs(evaluate(p, t) - evaluate(p, t + p.period)) < 1e-12

    @pytest.mark.parametrize("real_cosine_form", [False, True])
    def test_2d_abscissae_match_row_by_row(self, real_cosine_form):
        rng = np.random.default_rng(4)
        terms = tuple((int(m), complex(*rng.normal(size=2)))
                      for m in rng.choice(np.arange(1, 60), 9, replace=False))
        p = TrigPolynomial(terms, period=3.0, real_cosine_form=real_cosine_form)
        t = rng.uniform(0.0, 3.0, size=(5, 15))
        vals = evaluate(p, t)
        assert vals.shape == t.shape
        for row, t_row in zip(vals, t):
            np.testing.assert_allclose(row, evaluate(p, t_row), rtol=1e-15)
            np.testing.assert_allclose(
                row, [evaluate(p, float(x)) for x in t_row], rtol=1e-15)


class TestSample:
    def test_unit_cosine_512(self):
        p = TrigPolynomial(((1, 1.0),), period=1.0, real_cosine_form=True)
        s = sample(p, 512, 1.0)
        assert len(s) == 512
        assert s.samples[0] == pytest.approx(1.0)

    def test_quarter_period_grid(self):
        p = TrigPolynomial(((1, 1.0),), period=1.0, real_cosine_form=True)
        s = sample(p, 4, 1.0)
        assert np.allclose(s.samples, [1, 0, -1, 0], atol=1e-12)

    def test_gcd3_dft_support(self):
        s = sample(gcd3_poly(), 512, 1.0)
        # direct DFT of the closed-form samples
        n = len(s)
        x = s.samples
        mags = np.abs(np.fft.rfft(x)) / n
        hot = {k for k in range(1, n // 2 + 1) if mags[k] > 1e-9}
        assert hot == {6, 9, 33}

    def test_nyquist_violation(self):
        with pytest.raises(NyquistViolation):
            sample(gcd3_poly(), 60, 1.0)


class TestSupNorm:
    def test_aligned_pair(self):
        p = TrigPolynomial(((1, 1 + 0j), (2, 1 + 0j)))
        assert find_global_maxima(p).sup_norm == pytest.approx(2.0)

    def test_gcd3_against_fine_grid(self):
        p = gcd3_poly()
        best = 0.0
        for chunk in range(10):
            t = (np.arange(10 ** 6) + chunk * 10 ** 6) / 10 ** 7
            best = max(best, float(np.max(np.abs(evaluate(p, t)))))
        assert find_global_maxima(p).sup_norm == pytest.approx(best, abs=1e-8)

    @given(st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                              allow_infinity=False, allow_nan=False),
           st.integers(0, 2 ** 32))
    @settings(max_examples=25, deadline=None)
    def test_amplitude_homogeneity(self, c, seed):
        rng = np.random.default_rng(seed)
        terms = tuple((int(m), complex(*rng.normal(size=2)))
                      for m in rng.choice(np.arange(1, 12), 3, replace=False))
        p = TrigPolynomial(terms)
        scaled = TrigPolynomial(tuple((m, c * a) for m, a in terms))
        assert find_global_maxima(scaled).sup_norm == pytest.approx(
            abs(c) * find_global_maxima(p).sup_norm, rel=1e-9)


class TestFindGlobalMaxima:
    def test_two_exponentials(self):
        # g(t) = 2|cos(t/2)|: one global peak at 0 with g'' = -1/2
        p = TrigPolynomial(((1, 1 + 0j), (2, 1 + 0j)))
        ps = find_global_maxima(p)
        assert len(ps.peaks) == 1
        pk = ps.peaks[0]
        assert pk.location == pytest.approx(0.0, abs=1e-9)
        assert pk.value == pytest.approx(2.0, rel=1e-12)
        assert pk.second_derivative == pytest.approx(-0.5, rel=1e-9)

    def test_abs_cosine_two_peaks(self):
        p = TrigPolynomial(((1, 1.0),), real_cosine_form=True)
        ps = find_global_maxima(p)
        locs = sorted(pk.location for pk in ps.peaks)
        assert locs == pytest.approx([0.0, math.pi], abs=1e-9)
        for pk in ps.peaks:
            assert pk.value == pytest.approx(1.0)
            assert pk.second_derivative == pytest.approx(-1.0, rel=1e-9)

    def test_constant_modulus_rejected(self):
        with pytest.raises(ConstantModulus):
            find_global_maxima(TrigPolynomial(((3, 2 + 0j),)))

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_random_poly_against_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        freqs = np.sort(rng.choice(np.arange(1, 15), 5, replace=False))
        terms = tuple((int(m), complex(*rng.normal(size=2))) for m in freqs)
        p = TrigPolynomial(terms)
        ps = find_global_maxima(p)
        h = 1e-5
        for pk in ps.peaks:
            g = lambda t: abs(evaluate(p, t))
            d2 = (g(pk.location + h) - 2 * g(pk.location) + g(pk.location - h)) / h ** 2
            assert d2 < 0
            assert pk.second_derivative == pytest.approx(d2, rel=1e-4)
            assert abs(pk.value - ps.sup_norm) <= 1e-9 * ps.sup_norm


def _exp_coefficients(poly):
    """{signed frequency: coefficient} with f(t) = sum_m c_m exp(i m w t)."""
    c = {}
    for m, a in poly.terms:
        if poly.real_cosine_form:
            c[m] = c.get(m, 0) + a / 2
            c[-m] = c.get(-m, 0) + np.conj(a) / 2
        else:
            c[m] = a
    return c


def _roots_oracle(poly):
    """Global maxima of |f| as (locations, g'') from the unit-circle roots of
    z^D p'(z), with p'(z) = sum_d i d w p_d z^d the Laurent polynomial of
    (|f|^2)' on z = exp(i w t) and D its largest |d| (companion-matrix
    rootfinding, np.roots)."""
    w = TWO_PI / poly.period
    c = _exp_coefficients(poly)
    pd = {}
    for m, a in c.items():
        for k, b in c.items():
            pd[m - k] = pd.get(m - k, 0) + a * np.conj(b)
    big = max(abs(d) for d, v in pd.items() if v != 0)
    laurent = np.zeros(2 * big + 1, dtype=complex)  # highest power first
    for d, v in pd.items():
        laurent[big - d] += 1j * d * w * v
    z = np.roots(laurent)
    t = np.sort(np.angle(z[np.abs(np.abs(z) - 1.0) < 1e-6]) / w % poly.period)
    ms = np.array(list(c))
    amps = np.array([c[m] for m in ms])
    g = np.abs(np.exp(1j * w * np.multiply.outer(t, ms)) @ amps)
    t = t[g >= g.max() * (1 - 1e-9)]
    ph = np.exp(1j * w * np.multiply.outer(t, ms))
    f, f1, f2 = ph @ amps, ph @ (1j * w * ms * amps), ph @ (-(w * ms) ** 2 * amps)
    # g'' = p''/(2g) where p' = 0, with p'' = 2 Re(f'' conj f) + 2|f'|^2
    return t, (np.real(f2 * np.conj(f)) + np.abs(f1) ** 2) / np.abs(f)


class TestRootsOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_companion_matrix_roots(self, seed):
        rng = np.random.default_rng(seed)
        scale = (1, 1, 2, 3)[seed % 4]  # gcd 2 or 3 gives 2 or 3 global maxima
        m_max = 12 // scale
        k = int(rng.integers(2, min(5, m_max) + 1))
        freqs = scale * rng.choice(np.arange(1, m_max + 1), k, replace=False)
        poly = TrigPolynomial(
            tuple((int(m), complex(*rng.normal(size=2))) for m in freqs),
            period=TWO_PI if seed % 3 else 1.0, real_cosine_form=bool(seed % 2))
        locs, g2 = _roots_oracle(poly)
        ps = find_global_maxima(poly)
        got = sorted(ps.peaks, key=lambda pk: pk.location)
        assert len(got) == len(locs)
        for pk, t, d2 in zip(got, locs, g2):
            assert pk.location == pytest.approx(t, abs=1e-9)
            assert pk.second_derivative == pytest.approx(d2, rel=1e-7)

    def test_unbracketed_maximum_is_caught(self, monkeypatch):
        # drop the polished root at the global maximum: the grid values of
        # |f|^2 then exceed every remaining maximum
        poly = TrigPolynomial(((1, 1 + 0j), (2, 0.5 + 0.3j), (5, 0.4j)))
        top = find_global_maxima(poly).peaks[0].location
        polish = signal_model._critical_points

        def missing_top(*args):
            roots = polish(*args)
            return roots[np.abs(roots % poly.period - top) > 1e-6]

        monkeypatch.setattr(signal_model, "_critical_points", missing_top)
        with pytest.raises(ConstantModulus, match="no non-degenerate maxima"):
            find_global_maxima(poly)

    @pytest.mark.parametrize("seed", range(6))
    def test_sup_norm_is_the_peak_value(self, seed):
        rng = np.random.default_rng(100 + seed)
        freqs = rng.choice(np.arange(1, 60), 6, replace=False)
        poly = TrigPolynomial(tuple((int(m), complex(*rng.normal(size=2)))
                                    for m in freqs),
                              real_cosine_form=bool(seed % 2))
        ps = find_global_maxima(poly)
        assert ps.sup_norm == max(pk.value for pk in ps.peaks)
        # |f| sampled 1e-7 periods apart around the top peak
        top = max(ps.peaks, key=lambda pk: pk.value)
        t = top.location + poly.period * 1e-7 * np.arange(-1000, 1001)
        assert ps.sup_norm == pytest.approx(np.max(np.abs(evaluate(poly, t))),
                                            rel=1e-9)


class TestSupportGcd:
    """gcd of the frequency support, as theory.gcd_reduction_check reads it."""

    def _poly(self, support):
        return TrigPolynomial(tuple((k, 1.0) for k in sorted(support)),
                              period=1.0, real_cosine_form=True)

    def test_gcd3_support(self):
        assert self._poly({6, 9, 33}).frequency_gcd() == 3

    def test_singleton(self):
        assert self._poly({5}).frequency_gcd() == 5

    def test_coprime(self):
        assert self._poly({2, 3}).frequency_gcd() == 1

    @given(st.sets(st.integers(1, 30), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_matches_euclid_fold(self, support):
        got = self._poly(support).frequency_gcd()
        expected = 0
        for k in sorted(support):
            expected = math.gcd(expected, k)
        assert got == expected
        assert all(k % got == 0 for k in support)


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_sample_dft_recovers_amplitudes(self, seed):
        rng = np.random.default_rng(seed)
        freqs = np.sort(rng.choice(np.arange(1, 40), 5, replace=False))
        amps = rng.random(5) + 0.1
        phases = rng.random(5) * TWO_PI
        terms = tuple((int(m), a * np.exp(1j * ph))
                      for m, a, ph in zip(freqs, amps, phases))
        p = TrigPolynomial(terms, period=1.0, real_cosine_form=True)
        n = 4 * int(freqs[-1])
        s = sample(p, n, 1.0)
        spec = np.fft.rfft(s.samples) * 2.0 / n
        for m, a in terms:
            assert spec[m] == pytest.approx(a, rel=1e-10)
