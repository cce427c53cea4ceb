import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundcomp.activations import (
    EPSILON_MIN,
    OVERSHOOT_TOL,
    ActivationSpec,
    apply,
    h_eps,
)
from fundcomp.errors import DomainError, ZeroSignal


class TestSpec:
    def test_heps_requires_epsilon(self):
        with pytest.raises(ValueError):
            ActivationSpec("heps")

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_epsilon_range(self, eps):
        with pytest.raises(ValueError):
            ActivationSpec.adaptive(eps)

    def test_epsilon_floor(self):
        assert ActivationSpec.adaptive(EPSILON_MIN).epsilon == EPSILON_MIN
        for eps in (np.nextafter(EPSILON_MIN, 0.0), 5e-324):
            with pytest.raises(ValueError, match="epsilon"):
                ActivationSpec.adaptive(float(eps))

    def test_abs_takes_no_epsilon(self):
        with pytest.raises(ValueError):
            ActivationSpec("abs", 0.1)

    def test_labels(self):
        assert ActivationSpec.abs().label == "abs"
        assert ActivationSpec.adaptive(0.05).label == "heps_0.05"


class TestHeps:
    def test_at_zero(self):
        assert h_eps(0.0, 0.1) == 1.0

    def test_at_one(self):
        assert h_eps(1.0, 0.1) == pytest.approx(10.0)

    def test_even_at_minus_one(self):
        assert h_eps(-1.0, 0.05) == pytest.approx(20.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            h_eps(1.0 + 1e-6, 0.1)

    def test_overshoot_clamped(self):
        assert h_eps(1.0 + 1e-10, 0.1) == pytest.approx(10.0)

    @given(st.floats(-1, 1), st.floats(1e-6, 1 - 1e-6))
    @settings(max_examples=200)
    def test_even(self, x, eps):
        assert h_eps(x, eps) == h_eps(-x, eps)

    @given(st.floats(0, 1), st.floats(0, 1), st.floats(1e-6, 1 - 1e-6))
    @settings(max_examples=200)
    def test_monotone_in_abs_x(self, x1, x2, eps):
        lo, hi = sorted([x1, x2])
        assert h_eps(lo, eps) <= h_eps(hi, eps)

    @given(st.floats(-1, 1), st.floats(1e-6, 0.5), st.floats(0.5, 1 - 1e-6))
    @settings(max_examples=200)
    def test_monotone_in_inverse_epsilon(self, x, eps_small, eps_big):
        assert h_eps(x, eps_small) >= h_eps(x, eps_big)

    @given(st.floats(-1, 1), st.floats(1e-6, 1 - 1e-6))
    @settings(max_examples=200)
    def test_bounds(self, x, eps):
        v = h_eps(x, eps)
        assert 1.0 <= v <= 1.0 / eps + 1e-12

    @given(st.floats(-0.9, 0.9), st.integers(1, 40))
    @settings(max_examples=100)
    def test_geometric_series_tail(self, x, terms):
        # h_0(x) = 1/(1-|x|) = 1 + |x| + |x|^2 + ... with tail |x|^{J+1}/(1-|x|)
        ax = abs(x)
        partial = sum(ax ** j for j in range(terms + 1))
        limit = 1.0 / (1.0 - ax)
        assert abs(limit - partial) <= ax ** (terms + 1) / (1.0 - ax) + 1e-12


class TestHepsNearOne:
    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 0.3])
    def test_at_one_within_bound(self, eps):
        assert h_eps(1.0, eps) <= 1.0 / eps
        assert h_eps(-1.0, eps) <= 1.0 / eps

    @pytest.mark.parametrize("eps", [1e-5, 1e-6, 0.1, 0.3, 0.9])
    def test_sweep_below_one_within_bound(self, eps):
        x = np.linspace(1.0 - 1e-9, 1.0, 20001)
        h = h_eps(x, eps)
        assert np.all(h <= 1.0 / eps)
        assert np.all(h >= 1.0)

    @pytest.mark.parametrize("eps", [1e-6, 1e-3, 0.1, 0.5, 0.9])
    def test_monotone_between_neighbouring_floats(self, eps):
        # 1 / (fl(1 - |x|) + fl(eps |x|)) steps down by an ulp between some
        # neighbouring |x| below 1/2, where 1 - |x| is rounded
        x = np.random.default_rng(11).random(100_000)
        assert np.all(h_eps(np.nextafter(x, 2.0), eps) >= h_eps(x, eps))


class TestApply:
    def test_abs(self):
        out = apply(ActivationSpec.abs(), np.array([1.0, -2.0, 3.0]))
        assert np.allclose(out, [1, 2, 3])

    def test_relu(self):
        out = apply(ActivationSpec.relu(), np.array([1.0, -2.0, 3.0]))
        assert np.allclose(out, [1, 0, 3])

    def test_adaptive_default_norm_is_sample_max(self):
        out = apply(ActivationSpec.adaptive(0.5), np.array([2.0, 0.0, -2.0]))
        assert np.allclose(out, [2, 1, 2])

    def test_zero_signal(self):
        with pytest.raises(ZeroSignal):
            apply(ActivationSpec.adaptive(0.1), np.zeros(3))
        with pytest.raises(ZeroSignal):  # one zero row in a block
            apply(ActivationSpec.adaptive(0.1), np.array([[1.0, -2.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("spec", [ActivationSpec.abs(), ActivationSpec.relu(),
                                      ActivationSpec.adaptive(0.1)])
    def test_block_matches_each_row(self, spec):
        # each row is normalized by its own max |x|, as a 1-D signal is
        x = np.random.default_rng(3).normal(size=(9, 512))
        x[4] *= 1e-3
        block = apply(spec, x)
        assert block.shape == x.shape
        for i in range(x.shape[0]):
            assert np.array_equal(block[i], apply(spec, x[i]))


class TestInputsUntouched:
    @pytest.mark.parametrize("spec", [ActivationSpec.abs(), ActivationSpec.relu(),
                                      ActivationSpec.adaptive(0.1)])
    def test_apply(self, spec):
        x = np.random.default_rng(8).normal(size=(4, 256))
        before = x.copy()
        apply(spec, x)
        assert np.array_equal(x, before)

    def test_h_eps(self):
        x = np.array([-1.0 - OVERSHOOT_TOL / 2, -0.5, 0.0, 0.75, 1.0])
        before = x.copy()
        h_eps(x, 0.1)
        assert np.array_equal(x, before)
