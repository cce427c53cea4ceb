import dataclasses
import math

import numpy as np
import pytest

from fundcomp.activations import ActivationSpec, apply
from fundcomp.experiments import (
    BLOCK_TRIALS,
    DEFAULT_ACTIVATIONS,
    SynthConfig,
    block_ratios,
    child_rng,
    frequency_weights,
    generate_synthetic,
    run_trials,
)
from fundcomp.signal_model import SampledSignal, TrigPolynomial, sample
from fundcomp.spectral import dft, fundamental_energy_ratio


class TestGenerateSynthetic:
    @pytest.mark.parametrize("trial", range(10))
    def test_paper_parameter_ranges(self, trial):
        poly = generate_synthetic(child_rng(123, trial))
        freqs = [m for m, _ in poly.terms]
        assert 5 <= len(freqs) <= 100
        assert all(2 <= m <= 250 for m in freqs)
        assert math.gcd(*freqs) == 1
        assert poly.period == 1.0
        assert poly.real_cosine_form
        for _, a in poly.terms:
            assert 0 < abs(a) <= 1.0

    def test_no_fundamental_bin(self):
        poly = generate_synthetic(child_rng(7, 0))
        spec = dft(sample(poly, 512, 1.0))
        assert spec.magnitudes()[1] < 1e-12

    def test_deterministic(self):
        a = generate_synthetic(child_rng(42, 0))
        b = generate_synthetic(child_rng(42, 0))
        assert a.terms == b.terms

    def test_distinct_trials_differ(self):
        a = generate_synthetic(child_rng(42, 0))
        b = generate_synthetic(child_rng(42, 1))
        assert a.terms != b.terms

    def test_frequency_weight_shape(self):
        # chi-square of 1e5 single draws against the truncated Gaussian weights
        pool, probs = frequency_weights(2, 250, 100.0)
        rng = np.random.default_rng(2024)
        draws = rng.choice(pool, size=10 ** 5, p=probs)
        counts = np.bincount(draws, minlength=251)[2:251]
        expected = probs * 10 ** 5
        mask = expected >= 5
        chi2 = float(np.sum((counts[mask] - expected[mask]) ** 2 / expected[mask]))
        dof = int(np.sum(mask)) - 1
        # p-value above 1e-3 <=> chi2 below the inverse CDF at 0.999
        from scipy.stats import chi2 as chi2_dist
        assert chi2 < chi2_dist.ppf(0.999, dof)
        # density_scale is the standard deviation: w(x) ~ exp(-x^2 / (2 sigma^2))
        for x in (3, 50, 100, 171, 250):
            assert probs[x - 2] / probs[0] == pytest.approx(
                math.exp(-(x * x - 4) / (2 * 100.0 ** 2)), rel=1e-12)


class TestRunTrials:
    def small_config(self, trials=8, seed=11):
        return SynthConfig(trials=trials, master_seed=seed,
                           activations=(ActivationSpec.abs(),
                                        ActivationSpec.relu()))

    def test_single_trial_stats(self):
        cfg = SynthConfig(trials=1, master_seed=3,
                          activations=(ActivationSpec.abs(),))
        stats = run_trials(cfg)["abs"]
        ratio = block_ratios(cfg, [0])[0][0]
        assert stats.median == ratio
        assert stats.mad == 0.0
        assert stats.trials_run == 1

    def test_bit_identical_reruns(self):
        cfg = self.small_config()
        assert run_trials(cfg) == run_trials(cfg)

    def test_worker_count_irrelevant(self):
        cfg = self.small_config(trials=16)
        assert run_trials(cfg, workers=1) == run_trials(cfg, workers=4)

    def test_half_runs_merge_to_full_histogram(self):
        cfg = self.small_config(trials=16)
        full = run_trials(cfg)
        half = dataclasses.replace(cfg, trials=8)
        first = run_trials(half)
        second = run_trials(half, first_trial=8)
        for label in full:
            merged = tuple(a + b for a, b in zip(first[label].histogram_counts,
                                                 second[label].histogram_counts))
            assert merged == full[label].histogram_counts

    def test_counts_sum_and_median_bounds(self):
        cfg = self.small_config(trials=12)
        for s in run_trials(cfg).values():
            assert sum(s.histogram_counts) == s.trials_run
            assert 0.0 <= s.median <= 1.0

    def test_ratios_in_unit_interval(self):
        cfg = SynthConfig(trials=5, master_seed=1)
        for i in range(5):
            for r in block_ratios(cfg, [i])[0]:
                assert 0.0 <= r <= 1.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SynthConfig(trials=0, master_seed=1)
        with pytest.raises(ValueError):
            SynthConfig(trials=1, master_seed=1, freq_min=1)

    @pytest.mark.parametrize("kwargs", [
        {"sample_rate": 512.5},
        {"sample_rate": 512.0, "freq_max": 256},
    ])
    def test_grid_must_hold_every_frequency(self, kwargs):
        # the irfft placement needs an integer grid and bins below Nyquist
        with pytest.raises(ValueError):
            SynthConfig(trials=1, master_seed=1, **kwargs)


class TestBlockRatios:
    def test_matches_dense_pipeline(self):
        # reference: generate -> evaluate on the grid -> activate -> DFT -> ratio
        cfg = SynthConfig(trials=20, master_seed=5)
        expected = []
        for i in range(20):
            signal = sample(generate_synthetic(child_rng(5, i)), 512, 1.0)
            expected.append([
                fundamental_energy_ratio(dft(SampledSignal(
                    apply(spec, signal.samples), 512)).bins, 1, 256)
                for spec in cfg.activations])
        got = block_ratios(cfg, range(20))
        assert got.shape == (20, len(cfg.activations))
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)

    def test_rows_independent_of_blocking(self):
        cfg = SynthConfig(trials=1, master_seed=9,
                          activations=(ActivationSpec.relu(),
                                       ActivationSpec.adaptive(0.1)))
        indices = range(BLOCK_TRIALS + 5)
        whole = block_ratios(cfg, indices)
        singles = np.vstack([block_ratios(cfg, [i]) for i in indices])
        assert np.array_equal(whole, singles)

    def test_workers_and_split_over_uneven_blocks(self):
        trials = 2 * BLOCK_TRIALS + 3
        cfg = SynthConfig(trials=trials, master_seed=17,
                          activations=(ActivationSpec.abs(),
                                       ActivationSpec.adaptive(0.05)))
        full = run_trials(cfg, workers=1)
        assert run_trials(cfg, workers=3) == full
        cut = BLOCK_TRIALS + 7  # not a multiple of the block size
        first = run_trials(dataclasses.replace(cfg, trials=cut))
        second = run_trials(dataclasses.replace(cfg, trials=trials - cut),
                            first_trial=cut)
        for label in full:
            merged = tuple(a + b for a, b in zip(first[label].histogram_counts,
                                                 second[label].histogram_counts))
            assert merged == full[label].histogram_counts


class TestEnhancementPair:
    """The fundamental's energy share before and after an activation, by the
    kernels block_ratios runs: apply, rFFT, fundamental_energy_ratio."""

    def _pair(self, poly, spec):
        x = sample(poly, 512, 1.0).samples
        return (fundamental_energy_ratio(np.fft.rfft(x), 1, 256),
                fundamental_energy_ratio(np.fft.rfft(apply(spec, x)), 1, 256))

    def test_pure_cosine_with_abs(self):
        p = TrigPolynomial(((1, 1.0),), period=1.0, real_cosine_form=True)
        r_before, r_after = self._pair(p, ActivationSpec.abs())
        assert r_before == pytest.approx(1.0)
        assert r_after < 1.0

    def test_rectifying_two_tone_boosts_missing_fundamental(self):
        # frequencies {2,3}: essentially no bin-1 energy before, some after
        p = TrigPolynomial(((2, 1.0), (3, 0.5)), period=1.0, real_cosine_form=True)
        r_before, r_after = self._pair(p, ActivationSpec.abs())
        assert r_before < 1e-20
        assert r_after > 1e-6


class TestDefaultActivations:
    def test_matches_benchmark_lineup(self):
        labels = [a.label for a in DEFAULT_ACTIVATIONS]
        assert labels == ["abs", "relu", "heps_0.2", "heps_0.1", "heps_0.05"]
