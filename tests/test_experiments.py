import io
import math

import numpy as np
import pytest

from fundcomp.activations import ActivationSpec, apply
from fundcomp.errors import RejectionOverflow
from fundcomp.experiments import (
    BLOCK_TRIALS,
    DEFAULT_ACTIVATIONS,
    DENSITY_SCALE,
    FREQ_MAX,
    FREQ_MIN,
    GRID,
    HIST_EDGES,
    K_MAX,
    K_MIN,
    MAX_GCD_RESAMPLES,
    SynthConfig,
    TrialStats,
    _draw_trials,
    block_ratios,
    child_rng,
    frequency_weights,
    run_trials,
    write_histogram_csv,
)
from fundcomp.signal_model import SampledSignal, TrigPolynomial, sample
from fundcomp.spectral import dft, fundamental_energy_ratio


def _draw_trial(rng, pool, probs, k_min, k_max):
    """The sampler's oracle, one trial by `Generator.choice` itself:
    frequencies in draw order, complex amplitudes, and the number of
    frequency sets drawn until one had gcd 1."""
    k = int(rng.integers(k_min, k_max + 1))
    for sets in range(1, MAX_GCD_RESAMPLES + 1):
        freqs = rng.choice(pool, size=k, replace=False, p=probs)
        if math.gcd(*freqs.tolist()) == 1:
            break
    else:
        raise RejectionOverflow("could not draw a gcd-1 frequency set")
    amps = 1.0 - rng.random(k)            # (0, 1]
    phases = 2.0 * math.pi * (1.0 - rng.random(k))  # (0, 2 pi]
    return freqs, amps * np.exp(1j * phases), sets


def generate_synthetic(rng):
    """The reference draw: one random 1-periodic cosine polynomial with
    gcd-1 frequency support, by `_draw_trials` for a block of one trial.

    K ~ Uniform{K_MIN..K_MAX}; frequencies drawn without replacement from
    [FREQ_MIN, FREQ_MAX] with weights proportional to exp(-x^2 / (2 sigma^2)),
    sigma = DENSITY_SCALE (see `frequency_weights`), and rejection-resampled
    until their gcd is 1; amplitudes in (0, 1], phases in (0, 2 pi].
    """
    pool, probs = frequency_weights(FREQ_MIN, FREQ_MAX, DENSITY_SCALE)
    _, freqs, coeffs = _draw_trials([rng], pool, probs, K_MIN, K_MAX)
    order = np.argsort(freqs)
    terms = tuple((int(freqs[i]), coeffs[i]) for i in order)
    return TrigPolynomial(terms, period=1.0, real_cosine_form=True)


class CountingRng:
    """A generator that counts its `random` calls."""

    def __init__(self, rng):
        self.rng = rng
        self.random_calls = 0

    def integers(self, *args):
        return self.rng.integers(*args)

    def random(self, size):
        self.random_calls += 1
        return self.rng.random(size)


class ScriptedRng(np.random.Generator):
    """A PCG64 generator whose uniforms are read, cyclically, from a script,
    so that they can sit exactly on the steps of choice's cdf.
    `Generator.choice` calls this `random` too."""

    def __init__(self, seed, script, start):
        super().__init__(np.random.PCG64(seed))
        self.script, self.at = script, start

    def random(self, size=None, dtype=np.float64, out=None):
        taken = (self.at + np.arange(np.prod(size))) % self.script.size
        self.at += taken.size
        return self.script[taken]


def assert_draws_match_choice(seed, indices, pool, probs, k_min, k_max,
                              make_rng=child_rng):
    """_draw_trials over blocks of `indices` against the oracle, trial by
    trial; returns (sets drawn, random calls) per trial."""
    indices = list(indices)
    counts = []
    for start in range(0, len(indices), BLOCK_TRIALS):
        block = indices[start:start + BLOCK_TRIALS]
        rngs = [CountingRng(make_rng(seed, i)) for i in block]
        rows, freqs, coeffs = _draw_trials(rngs, pool, probs, k_min, k_max)
        assert np.array_equal(rows, np.sort(rows))
        for row, (i, rng) in enumerate(zip(block, rngs)):
            want_freqs, want_coeffs, sets = _draw_trial(
                make_rng(seed, i), pool, probs, k_min, k_max)
            assert np.array_equal(freqs[rows == row], want_freqs), i
            assert np.array_equal(coeffs[rows == row], want_coeffs), i
            counts.append((sets, rng.random_calls))
    return counts


class TestSampler:
    """_draw_trials replays Generator.choice(p, replace=False): a numpy whose
    choice draws differently fails here instead of drifting silently."""

    @pytest.mark.parametrize("seed", [7, 123])
    def test_matches_rng_choice(self, seed):
        pool, probs = frequency_weights(2, 250, 100.0)
        counts = assert_draws_match_choice(seed, range(5000), pool, probs, 5, 100)
        # some frequency sets needed a second round of choice's loop
        assert any(calls > sets + 1 for sets, calls in counts)

    def test_small_pool_retries_and_rounds_in_one_block(self):
        # 2..12 with 2 to 6 frequencies: sets of gcd 2 or 3 are common, and
        # a set of 6 from 11 often needs more than one round
        pool, probs = frequency_weights(2, 12, 100.0)
        counts = assert_draws_match_choice(5, range(BLOCK_TRIALS), pool, probs,
                                           2, 6)
        assert any(sets > 1 for sets, _ in counts)
        # one random(K - found) per round plus random(2K): more calls than
        # sets + 1 means some set took several rounds
        assert any(calls > sets + 1 for sets, calls in counts)

    @pytest.mark.parametrize("freq_max,k_max", [(12, 6), (250, 100)])
    def test_uniforms_on_the_cdf_steps(self, freq_max, k_max):
        # on a step, one ulp below it, and 0: searchsorted's side and the
        # cdf's last bit decide these draws, and found bins must be skipped
        pool, probs = frequency_weights(2, freq_max, 100.0)
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        script = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0.0), [0.0]])
        np.random.default_rng(4).shuffle(script)
        assert_draws_match_choice(
            0, range(2 * BLOCK_TRIALS), pool, probs, 2, k_max,
            make_rng=lambda seed, i: ScriptedRng(i, script, 7 * i))

    def test_whole_pool(self):
        pool, probs = frequency_weights(2, 12, 100.0)
        assert_draws_match_choice(3, range(8), pool, probs, 11, 11)

    def test_single_frequency_overflows(self):
        # every frequency is at least 2, so a one-term set never has gcd 1
        pool, probs = frequency_weights(2, 250, 100.0)
        rngs = [CountingRng(child_rng(0, i)) for i in range(2)]
        with pytest.raises(RejectionOverflow):
            _draw_trials(rngs, pool, probs, 1, 1)
        # one round per one-term set: MAX_GCD_RESAMPLES sets, then the error
        assert [rng.random_calls for rng in rngs] == [MAX_GCD_RESAMPLES] * 2

    def test_generate_synthetic_is_a_block_of_one(self):
        pool, probs = frequency_weights(2, 250, 100.0)
        for i in range(5):
            freqs, coeffs, _ = _draw_trial(child_rng(9, i), pool, probs, 5, 100)
            order = np.argsort(freqs)
            terms = tuple((int(freqs[j]), coeffs[j]) for j in order)
            assert generate_synthetic(child_rng(9, i)).terms == terms


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

    def test_experiment_constants_are_consistent(self):
        # bin 1 stays empty, every frequency lies below Nyquist, so the
        # irfft placement is exact, and a draw of K_MAX always finishes
        assert FREQ_MIN >= 2
        assert FREQ_MAX < GRID / 2
        assert K_MIN <= K_MAX
        _, probs = frequency_weights(FREQ_MIN, FREQ_MAX, DENSITY_SCALE)
        assert np.count_nonzero(probs > 0) >= K_MAX

    def test_histogram_csv_matches_per_row_formatting(self):
        # the edge prefixes are formatted once per process; every write,
        # the first and a later one, prints what formatting each row does
        counts = tuple(range(7, 207))
        edges = HIST_EDGES.tolist()
        want = "bin_lo,bin_hi,count\n" + "".join(
            f"{lo:.17g},{hi:.17g},{c}\n"
            for lo, hi, c in zip(edges, edges[1:], counts))
        for _ in range(2):
            fh = io.StringIO()
            write_histogram_csv(TrialStats(median=0.0, mad=0.0,
                                           histogram_counts=counts,
                                           trials_run=sum(counts)), fh)
            assert fh.getvalue() == want

    def test_as_dict_golden(self):
        got = SynthConfig(trials=250, master_seed=7).as_dict()
        want = {"trials": 250, "master_seed": 7, "sample_rate": 512.0,
                "k_min": 5, "k_max": 100, "freq_min": 2, "freq_max": 250,
                "density_scale": 100.0,
                "activations": ["abs", "relu", "heps_0.2", "heps_0.1",
                                "heps_0.05"]}
        assert got == want
        # summary.json and manifest.json print 512.0 and 100.0, not 512 and 100
        assert {k: type(v) for k, v in got.items()} == {
            k: type(v) for k, v in want.items()}


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
        assert run_trials(cfg, workers=3) == run_trials(cfg, workers=1)


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
