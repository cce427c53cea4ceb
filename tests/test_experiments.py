import io
import math

import numpy as np
import pytest

from fundcomp import _pcg64
from fundcomp.activations import ActivationSpec, apply
from fundcomp.errors import RejectionOverflow
from fundcomp.experiments import (
    BLOCK_TRIALS,
    DEFAULT_ACTIVATIONS,
    DENSITY_SCALE,
    DRAW_TRIALS,
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
    _search,
    block_ratios,
    frequency_weights,
    run_trials,
    write_histogram_csv,
)
from fundcomp.signal_model import SampledSignal, TrigPolynomial, sample
from fundcomp.spectral import dft, fundamental_energy_ratio

PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def child_rng(master_seed, trial_index):
    """Trial `trial_index`'s generator under the reproducibility contract:
    the oracle the package's replay is held to."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((master_seed, trial_index))))


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


def generate_synthetic(master_seed, trial_index):
    """The reference draw: one random 1-periodic cosine polynomial with
    gcd-1 frequency support, by `_draw_trials` for a block of one trial.

    K ~ Uniform{K_MIN..K_MAX}; frequencies drawn without replacement from
    [FREQ_MIN, FREQ_MAX] with weights proportional to exp(-x^2 / (2 sigma^2)),
    sigma = DENSITY_SCALE (see `frequency_weights`), and rejection-resampled
    until their gcd is 1; amplitudes in (0, 1], phases in (0, 2 pi].
    """
    pool, probs = frequency_weights(FREQ_MIN, FREQ_MAX, DENSITY_SCALE)
    _, freqs, coeffs = _draw_trials(master_seed, [trial_index], pool, probs,
                                    K_MIN, K_MAX)
    order = np.argsort(freqs)
    terms = tuple((int(freqs[i]), coeffs[i]) for i in order)
    return TrigPolynomial(terms, period=1.0, real_cosine_form=True)


@pytest.fixture
def made_streams(monkeypatch):
    """Every `_pcg64.Streams` the sampler makes while the test runs."""
    made = []

    class Recorded(_pcg64.Streams):
        def __init__(self, master_seed, indices):
            super().__init__(master_seed, indices)
            made.append(self)

    monkeypatch.setattr(_pcg64, "Streams", Recorded)
    return made


def seeded_state(master_seed, indices):
    """(state, inc) of each index's PCG64 after seeding, as the replay's
    seeding words give them: one step a X + inc from X = seed + inc."""
    words = [w.tolist() for w in _pcg64._seed(
        master_seed, np.asarray(indices, dtype=np.uint64))]
    return [((PCG64_MULTIPLIER * (x_hi << 64 | x_lo) + (i_hi << 64 | i_lo))
             % 2 ** 128, i_hi << 64 | i_lo)
            for x_hi, x_lo, i_hi, i_lo in zip(*words)]


def state_after(master_seed, trial_index, positions):
    """The child generator's PCG64 state after `positions` draws."""
    bit_generator = child_rng(master_seed, trial_index).bit_generator
    bit_generator.advance(int(positions))
    return bit_generator.state["state"]


def assert_draws_match_choice(seed, indices, pool, probs, k_min, k_max,
                              made, make_rng=child_rng):
    """_draw_trials over blocks of `indices` against the oracle, trial by
    trial: the terms, and the position each trial's stream stopped at
    against the oracle generator's state.  Returns (K, sets drawn, positions
    consumed) per trial."""
    indices = list(indices)
    counts = []
    for start in range(0, len(indices), DRAW_TRIALS):
        block = indices[start:start + DRAW_TRIALS]
        rows, freqs, coeffs = _draw_trials(seed, block, pool, probs, k_min,
                                           k_max)
        positions = made[-1]._position
        assert np.array_equal(rows, np.sort(rows))
        for row, i in enumerate(block):
            rng = make_rng(seed, i)
            want_freqs, want_coeffs, sets = _draw_trial(rng, pool, probs,
                                                        k_min, k_max)
            assert np.array_equal(freqs[rows == row], want_freqs), i
            assert np.array_equal(coeffs[rows == row], want_coeffs), i
            assert (state_after(seed, i, positions[row])
                    == rng.bit_generator.state["state"]), i
            counts.append((want_freqs.size, sets, positions[row]))
    return counts


def some_set_took_rounds(counts):
    """Whether a trial's stream ran past its one position for K, K uniforms
    per set and 2K: then some set took more than one round of choice's
    loop."""
    return any(p > 1 + (sets + 2) * k for k, sets, p in counts)


class TestSampler:
    """_draw_trials replays numpy's Generator and Generator.choice(p,
    replace=False): a numpy whose streams or choice draw differently fails
    here instead of drifting silently."""

    SEEDS = [0, 7, 2 ** 32, 2 ** 64 - 1, 2 ** 70 + 3, 2 ** 200 + 12345]
    INDICES = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 33 + 1, 2 ** 40 + 5]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeding_and_last_state_match_numpy(self, seed, made_streams):
        # entropy of one to seven words, past the pool's four, and trial
        # indices of one and two words
        for i, (state, inc) in zip(self.INDICES,
                                   seeded_state(seed, self.INDICES)):
            want = child_rng(seed, i).bit_generator.state["state"]
            assert (state, inc) == (want["state"], want["inc"]), i
        pool, probs = frequency_weights(2, 250, 100.0)
        assert_draws_match_choice(seed, self.INDICES, pool, probs, 5, 100,
                                  made_streams)

    @pytest.mark.parametrize("trial,k", [(15782994, 34), (44518452, 99)])
    def test_lemire_retries_on_the_buffered_high_half(self, trial, k,
                                                      made_streams):
        # the low half of draw 1 is rejected (its product's low word falls
        # below (2^32 - 96) mod 96 = 64), so K comes from the high half that
        # numpy buffered, and the first uniform is draw 2
        rng = child_rng(7, trial)
        low = int(rng.bit_generator.random_raw()) & 0xFFFFFFFF
        assert low * 96 % 2 ** 32 < 64
        pool, probs = frequency_weights(2, 250, 100.0)
        [(got_k, _, _)] = assert_draws_match_choice(
            7, [trial], pool, probs, 5, 100, made_streams)
        assert got_k == k
        rng = child_rng(7, trial)
        assert rng.integers(5, 101) == k
        assert rng.bit_generator.state["has_uint32"] == 0
        assert rng.bit_generator.state["state"] == state_after(7, trial, 1)

    def test_integers_retry_across_draws(self):
        # a range of 2^31 + 1 rejects about half of all words, so K's words
        # run on through the buffered high halves into later draws
        span = 2 ** 31 + 1
        streams = _pcg64.Streams(3, range(256))
        values = streams.integers(0, span)
        assert streams._position.max() > 2
        for i in range(256):
            rng = child_rng(3, i)
            assert rng.integers(0, span) == values[i]
            assert rng.bit_generator.state["state"] == state_after(
                3, i, streams._position[i])

    def test_search_matches_each_rows_searchsorted(self):
        # shifted rows round, so values on a step and one ulp either side of
        # it must be stepped back exactly; repeated steps are zero weights
        rng = np.random.default_rng(5)
        cdf = np.cumsum(rng.random((300, 40)), axis=1)
        cdf /= cdf[:, -1:]
        cdf[:, 10:14] = cdf[:, 9:10]
        rows = rng.integers(0, 300, 3000)
        steps = cdf[rows, rng.integers(0, 39, 3000)]
        u = np.concatenate([steps, np.nextafter(steps, 0.0),
                            np.nextafter(steps, 1.0), rng.random(3000),
                            np.zeros(3000)])
        rows = np.tile(rows, 5)
        want = [cdf[r].searchsorted(x, side="right") for r, x in zip(rows, u)]
        assert np.array_equal(_search(cdf, rows, u), want)

    @pytest.mark.parametrize("seed", [7, 123])
    def test_matches_rng_choice(self, seed, made_streams):
        pool, probs = frequency_weights(2, 250, 100.0)
        counts = assert_draws_match_choice(seed, range(5000), pool, probs, 5,
                                           100, made_streams)
        # some frequency sets needed a second round of choice's loop
        assert some_set_took_rounds(counts)

    def test_small_pool_retries_and_rounds_in_one_block(self, made_streams):
        # 2..12 with 2 to 6 frequencies: sets of gcd 2 or 3 are common, and
        # a set of 6 from 11 often needs more than one round
        pool, probs = frequency_weights(2, 12, 100.0)
        counts = assert_draws_match_choice(5, range(BLOCK_TRIALS), pool, probs,
                                           2, 6, made_streams)
        assert any(sets > 1 for _, sets, _ in counts)
        assert some_set_took_rounds(counts)

    @pytest.mark.parametrize("freq_max,k_max", [(12, 6), (250, 100)])
    def test_uniforms_on_the_cdf_steps(self, freq_max, k_max, monkeypatch):
        # on a step, one ulp below it, and 0: searchsorted's side and the
        # cdf's last bit decide these draws, and found bins must be skipped.
        # Trial i reads the script cyclically from 7 i, through the one
        # `random` of the replay and the oracle's `random` (which `choice`
        # calls too); both still step their streams past the draws.
        pool, probs = frequency_weights(2, freq_max, 100.0)
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        script = np.concatenate([cdf[:-1], np.nextafter(cdf[:-1], 0.0), [0.0]])
        np.random.default_rng(4).shuffle(script)
        made = []

        class ScriptedStreams(_pcg64.Streams):
            def __init__(self, master_seed, indices):
                super().__init__(master_seed, indices)
                self.at = 7 * np.asarray(indices)
                made.append(self)

            def random(self, rows, counts):
                super().random(rows, counts)
                taken = np.concatenate([self.at[r] + np.arange(c)
                                        for r, c in zip(rows, counts)])
                self.at[rows] += counts
                return script[taken % script.size]

        class ScriptedRng(np.random.Generator):
            def __init__(self, seed, i):
                super().__init__(child_rng(seed, i).bit_generator)
                self.at = 7 * i

            def random(self, size=None, dtype=np.float64, out=None):
                n = int(np.prod(size))
                self.bit_generator.random_raw(n)
                taken = (self.at + np.arange(n)) % script.size
                self.at += n
                return script[taken]

        monkeypatch.setattr(_pcg64, "Streams", ScriptedStreams)
        assert_draws_match_choice(0, range(2 * BLOCK_TRIALS), pool, probs, 2,
                                  k_max, made, make_rng=ScriptedRng)

    def test_whole_pool(self, made_streams):
        # K = 11 of 11: integers(11, 12) draws nothing
        pool, probs = frequency_weights(2, 12, 100.0)
        assert_draws_match_choice(3, range(8), pool, probs, 11, 11,
                                  made_streams)

    def test_single_frequency_overflows(self, made_streams, monkeypatch):
        # every frequency is at least 2, so a one-term set never has gcd 1.
        # K = 1 draws nothing and each set is one random(1), so each stream
        # runs MAX_GCD_RESAMPLES positions, and the table, built afresh,
        # doubles from its first size until it covers them.
        monkeypatch.setattr(_pcg64, "_table", None)
        pool, probs = frequency_weights(2, 250, 100.0)
        with pytest.raises(RejectionOverflow):
            _draw_trials(0, [0, 1], pool, probs, 1, 1)
        assert made_streams[-1]._position.tolist() == [MAX_GCD_RESAMPLES] * 2
        assert MAX_GCD_RESAMPLES >= 10 ** 4
        assert _pcg64._table.shape[1] == _pcg64.FIRST_POSITIONS * 16
        # and the positions it grew to draw what numpy draws
        got = _pcg64.Streams(0, [1]).random(np.array([0]),
                                            np.array([MAX_GCD_RESAMPLES]))
        assert np.array_equal(got, child_rng(0, 1).random(MAX_GCD_RESAMPLES))
        for i in range(2):
            rng = child_rng(0, i)
            with pytest.raises(RejectionOverflow):
                _draw_trial(rng, pool, probs, 1, 1)
            assert rng.bit_generator.state["state"] == state_after(
                0, i, MAX_GCD_RESAMPLES)

    def test_generate_synthetic_is_a_block_of_one(self):
        pool, probs = frequency_weights(2, 250, 100.0)
        for i in range(5):
            freqs, coeffs, _ = _draw_trial(child_rng(9, i), pool, probs, 5, 100)
            order = np.argsort(freqs)
            terms = tuple((int(freqs[j]), coeffs[j]) for j in order)
            assert generate_synthetic(9, i).terms == terms


class TestGenerateSynthetic:
    @pytest.mark.parametrize("trial", range(10))
    def test_paper_parameter_ranges(self, trial):
        poly = generate_synthetic(123, trial)
        freqs = [m for m, _ in poly.terms]
        assert 5 <= len(freqs) <= 100
        assert all(2 <= m <= 250 for m in freqs)
        assert math.gcd(*freqs) == 1
        assert poly.period == 1.0
        assert poly.real_cosine_form
        for _, a in poly.terms:
            assert 0 < abs(a) <= 1.0

    def test_no_fundamental_bin(self):
        poly = generate_synthetic(7, 0)
        spec = dft(sample(poly, 512, 1.0))
        assert spec.magnitudes()[1] < 1e-12

    def test_deterministic(self):
        a = generate_synthetic(42, 0)
        b = generate_synthetic(42, 0)
        assert a.terms == b.terms

    def test_distinct_trials_differ(self):
        a = generate_synthetic(42, 0)
        b = generate_synthetic(42, 1)
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
        # SeedSequence takes ints >= 0: anything else fails when the config
        # is built, not inside a draw or a pool worker
        for seed in (-1, 1.5, True, np.int64(3), "7", None):
            with pytest.raises(ValueError, match="master_seed"):
                SynthConfig(trials=2, master_seed=seed)

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
            signal = sample(generate_synthetic(5, i), 512, 1.0)
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
