"""Synthetic benchmark: random gcd-1 cosine signals, activation sweep, stats.

Synthesis contract: every trial is a cosine polynomial with integer
frequencies below sample_rate / 2, sampled on a one-period grid of
sample_rate samples (period 1 s, sample_rate an integer).  Its samples are
therefore exactly the inverse rFFT of its coefficients placed in their bins
(c_m * N/2 at bin m), which is how they are computed.

Reproducibility contract: trial i uses the child generator
PCG64(SeedSequence((master_seed, i))), and no arithmetic mixes trials, so
results are bit-identical however trials are divided into blocks and
scheduled across workers.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import activations, spectral
from .activations import ActivationSpec
from .errors import RejectionOverflow
from .signal_model import TrigPolynomial

RNG_ID = "numpy-pcg64/seedseq((master_seed, trial_index))"
MAX_GCD_RESAMPLES = 10_000
# Trials synthesized per inverse rFFT.  On 512-sample grids larger blocks
# run no faster and raise peak memory: a 250-trial synth-bench call peaked at
# 40.8 MB RSS with blocks of 32, 41.7 MB with 64 and 47.3 MB with 250.
BLOCK_TRIALS = 32

# Fixed histogram grid: 200 bins on [0, 0.05]; ratios above the top edge are
# counted in the last bin so counts always sum to the number of trials.
HIST_EDGES = np.linspace(0.0, 0.05, 201)

DEFAULT_ACTIVATIONS = (
    ActivationSpec.abs(),
    ActivationSpec.relu(),
    ActivationSpec.adaptive(0.2),
    ActivationSpec.adaptive(0.1),
    ActivationSpec.adaptive(0.05),
)


@dataclass(frozen=True)
class SynthConfig:
    trials: int
    master_seed: int
    sample_rate: float = 512.0
    k_min: int = 5
    k_max: int = 100
    freq_min: int = 2
    freq_max: int = 250
    density_scale: float = 100.0
    activations: tuple[ActivationSpec, ...] = DEFAULT_ACTIVATIONS

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.k_min > self.k_max or self.k_min < 1:
            raise ValueError("need 1 <= k_min <= k_max")
        if self.freq_min < 2:
            raise ValueError("freq_min must be >= 2 so bin 1 stays empty")
        if self.freq_max <= self.freq_min:
            raise ValueError("freq_max must exceed freq_min")
        if not (self.sample_rate > 0 and float(self.sample_rate).is_integer()):
            raise ValueError("sample_rate must be a positive integer "
                             "(samples per 1 s period)")
        if self.freq_max >= self.sample_rate / 2:
            raise ValueError("freq_max must lie below sample_rate / 2")
        _sampling_pool(self.freq_min, self.freq_max, self.density_scale,
                       self.k_max)
        object.__setattr__(self, "activations", tuple(self.activations))

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "master_seed": self.master_seed,
            "sample_rate": self.sample_rate,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "freq_min": self.freq_min,
            "freq_max": self.freq_max,
            "density_scale": self.density_scale,
            "activations": [a.label for a in self.activations],
        }


@dataclass(frozen=True)
class TrialStats:
    median: float
    mad: float
    histogram_counts: tuple[int, ...]
    trials_run: int


def child_rng(master_seed: int, trial_index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((master_seed, trial_index))))


def frequency_weights(freq_min: int, freq_max: int,
                      density_scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Candidate frequencies and their normalized selection weights.

    The weight of frequency x is exp(-x^2 / (2 sigma^2)) with
    sigma = density_scale, i.e. a Gaussian taper of standard deviation
    density_scale truncated to [freq_min, freq_max].
    """
    pool = np.arange(freq_min, freq_max + 1)
    w = np.exp(-0.5 * (pool / density_scale) ** 2)
    return pool, w / w.sum()


def _sampling_pool(freq_min: int, freq_max: int, density_scale: float,
                   k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """frequency_weights, checked to hold k_max frequencies of nonzero weight,
    so that a draw without replacement can always finish."""
    pool, probs = frequency_weights(freq_min, freq_max, density_scale)
    drawable = int(np.count_nonzero(probs > 0))
    if k_max > drawable:
        raise ValueError(
            f"k_max = {k_max} exceeds the {drawable} frequencies of nonzero "
            f"weight in [{freq_min}, {freq_max}]")
    return pool, probs


def _draw_trials(rngs, pool: np.ndarray, probs: np.ndarray, k_min: int,
                 k_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, frequency and complex amplitude of every term of one trial per
    generator in `rngs`: trial by trial, each in draw order.

    The calls on each generator and their order are the reproducibility
    contract, and they are those of drawing the trial alone:
    `integers(k_min, k_max + 1)` for K; then K distinct frequencies by
    `Generator.choice(pool, K, replace=False, p=probs)`, whose rejection loop
    is replayed here, one `random(K - found)` per round; again from fresh
    weights while their gcd is not 1; then `random(2K)`, whose halves are the
    amplitudes' and the phases' uniforms.  The trials still drawing share
    each round: one cumsum over their weight rows and one first-occurrence
    unique over their (row, bin) keys.  `tests/test_experiments.py` holds this
    to `rng.choice` itself.
    """
    n, size = len(rngs), pool.size
    ks = np.array([rng.integers(k_min, k_max + 1) for rng in rngs])
    weights = np.tile(probs, (n, 1))
    found = np.zeros((n, k_max), dtype=pool.dtype)   # 0 pads the gcd
    n_found = np.zeros(n, dtype=np.intp)
    sets = np.zeros(n, dtype=np.intp)
    uniforms = [None] * n
    active = np.arange(n)
    while active.size:
        need = ks[active] - n_found[active]
        # choice's round: the found bins' weights are zero, the cdf is
        # normalized by its last entry, and each new bin counts at its
        # first occurrence, in draw order
        cdf = np.cumsum(weights[active], axis=1)
        cdf /= cdf[:, -1:]
        picks = np.concatenate([
            row.searchsorted(rngs[i].random(m), side="right")
            for row, i, m in zip(cdf, active.tolist(), need.tolist())])
        keys = np.repeat(np.arange(active.size) * size, need) + picks
        _, first = np.unique(keys, return_index=True)
        first.sort()
        rows, bins = np.divmod(keys[first], size)
        counts = np.bincount(rows, minlength=active.size)
        trials = active[rows]
        # a new bin's slot: its trial's earlier finds plus its rank this round
        slots = n_found[trials] + np.arange(rows.size) - np.repeat(
            np.cumsum(counts) - counts, counts)
        found[trials, slots] = pool[bins]
        weights[trials, bins] = 0.0
        n_found[active] += counts

        done = active[n_found[active] == ks[active]]
        sets[done] += 1
        coprime = np.gcd.reduce(found[done], axis=1) == 1
        for i in done[coprime].tolist():
            uniforms[i] = rngs[i].random(2 * ks[i]).reshape(2, ks[i])
        retry = done[~coprime]   # start again from fresh weights
        if np.any(sets[retry] >= MAX_GCD_RESAMPLES):
            raise RejectionOverflow("could not draw a gcd-1 frequency set")
        n_found[retry] = 0
        weights[retry] = probs
        active = active[n_found[active] < ks[active]]

    u = np.concatenate(uniforms, axis=1)
    amps = 1.0 - u[0]                          # (0, 1]
    phases = 2.0 * math.pi * (1.0 - u[1])      # (0, 2 pi]
    freqs = found[np.arange(k_max) < ks[:, None]]
    return np.repeat(np.arange(n), ks), freqs, amps * np.exp(1j * phases)


def generate_synthetic(rng: np.random.Generator, *, k_min: int = 5,
                       k_max: int = 100, freq_min: int = 2, freq_max: int = 250,
                       density_scale: float = 100.0) -> TrigPolynomial:
    """One random 1-periodic cosine polynomial with gcd-1 frequency support.

    K ~ Uniform{k_min..k_max}; frequencies drawn without replacement from
    [freq_min, freq_max] with weights proportional to exp(-x^2 / (2 sigma^2)),
    sigma = density_scale (see `frequency_weights`), and rejection-resampled
    until their gcd is 1; amplitudes in (0, 1], phases in (0, 2 pi].  The
    draw is `block_ratios`'s, for a block of one trial.
    """
    pool, probs = _sampling_pool(freq_min, freq_max, density_scale, k_max)
    _, freqs, coeffs = _draw_trials([rng], pool, probs, k_min, k_max)
    order = np.argsort(freqs)
    terms = tuple((int(freqs[i]), coeffs[i]) for i in order)
    return TrigPolynomial(terms, period=1.0, real_cosine_form=True)


def block_ratios(config: SynthConfig, indices) -> np.ndarray:
    """Energy ratios of the trials `indices`: one row per trial, one column
    per configured activation.

    Trials are synthesized BLOCK_TRIALS at a time: their coefficients are
    placed in one spectrum, one inverse rFFT gives one period of samples per
    row, and each activation takes one rFFT.  A row depends only on its
    trial index, never on the block it shares.
    """
    indices = list(indices)
    pool, probs = _sampling_pool(config.freq_min, config.freq_max,
                                 config.density_scale, config.k_max)
    n = int(config.sample_rate)
    max_bin = min(256, n // 2)
    out = np.empty((len(indices), len(config.activations)))
    for start in range(0, len(indices), BLOCK_TRIALS):
        block = indices[start:start + BLOCK_TRIALS]
        rows, freqs, coeffs = _draw_trials(
            [child_rng(config.master_seed, i) for i in block], pool, probs,
            config.k_min, config.k_max)
        spectrum = np.zeros((len(block), n // 2 + 1), dtype=np.complex128)
        spectrum[rows, freqs] = coeffs * (n / 2)
        x = np.fft.irfft(spectrum, n=n, axis=1)
        for j, act in enumerate(config.activations):
            out[start:start + len(block), j] = spectral.fundamental_energy_ratio(
                np.fft.rfft(activations.apply(act, x), axis=1), 1, max_bin)
    return out


def run_trials(config: SynthConfig, *, first_trial: int = 0,
               workers: int = 1) -> dict[str, TrialStats]:
    """Run the benchmark and aggregate per-activation statistics.

    Trials cover indices [first_trial, first_trial + config.trials); results
    do not depend on `workers`.
    """
    indices = range(first_trial, first_trial + config.trials)
    if workers <= 1 or len(indices) < 2 * workers:
        ratios = block_ratios(config, indices)
    else:
        chunks = [indices[j::workers] for j in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(block_ratios, [config] * workers, chunks))
        ratios = np.empty((len(indices), len(config.activations)))
        for j, block in enumerate(blocks):
            ratios[j::workers] = block

    stats = {}
    for j, spec in enumerate(config.activations):
        col = ratios[:, j]
        med = float(np.median(col))
        mad = float(np.median(np.abs(col - med)))
        counts, _ = np.histogram(np.clip(col, 0.0, HIST_EDGES[-1]),
                                 bins=HIST_EDGES)
        stats[spec.label] = TrialStats(
            median=med, mad=mad,
            histogram_counts=tuple(int(c) for c in counts),
            trials_run=len(indices))
    return stats


def write_summary_json(stats: dict[str, TrialStats], config: SynthConfig, fh) -> None:
    payload = {
        "config": config.as_dict(),
        "rng_id": RNG_ID,
        "results": {
            label: {"median": s.median, "mad": s.mad, "trials_run": s.trials_run}
            for label, s in stats.items()
        },
    }
    json.dump(payload, fh, sort_keys=True, indent=2, allow_nan=False)
    fh.write("\n")


def write_histogram_csv(s: TrialStats, fh) -> None:
    fh.write("bin_lo,bin_hi,count\n")
    edges = HIST_EDGES.tolist()
    for lo, hi, c in zip(edges, edges[1:], s.histogram_counts):
        fh.write(f"{lo:.17g},{hi:.17g},{c}\n")
