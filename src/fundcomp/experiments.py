"""Synthetic benchmark: random gcd-1 cosine signals, activation sweep, stats.

Synthesis contract: every trial is a cosine polynomial with integer
frequencies below GRID / 2, sampled on a one-period grid of GRID samples
(period 1 s).  Its samples are therefore exactly the inverse rFFT of its
coefficients placed in their bins (c_m * GRID/2 at bin m), which is how they
are computed.

Reproducibility contract: trial i draws from the stream of numpy's child
generator PCG64(SeedSequence((master_seed, i))), and no arithmetic mixes
trials, so results are bit-identical however trials are divided into blocks
and scheduled across workers.  No generator object is made: `_pcg64`
replays the streams of a whole block of trials with array arithmetic, and
numpy's `Generator` is the oracle that the tests hold the replay to.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from . import _pcg64, activations, spectral
from .activations import ActivationSpec
from .errors import RejectionOverflow

RNG_ID = "numpy-pcg64/seedseq((master_seed, trial_index))"
# The paper's experiment: one GRID-sample period per trial, K_MIN..K_MAX
# distinct frequencies in FREQ_MIN..FREQ_MAX under a Gaussian taper of
# standard deviation DENSITY_SCALE (see `frequency_weights`).  FREQ_MIN >= 2
# keeps bin 1 empty, FREQ_MAX < GRID / 2 keeps every frequency below Nyquist,
# and every pool weight is above zero, so a draw of K_MAX always finishes.
GRID = 512
K_MIN, K_MAX = 5, 100
FREQ_MIN, FREQ_MAX = 2, 250
DENSITY_SCALE = 100.0
MAX_GCD_RESAMPLES = 10_000
# Trials drawn together.  Each numpy call of the replay has a fixed cost, so
# the draw is vectorised over many trials: a whole 250-trial synth-bench call
# took 41.8 ms with draws of 32 trials, 32.5 ms with 64, 28.7 ms with 128
# and 27.1 ms with 256 (medians of 60 interleaved calls, 2-core x86_64).
DRAW_TRIALS = 256
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
    activations: tuple[ActivationSpec, ...] = DEFAULT_ACTIVATIONS

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        # SeedSequence takes ints >= 0; bool is an int it would take as 0 or 1
        if (not isinstance(self.master_seed, int)
                or isinstance(self.master_seed, bool) or self.master_seed < 0):
            raise ValueError(
                f"master_seed must be an int >= 0, not {self.master_seed!r}")
        object.__setattr__(self, "activations", tuple(self.activations))

    def as_dict(self) -> dict:
        """The run's configuration, the fixed experiment included."""
        return {
            "trials": self.trials,
            "master_seed": self.master_seed,
            "sample_rate": float(GRID),
            "k_min": K_MIN,
            "k_max": K_MAX,
            "freq_min": FREQ_MIN,
            "freq_max": FREQ_MAX,
            "density_scale": DENSITY_SCALE,
            "activations": [a.label for a in self.activations],
        }


@dataclass(frozen=True)
class TrialStats:
    median: float
    mad: float
    histogram_counts: tuple[int, ...]
    trials_run: int


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


def _draw_trials(master_seed: int, indices, pool: np.ndarray,
                 probs: np.ndarray, k_min: int,
                 k_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, frequency and complex amplitude of every term of the trials
    `indices`, one row per trial: trial by trial, each in draw order.

    The draws on each trial's stream and their order are the reproducibility
    contract, and they are those of drawing the trial alone from its child
    generator: `integers(k_min, k_max + 1)` for K; then K distinct
    frequencies by `Generator.choice(pool, K, replace=False, p=probs)`, whose
    rejection loop is replayed here, one `random(K - found)` per round; again
    from fresh weights while their gcd is not 1; then `random(2K)`, whose
    halves are the amplitudes' and the phases' uniforms.  `_pcg64.Streams`
    replays the trials' streams, and the trials still drawing share each
    round: one `random` over their streams, one cumsum over their weight
    rows, one `searchsorted` over those rows laid end to end and one
    first-occurrence unique over their (row, bin) keys.
    `tests/test_experiments.py` holds this to numpy's `Generator` and
    `rng.choice` themselves.
    """
    streams = _pcg64.Streams(master_seed, indices)
    ks = streams.integers(k_min, k_max + 1)
    n, size = ks.size, pool.size
    weights = np.tile(probs, (n, 1))
    base = np.cumsum(probs)
    base /= base[-1]
    found = np.zeros((n, k_max), dtype=pool.dtype)   # 0 pads the gcd
    n_found = np.zeros(n, dtype=np.intp)
    sets = np.zeros(n, dtype=np.intp)
    uniforms = np.empty((n, 2 * k_max))   # row t: trial t's random(2K)
    active = np.arange(n)
    while active.size:
        need = ks[active] - n_found[active]
        # choice's round: the found bins' weights are zero and the cdf is
        # normalized by its last entry, so a trial that has found nothing
        # yet searches `base`, row 0, and the others their own cdf rows
        partial = n_found[active] > 0
        row_of = np.zeros(active.size, dtype=np.intp)
        row_of[partial] = np.arange(1, np.count_nonzero(partial) + 1)
        cdf = np.empty((row_of.max(initial=0) + 1, size))
        cdf[0] = base
        np.cumsum(weights[active[partial]], axis=1, out=cdf[1:])
        cdf[1:] /= cdf[1:, -1:]
        picks = _search(cdf, np.repeat(row_of, need),
                        streams.random(active, need))
        # each new bin counts at its first occurrence, in draw order: the
        # least index of its (trial, bin) key
        keys = np.repeat(np.arange(active.size) * size, need) + picks
        first = np.full(active.size * size, keys.size)
        np.minimum.at(first, keys, np.arange(keys.size))
        first = np.flatnonzero(first[keys] == np.arange(keys.size))
        rows, bins = np.divmod(keys[first], size)
        counts = np.bincount(rows, minlength=active.size)
        trials = active[rows]
        # a new bin's slot: its trial's earlier finds plus its rank this round
        slots = n_found[trials] + _ranks(counts)
        found[trials, slots] = pool[bins]
        weights[trials, bins] = 0.0
        n_found[active] += counts

        done = active[n_found[active] == ks[active]]
        sets[done] += 1
        coprime = np.gcd.reduce(found[done], axis=1) == 1
        drawn, m = done[coprime], 2 * ks[done[coprime]]
        uniforms[np.repeat(drawn, m), _ranks(m)] = streams.random(drawn, m)
        retry = done[~coprime]   # start again from fresh weights
        if np.any(sets[retry] >= MAX_GCD_RESAMPLES):
            raise RejectionOverflow("could not draw a gcd-1 frequency set")
        n_found[retry] = 0
        weights[retry] = probs
        active = active[n_found[active] < ks[active]]

    column = np.arange(2 * k_max)
    amps = 1.0 - uniforms[column < ks[:, None]]                   # (0, 1]
    phases = 2.0 * math.pi * (1.0 - uniforms[
        (column >= ks[:, None]) & (column < 2 * ks[:, None])])     # (0, 2 pi]
    freqs = found[column[:k_max] < ks[:, None]]
    return np.repeat(np.arange(n), ks), freqs, amps * np.exp(1j * phases)


def _search(cdf: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """`cdf[rows[e]].searchsorted(u[e], side="right")` for every e, by one
    search over the rows laid end to end.

    Row r is searched as 2r + cdf[r], which keeps the rows apart and in
    order.  The sums round, so an entry just above u can be counted with it,
    but none at or below u is missed; comparing the unshifted values steps
    each index back past such entries.
    """
    shift = 2.0 * np.arange(cdf.shape[0])
    at = (cdf + shift[:, None]).ravel().searchsorted(u + shift[rows],
                                                      side="right")
    flat, start = cdf.ravel(), rows * cdf.shape[1]
    while True:
        back = np.flatnonzero((at > start) & (flat[at - 1] > u))
        if not back.size:
            return at - start
        at[back] -= 1


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., counts[r] - 1 for each r in turn."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                               counts)


def block_ratios(config: SynthConfig, indices) -> np.ndarray:
    """Energy ratios of the trials `indices`: one row per trial, one column
    per configured activation.

    Trials are drawn DRAW_TRIALS at a time and their coefficients placed in
    one spectrum.  BLOCK_TRIALS rows at a time, one inverse rFFT gives one
    period of samples per row, and each activation takes one rFFT.  A row
    depends only on its trial index, never on the block it shares.
    """
    indices = list(indices)
    pool, probs = frequency_weights(FREQ_MIN, FREQ_MAX, DENSITY_SCALE)
    out = np.empty((len(indices), len(config.activations)))
    for draw in range(0, len(indices), DRAW_TRIALS):
        trials = indices[draw:draw + DRAW_TRIALS]
        rows, freqs, coeffs = _draw_trials(config.master_seed, trials, pool,
                                           probs, K_MIN, K_MAX)
        spectrum = np.zeros((len(trials), GRID // 2 + 1), dtype=np.complex128)
        spectrum[rows, freqs] = coeffs * (GRID / 2)
        for start in range(0, len(spectrum), BLOCK_TRIALS):
            x = np.fft.irfft(spectrum[start:start + BLOCK_TRIALS], n=GRID,
                             axis=1)
            block = slice(draw + start, draw + start + len(x))
            for j, act in enumerate(config.activations):
                out[block, j] = spectral.fundamental_energy_ratio(
                    np.fft.rfft(activations.apply(act, x), axis=1), 1, GRID // 2)
    return out


def run_trials(config: SynthConfig, *, workers: int = 1) -> dict[str, TrialStats]:
    """Run the benchmark and aggregate per-activation statistics.

    Trials cover indices [0, config.trials); results do not depend on
    `workers`.
    """
    indices = range(config.trials)
    if workers <= 1 or len(indices) < 2 * workers:
        ratios = block_ratios(config, indices)
    else:
        # imported here: concurrent.futures and multiprocessing add 1.5 MB
        # of RSS to every process that imports the CLI
        from concurrent.futures import ProcessPoolExecutor

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


@functools.cache
def _histogram_row_prefixes() -> tuple[str, ...]:
    """'bin_lo,bin_hi,' of each histogram row, formatted at the first write
    and kept for every later one."""
    edges = HIST_EDGES.tolist()
    return tuple(f"{lo:.17g},{hi:.17g}," for lo, hi in zip(edges, edges[1:]))


def write_histogram_csv(s: TrialStats, fh) -> None:
    fh.write("bin_lo,bin_hi,count\n" + "".join(
        f"{prefix}{c}\n"
        for prefix, c in zip(_histogram_row_prefixes(), s.histogram_counts)))
