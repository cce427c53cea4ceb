"""Output checks computed apart from the program, with numpy alone.

Each check raises `CheckFailed` with a message naming the output at fault.
The computations here follow the conventions the program documents (the
per-trial RNG contract, the unit-cosine DFT, the Gaussian STFT), but none of
them calls into fundcomp.
"""

from __future__ import annotations

import json
import math
import wave
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


# ---------------------------------------------------------------- synth-bench

SYNTH_LABELS = ("abs", "relu", "heps_0.2", "heps_0.1", "heps_0.05")
SYNTH_EPSILONS = (0.2, 0.1, 0.05)
# The paper's reference medians, as in tests/test_acceptance.py.
REFERENCE_MEDIANS = {"abs": 0.0028, "relu": 0.0007, "heps_0.2": 0.0029,
                     "heps_0.1": 0.0031, "heps_0.05": 0.0033}
GRID = 512          # samples of one 1 s period
HIST_TOP = 0.05     # histogram range [0, 0.05]


def draw_trial(master_seed: int, index: int) -> tuple[np.ndarray, np.ndarray]:
    """(frequencies, complex amplitudes) of one trial, per the RNG contract.

    Trial i uses PCG64(SeedSequence((master_seed, i))): K uniform on 5..100,
    K distinct frequencies from 2..250 with weights exp(-x^2 / (2 * 100^2)),
    redrawn until their gcd is 1, then amplitudes 1 - U and phases
    2 pi (1 - U).
    """
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((master_seed, index))))
    k = int(rng.integers(5, 101))
    pool = np.arange(2, 251)
    w = np.exp(-pool.astype(float) ** 2 / (2.0 * 100.0 ** 2))
    while True:
        freqs = rng.choice(pool, size=k, replace=False, p=w / w.sum())
        if math.gcd(*freqs.tolist()) == 1:
            break
    amps = 1.0 - rng.random(k)
    phases = 2.0 * math.pi * (1.0 - rng.random(k))
    return freqs, amps * np.exp(1j * phases)


def activation_ratios(x: np.ndarray) -> np.ndarray:
    """trials x 5 fundamental energy ratios of the rows of x, one row per period.

    Ratio |c_1|^2 / sum_{l=1..256} |c_l|^2 after abs, relu and h_eps with the
    row's max |x| as the norm.
    """
    norm = np.max(np.abs(x), axis=1, keepdims=True)
    activated = [np.abs(x), np.maximum(x, 0.0)]
    activated += [1.0 / (1.0 - (1.0 - e) * np.abs(x) / norm) for e in SYNTH_EPSILONS]
    out = np.empty((x.shape[0], len(activated)))
    for j, y in enumerate(activated):
        power = np.abs(np.fft.rfft(y, axis=1)[:, 1:GRID // 2 + 1]) ** 2
        out[:, j] = power[:, 0] / power.sum(axis=1)
    return out


def synth_ratios(master_seed: int, trials: int) -> np.ndarray:
    """Ratios of trials 0..trials-1, the samples synthesized by inverse rFFT."""
    spec = np.zeros((trials, GRID // 2 + 1), dtype=complex)
    for i in range(trials):
        freqs, coeffs = draw_trial(master_seed, i)
        spec[i, freqs] = coeffs * (GRID / 2)
    return activation_ratios(np.fft.irfft(spec, n=GRID, axis=1))


def median_mad(col: np.ndarray) -> tuple[float, float]:
    med = float(np.median(col))
    return med, float(np.median(np.abs(col - med)))


def check_synth_output(out: Path, ratios: np.ndarray) -> None:
    """summary.json and hist_*.csv of one synth-bench call against `ratios`."""
    summary = json.loads((out / "summary.json").read_text())
    require(sorted(summary["results"]) == sorted(SYNTH_LABELS),
            f"{out}: activations {sorted(summary['results'])}")
    require(bool(np.all((ratios >= 0.0) & (ratios <= 1.0))),
            f"{out}: a recomputed ratio lies outside [0, 1]")
    trials = ratios.shape[0]
    for j, label in enumerate(SYNTH_LABELS):
        got = summary["results"][label]
        med, mad = median_mad(ratios[:, j])
        require(got["trials_run"] == trials, f"{out}: {label} trials_run")
        require(close(got["median"], med, 1e-9),
                f"{out}: {label} median {got['median']!r}, oracle {med!r}")
        require(close(got["mad"], mad, 1e-9),
                f"{out}: {label} mad {got['mad']!r}, oracle {mad!r}")
        rows = (out / f"hist_{label}.csv").read_text().splitlines()[1:]
        counts = [int(row.rsplit(",", 1)[1]) for row in rows]
        require(len(counts) == 200 and sum(counts) == trials,
                f"{out}: hist_{label}.csv counts {sum(counts)} != {trials}")
        hi = float(rows[-1].split(",")[1])
        require(hi == HIST_TOP, f"{out}: hist_{label}.csv top edge {hi}")


def check_synth_pooled(ratios: np.ndarray) -> None:
    """The paper's ordering and reference medians on all trials of a run."""
    medians = {label: float(np.median(ratios[:, j]))
               for j, label in enumerate(SYNTH_LABELS)}
    require(all(medians["relu"] < medians[k] for k in medians if k != "relu"),
            f"ReLU is not the smallest median: {medians}")
    for label, ref in REFERENCE_MEDIANS.items():
        require(abs(medians[label] - ref) <= 0.6 * ref,
                f"{label}: pooled median {medians[label]:.5f} outside "
                f"+-60% of the reference {ref}")


# ------------------------------------------------------------- verify-theorem

def _grid_values(coeffs, real_cosine_form: bool, n: int) -> np.ndarray:
    """f at t = 2 pi j / n, j < n, by inverse FFT of its exponential coefficients."""
    c = np.zeros(n, dtype=complex)
    for m, re, im in coeffs:
        a = complex(re, im)
        if real_cosine_form:
            c[m % n] += a / 2.0
            c[-m % n] += a.conjugate() / 2.0
        else:
            c[m % n] += a
    return np.fft.ifft(c) * n


def grid_size(coeffs, sup_norm: float, g2: float, eps: float) -> int:
    """Trapezoid points for a bin-1 integral accurate to far below 1e-9.

    The integrand's nearest singularity lies sqrt(2 eps sup / |g''|) off the
    real axis, and the periodic trapezoid error decays like exp(-that * n);
    kinks where f vanishes converge as n^-2, hence the floor of 2^16.
    """
    reach = math.sqrt(2.0 * eps * sup_norm / abs(g2))
    need = max(60.0 / reach, 2 ** 16, 4 * max(m for m, _, _ in coeffs))
    return 1 << math.ceil(math.log2(need))


def trapezoid_bin1(coeffs, real_cosine_form: bool, sup_norm: float,
                   eps: float, n: int) -> complex:
    """Integral over [0, 2 pi) of h_eps(|f|/sup) e^{it}, periodic trapezoid rule."""
    mod = np.minimum(np.abs(_grid_values(coeffs, real_cosine_form, n)) / sup_norm, 1.0)
    h = 1.0 / (1.0 - (1.0 - eps) * mod)
    t = 2.0 * math.pi * np.arange(n) / n
    return complex(np.sum(h * np.exp(1j * t)) * (2.0 * math.pi / n))


def peak_prediction(case: dict, eps: float) -> complex:
    """pi/sqrt(eps) e^{i t0} / sqrt(-g''/(2 sup)) for a single global peak."""
    if case["cancels"]:
        return 0j
    scale = math.sqrt(-case["g2"] / (2.0 * case["sup_norm"]))
    return complex(math.pi / math.sqrt(eps) * np.exp(1j * case["peak_t"]) / scale)


def verify_oracle(case: dict, ladder) -> list[complex]:
    n = grid_size(case["coeffs"], case["sup_norm"], case["g2"], min(ladder))
    return [trapezoid_bin1(case["coeffs"], case["real_cosine_form"],
                           case["sup_norm"], e, n) for e in ladder]


def check_verify_output(path: Path, case: dict, ladder, integrals) -> None:
    lines = [json.loads(s) for s in path.read_text().splitlines()]
    rungs, summary = lines[:-1], lines[-1]
    require(summary.get("summary") is True and summary["passed"] is True,
            f"{path}: summary {summary}")
    require(summary["prediction_cancels"] == case["cancels"],
            f"{path}: prediction_cancels {summary['prediction_cancels']}")
    require([r["epsilon"] for r in rungs] == list(ladder),
            f"{path}: ladder {[r['epsilon'] for r in rungs]}")
    first = complex(*rungs[0]["prediction"]) * math.sqrt(rungs[0]["epsilon"])
    for r, want in zip(rungs, integrals):
        eps = r["epsilon"]
        got = complex(*r["numeric_integral"])
        # the quadrature's own error budget
        tol = 1e-6 * eps ** -0.5
        require(abs(got - want) <= tol,
                f"{path}: eps {eps}: integral {got} vs trapezoid {want}, "
                f"|diff| {abs(got - want):.3e} > {tol:.3e}")
        pred = complex(*r["prediction"])
        scaled = pred * math.sqrt(eps)
        require(abs(scaled - first) <= 1e-12 * max(abs(first), 1.0),
                f"{path}: prediction*sqrt(eps) varies: {scaled} vs {first}")
        want_pred = peak_prediction(case, eps)
        if case["cancels"]:
            require(pred == 0, f"{path}: cancellation case predicts {pred}")
        else:
            require(abs(pred - want_pred) <= 1e-8 * abs(want_pred),
                    f"{path}: eps {eps}: prediction {pred} vs closed form {want_pred}")


# -------------------------------------------------------------------- analyze

def read_wav_samples(path) -> tuple[np.ndarray, int]:
    """16-bit mono PCM as floats in [-1, 1), and the sample rate."""
    with wave.open(str(path), "rb") as wf:
        rate = wf.getframerate()
        raw = wf.readframes(wf.getnframes())
    return np.frombuffer(raw, dtype="<i2") / 32768.0, rate


def h_eps_normalized(x: np.ndarray, eps: float) -> np.ndarray:
    return 1.0 / (1.0 - (1.0 - eps) * np.abs(x / np.max(np.abs(x))))


def band_ratio(x: np.ndarray, rate: int, curve: np.ndarray,
               half_width: float, block: int = 64) -> float:
    """Energy in |f - IF(frame)| <= half_width over energy in [1/T, rate/2].

    Gaussian STFT with the CLI defaults: window 2 s truncated at +-4 sigma,
    hop 0.1 s, FFT length the next power of two, frames centred on i * hop
    over a zero-padded signal.
    """
    window = 2 * rate
    hop = rate // 10
    nfft = 1 << (window - 1).bit_length()
    taper = np.exp(-0.5 * ((np.arange(window) - (window - 1) / 2.0) / (window / 8.0)) ** 2)
    padded = np.concatenate([np.zeros(window // 2), x, np.zeros(window)])
    frames = np.lib.stride_tricks.sliding_window_view(padded, window)[::hop]
    n_frames = (x.size - 1) // hop + 1
    freqs = np.arange(nfft // 2 + 1) * rate / nfft
    keep = (freqs >= rate / x.size) & (freqs <= rate / 2.0)
    num = total = 0.0
    for lo in range(0, n_frames, block):
        hi = min(lo + block, n_frames)
        power = np.abs(np.fft.rfft(frames[lo:hi] * taper, n=nfft, axis=1)) ** 2
        total += float(np.sum(power[:, keep]))
        band = np.abs(freqs[None, :] - curve[lo:hi, None]) <= half_width
        num += float(np.sum(power[band]))
    return num / total


def check_analyze_output(out: Path, wav: Path, curve: np.ndarray,
                         eps: float, half_width: float, report: dict) -> float:
    """Check one analyze output directory; return the raw signal's band ratio."""
    x, rate = read_wav_samples(wav)
    lines = (out / "activated_signal.csv").read_text().splitlines()
    require(lines[0] == f"sample_rate,{float(rate):.17g}",
            f"{out}/activated_signal.csv header {lines[0]!r}")
    got = np.array(lines[1:], dtype=float)
    want = h_eps_normalized(x, eps)
    require(got.shape == want.shape and bool(np.allclose(got, want, rtol=1e-14, atol=0)),
            f"{out}/activated_signal.csv differs from h_eps(x / max|x|)")

    ratio = band_ratio(want, rate, curve, half_width)
    require(close(report["band_energy_ratio"], ratio, 1e-9),
            f"{out}: band_energy_ratio {report['band_energy_ratio']!r}, oracle {ratio!r}")
    raw = band_ratio(x, rate, curve, half_width)
    require(ratio > raw,
            f"{out}: activated band ratio {ratio:.4g} <= raw {raw:.4g}")

    hop = rate // 10
    n_frames = (x.size - 1) // hop + 1
    n_bins = (1 << (2 * rate - 1).bit_length()) // 2 + 1
    pgm = (out / "spectrogram.pgm").read_bytes()
    header = f"P5\n{n_bins} {n_frames}\n255\n".encode("ascii")
    require(pgm.startswith(header) and len(pgm) == len(header) + n_bins * n_frames,
            f"{out}/spectrogram.pgm is not {n_frames} x {n_bins}")
    return raw
