"""Seeded inputs and the CLI calls each workload makes.

A workload is a sequence of rounds. A round is a fixed list of
`fundcomp` CLI calls (argv lists for `fundcomp.cli.main`), and a run repeats
whole rounds until its time is up, so every run attempts the same calls in
the same proportions whatever its length or seed.

Inputs depend only on the seed. The facts the output checks need (closed-form
sup-norms, peak terms, the true instantaneous frequency) are written beside
the inputs in `expect.json`; the program never sees that file.
"""

from __future__ import annotations

import json
import math
import wave
from pathlib import Path

import numpy as np

WORKLOADS = ("synth", "verify", "analyze")

# synth: trials per synth-bench call. Round r runs one batch with
# master seed seed * SEED_STRIDE + r, so successive rounds draw fresh trials.
SYNTH_BATCH = 250
SEED_STRIDE = 1_000_000

# verify: (m_max, number of terms) of the random polynomials in the set.
VERIFY_SHAPES = ((10, 5), (40, 8), (100, 12), (167, 16))
EPS_LADDER = (1e-2, 1e-3, 1e-4, 1e-5)  # the CLI's default ladder

# analyze: a 60 s, 4 kHz, 16-bit recording with a wandering fundamental.
ANALYZE_RATE = 4000
ANALYZE_SECONDS = 60
ANALYZE_EPSILON = 0.1
# The default STFT bins are rate / 8192 = 0.488 Hz apart; a +-0.5 Hz band
# holds at least two bins in every frame.
ANALYZE_HALF_WIDTH = 0.5
HARMONICS = range(2, 9)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def _aligned_poly(support_rng, rng, m_max: int, n_terms: int) -> dict:
    """Random gcd-1 complex polynomial whose terms all peak at one point t0.

    f(t) = sum_k r_k exp(i m_k (t - t0)) has its only global maximum of |f|
    at t0, with sup-norm sum_k r_k and
    g''(t0) = -sum_{j,k} r_j r_k (m_j - m_k)^2 / (2 sum_k r_k).
    The frequencies come from `support_rng`, the amplitudes and t0 from `rng`.
    """
    while True:
        ms = np.sort(support_rng.choice(np.arange(1, m_max), n_terms - 1,
                                        replace=False))
        ms = np.append(ms, m_max)
        if math.gcd(*ms.tolist()) == 1:
            break
    r = rng.uniform(0.2, 1.0, n_terms)
    t0 = float(rng.uniform(0.0, 2.0 * math.pi))
    return {"m": ms.tolist(), "r": r.tolist(), "t0": t0}


def _peak_facts(m, r, t0) -> dict:
    m = np.asarray(m, dtype=float)
    r = np.asarray(r, dtype=float)
    sup = float(r.sum())
    g2 = -float(np.sum(np.outer(r, r) * np.subtract.outer(m, m) ** 2)) / (2.0 * sup)
    return {"sup_norm": sup, "peak_t": t0, "g2": g2, "cancels": False}


def prepare_verify(seed: int, inputs: Path) -> list[dict]:
    """Polynomial files for the verify workload, with their closed-form facts."""
    # The frequency sets are the same for every seed: the cost of peak
    # finding and the size of its arrays follow the set, so a seeded set
    # would make the figures depend on the seed.
    support_rng = _rng(0, 1)
    rng = _rng(seed, 2)
    cases = []
    # e^{it} + e^{2it}: the README's example, peak at 0 with g'' = -1/2.
    two_exp = {"m": [1, 2], "r": [1.0, 1.0], "t0": 0.0}
    polys = [("two_exp", two_exp)]
    polys += [(f"aligned_m{m_max}", _aligned_poly(support_rng, rng, m_max, k))
              for m_max, k in VERIFY_SHAPES]
    for name, p in polys:
        terms = [{"m": int(m), "re": r * math.cos(-m * p["t0"]),
                  "im": r * math.sin(-m * p["t0"])}
                 for m, r in zip(p["m"], p["r"])]
        path = inputs / f"{name}.json"
        path.write_text(json.dumps(terms))
        cases.append({"name": name, "file": str(path),
                      "coeffs": [[t["m"], t["re"], t["im"]] for t in terms],
                      "real_cosine_form": False,
                      **_peak_facts(p["m"], p["r"], p["t0"])})
    # cos t: antipodal peaks at 0 and pi whose terms cancel in bin 1.
    path = inputs / "antipodal_cos.json"
    path.write_text(json.dumps({"period": 2.0 * math.pi, "real_cosine_form": True,
                                "terms": [{"m": 1, "re": 1.0}]}))
    cases.append({"name": "antipodal_cos", "file": str(path),
                  "coeffs": [[1, 1.0, 0.0]], "real_cosine_form": True,
                  "sup_norm": 1.0, "peak_t": None, "g2": -1.0, "cancels": True})
    return cases


def analyze_signal(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """16-bit PCM samples and the true instantaneous frequency (Hz) of each.

    Harmonics 2..8 of a fundamental near 1.2 Hz that drifts by +-0.1 Hz over
    20-40 s, with the fundamental itself at 2% of the harmonics' scale and
    white noise at 1%.
    """
    rng = _rng(seed, 3)
    n = ANALYZE_RATE * ANALYZE_SECONDS
    t = np.arange(n) / ANALYZE_RATE
    drift_period = float(rng.uniform(20.0, 40.0))
    drift_phase = float(rng.uniform(0.0, 2.0 * math.pi))
    inst = 1.2 + 0.1 * np.sin(2.0 * math.pi * t / drift_period + drift_phase)
    phase = 2.0 * math.pi * np.cumsum(inst) / ANALYZE_RATE
    x = 0.02 * np.cos(phase)  # weak fundamental
    for k in HARMONICS:
        x += rng.uniform(0.3, 1.0) * np.cos(k * phase + rng.uniform(0, 2 * math.pi))
    x += 0.01 * rng.standard_normal(n)
    pcm = np.round(0.9 * 32767 * x / np.max(np.abs(x))).astype("<i2")
    return pcm, inst


def prepare_analyze(seed: int, inputs: Path) -> dict:
    pcm, inst = analyze_signal(seed)
    wav_path = inputs / "recording.wav"
    with wave.open(str(wav_path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(ANALYZE_RATE)
        wf.writeframes(pcm.tobytes())
    # The CLI's default STFT: window 2 s, hop 0.1 s, one frame per hop.
    hop = ANALYZE_RATE // 10
    n_frames = (pcm.size - 1) // hop + 1
    curve = inst[np.arange(n_frames) * hop]
    if_path = inputs / "if_curve.csv"
    if_path.write_text("".join(f"{v:.17g}\n" for v in curve))
    return {"wav": str(wav_path), "if_curve": str(if_path)}


def prepare(workload: str, seed: int, inputs: Path) -> dict:
    """Write the workload's inputs under `inputs`; return the plan."""
    inputs.mkdir(parents=True, exist_ok=True)
    plan = {"workload": workload, "seed": seed}
    if workload == "verify":
        plan["cases"] = prepare_verify(seed, inputs)
    elif workload == "analyze":
        plan["analyze"] = prepare_analyze(seed, inputs)
    elif workload != "synth":
        raise ValueError(f"unknown workload {workload!r}")
    (inputs / "expect.json").write_text(json.dumps(plan))
    return plan


def round_ops(plan: dict, r: int, out: Path) -> list[tuple[list[str], Path, int]]:
    """(argv, output path, work units) of each CLI call in round r.

    The work unit is a trial for synth, a ladder for verify and a recording
    for analyze.
    """
    workload = plan["workload"]
    if workload == "synth":
        batch_seed = plan["seed"] * SEED_STRIDE + r
        return [(["synth-bench", "--trials", str(SYNTH_BATCH),
                  "--seed", str(batch_seed), "--workers", "1",
                  "--out", str(out)], out, SYNTH_BATCH)]
    if workload == "verify":
        return [(["verify-theorem", "--signal", c["file"],
                  "--out", str(out / f"{c['name']}.jsonl")],
                 out / f"{c['name']}.jsonl", 1)
                for c in plan["cases"]]
    a = plan["analyze"]
    return [(["analyze", a["wav"], "--activation", "heps",
              "--epsilon", repr(ANALYZE_EPSILON), "--if-curve", a["if_curve"],
              "--half-width", repr(ANALYZE_HALF_WIDTH), "--out", str(out)],
             out, 1)]
