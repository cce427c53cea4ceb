"""Fast tests of the benchmark itself: the oracles on closed-form cases, the
checks on tampered outputs and failed calls, and a one-round smoke run of
every workload.

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import os
import shutil
import subprocess
import sys
import wave
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# f = e^{it} (1 + e^{it})^2 = 2 e^{2it} (1 + cos t): |f| = 2 + 2 cos t, sup 4
# at t = 0, so h_eps(|f|/4) = (2 / (1 + eps)) / (1 - a cos t) with
# a = (1 - eps) / (1 + eps), whose bin-1 integral is known in closed form.
SQUARE = [[1, 1.0, 0.0], [2, 2.0, 0.0], [3, 1.0, 0.0]]


def square_bin1(eps):
    a = (1.0 - eps) / (1.0 + eps)
    root = math.sqrt(1.0 - a * a)
    return 2.0 / (1.0 + eps) * 2.0 * math.pi / root * (1.0 - root) / a


# ------------------------------------------------------------------ oracles

def test_unit_cosine_ratios():
    t = np.arange(oracles.GRID) / oracles.GRID
    # 1 + cos: abs and relu leave it unchanged, all energy above DC in bin 1
    shifted = oracles.activation_ratios((1.0 + np.cos(2 * np.pi * t))[None, :])
    assert shifted[0, :2] == pytest.approx([1.0, 1.0], abs=1e-12)
    # cos 3t: every activation keeps the period 1/3, so bin 1 stays empty
    third = oracles.activation_ratios(np.cos(2 * np.pi * 3 * t)[None, :])
    assert np.all(np.abs(third) < 1e-20)


def test_draw_trial_contract():
    for i in range(20):
        freqs, coeffs = oracles.draw_trial(5, i)
        assert 5 <= freqs.size <= 100
        assert np.unique(freqs).size == freqs.size
        assert freqs.min() >= 2 and freqs.max() <= 250
        assert math.gcd(*freqs.tolist()) == 1
        assert np.all((np.abs(coeffs) > 0) & (np.abs(coeffs) <= 1))
    a, b = oracles.draw_trial(5, 3), oracles.draw_trial(5, 3)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


@pytest.mark.parametrize("eps", workloads.EPS_LADDER)
def test_trapezoid_matches_closed_form(eps):
    facts = workloads._peak_facts([1, 2, 3], [1.0, 2.0, 1.0], 0.0)
    assert facts["sup_norm"] == 4.0 and facts["g2"] == -2.0
    n = oracles.grid_size(SQUARE, 4.0, -2.0, eps)
    got = oracles.trapezoid_bin1(SQUARE, False, 4.0, eps, n)
    assert abs(got - square_bin1(eps)) <= 1e-11 * square_bin1(eps)


def test_cancellation_and_two_exponential_peak():
    n = oracles.grid_size([[1, 1.0, 0.0]], 1.0, -1.0, 1e-5)
    assert abs(oracles.trapezoid_bin1([[1, 1.0, 0.0]], True, 1.0, 1e-5, n)) < 1e-9
    # |e^{it} + e^{2it}| = 2 cos(t/2): g''(0) = -1/2
    facts = workloads._peak_facts([1, 2], [1.0, 1.0], 0.0)
    assert facts["g2"] == -0.5
    pred = oracles.peak_prediction(facts, 1e-4)
    assert pred == pytest.approx(math.pi / 1e-2 / math.sqrt(1 / 8))


def test_band_ratio_of_a_tone():
    rate = 400
    x = np.cos(2 * np.pi * 50.0 * np.arange(20 * rate) / rate)
    frames = (x.size - 1) // (rate // 10) + 1
    on = oracles.band_ratio(x, rate, np.full(frames, 50.0), 5.0)
    off = oracles.band_ratio(x, rate, np.full(frames, 80.0), 5.0)
    # what leaks out of the band comes from the signal's cut-off ends
    assert on > 0.999 and off < 1e-4


def test_h_eps_normalized():
    got = oracles.h_eps_normalized(np.array([0.0, 0.25, -0.5]), 0.1)
    assert got == pytest.approx([1.0, 1.0 / (1.0 - 0.45), 10.0], rel=1e-15)


def test_read_wav_samples(tmp_path):
    path = tmp_path / "x.wav"
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(8)
        wf.writeframes(np.array([0, 16384, -32768], dtype="<i2").tobytes())
    x, rate = oracles.read_wav_samples(path)
    assert rate == 8 and x.tolist() == [0.0, 0.5, -1.0]


# ------------------------------------------------- checks on tampered output

def synth_output(tmp_path, trials=12, seed=4):
    out = tmp_path / "synth"
    subprocess.run(
        [sys.executable, "-m", "fundcomp.cli", "synth-bench", "--trials", str(trials),
         "--seed", str(seed), "--out", str(out)],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        check=True, capture_output=True, timeout=60)
    return out, oracles.synth_ratios(seed, trials)


def test_synth_check_accepts_and_rejects(tmp_path):
    out, ratios = synth_output(tmp_path)
    oracles.check_synth_output(out, ratios)
    summary = json.loads((out / "summary.json").read_text())
    summary["results"]["heps_0.1"]["median"] *= 1 + 1e-7
    (out / "summary.json").write_text(json.dumps(summary))
    with pytest.raises(oracles.CheckFailed, match="heps_0.1 median"):
        oracles.check_synth_output(out, ratios)


def test_pooled_check_rejects_relu_not_smallest():
    ratios = np.tile([0.003, 0.0007, 0.003, 0.003, 0.003], (10, 1))
    oracles.check_synth_pooled(ratios)
    ratios[:, 1] = 0.004
    with pytest.raises(oracles.CheckFailed, match="ReLU"):
        oracles.check_synth_pooled(ratios)


def test_verify_check_rejects_wrong_integral(tmp_path):
    case = {"coeffs": SQUARE, "real_cosine_form": False, "sup_norm": 4.0,
            "g2": -2.0, "peak_t": 0.0, "cancels": False}
    ladder = (1e-2, 1e-3)
    ints = [square_bin1(e) for e in ladder]
    rungs = [{"epsilon": e, "numeric_integral": [v, 0.0],
              "prediction": [oracles.peak_prediction(case, e).real, 0.0]}
             for e, v in zip(ladder, ints)]
    summary = {"summary": True, "passed": True, "prediction_cancels": False}
    path = tmp_path / "r.jsonl"
    path.write_text("".join(json.dumps(x) + "\n" for x in rungs + [summary]))
    oracles.check_verify_output(path, case, ladder, ints)
    rungs[1]["numeric_integral"][0] += 1e-4
    path.write_text("".join(json.dumps(x) + "\n" for x in rungs + [summary]))
    with pytest.raises(oracles.CheckFailed, match="trapezoid"):
        oracles.check_verify_output(path, case, ladder, ints)


def test_analyze_check_rejects_differing_calls():
    ops = [{"rc": 0, "out": "o", "digests": {"spectrogram.pgm": d}} for d in "aab"]
    plan = {"workload": "analyze"}
    with pytest.raises(oracles.CheckFailed, match="differ between identical calls"):
        run.check_outputs(plan, [{"ops": ops}])


def test_failed_call_makes_run_incorrect(tmp_path):
    plan = workloads.prepare("verify", 3, tmp_path / "inputs")
    # a polynomial file the program must refuse (exit 3)
    Path(plan["cases"][0]["file"]).write_text("{")
    result, _ = run.run_worker(tmp_path / "inputs" / "expect.json", tmp_path / "out",
                               0.01, 0, run.program_env())
    rounds = result["rounds"]
    assert [op["rc"] for op in rounds[0]["ops"]] == [3] + [0] * 5
    assert run.verdict(plan, rounds) == (False, 1)
    # the failed call's work and time do not count
    ok = rounds[0]["ops"][1:]
    want = len(ok) / sum(op["wall_s"] for op in ok)
    got = run.end_to_end(rounds, 0.1, result)["units_per_s"][0]
    assert got == pytest.approx(want, rel=1e-12)


# --------------------------------------------------------------- smoke runs

def run_bench(cwd, workload, trace, seconds="0.01"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not list((ROOT / ".perfbench_work").glob(f"{workload}-3-{trace}-*"))


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "synth", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
