"""fundcomp benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {synth,verify,analyze} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from `src/`.
The run writes its inputs and outputs under `.perfbench_work/` and removes
them before it exits. The last line of standard output is
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
`correct` is false, and the exit code 1, when a CLI call fails or an output
check does. See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402

SETUP_REPEATS = 7
# The worker measures for --seconds, then finishes its round (analyze's, the
# longest, takes about 6 s); past this grace it is stopped.
WORKER_GRACE_S = 90
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "FUNDCOMP_WORKERS")

IMPORT_PROBE = ("import time; t = time.perf_counter(); import fundcomp.cli; "
                "print(time.perf_counter() - t)")


def program_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def setup_seconds(env: dict) -> float:
    """Median time for a fresh interpreter to import fundcomp.cli.

    One unmeasured import first compiles the byte code, which a fresh
    checkout lacks and an installed package ships with; it is written even
    where PYTHONDONTWRITEBYTECODE is set, so that every caller measures the
    same thing.
    """
    env = {k: v for k, v in env.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    for i in range(SETUP_REPEATS + 1):
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                               capture_output=True, text=True, check=True,
                               timeout=60)
        if i:
            times.append(float(probe.stdout))
    return statistics.median(times)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def run_worker(plan_path: Path, out: Path, seconds: float, trace: int,
               env: dict) -> tuple[dict, str]:
    """The worker's result and everything the CLI printed."""
    result_path = out.parent / "result.json"
    log_path = out.parent / "worker.log"
    with open(log_path, "w") as log:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(out),
             str(result_path), str(seconds), str(trace)],
            env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            rc = proc.wait(timeout=seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = None
    printed = log_path.read_text(errors="replace")
    if rc != 0:
        sys.stderr.write(printed[-4000:])
        raise SystemExit(f"perfbench: worker failed ({'timed out' if rc is None else f'exit {rc}'})")
    return json.loads(result_path.read_text()), printed


# -------------------------------------------------------------- output checks

def check_outputs(plan: dict, rounds: list[dict]) -> None:
    """Check the output of every call that exited 0."""
    ok_ops = [op for rnd in rounds for op in rnd["ops"] if op["rc"] == 0]
    workload = plan["workload"]
    if workload == "synth":
        by_seed = {}
        for op in ok_ops:
            seed = int(op["argv"][op["argv"].index("--seed") + 1])
            if seed not in by_seed:
                by_seed[seed] = oracles.synth_ratios(seed, workloads.SYNTH_BATCH)
            oracles.check_synth_output(Path(op["out"]), by_seed[seed])
        if by_seed:
            oracles.check_synth_pooled(np.concatenate(list(by_seed.values())))
    elif workload == "verify":
        cases = {c["file"]: c for c in plan["cases"]}
        integrals = {}
        for op in ok_ops:
            case = cases[op["argv"][op["argv"].index("--signal") + 1]]
            if case["name"] not in integrals:
                integrals[case["name"]] = oracles.verify_oracle(case, workloads.EPS_LADDER)
            oracles.check_verify_output(Path(op["out"]), case, workloads.EPS_LADDER,
                                        integrals[case["name"]])
    elif ok_ops:
        # The calls share one directory, which holds the last call's output.
        # Every call gets the same input, so each call's files must be
        # byte-identical to those the oracles check.
        last = ok_ops[-1]
        for op in ok_ops:
            oracles.require(op["digests"] == last["digests"],
                            f"analyze outputs differ between identical calls: "
                            f"{op['digests']} vs {last['digests']}")
        a = plan["analyze"]
        curve = np.array(Path(a["if_curve"]).read_text().split(), dtype=float)
        out = Path(last["out"])
        oracles.check_analyze_output(
            out, Path(a["wav"]), curve, workloads.ANALYZE_EPSILON,
            workloads.ANALYZE_HALF_WIDTH,
            json.loads((out / "report.json").read_text()))


def verdict(plan: dict, rounds: list[dict]) -> tuple[bool, int]:
    """(correct, failed): correct only if every CLI call exited 0 and every
    output passed its check."""
    ops = [op for rnd in rounds for op in rnd["ops"]]
    failed = sum(op["rc"] != 0 for op in ops)
    if failed:
        print(f"perfbench: {failed} of {len(ops)} CLI calls failed: exit codes "
              f"{sorted({op['rc'] for op in ops} - {0})}", file=sys.stderr)
    try:
        check_outputs(plan, rounds)
    except oracles.CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        return False, failed
    return failed == 0, failed


# -------------------------------------------------------------------- metrics

# Work units and wall time count only calls that exited 0, so that a call
# that fails fast cannot raise the throughput.

def _ok(rnd: dict) -> list[dict]:
    return [op for op in rnd["ops"] if op["rc"] == 0]


def _units(rnd: dict) -> int:
    return sum(op["units"] for op in _ok(rnd))


def _per_unit(value: float, units: int) -> float:
    return value / units if units else 0.0


def _seconds_per_unit(rnd: dict) -> float:
    return _per_unit(sum(op["wall_s"] for op in _ok(rnd)), _units(rnd))


def end_to_end(rounds: list[dict], setup_s: float, result: dict) -> dict:
    """Units per second is the work of the whole run over its wall time, less
    the first round, which also pays the fresh process's one-time costs. The
    machine's speed drifts in streaks of tens of seconds, and a median over
    rounds would snap to whichever speed held for most of the run.
    Peak RSS adds the peak of the largest process the program started, if
    any, to the workload process's.
    """
    timed = rounds[1:] or rounds
    wall = sum(op["wall_s"] for r in timed for op in _ok(r))
    units = sum(_units(r) for r in timed)
    rss_kb = result["maxrss_self_kb"] + result["maxrss_children_kb"]
    return {"setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_kb / 1024.0, "MB"),
            "units_per_s": (units / wall if wall else 0.0, "1/s")}


# per-layer self times: metric name -> traced function
SELF_TIMES = {
    "experiments.generate_synthetic_s": "experiments.generate_synthetic",
    "experiments.trial_ratios_self_s": "experiments.trial_ratios",
    "experiments.run_trials_self_s": "experiments.run_trials",
    "signal_model.evaluate_s": "signal_model.evaluate",
    "signal_model.find_global_maxima_s": "signal_model.find_global_maxima",
    "signal_model.sup_norm_s": "signal_model.sup_norm",
    "theory.adaptive_quadrature_s": "theory.adaptive_quadrature",
    "theory.numeric_fundamental_integral_self_s": "theory.numeric_fundamental_integral",
    "theory.scaling_verification_self_s": "theory.scaling_verification",
    "activations.apply_s": "activations.apply",
    "activations.h_eps_s": "activations.h_eps",
    "spectral.dft_s": "spectral.dft",
    "spectral.fundamental_energy_ratio_s": "spectral.fundamental_energy_ratio",
    "spectral.stft_s": "spectral.stft",
    "spectral.dynamic_range_clip_s": "spectral.dynamic_range_clip",
    "spectral.band_energy_ratio_s": "spectral.band_energy_ratio",
    "spectral.spectrogram_to_csv_s": "spectral.spectrogram_to_csv",
    "spectral.spectrum_to_csv_s": "spectral.spectrum_to_csv",
    "spectral.spectrogram_to_pgm_s": "spectral.spectrogram_to_pgm",
    "io.read_signal_s": "io.read_signal",
    "io.read_wav_s": "io.read_wav",
    "io.read_poly_spec_json_s": "io.read_poly_spec_json",
    "io.write_signal_csv_s": "io.write_signal_csv",
    "cli.main_self_s": "cli.main",
}
CALL_COUNTS = {
    "signal_model.evaluate_calls": "signal_model.evaluate",
    "signal_model.find_global_maxima_calls": "signal_model.find_global_maxima",
    "signal_model.sup_norm_calls": "signal_model.sup_norm",
    "theory.adaptive_quadrature_calls": "theory.adaptive_quadrature",
}
COMMANDS = ("cli.cmd_synth_bench", "cli.cmd_verify_theorem", "cli.cmd_analyze")


def per_layer(rounds: list[dict]) -> dict:
    """Per-unit layer metrics: times are medians over the traced rounds,
    counts come from the first traced round, whose inputs depend on the seed
    alone."""
    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds if not r["traced"]]

    def per_unit_median(value_of) -> float:
        return statistics.median(_per_unit(value_of(r["trace"]), _units(r))
                                 for r in traced)

    out = {}
    for metric, key in SELF_TIMES.items():
        out[metric] = (per_unit_median(lambda t, k=key: t["self_s"].get(k, 0.0)), "s/unit")
    out["cli.command_self_s"] = (per_unit_median(
        lambda t: sum(t["self_s"].get(k, 0.0) for k in COMMANDS)), "s/unit")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (per_unit_median(
            lambda t, p=layer + ".": sum(v for k, v in t["self_s"].items()
                                         if k.startswith(p))), "s/unit")

    first = traced[0]
    t, units = first["trace"], _units(first)
    for metric, key in CALL_COUNTS.items():
        out[metric] = (_per_unit(t["calls"].get(key, 0), units), "count/unit")
    out["signal_model.evaluate_points"] = (_per_unit(t["evaluate_points"], units),
                                           "count/unit")
    out["theory.quadrature_panels"] = (_per_unit(t["quadrature_panels"], units),
                                       "count/unit")
    out["spectral.stft_alloc_mb"] = (t["stft_peak_bytes"] / 2 ** 20, "MB")
    out["io.output_bytes"] = (_per_unit(sum(op["output_bytes"] for op in _ok(first)),
                                        units), "B/unit")

    untraced_s = statistics.median(_seconds_per_unit(r) for r in untraced)
    traced_s = statistics.median(_seconds_per_unit(r) for r in traced)
    out["trace.untraced_s"] = (untraced_s, "s/unit")
    out["trace.traced_s"] = (traced_s, "s/unit")
    out["trace.self_sum_s"] = (per_unit_median(lambda t: sum(t["self_s"].values())),
                               "s/unit")
    out["trace.overhead_share"] = (traced_s / untraced_s - 1.0 if untraced_s else 0.0,
                                   "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "fundcomp" / "cli.py").is_file():
        print(f"perfbench: no fundcomp sources under {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    work_root = ROOT / ".perfbench_work"
    work = work_root / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        plan = workloads.prepare(args.workload, args.seed, work / "inputs")
        env = program_env()
        setup_s = setup_seconds(env) if args.trace == 0 else None
        result, printed = run_worker(work / "inputs" / "expect.json", work / "out",
                                     args.seconds, args.trace, env)
        rounds = result["rounds"]
        attempted = sum(len(rnd["ops"]) for rnd in rounds)
        correct, failed = verdict(plan, rounds)
        if failed:
            sys.stderr.write(printed[-4000:])
        if args.trace:
            metrics = per_layer(rounds)
        else:
            metrics = end_to_end(rounds, setup_s, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    print("environment " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
