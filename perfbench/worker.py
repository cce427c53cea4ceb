"""Run one workload's CLI calls in a fresh process and record what happened.

Started by run.py so that the process's peak resident memory, and that of any
process the program starts, belongs to the program alone. Untraced, it repeats
whole rounds until the time is up. Traced, it runs each round twice, first
untraced and then traced, so that the tracing overhead is measured on the
same inputs.

    python3 perfbench/worker.py PLAN.json OUT_DIR RESULT.json SECONDS TRACE
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402
from workloads import round_ops  # noqa: E402

from fundcomp import cli  # noqa: E402


def _output_bytes(path: Path) -> int:
    if not path.exists():  # a call that failed before writing
        return 0
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _digests(out: Path) -> dict:
    """SHA-256 of each file in an output directory."""
    digests = {}
    for path in sorted(out.iterdir()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                h.update(block)
        digests[path.name] = h.hexdigest()
    return digests


def run_round(plan: dict, r: int, out: Path, tracer: Tracer | None) -> dict:
    ops = []
    if tracer is not None:
        tracer.install()
    try:
        for argv, path, units in round_ops(plan, r, out):
            if path.is_dir():
                shutil.rmtree(path)  # analyze's shared directory: no stale files
            out.mkdir(parents=True, exist_ok=True)
            start = perf_counter()
            rc = cli.main(argv)
            wall = perf_counter() - start
            op = {"argv": argv, "out": str(path), "rc": rc, "wall_s": wall,
                  "units": units, "output_bytes": _output_bytes(path)}
            if plan["workload"] == "analyze" and rc == 0:
                # the next call's files replace these
                op["digests"] = _digests(path)
            ops.append(op)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"traced": tracer is not None, "ops": ops,
            "trace": tracer.snapshot() if tracer is not None else None}


def main(argv: list[str]) -> int:
    plan_path, out_root, result_path, seconds, trace = argv
    plan = json.loads(Path(plan_path).read_text())
    out_root = Path(out_root)
    # analyze writes ~66 MB per call; its calls share one directory
    shared = plan["workload"] == "analyze"
    rounds = []
    start = perf_counter()
    r = 0
    while True:
        for tracer in (None, Tracer()) if trace == "1" else (None,):
            name = "analyze" if shared else f"r{r}" + ("-traced" if tracer else "")
            rounds.append(run_round(plan, r, out_root / name, tracer))
        r += 1
        if perf_counter() - start >= float(seconds):
            break
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    Path(result_path).write_text(json.dumps({
        "rounds": rounds, "maxrss_self_kb": own, "maxrss_children_kb": children}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
