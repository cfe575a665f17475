"""Benchmark command: run one workload in a fresh worker process and print
its figures as one JSON line.

    python3 perfbench/run.py --workload tracking --seed 0 --seconds 20 --trace 0

Workloads: tracking, modulation, search (see perfbench/README.md). With
--trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 an untraced worker runs first and then a traced one, and the
line holds the per-layer metrics and the tracing overhead. The workers run
with one BLAS/OpenMP thread, each for half the time in a traced run.
A failed check, a worker error or a worker
over its time limit ends the command with a nonzero code.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "step_p50_us": "us", "loss": "1",
                    "loss_max": "1"}


def unit_of(name: str) -> str:
    """Unit of a metric: per-layer names are <module>.<figure>[.<variant>]."""
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    figure = name.split(".")[1]
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_s", "s"),
                         ("_bytes", "bytes"), ("gap_max", "1")):
        if figure.endswith(suffix):
            return unit
    return "count"


def run_worker(args, trace: int, seconds: float, deadline: float) -> tuple[dict, float]:
    """Start a worker, wait for it, return (its result, set-up seconds)."""
    out = HERE / "runs" / f"{args.workload}-seed{args.seed}-trace{trace}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=sys.stderr, cwd=ROOT)
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {args.workload} worker passed the {DEADLINE_S:.0f} s limit")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise SystemExit(f"error: {args.workload} worker exited with code {code}")
    result = json.loads((out / "result.json").read_text())
    return result, result["setup_end"] - t_spawn


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("tracking", "modulation", "search"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "icpmod" / "harness.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'icpmod'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    # SIGTERM unwinds through run_worker, which then stops its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    # A traced run splits its time between an untraced and a traced worker.
    seconds = args.seconds / 2 if args.trace else args.seconds
    plain, setup_s = run_worker(args, 0, seconds, deadline)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if args.trace:
        traced, _ = run_worker(args, 1, seconds, deadline)
        result = traced
        metrics = {k: v for k, v in traced["metrics"].items()
                   if k not in END_TO_END_UNITS}
        metrics["trace.overhead_s"] = (traced["metrics"]["wall_s"]
                                       - plain["metrics"]["wall_s"])
    else:
        result = plain
        metrics = dict(plain["metrics"], setup_s=setup_s, peak_rss_mb=rss_mb)
    print(json.dumps({
        "correct": True, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
