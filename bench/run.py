"""dolharm benchmark: one run of one workload.

    python3 bench/run.py --workload sweep-grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run starts WORKERS fresh worker
processes one after another (single-threaded: OMP/OpenBLAS/MKL limited to
one thread), each measuring for seconds / WORKERS, and pools their samples.
The last stdout line is the result:

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json:
setup_s (median over the workers of the time from process spawn to the
first timed request), ops_per_s, op_p50_ms, op_tail_ms (the fixed
percentile TAIL_PERCENTILE of the workload) and peak_rss_mb (median over
the workers).  Times are given at the reference speed (see worker.py); the
unscaled figures go to stderr.  With ``--trace 1`` a single worker alternates untraced and
traced rounds and the metrics are the per-layer ones, plus the tracing
overhead; its spans go to .bench_out/.

Exit code 0 with a result, 1 when an output was wrong or a worker failed,
2 when the checkout holds no dolharm sources.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-grid", "report-cold", "h11-scale")
WORKERS = 4
# highest percentile that keeps at least ten samples beyond it at the
# sample counts these workloads reach in a 30 s run (see README)
TAIL_PERCENTILE = {"sweep-grid": 90, "report-cold": 95, "h11-scale": 99}
DEADLINE_S = 170
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
         "peak_rss_mb": "MB"}


def percentile(sorted_values, p: float):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def spawn(args, stream: int, budget: float, deadline: float, trace_out=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--stream", str(stream), "--budget", str(budget),
           "--trace", str(args.trace)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    spawned = time.monotonic_ns()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {stream} exited {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = (out["ready_ns"] - spawned) / 1e9
    return out


def end_to_end(workload: str, runs: list[dict]) -> dict:
    """The end-to-end metrics, with every time at the reference speed."""
    lat = sorted(x for r in runs for x in r["scaled_latencies_ns"])
    tail, beyond = percentile(lat, TAIL_PERCENTILE[workload])
    if beyond < 10:
        sys.stderr.write(f"warning: only {beyond} samples beyond "
                         f"p{TAIL_PERCENTILE[workload]} ({len(lat)} samples)\n")
    return {
        "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in runs),
        "ops_per_s": len(lat) / (sum(lat) / 1e9),
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_tail_ms": tail / 1e6,
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in runs) / 1024,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="dolharm benchmark, one run")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dolharm" / "__init__.py").is_file():
        sys.stderr.write(f"no dolharm sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            trace_out = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            runs = [spawn(args, 0, args.seconds, deadline, trace_out)]
            metrics = runs[0]["layers"]
            units = LAYER_UNITS
            sys.stderr.write(f"spans written to {trace_out}\n")
        else:
            runs = [spawn(args, i, args.seconds / WORKERS, deadline)
                    for i in range(WORKERS)]
            metrics = end_to_end(args.workload, runs)
            units = UNITS
            raw = sorted(x for r in runs for x in r["latencies_ns"])
            sys.stderr.write(
                f"  unscaled: p50 {statistics.median(raw) / 1e6:.4g} ms, "
                f"{len(raw) / (sum(raw) / 1e9):.4g} ops/s, setup "
                + " ".join(f"{r['setup_s']:.3f}" for r in runs) + " s\n")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"run failed: {exc}\n")
        return 1
    result = {
        "correct": True,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    for k, v in metrics.items():
        sys.stderr.write(f"  {args.workload:12s} {k:40s} {v:14.6g} {units[k]}\n")
    sys.stderr.write(f"  {args.workload:12s} attempted {result['attempted']}, "
                     f"failed {result['failed']}\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
