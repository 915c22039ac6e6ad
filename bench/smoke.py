"""Smoke test: every workload at a tiny size, with all checks on.

    python3 bench/smoke.py

For each workload it runs one worker for one timed round (two with tracing:
one untraced and one traced), so every output of the warm-up and of that
round passes through the oracle's checks, and the traced round must yield
every per-layer metric.  It then checks that ``run.py`` refuses, with a
nonzero exit and no result, a directory that holds the benchmark but no
dolharm sources.  Exit code 0 when all of that holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import LAYER_UNITS  # noqa: E402


def worker(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "0",
         "--budget", "0", "--rounds", str(1 + trace), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL {workload} trace={trace}: worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def composition() -> None:
    """The make-up of each workload's inputs, from the oracle alone."""
    sweep = workloads.make("sweep-grid", 1, 0, None)
    tally = workloads.sweep_cells([spec for _ in range(25) for spec in sweep.specs()])
    total = sum(tally.values())
    print("sweep-grid cells over 25 rounds (seed 1): "
          + ", ".join(f"{k}: {v / total:.1%}" for k, v in tally.items()))
    print(f"h11-scale: {len(workloads.ENTRIES) * len(workloads.SCALE_EXPONENTS)} "
          "requests per round")


def main() -> int:
    composition()
    for workload in workloads.WORKLOADS:
        plain = worker(workload, 0)
        share = Fraction(plain["failed"], plain["attempted"])
        print(f"ok {workload}: {plain['attempted']} requests checked, failed share {share}")
        traced = worker(workload, 1)
        missing = set(LAYER_UNITS) - set(traced["layers"])
        if missing:
            raise SystemExit(f"FAIL {workload}: no per-layer metric {sorted(missing)}")
        print(f"ok {workload} traced: overhead {traced['layers']['trace.overhead_pct']:.1f}%")
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        bare = Path(tmp)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, str(bare / HERE.name / "run.py"), "--workload", "h11-scale",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=bare,
            timeout=170)
        if proc.returncode == 0 or proc.stdout.strip():
            raise SystemExit("FAIL run.py gave a result without dolharm sources")
        print(f"ok without sources: exit {proc.returncode}")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
