"""Steadiness check: repeat the benchmark and compare the spread with the bounds.

    python3 bench/steady.py                    # 10 seeds x every workload
    python3 bench/steady.py --runs 5 --workloads h11-scale --sets 2

Runs ``run.py`` --runs times per workload with seeds seed-base, seed-base+1,
..., alternating the workload order from one seed to the next.  For each
workload and end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
against the metric's bound from BENCHMARK.json; ``!`` marks a spread above
a third of the bound.  The share of failed requests must be the same in
every run.  With ``--sets 2`` the whole sequence runs twice and the second
set's medians are compared with the first's.  The summary is also written
to .bench_out/steady-<time>.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          cwd=ROOT, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(workloads, args, seconds) -> dict:
    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            results[w].append(one_run(w, args.seed_base + i, seconds))
            r = results[w][-1]
            print(f"  seed {args.seed_base + i} {w}: attempted {r['attempted']} "
                  f"failed {r['failed']}", flush=True)
    return results


def summarize(bench: dict, results: dict) -> dict:
    out = {}
    for w, runs in results.items():
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        print(f"{w}: {len(runs)} runs, failed share "
              + ", ".join(str(s) for s in sorted(shares))
              + ("" if len(shares) == 1 else "  ! differs between runs"))
        out[w] = {"failed_shares": sorted(str(s) for s in shares)}
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "!" if spread > m["bound"] / 3 else " "
            print(f"  {m['name']:12s} median {med:11.5g} {m['unit']:4s} "
                  f"q1 {q1:11.5g} q3 {q3:11.5g} spread {spread:6.3f} "
                  f"bound {m['bound']:.2f} {flag}")
            out[w][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                 "values": vals}
    return out


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description="repeat the benchmark and report its spread")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    args = ap.parse_args()
    sets = []
    for k in range(args.sets):
        print(f"set {k + 1}", flush=True)
        sets.append(summarize(bench, run_set(args.workloads, args, args.seconds)))
    if args.sets == 2:
        print("second set against the first (positive: worse)")
        for w in args.workloads:
            for m in bench["end_to_end"]:
                a, b = sets[0][w][m["name"]]["median"], sets[1][w][m["name"]]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                flag = "!" if worse > m["bound"] else " "
                print(f"  {w:12s} {m['name']:12s} {worse:+7.3f} bound {m['bound']:.2f} {flag}")
            if sets[0][w]["failed_shares"] != sets[1][w]["failed_shares"]:
                print(f"  {w}: failed shares differ between the sets !")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps({"seconds": args.seconds, "sets": sets}, indent=1))
    print(f"written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
