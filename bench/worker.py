"""One measuring process: set up, run whole rounds of requests, report.

Started by ``run.py`` as a fresh interpreter.  It imports dolharm from the
checkout's ``src``, builds the workload's inputs, runs the warm-up requests,
then times whole rounds until ``--budget`` seconds have passed.  Every
output is checked (untimed) against the oracle; a wrong one ends the
process with exit code 1.  The last stdout line is a JSON object with the
moment the first timed request started (``ready_ns``, CLOCK_MONOTONIC), the
request latencies, the attempted and failed counts and the peak RSS.

After every timed request, outside its timing, the worker times a fixed
reference kernel, and reports each latency also at the reference speed:
multiplied by REFERENCE_NS / (median kernel time over the nine requests
around it).  A shared 2-vCPU host can change speed by 20-40% over tens of
seconds; the kernel, run at the same moments, moves with it.  Setup time is
scaled by the kernel times of the first nine requests, the per-layer times
by those of the whole run.

With ``--trace 1`` rounds alternate untraced and traced; the traced ones
give the per-layer metrics and the ratio of their mean latency to the
untraced ones gives the tracing overhead.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from oracle import CheckError  # noqa: E402
import workloads  # noqa: E402

# The reference speed: the speed at which reference_kernel() takes 0.5 ms.
REFERENCE_NS = 500_000
_REF_MATRIX = [[Fraction((i * 7 + j * 3) % 11 + 1, (i + 2 * j) % 5 + 1) for j in range(5)]
               for i in range(5)]


def reference_kernel() -> int:
    """Time one fixed exact elimination of a 5x5 rational matrix, in ns.

    It does the kind of work dolharm does (Fraction arithmetic on small
    lists) and none of dolharm's code, so its time tracks how fast the
    machine runs Python at that moment.  The collector is off while it runs,
    so the size of dolharm's heap does not change its time.
    """
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        m = [row[:] for row in _REF_MATRIX]
        for c in range(5):
            pv = m[c][c]
            m[c] = [x / pv for x in m[c]]
            for i in range(5):
                if i != c and m[i][c]:
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return time.perf_counter_ns() - t0
    finally:
        gc.enable()


def speed_scales(kernel_ns: list[int], half: int = 4) -> list[float]:
    """REFERENCE_NS over the median kernel time of the 2 * half + 1 requests
    around each request (fewer at the ends)."""
    return [REFERENCE_NS / statistics.median(kernel_ns[max(0, i - half):i + half + 1])
            for i in range(len(kernel_ns))]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stream", type=int, default=0)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--rounds", type=int, default=0,
                    help="stop after this many timed rounds (0: run for --budget)")
    args = ap.parse_args(argv)

    from dolharm import cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write(f"dolharm imported from {cli.__file__}, not from {ROOT / 'src'}\n")
        return 2

    def call(argv, stdin):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin or "")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
        finally:
            sys.stdin = saved
        return code, out.getvalue(), err.getvalue()

    wl = workloads.make(args.workload, args.seed, args.stream, call)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    try:
        for req in wl.warmup():
            req.check(*call(req.argv, req.stdin))
        ready = time.monotonic_ns()
        deadline = ready + int(args.budget * 1e9)
        lat, kernel, traced = [], [], []
        attempted = failed = traced_requests = rounds = 0
        while True:
            tracing = tracer is not None and rounds % 2 == 1
            if tracing:
                tracer.install()
            for req in wl.round():
                if tracing:
                    tracer.request = traced_requests
                    traced_requests += 1
                t0 = time.perf_counter_ns()
                result = call(req.argv, req.stdin)
                t1 = time.perf_counter_ns()
                if tracing:
                    tracer.uninstall()
                lat.append(t1 - t0)
                kernel.append(reference_kernel())
                traced.append(tracing)
                failed += bool(req.check(*result))
                if tracing:
                    tracer.install()
                attempted += 1
            if tracing:
                tracer.uninstall()
            rounds += 1
            if args.rounds and rounds >= args.rounds:
                break
            # a traced run ends on a traced round so it has both kinds
            if time.monotonic_ns() >= deadline and (tracer is None or rounds % 2 == 0):
                break
    except CheckError as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        return 1
    scales = speed_scales(kernel)
    scaled = [x * f for x, f in zip(lat, scales)]
    plain = [i for i, t in enumerate(traced) if not t]
    out = {"ready_ns": ready,
           "setup_scale": REFERENCE_NS / statistics.median(kernel[:9]),
           "latencies_ns": [lat[i] for i in plain],
           "scaled_latencies_ns": [scaled[i] for i in plain],
           "attempted": attempted, "failed": failed,
           "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        out["layers"] = tracer.metrics(traced_requests,
                                       REFERENCE_NS / statistics.median(kernel))
        with_trace = [scaled[i] for i, t in enumerate(traced) if t]
        out["layers"]["trace.overhead_pct"] = 100.0 * (
            statistics.fmean(with_trace) / statistics.fmean(out["scaled_latencies_ns"]) - 1.0)
        if args.trace_out:
            tracer.dump(args.trace_out)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
