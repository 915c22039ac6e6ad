"""The benchmark's tracer patches dolharm functions by name and reads fields
of their results.  Run it in-process over one request of each kind it traces
so that a renamed function or a dropped field fails here, before a traced
benchmark run does."""
from __future__ import annotations

import sys
from pathlib import Path

from dolharm.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
from tracer import LAYER_UNITS, Tracer  # noqa: E402


REQUESTS = [
    ["ak-scan", "--entry", "primary_kodaira_I", "--param", "alpha=30", "--json"],
    ["report", "--entry", "inoue_sm", "--param", "alpha=1", "--param", "beta=1",
     "--metric", "1,2,1/3,1/5", "--backend", "exact", "--json"],
    ["h11", "--entry", "secondary_kodaira", "--metric", "1,2,1/3,0", "--json"],
    # a jump on the float backend alone: its witness is re-verified exactly
    ["h11", "--entry", "nilmanifold_I", "--metric", "1,2,1/3,1/5", "--backend", "float",
     "--json"],
    # rank M = 2: the exact witness is the basic solution projected off ker M
    ["h11", "--entry", "nilmanifold_I", "--metric", "1,2,1/3,1/5", "--backend", "exact",
     "--json"],
    ["sweep", "--entry", "secondary_kodaira", "--r", "1", "--s", "1",
     "--u-re=-1/2:1/2", "--u-im=-1/2:1/2", "--steps", "3"],
]


def test_tracer_installs_and_reads_every_layer(capsys):
    tracer = Tracer()
    tracer.install()
    codes = []
    try:
        for k, argv in enumerate(REQUESTS):
            tracer.request = k
            codes.append(main(argv))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(REQUESTS)
    layers = tracer.metrics(requests=len(REQUESTS))
    assert set(layers) | {"trace.overhead_pct"} == set(LAYER_UNITS)
    assert layers["decision.ak_ms_per_op"] > 0
    assert layers["decision.symplectic_ms_per_op"] > 0
    assert layers["linalg.rref_calls_per_decision"] > 0
    assert layers["linalg.float_ms_per_decision"] > 0
    assert layers["problem.sweep_self_ms_per_op"] > 0
    traced = {(span[5], span[4]) for span in tracer.spans}
    assert ("decision.verify_witness", 3) in traced
    assert ("decision.verify_witness", 4) in traced
    assert ("problem.sweep_csv", 5) in traced
    assert not tracer._patched
