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


def test_tracer_installs_and_reads_every_layer(capsys):
    tracer = Tracer()
    tracer.install()
    try:
        codes = [main(["ak-scan", "--entry", "primary_kodaira_I", "--param", "alpha=30",
                       "--json"]),
                 main(["report", "--entry", "inoue_sm", "--param", "alpha=1",
                       "--param", "beta=1", "--metric", "1,2,1/3,1/5", "--backend", "exact",
                       "--json"]),
                 main(["h11", "--entry", "secondary_kodaira", "--metric", "1,2,1/3,0",
                       "--json"])]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0, 0]
    layers = tracer.metrics(requests=3)
    assert set(layers) | {"trace.overhead_pct"} == set(LAYER_UNITS)
    assert layers["decision.ak_ms_per_op"] > 0
    assert layers["decision.symplectic_ms_per_op"] > 0
    assert layers["linalg.rref_calls_per_decision"] > 0
    assert not tracer._patched
