"""Per-layer tracing, done from outside the program.

``Tracer.install`` replaces public functions of the dolharm modules (and a
few methods) by wrappers; ``uninstall`` puts the originals back.  A wrapper
either records a span -- (layer, start, end, parent, request, function) -- or only
counts calls, for the functions called so often that a span would swamp
them (the QI arithmetic, ``wedge``).  For the ``lru_cache`` functions the
wrapper also reads ``cache_info`` to count hits.  Spans stay in memory;
``dump`` writes them out once the run is over.

A function imported by name into another module (``from .linalg import
rank``) is patched in every module that holds it, so the callers' own
references see the wrapper too.

Layer metrics are computed from the spans: a layer's time is the summed
duration of its outermost spans, and a span's self time is its duration
minus that of its child spans.  ``per_decision`` metrics divide by the
number of ``decide_h11`` calls and ``per_op`` metrics by the number of
requests.
"""
from __future__ import annotations

import json
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter_ns

# (module, attribute, layer); in COUNTS an attribute "Class.method" patches a class.
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "_emit", "cli.render"),
    ("problem", "load_problem", "problem.parse"),
    ("problem", "parse_problem", "problem.parse"),
    ("problem", "build_run_report", "problem.report"),
    ("problem", "validation_section", "problem.report"),
    ("problem", "structure_tables_section", "problem.report"),
    ("problem", "decision_section", "problem.report"),
    ("problem", "cohomology_section", "problem.report"),
    ("problem", "ak_section", "problem.report"),
    ("problem", "symplectic_section", "problem.report"),
    ("problem", "sweep_csv", "problem.sweep"),
    ("catalog", "catalog", "catalog.build"),
    ("lie", "validate_d_squared", "lie.validate"),
    ("decision", "decide_h11", "decision.decide"),
    ("decision", "assemble_system", "decision.assemble"),
    ("decision", "verify_witness", "decision.verify"),
    ("decision", "almost_kahler_feasible", "decision.ak"),
    ("decision", "symplectic_feasible", "decision.symplectic"),
    ("decision", "_structure_tables", "decision.tables"),
    ("cohomology", "ce_cohomology", "cohomology.ce"),
    ("hermitian", "hodge_star", "hermitian.hodge_star"),
    ("hermitian", "asd_form_scaled", "hermitian.asd"),
    ("hermitian", "asd_basis_scaled", "hermitian.asd"),
    ("exterior", "change_frame", "exterior.change_frame"),
    ("linalg", "rref", "linalg.exact"),
    ("linalg", "rank", "linalg.exact"),
    ("linalg", "solve", "linalg.exact"),
    ("linalg", "kernel", "linalg.exact"),
    ("linalg", "invert_matrix", "linalg.exact"),
    ("linalg", "min_norm_solution", "linalg.exact"),
    ("linalg", "symmetric_signature", "linalg.exact"),
    ("linalg", "matmul", "linalg.exact"),
    ("linalg", "matvec", "linalg.exact"),
    ("linalg", "float_rank", "linalg.float"),
    ("linalg", "float_lstsq", "linalg.float"),
]

COUNTS = [
    ("exterior", "wedge", "exterior.wedge"),
    ("bidegree", "BidegreeCalculus.__init__", "bidegree.calculus_build"),
    ("bidegree", "BidegreeCalculus.dc", "bidegree.dc"),
] + [("scalars", f"QI.{op}", "scalars.qi")
     for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                "__truediv__", "__rtruediv__", "__neg__", "conjugate", "abs2")]

CACHED = {"decision._structure_tables": "decision.table",
          "cohomology.ce_cohomology": "cohomology.ce"}


LAYER_UNITS = {
    "scalars.qi_ops_per_op": "count/op",
    "linalg.rref_calls_per_decision": "count/decision",
    "linalg.exact_ms_per_decision": "ms/decision",
    "linalg.float_ms_per_decision": "ms/decision",
    "linalg.max_entry_bits": "bits",
    "decision.assemble_ms_per_decision": "ms/decision",
    "decision.decide_self_ms_per_decision": "ms/decision",
    "decision.verify_calls_per_decision": "count/decision",
    "decision.verify_ms_per_decision": "ms/decision",
    "hermitian.hodge_star_ms_per_decision": "ms/decision",
    "hermitian.asd_ms_per_decision": "ms/decision",
    "bidegree.dc_calls_per_decision": "count/decision",
    "bidegree.calculus_builds_per_op": "count/op",
    "bidegree.calculus_build_ms": "ms/op",
    "exterior.change_frame_ms_per_op": "ms/op",
    "exterior.wedge_calls_per_op": "count/op",
    "decision.table_hit_ratio": "ratio",
    "cohomology.ce_ms_per_op": "ms/op",
    "cohomology.ce_hit_ratio": "ratio",
    "decision.ak_ms_per_op": "ms/op",
    "decision.ak_samples_per_op": "count/op",
    "decision.symplectic_ms_per_op": "ms/op",
    "lie.validate_ms_per_op": "ms/op",
    "catalog.build_ms_per_op": "ms/op",
    "problem.parse_ms_per_op": "ms/op",
    "problem.report_self_ms_per_op": "ms/op",
    "problem.render_ms_per_op": "ms/op",
    "cli.self_ms_per_op": "ms/op",
    "problem.sweep_self_ms_per_op": "ms/op",
    "trace.overhead_pct": "%",
}


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    re_, im = getattr(x, "re", None), getattr(x, "im", None)
    if isinstance(re_, Fraction):
        return max(_bits(re_), _bits(im))
    return 0


def _matrix_bits(rows) -> int:
    return max((_bits(x) for row in rows for x in row), default=0)


class Tracer:
    def __init__(self, package: str = "dolharm"):
        self.package = package
        self.spans: list = []
        self.counts: Counter = Counter()
        self.max_bits = 0
        self.request = 0
        self._stack: list[int] = []
        self._patched: list = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, func: str, fn, cache_key: str | None):
        spans, stack, counts = self.spans, self._stack, self.counts
        info = getattr(fn, "cache_info", None) if cache_key else None
        is_rref = fn.__name__ == "rref"
        is_ak = fn.__name__ == "almost_kahler_feasible"

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            hits = info().hits if info else 0
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.request, func)
            if info:
                counts[cache_key + ".calls"] += 1
                counts[cache_key + ".hits"] += info().hits - hits
            if is_rref:
                self.max_bits = max(self.max_bits, _matrix_bits(args[0]),
                                    _matrix_bits(result[0]))
            if is_ak:
                counts["decision.ak_samples"] += result.samples_used
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _d_word(self, fn):
        """Span only the cache misses of BidegreeCalculus.d_basis_word."""
        spans, stack = self.spans, self._stack

        def wrapper(calc, word, float_backend=False):
            cache = calc._d_word_float if float_backend else calc._d_word
            if tuple(word) in cache:
                return fn(calc, word, float_backend)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                return fn(calc, word, float_backend)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = ("bidegree.calculus_build", t0, t1, parent, self.request,
                              "bidegree.BidegreeCalculus.d_basis_word")

        return wrapper

    # -- patching -------------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for k, m in sys.modules.items() if k.startswith(prefix) and m]

    def _patch(self, module: str, attr: str, make) -> None:
        mod = sys.modules[f"{self.package}.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._patched.append((cls, meth, original))
            setattr(cls, meth, make(original))
            return
        original = getattr(mod, attr)
        wrapped = make(original)
        for m in self._modules():
            if m.__dict__.get(attr) is original:
                self._patched.append((m, attr, original))
                setattr(m, attr, wrapped)

    def install(self) -> None:
        for module, attr, name in COUNTS:
            self._patch(module, attr, lambda fn, name=name: self._count(name, fn))
        for module, attr, name in SPANS:
            key = CACHED.get(f"{module}.{attr}")
            self._patch(module, attr, lambda fn, name=name, func=f"{module}.{attr}", key=key:
                        self._span(name, func, fn, key))
        self._patch("bidegree", "BidegreeCalculus.d_basis_word", self._d_word)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results --------------------------------------------------------------

    def metrics(self, requests: int, scale: float = 1.0) -> dict:
        """The per-layer metrics (see README) over ``requests`` traced requests.

        Times are multiplied by ``scale``, the worker's reference-speed factor.
        """
        spans = self.spans
        n = len(spans)
        dur = [s[2] - s[1] for s in spans]
        child = [0] * n
        in_decision = [False] * n
        outer = [True] * n      # no ancestor span of the same layer name
        names = [s[0] for s in spans]
        for i, (name, _t0, _t1, parent, _req, _func) in enumerate(spans):
            if parent < 0:
                continue
            child[parent] += dur[i]
            # cohomology computed on a cache miss inside a decision is not
            # part of the decision's own work
            in_decision[i] = (names[parent] == "decision.decide"
                              or (in_decision[parent] and names[parent] != "cohomology.ce"))
            p = parent
            while p >= 0:
                if names[p] == name:
                    outer[i] = False
                    break
                p = spans[p][3]
        total: Counter = Counter()
        total_dec: Counter = Counter()
        self_t: Counter = Counter()
        for i, name in enumerate(names):
            self_t[name] += dur[i] - child[i]
            if outer[i]:
                total[name] += dur[i]
                if in_decision[i]:
                    total_dec[name] += dur[i]
        c = self.counts
        decisions = sum(1 for name in names if name == "decision.decide")
        rref_in_dec = sum(1 for i, s in enumerate(spans)
                          if s[5] == "linalg.rref" and in_decision[i])
        ms = 1e-6 * scale

        def per(x, base):
            return x / base if base else 0.0

        ops = requests
        return {
            "scalars.qi_ops_per_op": per(c["scalars.qi"], ops),
            "linalg.rref_calls_per_decision": per(rref_in_dec, decisions),
            "linalg.exact_ms_per_decision": per(total_dec["linalg.exact"] * ms, decisions),
            "linalg.float_ms_per_decision": per(total_dec["linalg.float"] * ms, decisions),
            "linalg.max_entry_bits": self.max_bits,
            "decision.assemble_ms_per_decision": per(total["decision.assemble"] * ms, decisions),
            "decision.decide_self_ms_per_decision": per(self_t["decision.decide"] * ms, decisions),
            "decision.verify_calls_per_decision": per(
                sum(1 for name in names if name == "decision.verify"), decisions),
            "decision.verify_ms_per_decision": per(total["decision.verify"] * ms, decisions),
            "hermitian.hodge_star_ms_per_decision": per(total_dec["hermitian.hodge_star"] * ms,
                                                        decisions),
            "hermitian.asd_ms_per_decision": per(total_dec["hermitian.asd"] * ms, decisions),
            "bidegree.dc_calls_per_decision": per(c["bidegree.dc"], decisions),
            "bidegree.calculus_builds_per_op": per(c["bidegree.calculus_build"], ops),
            "bidegree.calculus_build_ms": per(total["bidegree.calculus_build"] * ms, ops),
            "exterior.change_frame_ms_per_op": per(total["exterior.change_frame"] * ms, ops),
            "exterior.wedge_calls_per_op": per(c["exterior.wedge"], ops),
            "decision.table_hit_ratio": per(c["decision.table.hits"], c["decision.table.calls"]),
            "cohomology.ce_ms_per_op": per(total["cohomology.ce"] * ms, ops),
            "cohomology.ce_hit_ratio": per(c["cohomology.ce.hits"], c["cohomology.ce.calls"]),
            "decision.ak_ms_per_op": per(total["decision.ak"] * ms, ops),
            "decision.ak_samples_per_op": per(c["decision.ak_samples"], ops),
            "decision.symplectic_ms_per_op": per(total["decision.symplectic"] * ms, ops),
            "lie.validate_ms_per_op": per(total["lie.validate"] * ms, ops),
            "catalog.build_ms_per_op": per(total["catalog.build"] * ms, ops),
            "problem.parse_ms_per_op": per(total["problem.parse"] * ms, ops),
            "problem.report_self_ms_per_op": per(self_t["problem.report"] * ms, ops),
            "problem.render_ms_per_op": per(total["cli.render"] * ms, ops),
            "cli.self_ms_per_op": per(self_t["cli.main"] * ms, ops),
            "problem.sweep_self_ms_per_op": per(self_t["problem.sweep"] * ms, ops),
        }

    def dump(self, path) -> None:
        """Write the spans as JSON: a name table and one row per span."""
        names = sorted({s[5] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["function", "start_ns", "end_ns", "parent", "request"],
                       "functions": names,
                       "spans": [[index[s[5]], s[1], s[2], s[3], s[4]] for s in self.spans],
                       "counts": dict(self.counts)}, fh, separators=(",", ":"))
