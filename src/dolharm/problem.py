"""Problem documents and run reports.

A problem is a JSON document selecting either a catalog entry or a custom
(structure, coframe) pair, plus an optional metric and options:

    {
      "catalog": {"name": "inoue_sm", "params": {"alpha": "1", "beta": "0"}},
      "metric": {"r": "1", "s": "2", "u_re": "1/2", "u_im": "0"},
      "options": {"backend": "both", "b_minus": "ce", "tolerance": 1e-9}
    }

or

    {
      "custom": {
        "structure": [{"i": 1, "j": 2, "k": 4, "c": "1"}, ...],
        "coframe": [[["1","0"], ["0","0"], ["0","1"], ["0","0"]], [...]]
      },
      "metric": {...}
    }

All numbers are rational strings ("p/q" or decimals) so the exact backend is
fed unrounded input.  Reports echo the problem in canonical form, tag every
verdict with the backend and tolerance that produced it.  The almost-Kahler
and symplectic verdicts are exact decisions and take no options.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Mapping, Optional

from . import __version__
from .bidegree import AlmostComplexCoframe
from .catalog import CatalogEntry, catalog
from .cohomology import ce_cohomology
from .decision import (DEFAULT_TOLERANCE, W12, W21, _structure_tables,
                       almost_kahler_feasible, calculus_for, decide_grid,
                       decide_h11, symplectic_feasible)
from .errors import (CatalogError, MetricError, SingularMatrixError,
                     SpecParseError)
from .exterior import FrameTag, InvariantForm
from .hermitian import MetricParams
from .lie import LieStructure, validate_d_squared
from .scalars import QI, as_fraction


@dataclass(frozen=True)
class Options:
    backend: str = "both"
    tolerance: float = DEFAULT_TOLERANCE
    b_minus: Any = "auto"

    def merged(self, overrides: Mapping[str, Any]) -> "Options":
        data = {"backend": self.backend, "tolerance": self.tolerance,
                "b_minus": self.b_minus}
        data.update({k: v for k, v in overrides.items() if v is not None})
        return Options(**data)


@dataclass(frozen=True)
class Problem:
    lie: LieStructure
    coframe: AlmostComplexCoframe
    metric: Optional[MetricParams]
    entry: Optional[CatalogEntry]
    options: Options


def _fraction_field(obj: Mapping, key: str, where: str) -> Fraction:
    if key not in obj:
        raise SpecParseError(f"{where}.{key}", "missing required field")
    try:
        return as_fraction(obj[key])
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise SpecParseError(f"{where}.{key}", f"not a rational: {exc}") from None


def parse_metric(obj: Mapping, where: str = "metric") -> MetricParams:
    r = _fraction_field(obj, "r", where)
    s = _fraction_field(obj, "s", where)
    u_re = _fraction_field(obj, "u_re", where)
    u_im = _fraction_field(obj, "u_im", where)
    extra = set(obj) - {"r", "s", "u_re", "u_im"}
    if extra:
        raise SpecParseError(where, f"unexpected field(s): {', '.join(sorted(extra))}")
    try:
        return MetricParams.from_rs(r, s, QI(u_re, u_im))
    except MetricError as exc:
        raise SpecParseError(where, str(exc)) from None


def _parse_custom(obj: Mapping) -> tuple[LieStructure, AlmostComplexCoframe]:
    if "structure" not in obj:
        raise SpecParseError("custom.structure", "missing required field")
    diffs: dict[int, dict[tuple[int, int], Fraction]] = {}
    for idx, term in enumerate(obj["structure"]):
        where = f"custom.structure[{idx}]"
        try:
            i, j, k = int(term["i"]), int(term["j"]), int(term["k"])
        except (KeyError, TypeError, ValueError):
            raise SpecParseError(where, "needs integer fields i, j, k") from None
        if not (1 <= i <= 4 and 1 <= j < k <= 4):
            raise SpecParseError(where, f"indices out of range: i={i}, j={j}, k={k}")
        c = _fraction_field(term, "c", where)
        diffs.setdefault(i, {})
        diffs[i][(j, k)] = diffs[i].get((j, k), Fraction(0)) + c
    lie = LieStructure.from_d(diffs, "custom")
    if "coframe" not in obj:
        raise SpecParseError("custom.coframe", "missing required field")
    rows = obj["coframe"]
    if len(rows) != 2 or any(len(r) != 4 for r in rows):
        raise SpecParseError("custom.coframe", "needs 2 rows of 4 [re, im] pairs")
    qrows = []
    for rdx, row in enumerate(rows):
        qrow = []
        for cdx, pair in enumerate(row):
            where = f"custom.coframe[{rdx}][{cdx}]"
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise SpecParseError(where, "expected an [re, im] pair")
            try:
                qrow.append(QI(as_fraction(pair[0]), as_fraction(pair[1])))
            except (ValueError, TypeError) as exc:
                raise SpecParseError(where, f"not rational: {exc}") from None
        qrows.append(qrow)
    try:
        coframe = AlmostComplexCoframe.from_rows(qrows)
    except SingularMatrixError as exc:
        raise SpecParseError("custom.coframe", str(exc)) from None
    return lie, coframe


def parse_catalog_params(params: Mapping, where: str = "catalog.params") -> dict:
    out = {}
    for key, value in params.items():
        try:
            out[str(key)] = as_fraction(value)
        except (ValueError, TypeError) as exc:
            raise SpecParseError(f"{where}.{key}", f"not rational: {exc}") from None
    return out


def parse_options(obj: Mapping, where: str = "options") -> Options:
    known = {"backend", "tolerance", "b_minus"}
    extra = set(obj) - known
    if extra:
        raise SpecParseError(where, f"unexpected field(s): {', '.join(sorted(extra))}")
    backend = obj.get("backend", "both")
    if backend not in ("exact", "float", "both"):
        raise SpecParseError(f"{where}.backend", f"invalid backend {backend!r}")
    b_minus = obj.get("b_minus", "auto")
    if isinstance(b_minus, str) and b_minus not in ("auto", "ce", "paper"):
        try:
            b_minus = int(b_minus)
        except ValueError:
            raise SpecParseError(f"{where}.b_minus",
                                 "expected 'ce', 'paper', 'auto' or an integer") from None
    if isinstance(b_minus, int) and not isinstance(b_minus, bool) and b_minus < 0:
        raise SpecParseError(f"{where}.b_minus",
                             f"b^- override must be nonnegative, got {b_minus}")
    try:
        tolerance = float(obj.get("tolerance", DEFAULT_TOLERANCE))
    except (TypeError, ValueError) as exc:
        raise SpecParseError(where, str(exc)) from None
    return Options(backend=backend, tolerance=tolerance, b_minus=b_minus)


def parse_problem(doc: Mapping, require_metric: bool = False) -> Problem:
    if not isinstance(doc, Mapping):
        raise SpecParseError("$", "problem document must be a JSON object")
    if ("catalog" in doc) == ("custom" in doc):
        raise SpecParseError("$", "exactly one of 'catalog' or 'custom' is required")
    entry = None
    if "catalog" in doc:
        cat = doc["catalog"]
        if "name" not in cat:
            raise SpecParseError("catalog.name", "missing required field")
        params = parse_catalog_params(cat.get("params", {}))
        try:
            entry = catalog(str(cat["name"]), **params)
        except CatalogError as exc:
            raise SpecParseError("catalog", str(exc)) from None
        lie, coframe = entry.lie, entry.coframe
    else:
        lie, coframe = _parse_custom(doc["custom"])
    metric = None
    if "metric" in doc and doc["metric"] is not None:
        metric = parse_metric(doc["metric"])
    elif require_metric:
        raise SpecParseError("metric", "this command requires a metric")
    options = parse_options(doc.get("options", {}))
    return Problem(lie=lie, coframe=coframe, metric=metric, entry=entry,
                   options=options)


def load_problem(path: str, require_metric: bool = False) -> Problem:
    import sys

    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError("$", f"invalid JSON: {exc}") from None
    return parse_problem(doc, require_metric=require_metric)


# -- canonical echo -----------------------------------------------------------


def _qi_json(value: QI) -> dict:
    return {"re": str(value.re), "im": str(value.im)}


def canonical_problem(problem: Problem) -> dict:
    doc: dict[str, Any] = {}
    if problem.entry is not None:
        doc["catalog"] = {
            "name": problem.entry.key,
            "params": {k: str(v.re) for k, v in problem.entry.params},
        }
    else:
        doc["custom"] = {
            "structure": [
                {"i": i, "j": j, "k": k, "c": str(c)}
                for (i, j, k, c) in problem.lie.terms
            ],
            "coframe": [[[str(x.re), str(x.im)] for x in row]
                        for row in problem.coframe.rows],
        }
    if problem.metric is not None:
        m = problem.metric
        if m.r_given is not None and m.s_given is not None:
            doc["metric"] = {"r": str(m.r_given), "s": str(m.s_given),
                             "u_re": str(m.u.re), "u_im": str(m.u.im)}
        else:
            doc["metric"] = {"r2": str(m.r2), "s2": str(m.s2),
                             "u_re": str(m.u.re), "u_im": str(m.u.im)}
    opts = problem.options
    doc["options"] = {"backend": opts.backend, "tolerance": opts.tolerance,
                      "b_minus": opts.b_minus}
    return doc


def reparse_canonical(doc: Mapping) -> Problem:
    """Parse the canonical echo (the metric may be given through its squares)."""
    base = dict(doc)
    metric = None
    if "metric" in base and base["metric"] is not None:
        mdoc = base.pop("metric")
        if "r2" in mdoc:
            try:
                metric = MetricParams.from_squares(
                    as_fraction(mdoc["r2"]), as_fraction(mdoc["s2"]),
                    QI(as_fraction(mdoc["u_re"]), as_fraction(mdoc["u_im"])))
            except (KeyError, ValueError, MetricError) as exc:
                raise SpecParseError("metric", str(exc)) from None
        else:
            metric = parse_metric(mdoc)
    problem = parse_problem(base)
    return Problem(lie=problem.lie, coframe=problem.coframe, metric=metric,
                   entry=problem.entry, options=problem.options)


# -- report assembly ----------------------------------------------------------


def validation_section(problem: Problem) -> dict:
    verdict = validate_d_squared(problem.lie)
    out = {
        "d_squared": {
            "ok": verdict.ok,
            "failures": [{"coframe_index": i, "residual": str(r)}
                         for i, r in verdict.failures],
        },
        "coframe_invertible": True,  # construction already rejects singular ones
        "metric": None,
    }
    if problem.metric is not None:
        out["metric"] = {"ok": True, "r2": str(problem.metric.r2),
                         "s2": str(problem.metric.s2),
                         "tau2": str(problem.metric.tau2)}
    return out


def structure_tables_section(problem: Problem) -> dict:
    """d of phi^1, phi^2 and the columns of T as 4i*del / 4i*delbar forms."""
    calc = calculus_for(problem.lie, problem.coframe)
    table = _structure_tables(problem.lie, problem.coframe)
    names = ("phi^{1 1bar}", "phi^{1 2bar}", "phi^{2 1bar}", "phi^{2 2bar}")
    tables = {"d": {}, "4i_del": {}, "4i_delbar": {}}
    for letter, label in ((1, "phi^1"), (2, "phi^2")):
        tables["d"][label] = str(calc.d_basis_word((letter,)))
    for j, label in enumerate(names):
        for key, words, rows in (("4i_del", W21, table[:len(W21)]),
                                 ("4i_delbar", W12, table[len(W21):])):
            column = dict(zip(words, (row[j] for row in rows)))
            tables[key][label] = str(InvariantForm.build(FrameTag.COMPLEX, 3, column))
    return tables


def decision_section(problem: Problem, options: Options) -> dict:
    if problem.metric is None:
        raise SpecParseError("metric", "h11 decision requires a metric")
    report = decide_h11(problem.lie, problem.coframe, problem.metric,
                        backend=options.backend, b_minus=options.b_minus,
                        entry=problem.entry, tolerance=options.tolerance)
    out = {
        "delta": report.delta,
        "h11": report.h11,
        "b_minus_used": report.b_minus_used,
        "b_minus_provenance": report.b_minus_provenance,
        "b_minus_ce": report.b_minus_ce,
        "b_minus_reference": report.b_minus_reference,
        "b_minus_discrepancy": report.b_minus_discrepancy,
        "h11_by_provenance": {
            "ce_computed": report.b_minus_ce + report.delta,
            "paper_reference": (None if report.b_minus_reference is None
                                else report.b_minus_reference + report.delta),
        },
        "rank": {"M": report.rank_m, "M_augmented": report.rank_aug},
        "backend": report.backend,
        "tolerance": report.tolerance,
        "witness": None,
        "residuals": {"i_dc_gamma_minus_d_omega": report.residual_dc,
                      "star_gamma_plus_gamma": report.residual_star},
    }
    if report.witness is not None:
        a, b, c = report.witness.A, report.witness.B, report.witness.C
        witness = {
            "A": [a.real, a.imag], "B": [b.real, b.imag], "C": [c.real, c.imag],
        }
        if report.backend in ("exact", "both"):
            sa, sb, sc = report.witness_scaled
            witness["scaled_exact"] = {"A": _qi_json(sa), "B_scaled": _qi_json(sb),
                                       "C_scaled": _qi_json(sc)}
        out["witness"] = witness
    if report.b_minus_discrepancy:
        out["note"] = ("quoted reference b^- and the invariant-complex "
                       "computation disagree; h11 is reported under both")
    return out


def cohomology_section(problem: Problem) -> dict:
    rep = ce_cohomology(problem.lie)
    return {
        "betti_invariant": list(rep.betti),
        "b2": rep.b2,
        "b_plus": rep.b_plus,
        "b_minus": rep.b_minus,
        "h2_representatives": [str(f) for f in rep.h2_representatives],
        "intersection_matrix": [[str(x) for x in row]
                                for row in rep.intersection_matrix],
        "top_degree_closed": rep.top_degree_closed,
        "reference_b2": problem.entry.reference_b2 if problem.entry else None,
        "reference_b_minus": (problem.entry.reference_b_minus
                              if problem.entry else None),
        "caveat": ("invariant cohomology equals de Rham cohomology under "
                   "nilmanifold/completely-solvable hypotheses; the reference "
                   "values are quoted verbatim and never reconciled silently"),
    }


def ak_section(problem: Problem) -> dict:
    verdict = almost_kahler_feasible(problem.lie, problem.coframe)
    out = {"status": verdict.status, "certificate": verdict.certificate,
           "witness": None}
    if verdict.witness is not None:
        m = verdict.witness
        out["witness"] = {"r2": str(m.r2), "s2": str(m.s2),
                          "u_re": str(m.u.re), "u_im": str(m.u.im)}
    return out


def symplectic_section(problem: Problem) -> dict:
    verdict = symplectic_feasible(problem.lie)
    return {
        "status": verdict.status,
        "witness": None if verdict.witness is None else str(verdict.witness),
        "note": verdict.note,
    }


def build_run_report(problem: Problem, options: Options,
                     sections: tuple[str, ...] = ("validation", "tables", "decision",
                                                  "cohomology", "ak", "symplectic")
                     ) -> dict:
    report: dict[str, Any] = {
        "tool": {"name": "dolharm", "version": __version__},
        "backend": options.backend,
        "tolerance": options.tolerance,
        "problem": canonical_problem(
            Problem(problem.lie, problem.coframe, problem.metric, problem.entry,
                    options)),
    }
    if problem.entry is not None:
        report["entry"] = {
            "key": problem.entry.key,
            "label": problem.entry.label,
            "params": {k: str(v.re) if v.is_real else str(v)
                       for k, v in problem.entry.params},
            "h11_condition": problem.entry.h11_condition,
            "ak_condition": problem.entry.ak_condition,
        }
    if "validation" in sections:
        report["validation"] = validation_section(problem)
    if "tables" in sections:
        report["structure_tables"] = structure_tables_section(problem)
    if "decision" in sections and problem.metric is not None:
        report["decision"] = decision_section(problem, options)
    if "cohomology" in sections:
        report["cohomology"] = cohomology_section(problem)
    if "ak" in sections:
        report["almost_kahler"] = ak_section(problem)
    if "symplectic" in sections:
        report["symplectic"] = symplectic_section(problem)
    return report


# -- sweep --------------------------------------------------------------------


def grid_values(lo: Fraction, hi: Fraction, steps: int) -> list[Fraction]:
    if steps < 1:
        raise SpecParseError("grid.steps", "grid must contain at least one point")
    if steps == 1:
        return [lo]
    step = (hi - lo) / (steps - 1)
    return [lo + k * step for k in range(steps)]


def sweep_csv(problem: Problem, options: Options, *,
              u_re: tuple[Fraction, Fraction], u_im: tuple[Fraction, Fraction],
              steps: int, r: Fraction, s: Fraction) -> str:
    """Delta over a u-grid at fixed (r, s); invalid metrics print as 'x'.

    Rows are u_im ascending, columns u_re ascending; deterministic.  The
    valid metrics are decided together by one :func:`decide_grid` call.
    """
    res = grid_values(u_re[0], u_re[1], steps)
    ims = grid_values(u_im[0], u_im[1], steps)
    metrics = []                  # row-major; None marks an invalid metric
    for vim in ims:
        for vre in res:
            try:
                metrics.append(MetricParams.from_rs(r, s, QI(vre, vim)))
            except MetricError:
                metrics.append(None)
    valid = [m for m in metrics if m is not None]
    # a grid without a valid metric decides nothing, so checks no option
    deltas = iter(decide_grid(problem.lie, problem.coframe, valid,
                              backend=options.backend, b_minus=options.b_minus,
                              entry=problem.entry, tolerance=options.tolerance)
                  if valid else ())
    cells = ["x" if m is None else str(next(deltas)) for m in metrics]
    lines = ["u_im\\u_re," + ",".join(str(v) for v in res)]
    for k, vim in enumerate(ims):
        lines.append(str(vim) + "," + ",".join(cells[k * len(res):(k + 1) * len(res)]))
    return "\n".join(lines) + "\n"


# -- human rendering ----------------------------------------------------------


def render_human(report: Mapping) -> str:
    lines = []
    tool = report["tool"]
    lines.append(f"{tool['name']} {tool['version']}  "
                 f"[backend={report['backend']} tolerance={report['tolerance']}]")
    prob = report["problem"]
    if "catalog" in prob:
        params = prob["catalog"].get("params") or {}
        ptxt = (" (" + ", ".join(f"{k}={v}" for k, v in sorted(params.items())) + ")"
                if params else "")
        lines.append(f"problem: catalog {prob['catalog']['name']}{ptxt}")
    else:
        lines.append(f"problem: custom structure, "
                     f"{len(prob['custom']['structure'])} structure term(s)")
    if "metric" in prob:
        m = prob["metric"]
        if "r" in m:
            lines.append(f"metric: r={m['r']} s={m['s']} u={m['u_re']}+({m['u_im']})i")
        else:
            lines.append(f"metric: r^2={m['r2']} s^2={m['s2']} "
                         f"u={m['u_re']}+({m['u_im']})i")
    if "validation" in report:
        v = report["validation"]
        ok = "ok" if v["d_squared"]["ok"] else "FAILED"
        lines.append(f"validation: d^2=0 {ok}; coframe ok"
                     + ("; metric ok" if v["metric"] else ""))
        for failure in v["d_squared"]["failures"]:
            lines.append(f"  d^2 e^{failure['coframe_index']} = {failure['residual']}")
    if "structure_tables" in report:
        t = report["structure_tables"]
        lines.append("structure tables:")
        for label, value in t["d"].items():
            lines.append(f"  d {label} = {value}")
        for label in t["4i_del"]:
            lines.append(f"  4i del {label} = {t['4i_del'][label]}")
            lines.append(f"  4i delbar {label} = {t['4i_delbar'][label]}")
    if "decision" in report:
        d = report["decision"]
        lines.append(
            f"decision [backend={d['backend']} tolerance={d['tolerance']}]: "
            f"delta={d['delta']}  h11 = b^- + delta = {d['h11']} "
            f"(b^-={d['b_minus_used']}, {d['b_minus_provenance']})")
        hp = d["h11_by_provenance"]
        lines.append(f"  h11 by provenance: ce_computed={hp['ce_computed']}"
                     + (f", paper_reference={hp['paper_reference']}"
                        if hp["paper_reference"] is not None else ""))
        if d.get("b_minus_discrepancy"):
            lines.append(f"  NOTE: {d['note']}")
        if d["witness"]:
            w = d["witness"]
            lines.append(f"  witness: A={w['A'][0]:.6g}+({w['A'][1]:.6g})i "
                         f"B={w['B'][0]:.6g}+({w['B'][1]:.6g})i "
                         f"C={w['C'][0]:.6g}+({w['C'][1]:.6g})i")
            if "scaled_exact" in w:
                se = w["scaled_exact"]
                lines.append(f"  witness (exact, tau-scaled): A={se['A']['re']}+({se['A']['im']})i "
                             f"B'={se['B_scaled']['re']}+({se['B_scaled']['im']})i "
                             f"C'={se['C_scaled']['re']}+({se['C_scaled']['im']})i")
            r = d["residuals"]
            lines.append(f"  relative residuals: |i d^c gamma - d omega| / |d omega| = "
                         f"{r['i_dc_gamma_minus_d_omega']:.3g}, "
                         f"|star gamma + gamma| / |gamma| = "
                         f"{r['star_gamma_plus_gamma']:.3g}")
    if "cohomology" in report:
        c = report["cohomology"]
        lines.append(f"invariant cohomology: betti={c['betti_invariant']} "
                     f"b2={c['b2']} b+={c['b_plus']} b-={c['b_minus']}")
        if c["h2_representatives"]:
            lines.append("  H^2 representatives: " + ", ".join(c["h2_representatives"]))
        if c["reference_b2"] is not None:
            lines.append(f"  reference values: b2={c['reference_b2']} "
                         f"b-={c['reference_b_minus']}")
    if "almost_kahler" in report:
        a = report["almost_kahler"]
        extra = ""
        if a["witness"]:
            w = a["witness"]
            extra = (f" witness r^2={w['r2']} s^2={w['s2']} "
                     f"u={w['u_re']}+({w['u_im']})i")
        elif a["certificate"]:
            extra = f" ({a['certificate']})"
        lines.append(f"almost Kahler: {a['status']}{extra}")
    if "symplectic" in report:
        s = report["symplectic"]
        w = f" witness {s['witness']}" if s["witness"] else f" ({s['note']})"
        lines.append(f"symplectic: {s['status']}{w}")
    return "\n".join(lines) + "\n"
