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

All numbers are rational strings ("p/q" or decimals) or JSON integers, so the
exact backend is fed unrounded input; structure indices are JSON integers.
Every object rejects a field it does not know, and every malformed section,
number or file raises a located :class:`SpecParseError`.  Reports echo the
problem in canonical form, tag every verdict with the backend and tolerance
that produced it.  The almost-Kahler and symplectic verdicts are exact
decisions and take no options.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
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


@dataclass(frozen=True)
class Problem:
    lie: LieStructure
    coframe: AlmostComplexCoframe
    metric: Optional[MetricParams]
    entry: Optional[CatalogEntry]
    options: Options


def parse_rational(value: Any, where: str) -> Fraction:
    """An exact rational from outside: an integer, "p/q" or a decimal string."""
    try:
        return as_fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise SpecParseError(where, f"not a rational: {exc}") from None


def _check_object(value: Any, where: str, required: tuple = (), optional: tuple = (),
                  *, any_key: bool = False) -> Mapping:
    """``value`` as a JSON object holding the ``required`` fields and, unless
    ``any_key``, no field outside ``required`` and ``optional``."""
    if not isinstance(value, Mapping):
        raise SpecParseError(where, "expected a JSON object")
    for key in required:
        if key not in value:
            raise SpecParseError(f"{where}.{key}", "missing required field")
    extra = () if any_key else set(value) - set(required) - set(optional)
    if extra:
        raise SpecParseError(where, f"unexpected field(s): {', '.join(sorted(extra))}")
    return value


def _check_list(value: Any, where: str, what: str, length: Optional[int] = None) -> list:
    """``value`` as a JSON list, of ``length`` items when that is given."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        raise SpecParseError(where, f"expected a list of {what}")
    return value


def parse_metric(obj: Any, where: str = "metric", *, squares: bool = False) -> MetricParams:
    """The metric from r, s, u_re, u_im, or with ``squares`` from r2, s2, u_re, u_im."""
    keys = ("r2", "s2", "u_re", "u_im") if squares else ("r", "s", "u_re", "u_im")
    _check_object(obj, where, keys)
    r, s, u_re, u_im = (parse_rational(obj[key], f"{where}.{key}") for key in keys)
    try:
        return (MetricParams.from_squares if squares else MetricParams.from_rs)(
            r, s, QI(u_re, u_im))
    except MetricError as exc:
        raise SpecParseError(where, str(exc)) from None


def _parse_custom(obj: Any) -> tuple[LieStructure, AlmostComplexCoframe]:
    _check_object(obj, "custom", ("structure", "coframe"))
    diffs: dict[int, dict[tuple[int, int], Fraction]] = {}
    for idx, term in enumerate(_check_list(obj["structure"], "custom.structure",
                                           "structure terms")):
        where = f"custom.structure[{idx}]"
        _check_object(term, where, ("i", "j", "k", "c"))
        i, j, k = term["i"], term["j"], term["k"]
        if not all(type(n) is int for n in (i, j, k)):
            raise SpecParseError(where, "needs integer fields i, j, k")
        if not (1 <= i <= 4 and 1 <= j < k <= 4):
            raise SpecParseError(where, f"indices out of range: i={i}, j={j}, k={k}")
        c = parse_rational(term["c"], f"{where}.c")
        diffs.setdefault(i, {})
        diffs[i][(j, k)] = diffs[i].get((j, k), Fraction(0)) + c
    lie = LieStructure.from_d(diffs, "custom")
    qrows = []
    for rdx, row in enumerate(_check_list(obj["coframe"], "custom.coframe", "2 rows", 2)):
        qrow = []
        for cdx, pair in enumerate(_check_list(row, f"custom.coframe[{rdx}]",
                                               "4 [re, im] pairs", 4)):
            where = f"custom.coframe[{rdx}][{cdx}]"
            re, im = _check_list(pair, where, "2 rationals [re, im]", 2)
            qrow.append(QI(parse_rational(re, where), parse_rational(im, where)))
        qrows.append(qrow)
    try:
        coframe = AlmostComplexCoframe.from_rows(qrows)
    except SingularMatrixError as exc:
        raise SpecParseError("custom.coframe", str(exc)) from None
    return lie, coframe


def parse_catalog_params(params: Any, where: str = "catalog.params") -> dict:
    _check_object(params, where, any_key=True)
    return {str(key): parse_rational(value, f"{where}.{key}")
            for key, value in params.items()}


def parse_b_minus(value: Any, where: str) -> Any:
    """'auto', 'ce', 'paper' or a nonnegative integer (also as a string);
    None reads as 'auto'."""
    if value is None or value in ("auto", "ce", "paper"):
        return value
    try:
        b_minus = int(value) if isinstance(value, str) else value
    except ValueError:
        b_minus = None
    if type(b_minus) is not int:
        raise SpecParseError(where, "expected 'ce', 'paper', 'auto' or an integer")
    if b_minus < 0:
        raise SpecParseError(where, f"b^- override must be nonnegative, got {b_minus}")
    return b_minus


def parse_options(obj: Any, where: str = "options") -> Options:
    _check_object(obj, where, optional=("backend", "tolerance", "b_minus"))
    backend = obj.get("backend", "both")
    if backend not in ("exact", "float", "both"):
        raise SpecParseError(f"{where}.backend", f"invalid backend {backend!r}")
    b_minus = parse_b_minus(obj.get("b_minus", "auto"), f"{where}.b_minus")
    try:
        tolerance = float(obj.get("tolerance", DEFAULT_TOLERANCE))
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecParseError(where, str(exc)) from None
    return Options(backend=backend, tolerance=tolerance, b_minus=b_minus)


def parse_problem(doc: Any) -> Problem:
    _check_object(doc, "$", optional=("catalog", "custom", "metric", "options"))
    if ("catalog" in doc) == ("custom" in doc):
        raise SpecParseError("$", "exactly one of 'catalog' or 'custom' is required")
    entry = None
    if "catalog" in doc:
        cat = _check_object(doc["catalog"], "catalog", ("name",), ("params",))
        params = parse_catalog_params(cat.get("params", {}))
        try:
            entry = catalog(str(cat["name"]), **params)
        except CatalogError as exc:
            raise SpecParseError("catalog", str(exc)) from None
        lie, coframe = entry.lie, entry.coframe
    else:
        lie, coframe = _parse_custom(doc["custom"])
    # a null metric reads as none
    metric = None if doc.get("metric") is None else parse_metric(doc["metric"])
    options = parse_options(doc.get("options", {}))
    return Problem(lie=lie, coframe=coframe, metric=metric, entry=entry,
                   options=options)


def load_problem(path: str) -> Problem:
    import sys

    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecParseError(path, f"cannot read the problem: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError("$", f"invalid JSON: {exc}") from None
    return parse_problem(doc)


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
    mdoc = _check_object(doc, "$", any_key=True).get("metric")
    if not (isinstance(mdoc, Mapping) and "r2" in mdoc):
        return parse_problem(doc)
    return replace(parse_problem({**doc, "metric": None}),
                   metric=parse_metric(mdoc, squares=True))


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
    table = _structure_tables(problem.lie, problem.coframe).rows
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


def decision_section(problem: Problem) -> dict:
    if problem.metric is None:
        raise SpecParseError("metric", "h11 decision requires a metric")
    options = problem.options
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
        # a part beyond double range is null; scaled_exact holds it exactly
        witness = {key: [x if math.isfinite(x) else None for x in (z.real, z.imag)]
                   for key, z in zip("ABC", (report.witness.A, report.witness.B,
                                             report.witness.C))}
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


SECTIONS = ("validation", "tables", "decision", "cohomology", "ak", "symplectic")


def build_run_report(problem: Problem, sections: tuple[str, ...] = SECTIONS) -> dict:
    report: dict[str, Any] = {
        "tool": {"name": "dolharm", "version": __version__},
        "backend": problem.options.backend,
        "tolerance": problem.options.tolerance,
        "problem": canonical_problem(problem),
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
        report["decision"] = decision_section(problem)
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


def sweep_csv(problem: Problem, *,
              u_re: tuple[Fraction, Fraction], u_im: tuple[Fraction, Fraction],
              steps: int, r: Fraction, s: Fraction) -> str:
    """Delta over a u-grid at fixed (r, s); invalid metrics print as 'x'.

    Rows are u_im ascending, columns u_re ascending; deterministic.  The
    valid metrics are decided together by one :func:`decide_grid` call.
    """
    res = grid_values(u_re[0], u_re[1], steps)
    ims = grid_values(u_im[0], u_im[1], steps)
    metrics = []                  # row-major; None marks an invalid metric
    # with r <= 0 or s <= 0 no cell is a metric: r^2 = 0 is rejected
    r2, s2 = (r * r, s * s) if r > 0 and s > 0 else (0, 0)
    for vim in ims:
        for vre in res:
            try:
                metrics.append(MetricParams(r2, s2, QI(vre, vim), r_given=r, s_given=s))
            except MetricError:
                metrics.append(None)
    options = problem.options
    # checks the options and the structure even when no metric is valid
    deltas = iter(decide_grid(problem.lie, problem.coframe,
                              [m for m in metrics if m is not None],
                              backend=options.backend, b_minus=options.b_minus,
                              entry=problem.entry, tolerance=options.tolerance))
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
            g = {key: ["beyond-double" if x is None else f"{x:.6g}" for x in w[key]]
                 for key in "ABC"}
            lines.append(f"  witness: A={g['A'][0]}+({g['A'][1]})i "
                         f"B={g['B'][0]}+({g['B'][1]})i "
                         f"C={g['C'][0]}+({g['C'][1]})i")
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
