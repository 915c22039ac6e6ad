"""Command-line interface.

Verbs: validate, h11, ak-scan, sweep, catalog, report.  Problems come either
from a JSON file (or ``-`` for stdin) or inline via ``--entry``/``--param``/
``--metric``.  Exit codes: 0 success, 2 parse or validation error, 3 backend
disagreement, 4 internal invariant breach (a result failed its own re-check).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from fractions import Fraction

from . import __version__
from .catalog import CATALOG_NAMES, PARAM_REQUIREMENTS, catalog
from .cohomology import ce_cohomology
from .errors import (BackendDisagreementError, DolharmError,
                     InternalInvariantError, SpecParseError)
from .problem import (SECTIONS, Problem, build_run_report, load_problem,
                      parse_b_minus, parse_catalog_params, parse_problem,
                      parse_rational, render_human, sweep_csv)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BACKEND = 3
EXIT_INTERNAL = 4


def _add_common(parser: argparse.ArgumentParser, with_metric: bool) -> None:
    parser.add_argument("problem", nargs="?", default=None,
                        help="problem JSON file ('-' for stdin); omit when using --entry")
    parser.add_argument("--entry", choices=CATALOG_NAMES,
                        help="catalog entry name (inline problem)")
    parser.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                        help="catalog parameter, e.g. alpha=1 or t_re=1/2 (repeatable)")
    if with_metric:
        parser.add_argument("--metric", metavar="R,S,U_RE,U_IM",
                            help="metric parameters as rationals, e.g. 1,2,1/2,-1/4")
    parser.add_argument("--backend", choices=("exact", "float", "both"), default=None,
                        help="scalar backend (default both)")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="floating-backend tolerance (default 1e-9)")
    parser.add_argument("--b-minus", default=None, metavar="INT|ce|paper",
                        help="b^- provenance: integer override, 'ce' or 'paper'")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the machine-readable JSON report")


def _parse_inline_params(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise SpecParseError("--param", f"expected NAME=VALUE, got {pair!r}")
        name, value = pair.split("=", 1)
        out[name.strip()] = value.strip()
    return out


def _problem_from_args(args, needs_metric: bool) -> Problem:
    overrides = {"backend": args.backend, "tolerance": args.tolerance,
                 "b_minus": parse_b_minus(args.b_minus, "--b-minus")}
    if args.problem is not None and args.entry is not None:
        raise SpecParseError("$", "give either a problem file or --entry, not both")
    if args.problem is not None:
        problem = load_problem(args.problem)
    elif args.entry is not None:
        doc = {"catalog": {"name": args.entry,
                           "params": _parse_inline_params(args.param)}}
        metric = getattr(args, "metric", None)
        if metric is not None:
            parts = [p.strip() for p in metric.split(",")]
            if len(parts) != 4:
                raise SpecParseError("--metric", "expected R,S,U_RE,U_IM")
            doc["metric"] = {"r": parts[0], "s": parts[1],
                             "u_re": parts[2], "u_im": parts[3]}
        problem = parse_problem(doc)
    else:
        raise SpecParseError("$", "a problem file or --entry is required")
    if needs_metric and problem.metric is None:
        raise SpecParseError("metric", "this command requires a metric "
                             "(--metric R S U_RE U_IM or a 'metric' section)")
    return replace(problem, options=replace(
        problem.options, **{k: v for k, v in overrides.items() if v is not None}))


def _emit(report: dict, as_json: bool) -> None:
    if as_json:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(render_human(report))


def cmd_report(args) -> int:
    """validate, h11, ak-scan and report: one run report over the verb's
    sections; a structure failing d^2 = 0 exits 2."""
    problem = _problem_from_args(args, args.needs_metric)
    report = build_run_report(problem, args.sections)
    _emit(report, args.as_json)
    return EXIT_OK if report["validation"]["d_squared"]["ok"] else EXIT_PARSE


def _parse_range(spec: str, where: str) -> tuple[Fraction, Fraction]:
    if ":" not in spec:
        raise SpecParseError(where, f"expected MIN:MAX, got {spec!r}")
    lo, hi = spec.split(":", 1)
    return parse_rational(lo.strip(), where), parse_rational(hi.strip(), where)


def cmd_sweep(args) -> int:
    problem = _problem_from_args(args, needs_metric=False)
    if args.r is not None:
        r = parse_rational(args.r, "--r")
        s = parse_rational(args.s, "--s") if args.s else r
    elif problem.metric is not None:
        base = problem.metric
        if base.r_given is None:
            raise SpecParseError("metric", "sweep needs r, s as rationals")
        r, s = base.r_given, base.s_given
    else:
        raise SpecParseError("grid", "sweep needs --r/--s or a metric section")
    csv = sweep_csv(problem, u_re=_parse_range(args.u_re, "grid.u_re"),
                    u_im=_parse_range(args.u_im, "grid.u_im"),
                    steps=args.steps, r=r, s=s)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(csv)
        sys.stdout.write(f"wrote {args.out}\n")
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def cmd_catalog(args) -> int:
    if args.name is None:
        listing = []
        for name in CATALOG_NAMES:
            reqs = PARAM_REQUIREMENTS[name]
            ptxt = ", ".join(f"{p} ({dom})" for p, dom in reqs) if reqs else "none"
            listing.append({"name": name, "parameters": ptxt})
        if args.as_json:
            json.dump({"entries": listing}, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            sys.stdout.write("available catalog entries:\n")
            for item in listing:
                sys.stdout.write(f"  {item['name']:22s} parameters: {item['parameters']}\n")
        return EXIT_OK
    params = parse_catalog_params(_parse_inline_params(args.param), "--param")
    reqs = PARAM_REQUIREMENTS.get(args.name, ())
    if reqs and not params:
        # show the parameter domain instead of failing hard
        lines = [f"catalog entry {args.name} requires parameter(s):"]
        for p, dom in reqs:
            lines.append(f"  {p}: {dom}")
        sys.stdout.write("\n".join(lines) + "\n")
        return EXIT_OK
    entry = catalog(args.name, **params)
    coh = ce_cohomology(entry.lie)
    info = {
        "name": entry.key,
        "label": entry.label,
        "params": {k: str(v) for k, v in entry.params},
        "param_domain": entry.param_domain,
        "structure": {f"d e^{i}": str(entry.lie.d_on_coframe(i)) for i in range(1, 5)},
        "coframe": [[str(x) for x in row] for row in entry.coframe.rows],
        "reference_b2": entry.reference_b2,
        "reference_b_minus": entry.reference_b_minus,
        "ce_b2": coh.b2,
        "ce_b_minus": coh.b_minus,
        "default_b_minus_policy": entry.default_b_minus_policy,
        "h11_condition": entry.h11_condition,
        "ak_condition": entry.ak_condition,
    }
    if args.as_json:
        json.dump(info, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(f"{info['name']}: {info['label']}\n")
        if info["params"]:
            sys.stdout.write(f"  parameters: "
                             + ", ".join(f"{k}={v}" for k, v in info["params"].items())
                             + f"  (domain: {info['param_domain']})\n")
        for key, val in info["structure"].items():
            sys.stdout.write(f"  {key} = {val}\n")
        sys.stdout.write(f"  coframe rows (phi in e-letters): {info['coframe']}\n")
        sys.stdout.write(f"  reference b2={info['reference_b2']} "
                         f"b-={info['reference_b_minus']} | invariant complex "
                         f"b2={info['ce_b2']} b-={info['ce_b_minus']} "
                         f"(default policy: {info['default_b_minus_policy']})\n")
        sys.stdout.write(f"  h11 = b^- + 1 iff {info['h11_condition']}\n")
        sys.stdout.write(f"  almost Kahler: {info['ak_condition']}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dolharm",
        description=("invariant almost Hermitian structures on 4-dimensional Lie "
                     "algebras: Dolbeault-harmonic (1,1) dimension, almost-Kahler "
                     "and symplectic feasibility, invariant cohomology"))
    parser.add_argument("--version", action="version",
                        version=f"dolharm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check d^2=0, coframe and metric validity")
    _add_common(p, with_metric=True)
    p.set_defaults(func=cmd_report, sections=("validation",), needs_metric=False)

    p = sub.add_parser("h11", help="decide delta and h11 = b^- + delta for a metric")
    _add_common(p, with_metric=True)
    p.set_defaults(func=cmd_report, sections=("validation", "decision"),
                   needs_metric=True)

    p = sub.add_parser("ak-scan",
                       help="almost-Kahler and symplectic feasibility (no metric needed)")
    _add_common(p, with_metric=False)
    p.set_defaults(func=cmd_report, sections=("validation", "ak", "symplectic"),
                   needs_metric=False)

    p = sub.add_parser("sweep", help="CSV matrix of delta over a grid of u values")
    _add_common(p, with_metric=True)
    p.add_argument("--u-re", metavar="MIN:MAX", required=True,
                   help="real part range, e.g. -1/2:1/2")
    p.add_argument("--u-im", metavar="MIN:MAX", required=True,
                   help="imaginary part range, e.g. -1/2:1/2")
    p.add_argument("--steps", type=int, required=True,
                   help="points per axis (inclusive endpoints)")
    p.add_argument("--r", default=None, help="fixed r (overrides metric section)")
    p.add_argument("--s", default=None, help="fixed s (overrides metric section)")
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("catalog", help="list catalog entries or show one")
    p.add_argument("name", nargs="?", default=None)
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    p.add_argument("--json", action="store_true", dest="as_json")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("report", help="all-in-one report")
    _add_common(p, with_metric=True)
    p.set_defaults(func=cmd_report, sections=SECTIONS, needs_metric=False)

    return parser


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # built once per process: parse_args fills a fresh namespace per call
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except BackendDisagreementError as exc:
        sys.stderr.write(f"error: {exc}\n")
        sys.stderr.write(
            f"  exact: delta={exc.exact_report.delta} "
            f"(ranks {exc.exact_report.rank_m}/{exc.exact_report.rank_aug})\n"
            f"  float: delta={exc.float_report.delta} "
            f"(ranks {exc.float_report.rank_m}/{exc.float_report.rank_aug}, "
            f"tolerance {exc.float_report.tolerance})\n")
        return EXIT_BACKEND
    except InternalInvariantError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except DolharmError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
