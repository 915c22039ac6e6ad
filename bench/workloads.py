"""The three workloads: their inputs, made from a seed, and their checks.

Every request is a dolharm command line handed to ``dolharm.cli.main`` in
the worker process, with stdin and stdout replaced by in-memory buffers, so
the argument parser, the report builder and the renderer are on the timed
path.  A workload yields whole rounds of requests; the worker checks every
output against ``oracle`` (outside the timed region) and stops the run on
any disagreement.

* sweep-grid  -- ``sweep`` (default backend ``both``) on small u-grids of the
  eight catalog entries at fixed parameters.  Structures repeat, so the
  structure tables and cohomology come from the caches and the per-metric
  decision path does the work.
* report-cold -- ``report --backend exact --json`` on a structure the process
  has not seen: catalog families with fresh parameters, and the eight
  catalog Lie algebras after a random unimodular change of basis, with the
  coframe carried along.  Table building, cohomology and the almost-Kahler
  and symplectic searches dominate.
* h11-scale   -- ``h11 --json`` (default backend) on each entry at
  r = L, s = 2L, u = (1/3 + i/5) L^2 for L = 10^k, k = -8..8.  delta does not
  depend on L; the requests that fail with exit 3 (backend disagreement at
  extreme scales) are a known fault of the float rank test and are counted
  as failed.
"""
from __future__ import annotations

import json
import random
import re
from fractions import Fraction as F

import oracle
from oracle import CheckError, require

ENTRIES = ("secondary_kodaira", "inoue_sm", "nilmanifold_I", "nilmanifold_II",
           "hyperelliptic_I", "hyperelliptic_II", "primary_kodaira_I",
           "primary_kodaira_II")

# parameters of the entries whenever a workload keeps the structure fixed
FIXED_PARAMS = {
    "secondary_kodaira": {}, "inoue_sm": {"alpha": F(1), "beta": F(1)},
    "nilmanifold_I": {}, "nilmanifold_II": {}, "hyperelliptic_I": {},
    "hyperelliptic_II": {"t_re": F(1, 2), "t_im": F(0)},
    "primary_kodaira_I": {"alpha": F(1)}, "primary_kodaira_II": {"beta": F(1)},
}


class Request:
    """One command line, its stdin, and the check of its result.

    ``check(code, out, err)`` returns True for a failure the workload
    expects (counted as failed) and raises CheckError for a wrong result.
    """

    __slots__ = ("argv", "stdin", "check")

    def __init__(self, argv, stdin, check):
        self.argv, self.stdin, self.check = argv, stdin, check


def _param_args(params: dict) -> list[str]:
    out = []
    for k, v in params.items():
        out += ["--param", f"{k}={v}"]
    return out


def _metric_arg(r, s, u_re, u_im) -> str:
    return f"{r},{s},{u_re},{u_im}"


def _ok(code: int, err: str, where: str) -> None:
    require(code == 0, f"{where}: exit {code}: {err.strip()[:300]}")


def _small(rng, bound=1, max_den=6) -> F:
    q = rng.randint(1, max_den)
    return F(rng.randint(-bound * q, bound * q), q)


def _nonzero(rng, bound, max_den) -> F:
    while True:
        x = _small(rng, bound, max_den)
        if x:
            return x


# -- sweep-grid -----------------------------------------------------------------

SWEEP_STEPS = 5
SWEEP_RS = ((F(1, 2), F(1)), (F(2, 3), F(3, 2)), (F(1), F(3, 2)), (F(1), F(2)),
            (F(3, 4), F(2)))
SWEEP_WIDTH = (F(3, 4), F(4, 5), F(5, 6))
SWEEP_GRIDS = [(r, s, w) for r, s in SWEEP_RS for w in SWEEP_WIDTH]


def _grid_center(name: str, params: dict, r2: F) -> tuple[F, F]:
    """A u on the entry's h11 locus (r < s keeps it positive definite)."""
    if name == "inoue_sm":
        return F(0), -params["alpha"] * r2 / params["beta"]
    if name == "primary_kodaira_I":
        return params["alpha"] * r2, F(0)
    return F(0), F(0)


def sweep_request(name: str, r: F, s: F, width: F, steps: int = SWEEP_STEPS) -> Request:
    params = FIXED_PARAMS[name]
    c_re, c_im = _grid_center(name, params, r * r)
    h = width * r * s          # corners fall outside r^2 s^2 > |u|^2
    argv = (["sweep", "--entry", name] + _param_args(params)
            + [f"--u-re={c_re - h}:{c_re + h}", f"--u-im={c_im - h}:{c_im + h}",
               "--steps", str(steps), "--r", str(r), "--s", str(s)])
    where = f"sweep {name} r={r} s={s} width={width}"

    def check(code, out, err):
        _ok(code, err, where)
        lines = out.strip().split("\n")
        require(len(lines) == steps + 1, f"{where}: {len(lines)} lines")
        res = [F(x) for x in lines[0].split(",")[1:]]
        require(len(res) == steps, f"{where}: header {lines[0]}")
        for line in lines[1:]:
            cells = line.split(",")
            u_im = F(cells[0])
            for u_re, cell in zip(res, cells[1:]):
                metric = (r * r, s * s, u_re, u_im)
                if not oracle.positive_definite(*metric):
                    want = "x"
                else:
                    want = str(int(oracle.h11_jumps(name, params, metric)))
                require(cell == want, f"{where}: cell u={u_re}+{u_im}i is {cell}, "
                        f"table says {want}")
        return False

    return Request(argv, None, check)


class SweepGrid:
    def __init__(self, rng):
        self.rng = rng
        self.turn = rng.randrange(len(SWEEP_GRIDS))

    def warmup(self) -> list[Request]:
        """One 3x3 sweep per entry: it fills the structure caches."""
        return [sweep_request(n, F(1), F(2), F(4, 5), 3) for n in ENTRIES]

    def specs(self) -> list[tuple]:
        """The next round's grids: (entry, r, s, width).

        One grid per entry and a second one for secondary_kodaira.  Half the
        entries cost about 60-90 ms a grid and half 100-190 ms, so with eight
        grids a round the median sits in the gap between the two groups and
        flips from run to run; the ninth grid puts it inside a group.  Each
        grid steps through all (r, s, width) of SWEEP_GRIDS, one per round,
        from a seeded start, so a run of a few dozen rounds holds nearly the
        same mix whatever the seed.
        """
        k, n = self.turn, len(SWEEP_GRIDS)
        self.turn += 1
        names = ENTRIES + ("secondary_kodaira",)
        specs = [(name, *SWEEP_GRIDS[(k + 7 * e) % n]) for e, name in enumerate(names)]
        self.rng.shuffle(specs)
        return specs

    def round(self) -> list[Request]:
        return [sweep_request(*spec) for spec in self.specs()]


def sweep_cells(specs) -> dict:
    """How many cells of these grids jump (1), do not (0) or are invalid (x)."""
    tally = {"1": 0, "0": 0, "x": 0}
    n = SWEEP_STEPS - 1
    for name, r, s, width in specs:
        params = FIXED_PARAMS[name]
        c_re, c_im = _grid_center(name, params, r * r)
        h = width * r * s
        for i in range(SWEEP_STEPS):
            for j in range(SWEEP_STEPS):
                m = (r * r, s * s, c_re - h + 2 * h * j / n, c_im - h + 2 * h * i / n)
                if not oracle.positive_definite(*m):
                    tally["x"] += 1
                else:
                    tally[str(int(oracle.h11_jumps(name, params, m)))] += 1
    return tally


# -- h11-scale ------------------------------------------------------------------

SCALE_EXPONENTS = range(-8, 9)
UNSCALED = (F(1), F(4), F(1, 3), F(1, 5))        # (r^2, s^2, u_re, u_im) at L = 1
_EXACT_DELTA = re.compile(r"exact: delta=(\d)")


def scale_request(name: str, k: int) -> Request:
    params = FIXED_PARAMS[name]
    lam = F(10) ** k
    argv = (["h11", "--entry", name] + _param_args(params)
            + ["--metric", _metric_arg(lam, 2 * lam, lam * lam / 3, lam * lam / 5),
               "--json"])
    want = oracle.h11_jumps(name, params, UNSCALED)
    where = f"h11 {name} L=1e{k}"

    def check(code, out, err):
        if code == 3:
            found = _EXACT_DELTA.search(err)
            require("backend disagreement" in err and found is not None,
                    f"{where}: exit 3 without a backend disagreement: {err[:300]}")
            require(found.group(1) == str(int(want)),
                    f"{where}: exact delta {found.group(1)}, table says {int(want)}")
            return True
        _ok(code, err, where)
        oracle.check_decision(json.loads(out)["decision"], want, where)
        return False

    return Request(argv, None, check)


class H11Scale:
    def __init__(self, rng):
        self.rng = rng
        self.requests = [scale_request(n, k) for n in ENTRIES for k in SCALE_EXPONENTS]

    def warmup(self) -> list[Request]:
        """One request per entry at L = 1: it fills the structure caches, and
        later rounds then run no faster than the first timed one."""
        return [scale_request(n, 0) for n in ENTRIES]

    def round(self) -> list[Request]:
        return self.rng.sample(self.requests, len(self.requests))


# -- report-cold ----------------------------------------------------------------

_RS = (F(1, 2), F(1), F(3, 2), F(2))


def _locus_point(name: str, params: dict, r2: F, rng) -> tuple[F, F]:
    if name in ("secondary_kodaira", "primary_kodaira_II"):
        return _small(rng), F(0)
    if name == "inoue_sm":
        return _small(rng), -params["alpha"] * r2 / params["beta"]
    if name == "nilmanifold_II":
        return F(0), F(0)
    if name == "primary_kodaira_I":
        return params["alpha"] * r2, _small(rng)
    return _small(rng), _small(rng)


def pick_metric(rng, name: str, params: dict, on_locus: bool) -> tuple[F, F, F, F]:
    """(r, s, u_re, u_im), on the h11 locus or off it where the locus allows."""
    r = rng.choice(_RS)
    if on_locus:
        u = _locus_point(name, params, r * r, rng)
    else:
        for _ in range(20):
            u = (_small(rng), _small(rng))
            if not oracle.h11_jumps(name, params, (r * r, F(1), *u)):
                break
    s = rng.choice(_RS)
    while not oracle.positive_definite(r * r, s * s, *u):
        s += 1
    return r, s, u[0], u[1]


def fresh_params(rng, name: str) -> dict:
    if name == "inoue_sm":
        return {"alpha": _nonzero(rng, 3, 12), "beta": _nonzero(rng, 3, 12)}
    if name == "hyperelliptic_II":
        while True:
            t = (_small(rng, 1, 12), _small(rng, 1, 12))
            if 0 < t[0] * t[0] + t[1] * t[1] < 1:
                return {"t_re": t[0], "t_im": t[1]}
    if name == "primary_kodaira_I":
        # |alpha| < 3: the AK search then finds its witness among its first,
        # deterministic candidates; beyond, it may end "unknown" (CHANGES.md)
        while True:
            a = _small(rng, 3, 12)
            if abs(a) < 3:
                return {"alpha": a}
    if name == "primary_kodaira_II":
        return {"beta": _nonzero(rng, 3, 12)}
    raise KeyError(name)


FAMILIES = ("inoue_sm", "hyperelliptic_II", "primary_kodaira_I", "primary_kodaira_II")


def _report_checks(report: dict, name: str, params: dict, metric, where: str) -> None:
    r, s, u_re, u_im = metric
    m2 = (r * r, s * s, u_re, u_im)
    coh = report["cohomology"]
    oracle.check_betti(coh, where)
    oracle.check_decision(report["decision"], oracle.h11_jumps(name, params, m2), where)
    oracle.check_ak(report["almost_kahler"], name, params, where)
    oracle.check_symplectic(report["symplectic"], coh["b2"], where)


def family_request(name: str, params: dict, metric) -> Request:
    argv = (["report", "--entry", name] + _param_args(params)
            + ["--metric", _metric_arg(*metric), "--backend", "exact", "--json"])
    where = f"report {name} {params} metric={metric}"

    def check(code, out, err):
        _ok(code, err, where)
        _report_checks(json.loads(out), name, params, metric, where)
        return False

    return Request(argv, None, check)


def custom_doc(d: dict, coframe: list, metric) -> str:
    r, s, u_re, u_im = metric
    return json.dumps({
        "custom": {
            "structure": [{"i": i, "j": j, "k": k, "c": str(c)}
                          for i, terms in sorted(d.items())
                          for (j, k), c in sorted(terms.items())],
            "coframe": [[[str(re_), str(im)] for re_, im in row] for row in coframe],
        },
        "metric": {"r": str(r), "s": str(s), "u_re": str(u_re), "u_im": str(u_im)},
        "options": {"backend": "exact"},
    })


class ReportCold:
    def __init__(self, rng, call):
        self.rng = rng
        self.call = call           # runs one command line untimed, for checks
        self.seen = {(n, tuple(sorted(p.items()))) for n, p in FIXED_PARAMS.items()}
        self.turn = 0
        self.base: dict = {}       # entry -> verdicts before any change of basis

    def warmup(self) -> list[Request]:
        reqs = []
        for name in ENTRIES:
            params = FIXED_PARAMS[name]
            metric = (F(1), F(2), F(0), F(0))
            base_req = family_request(name, params, metric)

            def check(code, out, err, name=name, inner=base_req.check):
                inner(code, out, err)
                self.base[name] = oracle.verdicts(json.loads(out))
                return False

            reqs.append(Request(base_req.argv, None, check))
        return reqs

    def _fresh(self, name: str) -> dict:
        while True:
            params = fresh_params(self.rng, name)
            key = (name, tuple(sorted(params.items())))
            if key not in self.seen:
                self.seen.add(key)
                return params

    def transformed_request(self, name: str, on_locus: bool) -> Request:
        rng = self.rng
        params = FIXED_PARAMS[name]
        metric = pick_metric(rng, name, params, on_locus)
        while True:
            a, b = oracle.unimodular_pair(rng)
            key = (name, tuple(map(tuple, a)))
            if key not in self.seen:
                self.seen.add(key)
                break
        d, coframe = oracle.change_basis(*oracle.structure_of(name, params), a, b)
        where = f"report {name} in basis {a} metric={metric}"
        base_argv = (["h11", "--entry", name] + _param_args(params)
                     + ["--metric", _metric_arg(*metric), "--backend", "exact", "--json"])

        def check(code, out, err):
            _ok(code, err, where)
            report = json.loads(out)
            _report_checks(report, name, params, metric, where)
            require(oracle.verdicts(report) == self.base[name],
                    f"{where}: verdicts {oracle.verdicts(report)} differ from "
                    f"{self.base[name]} before the change of basis")
            bcode, bout, berr = self.call(base_argv, None)
            _ok(bcode, berr, where + " (original basis)")
            require(json.loads(bout)["decision"]["delta"]
                    == report["decision"]["delta"],
                    f"{where}: delta differs from the original basis")
            return False

        return Request(["report", "-", "--backend", "exact", "--json"],
                       custom_doc(d, coframe, metric), check)

    def round(self) -> list[Request]:
        """Four fresh families and the eight entries in a new basis.

        Each request's metric is on the h11 locus every other round, so every
        round holds the same mix of jump and no-jump decisions.
        """
        rng = self.rng
        self.turn += 1
        reqs = []
        for e, name in enumerate(FAMILIES):
            params = self._fresh(name)
            reqs.append(family_request(name, params,
                                       pick_metric(rng, name, params, (self.turn + e) % 2 == 0)))
        reqs += [self.transformed_request(name, (self.turn + e) % 2 == 0)
                 for e, name in enumerate(ENTRIES)]
        rng.shuffle(reqs)
        return reqs


WORKLOADS = ("sweep-grid", "report-cold", "h11-scale")


def make(workload: str, seed: int, stream: int, call):
    """The workload's generator; ``stream`` tells the worker processes of one run apart."""
    rng = random.Random(f"{workload}/{seed}/{stream}")
    if workload == "sweep-grid":
        return SweepGrid(rng)
    if workload == "report-cold":
        return ReportCold(rng, call)
    if workload == "h11-scale":
        return H11Scale(rng)
    raise CheckError(f"unknown workload {workload!r}")
