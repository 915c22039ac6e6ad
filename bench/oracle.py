"""Independent oracle: the classification table and the checks on outputs.

Nothing here calls dolharm.  The table is the paper's classification (the
h11 locus and the almost-Kahler locus of each catalog entry), written out
again with its own positivity test r^2 s^2 > |u|^2, and the structure
constants and coframes are copied so that the benchmark can build custom
problems (and changes of basis) without asking the program.

A metric is the tuple (r2, s2, u_re, u_im) of Fractions.  A violated check
raises CheckError; the worker turns that into a failed run.
"""
from __future__ import annotations

from fractions import Fraction as F


class CheckError(Exception):
    """An output of the program disagrees with the oracle."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def positive_definite(r2, s2, u_re, u_im) -> bool:
    return r2 > 0 and s2 > 0 and r2 * s2 > u_re * u_re + u_im * u_im


# -- structures ---------------------------------------------------------------
# de^i = sum c e^{jk}, as {i: {(j, k): c}}; coframe rows phi^1, phi^2 in
# e^1..e^4 as (re, im) pairs.  Copied from the catalog definitions.

def _std_coframe():
    return [[(1, 0), (0, 0), (0, 1), (0, 0)], [(0, 0), (1, 0), (0, 0), (0, 1)]]


def structure_of(name: str, params: dict) -> tuple[dict, list]:
    p = {k: F(v) for k, v in params.items()}
    if name == "secondary_kodaira":
        return {1: {(2, 4): 1}, 2: {(1, 4): -1}, 3: {(1, 2): 1}}, _std_coframe()
    if name == "inoue_sm":
        a, b = p["alpha"], p.get("beta", F(0))
        return ({1: {(1, 4): a, (2, 4): b}, 2: {(1, 4): -b, (2, 4): a},
                 3: {(3, 4): -2 * a}}, _std_coframe())
    if name in ("nilmanifold_I", "nilmanifold_II"):
        d = {3: {(1, 2): -1}, 4: {(1, 3): -1}}
        if name == "nilmanifold_I":
            return d, [[(0, 0), (0, 0), (1, 0), (0, 1)], [(1, 0), (0, 1), (0, 0), (0, 0)]]
        return d, [[(1, 0), (0, 0), (0, 0), (0, 1)], [(0, 0), (1, 0), (0, 1), (0, 0)]]
    if name in ("hyperelliptic_I", "hyperelliptic_II"):
        d = {1: {(2, 3): -1}, 2: {(1, 3): 1}}
        if name == "hyperelliptic_I":
            return d, _std_coframe()
        tr, ti = p["t_re"], p["t_im"]
        # phi^1 = (1 + t) e^1 + i (1 - t) e^2, phi^2 = e^3 + i e^4
        return d, [[(1 + tr, ti), (ti, 1 - tr), (0, 0), (0, 0)],
                   [(0, 0), (0, 0), (1, 0), (0, 1)]]
    if name == "primary_kodaira_I":
        a = p.get("alpha", F(0))
        return ({3: {(1, 2): -1}},
                [[(1, 0), (0, 0), (0, 1), (a, 0)], [(0, 0), (1, 0), (0, 0), (0, 1)]])
    if name == "primary_kodaira_II":
        b = p["beta"]
        return ({3: {(1, 2): -1}},
                [[(0, 1), (0, 0), (0, 0), (1, 0)], [(0, 0), (1, 0), (0, -b), (0, 0)]])
    raise KeyError(name)


# -- the classification table ---------------------------------------------------

def h11_jumps(name: str, params: dict, metric) -> bool:
    """delta = 1 exactly on this locus (the paper's table)."""
    r2, _s2, u_re, u_im = metric
    p = {k: F(v) for k, v in params.items()}
    if name in ("secondary_kodaira", "primary_kodaira_II"):
        return u_im == 0
    if name == "inoue_sm":
        return p.get("beta", F(0)) * u_im == -p["alpha"] * r2
    if name in ("nilmanifold_I", "hyperelliptic_II"):
        return True
    if name == "nilmanifold_II":
        return u_re == 0 and u_im == 0
    if name == "hyperelliptic_I":
        return False
    if name == "primary_kodaira_I":
        return u_re == p.get("alpha", F(0)) * r2
    raise KeyError(name)


AK_FEASIBLE = {"secondary_kodaira": False, "inoue_sm": False, "nilmanifold_I": False,
               "nilmanifold_II": True, "hyperelliptic_I": False,
               "hyperelliptic_II": True, "primary_kodaira_I": True,
               "primary_kodaira_II": True}


def ak_metric(name: str, params: dict, metric) -> bool:
    """The metric's fundamental form is closed (the table's AK locus)."""
    r2, _s2, u_re, u_im = metric
    if not AK_FEASIBLE[name]:
        return False
    if name in ("nilmanifold_II", "hyperelliptic_II"):
        return u_re == 0 and u_im == 0
    if name == "primary_kodaira_I":
        return u_re == F(params.get("alpha", 0)) * r2
    return u_im == 0  # primary_kodaira_II


# -- change of basis ----------------------------------------------------------

def change_basis(d: dict, coframe: list, a: list, b: list) -> tuple[dict, list]:
    """Rewrite (d, coframe) in the coframe e'^i = sum_j a[i][j] e^j.

    ``b`` is the inverse of ``a``, so e^j = sum_m b[j][m] e'^m.  Then
    de'^i = sum_j a[i][j] de^j and phi = P e = (P b) e'.
    """
    new_d = {}
    for i in range(4):
        out: dict = {}
        for j in range(4):
            if not a[i][j]:
                continue
            for (k, l), c in d.get(j + 1, {}).items():
                for m in range(4):
                    for n in range(m + 1, 4):
                        det = (b[k - 1][m] * b[l - 1][n] - b[k - 1][n] * b[l - 1][m])
                        if det:
                            key = (m + 1, n + 1)
                            out[key] = out.get(key, 0) + a[i][j] * F(c) * det
        out = {key: v for key, v in out.items() if v}
        if out:
            new_d[i + 1] = out
    new_frame = [[(sum(F(row[j][0]) * b[j][m] for j in range(4)),
                   sum(F(row[j][1]) * b[j][m] for j in range(4))) for m in range(4)]
                 for row in coframe]
    return new_d, new_frame


def unimodular_pair(rng, moves: int = 3) -> tuple[list, list]:
    """A random integer matrix of determinant +-1 and its integer inverse.

    Built from ``moves`` elementary row additions row_i += k row_j with
    k = +-1, then a random signed permutation, so the entries stay small.
    """
    a = [[int(i == j) for j in range(4)] for i in range(4)]
    b = [row[:] for row in a]
    for _ in range(moves):
        i, j = rng.sample(range(4), 2)
        k = rng.choice((-1, 1))
        a[i] = [x + k * y for x, y in zip(a[i], a[j])]      # a <- E a
        for row in b:                                        # b <- b E^-1
            row[j] -= k * row[i]
    perm = rng.sample(range(4), 4)
    signs = [rng.choice((-1, 1)) for _ in range(4)]
    a = [[signs[i] * x for x in a[perm[i]]] for i in range(4)]
    b = [[row[perm[m]] * signs[m] for m in range(4)] for row in b]
    for i in range(4):
        for j in range(4):
            s = sum(a[i][k] * b[k][j] for k in range(4))
            require(s == (i == j), "unimodular pair is not inverse")
    return a, b


# -- report checks ------------------------------------------------------------

def check_betti(coh: dict, where: str) -> None:
    b = coh["betti_invariant"]
    require(len(b) == 5 and b[0] == 1 and b[4] == 1, f"{where}: betti {b}")
    require(b[1] == b[3], f"{where}: b1 != b3 in {b}")
    require(b[0] - b[1] + b[2] - b[3] + b[4] == 0, f"{where}: Euler number of {b}")
    require(b[2] == coh["b2"] == coh["b_plus"] + coh["b_minus"],
            f"{where}: b2 != b+ + b- in {coh}")


def check_decision(dec: dict, expect_delta: bool, where: str) -> None:
    require(dec["delta"] == int(expect_delta),
            f"{where}: delta {dec['delta']}, table says {int(expect_delta)}")
    require(dec["h11"] == dec["b_minus_used"] + dec["delta"],
            f"{where}: h11 {dec['h11']} != b- {dec['b_minus_used']} + delta")
    require((dec["witness"] is not None) == bool(dec["delta"]),
            f"{where}: witness present={dec['witness'] is not None}, delta={dec['delta']}")


def check_ak(ak: dict, name: str, params: dict, where: str) -> None:
    want = "feasible" if AK_FEASIBLE[name] else "infeasible"
    require(ak["status"] == want, f"{where}: almost Kahler {ak['status']}, table says {want}")
    w = ak["witness"]
    require((w is not None) == AK_FEASIBLE[name], f"{where}: AK witness {w}")
    if w is not None:
        m = tuple(F(w[k]) for k in ("r2", "s2", "u_re", "u_im"))
        require(positive_definite(*m), f"{where}: AK witness {w} not positive")
        require(ak_metric(name, params, m), f"{where}: AK witness {w} off the AK locus")


def check_symplectic(symp: dict, b2: int, where: str) -> None:
    want = "infeasible" if b2 == 0 else "feasible"
    require(symp["status"] == want, f"{where}: symplectic {symp['status']} with b2={b2}")


def verdicts(report: dict) -> dict:
    """The basis-independent verdicts of a report."""
    coh = report["cohomology"]
    return {"betti": coh["betti_invariant"], "b_plus": coh["b_plus"],
            "b_minus": coh["b_minus"], "ak": report["almost_kahler"]["status"],
            "symplectic": report["symplectic"]["status"]}
