"""Decision engine against the reference per-entry linear systems.

Every catalog entry comes with the linear system its classification condition
is derived from, written in the tau-absorbed unknowns (A, B', C').  The test
`test_assembled_system_equals_reference_system` checks that the assembled
rows are exactly those equations up to row scaling, for random exact
metrics.  The remaining tests pin the decision itself: the classification loci,
witness closed forms, scale and coframe invariance, backend agreement,
and the two feasibility verdicts.
"""
from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from dolharm import catalog
from dolharm.bidegree import AlmostComplexCoframe
from dolharm.cohomology import closed_form_basis
from dolharm.decision import (DEFAULT_TOLERANCE, W11, W12, W21, _ak_kernel,
                              _float_systems, _positivity_ok, _unit_scaled,
                              almost_kahler_feasible, assemble_system, calculus_for,
                              decide_grid, decide_h11, symplectic_feasible,
                              verify_witness)
from dolharm.errors import BackendDisagreementError, DolharmError, MetricError
from dolharm.exterior import FrameTag, InvariantForm
from dolharm.hermitian import MetricParams, asd_basis_scaled, fundamental_form
from dolharm.linalg import float_rank, invert_matrix, kernel, rank, rref
from dolharm.problem import Options, Problem, sweep_csv
from dolharm.scalars import QI

from conftest import DEFAULT_PARAMS, default_entries, random_coframe, random_metric

I = QI(0, 1)
C = FrameTag.COMPLEX


# -- reference systems, in homogeneous coordinates (cA, cB', cC', const) ------


def reference_system(key, params, m):
    R, u = QI(m.r2), m.u
    ub = u.conjugate()
    if key == "secondary_kodaira":
        return [
            (-I * u + I * ub, QI(1), QI(1), -u + ub),
            (I * u - I * ub, QI(-1), QI(-1), -u + ub),
            (-2 * R - I * u - I * ub, QI(1), QI(-1), 2 * I * R - u - ub),
            (2 * R - I * u - I * ub, QI(1), QI(-1), 2 * I * R + u + ub),
        ]
    if key == "inoue_sm":
        a, b = QI(params["alpha"]), QI(params["beta"])
        return [
            (2 * a * R - I * b * u + I * b * ub, b, b, -2 * I * a * R - b * u + b * ub),
            (-2 * a * R + I * b * u - I * b * ub, -b, -b, -2 * I * a * R - b * u + b * ub),
            (-2 * b * R + I * a * u + 3 * I * a * ub, -a, 3 * a,
             2 * I * b * R + a * u + 3 * a * ub),
            (2 * b * R + 3 * I * a * u + I * a * ub, -3 * a, a,
             2 * I * b * R - 3 * a * u - a * ub),
        ]
    if key == "nilmanifold_I":
        return [
            (2 * R - I * u - I * ub, QI(1), QI(-1), -2 * I * R - u - ub),
            (-2 * R - I * u - I * ub, QI(1), QI(-1), -2 * I * R + u + ub),
        ]
    if key == "nilmanifold_II":
        return [
            (-I * u - I * ub, QI(1), QI(-1), -u - ub),
            (I * u - I * ub, QI(-1), QI(-1), u - ub),
            (-I * u - I * ub, QI(1), QI(-1), u + ub),
            (-I * u + I * ub, QI(1), QI(1), u - ub),
        ]
    if key == "hyperelliptic_I":
        S = QI(m.s2)
        two_uu = QI(2 * u.abs2())
        return [
            (-(two_uu - R * S), -I * ub, I * u, I * S * R),
            (two_uu - R * S, I * ub, -I * u, I * S * R),
            (I * u - I * ub, QI(-1), QI(-1), u - ub),
            (-I * u + I * ub, QI(1), QI(1), u - ub),
        ]
    if key == "hyperelliptic_II":
        t = QI(params["t_re"], params["t_im"])
        tb = t.conjugate()
        one_tt = QI(1 + t.abs2())
        return [
            (I * one_tt * u - 2 * I * tb * ub, -one_tt, -2 * tb,
             one_tt * u - 2 * tb * ub),
            (-2 * I * t * u + I * one_tt * ub, 2 * t, one_tt,
             2 * t * u - one_tt * ub),
        ]
    if key == "primary_kodaira_I":
        a = QI(params["alpha"])
        return [
            (-2 * a * R + u + ub, I, -I, 2 * I * a * R - I * u - I * ub),
            (-2 * a * R + u + ub, I, -I, -2 * I * a * R + I * u + I * ub),
        ]
    if key == "primary_kodaira_II":
        return [
            (I * u - I * ub, QI(-1), QI(-1), u - ub),
            (-I * u + I * ub, QI(1), QI(1), u - ub),
        ]
    raise AssertionError(key)


def homogeneous_rows(system):
    rows = []
    for coeffs, rhs in zip(system.matrix, system.rhs):
        vec = (*coeffs, -rhs)
        if any(vec):
            rows.append(vec)
    return rows


def proportional(v, w) -> bool:
    pivot = next((k for k in range(4) if w[k]), None)
    if pivot is None:
        return not any(v)
    if not v[pivot]:
        return False
    lam = v[pivot] / w[pivot]
    return all(v[k] == lam * w[k] for k in range(4))


def systems_equal_up_to_row_scaling(mine, reference) -> bool:
    if len(mine) != len(reference):
        return False
    for perm in permutations(range(len(reference))):
        if all(proportional(mine[i], reference[perm[i]]) for i in range(len(mine))):
            return True
    return False


@pytest.mark.parametrize("name", sorted(DEFAULT_PARAMS))
def test_assembled_system_equals_reference_system(name):
    rng = random.Random(hash(name) % 10_000)
    entry = catalog(name, **DEFAULT_PARAMS[name])
    params = {k: v.re for k, v in entry.params}
    for _ in range(6):
        m = random_metric(rng)
        mine = homogeneous_rows(assemble_system(entry.lie, entry.coframe, m))
        expected = reference_system(name, params, m)
        assert systems_equal_up_to_row_scaling(mine, expected), (name, m.describe())


def _form_algebra_system(lie, coframe, m):
    """[M|v] from the form algebra alone: column k of M is 4i times the W21
    and W12 coefficients of d gamma(e_k), and v is 4i d omega with the
    delbar (W12) rows negated."""
    calc = calculus_for(lie, coframe)
    four_i = QI(0, 4)
    d_gammas = [calc.d(g) for g in asd_basis_scaled(m)]
    d_omega = calc.d(fundamental_form(m))
    words = W21 + W12
    matrix = tuple(tuple(four_i * dg.get(w) for dg in d_gammas) for w in words)
    rhs = tuple(four_i * d_omega.get(w) * (1 if k < len(W21) else -1)
                for k, w in enumerate(words))
    return matrix, rhs


# de^1 = e^14, de^2 = -e^24, de^3 = e^12: solvable, not unimodular, in no entry
_CUSTOM_LIE = {1: {(1, 4): 1}, 2: {(2, 4): -1}, 3: {(1, 2): 1}}


@pytest.mark.parametrize("name", sorted(DEFAULT_PARAMS) + ["custom"])
def test_assembled_system_equals_form_algebra_entrywise(name):
    """The integer evaluation of M = T G(m), v = S T omega(m) equals, entry for
    entry, the system built in the form algebra: on the entry's coframe and
    two random ones, at scales 10^0, 10^+-8 and 10^+-200, with u as drawn,
    real, purely imaginary and zero."""
    from dolharm import LieStructure

    rng = random.Random(sum(map(ord, name)))
    if name == "custom":
        lie, coframes = LieStructure.from_d(_CUSTOM_LIE, "custom"), []
    else:
        entry = catalog(name, **DEFAULT_PARAMS[name])
        lie, coframes = entry.lie, [entry.coframe]
    coframes += [random_coframe(rng) for _ in range(2)]
    for coframe in coframes:
        for k in (0, -8, 8, -200, 200):
            m = random_metric(rng).scaled(Fraction(10) ** k)
            for u in (m.u, QI(m.u.re), QI(0, m.u.im), QI(0)):
                metric = MetricParams.from_squares(m.r2, m.s2, u)
                system = assemble_system(lie, coframe, metric)
                matrix, rhs = _form_algebra_system(lie, coframe, metric)
                assert system.matrix == matrix and system.rhs == rhs, (name, k, u)


def test_secondary_kodaira_flat_system_reduces_to_reference():
    entry = catalog("secondary_kodaira")
    m = MetricParams.from_rs(1, 1, 0)
    rows = homogeneous_rows(assemble_system(entry.lie, entry.coframe, m))
    expected = [
        (QI(0), QI(1), QI(1), QI(0)),            # B' + C' = 0
        (QI(0), QI(-1), QI(-1), QI(0)),          # -B' - C' = 0
        (QI(-2), QI(1), QI(-1), QI(0, 2)),       # 2i - 2A + B' - C' = 0
        (QI(2), QI(1), QI(-1), QI(0, 2)),        # 2i + 2A + B' - C' = 0
    ]
    assert systems_equal_up_to_row_scaling(rows, expected)


def test_hyperelliptic_system_contains_inconsistent_pair():
    """Two rows with opposite unknown parts whose constants add to i s^2 r^2."""
    rng = random.Random(41)
    entry = catalog("hyperelliptic_I")
    for _ in range(10):
        m = random_metric(rng)
        system = assemble_system(entry.lie, entry.coframe, m)
        rows = homogeneous_rows(system)
        target_a = -(QI(2 * m.u.abs2()) - QI(m.r2 * m.s2))
        found = False
        for v in rows:
            if not v[0]:
                continue
            lam = target_a / v[0]
            first = tuple(lam * x for x in v)
            for w in rows:
                if w is v:
                    continue
                mu_ = -first[1] / w[1] if w[1] else None
                if mu_ is None:
                    continue
                second = tuple(mu_ * x for x in w)
                if all(first[k] + second[k] == QI(0) for k in range(3)):
                    total = first[3] + second[3]
                    # equations are c . x + const = 0, so const pair sums to
                    # 2 i s^2 r^2, i.e. i s^2 r^2 after halving
                    if total / QI(2) == I * QI(m.s2 * m.r2):
                        found = True
        assert found, m.describe()
        rep = decide_h11(entry.lie, entry.coframe, m, backend="exact", entry=entry)
        assert rep.delta == 0 and rep.rank_aug == rep.rank_m + 1


def test_abelian_torus_system_is_trivial():
    from dolharm import LieStructure

    torus = LieStructure.abelian()
    cof = AlmostComplexCoframe.from_rows([[1, 0, I, 0], [0, 1, 0, I]])
    m = MetricParams.from_rs(1, 2, QI(1, 1))
    system = assemble_system(torus, cof, m)
    assert not any((*sum(system.matrix, ()), *system.rhs))
    rep = decide_h11(torus, cof, m, backend="both")
    assert rep.delta == 1  # 0 = 0 is solvable; witness gamma = 0


# -- decision loci --------------------------------------------------------------


def test_secondary_kodaira_witness_closed_form():
    entry = catalog("secondary_kodaira")
    rng = random.Random(17)
    for _ in range(20):
        r = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        s = Fraction(rng.randint(1, 8), rng.randint(1, 4))
        u_re = Fraction(rng.randint(-3, 3), rng.randint(1, 5))
        if u_re * u_re >= r * r * s * s:
            continue
        m = MetricParams.from_rs(r, s, QI(u_re, 0))
        rep = decide_h11(entry.lie, entry.coframe, m, backend="exact", entry=entry)
        assert rep.delta == 1
        a, bp, cp = rep.witness_scaled
        r2 = m.r2
        u = u_re
        assert a == QI(-u / r2)
        assert cp == QI(0, (r2 * r2 + u * u) / r2)
        assert bp == -cp


def test_scale_equivariance_of_delta():
    rng = random.Random(23)
    for entry in default_entries():
        for _ in range(8):
            m = random_metric(rng)
            lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
            scaled = m.scaled(lam)
            d1 = decide_h11(entry.lie, entry.coframe, m, backend="exact",
                            entry=entry).delta
            d2 = decide_h11(entry.lie, entry.coframe, scaled, backend="exact",
                            entry=entry).delta
            assert d1 == d2, (entry.key, m.describe(), lam)


def _transformed_structure(entry, qmat, m):
    """Coframe phi' = Q phi with the metric rewritten in the new normal form."""
    qinv = invert_matrix([list(row) for row in qmat])
    g = m.g
    # g'[k][l] = sum_{i,j} qinv[i][k] g[i][j] conj(qinv[j][l])
    gp = [[sum((qinv[i][k] * g[i][j] * qinv[j][l].conjugate()
                for i in range(2) for j in range(2)), start=QI(0))
           for l in range(2)] for k in range(2)]
    assert gp[0][0].im == 0 and gp[1][1].im == 0
    u_new = I * gp[0][1]
    m_new = MetricParams.from_squares(gp[0][0].re, gp[1][1].re, u_new)
    rows = entry.coframe.rows
    new_rows = [
        [sum((qmat[k][i] * rows[i][j] for i in range(2)), start=QI(0))
         for j in range(4)]
        for k in range(2)
    ]
    return AlmostComplexCoframe.from_rows(new_rows), m_new


def test_delta_invariant_under_coframe_change():
    rng = random.Random(29)
    for entry in default_entries():
        for _ in range(4):
            m = random_metric(rng)
            while True:
                qmat = [[QI(rng.randint(-2, 2), rng.randint(-2, 2))
                         for _ in range(2)] for _ in range(2)]
                det = qmat[0][0] * qmat[1][1] - qmat[0][1] * qmat[1][0]
                if det:
                    break
            new_cof, new_m = _transformed_structure(entry, qmat, m)
            d1 = decide_h11(entry.lie, entry.coframe, m, backend="exact",
                            entry=entry).delta
            d2 = decide_h11(entry.lie, new_cof, new_m, backend="exact",
                            entry=entry).delta
            assert d1 == d2, (entry.key, m.describe())


def test_backend_agreement_on_random_samples():
    rng = random.Random(31)
    entries = default_entries()
    for k in range(500):
        entry = entries[k % len(entries)]
        m = random_metric(rng)
        rep = decide_h11(entry.lie, entry.coframe, m, backend="both", entry=entry)
        assert rep.backend == "both"


def test_backend_disagreement_raises():
    entry = catalog("secondary_kodaira")
    m = MetricParams.from_rs(1, 1, 0)
    # an absurdly small tolerance makes the floating backend reject the
    # (exactly solvable) system, which must surface as a hard error
    with pytest.raises(BackendDisagreementError):
        decide_h11(entry.lie, entry.coframe, m, backend="both", entry=entry,
                   tolerance=1e-30)


def test_float_verdict_does_not_depend_on_scale():
    """delta is invariant under r -> lam r, s -> lam s, u -> lam^2 u; the
    float backend decides on unit columns and a unit right-hand side, so
    "both" agrees with "exact" from lam = 1e-8 to 1e8 on every entry.  Its
    residuals are relative to the size of d omega and of gamma, so they stay
    within the tolerance at every scale too."""
    for entry in default_entries():
        want = None
        for k in range(-8, 9):
            lam = Fraction(10) ** k
            m = MetricParams.from_rs(lam, 2 * lam, QI(lam * lam / 3, lam * lam / 5))
            exact = decide_h11(entry.lie, entry.coframe, m, backend="exact", entry=entry)
            both = decide_h11(entry.lie, entry.coframe, m, backend="both", entry=entry)
            assert both.delta == exact.delta, (entry.key, k)
            assert max(both.residual_dc, both.residual_star) <= both.tolerance, (
                entry.key, k, both.residual_dc, both.residual_star)
            want = exact.delta if want is None else want
            assert exact.delta == want, (entry.key, k)


def _locus_centre(key: str, params: dict, r: Fraction) -> QI:
    """A u on the entry's h11 locus at this r (r < s keeps it valid)."""
    if key == "inoue_sm":
        return QI(0, -Fraction(params["alpha"]) * r * r / params["beta"])
    if key == "primary_kodaira_I":
        return QI(Fraction(params["alpha"]) * r * r, 0)
    return QI(0)


@pytest.mark.parametrize("backend", ["exact", "float", "both"])
def test_sweep_grid_matches_per_cell_decisions(backend):
    """A 5x5 sweep, decided in one decide_grid call, prints at each cell the
    delta of decide_h11 on that metric alone: every entry, two (r, s), grids
    centred on the h11 locus whose corners are invalid."""
    tally = Counter()
    for entry in default_entries():
        problem = Problem(entry.lie, entry.coframe, None, entry, Options(backend=backend))
        for r, s in ((Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(1))):
            c, h = _locus_centre(entry.key, DEFAULT_PARAMS[entry.key], r), Fraction(4, 5) * r * s
            csv = sweep_csv(problem, u_re=(c.re - h, c.re + h),
                            u_im=(c.im - h, c.im + h), steps=5, r=r, s=s)
            rows = [line.split(",") for line in csv.splitlines()]
            for row in rows[1:]:
                for u_re, cell in zip(rows[0][1:], row[1:]):
                    tally[cell] += 1
                    try:
                        m = MetricParams.from_rs(r, s, QI(Fraction(u_re), Fraction(row[0])))
                    except MetricError:
                        assert cell == "x", (entry.key, r, u_re, row[0])
                        continue
                    want = decide_h11(entry.lie, entry.coframe, m, backend=backend,
                                      entry=entry).delta
                    assert cell == str(want), (entry.key, r, u_re, row[0])
    assert set(tally) == {"x", "0", "1"}


def test_decide_grid_checks_once_and_keeps_order():
    entry = catalog("secondary_kodaira")
    metrics = [MetricParams.from_rs(1, 1, QI(Fraction(k, 4), Fraction(j, 4)))
               for j in (-1, 0, 1) for k in (-1, 0, 1)]
    for backend in ("exact", "float", "both"):
        assert decide_grid(entry.lie, entry.coframe, metrics, backend=backend,
                           entry=entry) == [0, 0, 0, 1, 1, 1, 0, 0, 0]
        assert decide_grid(entry.lie, entry.coframe, [], backend=backend) == []
    with pytest.raises(DolharmError, match="tolerance"):
        decide_grid(entry.lie, entry.coframe, metrics, entry=entry, tolerance=1.0)
    with pytest.raises(DolharmError):
        decide_grid(entry.lie, entry.coframe, metrics, backend="quantum")
    # the first disagreeing metric is the first on the jump locus
    with pytest.raises(BackendDisagreementError) as exc:
        decide_grid(entry.lie, entry.coframe, metrics, entry=entry, tolerance=1e-30)
    assert exc.value.exact_report.delta == 1 and exc.value.float_report.delta == 0
    assert exc.value.exact_report.witness_scaled is not None


def test_one_float_conversion_per_decision(monkeypatch):
    """A decision converts its systems to numpy once: decide_h11 on a jump and
    on no jump, its witness and residuals included, and decide_grid over a
    whole grid; exact decisions never do."""
    from dolharm import decision

    calls = []

    def counted(systems):
        calls.append(len(systems))
        return _float_systems(systems)

    monkeypatch.setattr(decision, "_float_systems", counted)
    entry = catalog("secondary_kodaira")
    jump, no_jump = (MetricParams.from_rs(1, 1, QI(0, v)) for v in (0, Fraction(1, 4)))
    for backend, want in (("exact", []), ("float", [1]), ("both", [1])):
        for m, delta in ((jump, 1), (no_jump, 0)):
            calls.clear()
            report = decide_h11(entry.lie, entry.coframe, m, backend=backend, entry=entry)
            assert report.delta == delta and calls == want, (backend, delta)
            assert (report.witness is not None) == (delta == 1)
    metrics = [MetricParams.from_rs(1, 1, QI(Fraction(k, 4), Fraction(j, 4)))
               for j in (-1, 0, 1) for k in (-1, 0, 1)]
    for backend, want in (("exact", []), ("float", [9]), ("both", [9])):
        calls.clear()
        decide_grid(entry.lie, entry.coframe, metrics, backend=backend, entry=entry)
        assert calls == want, backend


def test_stacked_float_rank_equals_per_matrix():
    """float_rank and the unit scaling give each system of a stack what they
    give it on its own: the h11-scale systems of every entry (r = L, s = 2L,
    u = (1/3 + i/5) L^2, L = 10^k, k = -8..8) and zero matrices."""
    import numpy as np

    systems = []
    for entry in default_entries():
        for k in range(-8, 9):
            lam = Fraction(10) ** k
            m = MetricParams.from_rs(lam, 2 * lam, QI(lam * lam / 3, lam * lam / 5))
            systems.append(assemble_system(entry.lie, entry.coframe, m))
    raw_mat, raw_vec = _float_systems(systems)
    mat, aug, col, scale = _unit_scaled(raw_mat, raw_vec)
    for k, system in enumerate(systems):
        # the norms numpy.linalg.norm gives each M and v on its own
        assert np.array_equal(col[k], np.linalg.norm(raw_mat[k], axis=0))
        assert scale[k] == np.linalg.norm(raw_vec[k])
        one = _unit_scaled(*_float_systems([system]))
        for stacked, alone in zip((mat, aug, col, scale), one):
            assert np.array_equal(stacked[k], alone[0]), k
    for stack in (mat, aug, np.zeros((3, 4, 3), dtype=complex)):
        ranks = float_rank(stack, DEFAULT_TOLERANCE)
        assert ranks.tolist() == [float_rank(m, DEFAULT_TOLERANCE) for m in stack]
    assert float_rank(np.zeros((4, 3)), DEFAULT_TOLERANCE) == 0
    assert float_rank(np.zeros((0, 4, 3)), DEFAULT_TOLERANCE).tolist() == []


def test_invalid_policy_and_backend():
    entry = catalog("secondary_kodaira")
    m = MetricParams.from_rs(1, 1, 0)
    with pytest.raises(DolharmError):
        decide_h11(entry.lie, entry.coframe, m, entry=entry, b_minus="bogus")
    with pytest.raises(DolharmError):
        decide_h11(entry.lie, entry.coframe, m, entry=entry, backend="quantum")
    for tolerance in (0.0, -1e-9, 1.0, float("inf"), float("nan")):
        with pytest.raises(DolharmError, match="tolerance"):
            decide_h11(entry.lie, entry.coframe, m, entry=entry, tolerance=tolerance)
    with pytest.raises(DolharmError):
        decide_h11(entry.lie, entry.coframe, m, b_minus="paper")  # no entry


def test_b_minus_policies():
    entry = catalog("primary_kodaira_II", beta=1)
    m = MetricParams.from_rs(1, 1, QI(Fraction(1, 2), 0))
    rep_auto = decide_h11(entry.lie, entry.coframe, m, entry=entry)
    assert rep_auto.b_minus_provenance == "ce_computed"
    assert rep_auto.b_minus_used == 2 and rep_auto.h11 == 3
    rep_paper = decide_h11(entry.lie, entry.coframe, m, entry=entry, b_minus="paper")
    assert rep_paper.b_minus_used == 1 and rep_paper.h11 == 2
    rep_over = decide_h11(entry.lie, entry.coframe, m, entry=entry, b_minus=7)
    assert rep_over.b_minus_used == 7 and rep_over.b_minus_provenance == "override"
    with pytest.raises(DolharmError, match="nonnegative"):
        decide_h11(entry.lie, entry.coframe, m, entry=entry, b_minus=-5)
    assert rep_auto.b_minus_discrepancy


def test_witness_soundness_exact_and_float():
    rng = random.Random(37)
    for entry in default_entries():
        hits = 0
        for _ in range(40):
            m = random_metric(rng)
            rep = decide_h11(entry.lie, entry.coframe, m, backend="exact",
                             entry=entry)
            assert rep.delta == int(entry.h11_predicate(m)), (entry.key, m.describe())
            if rep.delta:
                hits += 1
                res_dc, res_star = verify_witness(entry.lie, entry.coframe, m,
                                                  rep.witness_scaled)
                assert res_dc.is_zero and res_star.is_zero
                frep = decide_h11(entry.lie, entry.coframe, m, backend="float",
                                  entry=entry)
                assert frep.delta == 1
                assert frep.residual_dc <= 1e-9 and frep.residual_star <= 1e-9
        if entry.key in ("nilmanifold_I", "hyperelliptic_II"):
            assert hits == 40  # delta = 1 for every metric on these entries


# -- feasibility ---------------------------------------------------------------


AK_EXPECTED = {
    "secondary_kodaira": "infeasible",
    "inoue_sm": "infeasible",
    "nilmanifold_I": "infeasible",
    "nilmanifold_II": "feasible",
    "hyperelliptic_I": "infeasible",
    "hyperelliptic_II": "feasible",
    "primary_kodaira_I": "feasible",
    "primary_kodaira_II": "feasible",
}

SYMPLECTIC_EXPECTED = {
    "secondary_kodaira": "infeasible",
    "inoue_sm": "infeasible",
    "nilmanifold_I": "feasible",
    "nilmanifold_II": "feasible",
    "hyperelliptic_I": "feasible",
    "hyperelliptic_II": "feasible",
    "primary_kodaira_I": "feasible",
    "primary_kodaira_II": "feasible",
}


@pytest.mark.parametrize("name", sorted(AK_EXPECTED))
def test_almost_kahler_verdicts(name):
    entry = catalog(name, **DEFAULT_PARAMS[name])
    verdict = almost_kahler_feasible(entry.lie, entry.coframe)
    assert verdict.status == AK_EXPECTED[name]
    assert verdict.status == ("feasible" if entry.ak_satisfiable else "infeasible")
    if verdict.status == "feasible":
        m = verdict.witness
        calc = calculus_for(entry.lie, entry.coframe)
        assert calc.d(fundamental_form(m)).is_zero
        assert entry.ak_metric_predicate(m)
    else:
        assert verdict.certificate


@pytest.mark.parametrize("name", sorted(SYMPLECTIC_EXPECTED))
def test_symplectic_verdicts(name):
    entry = catalog(name, **DEFAULT_PARAMS[name])
    verdict = symplectic_feasible(entry.lie)
    assert verdict.status == SYMPLECTIC_EXPECTED[name]
    if verdict.status == "feasible":
        w = verdict.witness
        assert entry.lie.d(w).is_zero
        assert w.wedge(w).coeffs.get((1, 2, 3, 4))


def test_symplectic_witness_example_nilmanifold():
    entry = catalog("nilmanifold_I")
    # e^{14} + e^{23} is closed and squares to 2 e^{1234}
    sigma = (InvariantForm.basis(FrameTag.REAL, (1, 4))
             + InvariantForm.basis(FrameTag.REAL, (2, 3)))
    assert entry.lie.d(sigma).is_zero
    assert sigma.wedge(sigma).coeffs[(1, 2, 3, 4)] == QI(2)


def test_symplectic_torus():
    from dolharm import LieStructure

    verdict = symplectic_feasible(LieStructure.abelian())
    assert verdict.status == "feasible"


def test_ak_feasible_implies_symplectic():
    for entry in default_entries():
        ak = almost_kahler_feasible(entry.lie, entry.coframe)
        if ak.status == "feasible":
            assert symplectic_feasible(entry.lie).status == "feasible"


def test_nilmanifold_I_ak_blocked_by_unreal_constraint():
    """Closedness forces both Re(u) = 0 and r^2 = 0 via u + conj(u) = 2i r^2;
    the verdict must come from that computation, with a certificate."""
    entry = catalog("nilmanifold_I")
    from dolharm.decision import _ak_kernel

    basis = _ak_kernel(entry.lie, entry.coframe)
    assert basis, "closedness system should be underdetermined, not empty"
    assert all(vec[0] == 0 for vec in basis)      # r^2 forced to zero
    assert all(vec[2] == 0 for vec in basis)      # Re(u) forced to zero
    verdict = almost_kahler_feasible(entry.lie, entry.coframe)
    assert verdict.status == "infeasible"
    assert "r^2" in verdict.certificate


def test_ak_primary_kodaira_witness_locus():
    for alpha in (1, -2):
        entry = catalog("primary_kodaira_I", alpha=alpha)
        verdict = almost_kahler_feasible(entry.lie, entry.coframe)
        assert verdict.status == "feasible"
        m = verdict.witness
        assert m.u.re == alpha * m.r2
        assert m.u.im == 0 or True  # Im(u) is unconstrained here


def test_decision_requires_valid_structure():
    from dolharm import LieStructure

    bad = LieStructure.from_d({1: {(2, 3): 1, (1, 2): 1}, 2: {(1, 3): 1}})
    cof = AlmostComplexCoframe.from_rows(
        [[1, 0, QI(0, 1), 0], [0, 1, 0, QI(0, 1)]])
    m = MetricParams.from_rs(1, 1, 0)
    with pytest.raises(DolharmError):
        decide_h11(bad, cof, m)
    with pytest.raises(DolharmError):
        almost_kahler_feasible(bad, cof)
    with pytest.raises(DolharmError):
        symplectic_feasible(bad)


@pytest.mark.parametrize("alpha", [3, 29, 30, 35, 37, 100, Fraction(-77, 3), Fraction(1, 7)])
def test_ak_primary_kodaira_large_alpha(alpha):
    """Feasible for every alpha, including those where a search over small
    combinations of the kernel basis finds no witness."""
    entry = catalog("primary_kodaira_I", alpha=alpha)
    verdict = almost_kahler_feasible(entry.lie, entry.coframe)
    assert verdict.status == "feasible"
    m = verdict.witness
    assert _positivity_ok([m.r2, m.s2, m.u.re, m.u.im])
    assert calculus_for(entry.lie, entry.coframe).d(fundamental_form(m)).is_zero
    assert entry.ak_metric_predicate(m)


def _reference_ak_search(lie, coframe):
    """The AK search the decision replaced: "infeasible" on an empty kernel or
    one forcing r^2 = 0 or s^2 = 0, "feasible" once small-integer and then
    seeded random combinations of the kernel basis hit a positive metric,
    "unknown" when its budget of 10,000 samples runs out."""
    budget = 10_000
    basis = _ak_kernel(lie, coframe)
    if not basis or any(all(vec[k] == 0 for vec in basis) for k in (0, 1)):
        return "infeasible"

    def hit(coeffs):
        return _positivity_ok([sum(c * vec[k] for c, vec in zip(coeffs, basis))
                               for k in range(4)])

    used = 0
    for coeffs in product(range(-3, 4), repeat=len(basis)):
        if used >= budget:
            break
        if any(coeffs):
            used += 1
            if hit(coeffs):
                return "feasible"
    rng = random.Random(0)
    while used < budget:
        used += 1
        if hit([Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in basis]):
            return "feasible"
    return "unknown"


def test_ak_decision_agrees_with_reference_search():
    """On the eight Lie algebras with random coframes the decision never says
    "unknown", agrees with the old search wherever that search decided, and
    re-verifies every witness."""
    rng = random.Random(59)
    seen = Counter()
    for entry in default_entries():
        for coframe in [entry.coframe] + [random_coframe(rng) for _ in range(4)]:
            verdict = almost_kahler_feasible(entry.lie, coframe)
            reference = _reference_ak_search(entry.lie, coframe)
            assert verdict.status in ("feasible", "infeasible")
            if reference != "unknown":
                assert verdict.status == reference, (entry.key, coframe)
            if verdict.status == "feasible":
                m = verdict.witness
                assert _positivity_ok([m.r2, m.s2, m.u.re, m.u.im])
                assert calculus_for(entry.lie, coframe).d(fundamental_form(m)).is_zero
            else:
                assert "inertia" in verdict.certificate
            seen[verdict.status, reference] += 1
    assert seen["feasible", "feasible"] and seen["infeasible", "infeasible"], seen


def _reference_symplectic_witness(lie):
    """The first closed basis 2-form with nonzero square, else the first sum
    of two whose wedge is nonzero: the scan the diagonalization replaced."""
    basis = closed_form_basis(lie, 2)

    def top(f, g):
        return f.wedge(g).coeffs.get((1, 2, 3, 4), QI(0)).re

    for f in basis:
        if top(f, f):
            return f
    for i, f in enumerate(basis):
        for g in basis[i + 1:]:
            if top(f, g):
                return f + g
    return None


def _rebased(lie, a):
    """The same Lie algebra in the coframe e'^i = sum_j a[i][j] e^j."""
    from dolharm import LieStructure
    from dolharm.exterior import change_frame

    a = [[QI(x) for x in row] for row in a]
    de = [lie.d_on_coframe(j) for j in range(1, 5)]
    d = {}
    for i in range(4):
        form = sum((de[j].scaled(a[i][j]) for j in range(4)),
                   start=InvariantForm.zero(FrameTag.REAL, 2))
        d[i + 1] = {w: c.re for w, c in change_frame(form, FrameTag.REAL, a).coeffs.items()}
    return LieStructure.from_d(d, lie.name + " rebased")


def test_symplectic_witness_matches_pair_scan():
    """Same witness as the old scan on every catalog family and the torus,
    where each basis form squares to zero and the (i, j) hook decides, and in
    a second basis, where a basis form with nonzero square decides."""
    from dolharm import LieStructure

    lies = [entry.lie for entry in default_entries()] + [LieStructure.abelian()]
    lies += [catalog("inoue_sm", alpha=a, beta=b).lie for a, b in ((2, -1), (1, 0))]
    shear = [[1, 1, 0, 0], [0, 1, 0, 0], [1, 0, 1, 1], [0, 0, 0, 1]]
    lies += [_rebased(lie, shear) for lie in lies]
    square_decides = 0
    for lie in lies:
        verdict = symplectic_feasible(lie)
        reference = _reference_symplectic_witness(lie)
        assert verdict.status == ("infeasible" if reference is None else "feasible")
        assert verdict.witness == reference, lie.name
        assert str(verdict.witness) == str(reference)
        square_decides += reference in closed_form_basis(lie, 2)
    assert square_decides


def test_ak_verdict_deterministic():
    entry = catalog("nilmanifold_II")
    v1 = almost_kahler_feasible(entry.lie, entry.coframe)
    v2 = almost_kahler_feasible(entry.lie, entry.coframe)
    assert v1 == v2


# -- the single-elimination path against the old multi-elimination route -------


def _reference_route(entry, m):
    """rank M and rank [M|v] each from its own elimination, and the
    minimum-norm solution by the Gram route x = M^H z with (M M^H) z = v, as
    decided before the single elimination."""
    system = assemble_system(entry.lie, entry.coframe, m)
    mat = [list(row) for row in system.matrix]
    rank_m = rank(mat)
    rank_aug = rank([row + [v] for row, v in zip(mat, system.rhs)])
    if rank_m != rank_aug:
        return rank_m, rank_aug, None
    mh = [[row[j].conjugate() for row in mat] for j in range(3)]
    gram = [[sum((x * y for x, y in zip(row, col)), start=QI(0)) for col in zip(*mh)]
            for row in mat]
    red, pivots = rref([row + [v] for row, v in zip(gram, system.rhs)])
    z = [QI(0)] * len(gram)
    for k, p in enumerate(pivots):
        z[p] = red[k][-1]
    x = tuple(sum((a * b for a, b in zip(row, z)), start=QI(0)) for row in mh)
    return rank_m, rank_aug, x


def test_single_elimination_matches_reference_route():
    rng = random.Random(43)
    cases = {"full_rank_witness": 0, "min_norm_witness": 0, "no_witness": 0}
    for entry in default_entries():
        metrics = [random_metric(rng) for _ in range(6)]
        # on the loci of secondary_kodaira, inoue_sm (alpha = beta = 1) and
        # primary_kodaira_I (alpha = 1) respectively
        metrics += [MetricParams.from_rs(1, 2, u)
                    for u in (QI(Fraction(1, 3), 0), QI(0, -1), QI(1, 0))]
        for k in (-8, -4, 0, 4, 8):
            lam = Fraction(10) ** k
            metrics.append(MetricParams.from_rs(
                lam, 2 * lam, QI(lam * lam / 3, lam * lam / 5)))
        for m in metrics:
            rep = decide_h11(entry.lie, entry.coframe, m, backend="exact", entry=entry)
            rank_m, rank_aug, x = _reference_route(entry, m)
            assert (rep.rank_m, rep.rank_aug) == (rank_m, rank_aug), (entry.key, m)
            assert rep.witness_scaled == x, (entry.key, m.describe())
            if x is not None:
                assert all(isinstance(c, QI) for c in rep.witness_scaled)
            cases["no_witness" if x is None else
                  "full_rank_witness" if rank_m == 3 else "min_norm_witness"] += 1
    assert all(cases.values()), cases


def test_rank_deficient_witness_is_orthogonal_to_kernel():
    """On every rank-deficient exact jump the witness solves M x = v and is
    Hermitian-orthogonal to ker M, which makes it the minimum-norm solution.
    Random metrics, plus the loci of primary_kodaira_I (alpha = 1: rank M = 1)
    and primary_kodaira_II (u real)."""
    rng = random.Random(47)
    ranks = Counter()
    for entry in default_entries():
        metrics = [random_metric(rng) for _ in range(8)]
        metrics += [MetricParams.from_rs(r, s, QI(x, 0))
                    for r, s, x in ((1, 2, 1), (2, 3, 4), (1, 1, Fraction(1, 2)))]
        for m in metrics:
            rep = decide_h11(entry.lie, entry.coframe, m, backend="exact", entry=entry)
            if not rep.delta or rep.rank_m == 3:
                continue
            system = assemble_system(entry.lie, entry.coframe, m)
            x = rep.witness_scaled
            assert [sum((a * b for a, b in zip(row, x)), start=QI(0))
                    for row in system.matrix] == list(system.rhs)
            basis = kernel([list(row) for row in system.matrix], 3)
            assert len(basis) == 3 - rep.rank_m
            assert all(not sum((a.conjugate() * b for a, b in zip(k, x)), start=QI(0))
                       for k in basis), (entry.key, m.describe())
            ranks[rep.rank_m] += 1
    assert ranks[1] and ranks[2], ranks


def test_structure_caches_are_bounded():
    """Fresh coframes (primary_kodaira_II's beta) and fresh structures
    (inoue_sm's alpha) must not pile up in the per-structure caches."""
    from dolharm.bidegree import _frame_matrices
    from dolharm.cohomology import ce_cohomology
    from dolharm.decision import _structure_tables
    from dolharm.lie import validate_d_squared

    m = MetricParams.from_rs(1, 1, QI(Fraction(1, 2), 0))
    builds = ([catalog("primary_kodaira_II", beta=Fraction(k, 7)) for k in range(1, 301)]
              + [catalog("inoue_sm", alpha=Fraction(k, 7), beta=1) for k in range(1, 131)])
    for entry in builds:
        decide_h11(entry.lie, entry.coframe, m, backend="exact", entry=entry)
    for cache in (_frame_matrices, validate_d_squared, ce_cohomology,
                  calculus_for, _structure_tables):
        info = cache.cache_info()
        assert info.maxsize == 128 and info.currsize == 128, (cache.__name__, info)


def _reference_ak_kernel(calc) -> list[list[Fraction]]:
    """The closedness kernel from calc.delbar, as _ak_kernel computed it
    before it read the cached table T."""
    tables = {w: calc.delbar(InvariantForm.basis(C, w)) for w in W11}
    rows = []
    for word in W12:
        t = {w: tables[w].coeffs.get(word, QI(0)) for w in W11}
        cols = [I * t[(1, 3)], I * t[(2, 4)], t[(1, 4)] - t[(2, 3)],
                I * (t[(1, 4)] + t[(2, 3)])]
        rows.append([c.re for c in cols])
        rows.append([c.im for c in cols])
    return kernel(rows, 4)


def test_table_readers_match_operator_route():
    """The report's 4i*del / 4i*delbar forms and the AK kernel are read off the
    cached table T; the del / delbar operator route they replaced stays here
    as the reference, on every entry and on random coframes."""
    from dolharm.decision import _ak_kernel
    from dolharm.problem import Options, Problem, structure_tables_section

    rng = random.Random(37)
    four_i = QI(0, 4)
    labels = ("phi^{1 1bar}", "phi^{1 2bar}", "phi^{2 1bar}", "phi^{2 2bar}")
    pairs = ([(entry.lie, entry.coframe, entry) for entry in default_entries()]
             + [(entry.lie, random_coframe(rng), None) for entry in default_entries()])
    for lie, cf, entry in pairs:
        calc = calculus_for(lie, cf)
        section = structure_tables_section(Problem(lie, cf, None, entry, Options()))
        for w, label in zip(W11, labels):
            basis = InvariantForm.basis(C, w)
            assert section["4i_del"][label] == str(calc.del_(basis).scaled(four_i))
            assert section["4i_delbar"][label] == str(calc.delbar(basis).scaled(four_i))
        assert _ak_kernel(lie, cf) == _reference_ak_kernel(calc), (lie.name, cf)
