"""Acceptance suite: one test per criterion, exact tolerances pinned.

Criteria 1-7 bind the solver to the known classification of each catalog
entry; 8 re-verifies every witness by direct evaluation; 9 and 10 are the
operator identity and star cross-check suites; 11 pins the closed-form
witness for the secondary Kodaira surface.  A summary line per criterion is
printed by the conftest terminal hook.
"""
from __future__ import annotations

import random
from fractions import Fraction

from dolharm import catalog
from dolharm.bidegree import BidegreeCalculus
from dolharm.cohomology import ce_cohomology
from dolharm.decision import (almost_kahler_feasible, assemble_system, calculus_for,
                              decide_h11, symplectic_feasible, verify_witness)
from dolharm.exterior import FrameTag, InvariantForm, words_of_degree
from dolharm.hermitian import (MetricParams, fundamental_form, gauduchon_residual,
                               hodge_star, hodge_star_via_unitary)
from dolharm.scalars import QI

from conftest import default_entries, random_metric

C = FrameTag.COMPLEX
W11 = ((1, 3), (1, 4), (2, 3), (2, 4))

# Known delta=1 metrics per entry, used by the witness-soundness criterion.
DELTA_ONE_CASES = [
    ("secondary_kodaira", {}, MetricParams.from_rs(1, 1, 0)),
    ("secondary_kodaira", {}, MetricParams.from_rs(2, 1, QI(Fraction(1, 2), 0))),
    ("inoue_sm", {"alpha": 1, "beta": 1},
     MetricParams.from_rs(1, 2, QI(0, -1))),
    ("inoue_sm", {"alpha": 2, "beta": -1},
     MetricParams.from_rs(1, 4, QI(0, 2))),
    ("nilmanifold_I", {}, MetricParams.from_rs(1, 1, 0)),
    ("nilmanifold_I", {}, MetricParams.from_rs(2, 1, QI(Fraction(1, 3), Fraction(1, 5)))),
    ("nilmanifold_II", {}, MetricParams.from_rs(1, 3, 0)),
    ("hyperelliptic_II", {"t_re": Fraction(3, 10), "t_im": 0},
     MetricParams.from_rs(1, 1, QI(Fraction(1, 4), Fraction(1, 8)))),
    ("hyperelliptic_II", {"t_re": 0, "t_im": Fraction(1, 2)},
     MetricParams.from_rs(2, 1, QI(0, Fraction(-1, 3)))),
    ("primary_kodaira_I", {"alpha": 1},
     MetricParams.from_rs(1, 2, QI(1, Fraction(1, 4)))),
    ("primary_kodaira_I", {"alpha": -2},
     MetricParams.from_rs(Fraction(1, 2), 3, QI(Fraction(-1, 2), Fraction(1, 8)))),
    ("primary_kodaira_II", {"beta": 1},
     MetricParams.from_rs(1, 1, QI(Fraction(1, 2), 0))),
    ("primary_kodaira_II", {"beta": 3},
     MetricParams.from_rs(1, 2, QI(Fraction(-2, 3), 0))),
]


def exact_delta(entry, m):
    return decide_h11(entry.lie, entry.coframe, m, backend="exact",
                      entry=entry).delta


def _proportional(v, w) -> bool:
    pivot = next((k for k in range(4) if w[k]), None)
    if pivot is None:
        return not any(v)
    if not v[pivot]:
        return False
    lam = v[pivot] / w[pivot]
    return bool(lam) and all(v[k] == lam * w[k] for k in range(4))


def test_criterion_01_secondary_kodaira_grid():
    """21x21 u-grid x 10 random (r,s): delta=1 exactly on Im(u)=0; b^-=0."""
    entry = catalog("secondary_kodaira")
    rng = random.Random(101)
    grid = [Fraction(k, 20) for k in range(-10, 11)]
    assert len(grid) == 21
    metrics = []
    while len(metrics) < 10:
        r = Fraction(rng.randint(2, 6), 2)   # r, s >= 1 keeps every u valid
        s = Fraction(rng.randint(2, 6), 2)
        metrics.append((r, s))
    for r, s in metrics:
        for u_re in grid:
            for u_im in grid:
                m = MetricParams.from_rs(r, s, QI(u_re, u_im))
                rep = decide_h11(entry.lie, entry.coframe, m, backend="exact",
                                 entry=entry)
                expected = 1 if u_im == 0 else 0
                assert rep.delta == expected, (r, s, u_re, u_im)
                assert rep.b_minus_used == 0
                assert rep.h11 in (0, 1)
                assert rep.h11 == rep.delta
    assert almost_kahler_feasible(entry.lie, entry.coframe).status == "infeasible"
    assert symplectic_feasible(entry.lie).status == "infeasible"


def test_criterion_02_inoue_sm_locus():
    """delta=1 iff beta*Im(u) = -alpha*r^2 (exact); beta=0 never jumps; AK infeasible."""
    rng = random.Random(102)
    for alpha, beta in ((1, 1), (2, -1), (1, 0)):
        entry = catalog("inoue_sm", alpha=alpha, beta=beta)
        samples = [random_metric(rng) for _ in range(50)]
        if beta != 0:
            # add on-locus metrics so both directions of the iff are exercised
            for k in range(1, 6):
                r = Fraction(1, k + 1)
                im_u = Fraction(-alpha, beta) * r * r
                s = 4 * (abs(im_u) + 1)
                samples.append(MetricParams.from_rs(r, s, QI(0, im_u)))
        on_locus = 0
        for m in samples:
            expected = 1 if beta * m.u.im == -alpha * m.r2 else 0
            on_locus += expected
            assert exact_delta(entry, m) == expected, (alpha, beta, m.describe())
        if beta != 0:
            assert on_locus >= 5
        else:
            assert on_locus == 0
        assert almost_kahler_feasible(entry.lie, entry.coframe).status == "infeasible"


def test_criterion_03_nilmanifold_I_always_jumps():
    """delta=1 for 100 random metrics; h11 = 2 from CE b^-=1; AK infeasible by
    the closedness computation; symplectic feasible with verified witness."""
    entry = catalog("nilmanifold_I")
    coh = ce_cohomology(entry.lie)
    assert coh.b2 == 2 and coh.b_minus == 1
    rng = random.Random(103)
    for _ in range(100):
        m = random_metric(rng)
        rep = decide_h11(entry.lie, entry.coframe, m, backend="exact", entry=entry)
        assert rep.delta == 1
        assert rep.b_minus_used == 1 and rep.b_minus_provenance == "ce_computed"
        assert rep.h11 == 2
    ak = almost_kahler_feasible(entry.lie, entry.coframe)
    assert ak.status == "infeasible"
    sy = symplectic_feasible(entry.lie)
    assert sy.status == "feasible"
    assert entry.lie.d(sy.witness).is_zero
    assert sy.witness.wedge(sy.witness).coeffs.get((1, 2, 3, 4))


def test_criterion_04_nilmanifold_II_jump_iff_u_zero():
    entry = catalog("nilmanifold_II")
    assert exact_delta(entry, MetricParams.from_rs(1, 1, 0)) == 1
    assert exact_delta(entry, MetricParams.from_rs(2, Fraction(1, 2), 0)) == 1
    rng = random.Random(104)
    count = 0
    while count < 50:
        m = random_metric(rng)
        if not m.u:
            continue
        count += 1
        assert exact_delta(entry, m) == 0, m.describe()
    ak = almost_kahler_feasible(entry.lie, entry.coframe)
    assert ak.status == "feasible"
    assert not ak.witness.u  # the witness must sit on the u = 0 locus
    calc = calculus_for(entry.lie, entry.coframe)
    assert calc.d(fundamental_form(ak.witness)).is_zero


def test_criterion_05_hyperelliptic_I_never_jumps():
    """delta=0 always; the system carries the explicit inconsistent row pair
    summing to i s^2 r^2; AK infeasible; h11 = 1 with CE-computed b^- = 1."""
    entry = catalog("hyperelliptic_I")
    coh = ce_cohomology(entry.lie)
    assert coh.b2 == 2 and coh.b_minus == 1
    rng = random.Random(105)
    for _ in range(100):
        m = random_metric(rng)
        rep = decide_h11(entry.lie, entry.coframe, m, backend="exact", entry=entry,
                         b_minus="ce")
        assert rep.delta == 0 and rep.h11 == 1
        assert rep.b_minus_used == 1
        # inconsistency certificate: the two reference rows with opposite
        # unknown parts must both occur (up to scale); their constants add to
        # 2 i s^2 r^2, i.e. i s^2 r^2 = 0 after halving, which is impossible
        system = assemble_system(entry.lie, entry.coframe, m)
        vecs = [(*coeffs, -rhs) for coeffs, rhs in zip(system.matrix, system.rhs)
                if any((*coeffs, rhs))]
        i = QI(0, 1)
        u, ub = m.u, m.u.conjugate()
        spread = QI(2 * m.u.abs2() - m.r2 * m.s2)
        const = i * QI(m.s2 * m.r2)
        eq1 = (-spread, -i * ub, i * u, const)
        eq2 = (spread, i * ub, -i * u, const)
        assert all(eq1[k] + eq2[k] == QI(0) for k in range(3))
        halved = (eq1[3] + eq2[3]) / QI(2)
        assert halved == i * QI(m.s2 * m.r2) and halved
        assert any(_proportional(v, eq1) for v in vecs), m.describe()
        assert any(_proportional(v, eq2) for v in vecs), m.describe()
    assert almost_kahler_feasible(entry.lie, entry.coframe).status == "infeasible"


def test_criterion_06_hyperelliptic_II_always_jumps():
    rng = random.Random(106)
    for t_re, t_im in ((Fraction(3, 10), 0), (0, Fraction(1, 2)),
                       (Fraction(-1, 4), Fraction(1, 4))):
        entry = catalog("hyperelliptic_II", t_re=t_re, t_im=t_im)
        for _ in range(50):
            m = random_metric(rng)
            assert exact_delta(entry, m) == 1, (t_re, t_im, m.describe())
        ak = almost_kahler_feasible(entry.lie, entry.coframe)
        assert ak.status == "feasible"
        assert not ak.witness.u
        calc = calculus_for(entry.lie, entry.coframe)
        assert calc.d(fundamental_form(ak.witness)).is_zero


def test_criterion_07_primary_kodaira_loci_and_provenances():
    """Entry I: delta=1 iff Re(u) = alpha r^2 (alpha in {1,-2}); entry II:
    iff Im(u) = 0 (beta in {1,3}); AK matches; h11 reported under both
    b^- provenances with the discrepancy flagged."""
    rng = random.Random(107)
    for alpha in (1, -2):
        entry = catalog("primary_kodaira_I", alpha=alpha)
        samples = [random_metric(rng) for _ in range(40)]
        for k in range(1, 6):
            r = Fraction(1, k + 1)
            re_u = alpha * r * r
            s = 4 * (abs(re_u) + 1)
            samples.append(MetricParams.from_rs(r, s, QI(re_u, 0)))
        hits = 0
        for m in samples:
            expected = 1 if m.u.re == alpha * m.r2 else 0
            hits += expected
            rep = decide_h11(entry.lie, entry.coframe, m, backend="exact",
                             entry=entry)
            assert rep.delta == expected, (alpha, m.describe())
            assert rep.b_minus_ce == 2 and rep.b_minus_reference == 1
            assert rep.b_minus_discrepancy
            assert rep.b_minus_ce + rep.delta == rep.h11  # default policy: ce
        assert hits >= 5
        ak = almost_kahler_feasible(entry.lie, entry.coframe)
        assert ak.status == "feasible"
        assert ak.witness.u.re == alpha * ak.witness.r2
        calc = calculus_for(entry.lie, entry.coframe)
        assert calc.d(fundamental_form(ak.witness)).is_zero
    for beta in (1, 3):
        entry = catalog("primary_kodaira_II", beta=beta)
        samples = [random_metric(rng) for _ in range(40)]
        samples += [MetricParams.from_rs(1, 2, QI(Fraction(k, 7), 0))
                    for k in range(-2, 3)]
        for m in samples:
            expected = 1 if m.u.im == 0 else 0
            rep = decide_h11(entry.lie, entry.coframe, m, backend="exact",
                             entry=entry)
            assert rep.delta == expected, (beta, m.describe())
            assert rep.b_minus_discrepancy
            paper_h11 = rep.b_minus_reference + rep.delta
            ce_h11 = rep.b_minus_ce + rep.delta
            assert (paper_h11, ce_h11) == (1 + rep.delta, 2 + rep.delta)
        ak = almost_kahler_feasible(entry.lie, entry.coframe)
        assert ak.status == "feasible"
        assert ak.witness.u.im == 0
        calc = calculus_for(entry.lie, entry.coframe)
        assert calc.d(fundamental_form(ak.witness)).is_zero


def test_criterion_08_witness_soundness():
    """Every delta=1 witness satisfies i d^c gamma = d omega and star gamma =
    -gamma: exactly on the exact backend, and to 1e-9 on the floating one,
    whose witness is re-verified exactly at the rational value of its
    doubles."""
    for name, params, m in DELTA_ONE_CASES:
        entry = catalog(name, **params)
        rep = decide_h11(entry.lie, entry.coframe, m, backend="exact", entry=entry)
        assert rep.delta == 1, (name, m.describe())
        res_dc, res_star = verify_witness(entry.lie, entry.coframe, m,
                                          rep.witness_scaled)
        assert res_dc.is_zero and res_star.is_zero, name
        frep = decide_h11(entry.lie, entry.coframe, m, backend="float", entry=entry)
        assert frep.delta == 1, name
        exact_value = tuple(QI(Fraction(x.real), Fraction(x.imag))
                            for x in frep.witness_scaled)
        fres_dc, fres_star = verify_witness(entry.lie, entry.coframe, m, exact_value)
        assert fres_dc.max_abs() <= 1e-9, name
        assert fres_star.max_abs() <= 1e-9, name


def test_criterion_09_operator_property_suite():
    """d^2 = 0 on all bases; mu+del+delbar+mubar = d; the seven induced
    relations; star twice = id on 2-forms; del delbar omega = 0 -- all eight
    entries, exact backend.  The differential identities carry no metric
    dependence, so one pass per entry covers every metric; the star and
    Gauduchon checks run over 50 random metrics per entry."""
    rng = random.Random(109)
    for entry in default_entries():
        calc = BidegreeCalculus(entry.lie, entry.coframe)
        for degree in range(0, 5):
            for word in words_of_degree(degree):
                real_basis = InvariantForm.basis(FrameTag.REAL, word)
                assert entry.lie.d(entry.lie.d(real_basis)).is_zero
                f = InvariantForm.basis(C, word)
                assert calc.mu(f) + calc.del_(f) + calc.delbar(f) + calc.mubar(f) \
                    == calc.d(f)
                mu, dl, db, mb = calc.mu, calc.del_, calc.delbar, calc.mubar
                assert mu(mu(f)).is_zero
                assert (mu(dl(f)) + dl(mu(f))).is_zero
                assert (dl(dl(f)) + mu(db(f)) + db(mu(f))).is_zero
                assert (dl(db(f)) + db(dl(f)) + mu(mb(f)) + mb(mu(f))).is_zero
                assert (db(db(f)) + mb(dl(f)) + dl(mb(f))).is_zero
                assert (mb(db(f)) + db(mb(f))).is_zero
                assert mb(mb(f)).is_zero
        for _ in range(50):
            m = random_metric(rng)
            for word in words_of_degree(2):
                f = InvariantForm.basis(C, word)
                assert hodge_star(hodge_star(f, m), m) == f
            assert gauduchon_residual(calc, m).is_zero, entry.key


def test_criterion_10_star_cross_check():
    """Coefficient-formula star vs unitary-transport star: exact equality on
    the full (1,1) basis, 50 random metrics per entry."""
    rng = random.Random(110)
    for entry in default_entries():
        for _ in range(50):
            m = random_metric(rng)
            for w in W11:
                f = InvariantForm.basis(C, w)
                assert hodge_star_via_unitary(f, m) == hodge_star(f, m), \
                    (entry.key, w, m.describe())


def test_criterion_11_secondary_kodaira_witness_formula():
    """For real rational u the computed witness equals the closed forms
    A = -u/r^2, B = -C, C' = i (r^4 + u^2)/r^2 (tau-scaled), exactly."""
    entry = catalog("secondary_kodaira")
    rng = random.Random(111)
    checked = 0
    while checked < 20:
        r = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        s = Fraction(rng.randint(1, 9), rng.randint(1, 4))
        u = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        if u * u >= r * r * s * s:
            continue
        checked += 1
        m = MetricParams.from_rs(r, s, QI(u, 0))
        rep = decide_h11(entry.lie, entry.coframe, m, backend="exact", entry=entry)
        assert rep.delta == 1
        a, bp, cp = rep.witness_scaled
        r2 = m.r2
        assert a == QI(-u / r2)
        assert cp == QI(0, (r2 * r2 + u * u) / r2)
        assert bp == -cp
