import random
from fractions import Fraction

import pytest

from dolharm import catalog
from dolharm.bidegree import (AlmostComplexCoframe, Bidegree, BidegreeCalculus,
                              _frame_matrices, project, to_complex_frame,
                              to_real_frame, word_bidegree)
from dolharm.errors import (DegreeMismatchError, MixedBidegreeError,
                            SingularMatrixError)
from dolharm.exterior import FrameTag, InvariantForm, change_frame, words_of_degree
from dolharm.scalars import QI

from conftest import default_entries, random_coframe, random_form

C, R = FrameTag.COMPLEX, FrameTag.REAL


def calc_for(name, **params):
    entry = catalog(name, **params)
    return BidegreeCalculus(entry.lie, entry.coframe)


def test_coframe_requires_invertible_stack():
    with pytest.raises(SingularMatrixError):
        AlmostComplexCoframe.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]])  # real rows


def test_bidegree_validation():
    Bidegree(1, 1)
    with pytest.raises(DegreeMismatchError):
        Bidegree(3, 0)
    with pytest.raises(DegreeMismatchError):
        Bidegree(-1, 1)


def test_project_one_form():
    entry = catalog("secondary_kodaira")
    e1 = InvariantForm.basis(R, (1,))
    p10 = project(e1, (1, 0), entry.coframe)
    assert p10 == InvariantForm.build(C, 1, {(1,): QI(Fraction(1, 2))})


def test_project_two_form_keeps_11_component():
    entry = catalog("secondary_kodaira")
    e12 = InvariantForm.basis(R, (1, 2))
    p11 = project(e12, (1, 1), entry.coframe)
    quarter = QI(Fraction(1, 4))
    assert p11 == InvariantForm.build(C, 2, {(1, 4): quarter, (2, 3): -quarter})
    # pure-type input projects to itself or zero
    phi12 = InvariantForm.basis(C, (1, 2))
    assert project(phi12, (0, 2)).is_zero
    assert project(phi12, (2, 0)) == phi12


def test_projections_reconstruct():
    rng = random.Random(2)
    for entry in default_entries():
        for _ in range(10):
            degree = rng.randint(0, 4)
            f = to_complex_frame(random_form(rng, R, degree), entry.coframe)
            total = InvariantForm.zero(C, degree)
            for p in range(0, 3):
                q = degree - p
                if 0 <= q <= 2:
                    total = total + project(f, (p, q))
            assert total == f


def test_project_requires_matching_degree():
    f = InvariantForm.basis(C, (1, 4))
    with pytest.raises(DegreeMismatchError):
        project(f, (1, 0))


def test_operators_reject_mixed_bidegree():
    calc = calc_for("secondary_kodaira")
    mixed = InvariantForm.build(C, 2, {(1, 2): QI(1), (1, 4): QI(1)})
    with pytest.raises(MixedBidegreeError):
        calc.del_(mixed)


def test_component_sum_is_d():
    """mu + del + delbar + mubar = d on every pure-type basis form."""
    for entry in default_entries():
        calc = BidegreeCalculus(entry.lie, entry.coframe)
        for degree in range(0, 5):
            for word in words_of_degree(degree):
                f = InvariantForm.basis(C, word)
                total = calc.mu(f) + calc.del_(f) + calc.delbar(f) + calc.mubar(f)
                assert total == calc.d(f), (entry.key, word)


def relation_pairs(calc):
    """The seven operator identities induced by d^2 = 0."""
    mu, dl, db, mb = calc.mu, calc.del_, calc.delbar, calc.mubar
    return [
        ("mu^2", lambda f: mu(mu(f))),
        ("mu del + del mu", lambda f: mu(dl(f)) + dl(mu(f))),
        ("del^2 + mu delbar + delbar mu",
         lambda f: dl(dl(f)) + mu(db(f)) + db(mu(f))),
        ("del delbar + delbar del + mu mubar + mubar mu",
         lambda f: dl(db(f)) + db(dl(f)) + mu(mb(f)) + mb(mu(f))),
        ("delbar^2 + mubar del + del mubar",
         lambda f: db(db(f)) + mb(dl(f)) + dl(mb(f))),
        ("mubar delbar + delbar mubar", lambda f: mb(db(f)) + db(mb(f))),
        ("mubar^2", lambda f: mb(mb(f))),
    ]


def test_seven_d_squared_relations_on_full_basis():
    for entry in default_entries():
        calc = BidegreeCalculus(entry.lie, entry.coframe)
        for degree in range(0, 5):
            for word in words_of_degree(degree):
                f = InvariantForm.basis(C, word)
                for name, op in relation_pairs(calc):
                    assert op(f).is_zero, (entry.key, word, name)


def test_conjugation_intertwines_del_and_delbar():
    rng = random.Random(8)
    for entry in default_entries():
        calc = BidegreeCalculus(entry.lie, entry.coframe)
        for p in range(3):
            for q in range(3):
                words = [w for w in words_of_degree(p + q)
                         if word_bidegree(w) == (p, q)]
                coeffs = {w: QI(rng.randint(-3, 3), rng.randint(-3, 3))
                          for w in words}
                f = InvariantForm.build(C, p + q, coeffs)
                assert calc.delbar(f.conjugated()) == calc.del_(f).conjugated()
                assert calc.mubar(f.conjugated()) == calc.mu(f).conjugated()


def test_mu_vanishes_on_11_forms():
    """mu maps (1,1) to (3,0), which does not exist in complex dimension 2."""
    for entry in default_entries():
        calc = BidegreeCalculus(entry.lie, entry.coframe)
        for word in ((1, 3), (1, 4), (2, 3), (2, 4)):
            f = InvariantForm.basis(C, word)
            out = calc.mu(f)
            assert out.is_zero and out.degree == 3
            assert calc.mubar(f).is_zero


def test_structure_tables_match_reference_rows():
    """Two spot rows of the reference tables; the full tables are covered
    entry by entry in test_catalog."""
    calc = calc_for("secondary_kodaira")
    f = InvariantForm.basis(C, (1, 3))
    assert calc.del_(f).scaled(QI(0, 4)) == InvariantForm.build(
        C, 3, {(1, 2, 4): QI(2)})
    calc = calc_for("hyperelliptic_I")
    assert calc.del_(f).is_zero and calc.delbar(f).is_zero
    calc = calc_for("nilmanifold_I")
    assert calc.d(InvariantForm.basis(C, (2,))).is_zero  # d phi^2 = 0


def test_dc_definition_and_reality():
    rng = random.Random(12)
    for entry in default_entries():
        calc = BidegreeCalculus(entry.lie, entry.coframe)
        # on (1,1)-forms in dimension 4, i d^c f = del f - delbar f
        for word in ((1, 3), (1, 4), (2, 3), (2, 4)):
            f = InvariantForm.basis(C, word)
            assert calc.dc(f).scaled(QI(0, 1)) == calc.del_(f) - calc.delbar(f)
        # closed pure-type forms have d^c f = 0 when all components vanish
        zero = InvariantForm.zero(C, 2)
        assert calc.dc(zero).is_zero
        for word in ((1, 3), (1, 4), (2, 3), (2, 4)):
            f = InvariantForm.basis(C, word)
            if calc.d(f).is_zero:
                assert calc.dc(f).is_zero
        # real forms have real d^c
        for _ in range(5):
            coeffs = {}
            a = QI(rng.randint(-3, 3), 0)
            b = QI(rng.randint(-3, 3), rng.randint(-3, 3))
            coeffs[(1, 3)] = QI(0, 1) * a
            coeffs[(1, 4)] = b
            coeffs[(2, 3)] = -b.conjugate()
            coeffs[(2, 4)] = QI(0, rng.randint(-3, 3))
            f = InvariantForm.build(C, 2, coeffs)
            if f.conjugated() != f:
                continue
            out = calc.dc(f)
            assert out.conjugated() == out


def test_dc_mixed_input_processed_componentwise():
    calc = calc_for("secondary_kodaira")
    mixed = InvariantForm.build(C, 2, {(1, 2): QI(1), (1, 4): QI(2)})
    split = calc.dc(project(mixed, (2, 0))) + calc.dc(project(mixed, (1, 1)))
    assert calc.dc(mixed) == split


def test_dc_equals_four_operator_sum():
    """dc differentiates each bidegree component once and splits the result by
    sign; it must equal i(mubar + delbar - del - mu) applied per component."""
    rng = random.Random(13)
    for entry in default_entries():
        calc = BidegreeCalculus(entry.lie, entry.coframe)
        for float_backend in (False, True):
            i_unit = 1j if float_backend else QI(0, 1)
            for degree in range(5):
                f = random_form(rng, C, degree, float_backend)
                expected = InvariantForm.zero(C, degree + 1)
                for bd in sorted({word_bidegree(w) for w in f.coeffs}):
                    comp = project(f, bd)
                    signed = (calc.mubar(comp) + calc.delbar(comp)
                              - calc.del_(comp) - calc.mu(comp))
                    expected = expected + signed.scaled(i_unit)
                assert calc.dc(f) == expected, (entry.key, degree, float_backend)


def test_frame_changes_match_change_frame_route():
    """to_complex_frame / to_real_frame substitute with the cached inverse /
    stacked matrix; the generic change_frame route, which inverts the matrix
    it is given, stays here as the reference."""
    rng = random.Random(31)
    coframes = ([entry.coframe for entry in default_entries()]
                + [random_coframe(rng) for _ in range(6)])
    for cf in coframes:
        stacked, inverse, _, _ = _frame_matrices(cf)
        for degree in range(5):
            for _ in range(3):
                f = random_form(rng, R, degree)
                assert to_complex_frame(f, cf) == change_frame(f, C, stacked), (cf, f)
                g = random_form(rng, C, degree)
                assert to_real_frame(g, cf) == change_frame(g, R, inverse), (cf, g)
