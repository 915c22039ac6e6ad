import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from dolharm.bidegree import BidegreeCalculus, to_real_frame, word_bidegree
from dolharm.errors import MetricError
from dolharm.exterior import FrameTag, InvariantForm, words_of_degree
from dolharm.hermitian import (MetricParams, asd_basis_scaled, asd_form_scaled,
                               fundamental_form, gauduchon_residual, hodge_star,
                               hodge_star_via_unitary,
                               unitary_coframe, volume_form)
from dolharm.linalg import invert_matrix, rank, symmetric_signature
from dolharm.scalars import QI, RootExt

from conftest import default_entries, random_metric

C = FrameTag.COMPLEX

W11 = ((1, 3), (1, 4), (2, 3), (2, 4))
W2 = words_of_degree(2)


class TestMetricParams:
    def test_valid_construction(self):
        m = MetricParams.from_rs(1, 2, QI(1, 1))
        assert m.r2 == 1 and m.s2 == 4 and m.tau2 == 2

    def test_positivity_required(self):
        with pytest.raises(MetricError):
            MetricParams.from_rs(0, 1, 0)
        with pytest.raises(MetricError):
            MetricParams.from_rs(-1, 1, 0)

    def test_strict_tau_positive(self):
        with pytest.raises(MetricError):
            MetricParams.from_rs(1, 1, QI(1, 0))   # |u|^2 = r^2 s^2 boundary
        with pytest.raises(MetricError):
            MetricParams.from_rs(1, 1, QI(2, 0))

    def test_gram_matrix_hermitian_and_consistent(self):
        m = MetricParams.from_rs(1, 2, QI(1, -1))
        g = m.g
        assert g[0][1].conjugate() == g[1][0]
        assert g[0][0] == QI(1) and g[1][1] == QI(4)
        gi = m.g_inv
        prod = [[sum((g[i][k] * gi[k][j] for k in range(2)), start=QI(0))
                 for j in range(2)] for i in range(2)]
        assert prod == [[QI(1), QI(0)], [QI(0), QI(1)]]


def test_fundamental_form_examples():
    m = MetricParams.from_rs(1, 1, 0)
    assert fundamental_form(m) == InvariantForm.build(
        C, 2, {(1, 3): QI(0, 1), (2, 4): QI(0, 1)})
    m = MetricParams.from_rs(1, 2, QI(0, 1))
    omega = fundamental_form(m)
    assert omega == InvariantForm.build(
        C, 2, {(1, 3): QI(0, 1), (2, 4): QI(0, 4),
               (1, 4): QI(0, 1), (2, 3): QI(0, 1)})


def test_fundamental_form_is_real():
    rng = random.Random(1)
    for _ in range(20):
        omega = fundamental_form(random_metric(rng))
        assert omega.conjugated() == omega


class TestUnitaryCoframe:
    def test_diagonal_case(self):
        m = MetricParams.from_rs(1, 2, 0)
        mat = unitary_coframe(m)
        assert mat[0][0].rational_value() == QI(1)
        assert mat[0][1] == RootExt.rational(0, (m.r2, m.tau2))
        assert mat[1][1].rational_value() == QI(2)

    def test_half_i_example(self):
        m = MetricParams.from_rs(1, 1, QI(0, Fraction(1, 2)))
        mat = unitary_coframe(m)
        # psi^1 = phi^1 + (1/2) phi^2, psi^2 = sqrt(3)/2 phi^2
        assert mat[0][0].rational_value() == QI(1)
        assert mat[0][1].rational_value() == QI(Fraction(1, 2))
        tau = RootExt.root_s((m.r2, m.tau2))
        assert mat[1][1] == tau  # tau/r with r = 1

    def test_omega_is_standard_in_unitary_coframe(self):
        rng = random.Random(4)
        for _ in range(25):
            m = random_metric(rng)
            rad = (m.r2, m.tau2)
            mat = unitary_coframe(m)
            zero = RootExt.rational(0, rad)
            psi1 = InvariantForm.build(C, 1, {(1,): mat[0][0], (2,): mat[0][1]})
            psi2 = InvariantForm.build(C, 1, {(1,): zero + mat[1][0], (2,): mat[1][1]})
            psi1b = psi1.conjugated()
            psi2b = psi2.conjugated()
            om = (psi1.wedge(psi1b) + psi2.wedge(psi2b)).scaled(QI(0, 1))
            target = fundamental_form(m)
            for w in W11:
                got = om.coeffs.get(w, zero)
                if isinstance(got, RootExt):
                    got = got.rational_value()
                assert got == target.coeffs.get(w, QI(0))


class TestHodgeStar:
    def test_volume_and_constants(self):
        m = MetricParams.from_rs(1, 1, 0)
        one = InvariantForm.constant(C, QI(1))
        assert hodge_star(one, m) == volume_form(m)
        assert hodge_star(volume_form(m), m) == one

    def test_omega_self_dual(self):
        rng = random.Random(6)
        for _ in range(50):
            m = random_metric(rng)
            omega = fundamental_form(m)
            assert hodge_star(omega, m) == omega

    def test_off_diagonal_11_is_anti_self_dual_flat(self):
        m = MetricParams.from_rs(1, 1, 0)
        f = InvariantForm.basis(C, (1, 4))
        assert hodge_star(f, m) == -f

    def test_20_and_02_forms_are_self_dual(self):
        rng = random.Random(7)
        for _ in range(20):
            m = random_metric(rng)
            for w in ((1, 2), (3, 4)):
                f = InvariantForm.basis(C, w)
                assert hodge_star(f, m) == f

    def test_star_star_identity_on_two_forms(self):
        rng = random.Random(8)
        for _ in range(50):
            m = random_metric(rng)
            for w in W2:
                f = InvariantForm.basis(C, w)
                assert hodge_star(hodge_star(f, m), m) == f

    def test_star_maps_pq_to_complementary_type(self):
        m = MetricParams.from_rs(1, 2, QI(1, 1))
        f = InvariantForm.basis(C, (1,))          # (1,0)
        out = hodge_star(f, m)
        assert out.degree == 3
        assert {word_bidegree(w) for w in out.coeffs} == {(2, 1)}

    def test_positivity_of_inner_product(self):
        """<f, f> vol = f wedge star(conj f) is positive for f != 0."""
        def density(f, m):
            pairing = f.wedge(hodge_star(f.conjugated(), m))
            return pairing.get((1, 2, 3, 4)) / QI(m.tau2)

        rng = random.Random(9)
        for _ in range(20):
            m = random_metric(rng)
            for w in W2:
                val = density(InvariantForm.basis(C, w), m)
                assert val.im == 0 and val.re > 0
            assert density(InvariantForm.zero(C, 2), m) == QI(0)


class TestASDForms:
    def test_flat_basis_cases(self):
        m = MetricParams.from_rs(1, 1, 0)
        gamma = asd_form_scaled(m, 1, 0, 0)
        assert gamma == InvariantForm.build(C, 2, {(1, 3): QI(1), (2, 4): QI(-1)})
        m = MetricParams.from_rs(1, 2, 0)
        # tau = 2, so the unscaled (0,1,0) coefficient is B' = B tau = 2 at phi^{1 2bar}
        gamma = asd_form_scaled(m, 0, 2, 0)
        assert gamma.coeffs[(1, 4)] == QI(2)

    def test_scaled_family_is_anti_self_dual(self):
        rng = random.Random(10)
        for _ in range(30):
            m = random_metric(rng)
            a = QI(rng.randint(-3, 3), rng.randint(-3, 3))
            bp = QI(rng.randint(-3, 3), rng.randint(-3, 3))
            cp = QI(rng.randint(-3, 3), rng.randint(-3, 3))
            gamma = asd_form_scaled(m, a, bp, cp)
            assert hodge_star(gamma, m) == -gamma

    def test_generators_independent_and_span_with_omega(self):
        rng = random.Random(12)
        for _ in range(20):
            m = random_metric(rng)
            gens = asd_basis_scaled(m)
            rows = [[g.coeffs.get(w, QI(0)) for w in W11] for g in gens]
            assert rank(rows) == 3
            rows.append([fundamental_form(m).coeffs.get(w, QI(0)) for w in W11])
            assert rank(rows) == 4

    def test_injective_parametrization(self):
        m = MetricParams.from_rs(2, 1, QI(Fraction(1, 3), Fraction(-1, 2)))
        gamma = asd_form_scaled(m, QI(1, 1), QI(0, 2), QI(-3))
        assert gamma == (asd_form_scaled(m, QI(1, 1), 0, 0)
                         + asd_form_scaled(m, 0, QI(0, 2), 0)
                         + asd_form_scaled(m, 0, 0, QI(-3)))
        assert not asd_form_scaled(m, 0, 0, 0).coeffs


def _perm_sign(seq):
    inversions = sum(1 for a in range(len(seq)) for b in range(a + 1, len(seq))
                     if seq[a] > seq[b])
    return -1 if inversions % 2 else 1


def _sort_word(letters):
    if len(set(letters)) != len(letters):
        return None, 0
    return tuple(sorted(letters)), _perm_sign(letters)


def reference_star(f, g_inv, det_g):
    """The star as a per-call loop over index combinations, sorting each word:
    the formula that the star's index table is built from."""
    p, q = f.bidegree()
    prefactor = det_g if (p * q) % 2 == 0 else -det_g
    out = {}
    full = (1, 2)
    for a_idx in combinations(full, p):
        comp_a = tuple(x for x in full if x not in a_idx)
        for b_idx in combinations(full, q):
            comp_b = tuple(x for x in full if x not in b_idx)
            raised = QI(0)
            for gammas in product(full, repeat=p):
                for lams in product(full, repeat=q):
                    word, sign = _sort_word(list(gammas) + [x + 2 for x in lams])
                    if word is None:
                        continue
                    factor = QI(sign)
                    for ak, gk in zip(a_idx, gammas):
                        factor = factor * g_inv[ak - 1][gk - 1]
                    for lk, bk in zip(lams, b_idx):
                        factor = factor * g_inv[lk - 1][bk - 1]
                    raised = raised + factor * f.get(word)
            order = ([x - 1 for x in a_idx] + [x + 1 for x in b_idx]
                     + [x - 1 for x in comp_a] + [x + 1 for x in comp_b])
            word_out, ssign = _sort_word(list(comp_b) + [x + 2 for x in comp_a])
            out[word_out] = prefactor * raised * QI(_perm_sign(order) * ssign)
    return InvariantForm.build(f.frame, 4 - f.degree, out)


def test_star_index_table_matches_reference_loop():
    rng = random.Random(18)
    for _ in range(50):
        m = random_metric(rng)
        for p in range(3):
            for q in range(3):
                words = [w for w in words_of_degree(p + q) if word_bidegree(w) == (p, q)]
                coeffs = {w: QI(rng.randint(-4, 4), rng.randint(-4, 4)) for w in words}
                coeffs[words[0]] = QI(1, rng.randint(-4, 4))  # keep the form nonzero
                f = InvariantForm.build(C, p + q, coeffs)
                assert hodge_star(f, m) == reference_star(f, m.g_inv, QI(m.det_g)), (p, q)


class TestUnitaryCrossCheck:
    def test_agrees_on_full_11_basis(self):
        rng = random.Random(13)
        for _ in range(50):
            m = random_metric(rng)
            for w in W11:
                f = InvariantForm.basis(C, w)
                assert hodge_star_via_unitary(f, m) == hodge_star(f, m)

    def test_agrees_on_20_02_and_mixed_degrees(self):
        rng = random.Random(14)
        for _ in range(10):
            m = random_metric(rng)
            for w in ((1, 2), (3, 4), (1,), (2,), (3,), (1, 2, 3), (1, 3, 4)):
                f = InvariantForm.basis(C, w)
                assert hodge_star_via_unitary(f, m) == hodge_star(f, m)


def test_gauduchon_residual_vanishes_everywhere():
    rng = random.Random(16)
    for entry in default_entries():
        calc = BidegreeCalculus(entry.lie, entry.coframe)
        for _ in range(50):
            m = random_metric(rng)
            assert gauduchon_residual(calc, m).is_zero, entry.key


def test_gauduchon_residual_vanishes_on_torus():
    from dolharm import LieStructure
    from dolharm.bidegree import AlmostComplexCoframe

    torus = LieStructure.abelian()
    cof = AlmostComplexCoframe.from_rows([[1, 0, QI(0, 1), 0], [0, 1, 0, QI(0, 1)]])
    calc = BidegreeCalculus(torus, cof)
    rng = random.Random(17)
    for _ in range(10):
        assert gauduchon_residual(calc, random_metric(rng)).is_zero


def _j_matrix(coframe):
    """J on tangent vectors: phi-rows are +i eigenvectors of the dual action."""
    stacked = coframe.stacked()
    d = [QI(0, 1), QI(0, 1), QI(0, -1), QI(0, -1)]
    ds = [[d[i] * stacked[i][j] for j in range(4)] for i in range(4)]
    inv = invert_matrix(stacked)
    out = [[sum((inv[i][k] * ds[k][j] for k in range(4)), start=QI(0))
            for j in range(4)] for i in range(4)]
    for row in out:
        for x in row:
            assert x.im == 0
    return [[x.re for x in row] for row in out]


def _eval_two_form(f, x, y):
    total = Fraction(0)
    for (j, k), c in f.coeffs.items():
        assert c.im == 0
        total += c.re * (x[j - 1] * y[k - 1] - x[k - 1] * y[j - 1])
    return total


def test_metric_tensor_from_omega_is_positive_and_j_invariant():
    """omega(., J.) must be a J-invariant positive symmetric form.

    This pins the sign convention of the Gram matrix (off-diagonal -i u)
    numerically instead of trusting a derivation.
    """
    rng = random.Random(18)
    for entry in default_entries():
        jmat = _j_matrix(entry.coframe)
        for _ in range(5):
            m = random_metric(rng)
            omega_real = to_real_frame(fundamental_form(m), entry.coframe)
            basis = [[Fraction(1 if i == j else 0) for j in range(4)]
                     for i in range(4)]

            def jv(x):
                return [sum(jmat[i][k] * x[k] for k in range(4)) for i in range(4)]

            gram = [[_eval_two_form(omega_real, basis[i], jv(basis[j]))
                     for j in range(4)] for i in range(4)]
            for i in range(4):
                for j in range(4):
                    assert gram[i][j] == gram[j][i]
            jgram = [[_eval_two_form(omega_real, jv(basis[i]), jv(jv(basis[j])))
                      for j in range(4)] for i in range(4)]
            assert jgram == gram
            pos, neg, zero = symmetric_signature(gram)
            assert (pos, neg, zero) == (4, 0, 0)
