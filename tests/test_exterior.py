import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dolharm.errors import DegreeMismatchError, FrameMismatchError, SingularMatrixError
from dolharm.exterior import (FrameTag, InvariantForm, change_frame, sign_of_merge,
                              wedge, word_bidegree, words_of_degree)
from dolharm.scalars import QI

from conftest import random_form

R, C = FrameTag.REAL, FrameTag.COMPLEX


def basis(frame, *letters):
    return InvariantForm.basis(frame, letters)


def test_wedge_basis_cases():
    assert wedge(basis(R, 1), basis(R, 2)) == basis(R, 1, 2)
    assert wedge(basis(R, 2), basis(R, 1)) == -basis(R, 1, 2)


def test_wedge_bilinearity_example():
    a = basis(R, 1) + basis(R, 2)
    b = basis(R, 1) - basis(R, 2)
    assert wedge(a, b) == basis(R, 1, 2).scaled(QI(-2))


def test_wedge_frame_mismatch():
    with pytest.raises(FrameMismatchError):
        wedge(basis(R, 1), basis(C, 1))


def test_wedge_above_top_degree_is_flagged_zero():
    top = basis(R, 1, 2, 3, 4)
    product = wedge(top, basis(R, 1))
    assert product.is_zero
    assert product.degree == 5
    assert product.vanishes_by_degree
    # and plain zero results below the dimension are not flagged
    assert not wedge(basis(R, 1), basis(R, 1)).vanishes_by_degree


def brute_force_merge_sign(w1, w2):
    """Oracle: count inversions of the concatenation by explicit bubble sort."""
    seq = list(w1 + w2)
    if len(set(seq)) != len(seq):
        return 0
    sign = 1
    for i in range(len(seq)):
        for j in range(len(seq) - 1 - i):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                sign = -sign
    return sign


@pytest.mark.parametrize("w1,w2,expected", [
    ((1, 4), (2, 3), 1),
    ((1, 3), (2, 4), -1),
    ((1, 2), (2, 3), 0),
])
def test_sign_of_merge_fixed_cases(w1, w2, expected):
    assert brute_force_merge_sign(w1, w2) == expected
    assert sign_of_merge(w1, w2) == expected


def test_sign_of_merge_matches_brute_force_everywhere():
    for d1 in range(5):
        for d2 in range(5 - d1 + 1):
            for w1 in words_of_degree(d1):
                for w2 in words_of_degree(d2):
                    assert sign_of_merge(w1, w2) == brute_force_merge_sign(w1, w2)


STANDARD_J = [
    [QI(1), QI(0), QI(0, 1), QI(0)],   # phi1 = e1 + i e3
    [QI(0), QI(1), QI(0), QI(0, 1)],   # phi2 = e2 + i e4
    [QI(1), QI(0), QI(0, -1), QI(0)],
    [QI(0), QI(1), QI(0), QI(0, -1)],
]


def test_change_frame_one_form():
    f = change_frame(basis(R, 1), C, STANDARD_J)
    assert f == InvariantForm.build(C, 1, {(1,): QI(Fraction(1, 2)),
                                           (3,): QI(Fraction(1, 2))})


def test_change_frame_two_form_fixed_expansion():
    # e^{12} = (phi^1+phi^1bar)(phi^2+phi^2bar)/4, expanded by hand
    f = change_frame(basis(R, 1, 2), C, STANDARD_J)
    quarter = QI(Fraction(1, 4))
    assert f == InvariantForm.build(C, 2, {(1, 2): quarter, (1, 4): quarter,
                                           (2, 3): -quarter, (3, 4): quarter})


def test_change_frame_round_trip_random():
    rng = random.Random(7)
    for _ in range(100):
        degree = rng.randint(0, 4)
        f = random_form(rng, R, degree)
        there = change_frame(f, C, STANDARD_J)
        # going back: real letters expressed in complex letters is the inverse matrix
        from dolharm.linalg import invert_matrix

        back = change_frame(there, R, invert_matrix(STANDARD_J))
        assert back == f


def test_change_frame_singular_matrix():
    singular = [[QI(1), QI(0), QI(0), QI(0)]] * 4
    with pytest.raises(SingularMatrixError):
        change_frame(basis(R, 1), C, singular)


def test_form_validation():
    with pytest.raises(DegreeMismatchError, match=r"\(2, 1\) is not strictly increasing"):
        InvariantForm(R, 2, {(1, 2): QI(1), (2, 1): QI(1)})
    with pytest.raises(DegreeMismatchError, match=r"\(1, 2\) does not have degree 1"):
        InvariantForm(R, 1, {(1, 2): QI(1)})
    with pytest.raises(DegreeMismatchError, match=r"\(0, 2\) has letters outside"):
        InvariantForm(R, 2, {(0, 2): QI(1)})
    with pytest.raises(DegreeMismatchError, match="not strictly increasing"):
        InvariantForm(R, 2, {(3, 3): QI(1)})
    with pytest.raises(DegreeMismatchError):
        InvariantForm(R, 5, {(1, 2, 3, 4): QI(1)})


# -- the basis tables against the per-call sorting they replaced -----------------


def sort_word(letters):
    """Reference: insertion sort counting adjacent transpositions; (None, 0)
    on a repeated letter."""
    letters = list(letters)
    sign = 1
    for i in range(1, len(letters)):
        j = i
        while j > 0 and letters[j - 1] > letters[j]:
            letters[j - 1], letters[j] = letters[j], letters[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and letters[j - 1] == letters[j]:
            return None, 0
    return tuple(letters), sign


def merge_words(w1, w2):
    """Reference: the merged word and sign from inversion counting."""
    if set(w1) & set(w2):
        return None, 0
    inversions = sum(1 for a in w1 for b in w2 if a > b)
    return tuple(sorted(w1 + w2)), -1 if inversions % 2 else 1


ALL_WORDS = [w for k in range(5) for w in words_of_degree(k)]


def test_merge_table_matches_reference_on_every_pair():
    assert len(ALL_WORDS) == 16
    c = QI(2, -1)
    for w1 in ALL_WORDS:
        for w2 in ALL_WORDS:
            word, sign = merge_words(w1, w2)
            assert sort_word(w1 + w2) == (word, sign)
            assert sign_of_merge(w1, w2) == sign
            got = wedge(InvariantForm.basis(R, w1, c), InvariantForm.basis(R, w2))
            if word is None:
                assert got.is_zero and got.degree == len(w1) + len(w2)
            else:
                assert got == InvariantForm.basis(R, word, c if sign > 0 else -c)


def test_conjugation_and_type_tables_match_reference():
    bar = {1: 3, 2: 4, 3: 1, 4: 2}
    c = QI(1, 3)
    for w in ALL_WORDS:
        assert word_bidegree(w) == (sum(x <= 2 for x in w), sum(x > 2 for x in w))
        word, sign = sort_word([bar[x] for x in w])
        want = InvariantForm.basis(C, word, c.conjugate() if sign > 0 else -c.conjugate())
        assert InvariantForm.basis(C, w, c).conjugated() == want
        assert InvariantForm.basis(R, w, c).conjugated() == InvariantForm.basis(R, w, QI(1, -3))
        if w:
            assert InvariantForm.basis(C, w).bidegree() == word_bidegree(w)


def test_validation_accepts_exactly_the_basis_words():
    for degree in range(5):
        for letters in product(range(0, 6), repeat=degree):
            valid = sort_word(letters) == (letters, 1) and all(1 <= x <= 4 for x in letters)
            if valid:
                assert InvariantForm(R, degree, {letters: QI(1)}).get(letters) == QI(1)
            else:
                with pytest.raises(DegreeMismatchError):
                    InvariantForm(R, degree, {letters: QI(1)})


def test_conjugation_complex_frame():
    f = InvariantForm.build(C, 2, {(1, 4): QI(0, 1)})  # i phi^{1 2bar}
    g = f.conjugated()
    # conj(i phi^1 ^ phi^2bar) = -i phi^1bar ^ phi^2 = i phi^{2 1bar}
    assert g == InvariantForm.build(C, 2, {(2, 3): QI(0, 1)})
    assert f.conjugated().conjugated() == f


# -- hypothesis property tests ---------------------------------------------------

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=8)
scalars = st.builds(QI, rationals, rationals)


def forms(degree):
    return st.builds(
        lambda items: InvariantForm.build(R, degree, dict(items)),
        st.lists(st.tuples(st.sampled_from(words_of_degree(degree)), scalars),
                 max_size=4))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_graded_anticommutativity(data):
    p = data.draw(st.integers(0, 3))
    q = data.draw(st.integers(0, 4 - p))
    a = data.draw(forms(p))
    b = data.draw(forms(q))
    lhs = wedge(a, b)
    rhs = wedge(b, a)
    sign = -1 if (p * q) % 2 else 1
    assert lhs == rhs.scaled(QI(sign))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_wedge_associative(data):
    p = data.draw(st.integers(0, 2))
    q = data.draw(st.integers(0, 2 - p if p < 2 else 0))
    r = data.draw(st.integers(0, max(0, 4 - p - q)))
    a, b, c = data.draw(forms(p)), data.draw(forms(q)), data.draw(forms(r))
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_change_frame_commutes_with_wedge(data):
    p = data.draw(st.integers(0, 2))
    q = data.draw(st.integers(0, 4 - p))
    a, b = data.draw(forms(p)), data.draw(forms(q))
    lhs = change_frame(wedge(a, b), C, STANDARD_J)
    rhs = wedge(change_frame(a, C, STANDARD_J), change_frame(b, C, STANDARD_J))
    assert lhs == rhs


def test_float_backend_wedge_properties_within_tolerance():
    rng = random.Random(99)
    for _ in range(50):
        p = rng.randint(0, 2)
        q = rng.randint(0, 2)
        a = random_form(rng, R, p, as_complex=True)
        b = random_form(rng, R, q, as_complex=True)
        lhs = wedge(a, b)
        rhs = wedge(b, a).scaled(complex(-1 if (p * q) % 2 else 1))
        scale = max(lhs.max_abs(), rhs.max_abs(), 1.0)
        assert (lhs - rhs).max_abs() <= 1e-12 * scale
