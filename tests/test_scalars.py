import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dolharm.scalars import QI, RootExt, as_fraction, exact_sqrt, magnitude

from conftest import rand_fraction


def test_qi_field_operations():
    a = QI(1, 2)
    b = QI(Fraction(1, 2), -1)
    assert a + b == QI(Fraction(3, 2), 1)
    assert a - b == QI(Fraction(1, 2), 3)
    assert a * b == QI(Fraction(5, 2), 0)
    assert (a / b) * b == a
    assert -a == QI(-1, -2)
    assert a.conjugate() == QI(1, -2)
    assert a.abs2() == Fraction(5)


def test_qi_parsing_and_interop():
    assert QI("1/2", "0.3") == QI(Fraction(1, 2), Fraction(3, 10))
    assert 2 * QI(1, 1) == QI(2, 2)
    assert Fraction(1, 2) * QI(2, 0) == QI(1, 0)
    assert QI(1, 0) == 1
    assert bool(QI(0, 0)) is False
    assert bool(QI(0, 1)) is True


def test_qi_rejects_floats():
    with pytest.raises(TypeError):
        QI(1, 0) * 0.5
    with pytest.raises(TypeError):
        QI.of(0.5)


def test_qi_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QI(1) / QI(0)


def test_exact_sqrt():
    assert exact_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert exact_sqrt(Fraction(0)) == 0
    assert exact_sqrt(Fraction(2)) is None
    with pytest.raises(ValueError):
        exact_sqrt(Fraction(-1))


class TestRootExt:
    rad = (Fraction(2), Fraction(3))  # rho = sqrt(2), sig = sqrt(3)

    def test_multiplication_table(self):
        rho = RootExt.root_r(self.rad)
        sig = RootExt.root_s(self.rad)
        assert rho * rho == RootExt.rational(2, self.rad)
        assert sig * sig == RootExt.rational(3, self.rad)
        assert (rho * sig) * (rho * sig) == RootExt.rational(6, self.rad)

    def test_inverse_generic_element(self):
        rho = RootExt.root_r(self.rad)
        sig = RootExt.root_s(self.rad)
        x = RootExt.rational(QI(1, 1), self.rad) + 2 * rho - sig + rho * sig
        assert x * x.inverse() == RootExt.rational(1, self.rad)
        assert (1 / x) * x == RootExt.rational(1, self.rad)

    def test_perfect_square_folds_to_rational(self):
        rad = (Fraction(9, 4), Fraction(2))
        rho = RootExt.root_r(rad)  # sqrt(9/4) = 3/2
        assert rho.is_rational
        assert rho.rational_value() == QI(Fraction(3, 2))

    def test_square_ratio_folds_to_single_radical(self):
        # sig = sqrt(8) = 2 sqrt(2): the two radicals span one extension
        rad = (Fraction(2), Fraction(8))
        rho, sig = RootExt.root_r(rad), RootExt.root_s(rad)
        assert sig == 2 * rho
        x = sig - 2 * rho
        assert not x
        y = RootExt.rational(1, rad) + sig
        assert y * y.inverse() == RootExt.rational(1, rad)

    def test_float_evaluation(self):
        rho = RootExt.root_r(self.rad)
        assert abs(rho.to_complex() - 2 ** 0.5) < 1e-15

    @pytest.mark.parametrize("rad", [(Fraction(2), Fraction(3)),      # generic
                                     (Fraction(9, 4), Fraction(2)),   # R a perfect square
                                     (Fraction(2), Fraction(8))])     # S/R a perfect square
    def test_arithmetic_results_are_normalized(self, rad, rng):
        """+, -, unary - and * build their result without RootExt.make; on
        normalized operands that result must already be what make returns."""
        def rand_elem():
            return RootExt.make([QI(rand_fraction(rng), rand_fraction(rng))
                                 if rng.random() < 0.8 else 0 for _ in range(4)], rad)

        for _ in range(40):
            x, y = rand_elem(), rand_elem()
            q = QI(rand_fraction(rng), rand_fraction(rng))
            for z in (x + y, x - y, -x, x * y, x * x, x * q, q * x, 3 * x):
                assert z.parts == RootExt.make(z.parts, rad).parts
                assert z.rad == rad
            for c in (q, 3, rand_fraction(rng)):
                coerced = x._coerced(c)
                assert coerced.parts == RootExt.make((c, 0, 0, 0), rad).parts
                assert coerced.rad == RootExt.make((c, 0, 0, 0), rad).rad

    def test_conjugate_acts_on_coefficients(self):
        x = RootExt.make((QI(1, 1), QI(0, 2), 0, 0), self.rad)
        assert x.conjugate() == RootExt.make((QI(1, -1), QI(0, -2), 0, 0), self.rad)


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)


# -- QI against the Fraction-pair representation it replaced -------------------


class FractionPairQI:
    """The former QI: a pair of Fractions, kept here as the reference."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re, self.im = as_fraction(re), as_fraction(im)

    def __add__(self, o):
        return FractionPairQI(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return FractionPairQI(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return FractionPairQI(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        d = o.abs2()
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return FractionPairQI((self.re * o.re + self.im * o.im) / d,
                              (self.im * o.re - self.re * o.im) / d)

    def __neg__(self):
        return FractionPairQI(-self.re, -self.im)

    def conjugate(self):
        return FractionPairQI(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def to_complex(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            if self.im == 1:
                return "i"
            if self.im == -1:
                return "-i"
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        mag = abs(self.im)
        imtxt = "i" if mag == 1 else f"{mag}i"
        return f"{self.re}{sign}{imtxt}"


_NUMS = st.one_of(st.integers(-12, 12), st.integers(-10 ** 40, 10 ** 40))
_DENS = st.one_of(st.integers(1, 12), st.integers(1, 10 ** 40))
FRACTIONS = st.builds(Fraction, _NUMS, _DENS)
PAIRS = st.tuples(FRACTIONS, FRACTIONS)


def assert_canonical(x: QI) -> None:
    n, m, d = x._t
    assert all(type(v) is int for v in (n, m, d))
    assert d > 0 and math.gcd(n, m, d) == 1
    if not x:
        assert x._t == (0, 0, 1)


def assert_matches(x: QI, ref: FractionPairQI) -> None:
    assert_canonical(x)
    assert (x.re, x.im) == (ref.re, ref.im)
    assert type(x.re) is Fraction and type(x.im) is Fraction


@settings(max_examples=300, deadline=None)
@given(PAIRS, PAIRS)
def test_qi_arithmetic_matches_fraction_pair_reference(a, b):
    x, y = QI(*a), QI(*b)
    rx, ry = FractionPairQI(*a), FractionPairQI(*b)
    assert_matches(x, rx)
    for op in (operator.add, operator.sub, operator.mul):
        assert_matches(op(x, y), op(rx, ry))
    if ry.abs2():
        assert_matches(x / y, rx / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert_matches(-x, -rx)
    assert_matches(x.conjugate(), rx.conjugate())
    assert x.abs2() == rx.abs2() and type(x.abs2()) is Fraction
    assert bool(x) == bool(rx.re or rx.im)
    assert x.is_real == (rx.im == 0)
    assert (x == y) == ((rx.re, rx.im) == (ry.re, ry.im))


@settings(max_examples=200, deadline=None)
@given(PAIRS, st.one_of(st.integers(1, 7), st.integers(1, 10 ** 30)))
def test_qi_equal_values_hash_equal_across_constructions(a, k):
    re, im = a
    routes = [
        QI(re, im),
        QI(str(re), str(im)),
        QI(re) + QI(0, 1) * QI(im),
        QI(re * k, im * k) / k,
        (QI(re, im) * QI(k, 3)) / QI(k, 3),
        QI(re, im) + QI(1, 1) - QI(1, 1),
        -(-QI(re, im)),
        QI(re, -im).conjugate(),
    ]
    for x in routes:
        assert_canonical(x)
        assert x == routes[0] and x._t == routes[0]._t
        assert hash(x) == hash(routes[0])
    if im == 0:
        assert QI(re) == re and re == QI(re)
        if re.denominator == 1:
            assert QI(int(re)) == int(re) and QI(int(re))._t == routes[0]._t


@settings(max_examples=300, deadline=None)
@given(PAIRS)
def test_qi_formatting_and_floats_match_reference(a):
    x, ref = QI(*a), FractionPairQI(*a)
    assert str(x) == str(ref)
    assert repr(x) == repr(ref)
    z, want = x.to_complex(), complex(float(a[0]), float(a[1]))
    assert (z.real.hex(), z.imag.hex()) == (want.real.hex(), want.imag.hex())
    assert complex(x) == z


@settings(max_examples=100, deadline=None)
@given(PAIRS, st.one_of(st.integers(-10 ** 20, 10 ** 20), FRACTIONS))
def test_qi_mixes_with_int_and_fraction_on_both_sides(a, k):
    x, rx, rk = QI(*a), FractionPairQI(*a), FractionPairQI(k)
    assert_matches(x + k, rx + rk)
    assert_matches(k + x, rk + rx)
    assert_matches(x - k, rx - rk)
    assert_matches(k - x, rk - rx)
    assert_matches(x * k, rx * rk)
    assert_matches(k * x, rk * rx)
    if k:
        assert_matches(x / k, rx / rk)
    if x:
        assert_matches(k / x, rk / rx)
    assert (x == k) == (k == x) == ((rx.re, rx.im) == (Fraction(k), 0))


@pytest.mark.parametrize("bad", [0.5, 1.0, 2j, complex(1, 0)])
def test_qi_rejects_float_and_complex_everywhere(bad):
    x = QI(1, 2)
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    for op in ops:
        with pytest.raises(TypeError):
            op(x, bad)
        with pytest.raises(TypeError):
            op(bad, x)
    with pytest.raises(TypeError):
        QI(bad)
    with pytest.raises(TypeError):
        QI(1, bad)


def test_qi_division_by_every_kind_of_zero():
    for zero in (0, Fraction(0), QI(0), QI(0, 0), QI("0/5", "-0")):
        with pytest.raises(ZeroDivisionError):
            QI(1, 2) / zero
    for num in (1, Fraction(1, 3), QI(0, 1)):
        with pytest.raises(ZeroDivisionError):
            num / QI(0)


def test_floats_beyond_double_range_are_infinite():
    """The float view of a value beyond double range is +-inf per part, and the
    pivot key is inf there, never an OverflowError; in range both are as before."""
    big = 10 ** 400
    assert QI(big, -big).to_complex() == complex(math.inf, -math.inf)
    assert QI(Fraction(1, big), 3).to_complex() == complex(0.0, 3.0)
    assert magnitude(QI(0, -big)) == magnitude(QI(big, big)) == math.inf
    # finite parts whose modulus overflows
    assert magnitude(QI(15 * 10 ** 307, 15 * 10 ** 307)) == math.inf
    assert magnitude(QI(Fraction(3, 4), -1)) == abs(complex(0.75, -1.0))
