"""Exact scalars for the form algebra.

:class:`QI` -- complex numbers with rational real and imaginary parts
(Gaussian rationals) -- is the scalar of every form.  All catalog structure
constants, coframes and metric data are rational, so whole decisions run
without any rounding.  A value is held as one integer triple ``(n + m*i)/d``
over a common denominator, so each operation is a few integer products and
one gcd.  It supports ``+``, ``-``, ``*``, ``/``, unary ``-``,
``conjugate()`` and truthiness (nonzero test), which is everything the form
code uses.  Mixing it with ``float`` or ``complex`` raises ``TypeError`` on
purpose: a float leaking into an exact computation is a bug, not a
convenience.  The float backend of the decision works on numpy copies of
the assembled system (:func:`to_complex`) and hands its witness back as the
exact rational value of its doubles.

:class:`RootExt` adjoins square roots of up to two positive rationals to
``QI``.  It exists only for the code paths where a frame change genuinely
involves such roots (the orthonormalizing coframe attached to a metric), so
that even those round trips can be checked exactly.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Rationalish = Union[int, str, Fraction]


def as_fraction(x: Rationalish) -> Fraction:
    """Parse an exact rational; accepts int, Fraction, "p/q" and decimal strings."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def exact_sqrt(x: Fraction) -> Fraction | None:
    """Square root of a nonnegative rational, or None when it is irrational."""
    if x < 0:
        raise ValueError("exact_sqrt of a negative rational")
    if x == 0:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


class QI:
    """Gaussian rational ``(n + m*i)/d``, held as the integer triple ``(n, m, d)``.

    The triple is canonical: ``d > 0`` and ``gcd(n, m, d) == 1``, so zero is
    ``(0, 0, 1)`` and two values are equal exactly when their triples are.
    ``re`` and ``im`` are read-only :class:`Fraction` views of ``n/d`` and
    ``m/d``.
    """

    __slots__ = ("_t",)

    def __init__(self, re: Rationalish = 0, im: Rationalish = 0):
        if type(re) is int and type(im) is int:
            self._t = (re, im, 1)
            return
        a, b = as_fraction(re), as_fraction(im)
        p, q = a.denominator, b.denominator
        d = p // math.gcd(p, q) * q
        # a and b are in lowest terms, so over their lcm gcd(n, m, d) is 1
        self._t = (a.numerator * (d // p), b.numerator * (d // q), d)

    @staticmethod
    def of(value) -> "QI":
        if isinstance(value, QI):
            return value
        if isinstance(value, (int, str, Fraction)):
            return QI(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    @property
    def re(self) -> Fraction:
        n, _, d = self._t
        return Fraction(n, d)

    @property
    def im(self) -> Fraction:
        _, m, d = self._t
        return Fraction(m, d)

    def __add__(self, other):
        t = other._t if type(other) is QI else _triple(other)
        if t is None:
            return NotImplemented
        n1, m1, d1 = self._t
        n2, m2, d2 = t
        if d1 == d2:
            return _reduced(n1 + n2, m1 + m2, d1)
        return _reduced(n1 * d2 + n2 * d1, m1 * d2 + m2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        t = other._t if type(other) is QI else _triple(other)
        if t is None:
            return NotImplemented
        return _sub(self._t, t)

    def __rsub__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _sub(t, self._t)

    def __mul__(self, other):
        t = other._t if type(other) is QI else _triple(other)
        if t is None:
            return NotImplemented
        n1, m1, d1 = self._t
        n2, m2, d2 = t
        return _reduced(n1 * n2 - m1 * m2, n1 * m2 + m1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = other._t if type(other) is QI else _triple(other)
        if t is None:
            return NotImplemented
        return _div(self._t, t)

    def __rtruediv__(self, other):
        t = _triple(other)
        if t is None:
            return NotImplemented
        return _div(t, self._t)

    def __neg__(self):
        n, m, d = self._t
        return _canonical(-n, -m, d)

    def __pos__(self):
        return self

    def conjugate(self) -> "QI":
        n, m, d = self._t
        return _canonical(n, -m, d)

    def abs2(self) -> Fraction:
        n, m, d = self._t
        return Fraction(n * n + m * m, d * d)

    @property
    def is_real(self) -> bool:
        return self._t[1] == 0

    def __bool__(self) -> bool:
        return self._t != (0, 0, 1)

    def __eq__(self, other) -> bool:
        t = _triple(other)
        if t is None:
            return NotImplemented
        return self._t == t

    def __hash__(self):
        return hash(self._t)

    def to_complex(self) -> complex:
        # int / int is correctly rounded, so this equals float(Fraction(n, d))
        n, m, d = self._t
        return complex(n / d, m / d)

    def __complex__(self) -> complex:
        return self.to_complex()

    def __repr__(self) -> str:
        return f"QI({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        imtxt = "i" if mag == 1 else f"{mag}i"
        return f"{re}{sign}{imtxt}"


_new = object.__new__


def _canonical(n: int, m: int, d: int) -> QI:
    """QI from a triple that is already canonical."""
    q = _new(QI)
    q._t = (n, m, d)
    return q


def _reduced(n: int, m: int, d: int) -> QI:
    """QI from a triple with ``d > 0``, divided by ``gcd(n, m, d)``."""
    g = math.gcd(n, m, d)
    if g != 1:
        n, m, d = n // g, m // g, d // g
    return _canonical(n, m, d)


def _triple(x) -> "tuple[int, int, int] | None":
    """Canonical triple of a QI, int or Fraction; None for any other type."""
    if isinstance(x, QI):
        return x._t
    if isinstance(x, int):
        return (int(x), 0, 1)
    if isinstance(x, Fraction):
        return (x.numerator, 0, x.denominator)
    return None


def _sub(a, b) -> QI:
    n1, m1, d1 = a
    n2, m2, d2 = b
    if d1 == d2:
        return _reduced(n1 - n2, m1 - m2, d1)
    return _reduced(n1 * d2 - n2 * d1, m1 * d2 - m2 * d1, d1 * d2)


def _div(a, b) -> QI:
    # (n1 + m1 i)/d1 / ((n2 + m2 i)/d2) = d2 (n1 + m1 i)(n2 - m2 i) / (d1 |n2 + m2 i|^2)
    n1, m1, d1 = a
    n2, m2, d2 = b
    norm = n2 * n2 + m2 * m2
    if norm == 0:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return _reduced(d2 * (n1 * n2 + m1 * m2), d2 * (m1 * n2 - n1 * m2), d1 * norm)


QI_ZERO = QI(0)
QI_ONE = QI(1)
QI_I = QI(0, 1)


def to_complex(x) -> complex:
    if isinstance(x, (QI, RootExt)):
        return x.to_complex()
    return complex(x)


def magnitude(x) -> float:
    """Floating magnitude, for pivot selection only (never affects exactness)."""
    return abs(to_complex(x))


class RootExt:
    """Element ``a + b*rho + c*sig + d*rho*sig`` of QI(rho, sig), rho=sqrt(R), sig=sqrt(S).

    R and S are positive rationals.  Construction normalizes: a radical whose
    square is a perfect rational square is folded away, and when S/R is a
    perfect square sig is rewritten as a rational multiple of rho.  After
    normalization the active radicals generate a genuine field extension, so
    division is always well defined.
    """

    __slots__ = ("parts", "rad")

    def __init__(self, parts, rad):
        # parts: 4-tuple of QI for grades (1, rho, sig, rho*sig); use make().
        self.parts = tuple(parts)
        self.rad = tuple(rad)

    @staticmethod
    def make(parts, rad) -> "RootExt":
        a, b, c, d = (QI.of(p) for p in parts)
        R, S = (as_fraction(v) for v in rad)
        if R <= 0 or S <= 0:
            raise ValueError("radicands must be positive")
        sr = exact_sqrt(R)
        if sr is not None:
            a, b = a + b * sr, QI_ZERO
            c, d = c + d * sr, QI_ZERO
        ss = exact_sqrt(S)
        if ss is not None:
            a, c = a + c * ss, QI_ZERO
            b, d = b + d * ss, QI_ZERO
        if (c or d) and sr is None and ss is None:
            ratio = exact_sqrt(S / R)
            if ratio is not None:
                # sig = ratio*rho, hence rho*sig = ratio*R
                a, b = a + d * ratio * R, b + c * ratio
                c = d = QI_ZERO
        return RootExt((a, b, c, d), (R, S))

    @staticmethod
    def rational(q, rad) -> "RootExt":
        return RootExt.make((QI.of(q), 0, 0, 0), rad)

    @staticmethod
    def root_r(rad) -> "RootExt":
        return RootExt.make((0, 1, 0, 0), rad)

    @staticmethod
    def root_s(rad) -> "RootExt":
        return RootExt.make((0, 0, 1, 0), rad)

    def _coerced(self, other) -> "RootExt | None":
        if isinstance(other, RootExt):
            if other.rad != self.rad:
                raise ValueError("mixing RootExt values over different radicands")
            return other
        if isinstance(other, (QI, int, Fraction)):
            # a rational element over normalized radicands is already normalized
            return RootExt((QI.of(other), QI_ZERO, QI_ZERO, QI_ZERO), self.rad)
        return None

    def __add__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return RootExt(tuple(x + y for x, y in zip(self.parts, o.parts)), self.rad)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return RootExt(tuple(x - y for x, y in zip(self.parts, o.parts)), self.rad)

    def __rsub__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o - self

    _GRADES = ((0, 0), (1, 0), (0, 1), (1, 1))
    _SLOT = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}

    def __mul__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        R, S = self.rad
        out = [QI_ZERO, QI_ZERO, QI_ZERO, QI_ZERO]
        for (er, es), x in zip(self._GRADES, self.parts):
            if not x:
                continue
            for (fr, fs), y in zip(self._GRADES, o.parts):
                if not y:
                    continue
                factor = x * y
                if er and fr:
                    factor = factor * R
                if es and fs:
                    factor = factor * S
                slot = self._SLOT[((er + fr) % 2, (es + fs) % 2)]
                out[slot] = out[slot] + factor
        # products of normalized operands over the same radicands stay normalized
        return RootExt(out, self.rad)

    __rmul__ = __mul__

    def _flip_r(self) -> "RootExt":
        a, b, c, d = self.parts
        return RootExt((a, -b, c, -d), self.rad)

    def _flip_s(self) -> "RootExt":
        a, b, c, d = self.parts
        return RootExt((a, b, -c, -d), self.rad)

    def inverse(self) -> "RootExt":
        x = self
        mult = RootExt.rational(1, self.rad)
        if x.parts[1] or x.parts[3]:
            y = x._flip_r()
            mult = mult * y
            x = x * y
        if x.parts[2] or x.parts[3]:
            y = x._flip_s()
            mult = mult * y
            x = x * y
        q = x.parts[0]
        if not q or x.parts[1] or x.parts[2] or x.parts[3]:
            raise ZeroDivisionError("RootExt element is not invertible")
        return mult * RootExt.rational(QI_ONE / q, self.rad)

    def __truediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return RootExt(tuple(-p for p in self.parts), self.rad)

    def conjugate(self) -> "RootExt":
        # the adjoined roots are real, so conjugation acts on coefficients
        return RootExt(tuple(p.conjugate() for p in self.parts), self.rad)

    def __bool__(self) -> bool:
        return any(self.parts)

    def __eq__(self, other) -> bool:
        o = self._coerced(other)
        if o is None:
            return NotImplemented
        return self.parts == o.parts

    def __hash__(self):
        return hash((self.parts, self.rad))

    @property
    def is_rational(self) -> bool:
        return not (self.parts[1] or self.parts[2] or self.parts[3])

    def rational_value(self) -> QI:
        if not self.is_rational:
            raise ValueError(f"{self} carries an irrational component")
        return self.parts[0]

    def to_complex(self) -> complex:
        R, S = self.rad
        rr, rs = math.sqrt(float(R)), math.sqrt(float(S))
        a, b, c, d = (p.to_complex() for p in self.parts)
        return a + b * rr + c * rs + d * rr * rs

    def __repr__(self) -> str:
        return f"RootExt({self.parts!r}, rad={self.rad!r})"
