"""Bidegree decomposition and the operators mu, del, delbar, mubar, d, d^c.

An almost complex structure enters through a 2x4 complex matrix whose rows
express the (1,0)-coframe phi^1, phi^2 in the real coframe e^1..e^4.  The
stacked 4x4 matrix [P; conj(P)] must be invertible.

``_frame_matrices`` caches, per coframe, the stacked matrix and its exact
inverse (plus their float copies).  A complex-frame form goes to the real
frame by substituting each letter phi^i with its row of the stacked matrix;
a real-frame form goes to the complex frame by substituting each e^i with its
row of the inverse.  Neither direction inverts a matrix again.

d of a complex basis word is computed once per (structure, coframe) and
cached in its ``BidegreeCalculus``: substitute into the real frame, apply the
structure equations, substitute back.  d of any other complex-frame form is
the linear combination of those word differentials, and the four bidegree
components are projections of it.  The component operators accept pure-type
input only; mixed input is an error so that a missing projection surfaces
instead of being silently absorbed.  ``calculus_for`` hands out one shared
calculus per (structure, coframe).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .errors import DegreeMismatchError, MixedBidegreeError, SingularMatrixError
from .exterior import (DIM, FrameTag, InvariantForm, Word, substitute_letters,
                       words_of_degree)
from .lie import LieStructure
from .linalg import invert_matrix
from .scalars import QI, to_complex


@dataclass(frozen=True)
class AlmostComplexCoframe:
    """Rows of phi^1, phi^2 in the real coframe; letters 3,4 are their bars."""

    rows: tuple[tuple[QI, QI, QI, QI], tuple[QI, QI, QI, QI]]

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "AlmostComplexCoframe":
        mat = tuple(tuple(QI.of(x) for x in row) for row in rows)
        if len(mat) != 2 or any(len(r) != DIM for r in mat):
            raise DegreeMismatchError("coframe needs exactly 2 rows of 4 entries")
        cf = AlmostComplexCoframe(mat)
        _frame_matrices(cf)  # validates invertibility of [P; conj(P)]
        return cf

    def stacked(self) -> list[list[QI]]:
        """4x4 matrix of (phi^1, phi^2, conj phi^1, conj phi^2) in e-letters."""
        conj_rows = [[x.conjugate() for x in row] for row in self.rows]
        return [list(self.rows[0]), list(self.rows[1]), conj_rows[0], conj_rows[1]]


@lru_cache(maxsize=128)
def _frame_matrices(cf: AlmostComplexCoframe):
    stacked = cf.stacked()
    try:
        inverse = invert_matrix(stacked)
    except SingularMatrixError:
        raise SingularMatrixError(
            "phi rows and their conjugates do not form a coframe") from None
    stacked_f = [[to_complex(x) for x in row] for row in stacked]
    inverse_f = [[to_complex(x) for x in row] for row in inverse]
    return stacked, inverse, stacked_f, inverse_f


@dataclass(frozen=True)
class Bidegree:
    p: int
    q: int

    def __post_init__(self):
        if not (0 <= self.p <= 2 and 0 <= self.q <= 2 and self.p + self.q <= DIM):
            raise DegreeMismatchError(f"invalid bidegree ({self.p},{self.q})")

    @property
    def degree(self) -> int:
        return self.p + self.q

    def as_tuple(self) -> tuple[int, int]:
        return (self.p, self.q)


def word_bidegree(word: Word) -> tuple[int, int]:
    return (sum(1 for x in word if x <= 2), sum(1 for x in word if x > 2))


def project(f: InvariantForm, bidegree, coframe: AlmostComplexCoframe | None = None
            ) -> InvariantForm:
    """The (p,q) component of a complex-frame form of degree p+q.

    Real-frame input is converted first when a coframe is supplied.
    """
    if isinstance(bidegree, tuple):
        bidegree = Bidegree(*bidegree)
    if f.frame is FrameTag.REAL:
        if coframe is None:
            raise MixedBidegreeError(
                "projection of a real-frame form requires the almost complex coframe")
        f = to_complex_frame(f, coframe)
    if bidegree.degree != f.degree:
        raise DegreeMismatchError(
            f"bidegree ({bidegree.p},{bidegree.q}) does not match degree {f.degree}")
    keep = {w: c for w, c in f.coeffs.items()
            if word_bidegree(w) == bidegree.as_tuple()}
    return InvariantForm.build(f.frame, f.degree, keep)


def to_complex_frame(f: InvariantForm, coframe: AlmostComplexCoframe) -> InvariantForm:
    if f.frame is FrameTag.COMPLEX:
        return f
    if f.frame is not FrameTag.REAL:
        raise DegreeMismatchError("only real-frame forms convert to the complex frame")
    _, inverse, _, inverse_f = _frame_matrices(coframe)
    return substitute_letters(f, FrameTag.COMPLEX, inverse_f if f.is_float else inverse)


def to_real_frame(f: InvariantForm, coframe: AlmostComplexCoframe) -> InvariantForm:
    if f.frame is FrameTag.REAL:
        return f
    if f.frame is not FrameTag.COMPLEX:
        raise DegreeMismatchError("only complex-frame forms convert to the real frame")
    stacked, _, stacked_f, _ = _frame_matrices(coframe)
    return substitute_letters(f, FrameTag.REAL, stacked_f if f.is_float else stacked)


class BidegreeCalculus:
    """Operators d, mu, del, delbar, mubar, d^c bound to one (structure, coframe).

    Differentials of basis words are cached; everything downstream is linear
    in those tables, which is what makes exact parameter sweeps cheap.
    """

    def __init__(self, lie: LieStructure, coframe: AlmostComplexCoframe):
        self.lie = lie
        self.coframe = coframe
        self._d_word: dict[Word, InvariantForm] = {}
        self._d_word_float: dict[Word, InvariantForm] = {}

    # -- frame plumbing ------------------------------------------------------

    def to_complex(self, f: InvariantForm) -> InvariantForm:
        return to_complex_frame(f, self.coframe)

    def to_real(self, f: InvariantForm) -> InvariantForm:
        return to_real_frame(f, self.coframe)

    # -- exterior differential -----------------------------------------------

    def d_basis_word(self, word: Word, float_backend: bool = False) -> InvariantForm:
        """d(phi^word) computed through the real frame; cached."""
        word = tuple(word)
        if float_backend:
            cached = self._d_word_float.get(word)
            if cached is None:
                cached = self.d_basis_word(word).to_float()
                self._d_word_float[word] = cached
            return cached
        cached = self._d_word.get(word)
        if cached is None:
            basis = InvariantForm.basis(FrameTag.COMPLEX, word)
            cached = self.to_complex(self.lie.d(self.to_real(basis)))
            self._d_word[word] = cached
        return cached

    def d(self, f: InvariantForm) -> InvariantForm:
        if f.frame is FrameTag.REAL:
            return self.lie.d(f)
        if f.frame is not FrameTag.COMPLEX:
            raise DegreeMismatchError("d is defined on real- or complex-frame forms")
        out = InvariantForm.zero(FrameTag.COMPLEX, f.degree + 1)
        use_float = f.is_float
        for word, c in f.coeffs.items():
            out = out + self.d_basis_word(word, use_float).scaled(c)
        return out

    # -- bidegree components ---------------------------------------------------

    def _component(self, f: InvariantForm, dp: int, dq: int) -> InvariantForm:
        p, q = self._pure_bidegree(f)
        df = self.d(f)
        tp, tq = p + dp, q + dq
        if not (0 <= tp <= 2 and 0 <= tq <= 2):
            return InvariantForm.zero(FrameTag.COMPLEX, f.degree + 1)
        return project(df, (tp, tq))

    def _pure_bidegree(self, f: InvariantForm) -> tuple[int, int]:
        if f.frame is not FrameTag.COMPLEX:
            raise DegreeMismatchError("bidegree operators act on complex-frame forms")
        bd = f.bidegree()
        if bd is None:
            if f.is_zero:
                # a zero form is vacuously pure; treat it as (degree, 0)
                return (min(f.degree, 2), f.degree - min(f.degree, 2))
            raise MixedBidegreeError(
                "mixed-bidegree input; project onto a pure type first")
        return bd

    def mu(self, f: InvariantForm) -> InvariantForm:
        return self._component(f, +2, -1)

    def del_(self, f: InvariantForm) -> InvariantForm:
        return self._component(f, +1, 0)

    def delbar(self, f: InvariantForm) -> InvariantForm:
        return self._component(f, 0, +1)

    def mubar(self, f: InvariantForm) -> InvariantForm:
        return self._component(f, -1, +2)

    def dc(self, f: InvariantForm) -> InvariantForm:
        """d^c = -J^{-1} d J = i(mubar + delbar - del - mu), componentwise: one d
        per (p,q)-component, kept where q grew (mubar, delbar), negated where p grew."""
        if f.frame is not FrameTag.COMPLEX:
            raise DegreeMismatchError("d^c acts on complex-frame forms")
        i_unit = 1j if f.is_float else QI(0, 1)
        out = InvariantForm.zero(FrameTag.COMPLEX, f.degree + 1)
        for (p, q) in sorted({word_bidegree(w) for w in f.coeffs}):
            df = self.d(project(f, (p, q)))
            signed = {w: c if word_bidegree(w)[1] > q else -c
                      for w, c in df.coeffs.items()}
            out = out + InvariantForm(FrameTag.COMPLEX, df.degree, signed).scaled(i_unit)
        return out

    # -- convenience -------------------------------------------------------------

    def complex_basis(self, p: int, q: int) -> list[InvariantForm]:
        words = [w for w in words_of_degree(p + q) if word_bidegree(w) == (p, q)]
        return [InvariantForm.basis(FrameTag.COMPLEX, w) for w in words]


@lru_cache(maxsize=128)
def calculus_for(lie: LieStructure, coframe: AlmostComplexCoframe) -> BidegreeCalculus:
    return BidegreeCalculus(lie, coframe)
