"""4-dimensional Lie algebras presented through their coframe differentials.

A structure is the collection of real constants c^i_{jk} (j < k) with
de^i = sum c^i_{jk} e^{jk}.  The Jacobi identity is equivalent to d o d = 0
on the coframe, which :func:`validate_d_squared` checks directly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping

from .errors import DegreeMismatchError
from .exterior import DIM, FrameTag, InvariantForm, wedge
from .scalars import QI, as_fraction


@dataclass(frozen=True)
class LieStructure:
    """Structure constants of de^i = sum_{j<k} c^i_{jk} e^{jk}, plus a label."""

    terms: tuple[tuple[int, int, int, Fraction], ...]  # (i, j, k, c)
    name: str = ""

    @staticmethod
    def from_d(differentials: Mapping[int, Mapping[tuple[int, int], object]],
               name: str = "") -> "LieStructure":
        terms = []
        for i, spec in sorted(differentials.items()):
            if not 1 <= i <= DIM:
                raise DegreeMismatchError(f"coframe index {i} outside 1..{DIM}")
            for (j, k), c in sorted(spec.items()):
                if not (1 <= j < k <= DIM):
                    raise DegreeMismatchError(f"pair ({j},{k}) must satisfy 1<=j<k<=4")
                c = as_fraction(c)
                if c != 0:
                    terms.append((i, j, k, c))
        return LieStructure(tuple(terms), name)

    @staticmethod
    def abelian(name: str = "abelian") -> "LieStructure":
        return LieStructure((), name)

    def d_on_coframe(self, i: int) -> InvariantForm:
        """The invariant 2-form de^i in the real frame."""
        if not 1 <= i <= DIM:
            raise DegreeMismatchError(f"coframe index {i} outside 1..{DIM}")
        coeffs = {(j, k): QI(c) for (ii, j, k, c) in self.terms if ii == i}
        return InvariantForm.build(FrameTag.REAL, 2, coeffs)

    def d(self, f: InvariantForm) -> InvariantForm:
        """Exterior differential of a real-frame invariant form.

        Extends de^i by the graded Leibniz rule:
        d(e^W) = sum_k (-1)^(k-1) de^(w_k) ^ e^(W minus w_k).
        """
        if f.frame is not FrameTag.REAL:
            raise DegreeMismatchError("LieStructure.d acts on real-frame forms")
        result = InvariantForm.zero(FrameTag.REAL, f.degree + 1)
        if f.degree > DIM:
            return result
        for word, c in f.coeffs.items():
            for pos, letter in enumerate(word):
                rest = word[:pos] + word[pos + 1:]
                term = wedge(self.d_on_coframe(letter),
                             InvariantForm.basis(FrameTag.REAL, rest))
                scalar = c if pos % 2 == 0 else -c
                result = result + term.scaled(scalar)
        return result


@dataclass(frozen=True)
class DSquaredVerdict:
    ok: bool
    failures: tuple[tuple[int, InvariantForm], ...]

    def __bool__(self) -> bool:
        return self.ok


@lru_cache(maxsize=128)
def validate_d_squared(lie: LieStructure) -> DSquaredVerdict:
    """Check d(de^i) = 0 for i = 1..4; failures carry the nonzero 3-form.

    Cached per structure: the report, the decision and the cohomology all ask.
    """
    failures = []
    for i in range(1, DIM + 1):
        residual = lie.d(lie.d_on_coframe(i))
        if not residual.is_zero:
            failures.append((i, residual))
    return DSquaredVerdict(not failures, tuple(failures))


def d_invariant(lie: LieStructure, f: InvariantForm, coframe=None) -> InvariantForm:
    """d on an invariant form in the real or complex frame.

    Complex-frame input needs the almost complex coframe that defines the
    letters; it goes through the shared calculus of (lie, coframe), so the
    differentials of its basis words are computed once.
    """
    if f.frame is FrameTag.REAL:
        return lie.d(f)
    if coframe is None:
        raise DegreeMismatchError(
            "complex-frame differentiation requires the almost complex coframe")
    from .bidegree import calculus_for

    return calculus_for(lie, coframe).d(f)
