"""Invariant (Chevalley-Eilenberg) cohomology of a 4-dimensional Lie algebra.

Betti numbers of the complex of invariant forms, representatives for the
degree-2 classes, and the intersection form obtained by wedging
representatives into the top degree.  For the unimodular algebras in the
catalog this coincides with the cohomology of the compact quotient under the
usual nilmanifold/completely-solvable hypotheses; reports carry the caveat
rather than asserting the identification.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exterior import DIM, FrameTag, InvariantForm, words_of_degree
from .lie import LieStructure
from .linalg import _null_basis, kernel, rref, symmetric_signature
from .scalars import QI

TOP_WORD = (1, 2, 3, 4)


@dataclass(frozen=True)
class CohomologyReport:
    betti: tuple[int, int, int, int, int]
    h2_representatives: tuple[InvariantForm, ...]
    intersection_matrix: tuple[tuple[Fraction, ...], ...]
    b_plus: int
    b_minus: int
    top_degree_closed: bool  # d vanishes on 3-forms, so the pairing is canonical

    @property
    def b2(self) -> int:
        return self.betti[2]


def _real_coeff(value: QI) -> Fraction:
    if value.im != 0:
        raise ValueError("expected a real coefficient in the invariant complex")
    return value.re


def _form_to_vector(f: InvariantForm, words) -> list[Fraction]:
    return [_real_coeff(f.coeffs.get(w, QI(0))) for w in words]


def _vector_to_form(vec, words) -> InvariantForm:
    return InvariantForm.build(
        FrameTag.REAL, len(words[0]) if words else 0,
        {w: QI(c) for w, c in zip(words, vec) if c})


def d_matrix(lie: LieStructure, k: int) -> list[list[Fraction]]:
    """Matrix of d: Lambda^k -> Lambda^(k+1), rows indexed by (k+1)-words."""
    src = words_of_degree(k)
    dst = words_of_degree(k + 1)
    cols = [_form_to_vector(lie.d(InvariantForm.basis(FrameTag.REAL, w)), dst)
            for w in src]
    return [[cols[j][i] for j in range(len(src))] for i in range(len(dst))]


def closed_form_basis(lie: LieStructure, k: int) -> list[InvariantForm]:
    """Basis of the closed invariant k-forms, in deterministic rref order."""
    words = words_of_degree(k)
    mat = d_matrix(lie, k)
    vecs = kernel(mat, len(words))
    return [_vector_to_form(v, words) for v in vecs]


@lru_cache(maxsize=128)
def ce_cohomology(lie: LieStructure) -> CohomologyReport:
    """Betti numbers, H^2 representatives and the intersection form of H^2."""
    from .errors import DolharmError
    from .lie import validate_d_squared

    verdict = validate_d_squared(lie)
    if not verdict.ok:
        raise DolharmError("invariant cohomology undefined: d^2 != 0 on the coframe")
    dims = [len(words_of_degree(k)) for k in range(DIM + 1)]
    mats = [d_matrix(lie, k) for k in range(DIM + 1)]
    reduced = [rref(mat) for mat in mats]
    ranks = [len(pivots) for _, pivots in reduced]  # rank of d_k
    betti = tuple(dims[k] - ranks[k] - (ranks[k - 1] if k else 0)
                  for k in range(DIM + 1))

    # closed 2-forms off the reduced d_2; the representatives are those that
    # are pivot columns of [d_1 | closed], each independent of the exact
    # forms and of the representatives before it
    words2 = words_of_degree(2)
    closed = _null_basis(*reduced[2], len(words2), Fraction(0), Fraction(1))
    _, pivots = rref([row + [v[i] for v in closed] for i, row in enumerate(mats[1])])
    reps = [closed[p - dims[1]] for p in pivots if p >= dims[1]]
    rep_forms = tuple(_vector_to_form(v, words2) for v in reps)

    top_rank = ranks[3]
    top_closed = top_rank == 0
    n = len(rep_forms)
    inter = [[Fraction(0)] * n for _ in range(n)]
    if top_closed:
        for i in range(n):
            for j in range(i, n):
                prod = rep_forms[i].wedge(rep_forms[j])
                val = _real_coeff(prod.coeffs.get(TOP_WORD, QI(0)))
                inter[i][j] = val
                inter[j][i] = val
    pos, neg, _zero = symmetric_signature(inter) if n else (0, 0, 0)
    return CohomologyReport(
        betti=betti,
        h2_representatives=rep_forms,
        intersection_matrix=tuple(tuple(row) for row in inter),
        b_plus=pos,
        b_minus=neg,
        top_degree_closed=top_closed,
    )
