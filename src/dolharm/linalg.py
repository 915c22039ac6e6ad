"""Linear algebra over exact scalars, plus the floating-point counterparts.

The exact routines are generic Gaussian elimination working on any scalar
supporting field operations and truthiness (``QI``, ``Fraction``,
``RootExt``).  Pivots are chosen by floating magnitude purely as a heuristic;
the arithmetic itself never leaves the exact ring.

The floating helpers wrap numpy and implement the documented tolerance
policy: singular values below ``rel_tol`` times the largest are treated as
zero, and a least-squares residual below ``rel_tol * (1 + |v|)`` counts as
solvable.  They import numpy when called, so exact-only use never loads it.
"""
from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .errors import SingularMatrixError
from .scalars import magnitude

if TYPE_CHECKING:
    import numpy as np


Matrix = list[list]


def _copy(rows: Sequence[Sequence]) -> Matrix:
    return [list(r) for r in rows]


def rref(rows: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = _copy(rows)
    if not m:
        return m, []
    nrows, ncols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        best = 0.0
        for i in range(r, nrows):
            if m[i][c]:
                mag = magnitude(m[i][c])
                if pivot_row is None or mag > best:
                    pivot_row, best = i, mag
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def solve(rows: Sequence[Sequence], rhs: Sequence):
    """One solution of M x = v with free variables set to zero, or None."""
    if not rows:
        return []
    ncols = len(rows[0])
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    zero = rows[0][0] - rows[0][0] if rows and rows[0] else Fraction(0)
    x = [zero] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols]
    return x


def kernel(rows: Sequence[Sequence], ncols: int) -> list[list]:
    """Basis of the null space of M (list of ncols-vectors)."""
    red, pivots = rref(rows)
    if rows:
        sample = rows[0][0]
        zero, one = sample - sample, (sample - sample) + 1
    else:
        zero, one = Fraction(0), Fraction(1)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for i, pc in enumerate(pivots):
            vec[pc] = -red[i][fc]
        basis.append(vec)
    return basis


def invert_matrix(rows: Sequence[Sequence]) -> Matrix:
    n = len(rows)
    sample = rows[0][0]
    one = (sample - sample) + 1
    zero = sample - sample
    aug = [list(r) + [one if i == j else zero for j in range(n)]
           for i, r in enumerate(rows)]
    red, pivots = rref(aug)
    if [p for p in pivots if p < n] != list(range(n)):
        raise SingularMatrixError("matrix is singular")
    return [row[n:] for row in red[:n]]


def conj_transpose(rows: Sequence[Sequence]) -> Matrix:
    return [[rows[i][j].conjugate() for i in range(len(rows))]
            for j in range(len(rows[0]))]


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    return [[sum((x * y for x, y in zip(row, col)), start=row[0] - row[0])
             for col in zip(*b)] for row in a]


def matvec(a: Sequence[Sequence], v: Sequence) -> list:
    return [sum((x * y for x, y in zip(row, v)), start=row[0] - row[0]) for row in a]


def min_norm_solution(rows: Sequence[Sequence], rhs: Sequence):
    """Minimum-norm solution of a consistent complex system, or None.

    The unique solution lying in the row space: x = M^H z with (M M^H) z = v.
    Scalars must provide ``conjugate`` (use QI, not bare Fraction).
    """
    if not rows:
        return []
    aug_rank = rank([list(r) + [v] for r, v in zip(rows, rhs)])
    if aug_rank != rank(rows):
        return None
    return row_space_solution(rows, rhs)


def row_space_solution(rows: Sequence[Sequence], rhs: Sequence):
    """x = M^H z with (M M^H) z = v, or None: the minimum-norm solution of a
    system the caller already knows to be consistent."""
    mh = conj_transpose(rows)
    z = solve(matmul(rows, mh), rhs)
    if z is None:
        return None
    return matvec(mh, z)


def symmetric_signature(sym: Sequence[Sequence[Fraction]]) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a rational symmetric matrix."""
    n = len(sym)
    m = [[Fraction(x) for x in row] for row in sym]
    active = list(range(n))
    pos = neg = 0
    while active:
        k = next((i for i in active if m[i][i] != 0), None)
        if k is None:
            # all active diagonal entries vanish; look for an off-diagonal hook
            hook = None
            for i in active:
                for j in active:
                    if i < j and m[i][j] != 0:
                        hook = (i, j)
                        break
                if hook:
                    break
            if hook is None:
                break
            i, j = hook
            # congruence e_i -> e_i + e_j produces a nonzero diagonal entry
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            continue
        d = m[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        active.remove(k)
        for i in active:
            if m[i][k] != 0:
                f = m[i][k] / d
                for j in range(n):
                    m[i][j] -= f * m[k][j]
                for j in range(n):
                    m[j][i] -= f * m[j][k]
    zero = n - pos - neg
    return pos, neg, zero


# -- floating-point counterparts -------------------------------------------


def float_rank(m: np.ndarray, rel_tol: float) -> int:
    import numpy as np

    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def float_lstsq(m: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum-norm least-squares solution and the residual 2-norm."""
    import numpy as np

    if m.size == 0:
        return np.zeros(0, dtype=complex), float(np.linalg.norm(v))
    x, *_ = np.linalg.lstsq(m, v, rcond=None)
    residual = float(np.linalg.norm(m @ x - v))
    return x, residual
