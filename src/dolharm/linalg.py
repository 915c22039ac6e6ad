"""Linear algebra over exact scalars, plus the floating-point counterparts.

The exact routines are generic Gaussian elimination working on any scalar
supporting field operations and truthiness (``QI``, ``Fraction``,
``RootExt``).  Pivots are chosen by floating magnitude purely as a heuristic;
the arithmetic itself never leaves the exact ring.  One rref of [M|v] gives
rank M, rank [M|v] and, by ``min_norm_from_rref``, the minimum-norm solution.

The floating helpers wrap numpy.  ``float_rank`` implements the documented
tolerance policy, on one matrix or on a stack of them: singular values not
above ``rel_tol`` times the largest are treated as zero.  They import numpy
when called, so exact-only use never loads it.
"""
from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Sequence

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


def _null_basis(red: Matrix, pivots: list[int], ncols: int, zero, one) -> list[list]:
    """Null space basis read off reduced rows with ``ncols`` columns: one
    vector per free column c, with 1 at c and minus column c at the pivots."""
    basis = []
    for c in range(ncols):
        if c not in pivots:
            vec = [zero] * ncols
            vec[c] = one
            for i, p in enumerate(pivots):
                vec[p] = -red[i][c]
            basis.append(vec)
    return basis


# no caller in the package; bench/tracer.py patches it by name
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
    sample = rows[0][0] if rows else Fraction(0)
    return _null_basis(red, pivots, ncols, sample - sample, sample - sample + 1)


def _hdot(a: Sequence, b: Sequence):
    """Hermitian inner product, the sum of conj(a_k) b_k."""
    return sum((x.conjugate() * y for x, y in zip(a, b)), start=a[0] - a[0])


def min_norm_from_rref(red: Matrix, pivots: list[int], ncols: int) -> list:
    """Minimum-norm solution of a consistent M x = v from the rref of [M|v].

    The null space of [M|v] is spanned by ker M (last entry 0) and, last,
    (-x, 1) for the basic solution x.  Hermitian Gram-Schmidt in that order
    leaves (-x', 1) with x' orthogonal to ker M: the solution of least norm.
    Scalars must provide ``conjugate`` (use QI, not bare Fraction).
    """
    zero = red[0][0] - red[0][0]
    done = []
    for vec in _null_basis(red, pivots, ncols + 1, zero, zero + 1):
        for q, qq in done:
            f = _hdot(q, vec) / qq
            vec = [b - f * a for a, b in zip(q, vec)]
        done.append((vec, _hdot(vec, vec)))
    return [-c for c in vec[:ncols]]


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


# no caller in the package; bench/tracer.py patches it by name
def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> Matrix:
    return [[sum((x * y for x, y in zip(row, col)), start=row[0] - row[0])
             for col in zip(*b)] for row in a]


# no caller in the package; bench/tracer.py patches it by name
def matvec(a: Sequence[Sequence], v: Sequence) -> list:
    return [sum((x * y for x, y in zip(row, v)), start=row[0] - row[0]) for row in a]


# no caller in the package; bench/tracer.py patches it by name
def min_norm_solution(rows: Sequence[Sequence], rhs: Sequence):
    """Minimum-norm solution of a complex system, or None if it is inconsistent."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref([list(r) + [v] for r, v in zip(rows, rhs)])
    return None if ncols in pivots else min_norm_from_rref(red, pivots, ncols)


def congruence_diagonal(sym: Sequence[Sequence[Fraction]]
                        ) -> Iterator[tuple[Fraction, list]]:
    """Diagonalize a rational symmetric matrix S by congruence, P S P^T = diag(d).

    Yields the pairs (d_i, P_i): the pivots in elimination order, then the
    zero block, so that Q(P_i) = P_i S P_i^T = d_i and P (rational, held as
    int and Fraction entries) is invertible.  A pivot
    is the first nonzero active diagonal entry; when all of them vanish, the
    first off-diagonal hook (i < j) turns e_i into e_i + e_j.  Each pair is
    yielded before the elimination goes on, so a caller that needs only the
    first suitable pivot stops the work there.
    """
    n = len(sym)
    m = [[Fraction(x) for x in row] for row in sym]
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    active = list(range(n))
    while active:
        k = next((i for i in active if m[i][i] != 0), None)
        if k is None:
            hook = next(((i, j) for i in active for j in active
                         if i < j and m[i][j] != 0), None)
            if hook is None:
                break
            i, j = hook
            # congruence e_i -> e_i + e_j produces a nonzero diagonal entry
            for c in range(n):
                m[i][c] += m[j][c]
            for r in range(n):
                m[r][i] += m[r][j]
            p[i] = [a + b for a, b in zip(p[i], p[j])]
            continue
        d = m[k][k]
        yield d, p[k]
        active.remove(k)
        for i in active:
            if m[i][k] != 0:
                f = m[i][k] / d
                for j in range(n):
                    m[i][j] -= f * m[k][j]
                for j in range(n):
                    m[j][i] -= f * m[j][k]
                p[i] = [a - f * b for a, b in zip(p[i], p[k])]
    for i in active:
        yield Fraction(0), p[i]


def symmetric_signature(sym: Sequence[Sequence[Fraction]]) -> tuple[int, int, int]:
    """(positive, negative, zero) inertia of a rational symmetric matrix."""
    ds = [d for d, _ in congruence_diagonal(sym)]
    pos, neg = sum(d > 0 for d in ds), sum(d < 0 for d in ds)
    return pos, neg, len(ds) - pos - neg


# -- floating-point counterparts -------------------------------------------


def float_rank(m: np.ndarray, rel_tol: float):
    """Rank of a matrix, or the ranks of a stack (..., m, n) of matrices: the
    number of singular values above ``rel_tol`` times the largest one, so 0
    for a zero matrix.  An int for one matrix, an int array for a stack."""
    import numpy as np

    if m.size == 0:
        ranks = np.zeros(m.shape[:-2], dtype=int)
    else:
        s = np.linalg.svd(m, compute_uv=False)
        ranks = np.sum(s > rel_tol * s[..., :1], axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks


def float_lstsq(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution."""
    import numpy as np

    return np.linalg.lstsq(m, v, rcond=None)[0]
