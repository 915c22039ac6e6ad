import random
from fractions import Fraction

import numpy as np
import pytest

from dolharm.errors import SingularMatrixError
from dolharm.linalg import (congruence_diagonal, float_lstsq, float_rank,
                            invert_matrix, kernel, matmul, min_norm_solution, rank,
                            rref, solve, symmetric_signature)
from dolharm.scalars import QI


def qm(rows):
    return [[QI(x) if not isinstance(x, QI) else x for x in row] for row in rows]


def test_rref_and_rank():
    m = qm([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert rank(m) == 2
    assert rank(qm([[0, 0], [0, 0]])) == 0


def test_solve_consistent_and_inconsistent():
    m = qm([[1, 1], [1, -1]])
    x = solve(m, [QI(3), QI(1)])
    assert x == [QI(2), QI(1)]
    m2 = qm([[1, 1], [1, 1]])
    assert solve(m2, [QI(0), QI(1)]) is None


def test_kernel_basis():
    m = qm([[1, 1, 0], [0, 0, 1]])
    basis = kernel(m, 3)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == QI(0) and v[2] == QI(0)


def test_invert_matrix_and_singular():
    m = qm([[1, 2], [3, 4]])
    inv = invert_matrix(m)
    assert matmul(m, inv) == qm([[1, 0], [0, 1]])
    with pytest.raises(SingularMatrixError):
        invert_matrix(qm([[1, 2], [2, 4]]))


def test_min_norm_solution_complex():
    # x1 + i x2 = 2 has min-norm solution x = (1, -i): conjugate direction
    m = [[QI(1), QI(0, 1)]]
    x = min_norm_solution(m, [QI(2)])
    assert x == [QI(1), QI(0, -1)]
    # a two-dimensional kernel: the projection needs Gram-Schmidt; the answer
    # is conj(a) v / |a|^2 for the single row a
    assert min_norm_solution([[QI(1), QI(0, 1), QI(2)]], [QI(3)]) == [
        QI(Fraction(1, 2)), QI(0, Fraction(-1, 2)), QI(1)]
    # inconsistent system
    m2 = qm([[1, 1], [1, 1]])
    assert min_norm_solution(m2, [QI(0), QI(1)]) is None
    # and the minimum-norm property against a sample of other solutions
    abs2 = sum(v.abs2() for v in x)
    for t in (Fraction(1), Fraction(-1, 2), Fraction(2, 3)):
        other = [x[0] + QI(0, t), x[1] - QI(t)]  # shifted along the kernel
        assert (other[0] + QI(0, 1) * other[1]) == QI(2)
        assert sum(v.abs2() for v in other) >= abs2


@pytest.mark.parametrize("matrix,expected", [
    ([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(-3)]], (1, 1, 0)),
    ([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]], (1, 1, 0)),
    ([[Fraction(0)] * 3] * 3, (0, 0, 3)),
    ([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], (1, 0, 1)),
    ([[Fraction(0), Fraction(1), Fraction(0)],
      [Fraction(1), Fraction(0), Fraction(0)],
      [Fraction(0), Fraction(0), Fraction(5)]], (2, 1, 0)),
])
def test_symmetric_signature(matrix, expected):
    assert symmetric_signature(matrix) == expected


def _random_symmetric(rng, n):
    """Small rational symmetric matrices; a zero diagonal forces the hook step."""
    m = [[Fraction(0)] * n for _ in range(n)]
    zero_diagonal = rng.random() < 0.5
    for i in range(n):
        for j in range(i, n):
            if (i == j and zero_diagonal) or rng.random() < 0.3:
                continue
            m[i][j] = m[j][i] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return m


def test_congruence_basis_diagonalizes():
    """P S P^T = diag(d) exactly, P is invertible, and the nonzero pivots come
    first, in the order the elimination takes them."""
    rng = random.Random(11)
    hooks = singular = 0
    for _ in range(300):
        n = rng.randint(0, 5)
        sym = _random_symmetric(rng, n)
        pairs = list(congruence_diagonal(sym))
        d = [di for di, _ in pairs]
        p = [pi for _, pi in pairs]
        assert len(pairs) == n
        assert matmul(matmul(p, sym), [list(col) for col in zip(*p)]) == [
            [d[i] if i == j else 0 for j in range(n)] for i in range(n)]
        assert rank([[QI(x) for x in row] for row in p]) == n
        nonzero = [bool(di) for di in d]
        assert nonzero == sorted(nonzero, reverse=True)
        pos, neg = sum(di > 0 for di in d), sum(di < 0 for di in d)
        assert symmetric_signature(sym) == (pos, neg, n - pos - neg)
        # a first pivot that is not a unit vector came from the hook e_i -> e_i + e_j
        hooks += bool(p) and sum(x != 0 for x in p[0]) > 1
        singular += 0 < nonzero.count(False) < n
    assert hooks and singular


def test_float_rank_tolerance_policy():
    m = np.array([[1.0, 0.0], [0.0, 1e-12]], dtype=complex)
    assert float_rank(m, 1e-9) == 1
    assert float_rank(m, 1e-15) == 2


def test_float_lstsq_residual():
    m = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    v = np.array([1.0, 1.0], dtype=complex)
    x = float_lstsq(m, v)
    assert abs(np.linalg.norm(m @ x - v) - 1.0) < 1e-12
    assert abs(x[0] - 1.0) < 1e-12 and abs(x[1]) < 1e-12

