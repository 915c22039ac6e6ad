from fractions import Fraction

import numpy as np
import pytest

from dolharm.errors import SingularMatrixError
from dolharm.linalg import (float_lstsq, float_rank, invert_matrix, kernel,
                            matmul, min_norm_solution, rank, row_space_solution,
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
    assert row_space_solution(m, [QI(2)]) == x  # the Gram step without the checks
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


def test_float_rank_tolerance_policy():
    m = np.array([[1.0, 0.0], [0.0, 1e-12]], dtype=complex)
    assert float_rank(m, 1e-9) == 1
    assert float_rank(m, 1e-15) == 2


def test_float_lstsq_residual():
    m = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    x, res = float_lstsq(m, np.array([1.0, 1.0], dtype=complex))
    assert abs(res - 1.0) < 1e-12
    assert abs(x[0] - 1.0) < 1e-12

