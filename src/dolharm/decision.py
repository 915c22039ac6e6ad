"""Decide whether the Dolbeault-harmonic (1,1) space jumps above b^-.

For an invariant almost Hermitian structure the jump happens exactly when
some invariant anti-self-dual (1,1)-form gamma satisfies i d^c gamma = d
omega, equivalently

    del(omega - gamma) = 0   and   delbar(omega + gamma) = 0.

With gamma = gamma(A, B', C') from :mod:`dolharm.hermitian` this is a
complex-linear system M (A, B', C')^T = v: one equation per basis (2,1)- and
(1,2)-word, rows scaled by 4i.  Its coefficients factor as M = T G(m) and
v = S T omega(m): the 4x4 table T (4i*del and 4i*delbar of the basis
(1,1)-words) depends only on the structure and coframe and is computed once
per pair, G(m) and omega(m) are closed forms in the metric, and S negates
the delbar rows.  ``assemble_system`` evaluates that product;
``decide_h11`` decides it on the exact and/or floating backend, re-verifies
any witness by direct evaluation in the form algebra, and reports
h11 = b^- + delta under an explicit b^- provenance.  The exact backend runs
one elimination of [M|v]: its pivots give rank M and rank [M|v], and with
rank M = 3 its last column is the witness; only a rank-deficient M takes the
minimum-norm route x = M^H z, (M M^H) z = v.  The float backend is a numpy
evaluation of the same system: it scales M to unit columns and v to unit
norm, which makes it blind to the metric's scale, decides delta from the two
SVD ranks, and re-verifies the exact rational value of its least-squares
witness with the same exact ``verify_witness``; that exact residual is what
it reports.

The same module decides the two feasibility questions that need no metric,
each by one congruence diagonalization of a rational quadratic form
(``linalg.congruence_diagonal``).  ``almost_kahler_feasible`` treats
delbar(omega) = 0 as a real-linear system in (r^2, s^2, Re u, Im u) and
diagonalizes r^2 s^2 - |u|^2 on its kernel: a positive pivot gives a
re-verified witness, and otherwise the inertia is the certificate.
``symplectic_feasible`` diagonalizes the square's top coefficient on the
closed invariant 2-forms, and a nonzero pivot gives its witness.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

from .bidegree import AlmostComplexCoframe, calculus_for
from .catalog import CatalogEntry
from .cohomology import TOP_WORD, ce_cohomology, closed_form_basis
from .errors import (BackendDisagreementError, DolharmError,
                     InternalInvariantError)
from .exterior import InvariantForm, Word
from .hermitian import (ASDCoefficients, MetricParams, asd_form_scaled,
                        fundamental_form, hodge_star)
from .lie import LieStructure, validate_d_squared
from .linalg import (congruence_diagonal, float_lstsq, float_rank, kernel,
                     row_space_solution, rref)
from .scalars import QI, QI_I, to_complex

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TOLERANCE = 1e-9

W11 = ((1, 3), (1, 4), (2, 3), (2, 4))  # 1 1bar, 1 2bar, 2 1bar, 2 2bar
W21 = ((1, 2, 3), (1, 2, 4))            # basis (2,1) 3-forms
W12 = ((1, 3, 4), (2, 3, 4))            # basis (1,2) 3-forms


def _require_valid_structure(lie: LieStructure) -> None:
    verdict = validate_d_squared(lie)
    if not verdict.ok:
        bad = ", ".join(f"d^2 e^{i} = {residual}" for i, residual in verdict.failures)
        raise DolharmError(f"structure constants fail d^2 = 0: {bad}")


@lru_cache(maxsize=128)
def _structure_tables(lie: LieStructure, coframe: AlmostComplexCoframe
                      ) -> tuple[tuple[QI, ...], ...]:
    """The 4x4 table T: rows 4i*del on W21 then 4i*delbar on W12, columns W11.

    d of a (1,1)-word has only (2,1)- and (1,2)-components in dimension 4, so
    its W21 coefficients are del and its W12 coefficients delbar.
    """
    calc = calculus_for(lie, coframe)
    four_i = QI(0, 4)
    ds = [calc.d_basis_word(w) for w in W11]
    return tuple(tuple(four_i * d.get(word) for d in ds) for word in W21 + W12)


@dataclass(frozen=True)
class SystemRow:
    operator: str                 # "del" or "delbar"
    word: Word                    # the basis 3-form the row reads off
    coeffs: tuple[QI, QI, QI]     # of the unknowns (A, B', C')
    rhs: QI


@dataclass(frozen=True)
class HarmonicSystem:
    """The linear system M (A,B',C')^T = v; rows carry their provenance."""

    rows: tuple[SystemRow, ...]
    metric: MetricParams

    def matrix(self) -> list[list[QI]]:
        return [list(r.coeffs) for r in self.rows]

    def rhs(self) -> list[QI]:
        return [r.rhs for r in self.rows]

    def to_numpy(self) -> tuple[np.ndarray, np.ndarray]:
        import numpy as np

        mat = np.array([[to_complex(c) for c in row.coeffs] for row in self.rows],
                       dtype=complex)
        vec = np.array([to_complex(r.rhs) for r in self.rows], dtype=complex)
        return mat, vec


def assemble_system(lie: LieStructure, coframe: AlmostComplexCoframe,
                    m: MetricParams) -> HarmonicSystem:
    """Rows of 4i*del(omega - gamma) = 0 and 4i*delbar(omega + gamma) = 0.

    M = T G(m) and v = S T omega(m).  T is the cached structure table; the
    columns of G(m) hold the W11 coefficients of gamma(1,0,0), gamma(0,1,0)
    and gamma(0,0,1), and omega(m) those of omega (the closed forms in
    :mod:`dolharm.hermitian`).  The del rows read 4i*del(gamma) =
    4i*del(omega); S negates the delbar rows, 4i*delbar(gamma) = -4i*delbar(omega).
    """
    _require_valid_structure(lie)
    i, u, ub, inv_r2 = QI(0, 1), m.u, m.u.conjugate(), QI(1 / m.r2)
    gamma = ((QI(m.r2), QI(0), QI(0)),
             (-(i * u), QI(1), QI(0)),
             (i * ub, QI(0), QI(1)),
             (QI((2 * u.abs2() - m.r2 * m.s2) / m.r2), i * ub * inv_r2, -(i * u) * inv_r2))
    omega = (QI(0, m.r2), u, -ub, QI(0, m.s2))
    rows = []
    labels = [("del", w) for w in W21] + [("delbar", w) for w in W12]
    for t, (op, word) in zip(_structure_tables(lie, coframe), labels):
        coeffs = tuple(sum((t[j] * gamma[j][c] for j in range(4) if t[j] and gamma[j][c]),
                           start=QI(0)) for c in range(3))
        rhs = sum((t[j] * omega[j] for j in range(4) if t[j]), start=QI(0))
        rows.append(SystemRow(op, word, coeffs, rhs if op == "del" else -rhs))
    return HarmonicSystem(tuple(rows), m)


@dataclass(frozen=True)
class DecisionReport:
    delta: int
    h11: int
    b_minus_used: int
    b_minus_provenance: str       # "ce_computed" | "paper_reference" | "override"
    b_minus_ce: int
    b_minus_reference: Optional[int]
    witness: Optional[ASDCoefficients]
    witness_scaled: Optional[tuple[QI, QI, QI]]
    residual_dc: float            # max |coeff| of i d^c gamma - d omega
    residual_star: float          # max |coeff| of star gamma + gamma
    rank_m: int
    rank_aug: int
    backend: str
    tolerance: float

    @property
    def b_minus_discrepancy(self) -> bool:
        return (self.b_minus_reference is not None
                and self.b_minus_reference != self.b_minus_ce)


def verify_witness(lie: LieStructure, coframe: AlmostComplexCoframe,
                   m: MetricParams, scaled) -> tuple[InvariantForm, InvariantForm]:
    """Residual forms (i d^c gamma - d omega, star gamma + gamma) for an exact
    witness (A, B', C'), computed in the form algebra."""
    calc = calculus_for(lie, coframe)
    a, bp, cp = scaled
    gamma = asd_form_scaled(m, a, bp, cp)
    omega = fundamental_form(m)
    res_dc = calc.dc(gamma).scaled(QI_I) - calc.d(omega)
    res_star = hodge_star(gamma, m) + gamma
    return res_dc, res_star


def _resolve_b_minus(policy, entry: Optional[CatalogEntry], lie: LieStructure
                     ) -> tuple[int, str, int, Optional[int]]:
    ce = ce_cohomology(lie).b_minus
    ref = entry.reference_b_minus if entry is not None else None
    if policy in (None, "auto"):
        policy = entry.default_b_minus_policy if entry is not None else "ce_computed"
    if isinstance(policy, int) and not isinstance(policy, bool):
        if policy < 0:
            raise DolharmError(f"b^- override must be nonnegative, got {policy}")
        return policy, "override", ce, ref
    if policy in ("ce", "ce_computed"):
        return ce, "ce_computed", ce, ref
    if policy in ("paper", "paper_reference", "reference"):
        if ref is None:
            raise DolharmError(
                "reference b^- requested but the problem has no catalog entry")
        return ref, "paper_reference", ce, ref
    raise DolharmError(f"invalid b^- policy {policy!r}")


def _decide_exact(system: HarmonicSystem, lie, coframe, tolerance) -> dict:
    mat, vec = system.matrix(), system.rhs()
    n = len(mat[0])
    red, pivots = rref([row + [v] for row, v in zip(mat, vec)])
    rank_aug = len(pivots)
    rank_m = rank_aug - (n in pivots)
    out = {"rank_m": rank_m, "rank_aug": rank_aug, "delta": int(rank_m == rank_aug)}
    if out["delta"]:
        # full column rank: the reduced last column is the unique solution
        x = ([red[k][n] for k in range(n)] if rank_m == n
             else row_space_solution(mat, vec))
        if x is None:
            raise InternalInvariantError(
                "rank test and solver disagree on the exact backend")
        res_dc, res_star = verify_witness(lie, coframe, system.metric, x)
        if not (res_dc.is_zero and res_star.is_zero):
            raise InternalInvariantError(
                "exact witness failed re-verification: "
                f"i d^c gamma - d omega = {res_dc}, star gamma + gamma = {res_star}")
        out.update(witness_scaled=tuple(x), residual_dc=0.0, residual_star=0.0)
    else:
        out.update(witness_scaled=None, residual_dc=0.0, residual_star=0.0)
    return out


def _decide_float(system: HarmonicSystem, lie, coframe, tolerance) -> dict:
    try:
        import numpy as np
    except ImportError:
        raise DolharmError("the float backend (--backend float or both) needs numpy, "
                           "which is not installed; use --backend exact") from None

    mat, vec = system.to_numpy()
    # r -> lam r, s -> lam s, u -> lam^2 u scales each column of M and v
    # uniformly, so on unit columns and a unit v the ranks do not see the scale
    col = np.linalg.norm(mat, axis=0)
    col[col == 0] = 1.0
    scale = float(np.linalg.norm(vec)) or 1.0
    mat, vec = mat / col, vec / scale
    rank_m = float_rank(mat, tolerance)
    rank_aug = float_rank(np.column_stack([mat, vec]), tolerance)
    out = {"rank_m": rank_m, "rank_aug": rank_aug, "delta": int(rank_m == rank_aug)}
    if out["delta"]:
        y, _ = float_lstsq(mat, vec)
        x = tuple(complex(v) for v in y * scale / col)
        # each double is an exact rational: re-verify that value exactly
        exact = tuple(QI(Fraction(v.real), Fraction(v.imag)) for v in x)
        res_dc, res_star = verify_witness(lie, coframe, system.metric, exact)
        out.update(witness_scaled=x,
                   residual_dc=res_dc.max_abs(), residual_star=res_star.max_abs())
    else:
        out.update(witness_scaled=None, residual_dc=0.0, residual_star=0.0)
    return out


def _witness_from_scaled(m: MetricParams, scaled) -> ASDCoefficients:
    tau = m.tau
    a, bp, cp = (to_complex(v) for v in scaled)
    return ASDCoefficients(A=a, B=bp / tau, C=cp / tau)


def decide_h11(lie: LieStructure, coframe: AlmostComplexCoframe, m: MetricParams,
               *, backend: str = "both", b_minus="auto",
               entry: Optional[CatalogEntry] = None,
               tolerance: float = DEFAULT_TOLERANCE) -> DecisionReport:
    """delta in {0,1} and h11 = b^- + delta for one metric.

    The system comes from :func:`assemble_system`.  The exact backend decides
    delta = [rank M == rank [M|v]] from a single elimination of [M|v] and
    reads the witness off it (minimum-norm solve only when rank M < 3).  The
    float backend scales M to unit columns and v to unit norm, decides
    delta = [rank M == rank [M|v]] from the two SVD ranks of that system, and
    takes its witness from least squares.  Both re-verify their witness
    exactly in the form algebra (the float one at the exact rational value
    of its doubles), and a failed exact re-check raises
    :class:`InternalInvariantError`.

    ``backend`` is "exact", "float" or "both"; "both" runs the two and raises
    :class:`BackendDisagreementError` when their verdicts differ.  ``b_minus``
    selects the provenance of b^-: "auto" (per-entry default), "ce", "paper",
    or a nonnegative integer override.
    """
    if backend not in ("exact", "float", "both"):
        raise DolharmError(f"invalid backend {backend!r}")
    # outside (0, 1), or nan, the float ranks no longer depend on the system
    if not 0 < tolerance < 1:
        raise DolharmError(f"tolerance must lie in (0, 1), got {tolerance}")
    _require_valid_structure(lie)
    b_used, provenance, b_ce, b_ref = _resolve_b_minus(b_minus, entry, lie)
    system = assemble_system(lie, coframe, m)

    def build(data, tag) -> DecisionReport:
        scaled = data["witness_scaled"]
        return DecisionReport(
            delta=data["delta"],
            h11=b_used + data["delta"],
            b_minus_used=b_used,
            b_minus_provenance=provenance,
            b_minus_ce=b_ce,
            b_minus_reference=b_ref,
            witness=_witness_from_scaled(m, scaled) if scaled else None,
            witness_scaled=scaled,
            residual_dc=data["residual_dc"],
            residual_star=data["residual_star"],
            rank_m=data["rank_m"],
            rank_aug=data["rank_aug"],
            backend=tag,
            tolerance=tolerance,
        )

    if backend == "exact":
        return build(_decide_exact(system, lie, coframe, tolerance), "exact")
    if backend == "float":
        return build(_decide_float(system, lie, coframe, tolerance), "float")
    exact_rep = build(_decide_exact(system, lie, coframe, tolerance), "exact")
    float_rep = build(_decide_float(system, lie, coframe, tolerance), "float")
    if exact_rep.delta != float_rep.delta:
        raise BackendDisagreementError(exact_rep, float_rep)
    return DecisionReport(
        delta=exact_rep.delta, h11=exact_rep.h11,
        b_minus_used=b_used, b_minus_provenance=provenance,
        b_minus_ce=b_ce, b_minus_reference=b_ref,
        witness=exact_rep.witness, witness_scaled=exact_rep.witness_scaled,
        residual_dc=max(exact_rep.residual_dc, float_rep.residual_dc),
        residual_star=max(exact_rep.residual_star, float_rep.residual_star),
        rank_m=exact_rep.rank_m, rank_aug=exact_rep.rank_aug,
        backend="both", tolerance=tolerance)


# -- almost Kahler feasibility -------------------------------------------------


@dataclass(frozen=True)
class AKVerdict:
    status: str                       # "feasible" | "infeasible"
    witness: Optional[MetricParams]
    certificate: Optional[str]
    # bench/tracer.py still reads this from every verdict; the decision
    # draws no samples
    samples_used = 0


def _ak_kernel(lie: LieStructure, coframe: AlmostComplexCoframe) -> list[list[Fraction]]:
    """Kernel of delbar(omega) = 0 as a subspace of x = (r^2, s^2, Re u, Im u).

    The delbar coefficients are the delbar rows of the structure table T.
    """
    four_i, i = QI(0, 4), QI(0, 1)
    rows: list[list[Fraction]] = []
    for t_row in _structure_tables(lie, coframe)[len(W21):]:
        t = {w: c / four_i for w, c in zip(W11, t_row)}
        cols = [i * t[(1, 3)],
                i * t[(2, 4)],
                t[(1, 4)] - t[(2, 3)],
                i * (t[(1, 4)] + t[(2, 3)])]
        rows.append([c.re for c in cols])
        rows.append([c.im for c in cols])
    return kernel(rows, 4)


def _positivity_ok(x: Sequence[Fraction]) -> bool:
    return x[0] > 0 and x[1] > 0 and x[0] * x[1] > x[2] * x[2] + x[3] * x[3]


def almost_kahler_feasible(lie: LieStructure, coframe: AlmostComplexCoframe
                           ) -> AKVerdict:
    """Is there an invariant metric with d omega = 0 compatible with the coframe?

    In x = (r^2, s^2, Re u, Im u) the compatible metrics are the half r^2 > 0
    of the cone Q(x) = r^2 s^2 - |u|^2 > 0, and the closed ones form the
    subspace L of :func:`_ak_kernel`.  Since L = -L, a compatible closed metric
    exists exactly when Q takes a positive value on L, that is when Q's Gram
    matrix on a basis of L has a positive pivot.  The vector of the first one,
    signed so that r^2 > 0, is the witness and is re-verified; with no positive
    pivot the inertia of Q on L is the ``infeasible`` certificate.
    """
    _require_valid_structure(lie)
    basis = _ak_kernel(lie, coframe)
    gram = [[(x[0] * y[1] + x[1] * y[0]) / 2 - x[2] * y[2] - x[3] * y[3]
             for y in basis] for x in basis]
    pivots = list(congruence_diagonal(gram))
    coeffs = next((p for d, p in pivots if d > 0), None)
    if coeffs is None:
        neg = sum(d < 0 for d, _ in pivots)
        return AKVerdict(
            "infeasible", None,
            "r^2 s^2 - |u|^2 on the closed metrics has inertia (positive, "
            f"negative, zero) = (0, {neg}, {len(pivots) - neg}), so it is never "
            "positive there")
    x = [sum(c * vec[k] for c, vec in zip(coeffs, basis)) for k in range(4)]
    if x[0] < 0:
        x = [-v for v in x]
    m = MetricParams.from_squares(x[0], x[1], QI(x[2], x[3]))
    if not (_positivity_ok(x)
            and calculus_for(lie, coframe).d(fundamental_form(m)).is_zero):
        raise InternalInvariantError("almost Kahler witness failed re-verification")
    return AKVerdict("feasible", m, None)


# -- symplectic feasibility ----------------------------------------------------


@dataclass(frozen=True)
class SymplecticVerdict:
    status: str                      # "feasible" | "infeasible"
    witness: Optional[InvariantForm]
    note: str


def symplectic_feasible(lie: LieStructure) -> SymplecticVerdict:
    """Is there a closed invariant 2-form with nonzero square?

    The square's top coefficient is a quadratic form on the space of closed
    2-forms.  It vanishes identically exactly when its congruence
    diagonalization has no nonzero pivot; otherwise the first such pivot's
    vector is the witness.
    """
    _require_valid_structure(lie)
    basis = closed_form_basis(lie, 2)

    def top(f: InvariantForm, g: InvariantForm) -> Fraction:
        c = f.wedge(g).coeffs.get(TOP_WORD, QI(0))
        return c.re

    gram = [[top(f, g) for g in basis] for f in basis]
    coeffs = next((p for d, p in congruence_diagonal(gram) if d), None)
    if coeffs is None:
        return SymplecticVerdict(
            "infeasible", None,
            "every closed invariant 2-form has vanishing square")
    witness = sum((f.scaled(QI(c)) for c, f in zip(coeffs, basis) if c),
                  start=InvariantForm.zero(basis[0].frame, 2))
    if not lie.d(witness).is_zero or not witness.wedge(witness).coeffs.get(TOP_WORD):
        raise InternalInvariantError("symplectic witness failed re-verification")
    return SymplecticVerdict("feasible", witness, "witness re-verified")
