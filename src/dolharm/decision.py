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
the delbar rows.  ``assemble_system`` evaluates that product over the
integers: the cached table holds T as Gaussian integers over one common
denominator E, D G(m) and D omega(m) are Gaussian-integer matrices for one
integer D per metric, and so each entry of [M|v] is one integer sum over
E D, reduced once.

``decide_h11`` decides the system on the exact and/or floating backend,
re-verifies any witness by direct evaluation in the form algebra, and
reports h11 = b^- + delta under an explicit b^- provenance.  The exact
backend runs one elimination of [M|v]: its pivots give rank M and
rank [M|v], and the same reduced rows give the witness, the minimum-norm
solution (the basic solution projected off ker M,
``linalg.min_norm_from_rref``).  The float backend is a numpy evaluation of
the same system: it scales M to unit columns and v to unit norm, which
makes it blind to the metric's scale, decides delta from the two SVD ranks,
and re-verifies the exact rational value of its least-squares witness with
the same exact ``verify_witness``.  It reports that exact residual relative
to the size of d omega (and of gamma for the star residual), so the
residuals do not see the scale either.  It refuses a system whose column
norms leave double range; the exact backend decides every size.
``decide_h11`` (on one system) and ``decide_grid`` (on many) share one
verdict engine, ``_verdicts``: the float ranks of all the systems from one
batched SVD pass, then the exact path of each system in turn.

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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence

from .bidegree import AlmostComplexCoframe, calculus_for
from .catalog import CatalogEntry
from .cohomology import TOP_WORD, ce_cohomology, closed_form_basis
from .errors import (BackendDisagreementError, DolharmError,
                     InternalInvariantError)
from .exterior import InvariantForm
from .hermitian import (ASDCoefficients, MetricParams, asd_form_scaled,
                        fundamental_form, hodge_star)
from .lie import LieStructure, validate_d_squared
from .linalg import (congruence_diagonal, float_lstsq, float_rank, kernel,
                     min_norm_from_rref, rref)
from .scalars import QI, QI_I, _reduced, to_complex

DEFAULT_TOLERANCE = 1e-9

W11 = ((1, 3), (1, 4), (2, 3), (2, 4))  # 1 1bar, 1 2bar, 2 1bar, 2 2bar
W21 = ((1, 2, 3), (1, 2, 4))            # basis (2,1) 3-forms
W12 = ((1, 3, 4), (2, 3, 4))            # basis (1,2) 3-forms


def _require_valid_structure(lie: LieStructure) -> None:
    verdict = validate_d_squared(lie)
    if not verdict.ok:
        bad = ", ".join(f"d^2 e^{i} = {residual}" for i, residual in verdict.failures)
        raise DolharmError(f"structure constants fail d^2 = 0: {bad}")


class StructureTable(NamedTuple):
    """T, and T over one common denominator: ``rows`` = ``ints`` / ``den``."""

    rows: tuple[tuple[QI, ...], ...]
    den: int
    ints: tuple[tuple[tuple[int, int], ...], ...]   # (re, im) of den * T


@lru_cache(maxsize=128)
def _structure_tables(lie: LieStructure, coframe: AlmostComplexCoframe
                      ) -> StructureTable:
    """The 4x4 table T: rows 4i*del on W21 then 4i*delbar on W12, columns W11.

    d of a (1,1)-word has only (2,1)- and (1,2)-components in dimension 4, so
    its W21 coefficients are del and its W12 coefficients delbar.  The table
    comes as QI entries and as Gaussian integers over one denominator.
    """
    calc = calculus_for(lie, coframe)
    four_i = QI(0, 4)
    ds = [calc.d_basis_word(w) for w in W11]
    rows = tuple(tuple(four_i * d.get(word) for d in ds) for word in W21 + W12)
    # a QI is held as the integer triple (n, m, d) of (n + m i)/d
    den = math.lcm(*(t._t[2] for row in rows for t in row))
    ints = tuple(tuple((n * (den // d), m * (den // d)) for n, m, d in (t._t for t in row))
                 for row in rows)
    return StructureTable(rows, den, ints)


@dataclass(frozen=True)
class HarmonicSystem:
    """The linear system M (A,B',C')^T = v: rows 4i*del on W21, then 4i*delbar
    on W12; columns the unknowns (A, B', C')."""

    matrix: tuple[tuple[QI, QI, QI], ...]
    rhs: tuple[QI, ...]
    metric: MetricParams


def assemble_system(lie: LieStructure, coframe: AlmostComplexCoframe,
                    m: MetricParams) -> HarmonicSystem:
    """Rows of 4i*del(omega - gamma) = 0 and 4i*delbar(omega + gamma) = 0.

    M = T G(m) and v = S T omega(m).  T is the cached structure table; the
    columns of G(m) hold the W11 coefficients of gamma(1,0,0), gamma(0,1,0)
    and gamma(0,0,1), and omega(m) those of omega (the closed forms in
    :mod:`dolharm.hermitian`).  The del rows read 4i*del(gamma) =
    4i*del(omega); S negates the delbar rows, 4i*delbar(gamma) = -4i*delbar(omega).

    The product is one evaluation over the integers.  Write r^2 = a/b,
    s^2 = c/e and u = U/d with U a Gaussian integer.  The entries of G(m)
    and omega(m) are r^2, s^2, 1, u, conj(u), u/r^2, conj(u)/r^2 and
    |u|^2/r^2 times units, so D G(m) and D omega(m) are Gaussian-integer
    matrices for D = a b e d^2.  The cached table holds T as Gaussian
    integers over one denominator E, so each entry of [M|v] is an integer
    sum over E D, reduced once by one gcd.
    """
    _require_valid_structure(lie)
    table = _structure_tables(lie, coframe)
    a, b = m.r2.numerator, m.r2.denominator
    c, e = m.s2.numerator, m.s2.denominator
    un, um, d = m.u._t                  # u = U/d with U = un + um i
    p, q = a * b * e * d, b * b * e * d     # D u = p U and D u / r^2 = q U
    dn = p * d                              # D
    r2d, s2d = a * a * e * d * d, a * b * c * d * d   # D r^2, D s^2
    g30 = 2 * b * b * e * (un * un + um * um) - s2d   # D (2|u|^2 / r^2 - s^2)
    wr, wi = um, -un                    # W = -i U, so i conj(U) = conj(W)
    den = table.den * dn                # E D
    matrix, rhs = [], []
    for k, ((x0, y0), (x1, y1), (x2, y2), (x3, y3)) in enumerate(table.ints):
        # row k of E T is (x_j + y_j i); G(m) has rows (r^2, 0, 0),
        # (-i u, 1, 0), (i conj u, 0, 1), (2|u|^2/r^2 - s^2, i conj u/r^2, -i u/r^2)
        sr = (x1 + x2) * wr - (y1 - y2) * wi        # t1 W + t2 conj(W)
        si = (x1 - x2) * wi + (y1 + y2) * wr
        re0, im0 = x0 * r2d + p * sr, y0 * r2d + p * si
        matrix.append((_reduced(re0 + g30 * x3, im0 + g30 * y3, den),
                       _reduced(x1 * dn + q * (x3 * wr + y3 * wi),
                                y1 * dn + q * (y3 * wr - x3 * wi), den),
                       _reduced(x2 * dn + q * (x3 * wr - y3 * wi),
                                y2 * dn + q * (x3 * wi + y3 * wr), den)))
        # D omega = (i D r^2, p U, -p conj U, i D s^2) = i (D r^2, p W, p conj W, D s^2)
        vr, vi = -(im0 + y3 * s2d), re0 + x3 * s2d
        rhs.append(_reduced(vr, vi, den) if k < len(W21) else _reduced(-vr, -vi, den))
    return HarmonicSystem(tuple(matrix), tuple(rhs), m)


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
    residual_dc: float            # max |coeff| of i d^c gamma - d omega over that of d omega
    residual_star: float          # max |coeff| of star gamma + gamma over that of gamma
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
    gamma = asd_form_scaled(m, *scaled)
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


def _prologue(lie: LieStructure, backend: str, b_minus, entry: Optional[CatalogEntry],
              tolerance: float) -> tuple[int, str, int, Optional[int]]:
    """Check the options and the structure; the resolved b^- as
    (used, provenance, CE value, reference value)."""
    if backend not in ("exact", "float", "both"):
        raise DolharmError(f"invalid backend {backend!r}")
    # outside (0, 1), or nan, the float ranks no longer depend on the system
    if not 0 < tolerance < 1:
        raise DolharmError(f"tolerance must lie in (0, 1), got {tolerance}")
    _require_valid_structure(lie)
    return _resolve_b_minus(b_minus, entry, lie)


def _report(b_info: tuple, m: MetricParams, tolerance: float, tag: str,
            rank_m: int, rank_aug: int, scaled, residual_dc: float = 0.0,
            residual_star: float = 0.0) -> DecisionReport:
    b_used, provenance, b_ce, b_ref = b_info
    delta = int(rank_m == rank_aug)
    return DecisionReport(
        delta=delta,
        h11=b_used + delta,
        b_minus_used=b_used,
        b_minus_provenance=provenance,
        b_minus_ce=b_ce,
        b_minus_reference=b_ref,
        witness=_witness_from_scaled(m, scaled) if scaled else None,
        witness_scaled=scaled,
        residual_dc=residual_dc,
        residual_star=residual_star,
        rank_m=rank_m,
        rank_aug=rank_aug,
        backend=tag,
        tolerance=tolerance,
    )


def _decide_exact(system: HarmonicSystem, lie, coframe) -> tuple:
    """(rank M, rank [M|v], witness or None) from one rref of [M|v]; the
    witness is the minimum-norm solution, re-verified exactly."""
    n = len(system.matrix[0])
    red, pivots = rref([[*row, v] for row, v in zip(system.matrix, system.rhs)])
    rank_aug = len(pivots)
    rank_m = rank_aug - (n in pivots)
    if rank_m < rank_aug:
        return rank_m, rank_aug, None
    x = tuple(min_norm_from_rref(red, pivots, n))
    res_dc, res_star = verify_witness(lie, coframe, system.metric, x)
    if not (res_dc.is_zero and res_star.is_zero):
        raise InternalInvariantError(
            "exact witness failed re-verification: "
            f"i d^c gamma - d omega = {res_dc}, star gamma + gamma = {res_star}")
    return rank_m, rank_aug, x


def _float_systems(systems: Sequence[HarmonicSystem]):
    """M and v of each system as complex stacks of shapes (k, 4, 3) and (k, 4).

    A system is refused when the norm of a column of M or of v, by which
    :func:`_unit_scaled` divides, is infinite in doubles, or zero though the
    column is not: its float copy would be another system.
    """
    try:
        import numpy as np
    except ImportError:
        raise DolharmError("the float backend (--backend float or both) needs numpy, "
                           "which is not installed; use --backend exact") from None
    mat = np.array([[[to_complex(c) for c in row] for row in s.matrix] for s in systems],
                   dtype=complex)
    vec = np.array([[to_complex(c) for c in s.rhs] for s in systems], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):    # read off below
        norms = np.concatenate([np.linalg.norm(mat, axis=-2),
                                np.linalg.norm(vec, axis=-1)[:, None]], axis=-1)
    nonzero = [[any(col) for col in (*zip(*s.matrix), s.rhs)] for s in systems]
    held = (np.isfinite(norms) & ((norms > 0) == nonzero)).all(axis=-1)
    if not held.all():
        m = systems[int(np.argmin(held))].metric
        raise DolharmError(f"the float backend cannot hold the system at {m.describe()} "
                           "in double precision; use --backend exact")
    return mat, vec


def _unit_scaled(mat, vec):
    """M and [M|v] of each system of a stack, with the columns of M and v
    scaled to unit norm, and those norms, (k, 3) and (k,); a zero norm is
    taken as 1.

    r -> lam r, s -> lam s, u -> lam^2 u scales each column of M and v
    uniformly, so on unit columns and a unit v the ranks do not see the scale.
    """
    import numpy as np

    col = np.linalg.norm(mat, axis=-2)
    col[col == 0] = 1.0
    # the sums numpy.linalg.norm forms for one complex vector, so that every
    # system of a stack is scaled exactly as it is on its own
    re, im = vec.real[..., None, :], vec.imag[..., None, :]
    scale = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]
    scale[scale == 0] = 1.0
    mat = mat / col[..., None, :]
    return mat, np.concatenate([mat, (vec / scale[..., None])[..., None]], axis=-1), col, scale


def _verdicts(systems: Sequence[HarmonicSystem], lie, coframe, backend: str,
              tolerance: float, b_info: tuple) -> tuple[list, list, Optional[tuple]]:
    """(rank M, rank [M|v], exact witness or None) for each system, the float
    (rank M, rank [M|v]) of each (None when no float rank is taken) and the
    float stacks (raw v, then M, [M|v] and the norms of ``_unit_scaled``).

    The float ranks of all the systems come from one SVD of the stacked M's
    and one of the stacked [M|v]'s, and are the verdicts under "float".
    Otherwise each system in turn runs :func:`_decide_exact`, and under
    "both" the first whose float verdict differs raises
    :class:`BackendDisagreementError`.
    """
    float_ranks, stacks = [None] * len(systems), None
    if backend != "exact" and systems:
        mat, vec = _float_systems(systems)
        stacks = (vec, *_unit_scaled(mat, vec))
        float_ranks = list(zip(float_rank(stacks[1], tolerance).tolist(),
                               float_rank(stacks[2], tolerance).tolist()))
        if backend == "float":
            return [(*ranks, None) for ranks in float_ranks], float_ranks, stacks
    verdicts = []
    for system, ranks in zip(systems, float_ranks):
        exact = _decide_exact(system, lie, coframe)
        if ranks is not None and (exact[0] == exact[1]) != (ranks[0] == ranks[1]):
            raise BackendDisagreementError(
                _report(b_info, system.metric, tolerance, "exact", *exact),
                _report(b_info, system.metric, tolerance, "float", *ranks, None))
        verdicts.append(exact)
    return verdicts, float_ranks, stacks


def _float_witness(system: HarmonicSystem, lie, coframe, stacks) -> tuple:
    """(witness, residual_dc, residual_star): least squares on the float
    stacks of this one system, re-verified at its exact rational value."""
    import numpy as np

    vec, mat, aug, col, scale = stacks
    # d of a (1,1)-form has only W21 and W12 parts, and v holds them times 4i
    d_omega_max = float(np.max(np.abs(vec))) / 4
    x = tuple(complex(v) for v in float_lstsq(mat[0], aug[0, :, -1]) * scale[0] / col[0])
    # each double is an exact rational: re-verify that value exactly
    exact = tuple(QI(Fraction(v.real), Fraction(v.imag)) for v in x)
    res_dc, res_star = verify_witness(lie, coframe, system.metric, exact)
    gamma_max = asd_form_scaled(system.metric, *exact).max_abs()
    # relative to the size of d omega and of gamma, so the metric's scale
    # does not show; a zero size keeps the absolute residual
    res_dc, res_star = res_dc.max_abs(), res_star.max_abs()
    return (x, res_dc / d_omega_max if d_omega_max else res_dc,
            res_star / gamma_max if gamma_max else res_star)


def _witness_from_scaled(m: MetricParams, scaled) -> ASDCoefficients:
    """A, B = B'/tau and C = C'/tau as doubles; a part beyond double range is
    infinite.  With tau^2 = t / 4^k and t near 1, B'/tau = 2^k B' / sqrt(t),
    and no step leaves double range unless the result does."""
    k = (m.tau2.denominator.bit_length() - m.tau2.numerator.bit_length()) // 2
    two_k = Fraction(2) ** k
    root_t = math.sqrt(m.tau2 * two_k * two_k)
    # a float witness is taken at the exact value of its doubles
    a, bp, cp = (v if isinstance(v, QI) else QI(Fraction(v.real), Fraction(v.imag))
                 for v in scaled)
    b, c = ((v * two_k).to_complex() for v in (bp, cp))
    # part by part, so that an infinite part leaves the other one alone
    return ASDCoefficients(A=a.to_complex(), B=complex(b.real / root_t, b.imag / root_t),
                           C=complex(c.real / root_t, c.imag / root_t))


def decide_h11(lie: LieStructure, coframe: AlmostComplexCoframe, m: MetricParams,
               *, backend: str = "both", b_minus="auto",
               entry: Optional[CatalogEntry] = None,
               tolerance: float = DEFAULT_TOLERANCE) -> DecisionReport:
    """delta in {0,1} and h11 = b^- + delta for one metric.

    The system comes from :func:`assemble_system`.  The exact backend decides
    delta = [rank M == rank [M|v]] from a single elimination of [M|v] and
    reads the minimum-norm witness off the same reduced rows.  The float
    backend scales M to unit columns and v to unit norm, decides
    delta = [rank M == rank [M|v]] from the two SVD ranks of that system, and
    takes its witness from least squares.  Both re-verify their witness
    exactly in the form algebra (the float one at the exact rational value
    of its doubles), and a failed exact re-check raises
    :class:`InternalInvariantError`.  The float residuals are relative: over
    the largest coefficient of d omega, and of gamma for the star residual.

    ``backend`` is "exact", "float" or "both"; "both" runs the two, raises
    :class:`BackendDisagreementError` when their verdicts differ, and
    otherwise returns the exact report with the float residuals.  ``b_minus``
    selects the provenance of b^-: "auto" (per-entry default), "ce", "paper",
    or a nonnegative integer override.
    """
    b_info = _prologue(lie, backend, b_minus, entry, tolerance)
    system = assemble_system(lie, coframe, m)
    [(rank_m, rank_aug, x)], [ranks], stacks = _verdicts(
        [system], lie, coframe, backend, tolerance, b_info)
    residuals = ()
    if ranks is not None and ranks[0] == ranks[1]:
        float_x, *residuals = _float_witness(system, lie, coframe, stacks)
        # "both" reports the exact witness with the float residuals
        x = float_x if backend == "float" else x
    return _report(b_info, m, tolerance, backend, rank_m, rank_aug, x, *residuals)


def decide_grid(lie: LieStructure, coframe: AlmostComplexCoframe,
                metrics: Sequence[MetricParams], *, backend: str = "both",
                b_minus="auto", entry: Optional[CatalogEntry] = None,
                tolerance: float = DEFAULT_TOLERANCE) -> list[int]:
    """delta at each metric, in order, as :func:`decide_h11` decides it.

    The options, the structure and b^- are checked once, also for no metric,
    and one :func:`_verdicts` call decides all the systems, so an error is
    raised at the metric where a call per metric raises it.  The float
    least-squares witness and residuals are not computed.
    """
    b_info = _prologue(lie, backend, b_minus, entry, tolerance)
    systems = [assemble_system(lie, coframe, m) for m in metrics]
    verdicts = _verdicts(systems, lie, coframe, backend, tolerance, b_info)[0]
    return [int(rank_m == rank_aug) for rank_m, rank_aug, _ in verdicts]


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
    for t_row in _structure_tables(lie, coframe).rows[len(W21):]:
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
