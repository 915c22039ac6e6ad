"""Invariant almost Hermitian metrics, the Hodge star, and anti-self-dual forms.

A left-invariant metric compatible with an almost complex structure is kept
in the normal form

    omega = i r^2 phi^{1 1bar} + i s^2 phi^{2 2bar} + u phi^{1 2bar} - conj(u) phi^{2 1bar}

with r, s > 0 and r^2 s^2 > |u|^2.  Only the squares r^2, s^2 and u enter any
formula used here, so :class:`MetricParams` stores those exactly; the square
roots r, s and tau = sqrt(r^2 s^2 - |u|^2) appear only in the orthonormalizing
coframe

    psi^1 = r phi^1 + i (conj(u)/r) phi^2,    psi^2 = (tau/r) phi^2,

and are carried exactly by the RootExt scalar ring when needed.

Anti-self-dual (1,1)-forms are the span of psi^{1 1bar} - psi^{2 2bar},
psi^{1 2bar} and psi^{2 1bar}.  Expanding in the phi-coframe and absorbing
one factor of tau into the last two coefficients (B' = B tau, C' = C tau)
makes the whole family Gaussian-rational:

    gamma(A, B', C') = A r^2 phi^{1 1bar}
        + (A (2|u|^2 - r^2 s^2) + i (B' conj(u) - C' u)) / r^2  phi^{2 2bar}
        + (-i A u + B') phi^{1 2bar}
        + ( i A conj(u) + C') phi^{2 1bar}.

The Hodge star is implemented from the coefficient formula for the star of a
(p,q)-form in a (1,0)-coframe with Gram matrix g (volume form omega^2/2).
The formula's index combinations, words and signs depend only on (p,q), so
they are indexed once at import (``_STAR_INDEX``); a call multiplies the
g^{-1} entries the table names.  A second, independent implementation
transports through the unitary coframe and exists purely as a cross-check.
Every scalar is exact: QI, and RootExt in the unitary coframe.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .errors import MetricError, MixedBidegreeError
from .exterior import FrameTag, InvariantForm, substitute_letters, word_and_sign
from .linalg import invert_matrix
from .scalars import QI, QI_I, QI_ONE, QI_ZERO, RootExt, as_fraction


@dataclass(frozen=True)
class MetricParams:
    """Exact metric data (r^2, s^2, u) of the normal form above.

    When built from rational (r, s) the originals are remembered for echoing;
    they never enter any computation and are ignored by equality.
    """

    r2: Fraction
    s2: Fraction
    u: QI
    r_given: Fraction | None = field(default=None, compare=False, repr=False)
    s_given: Fraction | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.r2 <= 0 or self.s2 <= 0:
            raise MetricError(f"need r^2 > 0 and s^2 > 0, got {self.r2}, {self.s2}")
        if self.tau2 <= 0:
            raise MetricError(
                f"need r^2 s^2 > |u|^2, got r^2 s^2 = {self.r2 * self.s2}, "
                f"|u|^2 = {self.u.abs2()}")

    @staticmethod
    def from_rs(r, s, u) -> "MetricParams":
        r = as_fraction(r)
        s = as_fraction(s)
        if r <= 0 or s <= 0:
            raise MetricError(f"need r > 0 and s > 0, got {r}, {s}")
        return MetricParams(r * r, s * s, QI.of(u) if not isinstance(u, QI) else u,
                            r_given=r, s_given=s)

    @staticmethod
    def from_squares(r2, s2, u) -> "MetricParams":
        return MetricParams(as_fraction(r2), as_fraction(s2),
                            QI.of(u) if not isinstance(u, QI) else u)

    @property
    def tau2(self) -> Fraction:
        return self.r2 * self.s2 - self.u.abs2()

    # Gram matrix of omega = i sum g_{j kbar} phi^j wedge conj(phi^k)
    @property
    def g(self) -> list[list[QI]]:
        u = self.u
        return [[QI(self.r2), QI(0, -1) * u],
                [QI(0, 1) * u.conjugate(), QI(self.s2)]]

    @property
    def g_inv(self) -> list[list[QI]]:
        t = self.tau2
        u = self.u
        return [[QI(self.s2 / t), QI(0, 1) * u / QI(t)],
                [QI(0, -1) * u.conjugate() / QI(t), QI(self.r2 / t)]]

    @property
    def det_g(self) -> Fraction:
        return self.tau2

    def scaled(self, lam: Fraction) -> "MetricParams":
        """The metric with r -> lam r, s -> lam s, u -> lam^2 u (lam > 0)."""
        lam = as_fraction(lam)
        if lam <= 0:
            raise MetricError("scale factor must be positive")
        l2 = lam * lam
        return MetricParams(l2 * self.r2, l2 * self.s2, QI(l2) * self.u)

    def describe(self) -> str:
        return f"r^2={self.r2}, s^2={self.s2}, u={self.u}"


@dataclass(frozen=True)
class ASDCoefficients:
    """Coefficients of gamma = A psi^{1 1bar} + B psi^{1 2bar} + C psi^{2 1bar} - A psi^{2 2bar}."""

    A: complex
    B: complex
    C: complex


def fundamental_form(m: MetricParams) -> InvariantForm:
    """omega in the phi-coframe: a real (1,1)-form."""
    coeffs = {(1, 3): QI(0, m.r2), (2, 4): QI(0, m.s2),
              (1, 4): m.u, (2, 3): -m.u.conjugate()}
    return InvariantForm.build(FrameTag.COMPLEX, 2, coeffs)


def asd_form_scaled(m: MetricParams, A, Bp, Cp) -> InvariantForm:
    """gamma(A, B', C') with the tau-absorbed coefficients; Gaussian-rational."""
    A, Bp, Cp = QI.of(A), QI.of(Bp), QI.of(Cp)
    u, ub, i = m.u, m.u.conjugate(), QI_I
    coeffs = {
        (1, 3): A * m.r2,
        (2, 4): (A * (2 * u.abs2() - m.r2 * m.s2) + i * (Bp * ub - Cp * u))
        * QI(1 / m.r2),
        (1, 4): -(i * A * u) + Bp,
        (2, 3): i * A * ub + Cp,
    }
    return InvariantForm.build(FrameTag.COMPLEX, 2, coeffs)


def asd_basis_scaled(m: MetricParams) -> tuple[InvariantForm, InvariantForm, InvariantForm]:
    """The three scaled generators gamma(1,0,0), gamma(0,1,0), gamma(0,0,1)."""
    return (asd_form_scaled(m, 1, 0, 0),
            asd_form_scaled(m, 0, 1, 0),
            asd_form_scaled(m, 0, 0, 1))


# -- unitary coframe ----------------------------------------------------------


def unitary_coframe(m: MetricParams) -> list[list[RootExt]]:
    """2x2 matrix expressing psi^1, psi^2 in phi^1, phi^2, exact over RootExt."""
    rad = (m.r2, m.tau2)
    r = RootExt.root_r(rad)
    tau = RootExt.root_s(rad)
    inv_r = r * RootExt.rational(QI(Fraction(1) / m.r2), rad)  # 1/r = r/r^2
    i_ub = QI(0, 1) * m.u.conjugate()
    return [[r, inv_r * i_ub],
            [RootExt.rational(0, rad), tau * inv_r]]


@lru_cache(maxsize=256)
def _unitary_substitutions(m: MetricParams):
    """(phi letters in psi letters, psi letters in phi letters), cached per metric.

    The second is the 4x4 matrix of (psi^1, psi^2, conj psi^1, conj psi^2) in
    phi-letters."""
    top = unitary_coframe(m)
    zero = RootExt.rational(0, (m.r2, m.tau2))
    conj_rows = [[x.conjugate() for x in row] for row in top]
    stacked = [
        [top[0][0], top[0][1], zero, zero],
        [top[1][0], top[1][1], zero, zero],
        [zero, zero, conj_rows[0][0], conj_rows[0][1]],
        [zero, zero, conj_rows[1][0], conj_rows[1][1]],
    ]
    return invert_matrix(stacked), stacked


# -- Hodge star ---------------------------------------------------------------


def _star_index(p: int, q: int) -> tuple:
    """Index table of the star on (p,q)-forms in a frame with inverse Gram g.

    For n = 2 the star sends the raised coefficient psi^{abar_p b_q} of each
    pair (A_p, B_q) to the word of the complementary letters (B_q^c unbarred,
    A_p^c barred), with the sign eps of the permutation (1, 2, 1bar, 2bar) ->
    (A_p, B_q bar, rest, rest bar), the sign of sorting the output word, and
    i^n (-1)^{n(n-1)/2 + pq} = (-1)^{pq}.  One entry per output word:
    (word, sign, terms); each term is (input word, sign of sorting it, index
    pairs (row, column) of its g^{-1} factors).
    """
    full = (1, 2)
    entries = []
    for a_idx in combinations(full, p):
        comp_a = tuple(x for x in full if x not in a_idx)
        for b_idx in combinations(full, q):
            comp_b = tuple(x for x in full if x not in b_idx)
            terms = []
            for gammas in product(full, repeat=p):
                for lams in product(full, repeat=q):
                    word, sign = word_and_sign(gammas + tuple(x + 2 for x in lams))
                    if word is None:
                        continue
                    pairs = ([(ak - 1, gk - 1) for ak, gk in zip(a_idx, gammas)]
                             + [(lk - 1, bk - 1) for lk, bk in zip(lams, b_idx)])
                    terms.append((word, sign, tuple(pairs)))
            order = ([x - 1 for x in a_idx] + [x + 1 for x in b_idx]
                     + [x - 1 for x in comp_a] + [x + 1 for x in comp_b])
            eps = word_and_sign(order)[1]
            word_out, ssign = word_and_sign(comp_b + tuple(x + 2 for x in comp_a))
            sign_out = eps * ssign * (-1 if (p * q) % 2 else 1)
            entries.append((word_out, sign_out, tuple(terms)))
    return tuple(entries)


_STAR_INDEX = {(p, q): _star_index(p, q) for p in range(3) for q in range(3)}


def _star_with_gram(f: InvariantForm, g_inv, det_g) -> InvariantForm:
    """Star of a pure (p,q)-form in a complex-type frame with Gram matrix g."""
    if f.is_zero:
        return InvariantForm.zero(f.frame, 4 - f.degree)
    bd = f.bidegree()
    if bd is None:
        raise MixedBidegreeError("the Hodge star needs a pure-bidegree form")
    coeffs = f.coeffs
    out: dict = {}
    for word_out, sign_out, terms in _STAR_INDEX[bd]:
        raised = None
        for word, sign, pairs in terms:
            term = coeffs.get(word)
            if not term:
                continue
            for row, col in pairs:
                term = g_inv[row][col] * term
            if sign < 0:
                term = -term
            raised = term if raised is None else raised + term
        if raised:
            out[word_out] = det_g * raised if sign_out > 0 else -(det_g * raised)
    return InvariantForm.build(f.frame, 4 - f.degree, out)


def hodge_star(f: InvariantForm, m: MetricParams) -> InvariantForm:
    """Hodge star of a pure (p,q)-form in the phi-coframe.

    Maps (p,q) to (2-q, 2-p); the volume form is omega^2/2.
    """
    if f.frame is not FrameTag.COMPLEX:
        raise MixedBidegreeError("hodge_star expects a phi-coframe form")
    return _star_with_gram(f, m.g_inv, QI(m.det_g))


_IDENTITY = ((QI_ONE, QI_ZERO), (QI_ZERO, QI_ONE))


def hodge_star_via_unitary(f: InvariantForm, m: MetricParams) -> InvariantForm:
    """Cross-check star: transport to the unitary coframe, star there, return.

    In the unitary coframe the Gram matrix is the identity.  The root factors
    r and tau are carried in the RootExt ring and the result is certified
    rational before conversion back.
    """
    if f.frame is not FrameTag.COMPLEX:
        raise MixedBidegreeError("hodge_star_via_unitary expects a phi-coframe form")
    phi_in_psi, psi_in_phi = _unitary_substitutions(m)
    rad = (m.r2, m.tau2)
    lift = InvariantForm.build(
        f.frame, f.degree,
        {w: RootExt.make((c, 0, 0, 0), rad) for w, c in f.coeffs.items()})
    to_psi = substitute_letters(lift, FrameTag.UNITARY, phi_in_psi)
    starred = _star_with_gram(to_psi, _IDENTITY, QI_ONE)
    back = substitute_letters(starred, FrameTag.COMPLEX, psi_in_phi)
    coeffs = {w: c.rational_value() if isinstance(c, RootExt) else c
              for w, c in back.coeffs.items()}
    return InvariantForm.build(FrameTag.COMPLEX, back.degree, coeffs)


def volume_form(m: MetricParams) -> InvariantForm:
    """omega^2 / 2 = tau^2 phi^{1 2 1bar 2bar}."""
    return InvariantForm.build(FrameTag.COMPLEX, 4, {(1, 2, 3, 4): QI(m.tau2)})


def gauduchon_residual(calc, m: MetricParams) -> InvariantForm:
    """del delbar omega; identically zero for every invariant metric here."""
    return calc.del_(calc.delbar(fundamental_form(m)))
