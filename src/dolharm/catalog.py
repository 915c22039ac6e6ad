"""The built-in catalog of invariant almost Hermitian structures.

Eight named (Lie algebra, almost complex coframe) pairs on compact quotients
of 4-dimensional solvable and nilpotent groups: the secondary Kodaira
surface, the Inoue surfaces of type S_M, two non-integrable structures on
the 4-nilmanifold admitting no complex structure, two structures on the
hyperelliptic surface, and two on the primary Kodaira surface.

Each entry records the second Betti number and b^- quoted for the quotient
as ``reference_b2`` / ``reference_b_minus`` verbatim, next to the
values recomputed from the invariant complex (see
:func:`dolharm.cohomology.ce_cohomology`).  For the primary Kodaira surface
the two disagree (the invariant computation gives b^2 = 4, b^- = 2, which
matches the standard topology of that surface); reports surface both and
never silently reconcile them.

Entries also carry the decision loci as executable predicates so that tests
can bind the solver verdict to the known classification:

======================  ==========================  =========================
entry                   h11 = b^- + 1 exactly when   almost Kahler metrics
======================  ==========================  =========================
secondary_kodaira       Im(u) = 0                    none
inoue_sm(a, b)          b*Im(u) = -a*r^2             none
nilmanifold_I           always                       none (see note below)
nilmanifold_II          u = 0                        exactly u = 0
hyperelliptic_I         never                        none
hyperelliptic_II(t)     always                       exactly u = 0
primary_kodaira_I(a)    Re(u) = a*r^2                exactly Re(u) = a*r^2
primary_kodaira_II(b)   Im(u) = 0                    exactly Im(u) = 0
======================  ==========================  =========================

Note on nilmanifold_I: closedness of omega reduces to u + conj(u) = 2i r^2,
which has no solution with r > 0 since the left side is real; the almost
Kahler verdict is therefore bound to that computation, not to any quoted
closed-form condition.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .bidegree import AlmostComplexCoframe
from .errors import CatalogError
from .hermitian import MetricParams
from .lie import LieStructure
from .scalars import QI, as_fraction

I = QI(0, 1)


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    label: str
    lie: LieStructure
    coframe: AlmostComplexCoframe
    params: tuple[tuple[str, QI], ...]
    reference_b2: int
    reference_b_minus: int
    default_b_minus_policy: str  # "ce_computed" for nilpotent, "paper_reference" else
    h11_condition: str
    ak_condition: str
    param_domain: str
    ak_satisfiable: bool
    h11_predicate: Callable[[MetricParams], bool] = field(repr=False, compare=False)
    ak_metric_predicate: Callable[[MetricParams], bool] = field(repr=False, compare=False)


CATALOG_NAMES = (
    "secondary_kodaira",
    "inoue_sm",
    "nilmanifold_I",
    "nilmanifold_II",
    "hyperelliptic_I",
    "hyperelliptic_II",
    "primary_kodaira_I",
    "primary_kodaira_II",
)

PARAM_REQUIREMENTS: Mapping[str, tuple[tuple[str, str], ...]] = {
    "secondary_kodaira": (),
    "inoue_sm": (("alpha", "real, nonzero"), ("beta", "real")),
    "nilmanifold_I": (),
    "nilmanifold_II": (),
    "hyperelliptic_I": (),
    "hyperelliptic_II": (("t_re", "with 0 < |t| < 1"), ("t_im", "with 0 < |t| < 1")),
    "primary_kodaira_I": (("alpha", "real"),),
    "primary_kodaira_II": (("beta", "real, nonzero"),),
}


def _real_param(params: dict, name: str, default=None) -> Fraction:
    if name not in params:
        if default is not None:
            return as_fraction(default)
        raise CatalogError(f"missing parameter {name!r}")
    return as_fraction(params.pop(name))


def _standard_coframe() -> AlmostComplexCoframe:
    # phi^1 = e1 + i e3, phi^2 = e2 + i e4
    return AlmostComplexCoframe.from_rows([[1, 0, I, 0], [0, 1, 0, I]])


_NILPOTENT_HEISENBERG = LieStructure.from_d({3: {(1, 2): -1}}, "primary_kodaira")
_NILPOTENT_FILIFORM = LieStructure.from_d(
    {3: {(1, 2): -1}, 4: {(1, 3): -1}}, "nilmanifold")
_HYPERELLIPTIC = LieStructure.from_d(
    {1: {(2, 3): -1}, 2: {(1, 3): 1}}, "hyperelliptic")


def catalog(name: str, **raw_params) -> CatalogEntry:
    """Instantiate a catalog entry; raises CatalogError outside the domain."""
    if name not in CATALOG_NAMES:
        raise CatalogError(
            f"unknown catalog entry {name!r}; known entries: {', '.join(CATALOG_NAMES)}")
    params = dict(raw_params)
    builder = _BUILDERS[name]
    entry = builder(params)
    if params:
        raise CatalogError(
            f"unexpected parameter(s) for {name!r}: {', '.join(sorted(params))}")
    return entry


def catalog_names() -> tuple[str, ...]:
    return CATALOG_NAMES


def _build_secondary_kodaira(params: dict) -> CatalogEntry:
    lie = LieStructure.from_d(
        {1: {(2, 4): 1}, 2: {(1, 4): -1}, 3: {(1, 2): 1}}, "secondary_kodaira")
    return CatalogEntry(
        key="secondary_kodaira",
        label="secondary Kodaira surface",
        lie=lie,
        coframe=_standard_coframe(),
        params=(),
        reference_b2=0,
        reference_b_minus=0,
        default_b_minus_policy="paper_reference",
        h11_condition="Im(u) = 0",
        ak_condition="no almost Kahler metric (closedness forces u = -i r^2 with u real)",
        param_domain="no parameters",
        ak_satisfiable=False,
        h11_predicate=lambda m: m.u.im == 0,
        ak_metric_predicate=lambda m: False,
    )


def _build_inoue_sm(params: dict) -> CatalogEntry:
    alpha = _real_param(params, "alpha")
    beta = _real_param(params, "beta", default=0)
    if alpha == 0:
        raise CatalogError("inoue_sm requires alpha != 0")
    lie = LieStructure.from_d(
        {1: {(1, 4): alpha, (2, 4): beta},
         2: {(1, 4): -beta, (2, 4): alpha},
         3: {(3, 4): -2 * alpha}},
        f"inoue_sm(alpha={alpha}, beta={beta})")
    return CatalogEntry(
        key="inoue_sm",
        label="Inoue surface of type S_M",
        lie=lie,
        coframe=_standard_coframe(),
        params=(("alpha", QI(alpha)), ("beta", QI(beta))),
        reference_b2=0,
        reference_b_minus=0,
        default_b_minus_policy="paper_reference",
        h11_condition="beta*Im(u) = -alpha*r^2",
        ak_condition="no almost Kahler metric (closedness forces r = 0)",
        param_domain="alpha real nonzero, beta real",
        ak_satisfiable=False,
        h11_predicate=lambda m, a=alpha, b=beta: b * m.u.im == -a * m.r2,
        ak_metric_predicate=lambda m: False,
    )


def _build_nilmanifold_I(params: dict) -> CatalogEntry:
    coframe = AlmostComplexCoframe.from_rows([[0, 0, 1, I], [1, I, 0, 0]])
    return CatalogEntry(
        key="nilmanifold_I",
        label="4-nilmanifold without complex structures, structure I",
        lie=_NILPOTENT_FILIFORM,
        coframe=coframe,
        params=(),
        reference_b2=2,
        reference_b_minus=1,
        default_b_minus_policy="ce_computed",
        h11_condition="always (every invariant metric)",
        ak_condition=("no almost Kahler metric; closedness reduces to "
                      "u + conj(u) = 2i r^2, unsolvable over the reals"),
        param_domain="no parameters",
        ak_satisfiable=False,
        h11_predicate=lambda m: True,
        ak_metric_predicate=lambda m: False,
    )


def _build_nilmanifold_II(params: dict) -> CatalogEntry:
    coframe = AlmostComplexCoframe.from_rows([[1, 0, 0, I], [0, 1, I, 0]])
    return CatalogEntry(
        key="nilmanifold_II",
        label="4-nilmanifold without complex structures, structure II",
        lie=_NILPOTENT_FILIFORM,
        coframe=coframe,
        params=(),
        reference_b2=2,
        reference_b_minus=1,
        default_b_minus_policy="ce_computed",
        h11_condition="u = 0",
        ak_condition="almost Kahler iff u = 0",
        param_domain="no parameters",
        ak_satisfiable=True,
        h11_predicate=lambda m: not m.u,
        ak_metric_predicate=lambda m: not m.u,
    )


def _build_hyperelliptic_I(params: dict) -> CatalogEntry:
    return CatalogEntry(
        key="hyperelliptic_I",
        label="hyperelliptic surface, structure I",
        lie=_HYPERELLIPTIC,
        coframe=_standard_coframe(),
        params=(),
        reference_b2=2,
        reference_b_minus=1,
        default_b_minus_policy="paper_reference",
        h11_condition="never (no invariant metric attains b^- + 1)",
        ak_condition="no almost Kahler metric (closedness forces s = 0)",
        param_domain="no parameters",
        ak_satisfiable=False,
        h11_predicate=lambda m: False,
        ak_metric_predicate=lambda m: False,
    )


def _build_hyperelliptic_II(params: dict) -> CatalogEntry:
    t = QI(_real_param(params, "t_re", default=0), _real_param(params, "t_im", default=0))
    if not t or t.abs2() >= 1:
        raise CatalogError("hyperelliptic_II requires 0 < |t| < 1")
    one_plus, one_minus = QI(1) + t, QI(1) - t
    coframe = AlmostComplexCoframe.from_rows(
        [[one_plus, I * one_minus, 0, 0], [0, 0, 1, I]])
    return CatalogEntry(
        key="hyperelliptic_II",
        label="hyperelliptic surface, deformed structure II",
        lie=_HYPERELLIPTIC,
        coframe=coframe,
        params=(("t_re", QI(t.re)), ("t_im", QI(t.im))),
        reference_b2=2,
        reference_b_minus=1,
        default_b_minus_policy="paper_reference",
        h11_condition="always (every invariant metric)",
        ak_condition="almost Kahler iff u = 0",
        param_domain="t complex with 0 < |t| < 1",
        ak_satisfiable=True,
        h11_predicate=lambda m: True,
        ak_metric_predicate=lambda m: not m.u,
    )


def _build_primary_kodaira_I(params: dict) -> CatalogEntry:
    alpha = _real_param(params, "alpha", default=0)
    coframe = AlmostComplexCoframe.from_rows([[1, 0, I, alpha], [0, 1, 0, I]])
    return CatalogEntry(
        key="primary_kodaira_I",
        label="primary Kodaira surface, structure I",
        lie=_NILPOTENT_HEISENBERG,
        coframe=coframe,
        params=(("alpha", QI(alpha)),),
        reference_b2=2,
        reference_b_minus=1,
        default_b_minus_policy="ce_computed",
        h11_condition="Re(u) = alpha*r^2",
        ak_condition="almost Kahler iff Re(u) = alpha*r^2",
        param_domain="alpha real",
        ak_satisfiable=True,
        h11_predicate=lambda m, a=alpha: m.u.re == a * m.r2,
        ak_metric_predicate=lambda m, a=alpha: m.u.re == a * m.r2,
    )


def _build_primary_kodaira_II(params: dict) -> CatalogEntry:
    beta = _real_param(params, "beta")
    if beta == 0:
        raise CatalogError("primary_kodaira_II requires beta != 0")
    coframe = AlmostComplexCoframe.from_rows([[I, 0, 0, 1], [0, 1, QI(0, -beta), 0]])
    return CatalogEntry(
        key="primary_kodaira_II",
        label="primary Kodaira surface, structure II",
        lie=_NILPOTENT_HEISENBERG,
        coframe=coframe,
        params=(("beta", QI(beta)),),
        reference_b2=2,
        reference_b_minus=1,
        default_b_minus_policy="ce_computed",
        h11_condition="Im(u) = 0",
        ak_condition="almost Kahler iff Im(u) = 0",
        param_domain="beta real nonzero",
        ak_satisfiable=True,
        h11_predicate=lambda m: m.u.im == 0,
        ak_metric_predicate=lambda m: m.u.im == 0,
    )


_BUILDERS = {
    "secondary_kodaira": _build_secondary_kodaira,
    "inoue_sm": _build_inoue_sm,
    "nilmanifold_I": _build_nilmanifold_I,
    "nilmanifold_II": _build_nilmanifold_II,
    "hyperelliptic_I": _build_hyperelliptic_I,
    "hyperelliptic_II": _build_hyperelliptic_II,
    "primary_kodaira_I": _build_primary_kodaira_I,
    "primary_kodaira_II": _build_primary_kodaira_II,
}
