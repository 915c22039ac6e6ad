"""dolharm: invariant almost Hermitian structures on 4-dimensional Lie algebras.

Decides whether the space of Dolbeault-harmonic (1,1)-forms on the compact
quotient has dimension b^- + 1 or b^-, tests almost-Kahler and symplectic
feasibility, and computes invariant cohomology data (b^2, intersection form,
b^-).  Exact Gaussian-rational arithmetic by default, with a floating
cross-check backend.
"""

__version__ = "0.1.0"

from .bidegree import (AlmostComplexCoframe, Bidegree, BidegreeCalculus, project,
                       to_complex_frame, to_real_frame)
from .catalog import CatalogEntry, catalog, catalog_names
from .cohomology import CohomologyReport, ce_cohomology
from .decision import (AKVerdict, DecisionReport, HarmonicSystem, SymplecticVerdict,
                       almost_kahler_feasible, assemble_system, decide_h11,
                       symplectic_feasible, verify_witness)
from .errors import (BackendDisagreementError, CatalogError, DolharmError,
                     MetricError, SpecParseError)
from .exterior import (FrameTag, InvariantForm, change_frame, sign_of_merge, wedge)
from .hermitian import (ASDCoefficients, MetricParams, asd_form_scaled,
                        fundamental_form, gauduchon_residual, hodge_star,
                        hodge_star_via_unitary, unitary_coframe, volume_form)
from .lie import LieStructure, d_invariant, validate_d_squared
from .scalars import QI, RootExt

__all__ = [
    "__version__",
    "AKVerdict", "ASDCoefficients", "AlmostComplexCoframe",
    "BackendDisagreementError", "Bidegree", "BidegreeCalculus", "CatalogEntry",
    "CatalogError", "CohomologyReport", "DecisionReport", "DolharmError",
    "FrameTag", "HarmonicSystem", "InvariantForm", "LieStructure", "MetricError",
    "MetricParams", "QI", "RootExt", "SpecParseError", "SymplecticVerdict",
    "almost_kahler_feasible", "asd_form_scaled", "assemble_system",
    "catalog", "catalog_names", "ce_cohomology", "change_frame", "d_invariant",
    "decide_h11", "fundamental_form", "gauduchon_residual", "hodge_star",
    "hodge_star_via_unitary", "project", "sign_of_merge", "symplectic_feasible",
    "to_complex_frame", "to_real_frame", "unitary_coframe", "validate_d_squared",
    "verify_witness", "volume_form", "wedge",
]
