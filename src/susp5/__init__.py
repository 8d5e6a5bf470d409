"""Symbolic wedge decompositions and stable invariants of suspended closed
orientable 5-manifolds and 5-dimensional Poincare duality complexes."""

__version__ = "0.1.0"

from susp5.abgroup import FgAbGroup, direct_sum, smith_normal_form
from susp5.decompose import (
    DecompositionError,
    ManifoldDescriptor,
    double_suspension_decomposition,
    homology_section,
    manifold_homology,
    resolve_attaching_data,
    suspension_decomposition,
)
from susp5.invariants import (
    hurewicz_cohomotopy,
    k_group,
    ko_group,
    pi3,
    pi4_sigma_crosscheck,
)
from susp5.reduction import (
    AttachCase,
    AttachingDataError,
    HMatrix,
    PhiVector,
    reduce_h_matrix,
    reduce_phi,
)
from susp5.spaces import ElementaryComplex, Wedge, moore, peterson, sphere, wedge

__all__ = [
    "AttachCase",
    "AttachingDataError",
    "DecompositionError",
    "ElementaryComplex",
    "FgAbGroup",
    "HMatrix",
    "ManifoldDescriptor",
    "PhiVector",
    "Wedge",
    "direct_sum",
    "double_suspension_decomposition",
    "homology_section",
    "hurewicz_cohomotopy",
    "k_group",
    "ko_group",
    "manifold_homology",
    "moore",
    "peterson",
    "pi3",
    "pi4_sigma_crosscheck",
    "reduce_h_matrix",
    "reduce_phi",
    "resolve_attaching_data",
    "smith_normal_form",
    "sphere",
    "suspension_decomposition",
    "wedge",
    "__version__",
]
