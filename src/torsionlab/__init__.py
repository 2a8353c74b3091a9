"""Combinatorial torsion of finite complexes with flat bundles.

Exact-arithmetic Reidemeister torsion, torsion scalar products on homology
determinant lines twisted by Euler structures (sprays), and a closed-form
analytic-torsion model for the circle with an independent spectral oracle.
"""

__version__ = "0.1.0"

from .complex_core import (
    Cell,
    ComplexDescription,
    EdgePath,
    Incidence,
    ValidationReport,
    cw_complex_from_words,
    euler_characteristic,
    integral_homology,
    point_complex,
    simplicial_complex,
    validate,
)
from .flat_bundle import (
    FlatBundle,
    FlatnessReport,
    KTClass,
    check_flatness,
    gauge_normalize,
    kt_class,
    kt_evaluate,
    transport,
)
from .euler_struct import (
    H1Class,
    Spray,
    act,
    canonical_spray,
    h1_class_for,
    h1_zero,
    loop_modify,
    spray_difference,
    validate_spray,
)
from .torsion_engine import (
    EULER_ACTION_EXPONENT,
    DetLineMetric,
    TorsionResult,
    TwistedChainComplex,
    assemble,
    euler_action_on_torsion,
    ft_torsion,
    harmonic_metric,
    laplacians,
    t_comb,
)
from .barycentric import SubdivisionMap, barycentric_subdivide
from .analytic_model import (
    CircleModel,
    analytic_torsion_circle,
    zeta_det_laplacian,
)
from .corpus import corpus_get, corpus_list
from .suites import run_suite
