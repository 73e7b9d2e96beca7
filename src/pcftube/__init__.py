"""Numerical spectral analysis and boundary limits on p.c.f. self-similar sets."""

from .core import (
    BudgetError,
    HarmonicStructure,
    ResistanceMetric,
    SelfSimilarStructure,
    StructureError,
    VertexGraph,
    build_level,
    load_structure,
    scaling_constants,
    similarity_dimension,
)
from .spectral import (
    EigenBasis,
    EnergyForm,
    NoInteriorError,
    Spectrum,
    eigen_growth_constants,
    eigensystem,
    energy_matrix,
    harmonic_extension,
    supnorm_ratio,
    weyl_exponent,
)
from .kernels import (
    KernelEvaluator,
    approx_identity_error,
    bound_constant,
    kernel_min,
    semigroup_defect,
    subordination_transform,
)
from .boundary import (
    BoundarySet,
    Cone,
    alpha_scaling_fit,
    ball_mass_lower,
    barrier,
    cone_cover_check,
    cone_sup,
    maximal_function,
    maximal_measure,
    nontangential_error,
    weak11_check,
)
from .tube import (
    TubeField,
    fatou_batch,
    fatou_consistency,
    harmonic_residual,
    lp_profile,
    max_principle_check,
    tube_sample,
)
from .suites import SuiteReport, verify_suite

__version__ = "0.1.0"
