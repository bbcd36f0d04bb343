"""Quadratic stochastic operators on finite simplices.

Validation and application of QSO tensors, Volterra detection with the
canonical skew-symmetric form, classification of orthogonality-preserving
operators on the 2-simplex, permutation conjugacy, associativity of the
induced genetic algebra, finite measure kernels, and trajectory iteration.
"""

from .algebra import (
    EPS_ASSOC,
    RefutationReport,
    assoc_solutions_v2,
    associator_residual,
    is_associative,
    product,
    refute_associativity,
    v2_condition_system,
)
from .conjugacy import Permutation, conjugacy_classes, conjugate, permute_point
from .core import (
    EPS_SUPP,
    EPS_VAL,
    QsoTensor,
    SimplexPoint,
    abs_continuous,
    apply,
    orthogonal,
    support,
    validate,
)
from .dynamics import (
    Trajectory,
    fixed_points_on_vertices,
    iterate,
    write_trajectory_csv,
)
from .errors import (
    DimensionMismatch,
    DimensionUnsupported,
    InvalidFamily,
    InvalidPermutation,
    InvalidPoint,
    InvalidSkew,
    NegativeCoefficient,
    NotOrthogonalityPreserving,
    NotStochastic,
    NotSymmetric,
    NotVolterra,
    ParameterOutOfRange,
    QsoError,
    TooLarge,
    VertexImageNotVertex,
)
from .kernel import (
    DiscreteMeasure,
    FiniteKernel,
    kernel_apply,
    kernel_is_volterra,
    kernel_volterra_oracle,
    volterra_violation_witness,
)
from .orthopreserve import (
    FAMILY_VERTEX_IMAGES,
    OpFamilySpec,
    classify_op,
    is_orthogonality_preserving,
    op_family,
)
from .volterra import (
    SkewMatrix,
    certificate_points,
    check_abs_continuity_property,
    from_canonical,
    is_volterra,
    to_canonical,
    volterra_certificate,
)

__version__ = "0.1.0"

__all__ = [
    "EPS_ASSOC",
    "EPS_SUPP",
    "EPS_VAL",
    "FAMILY_VERTEX_IMAGES",
    "DiscreteMeasure",
    "DimensionMismatch",
    "DimensionUnsupported",
    "FiniteKernel",
    "InvalidFamily",
    "InvalidPermutation",
    "InvalidPoint",
    "InvalidSkew",
    "NegativeCoefficient",
    "NotOrthogonalityPreserving",
    "NotStochastic",
    "NotSymmetric",
    "NotVolterra",
    "OpFamilySpec",
    "ParameterOutOfRange",
    "Permutation",
    "QsoError",
    "QsoTensor",
    "RefutationReport",
    "SimplexPoint",
    "SkewMatrix",
    "TooLarge",
    "Trajectory",
    "VertexImageNotVertex",
    "abs_continuous",
    "apply",
    "assoc_solutions_v2",
    "associator_residual",
    "certificate_points",
    "check_abs_continuity_property",
    "classify_op",
    "conjugacy_classes",
    "conjugate",
    "fixed_points_on_vertices",
    "from_canonical",
    "is_associative",
    "is_orthogonality_preserving",
    "is_volterra",
    "iterate",
    "kernel_apply",
    "kernel_is_volterra",
    "kernel_volterra_oracle",
    "op_family",
    "orthogonal",
    "permute_point",
    "product",
    "refute_associativity",
    "support",
    "to_canonical",
    "v2_condition_system",
    "validate",
    "volterra_certificate",
    "volterra_violation_witness",
    "write_trajectory_csv",
]
