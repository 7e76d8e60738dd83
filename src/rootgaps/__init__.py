"""Roots of the classical orthogonal polynomials, the inverse covariance
matrices of their freezing-limit Gaussians, and verified root-gap bounds."""

from .errors import (
    EmptyProblemError,
    FamilyMismatchError,
    InternalConsistencyError,
    MagnitudeError,
    ParameterDomainError,
    RootgapsError,
    SingularConfigurationError,
)
from .families import (
    FamilyKind,
    PolynomialFamily,
    SymTridiagonal,
    evaluate_with_derivative,
    hermite,
    jacobi,
    jacobi_matrix,
    laguerre,
)
from .eigensolve import DenseSymmetric, trace_power
from .roots import (
    GapStatistics,
    RootVector,
    compute_roots,
    gap_statistics,
    to_sqrt_coordinates,
)
from .covariance import (
    CoordinateForm,
    InverseCovariance,
    hermite_S,
    jacobi_S,
    laguerre_S,
)
from .bounds import (
    BoundReport,
    SharpnessSummary,
    hermite_diag_bound,
    jacobi_bounds,
    jacobi_comparator,
    laguerre_bounds,
    laguerre_comparators,
    sharpness_summary,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CoordinateForm",
    "DenseSymmetric",
    "EmptyProblemError",
    "FamilyKind",
    "FamilyMismatchError",
    "GapStatistics",
    "InternalConsistencyError",
    "InverseCovariance",
    "MagnitudeError",
    "ParameterDomainError",
    "PolynomialFamily",
    "RootVector",
    "RootgapsError",
    "SharpnessSummary",
    "SingularConfigurationError",
    "SymTridiagonal",
    "compute_roots",
    "evaluate_with_derivative",
    "gap_statistics",
    "hermite",
    "hermite_S",
    "hermite_diag_bound",
    "jacobi",
    "jacobi_S",
    "jacobi_bounds",
    "jacobi_comparator",
    "jacobi_matrix",
    "laguerre",
    "laguerre_S",
    "laguerre_bounds",
    "laguerre_comparators",
    "sharpness_summary",
    "to_sqrt_coordinates",
    "trace_power",
]
