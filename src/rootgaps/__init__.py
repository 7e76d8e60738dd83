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
from .covariance import build_S, interaction_sums, laguerre_sqrt_r_S
from .bounds import (
    BoundReport,
    RunColumns,
    SharpnessSummary,
    bound_rows,
    bound_set,
    hermite_diag_bound,
    jacobi_bounds,
    laguerre_bounds,
    sharpness_summary,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DenseSymmetric",
    "EmptyProblemError",
    "FamilyKind",
    "FamilyMismatchError",
    "GapStatistics",
    "InternalConsistencyError",
    "MagnitudeError",
    "ParameterDomainError",
    "PolynomialFamily",
    "RootVector",
    "RootgapsError",
    "RunColumns",
    "SharpnessSummary",
    "SingularConfigurationError",
    "SymTridiagonal",
    "bound_rows",
    "bound_set",
    "build_S",
    "compute_roots",
    "evaluate_with_derivative",
    "gap_statistics",
    "hermite",
    "hermite_diag_bound",
    "interaction_sums",
    "jacobi",
    "jacobi_bounds",
    "jacobi_matrix",
    "laguerre",
    "laguerre_bounds",
    "laguerre_sqrt_r_S",
    "sharpness_summary",
    "to_sqrt_coordinates",
    "trace_power",
]
