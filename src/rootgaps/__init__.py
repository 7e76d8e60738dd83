"""Roots of the classical orthogonal polynomials, the inverse covariance
matrices of their freezing-limit Gaussians, and verified root-gap bounds.

Importing the package loads none of its modules.  Each public name
resolves on first use: its home module (``_EXPORTS``) is imported then,
and the name is kept in the package namespace (PEP 562).  A module of the
table named as an attribute, as ``rootgaps.bounds``, is imported the same
way.
"""

from importlib import import_module

__version__ = "0.1.0"

# the public names by home module: ``__all__`` and ``__getattr__`` both read it
_EXPORTS = {
    "errors": (
        "EmptyProblemError",
        "FamilyMismatchError",
        "InternalConsistencyError",
        "MagnitudeError",
        "ParameterDomainError",
        "RootgapsError",
        "SingularConfigurationError",
    ),
    "families": (
        "FamilyKind",
        "PolynomialFamily",
        "SymTridiagonal",
        "evaluate_with_derivative",
        "hermite",
        "jacobi",
        "jacobi_matrix",
        "laguerre",
    ),
    "eigensolve": ("DenseSymmetric", "trace_power"),
    "roots": ("GapStatistics", "RootVector", "compute_roots", "gap_statistics", "to_sqrt_coordinates"),
    "covariance": ("build_S", "interaction_sums", "laguerre_sqrt_r_S"),
    "bounds": (
        "BoundReport",
        "RunColumns",
        "SharpnessSummary",
        "bound_rows",
        "bound_set",
        "hermite_diag_bound",
        "jacobi_bounds",
        "laguerre_bounds",
        "sharpness_summary",
    ),
}

_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_EXPORTS})
