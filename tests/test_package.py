"""The ``rootgaps`` namespace: every public name resolves to its home
module's object on first use, and a module named as an attribute is
imported then."""
import sys

import pytest

import rootgaps

from conftest import loaded_after

PUBLIC = [
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


def test_all_is_the_public_api():
    assert rootgaps.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC)
def test_name_is_its_home_modules_object(name):
    value = getattr(rootgaps, name)
    home = sys.modules[value.__module__]
    assert home.__name__.startswith("rootgaps.")
    assert getattr(home, name) is value
    assert vars(rootgaps)[name] is value


def test_bound_catalogue_names_come_from_bounds():
    assert rootgaps.bound_set is rootgaps.bounds.bound_set
    assert rootgaps.RunColumns is rootgaps.bounds.RunColumns


def test_star_import_binds_every_name_and_dir_lists_them():
    namespace = {}
    exec("from rootgaps import *", namespace)
    assert set(PUBLIC) <= namespace.keys()
    assert set(PUBLIC) <= set(dir(rootgaps))


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        rootgaps.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from rootgaps import no_such_name  # noqa: F401


def test_submodule_imports_from_the_package():
    from rootgaps import covariance

    assert covariance is sys.modules["rootgaps.covariance"]


def test_fresh_package_imports_a_name_or_module_on_first_use():
    families = ["rootgaps.errors", "rootgaps.families"]
    assert loaded_after("import rootgaps; rootgaps.hermite", ("rootgaps.",)) == families
    assert loaded_after("import rootgaps; rootgaps.bounds.bound_set", ("rootgaps.bounds",)) == ["rootgaps.bounds"]
