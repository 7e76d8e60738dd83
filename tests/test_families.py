import dataclasses
import math
import pickle

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from rootgaps import (
    EmptyProblemError,
    FamilyKind,
    InternalConsistencyError,
    MagnitudeError,
    ParameterDomainError,
    PolynomialFamily,
    SymTridiagonal,
    compute_roots,
    evaluate_with_derivative,
    hermite,
    jacobi,
    jacobi_matrix,
    laguerre,
)
from rootgaps.families import FAMILY_SPECS, _evaluate_scaled, orthonormal_polynomials, step_table

from conftest import all_families


class TestFamilyValidation:
    def test_laguerre_requires_positive_nu(self):
        with pytest.raises(ParameterDomainError):
            laguerre(0.0)
        with pytest.raises(ParameterDomainError):
            laguerre(-1.0)

    def test_jacobi_requires_parameters_above_minus_one(self):
        with pytest.raises(ParameterDomainError):
            jacobi(-1.0, 0.0)
        with pytest.raises(ParameterDomainError):
            jacobi(0.0, -1.5)

    def test_hermite_takes_no_parameters(self):
        with pytest.raises(ParameterDomainError):
            PolynomialFamily(FamilyKind.HERMITE, nu=1.0)

    @pytest.mark.parametrize("value", ["2", [1.0], 1j, b"2", True, False], ids=repr)
    def test_a_parameter_that_is_no_real_number_is_a_domain_error(self, value):
        # math.isfinite and float() raised their own TypeError on these; a
        # bool is a numbers.Real, and nu=True built laguerre(nu=1.0)
        with pytest.raises(ParameterDomainError, match="real nu"):
            PolynomialFamily(FamilyKind.LAGUERRE, nu=value)
        with pytest.raises(ParameterDomainError, match="real beta"):
            PolynomialFamily(FamilyKind.JACOBI, alpha=1.0, beta=value)

    @pytest.mark.parametrize("value", [2, 2.0, np.float64(2.0), np.float32(2.0), np.int64(2)], ids=repr)
    def test_real_parameters_of_any_type_are_accepted(self, value):
        fam = PolynomialFamily(FamilyKind.LAGUERRE, nu=value)
        assert fam.parameters() == (2.0,) and type(fam.parameters()[0]) is float

    @pytest.mark.parametrize("order", [True, False, np.bool_(True)])
    def test_a_bool_is_no_order(self, order):
        # bool is an int subclass: True read as P_1, and numpy's negative of
        # a bool raised its own TypeError in the root batch
        with pytest.raises(ParameterDomainError, match="integer"):
            evaluate_with_derivative(hermite(), order, 0.5)
        with pytest.raises(ParameterDomainError, match="integer"):
            jacobi_matrix(laguerre(1.0), order)
        with pytest.raises(ParameterDomainError, match="integer"):
            compute_roots(laguerre(1.0), order)


# the default grid and one family off it per kind with parameters (Hermite
# has none, so its one family is on the grid)
PICKLED_FAMILIES = all_families() + [laguerre(1e-10), jacobi(-0.9999, 5.0)]


class TestFamilyFacts:
    """The facts a family fixes at construction: its spec row, parameters
    and parameter text."""

    @pytest.mark.parametrize("family", PICKLED_FAMILIES, ids=lambda fam: fam.label())
    def test_pickle_round_trip_keeps_every_fact(self, family):
        copy = pickle.loads(pickle.dumps(family))
        assert copy == family and hash(copy) == hash(family)
        assert copy.spec is family.spec is FAMILY_SPECS[family.kind]
        assert copy.parameters() == family.parameters()
        assert copy.params_text() == family.params_text()
        assert copy.label() == family.label()

    def test_replaced_family_gets_its_own_facts(self):
        family = dataclasses.replace(laguerre(2.0), nu=3.0)
        assert family == laguerre(3.0)
        assert family.parameters() == (3.0,)
        assert family.params_text() == "nu=3.0"
        assert family.label() == "laguerre(nu=3.0)"


class TestSymTridiagonal:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ParameterDomainError):
            SymTridiagonal(np.zeros(3), np.ones(3))

    def test_nonpositive_offdiagonal_rejected(self):
        with pytest.raises(ParameterDomainError):
            SymTridiagonal(np.zeros(2), np.array([0.0]))
        with pytest.raises(ParameterDomainError):
            SymTridiagonal(np.zeros(2), np.array([-1.0]))

    def test_to_dense_roundtrip(self):
        t = SymTridiagonal(np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.25]))
        dense = t.to_dense()
        assert np.array_equal(dense, dense.T)
        assert list(np.diag(dense)) == [1.0, 2.0, 3.0]
        assert list(np.diag(dense, 1)) == [0.5, 0.25]


class TestJacobiMatrix:
    def test_hermite_n1(self):
        t = jacobi_matrix(hermite(), 1)
        assert t.diag.tolist() == [0.0]
        assert t.offdiag.size == 0

    def test_hermite_diag_is_zero(self):
        t = jacobi_matrix(hermite(), 12)
        assert np.all(t.diag == 0.0)

    def test_laguerre_n1_root_is_nu(self):
        # L_1^(nu-1)(x) = nu - x up to normalization, so the single root is nu
        t = jacobi_matrix(laguerre(2.0), 1)
        assert t.diag.tolist() == [2.0]

    def test_legendre_n2_eigenvalues(self):
        # oracle: Legendre P_2 = (3x^2 - 1)/2, roots +-1/sqrt(3)
        t = jacobi_matrix(jacobi(0.0, 0.0), 2)
        expected = [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)]
        np.testing.assert_allclose(np.linalg.eigvalsh(t.to_dense()), expected, rtol=0, atol=1e-15)

    def test_n_zero_is_an_empty_problem(self):
        with pytest.raises(EmptyProblemError):
            jacobi_matrix(hermite(), 0)

    @settings(max_examples=60, deadline=None)
    @given(
        nu=st.floats(min_value=1e-6, max_value=100.0),
        n=st.integers(min_value=1, max_value=50),
    )
    def test_laguerre_offdiagonal_positive(self, nu, n):
        t = jacobi_matrix(laguerre(nu), n)
        assert np.all(t.offdiag > 0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(min_value=-0.999, max_value=100.0),
        beta=st.floats(min_value=-0.999, max_value=100.0),
        n=st.integers(min_value=1, max_value=50),
    )
    def test_jacobi_offdiagonal_positive(self, alpha, beta, n):
        t = jacobi_matrix(jacobi(alpha, beta), n)
        assert np.all(t.offdiag > 0.0)

    # 1e100 overflows only the denominator of the off-diagonal entries,
    # which would round them to zero; 1e160 makes entries inf/nan
    @pytest.mark.parametrize(
        "family",
        [jacobi(1e100, 1e100), jacobi(1e160, 1e160), laguerre(1e308)],
        ids=lambda fam: fam.label(),
    )
    def test_coefficient_overflow_raises_magnitude_error(self, family):
        with pytest.raises(MagnitudeError, match="recurrence coefficients overflow"):
            jacobi_matrix(family, 3)

    # covariance.OrthonormalBand reads a band's coefficients from one
    # matrix at its largest order, for the points of every smaller order
    @pytest.mark.parametrize(
        "family",
        all_families() + [jacobi(-0.999, -0.999), jacobi(-0.9999, 5.0), laguerre(1e-300), laguerre(1000.0)],
        ids=lambda fam: fam.label(),
    )
    def test_each_order_is_the_leading_block_of_a_larger_one(self, family):
        big = jacobi_matrix(family, 300)
        for n in (1, 2, 3, 10, 40, 299):
            t = jacobi_matrix(family, n)
            assert np.array_equal(t.diag, big.diag[:n]), n
            assert np.array_equal(t.offdiag, big.offdiag[:n - 1]), n


_STEP_CANCELS = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="FOUND in CHANGES.md: (k + alpha - 1) cancels the digits of alpha + 1 as alpha -> -1",
)


class TestJacobiSteps:
    @pytest.mark.parametrize(
        "alpha,beta",
        [
            (-0.5, -0.5), (0.0, 0.0), (2.0, 3.0), (10.0, 10.0),
            pytest.param(1.0, -0.9, marks=_STEP_CANCELS),
            pytest.param(-0.999, -0.999, marks=_STEP_CANCELS),
        ],
    )
    def test_second_step_c_against_mpmath(self, alpha, beta):
        # the k = 2 step's C = 2 (k + alpha - 1)(k + beta - 1)(2k + alpha + beta),
        # exactly 2 (alpha + 1)(beta + 1)(4 + alpha + beta)
        mpmath = pytest.importorskip("mpmath")
        family = jacobi(alpha, beta)
        _, (_, _, c, _) = family.spec.steps(family, 2)
        with mpmath.workdps(50):
            a, b = mpmath.mpf(alpha), mpmath.mpf(beta)
            exact = 2 * (a + 1) * (b + 1) * (4 + a + b)
            error = float(abs(c - exact) / exact)
        assert error <= 4 * np.finfo(float).eps


def _sympy_poly(family, n, x):
    # parameters in the fixtures are exact binary fractions, so Rational()
    # reproduces them without rounding
    if family.kind is FamilyKind.HERMITE:
        return sympy.hermite(n, x)
    if family.kind is FamilyKind.LAGUERRE:
        return sympy.assoc_laguerre(n, sympy.Rational(family.nu) - 1, x)
    return sympy.jacobi(n, sympy.Rational(family.alpha), sympy.Rational(family.beta), x)


class TestEvaluate:
    def test_hermite_n2_at_zero(self):
        # oracle: H_2 = 4x^2 - 2
        value, derivative = evaluate_with_derivative(hermite(), 2, 0.0)
        assert value == -2.0
        assert derivative == 0.0

    def test_legendre_n1(self):
        value, derivative = evaluate_with_derivative(jacobi(0.0, 0.0), 1, 0.0)
        assert value == 0.0
        assert derivative == 1.0

    def test_laguerre_nu1_n1_root_at_one(self):
        # oracle: L_1^(0) = 1 - x
        value, _ = evaluate_with_derivative(laguerre(1.0), 1, 1.0)
        assert value == 0.0

    @pytest.mark.parametrize(
        "family",
        [hermite(), laguerre(0.5), laguerre(3.0), jacobi(0.0, 0.0), jacobi(1.5, -0.25)],
        ids=lambda fam: fam.label(),
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 7])
    def test_against_symbolic_evaluation(self, family, n):
        x = sympy.Symbol("x")
        poly = sympy.expand(_sympy_poly(family, n, x))
        dpoly = sympy.diff(poly, x)
        for point in (-1.75, -0.3125, 0.0, 0.5, 2.25):
            # binary-exact points keep the symbolic oracle free of any
            # floating-point rounding of its own
            pt = sympy.Rational(point)
            want_value = float(poly.subs(x, pt))
            want_derivative = float(dpoly.subs(x, pt))
            value, derivative = evaluate_with_derivative(family, n, float(point))
            scale_v = max(abs(want_value), 1.0)
            scale_d = max(abs(want_derivative), 1.0)
            assert abs(value - want_value) <= 1e-12 * scale_v
            assert abs(derivative - want_derivative) <= 1e-12 * scale_d

    def test_sign_changes_alternate_across_computed_roots(self):
        for family in (hermite(), laguerre(2.0), jacobi(0.0, 0.0), jacobi(2.0, 3.0)):
            for n in range(1, 51):
                # ascending eigenvalues, from numpy as the oracle
                eigs = np.linalg.eigvalsh(jacobi_matrix(family, n).to_dense())
                probes = np.concatenate(
                    ([eigs[0] - 1.0], 0.5 * (eigs[:-1] + eigs[1:]), [eigs[-1] + 1.0])
                )
                # one batch per (family, N); the rescaled values keep their signs
                values, _, _ = _evaluate_scaled(step_table([family], [n]), np.full(n + 1, n), probes)
                signs = np.copysign(1.0, values)
                assert np.array_equal(signs[1:], -signs[:-1]), (family.label(), n)

    def test_overflow_raises_magnitude_error(self):
        with pytest.raises(MagnitudeError) as excinfo:
            evaluate_with_derivative(hermite(), 400, 500.0)
        assert excinfo.value.scale_hint is not None
        assert excinfo.value.scale_hint > 1024

    def test_overflow_inside_one_step_raises_magnitude_error(self):
        # 2e300 squared overflows before any rescale can act
        with pytest.raises(MagnitudeError):
            evaluate_with_derivative(hermite(), 3, 1e300)

    def test_large_but_representable_values_survive_rescaling(self):
        # big enough to trigger the internal rescale, small enough to fit
        value, derivative = evaluate_with_derivative(hermite(), 120, 40.0)
        assert math.isfinite(value) and math.isfinite(derivative)
        assert value > 0.0

    def test_n_zero_rejected(self):
        with pytest.raises(EmptyProblemError):
            evaluate_with_derivative(hermite(), 0, 1.0)


class TestOrthonormalPolynomials:
    # entries of mixed orders and recurrences, sorted by order, descending;
    # p_1 = (x - nu) / sqrt(nu) passes 2**500 at x = 30, nu = 1e-300
    FAMILIES = (hermite(), laguerre(2.0), jacobi(1.0, -0.9), laguerre(1e-300))
    ENTRIES = (
        (1, 12, 7.5), (0, 12, -1.25), (2, 9, 0.3), (3, 9, 30.0), (0, 5, 0.7),
        (3, 5, 0.5), (2, 3, -0.8), (1, 1, 2.0), (3, 1, 40.0),
    )

    def coefficients(self, top):
        table = np.zeros((2, len(self.FAMILIES), top))
        for f, family in enumerate(self.FAMILIES):
            t = jacobi_matrix(family, top)
            table[0, f], table[1, f, 1:] = t.diag, t.offdiag
        return table

    def test_each_entry_matches_its_pass_alone(self):
        which, orders, x = (np.array(column) for column in zip(*self.ENTRIES))
        top = int(orders[0])
        table = self.coefficients(top)
        rows, norm2 = orthonormal_polynomials(table, which, orders, x)
        assert rows.shape == (top, len(self.ENTRIES)) and norm2.shape == (len(self.ENTRIES),)
        for j, (f, n, xj) in enumerate(self.ENTRIES):
            alone, alone_norm2 = orthonormal_polynomials(table, np.array([f]), np.array([n]), np.array([xj]))
            assert alone.shape == (n, 1)
            # row top - 1 - k holds p_k, so the entry's p_{n-1} .. p_0 are
            # the last n rows of its column
            assert np.array_equal(rows[top - n:, j], alone[:, 0]), j
            assert np.array_equal(norm2[j], alone_norm2[0]), j
        # only the tiny-nu entry at x = 30 rescales, p_0 with it: at x =
        # 0.5 p_1 stays below 2**500, and an entry of order 1 takes no step
        assert np.flatnonzero(rows[top - 1] < 1.0).tolist() == [3]

    def test_unsorted_entries_raise(self):
        table = self.coefficients(5)
        with pytest.raises(InternalConsistencyError):
            orthonormal_polynomials(table, np.array([0, 1]), np.array([3, 5]), np.array([0.1, 0.2]))
