import math

import numpy as np
import pytest

from rootgaps import (
    FamilyMismatchError,
    RootOrdering,
    compute_roots,
    gap_statistics,
    hermite,
    jacobi,
    jacobi_matrix,
    laguerre,
    to_sqrt_coordinates,
    tridiag_eigenvalues,
)
from rootgaps.families import _evaluate_scaled

from conftest import JACOBI_PARAMS, LAGUERRE_NUS, all_families


SWEEP_N = (1, 2, 3, 5, 8, 13, 21, 34, 50)


class TestKnownRoots:
    def test_hermite_n2(self):
        rv = compute_roots(hermite(), 2)
        assert rv.ordering is RootOrdering.HERMITE_DESCENDING
        expected = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(rv.roots, [expected, -expected], atol=1e-16)
        # known closed-form gap for N = 2
        assert abs((rv.roots[0] - rv.roots[1]) - math.sqrt(2.0)) <= 1e-15

    @pytest.mark.parametrize("nu", LAGUERRE_NUS)
    def test_laguerre_n1_root_is_nu(self, nu):
        rv = compute_roots(laguerre(nu), 1)
        assert rv.ordering is RootOrdering.LAGUERRE_DESCENDING
        assert abs(rv.roots[0] - nu) <= 1e-14 * nu

    @pytest.mark.parametrize("alpha,beta", JACOBI_PARAMS)
    def test_jacobi_n1_closed_form(self, alpha, beta):
        rv = compute_roots(jacobi(alpha, beta), 1)
        assert rv.ordering is RootOrdering.JACOBI_ASCENDING
        expected = (beta - alpha) / (alpha + beta + 2.0)
        assert abs(rv.roots[0] - expected) <= 1e-14 * max(1.0, abs(expected))


class TestOrderingAndInvariants:
    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    @pytest.mark.parametrize("n", SWEEP_N)
    def test_sweep_invariants(self, family, n):
        rv = compute_roots(family, n)
        assert rv.polish_skipped == ()
        roots = rv.roots
        if rv.ordering is RootOrdering.JACOBI_ASCENDING:
            assert np.all(np.diff(roots) > 0.0)
            assert np.all(np.abs(roots) < 1.0)
        else:
            assert np.all(np.diff(roots) < 0.0)
        if rv.family.kind.value == "laguerre":
            assert np.all(roots > 0.0)
        if rv.family.kind.value == "hermite":
            assert np.max(np.abs(roots + roots[::-1])) <= 1e-12 * np.max(np.abs(roots))

    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    @pytest.mark.parametrize("n", SWEEP_N)
    def test_polished_roots_are_numerical_roots(self, family, n):
        # |P(x)| <= 1e-12 |P'(x)| * local spacing, evaluated on the common
        # internal scale so huge polynomial values cannot overflow
        rv = compute_roots(family, n)
        roots = np.sort(rv.roots)
        for i, x in enumerate(roots):
            if n == 1:
                scale = max(1.0, abs(x))
            else:
                gaps = []
                if i > 0:
                    gaps.append(roots[i] - roots[i - 1])
                if i < n - 1:
                    gaps.append(roots[i + 1] - roots[i])
                scale = min(gaps)
            p, dp, _ = _evaluate_scaled(family, n, float(x))
            assert abs(p) <= 1e-12 * abs(dp) * scale, (family.label(), n, i)

    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    def test_interlacing_and_domain_invariants(self, family):
        previous = None
        for n in range(1, 51):
            rv = compute_roots(family, n)
            if family.kind.value == "laguerre":
                assert np.all(rv.roots > 0.0)
            elif family.kind.value == "jacobi":
                assert np.all(np.abs(rv.roots) < 1.0)
            else:
                assert np.max(np.abs(rv.roots + rv.roots[::-1])) <= 1e-12 * max(
                    np.max(np.abs(rv.roots)), 1.0
                )
            current = np.sort(rv.roots)
            if previous is not None:
                assert np.all(current[:-1] < previous)
                assert np.all(previous < current[1:])
            previous = current

    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    @pytest.mark.parametrize("n", (2, 5, 21, 50))
    def test_polish_stays_within_half_gap(self, family, n):
        raw = tridiag_eigenvalues(jacobi_matrix(family, n)).eigenvalues
        polished = np.sort(compute_roots(family, n).roots)
        half_gap = 0.5 * np.min(np.diff(raw))
        assert np.max(np.abs(polished - raw)) <= half_gap


class TestSqrtCoordinates:
    def test_nu2_n1(self):
        r = to_sqrt_coordinates(compute_roots(laguerre(2.0), 1))
        np.testing.assert_allclose(r.values, [2.0], rtol=1e-15)

    def test_nu_half_n1(self):
        r = to_sqrt_coordinates(compute_roots(laguerre(0.5), 1))
        np.testing.assert_allclose(r.values, [1.0], rtol=1e-15)

    @pytest.mark.parametrize("nu", LAGUERRE_NUS)
    @pytest.mark.parametrize("n", (1, 2, 7, 23, 50))
    def test_round_trip(self, nu, n):
        rv = compute_roots(laguerre(nu), n)
        r = to_sqrt_coordinates(rv)
        assert np.all(np.diff(r.values) < 0.0)
        np.testing.assert_allclose(r.values**2 / 2.0, rv.roots, rtol=1e-14)

    def test_rejects_other_families(self):
        with pytest.raises(FamilyMismatchError):
            to_sqrt_coordinates(compute_roots(hermite(), 3))


class TestGapStatistics:
    def test_hermite_n2(self):
        stats = gap_statistics(compute_roots(hermite(), 2))
        assert abs(stats.min_gap - math.sqrt(2.0)) <= 1e-15
        assert stats.boundary_low is None and stats.boundary_high is None

    def test_laguerre_n1(self):
        stats = gap_statistics(compute_roots(laguerre(3.0), 1))
        assert stats.min_gap is None
        assert abs(stats.boundary_low - 3.0) <= 1e-14
        assert stats.boundary_high is None

    def test_legendre_n2(self):
        stats = gap_statistics(compute_roots(jacobi(0.0, 0.0), 2))
        # oracle: roots of 3x^2 - 1 are +-1/sqrt(3)
        root = 1.0 / math.sqrt(3.0)
        assert abs(stats.min_gap - 2.0 * root) <= 1e-15
        assert abs(stats.boundary_low - (1.0 - root)) <= 1e-15
        assert abs(stats.boundary_high - (1.0 - root)) <= 1e-15


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the Laguerre recurrence and steps write k + nu - 1 and k + (nu - 1), "
    "which cancel nu at k = 1 when nu is tiny",
)
def test_laguerre_tiny_nu_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    nu, n = 1e-10, 3
    with mpmath.workdps(60):
        a = mpmath.mpf(nu) - 1
        # L_n^(a)(x) = sum_m (-1)^m binom(n + a, n - m) x^m / m!, highest power first
        coeffs = [
            (-1) ** m * mpmath.binomial(n + a, n - m) / mpmath.factorial(m)
            for m in range(n, -1, -1)
        ]
        exact = sorted(mpmath.polyroots(coeffs, maxsteps=200, extraprec=200), reverse=True)
        roots = compute_roots(laguerre(nu), n).roots
        worst = max(abs((mpmath.mpf(float(z)) - e) / e) for z, e in zip(roots, exact))
    # every root to a few ulps; today the smallest is off by 8.3e-8 relative
    assert float(worst) <= 4.0 * np.finfo(float).eps
