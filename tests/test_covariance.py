import dataclasses
import functools
import math

import numpy as np
import pytest

from rootgaps import (
    CoordinateForm,
    FamilyKind,
    FamilyMismatchError,
    SingularConfigurationError,
    compute_roots,
    dense_eigenvalues,
    diag_of_square,
    hermite,
    hermite_S,
    jacobi,
    jacobi_S,
    laguerre,
    laguerre_S,
    max_eigenvalue,
    predicted_spectrum,
)
from rootgaps import RootVector, covariance
from rootgaps.covariance import _pair_differences, eigenbasis
from rootgaps.roots import compute_roots_many
from rootgaps.eigensolve import enclose_eigenvalues

from conftest import JACOBI_PARAMS, LAGUERRE_NUS, all_families


def build_S(family, n):
    rv = compute_roots(family, n)
    if family.kind is FamilyKind.HERMITE:
        return hermite_S(rv)
    if family.kind is FamilyKind.LAGUERRE:
        return laguerre_S(rv)
    return jacobi_S(rv)


def spectral_error(cov):
    computed = dense_eigenvalues(cov.matrix).eigenvalues
    return float(np.max(np.abs(computed - cov.predicted) / cov.predicted))


def test_inverse_covariance_holds_roots_matrix_and_read_only_spectrum():
    rv = compute_roots(laguerre(2.0), 5)
    cov = laguerre_S(rv, CoordinateForm.SQRT_R)
    assert [field.name for field in dataclasses.fields(cov)] == ["roots", "matrix", "predicted"]
    assert cov.roots is rv
    with pytest.raises(ValueError):
        cov.predicted[0] = 0.0


class TestHermiteS:
    def test_n2_matrix_by_hand(self):
        # roots +-1/sqrt(2), squared distance 2, so off-diagonal -1/2
        cov = hermite_S(compute_roots(hermite(), 2))
        expected = np.array([[1.5, -0.5], [-0.5, 1.5]])
        np.testing.assert_allclose(cov.matrix.entries, expected, atol=1e-14)
        np.testing.assert_array_equal(cov.predicted, [1.0, 2.0])
        # 2x2 eigenvalues by hand: 3/2 -+ 1/2
        np.testing.assert_allclose(
            dense_eigenvalues(cov.matrix).eigenvalues, [1.0, 2.0], atol=1e-14
        )

    def test_n1_trivial_extension(self):
        cov = hermite_S(compute_roots(hermite(), 1))
        np.testing.assert_array_equal(cov.matrix.entries, [[1.0]])
        np.testing.assert_array_equal(cov.predicted, [1.0])

    def test_n3_spectrum(self):
        assert spectral_error(build_S(hermite(), 3)) <= 1e-12

    def test_row_sums_are_one(self):
        # diagonal equals 1 plus the negated off-diagonal row magnitudes
        for n in (2, 5, 17, 40):
            entries = build_S(hermite(), n).matrix.entries
            np.testing.assert_allclose(entries.sum(axis=1), np.ones(n), rtol=0, atol=1e-9)
            off = entries - np.diag(np.diag(entries))
            np.testing.assert_allclose(
                np.diag(entries), 1.0 + np.abs(off).sum(axis=1), rtol=1e-12
            )

    def test_rejects_other_families(self):
        with pytest.raises(FamilyMismatchError):
            hermite_S(compute_roots(laguerre(1.0), 2))


class TestLaguerreS:
    def test_n1_is_two(self):
        for nu in LAGUERRE_NUS:
            cov = laguerre_S(compute_roots(laguerre(nu), 1))
            np.testing.assert_allclose(cov.matrix.entries, [[2.0]], rtol=1e-14)
            np.testing.assert_array_equal(cov.predicted, [2.0])

    def test_n3_nu2_spectrum(self):
        assert spectral_error(build_S(laguerre(2.0), 3)) <= 1e-12

    @pytest.mark.parametrize("nu", LAGUERRE_NUS)
    @pytest.mark.parametrize("n", (1, 2, 5, 20, 40))
    def test_coordinate_forms_agree_entrywise(self, nu, n):
        rv = compute_roots(laguerre(nu), n)
        base = laguerre_S(rv, CoordinateForm.Z).matrix.entries
        alt = laguerre_S(rv, CoordinateForm.SQRT_R).matrix.entries
        scale = np.maximum(np.maximum(np.abs(base), np.abs(alt)), np.finfo(float).tiny)
        assert float(np.max(np.abs(base - alt) / scale)) <= 1e-13

    def test_rejects_other_families(self):
        with pytest.raises(FamilyMismatchError):
            laguerre_S(compute_roots(hermite(), 2))


class TestJacobiS:
    @pytest.mark.parametrize("alpha,beta", JACOBI_PARAMS)
    def test_n1_scalar_value(self, alpha, beta):
        cov = jacobi_S(compute_roots(jacobi(alpha, beta), 1))
        expected = 2.0 * (alpha + beta + 2.0)
        np.testing.assert_allclose(cov.matrix.entries, [[expected]], rtol=1e-12)
        np.testing.assert_allclose(cov.predicted, [expected], rtol=1e-15)

    def test_n2_legendre_spectrum(self):
        cov = build_S(jacobi(0.0, 0.0), 2)
        np.testing.assert_array_equal(cov.predicted, [8.0, 12.0])
        assert spectral_error(cov) <= 1e-12

    @pytest.mark.parametrize("alpha,beta", JACOBI_PARAMS)
    @pytest.mark.parametrize("n", (1, 3, 11, 40))
    def test_trace_matches_spectrum_sum(self, alpha, beta, n):
        cov = build_S(jacobi(alpha, beta), n)
        trace = float(np.trace(cov.matrix.entries))
        assert abs(trace - float(cov.predicted.sum())) <= 1e-10 * abs(trace)

    def test_rejects_other_families(self):
        with pytest.raises(FamilyMismatchError):
            jacobi_S(compute_roots(laguerre(1.0), 2))


class TestPredictedSpectrum:
    def test_hermite(self):
        np.testing.assert_array_equal(predicted_spectrum(hermite(), 4), [1, 2, 3, 4])

    def test_laguerre(self):
        np.testing.assert_array_equal(predicted_spectrum(laguerre(7.0), 3), [2, 4, 6])

    def test_jacobi_chebyshev_like(self):
        np.testing.assert_array_equal(predicted_spectrum(jacobi(-0.5, -0.5), 2), [6.0, 8.0])


class TestMaxEigenvalue:
    def test_legendre_n3(self):
        assert max_eigenvalue(0.0, 0.0, 3) == 24.0

    @pytest.mark.parametrize("alpha,beta", JACOBI_PARAMS)
    def test_n1_closed_form(self, alpha, beta):
        assert max_eigenvalue(alpha, beta, 1) == 2.0 * (alpha + beta + 2.0)

    @pytest.mark.parametrize("alpha,beta", JACOBI_PARAMS + ((-0.9, -0.9),))
    @pytest.mark.parametrize("n", (1, 2, 5, 17, 40))
    def test_scan_oracle_and_cap(self, alpha, beta, n):
        want = max(2.0 * j * (2 * n + alpha + beta + 1 - j) for j in range(1, n + 1))
        got = max_eigenvalue(alpha, beta, n)
        assert got == want
        assert got <= 2.0 * (n + (alpha + beta + 1.0) / 2.0) ** 2 * (1 + 1e-15)
        if alpha + beta + 1.0 >= 0.0:
            assert abs(got - 2.0 * n * (n + alpha + beta + 1.0)) <= 1e-12 * got


class TestDiagOfSquare:
    def test_hermite_n2_by_hand(self):
        # (S - I)^2 has diagonal (1/2)^2 + (1/2)^2 = 1/2 at both indices
        result = diag_of_square(build_S(hermite(), 2))
        np.testing.assert_allclose(result.values, [0.5, 0.5], rtol=1e-14)

    def test_laguerre_n1(self):
        result = diag_of_square(build_S(laguerre(2.0), 1))
        np.testing.assert_allclose(result.values, [1.0], rtol=1e-13)

    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    @pytest.mark.parametrize("n", (1, 2, 3, 7, 10))
    def test_two_routes_agree(self, family, n):
        result = diag_of_square(build_S(family, n))
        assert result.residual <= 1e-10
        assert np.all(result.values >= 0.0)


class TestTraceIdentities:
    @pytest.mark.parametrize("n", (2, 3, 10, 27, 40))
    def test_hermite_identities(self, n):
        from rootgaps.covariance import hermite_interaction_sums

        roots = compute_roots(hermite(), n).roots
        inv2, inv4 = hermite_interaction_sums(roots)
        linear = float(inv2.sum())
        assert abs(linear - n * (n - 1) / 2.0) <= 1e-10 * max(1.0, linear)
        square = float((inv2**2 + inv4).sum())
        target = n * (n - 1) * (2 * n - 1) / 6.0
        assert abs(square - target) <= 1e-10 * max(1.0, target)

    @pytest.mark.parametrize("nu", LAGUERRE_NUS)
    @pytest.mark.parametrize("n", (1, 2, 10, 40))
    def test_laguerre_identities(self, nu, n):
        from rootgaps.covariance import laguerre_interaction_sums

        roots = compute_roots(laguerre(nu), n).roots
        lin, cross = laguerre_interaction_sums(roots, nu)
        # the linear sum is tr(S - I), the sum of the odd spectrum 1, 3, ..., 2N-1
        linear = float(lin.sum())
        assert abs(linear - n * n) <= 1e-10 * n * n
        square = float((lin**2 + cross).sum())
        target = n * (2 * n - 1) * (2 * n + 1) / 3.0
        assert abs(square - target) <= 1e-10 * target


class TestSpectralMatchSweep:
    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    @pytest.mark.parametrize("n", (2, 5, 12, 20, 29, 40))
    def test_spectrum_matches_prediction(self, family, n):
        tol = 1e-8 if n <= 20 else 1e-6
        assert spectral_error(build_S(family, n)) <= tol


EIGENBASIS_FAMILIES = [
    hermite(), laguerre(0.1), laguerre(50.0),
    jacobi(-0.5, -0.5), jacobi(1.0, -0.9), jacobi(10.0, 10.0),
]
EPS = np.finfo(float).eps


def root_sensitivity(rv, s):
    """``||dS|| / (d ||S||)`` for the relative root change ``d`` of
    alternating sign, which moves each gap and each boundary distance by
    its relative condition number: the factor by which ulp-level root
    errors reach ``S``."""
    d = 2.0**-40
    moved = rv.roots * (1.0 + d * (-1.0) ** np.arange(rv.n))
    shifted = covariance.build_S(RootVector(rv.family, rv.n, moved)).matrix.entries
    return np.linalg.norm(shifted - s, 2) / (d * np.linalg.norm(s, 2))


class TestEigenbasis:
    """The closed-form eigenbasis against numpy.linalg.eigh/eigvalsh."""

    @pytest.mark.parametrize("n", (1, 2, 10, 40, 200))
    @pytest.mark.parametrize("family", EIGENBASIS_FAMILIES, ids=lambda fam: fam.label())
    def test_eigenbasis_residual_at_rounding_level(self, family, n):
        cov = build_S(family, n)
        rv, s, lam = cov.roots, cov.matrix.entries, cov.predicted
        (q,) = eigenbasis([rv])
        assert np.max(np.abs(q.T @ q - np.eye(n))) <= n * EPS
        # each column is an eigenvector of S at the exact roots; roots a few
        # ulps off move S by up to sensitivity * eps ||S||, and eigvalsh
        # shows how far that moved each eigenvalue from its prediction
        column = np.linalg.norm(s @ q - q * lam, axis=0)
        drift = np.abs(np.linalg.eigvalsh(s) - lam)
        budget = 4.0 * EPS * np.linalg.norm(s, 2) * (n + root_sensitivity(rv, s))
        assert np.all(column <= drift + budget)

    @pytest.mark.parametrize("n", (1, 2, 10, 40, 200))
    @pytest.mark.parametrize("family", EIGENBASIS_FAMILIES, ids=lambda fam: fam.label())
    def test_enclosure_holds_eigvalsh(self, family, n):
        cov = build_S(family, n)
        (basis,) = eigenbasis([cov.roots])
        centers, radii = enclose_eigenvalues(cov.matrix, basis)
        # disjoint residual intervals stay disjoint at the Kato-Temple radii
        assert np.all(centers[1:] - radii[1:] > centers[:-1] + radii[:-1])
        # eigvalsh is itself within n eps ||S|| of the true eigenvalues
        slack = n * EPS * np.linalg.norm(cov.matrix.entries, 2)
        lam = np.linalg.eigvalsh(cov.matrix.entries)
        assert np.all(np.abs(lam - centers) <= radii + slack)


def scalar_eigenbasis(z):
    """The per-point Lanczos that the batched ``eigenbasis`` replaced, kept
    as its reference: one point, one ``rows[:k] @ v`` per product, and no
    rule for a lost last column."""
    x = z.roots
    rows = np.empty((z.n, z.n))
    v = z.family.spec.omega(x)
    for k in range(z.n):
        if k:
            v = x * rows[k - 1]
            for _ in range(2):
                v = v - (rows[:k] @ v) @ rows[:k]
        rows[k] = v / math.sqrt(float(v @ v))
    return rows.T


@functools.cache
def mixed_batch():
    """One batch over every default-grid point (12 families, N = 1..40),
    interleaved by order, and two large stress points."""
    points = [(family, n) for n in range(1, 41) for family in all_families()]
    points += [(jacobi(-0.999, -0.999), 200), (laguerre(1000.0), 300)]
    roots = compute_roots_many(points)
    return roots, eigenbasis(roots)


class TestBatchedEigenbasis:
    def test_matches_scalar_lanczos_bit_for_bit(self):
        roots, bases = mixed_batch()
        assert len(bases) == len(roots) == 482
        for rv, q in zip(roots, bases):
            assert np.array_equal(q, scalar_eigenbasis(rv)), (rv.family.label(), rv.n)

    def test_basis_does_not_depend_on_the_batch(self):
        roots, bases = mixed_batch()
        for rv, q in zip(roots, bases):
            (alone,) = eigenbasis([rv])
            assert np.array_equal(alone, q), (rv.family.label(), rv.n)

    def test_empty_batch(self):
        assert eigenbasis([]) == []

    def test_lost_last_column_is_replaced_in_its_slice_only(self):
        # one order, one tiny-nu slice whose last column is lost and one
        # ordinary slice: only the lost column differs from the reference
        tiny, plain = compute_roots_many([(laguerre(1e-300), 10), (laguerre(2.0), 10)])
        q_tiny, q_plain = eigenbasis([tiny, plain])
        assert np.array_equal(q_plain, scalar_eigenbasis(plain))
        reference = scalar_eigenbasis(tiny)
        assert np.array_equal(q_tiny[:, :-1], reference[:, :-1])
        assert not np.array_equal(q_tiny[:, -1], reference[:, -1])
        assert np.max(np.abs(q_tiny.T @ q_tiny - np.eye(10))) <= 10 * EPS

    @pytest.mark.parametrize("n", (3, 10, 40))
    @pytest.mark.parametrize("nu", (1e-100, 1e-300))
    def test_tiny_nu_spectrum(self, nu, n):
        # omega = sqrt(z) spans more than 1e50 here, so z times the
        # next-to-last column carries the smallest root only below the
        # underflow level and the last column comes from the complement
        cov = build_S(laguerre(nu), n)
        (basis,) = eigenbasis([cov.roots])
        assert np.max(np.abs(basis.T @ basis - np.eye(n))) <= n * EPS
        centers, radii = enclose_eigenvalues(cov.matrix, basis)
        slack = n * EPS * np.linalg.norm(cov.matrix.entries, 2)
        lam = np.linalg.eigvalsh(cov.matrix.entries)
        assert np.all(np.abs(lam - centers) <= radii + slack)
        # the `spectrum-match` value of `verify`, against its tolerance
        value = np.max((np.abs(centers - cov.predicted) + radii) / cov.predicted)
        assert value <= (1e-8 if n <= 20 else 1e-6)


def test_coincident_roots_are_singular():
    with pytest.raises(SingularConfigurationError):
        _pair_differences(np.array([1.0, 1.0, 2.0]))
