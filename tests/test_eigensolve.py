import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootgaps import (
    DenseSymmetric,
    EmptyProblemError,
    MagnitudeError,
    ParameterDomainError,
    compute_roots,
    hermite,
    jacobi,
    jacobi_matrix,
    laguerre,
    trace_power,
)
from rootgaps.covariance import build_S
from rootgaps.eigensolve import enclose_eigenvalues

from conftest import all_families, closed_form_bases, enclose_one, ones_kernel_projection, random_symmetric


class TestDenseSymmetricType:
    def test_rejects_non_square(self):
        with pytest.raises(ParameterDomainError):
            DenseSymmetric(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ParameterDomainError):
            DenseSymmetric(np.array([[1.0, 2.0], [2.0 + 1e-15, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ParameterDomainError):
            DenseSymmetric(np.array([[np.inf]]))

    def test_rejects_empty(self):
        with pytest.raises(EmptyProblemError):
            DenseSymmetric(np.zeros((0, 0)))

    def test_entries_are_frozen(self):
        m = DenseSymmetric(np.eye(2))
        with pytest.raises(ValueError):
            m.entries[0, 0] = 3.0


class TestTridiagEigenvalues:
    """The eigenvalues of a recurrence matrix ``T_n`` are the roots of
    ``P_n``; the roots path finds them by Sturm bisection and Newton."""

    def test_one_by_one(self):
        assert jacobi_matrix(hermite(), 1).diag.tolist() == [0.0]
        assert compute_roots(hermite(), 1).roots.tolist() == [0.0]

    def test_two_by_two_zero_diagonal(self):
        # Legendre T_2 has zero diagonal and off-diagonal 1/sqrt(3)
        t = jacobi_matrix(jacobi(0.0, 0.0), 2)
        assert t.diag.tolist() == [0.0, 0.0]
        expected = 1.0 / math.sqrt(3.0)
        np.testing.assert_allclose(compute_roots(jacobi(0.0, 0.0), 2).roots, [-expected, expected], atol=1e-15)

    def test_two_by_two_quadratic_oracle(self):
        # Laguerre nu = 1: T_2 = [[1, 1], [1, 3]], characteristic
        # polynomial (1-x)(3-x) - 1 = x^2 - 4x + 2; roots come descending
        t = jacobi_matrix(laguerre(1.0), 2)
        assert t.diag.tolist() == [1.0, 3.0] and t.offdiag.tolist() == [1.0]
        disc = math.sqrt(16.0 - 8.0)
        expected = [(4.0 + disc) / 2.0, (4.0 - disc) / 2.0]
        np.testing.assert_allclose(compute_roots(laguerre(1.0), 2).roots, expected, rtol=1e-15)

    def test_against_numpy_on_random_tridiagonals(self, rng):
        # recurrence matrices off the default grid, against eigvalsh to
        # n eps ||T_n||, as in TestSpectrumAgreesWithRoots
        for trial in range(20):
            if trial % 2:
                family = laguerre(rng.uniform(0.05, 10.0))
            else:
                family = jacobi(rng.uniform(-0.95, 5.0), rng.uniform(-0.95, 5.0))
            for n in (2, 3, 5, 9, 17, 40):
                t = jacobi_matrix(family, n).to_dense()
                expected = np.linalg.eigvalsh(t)
                roots = np.sort(compute_roots(family, n).roots)
                bound = n * np.finfo(float).eps * np.linalg.norm(t, 2)
                assert np.all(np.abs(roots - expected) <= bound), (family.label(), n)


class TestDenseEigenvalues:
    """``enclose_eigenvalues`` reads the eigenvalues of a dense symmetric
    matrix off exact or numerical eigenvectors."""

    def test_identity(self):
        centers, radii = enclose_one(DenseSymmetric(np.eye(3)), np.eye(3))
        assert centers.tolist() == [1.0, 1.0, 1.0]
        assert radii.tolist() == [0.0, 0.0, 0.0]

    def test_exchange_matrix_oracle(self):
        # characteristic polynomial x^2 - 1, eigenvectors (1, -1) and (1, 1)
        basis = np.array([[1.0, 1.0], [-1.0, 1.0]]) / math.sqrt(2.0)
        centers, radii = enclose_one(DenseSymmetric(np.array([[0.0, 1.0], [1.0, 0.0]])), basis)
        np.testing.assert_allclose(centers, [-1.0, 1.0], atol=1e-15)
        assert np.all(radii <= 1e-15)

    def test_against_numpy_on_random_matrices(self, rng):
        for n in (2, 3, 4, 6, 8, 12, 25, 40):
            a = random_symmetric(rng, n)
            expected, vectors = np.linalg.eigh(a)
            centers, radii = enclose_one(DenseSymmetric(a), vectors)
            scale = max(np.max(np.abs(expected)), 1.0)
            np.testing.assert_allclose(centers, expected, rtol=0, atol=1e-12 * scale)
            assert np.all(radii <= 1e-12 * scale)


class TestSpectrumAgreesWithRoots:
    """``numpy.linalg.eigvalsh`` and the roots path (Sturm bisection and
    Newton) share no code, so on the default-grid recurrence matrices
    they must agree to ``n eps ||T_n||``, the error model of each."""

    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    def test_agree_on_default_families(self, family, n):
        t = jacobi_matrix(family, n)
        eigs = np.linalg.eigvalsh(t.to_dense())
        roots = compute_roots(family, n).roots
        ascending = roots if family.spec.ascending else roots[::-1]
        bound = n * np.finfo(float).eps * np.linalg.norm(t.to_dense(), 2)
        assert np.all(np.abs(ascending - eigs) <= bound)


def disjoint(centers, radii):
    # the returned intervals are disjoint exactly when the residual ones
    # were: Kato-Temple only shrinks them, and overlapping ones are returned
    return bool(np.all(centers[1:] - radii[1:] > centers[:-1] + radii[:-1]))


class TestEncloseEigenvalues:
    def test_exact_eigenvectors_give_points(self):
        centers, radii = enclose_one(DenseSymmetric(np.diag([3.0, 1.0, 2.0])), np.eye(3))
        assert centers.tolist() == [1.0, 2.0, 3.0]
        assert radii.tolist() == [0.0, 0.0, 0.0]

    def test_perturbed_eigenvectors_enclose_numpy_eigenvalues(self, rng):
        for n in (2, 5, 12, 25):
            a = random_symmetric(rng, n)
            lam, vectors = np.linalg.eigh(a)
            basis = vectors + 1e-6 * rng.normal(size=(n, n))
            basis /= np.linalg.norm(basis, axis=0)
            centers, radii = enclose_one(DenseSymmetric(a), basis)
            assert disjoint(centers, radii)
            # eigvalsh is itself within n eps ||a|| of the true eigenvalues
            slack = n * np.finfo(float).eps * np.linalg.norm(a, 2)
            assert np.all(np.abs(lam - centers) <= radii + slack)
            # Kato-Temple radii are second order in the 1e-6 eigenvector
            # error; the residuals themselves are first order, above 1e-6
            assert np.max(radii) <= 1e-8

    def test_overlapping_intervals_stay_finite(self):
        # the corrupted Hermite N = 2 matrix of `verify --corrupt` is 1.5 I:
        # both residual intervals are the point 1.5, so they overlap, and a
        # Kato-Temple radius would be 0/0
        rv = compute_roots(hermite(), 2)
        corrupted = build_S(rv).entries.copy()
        corrupted[0, 1] = corrupted[1, 0] = corrupted[0, 1] + 0.5
        centers, radii = enclose_one(DenseSymmetric(corrupted), closed_form_bases([rv])[0])
        assert not disjoint(centers, radii)
        assert np.all(np.isfinite(centers)) and np.all(np.isfinite(radii))
        predicted = np.array([1.0, 2.0])
        value = np.max((np.abs(centers - predicted) + radii) / predicted)
        assert value == pytest.approx(0.5) and value > 1e-8
        # overlapping intervals keep the residuals as radii, where r^2 / gap
        # would be negative: both unit vectors give 2 +- 1, around 1 and 3
        centers, radii = enclose_one(DenseSymmetric(np.array([[2.0, 1.0], [1.0, 2.0]])), np.eye(2))
        assert centers.tolist() == [2.0, 2.0]
        assert radii.tolist() == [1.0, 1.0]


class TestEncloseStack:
    def test_kato_temple_is_decided_per_slice(self, rng):
        # slice 0: perturbed eigenvectors, disjoint intervals; slice 1: two
        # unit vectors of a 2 +- 1 block, overlapping; slice 2: 1.5 I, three
        # point intervals at one center, where a Kato-Temple radius would
        # be 0/0
        a = random_symmetric(rng, 3)
        _, vectors = np.linalg.eigh(a)
        perturbed = vectors + 1e-6 * rng.normal(size=(3, 3))
        perturbed /= np.linalg.norm(perturbed, axis=0)
        block = np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
        matrices = np.stack([a, block, 1.5 * np.eye(3)])
        bases = np.stack([perturbed, np.eye(3), np.eye(3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            centers, radii = enclose_eigenvalues(matrices, bases)
        assert disjoint(centers[0], radii[0])
        assert np.max(radii[0]) <= 1e-8
        assert centers[1].tolist() == [2.0, 2.0, 5.0] and radii[1].tolist() == [1.0, 1.0, 0.0]
        assert centers[2].tolist() == [1.5] * 3 and radii[2].tolist() == [0.0] * 3
        for p in range(3):
            alone = enclose_eigenvalues(matrices[p:p + 1], bases[p:p + 1])
            assert np.array_equal(alone[0][0], centers[p]) and np.array_equal(alone[1][0], radii[p])

    @pytest.mark.parametrize("bad", ["inf", "nan", "asymmetric"])
    def test_a_bad_slice_raises(self, bad):
        matrices = np.stack([np.eye(3), np.eye(3)])
        if bad == "asymmetric":
            matrices[1, 0, 2] = 0.5
        else:
            matrices[1, 0, 2] = matrices[1, 2, 0] = float(bad)
        with pytest.raises(ParameterDomainError):
            enclose_eigenvalues(matrices, np.stack([np.eye(3), np.eye(3)]))


class TestTracePower:
    def test_identity(self):
        assert trace_power(DenseSymmetric(np.eye(4)), 5) == 4.0

    def test_diagonal(self):
        assert trace_power(DenseSymmetric(np.diag([1.0, 2.0])), 2) == 5.0

    def test_exchange_matrix_direct_multiplication(self):
        assert trace_power(DenseSymmetric(np.array([[0.0, 1.0], [1.0, 0.0]])), 2) == 2.0

    def test_rejects_nonpositive_power(self):
        m = DenseSymmetric(np.eye(2))
        with pytest.raises(ParameterDomainError):
            trace_power(m, 0)
        with pytest.raises(ParameterDomainError):
            trace_power(m, -3)

    def test_rejects_a_bool_power(self):
        # bool is an int subclass: True read as tr(m)
        with pytest.raises(ParameterDomainError):
            trace_power(DenseSymmetric(np.eye(2)), True)

    def test_overflow_raises_magnitude_error(self):
        m = DenseSymmetric(np.full((2, 2), 1e60))
        with pytest.raises(MagnitudeError):
            trace_power(m, 8)

    def test_spectral_consistency(self, rng):
        # tr(m^k) against the eigenvalue power sum, two independent routes
        for _ in range(40):
            n = int(rng.integers(2, 13))
            m = DenseSymmetric(random_symmetric(rng, n))
            lam = np.linalg.eigvalsh(m.entries)
            for k in (1, 2, 4, 8):
                direct = trace_power(m, k)
                spectral = float(np.sum(lam**k))
                budget = 1e-9 * float(np.sum(np.abs(lam) ** k))
                assert abs(direct - spectral) <= max(budget, 1e-12)


class TestTraceInequalities:
    """tr(B^(2^r)) dominates the diagonal power sum, with a sharper
    constant when (1,...,1) spans the kernel."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=2, max_value=10), seed=st.integers(0, 2**32 - 1))
    def test_plain_diagonal_domination(self, n, seed):
        rng = np.random.default_rng(seed)
        b = DenseSymmetric(random_symmetric(rng, n))
        for r in range(4):
            lhs = trace_power(b, 2**r)
            rhs = float(np.sum(np.diag(b.entries) ** (2**r)))
            assert lhs - rhs >= -1e-12 * max(1.0, abs(lhs))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(min_value=2, max_value=10), seed=st.integers(0, 2**32 - 1))
    def test_projected_diagonal_domination(self, n, seed):
        rng = np.random.default_rng(seed)
        b = DenseSymmetric(ones_kernel_projection(random_symmetric(rng, n)))
        factor = n / (n - 1)
        for r in range(4):
            lhs = trace_power(b, 2**r)
            rhs = factor ** (2**r - 1) * float(np.sum(np.diag(b.entries) ** (2**r)))
            assert lhs - rhs >= -1e-12 * max(1.0, abs(lhs))
