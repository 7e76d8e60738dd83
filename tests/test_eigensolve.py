import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootgaps import (
    ConvergenceError,
    DenseSymmetric,
    EmptyProblemError,
    MagnitudeError,
    ParameterDomainError,
    Spectrum,
    SymTridiagonal,
    compute_roots,
    dense_eigenvalues,
    hermite,
    jacobi_matrix,
    trace_power,
    tridiag_eigenvalues,
)
from rootgaps.covariance import build_S, eigenbasis
from rootgaps.eigensolve import _ql_implicit, enclose_eigenvalues

from conftest import all_families, ones_kernel_projection, random_symmetric


def _ql_on_numpy_scalars(d, e):
    """Reference: the eigenvalues-only QL loop on numpy scalars, reading
    and writing ``d`` and ``e`` directly.  ``_ql_implicit`` runs the same
    arithmetic on Python floats, so the bits must match."""
    n = d.size
    eps = np.finfo(float).eps
    for l in range(n):
        while True:
            for m in range(l, n - 1):
                if abs(e[m]) <= eps * (abs(d[m]) + abs(d[m + 1])):
                    break
            else:
                m = n - 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


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


class TestSpectrumType:
    def test_rejects_descending_eigenvalues(self):
        with pytest.raises(ParameterDomainError):
            Spectrum(np.array([2.0, 1.0]), 0.0)

    def test_rejects_negative_residual(self):
        with pytest.raises(ParameterDomainError):
            Spectrum(np.array([1.0]), -1.0)


class TestTridiagEigenvalues:
    def test_one_by_one(self):
        spectrum = tridiag_eigenvalues(SymTridiagonal(np.array([0.0]), np.array([])))
        assert spectrum.eigenvalues.tolist() == [0.0]
        assert spectrum.residual == 0.0

    def test_two_by_two_zero_diagonal(self):
        spectrum = tridiag_eigenvalues(SymTridiagonal(np.zeros(2), np.array([1.0])))
        np.testing.assert_allclose(spectrum.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_two_by_two_quadratic_oracle(self):
        # characteristic polynomial (2-x)(4-x) - 2 = x^2 - 6x + 6
        t = SymTridiagonal(np.array([2.0, 4.0]), np.array([math.sqrt(2.0)]))
        spectrum = tridiag_eigenvalues(t)
        disc = math.sqrt(36.0 - 24.0)
        expected = [(6.0 - disc) / 2.0, (6.0 + disc) / 2.0]
        np.testing.assert_allclose(spectrum.eigenvalues, expected, rtol=1e-15)

    def test_against_numpy_on_random_tridiagonals(self, rng):
        for n in (2, 3, 5, 9, 17, 40):
            t = SymTridiagonal(rng.normal(size=n), np.abs(rng.normal(size=n - 1)) + 0.1)
            spectrum = tridiag_eigenvalues(t)
            expected = np.linalg.eigvalsh(t.to_dense())
            scale = max(np.max(np.abs(expected)), 1.0)
            np.testing.assert_allclose(spectrum.eigenvalues, expected, rtol=0, atol=1e-13 * scale)
            assert spectrum.residual <= 1e-13

    def test_hermite_eigenvalue_symmetry(self):
        for n in range(2, 51):
            lam = tridiag_eigenvalues(jacobi_matrix(hermite(), n)).eigenvalues
            pair_defect = np.max(np.abs(lam + lam[::-1]))
            assert pair_defect <= 1e-12 * np.max(np.abs(lam))

    def test_python_float_kernel_matches_numpy_scalar_loop(self, rng):
        inputs = [jacobi_matrix(fam, n) for fam in all_families() for n in (2, 9, 40)]
        inputs += [
            SymTridiagonal(rng.normal(size=n), np.abs(rng.normal(size=n - 1)) + 0.1)
            for n in (2, 3, 17, 40)
        ]
        for t in inputs:
            d, e = t.diag.copy(), np.append(t.offdiag, 0.0)
            d_ref, e_ref = d.copy(), e.copy()
            _ql_implicit(d, e)
            _ql_on_numpy_scalars(d_ref, e_ref)
            assert np.array_equal(d, d_ref) and np.array_equal(e, e_ref)

    def test_sweep_cap_raises_convergence_error(self):
        d = np.zeros(3)
        e = np.array([1.0, 1.0, 0.0])
        with pytest.raises(ConvergenceError) as excinfo:
            _ql_implicit(d, e, max_sweeps=0)
        assert excinfo.value.stuck_index is not None


class TestDenseEigenvalues:
    def test_identity(self):
        spectrum = dense_eigenvalues(DenseSymmetric(np.eye(3)))
        np.testing.assert_array_equal(spectrum.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        spectrum = dense_eigenvalues(DenseSymmetric(np.diag([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(spectrum.eigenvalues, [1.0, 2.0, 3.0], atol=1e-15)

    def test_exchange_matrix_oracle(self):
        # characteristic polynomial x^2 - 1
        spectrum = dense_eigenvalues(DenseSymmetric(np.array([[0.0, 1.0], [1.0, 0.0]])))
        np.testing.assert_allclose(spectrum.eigenvalues, [-1.0, 1.0], atol=1e-15)

    def test_against_numpy_on_random_matrices(self, rng):
        for n in (2, 3, 4, 6, 8, 12, 25, 40):
            m = DenseSymmetric(random_symmetric(rng, n))
            spectrum = dense_eigenvalues(m)
            expected = np.linalg.eigvalsh(m.entries)
            scale = max(np.max(np.abs(expected)), 1.0)
            np.testing.assert_allclose(spectrum.eigenvalues, expected, rtol=0, atol=1e-12 * scale)
            assert spectrum.residual <= 1e-12


class TestSpectrumAgreesWithRoots:
    """The ``Spectrum`` solver (QL) and the roots path (Sturm bisection
    and Newton) share no code, so on the default-grid recurrence matrices
    they must agree to ``n eps ||T_n||``, the error model of each."""

    @pytest.mark.parametrize("n", [1, 2, 9, 40])
    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    def test_agree_on_default_families(self, family, n):
        t = jacobi_matrix(family, n)
        eigs = tridiag_eigenvalues(t).eigenvalues
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
        centers, radii = enclose_eigenvalues(DenseSymmetric(np.diag([3.0, 1.0, 2.0])), np.eye(3))
        assert centers.tolist() == [1.0, 2.0, 3.0]
        assert radii.tolist() == [0.0, 0.0, 0.0]

    def test_perturbed_eigenvectors_enclose_numpy_eigenvalues(self, rng):
        for n in (2, 5, 12, 25):
            a = random_symmetric(rng, n)
            lam, vectors = np.linalg.eigh(a)
            basis = vectors + 1e-6 * rng.normal(size=(n, n))
            basis /= np.linalg.norm(basis, axis=0)
            centers, radii = enclose_eigenvalues(DenseSymmetric(a), basis)
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
        s = build_S(compute_roots(hermite(), 2))
        corrupted = s.matrix.entries.copy()
        corrupted[0, 1] = corrupted[1, 0] = corrupted[0, 1] + 0.5
        centers, radii = enclose_eigenvalues(DenseSymmetric(corrupted), eigenbasis(s.roots))
        assert not disjoint(centers, radii)
        assert np.all(np.isfinite(centers)) and np.all(np.isfinite(radii))
        value = np.max((np.abs(centers - s.predicted) + radii) / s.predicted)
        assert value == pytest.approx(0.5) and value > 1e-8
        # overlapping intervals keep the residuals as radii, where r^2 / gap
        # would be negative: both unit vectors give 2 +- 1, around 1 and 3
        centers, radii = enclose_eigenvalues(DenseSymmetric(np.array([[2.0, 1.0], [1.0, 2.0]])), np.eye(2))
        assert centers.tolist() == [2.0, 2.0]
        assert radii.tolist() == [1.0, 1.0]


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

    def test_overflow_raises_magnitude_error(self):
        m = DenseSymmetric(np.full((2, 2), 1e60))
        with pytest.raises(MagnitudeError):
            trace_power(m, 8)

    def test_spectral_consistency(self, rng):
        # tr(m^k) against the eigenvalue power sum, two independent routes
        for _ in range(40):
            n = int(rng.integers(2, 13))
            m = DenseSymmetric(random_symmetric(rng, n))
            lam = dense_eigenvalues(m).eigenvalues
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
