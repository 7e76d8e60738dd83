import functools
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest
import sympy

from rootgaps import (
    FamilyKind,
    FamilyMismatchError,
    SingularConfigurationError,
    build_S,
    compute_roots,
    hermite,
    interaction_sums,
    jacobi,
    jacobi_matrix,
    laguerre,
    laguerre_sqrt_r_S,
)
from rootgaps import RootVector, covariance
from rootgaps.covariance import _pair_differences, eigenbasis_stack
from rootgaps.roots import compute_roots_many

from conftest import JACOBI_PARAMS, LAGUERRE_NUS, all_families, closed_form_bases, enclose_one


def spectrum(family, n):
    return family.spec.spectrum(n, *family.parameters())


def covariance_of(family, n):
    """The roots of ``P_n``, the entries of their ``S_N`` and its predicted
    spectrum."""
    rv = compute_roots(family, n)
    return rv, build_S(rv).entries, spectrum(family, n)


def spectral_error(family, n):
    _, s, lam = covariance_of(family, n)
    return float(np.max(np.abs(np.linalg.eigvalsh(s) - lam) / lam))


def coordinate_form_error(rv):
    """Worst relative entrywise disagreement of the two Laguerre forms."""
    base = build_S(rv).entries
    alt = laguerre_sqrt_r_S(rv).entries
    scale = np.maximum(np.maximum(np.abs(base), np.abs(alt)), np.finfo(float).tiny)
    return float(np.max(np.abs(base - alt) / scale))


def max_eigenvalue(alpha, beta, n):
    return float(spectrum(jacobi(alpha, beta), n)[-1])


def exact_jacobi_spectrum(n, alpha, beta):
    """``2j(2n + alpha + beta + 1 - j)``, ``j = 1 .. n``, as exact rationals
    of the binary ``alpha`` and ``beta``."""
    a, b = Fraction(alpha), Fraction(beta)
    return [2 * j * (2 * n + a + b + 1 - j) for j in range(1, n + 1)]


def within_one_ulp(got, exact):
    """Whether the float ``got`` is at most one float from the rational
    ``exact`` rounded to nearest."""
    want = float(exact)
    return want in (math.nextafter(got, -math.inf), got, math.nextafter(got, math.inf))


def diag_of_square(rv):
    """The diagonal of the squared shifted ``S_N`` from the interaction
    sums, and its worst relative disagreement with the explicit square."""
    lin, cross = interaction_sums(rv)
    closed = lin * lin + cross
    shift = np.array([rv.family.spec.shift])
    (residual,) = covariance.diag_square_residual(build_S(rv).entries[None], shift, closed[None])
    return closed, float(residual)


class TestHermiteS:
    def test_n2_matrix_by_hand(self):
        # roots +-1/sqrt(2), squared distance 2, so off-diagonal -1/2
        _, s, lam = covariance_of(hermite(), 2)
        expected = np.array([[1.5, -0.5], [-0.5, 1.5]])
        np.testing.assert_allclose(s, expected, atol=1e-14)
        np.testing.assert_array_equal(lam, [1.0, 2.0])
        # 2x2 eigenvalues by hand: 3/2 -+ 1/2
        np.testing.assert_allclose(np.linalg.eigvalsh(s), [1.0, 2.0], atol=1e-14)

    def test_n1_trivial_extension(self):
        _, s, lam = covariance_of(hermite(), 1)
        np.testing.assert_array_equal(s, [[1.0]])
        np.testing.assert_array_equal(lam, [1.0])

    def test_n3_spectrum(self):
        assert spectral_error(hermite(), 3) <= 1e-12

    def test_row_sums_are_one(self):
        # diagonal equals 1 plus the negated off-diagonal row magnitudes
        for n in (2, 5, 17, 40):
            _, entries, _ = covariance_of(hermite(), n)
            np.testing.assert_allclose(entries.sum(axis=1), np.ones(n), rtol=0, atol=1e-9)
            off = entries - np.diag(np.diag(entries))
            np.testing.assert_allclose(
                np.diag(entries), 1.0 + np.abs(off).sum(axis=1), rtol=1e-12
            )


class TestLaguerreS:
    def test_n1_is_two(self):
        for nu in LAGUERRE_NUS:
            _, s, lam = covariance_of(laguerre(nu), 1)
            np.testing.assert_allclose(s, [[2.0]], rtol=1e-14)
            np.testing.assert_array_equal(lam, [2.0])

    def test_n3_nu2_spectrum(self):
        assert spectral_error(laguerre(2.0), 3) <= 1e-12

    @pytest.mark.parametrize("nu", LAGUERRE_NUS)
    @pytest.mark.parametrize("n", (1, 2, 5, 20, 40))
    def test_coordinate_forms_agree_entrywise(self, nu, n):
        assert coordinate_form_error(compute_roots(laguerre(nu), n)) <= 1e-13

    @pytest.mark.parametrize(
        "nu,n",
        [(0.01, 100), (1e-6, 100)] + [(nu, n) for nu in (1e-50, 1e-100, 1e-300) for n in (3, 10, 40)],
    )
    def test_coordinate_forms_agree_at_small_nu(self, nu, n):
        # the smallest root is tiny against the others, so the r-form
        # off-diagonal must not be a difference of the two inverse squares
        assert coordinate_form_error(compute_roots(laguerre(nu), n)) <= 1e-13

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="FOUND in CHANGES.md: coordinate-forms-match at Laguerre nu = 1000, N = 300",
    )
    def test_coordinate_forms_agree_at_large_nu(self):
        assert coordinate_form_error(compute_roots(laguerre(1000.0), 300)) <= 1e-13

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP items 5 and 9: coordinate-forms-match fails at every default nu"
        " from N = 600 (1.24e-13 at nu = 2), as r_i - r_j from rounded r loses digits",
    )
    @pytest.mark.parametrize("nu", LAGUERRE_NUS)
    def test_coordinate_forms_agree_at_large_n(self, nu):
        assert coordinate_form_error(compute_roots(laguerre(nu), 600)) <= 1e-13

    def test_rejects_other_families(self):
        with pytest.raises(FamilyMismatchError):
            laguerre_sqrt_r_S(compute_roots(hermite(), 2))


class TestJacobiS:
    @pytest.mark.parametrize("alpha,beta", JACOBI_PARAMS)
    def test_n1_scalar_value(self, alpha, beta):
        _, s, lam = covariance_of(jacobi(alpha, beta), 1)
        expected = 2.0 * (alpha + beta + 2.0)
        np.testing.assert_allclose(s, [[expected]], rtol=1e-12)
        np.testing.assert_allclose(lam, [expected], rtol=1e-15)

    def test_n2_legendre_spectrum(self):
        np.testing.assert_array_equal(spectrum(jacobi(0.0, 0.0), 2), [8.0, 12.0])
        assert spectral_error(jacobi(0.0, 0.0), 2) <= 1e-12

    @pytest.mark.parametrize("alpha,beta", JACOBI_PARAMS)
    @pytest.mark.parametrize("n", (1, 3, 11, 40))
    def test_trace_matches_spectrum_sum(self, alpha, beta, n):
        _, s, lam = covariance_of(jacobi(alpha, beta), n)
        trace = float(np.trace(s))
        assert abs(trace - float(lam.sum())) <= 1e-10 * abs(trace)


# The roots minimize a log-gas energy W on the ordered chamber, and S_N is
# its Hessian there (item 14 of the roadmap); each identity below is
# algebraic, so it holds at any point of the chamber:
#   Hermite   W = sum z^2/2 - sum_{i<j} log|z_i - z_j|, and S_N = H;
#   Laguerre  W = sum r^2/4 - sum_{i<j} log|r_i^2 - r_j^2| - nu sum log r
#             in r = sqrt(2z), and the r-form of S_N is 2H;
#   Jacobi    W = -sum_{i<j} log|z_i - z_j| - (alpha+1)/2 sum log(1 - z)
#             - (beta+1)/2 sum log(1 + z), and S_N = D^1/2 H D^1/2 with
#             D = diag(4(1 - z)(1 + z)).
LOG_GAS_N = 5


@functools.lru_cache(maxsize=None)
def log_gas(kind):
    """``(x, params, weight, hessian)``: the coordinates and parameters of
    the kind's ``W`` as sympy symbols, the factor ``sqrt(D_i D_j)`` of each
    entry and the Hessian of ``W``, each a function of them."""
    n = LOG_GAS_N
    x = sympy.symbols(f"x:{n}")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # log|u| as log(u^2) / 2, which sympy differentiates without a sign
    if kind is FamilyKind.HERMITE:
        params = ()
        w = sum(xi**2 / 2 for xi in x) - sum(sympy.log((x[i] - x[j]) ** 2) / 2 for i, j in pairs)
        weight = [sympy.Integer(1)] * n
    elif kind is FamilyKind.LAGUERRE:
        params = (nu,) = (sympy.Symbol("nu"),)
        w = sum(xi**2 / 4 - nu * sympy.log(xi) for xi in x)
        w -= sum(sympy.log((x[i] ** 2 - x[j] ** 2) ** 2) / 2 for i, j in pairs)
        weight = [sympy.sqrt(2)] * n
    else:
        params = alpha, beta = sympy.symbols("alpha beta")
        w = -sum(sympy.log((x[i] - x[j]) ** 2) / 2 for i, j in pairs)
        w -= sum((alpha + 1) / 2 * sympy.log(1 - xi) + (beta + 1) / 2 * sympy.log(1 + xi) for xi in x)
        weight = [sympy.sqrt(4 * (1 - xi) * (1 + xi)) for xi in x]
    hessian = sympy.hessian(w, x)
    return x, params, weight, hessian


class TestLogGasHessian:
    @pytest.mark.parametrize(
        "family", [hermite(), laguerre(0.1), laguerre(50.0), jacobi(1.0, -0.9), jacobi(-0.999, 5.0)],
        ids=lambda fam: fam.label(),
    )
    def test_S_is_the_hessian_at_random_points_of_the_chamber(self, family, rng):
        n = LOG_GAS_N
        x, params, weight, hessian = log_gas(family.kind)
        lo, hi = max(family.spec.domain[0], -4.0), min(family.spec.domain[1], 20.0)
        for _ in range(3):
            z = np.sort(rng.uniform(lo, hi, n))
            rv = RootVector(family, n, z if family.spec.ascending else z[::-1])
            if family.kind is FamilyKind.LAGUERRE:
                # the r-form, evaluated at the r it computes
                got, coordinates = laguerre_sqrt_r_S(rv).entries, np.sqrt(2.0 * rv.roots)
            else:
                got, coordinates = build_S(rv).entries, rv.roots
            # exact rationals of the binary coordinates and parameters
            values = dict(zip(x, map(sympy.Rational, coordinates.tolist())))
            values.update(zip(params, map(sympy.Rational, family.parameters())))
            scale = [f.subs(values) for f in weight]
            want = np.array(
                [[float((scale[i] * scale[j] * hessian[i, j].subs(values)).evalf(30)) for j in range(n)] for i in range(n)]
            )
            # each entry is a row sum of n terms, rounded once each
            assert np.max(np.abs(got - want)) <= 4 * n * EPS * np.max(np.abs(want)), (family.label(), z)


class TestPredictedSpectrum:
    def test_hermite(self):
        np.testing.assert_array_equal(spectrum(hermite(), 4), [1, 2, 3, 4])

    def test_laguerre(self):
        np.testing.assert_array_equal(spectrum(laguerre(7.0), 3), [2, 4, 6])

    def test_jacobi_chebyshev_like(self):
        np.testing.assert_array_equal(spectrum(jacobi(-0.5, -0.5), 2), [6.0, 8.0])


class TestMaxEigenvalue:
    def test_legendre_n3(self):
        assert max_eigenvalue(0.0, 0.0, 3) == 24.0

    @pytest.mark.parametrize("alpha,beta", JACOBI_PARAMS)
    def test_n1_closed_form(self, alpha, beta):
        assert max_eigenvalue(alpha, beta, 1) == 2.0 * (alpha + beta + 2.0)

    @pytest.mark.parametrize("alpha,beta", JACOBI_PARAMS + ((-0.9, -0.9),))
    @pytest.mark.parametrize("n", (1, 2, 5, 17, 40))
    def test_scan_oracle_and_cap(self, alpha, beta, n):
        got = max_eigenvalue(alpha, beta, n)
        assert within_one_ulp(got, max(exact_jacobi_spectrum(n, alpha, beta)))
        assert got <= 2.0 * (n + (alpha + beta + 1.0) / 2.0) ** 2 * (1 + 1e-15)
        if alpha + beta + 1.0 >= 0.0:
            assert abs(got - 2.0 * n * (n + alpha + beta + 1.0)) <= 1e-12 * got


    # the default pairs and alpha, beta near -1, where 2N + alpha + beta + 1
    # cancelled, at the CI's symmetric N = 1 point and at large orders
    @pytest.mark.parametrize(
        "alpha,beta",
        JACOBI_PARAMS + ((-0.999, -0.999), (0.7734820617942575, 0.7734820617942575), (-0.9999, 5.0), (-0.9, -0.9)),
    )
    def test_every_value_is_within_one_ulp_of_the_exact_one(self, alpha, beta):
        for n in [*range(1, 41), 100, 200, 300]:
            got = spectrum(jacobi(alpha, beta), n).tolist()
            for j, (value, exact) in enumerate(zip(got, exact_jacobi_spectrum(n, alpha, beta)), 1):
                assert within_one_ulp(value, exact), (n, j)


class TestDiagOfSquare:
    def test_hermite_n2_by_hand(self):
        # (S - I)^2 has diagonal (1/2)^2 + (1/2)^2 = 1/2 at both indices
        values, _ = diag_of_square(compute_roots(hermite(), 2))
        np.testing.assert_allclose(values, [0.5, 0.5], rtol=1e-14)

    def test_laguerre_n1(self):
        values, _ = diag_of_square(compute_roots(laguerre(2.0), 1))
        np.testing.assert_allclose(values, [1.0], rtol=1e-13)

    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    @pytest.mark.parametrize("n", (1, 2, 3, 7, 10))
    def test_two_routes_agree(self, family, n):
        values, residual = diag_of_square(compute_roots(family, n))
        assert residual <= 1e-10
        assert np.all(values >= 0.0)


class TestTraceIdentities:
    @pytest.mark.parametrize("n", (2, 3, 10, 27, 40))
    def test_hermite_identities(self, n):
        inv2, inv4 = interaction_sums(compute_roots(hermite(), n))
        linear = float(inv2.sum())
        assert abs(linear - n * (n - 1) / 2.0) <= 1e-10 * max(1.0, linear)
        square = float((inv2**2 + inv4).sum())
        target = n * (n - 1) * (2 * n - 1) / 6.0
        assert abs(square - target) <= 1e-10 * max(1.0, target)

    @pytest.mark.parametrize("nu", LAGUERRE_NUS)
    @pytest.mark.parametrize("n", (1, 2, 10, 40))
    def test_laguerre_identities(self, nu, n):
        lin, cross = interaction_sums(compute_roots(laguerre(nu), n))
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
        assert spectral_error(family, n) <= tol


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
    shifted = build_S(RootVector(rv.family, rv.n, moved)).entries
    return np.linalg.norm(shifted - s, 2) / (d * np.linalg.norm(s, 2))


class TestEigenbasis:
    """The closed-form eigenbasis against numpy.linalg.eigh/eigvalsh."""

    @pytest.mark.parametrize("n", (1, 2, 10, 40, 200))
    @pytest.mark.parametrize("family", EIGENBASIS_FAMILIES, ids=lambda fam: fam.label())
    def test_eigenbasis_residual_at_rounding_level(self, family, n):
        rv, s, lam = covariance_of(family, n)
        (q,) = closed_form_bases([rv])
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
        rv = compute_roots(family, n)
        s = build_S(rv)
        (basis,) = closed_form_bases([rv])
        centers, radii = enclose_one(s, basis)
        # disjoint residual intervals stay disjoint at the Kato-Temple radii
        assert np.all(centers[1:] - radii[1:] > centers[:-1] + radii[:-1])
        # eigvalsh is itself within n eps ||S|| of the true eigenvalues
        slack = n * EPS * np.linalg.norm(s.entries, 2)
        lam = np.linalg.eigvalsh(s.entries)
        assert np.all(np.abs(lam - centers) <= radii + slack)


def bases_by_order(roots):
    """The closed-form eigenbasis of each root vector, of any orders, in
    order: ``eigenbasis_stack`` of each order's points, one slice each,
    all the orders' groups one band, whose recurrence runs once, as
    ``verify`` runs a band."""
    bases = [None] * len(roots)
    members = list(covariance.by_order(roots).values())
    band = covariance.OrthonormalBand([[roots[i] for i in indices] for indices in members])
    for g, indices in enumerate(members):
        for i, basis in zip(indices, eigenbasis_stack(*band.rows(g))):
            bases[i] = basis
    return bases


def scalar_eigenbasis(z):
    """The recurrence and polar step of the batched ``eigenbasis_stack`` on
    one point, as its reference: the coefficients of the point's own
    ``jacobi_matrix``, the rescaling test at every row from row 1, root by
    root, and 2-D products."""
    x, n = z.roots, z.n
    t = jacobi_matrix(z.family, n)
    a, b = t.diag, np.concatenate(([0.0], t.offdiag))
    rows = np.empty((n, n))  # rows[k] holds p_k at the roots
    rows[0] = 1.0
    prev, cur, norm2 = np.zeros(n), np.ones(n), np.ones(n)
    for k in range(n - 1):
        new = ((x - a[k]) * cur - b[k] * prev) / b[k + 1]
        for i in np.flatnonzero(np.abs(new) > 2.0**500):
            new[i] *= 2.0**-500
            cur[i] *= 2.0**-500
            rows[:k + 1, i] *= 2.0**-500
            norm2[i] *= 2.0**-1000
        rows[k + 1] = new
        norm2 += new * new
        prev, cur = cur, new
    transposed = rows[::-1] / np.copysign(np.sqrt(norm2), cur)
    q = np.ascontiguousarray(transposed.T)
    return q @ (3.0 * np.eye(n) - transposed @ q) / 2.0


@functools.cache
def mixed_batch():
    """One batch over every default-grid point (12 families, N = 1..40),
    interleaved by order, two large stress points, and two tiny-nu points
    whose recurrence rescales its larger roots from row 1 on."""
    points = [(family, n) for n in range(1, 41) for family in all_families()]
    points += [(jacobi(-0.999, -0.999), 200), (laguerre(1000.0), 300)]
    points += [(laguerre(1e-300), 10), (laguerre(1e-310), 2)]
    roots = compute_roots_many(points)
    return roots, bases_by_order(roots)


class TestBatchedEigenbasis:
    def test_matches_scalar_recurrence_bit_for_bit(self):
        roots, bases = mixed_batch()
        assert len(bases) == len(roots) == 484
        for rv, q in zip(roots, bases):
            assert np.array_equal(q, scalar_eigenbasis(rv)), (rv.family.label(), rv.n)

    def test_basis_does_not_depend_on_the_batch(self):
        # one band over every order, against each point's band of one
        roots, bases = mixed_batch()
        for rv, q in zip(roots, bases):
            (alone,) = closed_form_bases([rv])
            assert np.array_equal(alone, q), (rv.family.label(), rv.n)

    def test_groups_of_one_order_in_a_band_match_bands_of_one(self):
        # a band whose groups repeat an order and come in no order of it:
        # the pass sorts them by order, stably, and each group's rows are a
        # view of it; N = 10 and N = 2 hold the tiny-nu points that rescale
        roots, _ = mixed_batch()
        members = covariance.by_order(roots)
        parts = ((10, slice(None, 5)), (2, slice(None)), (10, slice(5, None)), (40, slice(None)), (1, slice(None)))
        groups = [[roots[i] for i in members[n][part]] for n, part in parts]
        assert laguerre(1e-300) in [rv.family for rv in groups[2]]
        assert laguerre(1e-310) in [rv.family for rv in groups[1]]
        band = covariance.OrthonormalBand(groups)
        # every group asked for twice: the second round comes after the
        # band has served its last group and dropped its pass
        for g, group in [*enumerate(groups), *enumerate(groups)]:
            for rv, q in zip(group, eigenbasis_stack(*band.rows(g))):
                (alone,) = closed_form_bases([rv])
                assert np.array_equal(alone, q), (rv.family.label(), rv.n, g)

    @pytest.mark.parametrize("orders", [(3, 7, 5), (7,)])
    def test_band_drops_its_pass_after_its_last_group(self, orders):
        roots, _ = mixed_batch()
        members = covariance.by_order(roots)
        band = covariance.OrthonormalBand([[roots[i] for i in members[n]] for n in orders])
        rows, norm2 = band.rows(0)
        passes = weakref.ref(rows.base), weakref.ref(norm2.base)
        del rows, norm2
        for g in range(1, len(orders)):
            rows, norm2 = band.rows(g)
            # every group's rows are views of the one pass
            assert rows.base is passes[0]() and norm2.base is passes[1]()
            del rows, norm2
        assert passes[0]() is None and passes[1]() is None

    def test_eigenbasis_stack_leaves_its_input(self):
        roots, _ = mixed_batch()
        group = [roots[i] for i in covariance.by_order(roots)[10]]
        rows, norm2 = covariance.OrthonormalBand([group]).rows(0)
        before = rows.copy(), norm2.copy()
        eigenbasis_stack(rows, norm2)
        assert np.array_equal(rows, before[0]) and np.array_equal(norm2, before[1])

    @pytest.mark.parametrize("n", (3, 10, 40))
    @pytest.mark.parametrize("nu", (1e-100, 1e-300))
    def test_tiny_nu_spectrum(self, nu, n):
        # p_1 = (z - nu) / sqrt(nu) passes 2**500 at the larger roots
        # here, so the recurrence rescales those roots from row 1 on
        rv = compute_roots(laguerre(nu), n)
        s = build_S(rv)
        (basis,) = closed_form_bases([rv])
        assert np.max(np.abs(basis.T @ basis - np.eye(n))) <= n * EPS
        centers, radii = enclose_one(s, basis)
        slack = n * EPS * np.linalg.norm(s.entries, 2)
        lam = np.linalg.eigvalsh(s.entries)
        assert np.all(np.abs(lam - centers) <= radii + slack)
        # the `spectrum-match` value of `verify`, against its tolerance
        predicted = spectrum(laguerre(nu), n)
        value = np.max((np.abs(centers - predicted) + radii) / predicted)
        assert value <= (1e-8 if n <= 20 else 1e-6)


@pytest.mark.parametrize("n", (1, 2, 10, 40))
@pytest.mark.parametrize("family", [hermite(), laguerre(2.0), jacobi(2.0, 3.0)], ids=lambda fam: fam.label())
def test_eigenbasis_is_the_reversed_transposed_eigh_basis_of_T(family, n):
    # Golub-Welsch: the eigenvector matrix of T_N, rows by root in storage
    # order, columns reversed, is the eigenbasis of S_N up to the sign of
    # each row; eigenvectors of T_N move by up to (rounding of T_N or of
    # a root) / (smallest root gap), and the roots carry rounding too
    rv = compute_roots(family, n)
    t = jacobi_matrix(family, n).to_dense()
    _, vectors = np.linalg.eigh(t)
    if not family.spec.ascending:
        vectors = vectors[:, ::-1]
    expected = vectors.T[:, ::-1]
    (q,) = closed_form_bases([rv])
    signs = np.sign((q * expected).sum(axis=1))
    gap = np.min(np.diff(np.sort(rv.roots))) if n > 1 else math.inf
    tol = 8.0 * n * EPS * np.linalg.norm(t, 2) / gap
    assert np.max(np.abs(q - signs[:, None] * expected)) <= tol


class TestOrderGroups:
    """``order_groups`` splits a batch into stacks of one order of at most
    ``_STACK_ENTRIES`` entries, a larger point alone; ``bands`` runs them
    into bands of at most as many entries, a larger group alone."""

    CAPS = [1, 50, 1 << 18]

    @pytest.fixture(params=CAPS)
    def cap(self, request, monkeypatch):
        monkeypatch.setattr(covariance, "_STACK_ENTRIES", request.param)
        return request.param

    def test_groups_cover_the_batch_by_order(self, cap):
        roots, _ = mixed_batch()
        groups = list(covariance.order_groups(roots))
        indices = [i for members, _ in groups for i in members]
        assert sorted(indices) == list(range(len(roots)))
        # the orders in order of first appearance, each order's points in
        # batch order, every group full but each order's last
        assert indices == [i for members in covariance.by_order(roots).values() for i in members]
        for (members, group), (next_members, _) in zip(groups, [*groups[1:], ([], [])]):
            n = group[0].n
            assert group == [roots[i] for i in members]
            assert {rv.n for rv in group} == {n}
            size = max(1, cap // (n * n))
            assert len(group) == size or not next_members or roots[next_members[0]].n != n

    def test_bands_run_the_groups_in_order(self, cap):
        roots, _ = mixed_batch()
        groups = list(covariance.order_groups(roots))
        bands = list(covariance.bands(groups))
        assert [group for band in bands for group in band] == groups
        for band in bands:
            entries = sum(len(group) * group[0].n ** 2 for _, group in band)
            assert entries <= cap or len(band) == 1


def interleaved_group(n=9):
    """One order's points whose kinds interleave: H, L, J, L, H."""
    families = [hermite(), laguerre(0.5), jacobi(1.0, -0.9), laguerre(1e-300), hermite()]
    return compute_roots_many([(fam, n) for fam in families])


class TestKindRuns:
    """Each kind's terms go to each of its runs of consecutive points, as
    views of the group's stacks; a group whose kinds interleave has more
    runs, and every point's values stay those of its stack of one."""

    def test_runs_of_an_interleaved_group(self):
        runs = covariance.kind_runs(interleaved_group())
        assert [(kind.value, run.start, run.stop) for kind, run in runs] == [
            ("hermite", 0, 1), ("laguerre", 1, 2), ("jacobi", 2, 3), ("laguerre", 3, 4), ("hermite", 4, 5),
        ]
        group = compute_roots_many([(laguerre(2.0), 5), (laguerre(0.5), 5), (jacobi(2.0, 3.0), 5)])
        assert [(kind.value, run.start, run.stop) for kind, run in covariance.kind_runs(group)] == [
            ("laguerre", 0, 2), ("jacobi", 2, 3),
        ]

    @pytest.mark.parametrize("n", (1, 2, 9, 40))
    def test_interleaved_kinds_match_stacks_of_one(self, n):
        group = interleaved_group(n)
        terms = covariance.pair_terms(group)
        bases = closed_form_bases(group)
        for p, rv in enumerate(group):
            for stacked, alone in zip(terms, covariance.pair_terms([rv])):
                assert np.array_equal(stacked[p], alone[0]), (rv.family.label(), n)
            assert np.array_equal(bases[p], closed_form_bases([rv])[0]), (rv.family.label(), n)
        laguerres = [group[1], group[3]]
        for rv, alt in zip(laguerres, covariance.laguerre_sqrt_r_S_stack(laguerres)):
            assert np.array_equal(alt, covariance.laguerre_sqrt_r_S_stack([rv])[0]), (rv.family.label(), n)

    def test_sqrt_form_takes_laguerre_points_only(self):
        group = interleaved_group()
        with pytest.raises(FamilyMismatchError):
            covariance.laguerre_sqrt_r_S_stack(group[1:3])


@pytest.mark.parametrize(
    "roots", [[1.0, 1.0, 2.0], [[0.0, 1.0, 2.0], [1.0, 1.0, 2.0]]], ids=["point", "stack"]
)
def test_coincident_roots_are_singular(roots):
    with pytest.raises(SingularConfigurationError):
        _pair_differences(np.array(roots))


def test_coincident_sqrt_coordinates_are_singular():
    # two distinct roots whose r = sqrt(2 z) both round to 2.0
    rv = RootVector(laguerre(2.0), 2, np.array([np.nextafter(2.0, 3.0), 2.0]))
    assert rv.roots[0] != rv.roots[1]
    assert np.sqrt(2.0 * rv.roots[0]) == np.sqrt(2.0 * rv.roots[1]) == 2.0
    with pytest.raises(SingularConfigurationError):
        covariance.laguerre_sqrt_r_S_stack([rv])


# The per-family builders and interaction sums that the one build_S and the
# one interaction_sums replaced, kept as their references: each writes its
# family's entries in its own formulas.


def reference_hermite_S(roots):
    diff = _pair_differences(roots)
    inv2 = 1.0 / (diff * diff)
    matrix = -inv2
    np.fill_diagonal(matrix, 1.0 + inv2.sum(axis=1))
    return matrix


def reference_laguerre_S(roots, nu):
    diff = _pair_differences(roots)
    inv2 = 1.0 / (diff * diff)
    matrix = -4.0 * np.sqrt(np.outer(roots, roots)) * inv2
    np.fill_diagonal(
        matrix, 1.0 + nu / roots + 2.0 * ((roots[:, None] + roots[None, :]) * inv2).sum(axis=1)
    )
    return matrix


def reference_jacobi_S(roots, alpha, beta):
    diff = _pair_differences(roots)
    inv2 = 1.0 / (diff * diff)
    w = 1.0 - roots * roots
    matrix = -4.0 * np.sqrt(np.outer(w, w)) * inv2
    np.fill_diagonal(
        matrix,
        4.0 * (w[:, None] * inv2).sum(axis=1)
        + 2.0 * (alpha + 1.0) * (1.0 + roots) / (1.0 - roots)
        + 2.0 * (beta + 1.0) * (1.0 - roots) / (1.0 + roots),
    )
    return matrix


def reference_hermite_sums(z):
    diff = _pair_differences(z)
    inv2 = 1.0 / (diff * diff)
    return inv2.sum(axis=1), (inv2 * inv2).sum(axis=1)


def reference_laguerre_sums(z, nu):
    diff = _pair_differences(z)
    inv2 = 1.0 / (diff * diff)
    lin = nu / z + 2.0 * ((z[:, None] + z[None, :]) * inv2).sum(axis=1)
    cross = 16.0 * (np.outer(z, z) * inv2 * inv2).sum(axis=1)
    return lin, cross


def reference_jacobi_sums(z, alpha, beta):
    diff = _pair_differences(z)
    w = 1.0 - z * z
    inv2 = 1.0 / (diff * diff)
    lin = (
        4.0 * (w[:, None] * inv2).sum(axis=1)
        + 2.0 * (alpha + 1.0) * (1.0 + z) / (1.0 - z)
        + 2.0 * (beta + 1.0) * (1.0 - z) / (1.0 + z)
    )
    cross = 16.0 * (np.outer(w, w) * inv2 * inv2).sum(axis=1)
    return lin, cross


REFERENCES = {
    FamilyKind.HERMITE: (reference_hermite_S, reference_hermite_sums),
    FamilyKind.LAGUERRE: (reference_laguerre_S, reference_laguerre_sums),
    FamilyKind.JACOBI: (reference_jacobi_S, reference_jacobi_sums),
}

# off the default grid: near-singular Jacobi, large and tiny nu
REFERENCE_STRESS = [
    (jacobi(-0.999, -0.999), 200), (laguerre(1000.0), 300),
    (laguerre(1e-300), 40), (jacobi(-0.9999, 5.0), 300),
]


@functools.cache
def reference_roots():
    """Every default-grid point (12 families, N = 1..40) and the stress
    points, their roots in one batch."""
    points = [(family, n) for family in all_families() for n in range(1, 41)]
    return compute_roots_many(points + REFERENCE_STRESS)


class TestSingleRouteMatchesReference:
    """``build_S`` and ``interaction_sums`` against the per-family
    builders and sums they replaced: bit for bit, except the Laguerre
    diagonal, which adds ``1 + (nu/z + 2 sum)`` where the reference adds
    ``(1 + nu/z) + 2 sum``, a difference of at most one rounding."""

    def test_batch_covers_the_grid_and_the_stress_points(self):
        assert len(reference_roots()) == 12 * 40 + len(REFERENCE_STRESS)

    def test_sums_are_bit_equal(self):
        for rv in reference_roots():
            want = REFERENCES[rv.family.kind][1](rv.roots, *rv.family.parameters())
            got = interaction_sums(rv)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), (rv.family.label(), rv.n)

    def test_off_diagonals_are_bit_equal(self):
        for rv in reference_roots():
            want = REFERENCES[rv.family.kind][0](rv.roots, *rv.family.parameters())
            got = build_S(rv).entries
            off = ~np.eye(rv.n, dtype=bool)
            assert np.array_equal(got[off], want[off]), (rv.family.label(), rv.n)

    def test_stacks_by_order_match_batches_of_one(self):
        roots = reference_roots()
        for members in covariance.by_order(roots).values():
            group = [roots[i] for i in members]
            terms = covariance.pair_terms(group)
            matrices = covariance.build_S_stack(group, terms)
            lin, cross = covariance.interaction_sums_stack(group, terms)
            for p, rv in enumerate(group):
                assert np.array_equal(matrices[p], build_S(rv).entries), (rv.family.label(), rv.n)
                want_lin, want_cross = interaction_sums(rv)
                assert np.array_equal(lin[p], want_lin) and np.array_equal(cross[p], want_cross)
            laguerres = [rv for rv in group if rv.family.kind is FamilyKind.LAGUERRE]
            if laguerres:
                for rv, alt in zip(laguerres, covariance.laguerre_sqrt_r_S_stack(laguerres)):
                    assert np.array_equal(alt, laguerre_sqrt_r_S(rv).entries), (rv.family.label(), rv.n)

    def test_diagonals(self):
        for rv in reference_roots():
            want = np.diag(REFERENCES[rv.family.kind][0](rv.roots, *rv.family.parameters()))
            got = np.diag(build_S(rv).entries)
            if rv.family.kind is FamilyKind.LAGUERRE:
                assert np.all(np.abs(got - want) <= EPS * np.abs(want)), (rv.family.label(), rv.n)
            else:
                assert np.array_equal(got, want), (rv.family.label(), rv.n)
