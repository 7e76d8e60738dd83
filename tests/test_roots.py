import math

import numpy as np
import pytest

from rootgaps import (
    FamilyMismatchError,
    InternalConsistencyError,
    RootVector,
    compute_roots,
    gap_statistics,
    hermite,
    jacobi,
    jacobi_matrix,
    laguerre,
    to_sqrt_coordinates,
    tridiag_eigenvalues,
)
import rootgaps.roots as roots_mod
from rootgaps.eigensolve import _tridiag_eigenvalues_only
from rootgaps.families import _evaluate_scaled
from rootgaps.roots import compute_roots_many

from conftest import JACOBI_PARAMS, LAGUERRE_NUS, all_families


SWEEP_N = (1, 2, 3, 5, 8, 13, 21, 34, 50)


class TestKnownRoots:
    def test_hermite_n2(self):
        rv = compute_roots(hermite(), 2)
        assert not rv.family.spec.ascending
        expected = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(rv.roots, [expected, -expected], atol=1e-16)
        # known closed-form gap for N = 2
        assert abs((rv.roots[0] - rv.roots[1]) - math.sqrt(2.0)) <= 1e-15

    @pytest.mark.parametrize("nu", LAGUERRE_NUS)
    def test_laguerre_n1_root_is_nu(self, nu):
        rv = compute_roots(laguerre(nu), 1)
        assert not rv.family.spec.ascending
        assert abs(rv.roots[0] - nu) <= 1e-14 * nu

    @pytest.mark.parametrize("alpha,beta", JACOBI_PARAMS)
    def test_jacobi_n1_closed_form(self, alpha, beta):
        rv = compute_roots(jacobi(alpha, beta), 1)
        assert rv.family.spec.ascending
        expected = (beta - alpha) / (alpha + beta + 2.0)
        assert abs(rv.roots[0] - expected) <= 1e-14 * max(1.0, abs(expected))


class TestOrderingAndInvariants:
    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    @pytest.mark.parametrize("n", SWEEP_N)
    def test_sweep_invariants(self, family, n):
        rv = compute_roots(family, n)
        assert rv.polish_skipped == ()
        roots = rv.roots
        if rv.family.kind.value == "jacobi":
            assert rv.family.spec.ascending
            assert np.all(np.diff(roots) > 0.0)
            assert np.all(np.abs(roots) < 1.0)
        else:
            assert not rv.family.spec.ascending
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
        values, derivatives, _ = _evaluate_scaled(family, np.full(n, n), roots)
        for i, (x, p, dp) in enumerate(zip(roots, values, derivatives)):
            if n == 1:
                scale = max(1.0, abs(x))
            else:
                gaps = []
                if i > 0:
                    gaps.append(roots[i] - roots[i - 1])
                if i < n - 1:
                    gaps.append(roots[i + 1] - roots[i])
                scale = min(gaps)
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


class TestRootVectorChecks:
    """``RootVector`` rejects roots that are not strictly ordered in the
    family's direction, that leave the orthogonality interval, or whose
    count is not ``n``."""

    @pytest.mark.parametrize("family", [hermite(), jacobi(2.0, 3.0)], ids=lambda fam: fam.label())
    def test_reversed_vector_rejected(self, family):
        rv = compute_roots(family, 6)
        with pytest.raises(InternalConsistencyError):
            RootVector(family, 6, rv.roots[::-1])

    @pytest.mark.parametrize(
        "family,roots",
        [
            (hermite(), [1.0, 1.0]),
            (laguerre(2.0), [3.0, 0.0]),
            (laguerre(2.0), [3.0, -0.5]),
            (jacobi(0.0, 0.0), [-1.0, 0.5]),
            (jacobi(0.0, 0.0), [-0.5, 1.5]),
        ],
        ids=[
            "repeated", "laguerre-on-0", "laguerre-below-0", "jacobi-on-minus-1", "jacobi-above-1",
        ],
    )
    def test_repeated_or_outside_roots_rejected(self, family, roots):
        with pytest.raises(InternalConsistencyError):
            RootVector(family, 2, np.array(roots))

    def test_wrong_root_count_rejected(self):
        with pytest.raises(InternalConsistencyError):
            RootVector(hermite(), 3, compute_roots(hermite(), 2).roots)


def scalar_evaluate_scaled(family, n, x):
    """Reference: the scalar recurrence, one point at a time, with the same
    2**500 rescaling as ``families._evaluate_scaled``."""
    exp2 = 0
    p, dp, pm1, dm1 = 1.0, 0.0, 0.0, 0.0
    for a, b, c, d in family.spec.steps(family, n):
        t = a * x + b
        p, dp, pm1, dm1 = (t * p - c * pm1) / d, (a * p + t * dp - c * dm1) / d, p, dp
        if abs(p) > 2.0**500 or abs(dp) > 2.0**500:
            p, dp, pm1, dm1 = (v * 2.0**-500 for v in (p, dp, pm1, dm1))
            exp2 += 500
    return p, dp, exp2


def scalar_polish(family, n):
    """Reference: up to three scalar Newton steps per eigenvalue, one root
    at a time.  Returns the roots in stored order and ``polish_skipped``."""
    eigs = _tridiag_eigenvalues_only(jacobi_matrix(family, n))
    lo_dom, hi_dom = family.spec.domain
    polished = np.empty(n)
    skipped = []
    for i in range(n):
        lo = 0.5 * (eigs[i - 1] + eigs[i]) if i > 0 else lo_dom
        hi = 0.5 * (eigs[i] + eigs[i + 1]) if i < n - 1 else hi_dom
        x = float(eigs[i])
        ok = True
        for _ in range(3):
            p, dp, _ = scalar_evaluate_scaled(family, n, x)
            if p == 0.0:
                break
            if dp == 0.0:
                ok = False
                break
            step = p / dp
            candidate = x - step
            if not (lo < candidate < hi):
                ok = False
                break
            if candidate == x:
                break
            x = candidate
            if abs(step) <= 2.0 * np.finfo(float).eps * abs(x):
                break
        if ok:
            polished[i] = x
        else:
            polished[i] = eigs[i]
            skipped.append(i)
    if family.spec.ascending:
        return polished, tuple(skipped)
    return polished[::-1], tuple(sorted(n - 1 - i for i in skipped))


def assert_matches_scalar_polish(family, orders):
    batch = compute_roots_many(family, orders)
    assert [rv.n for rv in batch] == list(orders)
    for rv in batch:
        roots, skipped = scalar_polish(family, rv.n)
        assert np.array_equal(rv.roots, roots), (family.label(), rv.n)
        assert rv.polish_skipped == skipped, (family.label(), rv.n)


# N = 1..40 in a mixed order, so that neither the batch nor its sort
# starts out sorted by order
MIXED_ORDERS = tuple(1 + (7 * k) % 40 for k in range(40))


class TestBatchPolish:
    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    def test_default_grid_matches_scalar_polish(self, family):
        assert sorted(MIXED_ORDERS) == list(range(1, 41))
        assert_matches_scalar_polish(family, MIXED_ORDERS)

    @pytest.mark.parametrize(
        "family,orders",
        [
            (hermite(), (100, 300)),
            (laguerre(2.0), (300, 100)),
            (jacobi(1.0, -0.9), (100, 300)),
            (jacobi(-0.999, -0.999), (200, 3)),
            (laguerre(1e-10), (3, 40)),
        ],
        ids=lambda value: value.label() if hasattr(value, "label") else str(value),
    )
    def test_stress_points_match_scalar_polish(self, family, orders):
        assert_matches_scalar_polish(family, orders)

    def test_single_order_is_a_batch_of_one(self):
        (rv,) = compute_roots_many(laguerre(2.0), [7])
        assert np.array_equal(compute_roots(laguerre(2.0), 7).roots, rv.roots)
        assert compute_roots_many(hermite(), []) == []

    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    def test_evaluator_matches_scalar_recurrence(self, family):
        rng = np.random.default_rng(7)
        orders = rng.integers(1, 61, size=50)
        lo, hi = family.spec.domain
        x = rng.uniform(max(lo, -6.0), min(hi, 60.0), size=50)
        assert_matches_scalar_recurrence(family, orders, x)

    def test_rescaled_entries_match_scalar_recurrence(self):
        # Hermite N = 120 at x = 40 passes 2**500; the others stay below it
        orders = np.array([3, 120, 40, 120, 1, 120])
        x = np.array([0.25, 40.0, -2.5, 1.5, 3.0, -40.0])
        exp2 = assert_matches_scalar_recurrence(hermite(), orders, x)
        assert exp2.tolist() == [0, 500, 0, 0, 0, 500]


def assert_matches_scalar_recurrence(family, orders, x):
    p, dp, exp2 = _evaluate_scaled(family, orders, x)
    want = [scalar_evaluate_scaled(family, int(n), float(xi)) for n, xi in zip(orders, x)]
    assert p.tolist() == [w[0] for w in want]
    assert dp.tolist() == [w[1] for w in want]
    assert exp2.tolist() == [w[2] for w in want]
    return exp2


class TestRejectedPolish:
    """No default or stress point rejects a polish, so a stand-in
    evaluator forces the two reject rules on two roots of one order."""

    @pytest.mark.parametrize(
        "family,expected",
        # ascending eigenvalue indices 0 and 3 of N = 6, in stored order:
        # Laguerre stores roots descending, Jacobi ascending
        [(laguerre(2.0), (2, 5)), (jacobi(1.0, -0.9), (0, 3))],
        ids=lambda value: value.label() if hasattr(value, "label") else str(value),
    )
    def test_raw_eigenvalue_is_kept_and_flagged(self, monkeypatch, family, expected):
        orders = [4, 6, 2]
        raw = _tridiag_eigenvalues_only(jacobi_matrix(family, 6))
        zero_slope, far_step = raw[0], raw[3]
        short = 0.1 * np.min(np.diff(raw))
        real = roots_mod._evaluate_scaled
        calls = []

        def evaluate(fam, degree, x):
            p, dp, exp2 = real(fam, degree, x)
            at_six = degree == 6
            # a derivative of 0 at the first step
            dp[at_six & (x == zero_slope)] = 0.0
            # a short step inside the bracket, then one far outside it
            near = at_six & (np.abs(x - far_step) < 2.0 * short)
            p[near] = (1e6 if calls else short) * dp[near]
            calls.append(bool(near.any()))
            return p, dp, exp2

        monkeypatch.setattr(roots_mod, "_evaluate_scaled", evaluate)
        got = compute_roots_many(family, orders)
        monkeypatch.undo()
        want = compute_roots_many(family, orders)

        assert calls[:2] == [True, True]
        assert [rv.polish_skipped for rv in got] == [(), expected, ()]
        assert all(rv.polish_skipped == () for rv in want)
        for rv, ref in zip(got, want):
            kept = np.zeros(rv.n, dtype=bool)
            kept[list(rv.polish_skipped)] = True
            assert np.array_equal(rv.roots[~kept], ref.roots[~kept])
        stored = raw if family.spec.ascending else raw[::-1]
        assert got[1].roots[list(expected)].tolist() == stored[list(expected)].tolist()
        assert set(stored[list(expected)].tolist()) == {zero_slope, far_step}


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
