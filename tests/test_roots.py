import functools
import math
from unittest import mock

import numpy as np
import pytest

from rootgaps import (
    EmptyProblemError,
    FamilyMismatchError,
    InternalConsistencyError,
    ParameterDomainError,
    RootVector,
    SingularConfigurationError,
    compute_roots,
    gap_statistics,
    hermite,
    jacobi,
    jacobi_matrix,
    laguerre,
    to_sqrt_coordinates,
)
import rootgaps.families as families_mod
import rootgaps.roots as roots_mod
from rootgaps.families import _evaluate_scaled, step_table
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
        values, derivatives, _ = _evaluate_scaled(step_table([family], [n]), np.full(n, n), roots)
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
        raw = np.linalg.eigvalsh(jacobi_matrix(family, n).to_dense())
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
        "family,roots,error",
        [
            # equal neighbours are a singular configuration, not a broken order
            (hermite(), [1.0, 1.0], SingularConfigurationError),
            (laguerre(2.0), [3.0, 0.0], InternalConsistencyError),
            (laguerre(2.0), [3.0, -0.5], InternalConsistencyError),
            (jacobi(0.0, 0.0), [-1.0, 0.5], InternalConsistencyError),
            (jacobi(0.0, 0.0), [-0.5, 1.5], InternalConsistencyError),
        ],
        ids=[
            "repeated", "laguerre-on-0", "laguerre-below-0", "jacobi-on-minus-1", "jacobi-above-1",
        ],
    )
    def test_repeated_or_outside_roots_rejected(self, family, roots, error):
        with pytest.raises(error):
            RootVector(family, 2, np.array(roots))

    @pytest.mark.parametrize(
        "family,n,roots,error,message",
        [
            (hermite(), 3, [2.0, -1.0, 0.5], InternalConsistencyError, "not descending"),
            (laguerre(2.0), 2, [1.0, 3.0], InternalConsistencyError, "not descending"),
            (jacobi(1.0, -0.9), 3, [-0.5, 0.5, 0.0], InternalConsistencyError, "not ascending"),
            # a broken order is named before a root outside the interval
            (jacobi(1.0, -0.9), 2, [0.5, -1.5], InternalConsistencyError, "not ascending"),
            (laguerre(2.0), 3, [3.0, 1.0, 1.0], SingularConfigurationError, "coincide"),
            (jacobi(1.0, -0.9), 2, [-0.5, -0.5], SingularConfigurationError, "coincide"),
            (laguerre(2.0), 3, [3.0, 1.0, 0.0], InternalConsistencyError, "orthogonality interval"),
            (jacobi(1.0, -0.9), 2, [0.5, 1.0], InternalConsistencyError, "orthogonality interval"),
            (laguerre(2.0), 1, [-1.0], InternalConsistencyError, "orthogonality interval"),
            (hermite(), 2, [[0.7], [-0.7]], ParameterDomainError, "one-dimensional"),
            (hermite(), 2, [[0.7, -0.7]], ParameterDomainError, "one-dimensional"),
            # the order is checked as compute_roots checks it
            (laguerre(2.0), True, [3.0], ParameterDomainError, "integer"),
            (hermite(), 3.0, [1.0, 0.0, -1.0], ParameterDomainError, "integer"),
            (hermite(), 0, [], EmptyProblemError, "N = 0"),
            (hermite(), -1, [], ParameterDomainError, "positive"),
        ],
        ids=[
            "hermite-order", "laguerre-order", "jacobi-order", "jacobi-order-and-outside",
            "laguerre-repeated", "jacobi-repeated", "laguerre-on-0-at-the-end", "jacobi-on-1",
            "laguerre-one-root-below-0", "column-of-roots", "row-of-roots",
            "bool-order", "float-order", "zero-order", "negative-order",
        ],
    )
    def test_each_error_keeps_its_type(self, family, n, roots, error, message):
        with pytest.raises(error, match=message):
            RootVector(family, n, np.array(roots))

    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    @pytest.mark.parametrize("at", range(4))
    def test_nan_root_rejected(self, family, at):
        # a NaN fails every order and interval comparison, so no single
        # test of those can reject it
        roots = compute_roots(family, 4).roots.copy()
        roots[at] = np.nan
        with pytest.raises(InternalConsistencyError, match="not finite"):
            RootVector(family, 4, roots)

    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    @pytest.mark.parametrize("n", (1, 3))
    def test_all_nan_vector_rejected(self, family, n):
        with pytest.raises(InternalConsistencyError, match="not finite"):
            RootVector(family, n, np.full(n, np.nan))

    @pytest.mark.parametrize(
        "family", [hermite(), laguerre(2.0), jacobi(1.0, -0.9)], ids=lambda fam: fam.label()
    )
    @pytest.mark.parametrize("value", (math.inf, -math.inf), ids=("inf", "minus-inf"))
    @pytest.mark.parametrize("at", (0, 2))
    def test_infinite_root_rejected(self, family, value, at):
        roots = compute_roots(family, 3).roots.copy()
        roots[at] = value
        with pytest.raises(InternalConsistencyError, match="not finite"):
            RootVector(family, 3, roots)

    def test_coincident_computed_roots_are_singular(self):
        # at nu = 1e32 the two smaller computed roots of P_3 are one double
        with pytest.raises(SingularConfigurationError, match="coincide"):
            compute_roots(laguerre(1e32), 3)

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


EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)


def scalar_start(family, n):
    """Reference: the start bracket of every root of ``P_n``, the pivot
    floor and the slack, from ``T_n`` alone, in Python floats."""
    t = jacobi_matrix(family, n)
    a, b = t.diag.tolist(), t.offdiag.tolist()
    edge = [0.0, *b, 0.0]
    low = min(a[i] - (edge[i] + edge[i + 1]) for i in range(n))
    high = max(a[i] + (edge[i] + edge[i + 1]) for i in range(n))
    pivmin = TINY * max([1.0] + [max(v * v, 1.0) for v in b])
    slack = 2.1 * EPS * n * max(abs(low), abs(high)) + 4.2 * pivmin
    dom_lo, dom_hi = family.spec.domain
    return max(low - slack, dom_lo), min(high + slack, dom_hi), pivmin, slack


def scalar_sturm_count(a, b2, x, pivmin):
    """Reference: the negative pivots of ``T_n - x I``, each pivot within
    ``pivmin`` of 0 replaced by ``-pivmin`` as LAPACK ``dstebz`` does."""
    count = 0
    q = 1.0
    for i, ai in enumerate(a):
        q = ai - x if i == 0 else (ai - x) - b2[i - 1] / q
        if abs(q) < pivmin:
            q = -pivmin
        count += q < 0.0
    return count


def scalar_bisect(a, b2, k, lo, hi, pivmin, steps=None):
    """Reference: bisection of one root's bracket, to full width, or
    until it has taken ``steps`` steps while holding the root alone.
    Returns the bracket, whether it holds the root alone, and the step at
    which it first did (``None`` if it never did)."""
    below, upto = 0, len(a)
    step, after, isolated_at = 0, 0, None
    while hi - lo >= 2.0 * EPS * max(abs(lo), abs(hi)) + pivmin:
        alone = below == k and upto == k + 1
        if alone and isolated_at is None:
            isolated_at = step
        if steps is not None and alone and after >= steps:
            break
        after += alone
        x = 0.5 * (lo + hi)
        count = scalar_sturm_count(a, b2, x, pivmin)
        if count > k:
            hi, upto = x, count
        else:
            lo, below = x, count
        step += 1
    return lo, hi, below == k and upto == k + 1, isolated_at


def log2_abs(value):
    with np.errstate(divide="ignore"):
        return float(np.log2(np.abs(np.array([value])))[0])


def scalar_newton(family, n, lo, hi, slack):
    """Reference: the Newton polish of one root inside its bracket.
    Returns the kept point and whether it settled."""
    x = 0.5 * (lo + hi)
    dom_lo, dom_hi = family.spec.domain
    lo, hi = max(lo - slack, dom_lo), min(hi + slack, dom_hi)
    best, best_mag, best_step = x, math.inf, math.inf
    last_step, clamped = math.inf, False
    for _ in range(roots_mod._NEWTON_CAP):
        p, dp, exp2 = scalar_evaluate_scaled(family, n, x)
        mag = log2_abs(p) + exp2
        if dp != 0.0:
            newton = p / dp
        else:
            newton = math.nan if p == 0.0 else math.copysign(math.inf, p)
        if mag < best_mag or (mag == best_mag and abs(newton) < best_step):
            best, best_mag, best_step = x, mag, abs(newton)
        candidate = x - newton
        outside = not (lo <= candidate <= hi)
        candidate = lo if candidate < lo else hi if candidate > hi else candidate
        step = abs(candidate - x)
        if p != 0.0 and (dp == 0.0 or (outside and clamped)):
            return best, False
        if p == 0.0 or step == 0.0 or last_step <= step <= slack:
            return best, True
        clamped |= outside
        last_step, x = step, candidate
    return best, False


def scalar_polish(family, n):
    """Reference: every root of ``P_n`` one at a time, by Sturm bisection
    from the Gershgorin interval and Newton inside the bracket, with the
    full bisection of a root whose polish fails.  With a zero diagonal only
    the roots above the middle are computed: the others are their mirror
    images, and an odd order's middle root is 0.  Returns the roots in
    stored order and ``polish_skipped``."""
    t = jacobi_matrix(family, n)
    a, b2 = t.diag.tolist(), (t.offdiag * t.offdiag).tolist()
    start_lo, start_hi, pivmin, slack = scalar_start(family, n)
    mirror, half = not any(a), n // 2
    roots, skipped = [0.0] * n, []
    for k in range(n - half if mirror else 0, n):
        lo, hi, alone, _ = scalar_bisect(a, b2, k, start_lo, start_hi, pivmin, roots_mod._STEPS_AFTER)
        x, settled = scalar_newton(family, n, lo, hi, slack) if alone else (None, False)
        if not settled:
            lo, hi, _, _ = scalar_bisect(a, b2, k, lo, hi, pivmin)
            x = 0.5 * (lo + hi)
            skipped.append(k)
        roots[k] = x
    if mirror:
        roots[:half] = [-x for x in reversed(roots[n - half:])]
        skipped = [n - 1 - k for k in reversed(skipped)] + skipped
    if family.spec.ascending:
        return np.array(roots), tuple(skipped)
    return np.array(roots[::-1]), tuple(sorted(n - 1 - i for i in skipped))


# N = 1..40 in a mixed order, so that neither the batch nor its sort
# starts out sorted by order
MIXED_ORDERS = tuple(1 + (7 * k) % 40 for k in range(40))

STRESS_POINTS = (
    (hermite(), (100, 300)),
    (laguerre(2.0), (300, 100)),
    (jacobi(1.0, -0.9), (100, 300)),
    (jacobi(-0.999, -0.999), (200, 3)),
    (laguerre(1e-10), (3, 40)),
)


# inputs on which the polish was tried when the batched bisection came in
STRESS_FAMILIES = (
    hermite(), laguerre(2.0), jacobi(1.0, -0.9),
    jacobi(-0.999, -0.999), jacobi(-0.9999, -0.9999), jacobi(-0.9999, 5.0), jacobi(50.0, 50.0),
    laguerre(1e-300), laguerre(1e-10), laguerre(0.01), laguerre(1000.0),
)
STRESS_ORDERS = (1, 2, 3, 10, 40, 100, 200, 300)


@functools.lru_cache(maxsize=None)
def mixed_batch():
    """The 12 default families at N = 1..40 and the stress points, as one
    batch that interleaves families and orders, and its roots."""
    grid = [(family, n) for n in MIXED_ORDERS for family in all_families()]
    stress = [(family, n) for family, orders in STRESS_POINTS for n in orders]
    points = grid[::2] + stress + grid[1::2]
    return points, compute_roots_many(points)


def assert_matches_scalar_polish(family, orders):
    points, batch = mixed_batch()
    assert [(rv.family, rv.n) for rv in batch] == points
    found = {(rv.family, rv.n): rv for rv in batch}
    for n in orders:
        rv = found[(family, n)]
        roots, skipped = scalar_polish(family, n)
        assert np.array_equal(rv.roots, roots), (family.label(), n)
        assert rv.polish_skipped == skipped, (family.label(), n)


class TestBatchPolish:
    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    def test_default_grid_matches_scalar_polish(self, family):
        assert sorted(MIXED_ORDERS) == list(range(1, 41))
        assert_matches_scalar_polish(family, MIXED_ORDERS)

    @pytest.mark.parametrize(
        "family,orders",
        STRESS_POINTS,
        ids=lambda value: value.label() if hasattr(value, "label") else str(value),
    )
    def test_stress_points_match_scalar_polish(self, family, orders):
        assert_matches_scalar_polish(family, orders)

    def test_roots_do_not_depend_on_the_batch(self):
        points, batch = mixed_batch()
        for (family, n), rv in zip(points, batch):
            (alone,) = compute_roots_many([(family, n)])
            assert np.array_equal(alone.roots, rv.roots), (family.label(), n)
            assert alone.polish_skipped == rv.polish_skipped

    @pytest.mark.parametrize(
        "points",
        [
            # a repeated point, with another family between its two copies
            [(hermite(), 7), (laguerre(2.0), 7), (hermite(), 7)],
            # two families at one order, and a copy next to its twin
            [(jacobi(1.0, -0.9), 12), (laguerre(0.5), 12), (laguerre(0.5), 12), (hermite(), 5)],
        ],
        ids=["repeated-point", "two-families-one-order"],
    )
    def test_merged_points_match_batches_of_one(self, monkeypatch, points):
        real = roots_mod._pivots
        families_per_block = []

        def pivots(tables, fam, degree, x, pivmin, work):
            families_per_block.append(np.unique(fam).size)
            return real(tables, fam, degree, x, pivmin, work)

        monkeypatch.setattr(roots_mod, "_pivots", pivots)
        batch = compute_roots_many(points)
        monkeypatch.undo()
        # the points were counted in shared blocks, not one family at a time
        assert max(families_per_block) >= 2
        for (family, n), rv in zip(points, batch):
            (alone,) = compute_roots_many([(family, n)])
            assert np.array_equal(alone.roots, rv.roots), (family.label(), n)
            assert alone.polish_skipped == rv.polish_skipped
            roots, skipped = scalar_polish(family, n)
            assert np.array_equal(rv.roots, roots) and rv.polish_skipped == skipped

    def test_guard_fires_in_a_merged_block(self, monkeypatch):
        # the first Hermite midpoint is x = 0 = a_0: its first pivot is 0,
        # so the Hermite columns of the shared block are run again guarded
        real = roots_mod._pivots
        calls = []

        def pivots(tables, fam, degree, x, pivmin, work):
            calls.append((fam.copy(), x.copy(), pivmin is not None))
            return real(tables, fam, degree, x, pivmin, work)

        monkeypatch.setattr(roots_mod, "_pivots", pivots)
        compute_roots_many([(hermite(), 7), (laguerre(2.0), 7), (hermite(), 7)])
        monkeypatch.undo()
        (fam, x, guarded), (guard_fam, guard_x, second_guarded) = calls[:2]
        # one block of the three points' first midpoints, one per point
        assert not guarded and fam.tolist() == [0, 1, 0] and x[0] == x[2] == 0.0
        assert second_guarded and guard_fam.tolist() == [0, 0] and guard_x.tolist() == [0.0, 0.0]

    def test_single_order_is_a_batch_of_one(self):
        (rv,) = compute_roots_many([(laguerre(2.0), 7)])
        assert np.array_equal(compute_roots(laguerre(2.0), 7).roots, rv.roots)
        assert compute_roots_many([]) == []

    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    def test_evaluator_matches_scalar_recurrence(self, family):
        rng = np.random.default_rng(7)
        orders = rng.integers(1, 61, size=50)
        lo, hi = family.spec.domain
        x = rng.uniform(max(lo, -6.0), min(hi, 60.0), size=50)
        assert_matches_scalar_recurrence([family], orders, x)

    def test_stacked_evaluator_matches_scalar_recurrence(self):
        # all default families in one call, interleaved, each entry reading
        # its own family's steps
        families = all_families()
        rng = np.random.default_rng(11)
        which = rng.integers(0, len(families), size=200)
        orders = rng.integers(1, 61, size=200)
        x = np.array([
            rng.uniform(max(lo, -6.0), min(hi, 60.0))
            for lo, hi in (families[f].spec.domain for f in which)
        ])
        assert_matches_scalar_recurrence(families, orders, x, which)

    def test_evaluator_rejects_unsorted_orders(self):
        # the root polish passes its entries by order, descending
        steps = step_table([hermite()], [5])
        with pytest.raises(InternalConsistencyError, match="not sorted by order"):
            _evaluate_scaled(steps, np.array([5, 3, 4]), np.array([0.5, 0.5, 0.5]))

    def test_rescaled_entries_match_scalar_recurrence(self):
        # Hermite N = 120 at x = 40 passes 2**500; the others stay below it
        orders = np.array([3, 120, 40, 120, 1, 120])
        x = np.array([0.25, 40.0, -2.5, 1.5, 3.0, -40.0])
        exp2 = assert_matches_scalar_recurrence([hermite()], orders, x)
        assert exp2.tolist() == [0, 500, 0, 0, 0, 500]

    @pytest.mark.parametrize("size", range(1, families_mod._SCALAR_ENTRIES + 3))
    def test_batches_around_the_crossover(self, size):
        # below the crossover the evaluator runs entry by entry, from it
        # on as arrays; the families stop at different top orders, so the
        # step table holds zero rows past most of them
        families = all_families()
        rng = np.random.default_rng(size)
        which = rng.integers(0, len(families), size=size)
        orders = np.array([rng.integers(1, 5 * (f + 1) + 1) for f in which])
        x = np.array([
            rng.uniform(max(lo, -6.0), min(hi, 60.0))
            for lo, hi in (families[f].spec.domain for f in which)
        ])
        assert_matches_scalar_recurrence(families, orders, x, which)

    def test_zero_rows_leave_the_rescale_bound_finite(self):
        # rows 3..299 of Hermite and 40..299 of Jacobi are zero, D included
        families = [hermite(), laguerre(2.0), jacobi(1.0, -0.9)]
        steps = step_table(families, [3, 300, 40])
        first = families_mod._first_rescale_row(steps, 1000.0)
        assert 0 < first < 300
        assert families_mod._first_rescale_row(steps[:40], 1.0) == 40

    @pytest.mark.parametrize(
        "family,fired",
        # the first row at which the largest root's values pass 2**500
        [(hermite(), 77), (laguerre(2.0), 69)],
        ids=lambda value: value.label() if hasattr(value, "label") else str(value),
    )
    def test_rescale_test_starts_before_the_first_rescale(self, family, fired):
        rv = compute_roots(family, 1000)
        x = rv.roots[:1]
        assert family.spec.ascending is False and x[0] == rv.roots.max()
        first = families_mod._first_rescale_row(step_table([family], [1000]), abs(float(x[0])))
        assert 0 < first <= fired
        assert scalar_rescale_rows(family, 1000, float(x[0]))[0] == fired
        # both paths, on the largest root alone and among the others
        assert assert_matches_scalar_recurrence([family], np.array([1000]), x)[0] > 0
        assert_matches_scalar_recurrence([family], np.full(40, 1000), rv.roots[:40].copy())

    def test_default_grid_runs_no_rescale_test(self):
        # no value of the default grid can pass 2**500 within its 40 rows
        families = all_families()
        steps = step_table(families, [40] * len(families))
        reach = max(float(np.abs(compute_roots(fam, 40).roots).max()) for fam in families)
        assert families_mod._first_rescale_row(steps, reach) == 40


def scalar_rescale_rows(family, n, x):
    """The rows of ``family``'s steps at which the scalar recurrence at
    ``x`` rescales, as ``scalar_evaluate_scaled`` does."""
    rows = []
    p, dp, pm1, dm1 = 1.0, 0.0, 0.0, 0.0
    for k, (a, b, c, d) in enumerate(family.spec.steps(family, n)):
        t = a * x + b
        p, dp, pm1, dm1 = (t * p - c * pm1) / d, (a * p + t * dp - c * dm1) / d, p, dp
        if abs(p) > 2.0**500 or abs(dp) > 2.0**500:
            p, dp, pm1, dm1 = (v * 2.0**-500 for v in (p, dp, pm1, dm1))
            rows.append(k)
    return rows


def assert_matches_scalar_recurrence(families, orders, x, which=None):
    """Entry ``j`` is of ``families[which[j]]``, of the only family when
    ``which`` is not given.  The entries are evaluated sorted by order,
    descending, as the evaluator takes them, both as arrays and entry by
    entry, whatever their number; the exponents come back in the given
    order."""
    which = np.zeros(orders.size, dtype=int) if which is None else which
    rank = np.argsort(-orders, kind="stable")
    orders, x, which = orders[rank], x[rank], which[rank]
    tops = [max([1, *orders[which == f]]) for f in range(len(families))]
    steps = step_table(families, tops)
    want = [
        scalar_evaluate_scaled(families[f], int(n), float(xi)) for f, n, xi in zip(which, orders, x)
    ]
    # a crossover of 0 takes the array pass, one above the size the scalar one
    for crossover in (0, orders.size + 1):
        with mock.patch.object(families_mod, "_SCALAR_ENTRIES", crossover):
            p, dp, exp2 = _evaluate_scaled(steps, orders, x, which)
        assert p.tolist() == [w[0] for w in want]
        assert dp.tolist() == [w[1] for w in want]
        assert exp2.tolist() == [w[2] for w in want]
    given = np.empty_like(exp2)
    given[rank] = exp2
    return given


def within_eigenvalue_error(family, n, rv):
    """Each root within ``n eps ||T_n||`` of numpy's eigenvalues of
    ``T_n``, the oracle."""
    dense = jacobi_matrix(family, n).to_dense()
    eigs = np.linalg.eigvalsh(dense)
    stored = eigs if family.spec.ascending else eigs[::-1]
    return np.abs(rv.roots - stored) <= n * EPS * np.linalg.norm(dense, 2)


class TestRejectedPolish:
    """No default or stress point rejects a polish, so a stand-in
    evaluator forces the two reject rules on two roots of one order."""

    @pytest.mark.parametrize(
        "family,expected",
        # ascending root indices 0 and 3 of N = 6, in stored order:
        # Laguerre stores roots descending, Jacobi ascending
        [(laguerre(2.0), (2, 5)), (jacobi(1.0, -0.9), (0, 3))],
        ids=lambda value: value.label() if hasattr(value, "label") else str(value),
    )
    def test_bisected_root_is_kept_and_flagged(self, monkeypatch, family, expected):
        points = [(family, 4), (family, 6), (family, 2)]
        eigs = np.linalg.eigvalsh(jacobi_matrix(family, 6).to_dense())
        zero_slope, far_step = eigs[0], eigs[3]
        # a quarter of each one's distance to its nearest neighbour: the
        # first iterates of that root fall inside, no other root's do
        near_zero = 0.25 * (eigs[1] - eigs[0])
        near_far = 0.25 * np.min(np.diff(eigs[2:5]))
        real = roots_mod._evaluate_scaled
        calls = []

        def evaluate(steps, degree, x, which):
            p, dp, exp2 = real(steps, degree, x, which)
            at_six = degree == 6
            # a derivative of 0 at the first step
            dp[at_six & (np.abs(x - zero_slope) < near_zero)] = 0.0
            # every step far outside the bracket: the first moves to its
            # end, the second rejects the polish
            far = at_six & (np.abs(x - far_step) < near_far)
            p[far] = 1e6 * dp[far]
            calls.append(int(far.sum()))
            return p, dp, exp2

        monkeypatch.setattr(roots_mod, "_evaluate_scaled", evaluate)
        got = compute_roots_many(points)
        monkeypatch.undo()
        want = compute_roots_many(points)

        assert calls[:2] == [1, 1]
        assert [rv.polish_skipped for rv in got] == [(), expected, ()]
        assert all(rv.polish_skipped == () for rv in want)
        for rv, ref in zip(got, want):
            kept = np.zeros(rv.n, dtype=bool)
            kept[list(rv.polish_skipped)] = True
            assert np.array_equal(rv.roots[~kept], ref.roots[~kept])
        # the flagged roots are the full-width bisection midpoints
        t = jacobi_matrix(family, 6)
        a, b2 = t.diag.tolist(), (t.offdiag * t.offdiag).tolist()
        start_lo, start_hi, pivmin, _ = scalar_start(family, 6)
        for i in expected:
            k = i if family.spec.ascending else 5 - i
            lo, hi, _, _ = scalar_bisect(a, b2, k, start_lo, start_hi, pivmin, roots_mod._STEPS_AFTER)
            lo, hi, _, _ = scalar_bisect(a, b2, k, lo, hi, pivmin)
            assert got[1].roots[i] == 0.5 * (lo + hi)
        assert within_eigenvalue_error(family, 6, got[1]).all()


def test_unsettled_polish_is_bisected_to_full_width(monkeypatch):
    # Jacobi (-0.999, -0.999) at N = 1000, with Newton cut at three
    # evaluations: the roots that do not settle in three are bisected to
    # full width and flagged, and each is an eigenvalue of T_n to
    # n eps ||T_n||; the others are the roots of the uncut polish
    family, n = jacobi(-0.999, -0.999), 1000
    monkeypatch.setattr(roots_mod, "_NEWTON_CAP", 3)
    cut = compute_roots(family, n)
    monkeypatch.undo()
    polished = compute_roots(family, n)
    flagged = np.zeros(n, dtype=bool)
    flagged[list(cut.polish_skipped)] = True
    assert 0 < flagged.sum() < n
    assert within_eigenvalue_error(family, n, cut)[flagged].all()
    assert np.array_equal(cut.roots[~flagged], polished.roots[~flagged])
    assert polished.polish_skipped == ()
    assert within_eigenvalue_error(family, n, polished).all()


# every family whose recurrence matrix has a zero diagonal, on and off the
# default grid
ZERO_DIAGONAL_FAMILIES = (
    hermite(), jacobi(-0.5, -0.5), jacobi(0.0, 0.0), jacobi(10.0, 10.0),
    jacobi(-0.999, -0.999), jacobi(50.0, 50.0),
)


def assert_mirrored(rv):
    """The roots of ``rv`` are their own negated reverse, equal as floats
    (so bit for bit, but for the sign of a zero), an odd order's middle
    root is 0, ``polish_skipped`` is its own mirror image, and both
    boundary distances are the same float."""
    roots, n = rv.roots, rv.n
    assert np.array_equal(roots, -roots[::-1]), (rv.family.label(), n)
    if n % 2:
        assert roots[n // 2] == 0.0, (rv.family.label(), n)
    assert rv.polish_skipped == tuple(n - 1 - i for i in reversed(rv.polish_skipped))
    stats = gap_statistics(rv)
    assert stats.boundary_low == stats.boundary_high, (rv.family.label(), n)


class TestZeroDiagonalSymmetry:
    """A zero diagonal makes ``T_n`` similar to ``-T_n``, so the roots of
    Hermite and of Jacobi with alpha == beta are symmetric about 0, and
    are computed so to the bit."""

    @pytest.mark.parametrize("family", ZERO_DIAGONAL_FAMILIES, ids=lambda fam: fam.label())
    def test_roots_are_exactly_symmetric(self, family):
        assert not jacobi_matrix(family, 300).diag.any()
        batch = compute_roots_many([(family, n) for n in range(1, 61)])
        # N = 1 alone is a batch with no root left to compute
        alone = [compute_roots(family, n) for n in (1, 200, 300)]
        for rv in batch + alone:
            assert_mirrored(rv)

    @pytest.mark.parametrize("family", ZERO_DIAGONAL_FAMILIES, ids=lambda fam: fam.label())
    def test_bisected_roots_are_mirrored(self, monkeypatch, family):
        # with Newton cut at three evaluations, roots of N = 200 are
        # bisected to full width and flagged, and so are their mirror images
        monkeypatch.setattr(roots_mod, "_NEWTON_CAP", 3)
        rv = compute_roots(family, 200)
        assert rv.polish_skipped
        assert_mirrored(rv)


class TestBisectionStop:
    """Each root is bisected until its bracket holds its eigenvalue alone
    and then ``_STEPS_AFTER`` steps more, whatever the other roots do."""

    @pytest.mark.parametrize(
        "family,n",
        [(laguerre(2.0), 30), (jacobi(1.0, -0.9), 25), (hermite(), 12)],
        ids=lambda value: value.label() if hasattr(value, "label") else str(value),
    )
    def test_entry_takes_its_isolation_step_plus_steps_after(self, monkeypatch, family, n):
        one = np.zeros(1, dtype=int)
        tables, start = roots_mod._start_brackets([family], np.array([n]), one, np.array([n]))
        start_lo, start_hi, pivmin, _ = start[:, 0].tolist()
        t = jacobi_matrix(family, n)
        a, b2 = t.diag.tolist(), (t.offdiag * t.offdiag).tolist()
        real = roots_mod._sturm_counts
        passes = []

        def counting(tables, fam, degree, x, pivmin, work):
            passes.append(x.size)
            return real(tables, fam, degree, x, pivmin, work)

        monkeypatch.setattr(roots_mod, "_sturm_counts", counting)
        after = roots_mod._STEPS_AFTER
        isolated_at = []
        for k in range(n):
            del passes[:]
            lo, hi = np.array([start_lo]), np.array([start_hi])
            alone = roots_mod._bisect(
                tables, one, one, np.array([n]), np.array([k]), lo, hi, np.array([pivmin]), after
            )
            want_lo, want_hi, want_alone, step = scalar_bisect(
                a, b2, k, start_lo, start_hi, pivmin, after
            )
            assert alone.tolist() == [want_alone] == [True]
            assert len(passes) == step + after, k
            assert (lo[0], hi[0]) == (want_lo, want_hi)
            isolated_at.append(step)
        # the roots isolate at different steps, so a fixed count would not do
        assert len(set(isolated_at)) > 1
        # all the roots together: the pass count is that of the last to stop
        del passes[:]
        roots_mod._bisect(
            tables, np.zeros(n, dtype=int), np.zeros(n, dtype=int), np.full(n, n), np.arange(n),
            np.full(n, start_lo), np.full(n, start_hi), np.full(n, pivmin), after,
        )
        assert len(passes) == max(isolated_at) + after

    @pytest.mark.parametrize("family", STRESS_FAMILIES, ids=lambda fam: fam.label())
    def test_polish_does_not_fall_back_on_stress_inputs(self, family):
        # near-singular Jacobi weights, tiny and huge nu, and large orders:
        # every root settles from the shorter bisection, none is bisected
        # to full width instead
        for rv in compute_roots_many([(family, n) for n in STRESS_ORDERS]):
            assert rv.polish_skipped == (), (family.label(), rv.n)


class TestSqrtCoordinates:
    def test_nu2_n1(self):
        r = to_sqrt_coordinates(compute_roots(laguerre(2.0), 1))
        np.testing.assert_allclose(r, [2.0], rtol=1e-15)

    def test_nu_half_n1(self):
        r = to_sqrt_coordinates(compute_roots(laguerre(0.5), 1))
        np.testing.assert_allclose(r, [1.0], rtol=1e-15)

    @pytest.mark.parametrize("nu", LAGUERRE_NUS)
    @pytest.mark.parametrize("n", (1, 2, 7, 23, 50))
    def test_round_trip(self, nu, n):
        rv = compute_roots(laguerre(nu), n)
        r = to_sqrt_coordinates(rv)
        assert np.all(np.diff(r) < 0.0)
        np.testing.assert_allclose(r**2 / 2.0, rv.roots, rtol=1e-14)

    def test_rejects_other_families(self):
        with pytest.raises(FamilyMismatchError):
            to_sqrt_coordinates(compute_roots(hermite(), 3))


class TestRootVectorGaps:
    """``RootVector.gaps`` against the four ways the gaps were formed
    before it: the ``roots`` rows, ``gap_statistics``, and the gap rows of
    the descending and of the ascending families' bounds."""

    @pytest.mark.parametrize(
        "points",
        [
            [(family, n) for family in all_families() for n in range(1, 41)],
            [(family, n) for family in STRESS_FAMILIES for n in STRESS_ORDERS],
        ],
        ids=["default-grid", "stress"],
    )
    def test_gaps_match_the_former_formulas(self, points):
        for rv in compute_roots_many(points):
            z = rv.roots
            listed = z.tolist()
            rows = [abs(b - a) for a, b in zip(listed, listed[1:])]
            bounds = z[1:] - z[:-1] if rv.family.spec.ascending else z[:-1] - z[1:]
            for former in (rows, np.abs(np.diff(z)).tolist(), bounds.tolist()):
                assert rv.gaps.tolist() == former, (rv.family.label(), rv.n)
            assert np.all(rv.gaps > 0.0)

    def test_gaps_are_read_only(self):
        rv = compute_roots(jacobi(1.0, -0.9), 4)
        with pytest.raises(ValueError, match="read-only"):
            rv.gaps[0] = 1.0
        assert compute_roots(laguerre(2.0), 1).gaps.size == 0


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
    # every root to a few ulps
    assert float(worst) <= 4.0 * np.finfo(float).eps


def mpmath_steps(mpmath, family, n):
    """Reference: the recurrence steps of ``P_n`` in mpmath, from the
    family's parameters taken exactly, each step ``(a, b, c, d)`` of
    ``d p_{k+1} = (a x + b) p_k - c p_{k-1}``."""
    mpf = mpmath.mpf
    params = [mpf(value) for value in family.parameters()]
    kind = family.kind.value
    if kind == "hermite":
        return [(mpf(2), mpf(0), mpf(2 * k), mpf(1)) for k in range(n)]
    if kind == "laguerre":
        (nu,) = params
        return [(mpf(-1), 2 * k + nu, (k - 1) + nu, mpf(k + 1)) for k in range(n)]
    alpha, beta = params
    ab = alpha + beta
    steps = [((ab + 2) / 2, (alpha - beta) / 2, mpf(0), mpf(1))]
    for k in range(2, n + 1):
        s = 2 * k + ab
        steps.append((
            (s - 1) * s * (s - 2), (s - 1) * (alpha - beta) * ab,
            2 * (k + alpha - 1) * (k + beta - 1) * s, 2 * k * (k + ab) * (s - 2),
        ))
    return steps


def mpmath_root(mpmath, steps, x):
    """Reference: Newton on the recurrence from ``x``, to 45 digits."""
    x = mpmath.mpf(x)
    for _ in range(20):
        p, dp, pm1, dm1 = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(0)
        for a, b, c, d in steps:
            t = a * x + b
            p, dp, pm1, dm1 = (t * p - c * pm1) / d, (a * p + t * dp - c * dm1) / d, p, dp
        delta = p / dp
        x -= delta
        if abs(delta) <= mpmath.mpf(10) ** -45 * max(1, abs(x)):
            break
    return x


# the largest error over every default-grid root, in spacings of the
# double nearest the true root (the digest-change table of CHANGES.md)
MAX_ULPS = {"hermite": 0.75, "laguerre": 108.1, "jacobi": 19.5}


@pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
def test_default_roots_against_mpmath(family):
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(50):
        for n in (10, 25, 40):
            steps = mpmath_steps(mpmath, family, n)
            for z in compute_roots(family, n).roots.tolist():
                exact = mpmath_root(mpmath, steps, z)
                spacing = np.spacing(abs(float(exact)))
                worst = max(worst, float(abs(mpmath.mpf(z) - exact)) / spacing)
    assert worst <= MAX_ULPS[family.kind.value]
