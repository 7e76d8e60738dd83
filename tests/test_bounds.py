import math
import re
import struct
from itertools import count, product, repeat, zip_longest
from operator import itemgetter

import numpy as np
import pytest

from rootgaps import (
    BoundReport,
    EmptyProblemError,
    FamilyKind,
    FamilyMismatchError,
    ParameterDomainError,
    bound_rows,
    bound_set,
    compute_roots,
    hermite,
    hermite_diag_bound,
    jacobi,
    jacobi_bounds,
    laguerre,
    laguerre_bounds,
    sharpness_summary,
)
from rootgaps import cli, covariance
import rootgaps.bounds
from rootgaps.bounds import (
    _COMPARATOR_IDS,
    _COMPARATOR_PAIRS,
    _HOLDS_RTOL,
    _OBSERVED,
    _READS_RADIUS,
    BOUND_SPECS,
    BoundRow,
    Ragged,
    RunColumns,
)
from rootgaps.cli import DEFAULT_N_MAX, default_families
from rootgaps.families import FAMILY_SPECS
from rootgaps.roots import compute_roots_many

from conftest import JACOBI_PARAMS, LAGUERRE_NUS, all_families


def reports_for(family, n):
    return bound_set(compute_roots(family, n))


def summary_for(family, n):
    rv = compute_roots(family, n)
    return sharpness_summary(rv, RunColumns(bound_rows([rv]), 1), 0)


def by_id(reports, bound_id):
    return [r for r in reports if r.bound_id == bound_id]


class TestBoundTable:
    """``BOUND_SPECS`` against the module docstring's catalog, and the
    table's cross-references."""

    def catalog(self):
        # a catalog line starts with a family's id, two spaces in
        ids = re.findall(r"^  ((?:hermite|laguerre|jacobi)-[a-z0-9-]+)", rootgaps.bounds.__doc__, re.M)
        assert len(ids) == len(set(ids))
        return ids

    def test_catalog_names_every_row_in_row_order(self):
        assert self.catalog() == [spec.bound_id for specs in BOUND_SPECS.values() for spec in specs]

    def test_comparators_are_measured_against_derived_rows_of_their_family(self):
        for specs in BOUND_SPECS.values():
            derived = {spec.bound_id for spec in specs if not spec.against}
            for spec in specs:
                assert set(spec.against) <= derived, spec.bound_id
        assert _COMPARATOR_IDS == {
            spec.bound_id for specs in BOUND_SPECS.values() for spec in specs if spec.against
        }
        assert len(set(_COMPARATOR_PAIRS)) == len(_COMPARATOR_PAIRS)

    def test_every_observed_quantity_is_known(self):
        assert {spec.observed for specs in BOUND_SPECS.values() for spec in specs} == set(_OBSERVED)

    def test_only_the_kinds_that_read_M_are_given_it(self):
        # every other kind's formulas get NaN for M, so none may read it:
        # each must give the same value at M = NaN and at M = 1
        reads = set()
        for kind, specs in BOUND_SPECS.items():
            for spec, params, n in product(specs, FAMILY_SPECS[kind].defaults, (2, 7, 40)):
                if spec.domain is None or spec.domain(*params):
                    at_nan, at_one = spec.formula(n, math.nan, *params), spec.formula(n, 1.0, *params)
                    if not (at_nan == at_one or math.isnan(at_nan) and math.isnan(at_one)):
                        reads.add(kind)
        assert reads == _READS_RADIUS


class TestBenchHook:
    """The bench counts bound rows by wrapping the family views on the
    module; both library and command must reach them through it."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        view = rootgaps.bounds.laguerre_bounds

        def counting(points):
            calls.append(len(points))
            return view(points)

        monkeypatch.setattr(rootgaps.bounds, "laguerre_bounds", counting)
        return calls

    def test_bound_rows_calls_the_view(self, calls):
        bound_rows([compute_roots(laguerre(2.0), 4)])
        assert calls == [1]

    def test_bounds_stage_calls_the_view(self, calls):
        batch = compute_roots_many([(hermite(), 3), (laguerre(2.0), 4), (laguerre(0.5), 5)])
        chunks = list(cli._bounds_stage(batch, "csv", None, False))
        assert sorted(i for indices, *_ in chunks for i in indices) == [0, 1, 2]
        assert calls == [2]


class TestReportInvariants:
    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    @pytest.mark.parametrize("n", (2, 7, 23))
    def test_holds_slack_and_sharpness_are_consistent(self, family, n):
        for rep in reports_for(family, n):
            tol = 1e-10 * max(abs(rep.bound_value), 1.0)
            if math.isnan(rep.slack):
                assert not rep.holds
                assert rep.note == "not-applicable"
            else:
                assert rep.holds == (rep.slack >= -tol)
            if rep.holds and rep.bound_value > 0.0:
                assert rep.sharpness >= 1.0 - 1e-10

    @pytest.mark.parametrize("shortfall,holds", [(0.75e-10, True), (1.5e-10, False)])
    def test_holds_tolerance_has_a_floor_of_one(self, shortfall, holds):
        # a bound of 0.5 is allowed a shortfall of 1e-10, not 0.5e-10
        run = point_run([("hermite-gap", 0.5, 0.5 - shortfall)])
        assert run.holds.tolist() == [holds]


class TestReportRecord:
    def test_immutable(self):
        rep = reports_for(hermite(), 3)[0]
        with pytest.raises(AttributeError):
            rep.holds = False
        with pytest.raises(AttributeError):
            rep.note = "vacuous"

    def test_keyword_construction_and_defaults(self):
        rep = BoundReport(
            bound_id="hermite-gap", index=1, bound_value=1.0, observed_value=2.0, slack=1.0,
            holds=True, sharpness=2.0,
        )
        assert (rep.comparator, rep.note) == (False, "")
        assert rep.index == 1 and rep.sharpness == 2.0

    @pytest.mark.parametrize(
        "bound_id,side", [("hermite-gap", "bound_value"), ("hermite-diag-sq", "observed_value")]
    )
    def test_repeated_scalar_side_is_one_object(self, bound_id, side):
        values = [getattr(rep, side) for rep in by_id(reports_for(hermite(), 6), bound_id)]
        assert len(values) > 1
        assert all(value is values[0] for value in values)


SINGLE_ROOT_IDS = {
    "laguerre-min-root",
    "laguerre-min-root-bessel",
    "jacobi-upper-edge-strong",
    "jacobi-upper-edge-weak",
    "jacobi-lower-edge-strong",
    "jacobi-lower-edge-weak",
    "jacobi-upper-edge-asymptotic",
}


def expected_indices(bound_id, n):
    if bound_id in SINGLE_ROOT_IDS:
        return [None]
    if (
        bound_id.endswith("-diag-sq")
        or bound_id in ("hermite-inv2-sum", "hermite-inv4-sum")
        or bound_id.startswith("jacobi-boundary-product")
    ):
        return list(range(1, n + 1))
    assert "gap" in bound_id, bound_id
    return list(range(1, n))


class TestIndexContract:
    """Single-root ids give one report without an index, per-root ids one
    per root, gap ids one per gap (none at N = 1)."""

    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    def test_indices_per_bound_id(self, family):
        ids_at = {}
        for n in (1, 2, 9):
            if family.kind is FamilyKind.HERMITE and n < 2:
                continue
            indices = {}
            for rep in reports_for(family, n):
                indices.setdefault(rep.bound_id, []).append(rep.index)
            for bound_id, got in indices.items():
                assert sorted(got, key=lambda i: i or 0) == expected_indices(bound_id, n), (
                    bound_id, n,
                )
            ids_at[n] = set(indices)
        assert ids_at[9] == ids_at[2]
        if 1 in ids_at:
            assert ids_at[1] == {i for i in ids_at[2] if "gap" not in i}


class TestHermiteBounds:
    def test_n2_gap_bound_is_an_equality(self):
        reports = by_id(reports_for(hermite(), 2), "hermite-gap")
        assert len(reports) == 1
        rep = reports[0]
        assert abs(rep.bound_value - math.sqrt(2.0)) <= 1e-15
        assert abs(rep.slack) <= 1e-12
        assert rep.holds

    def test_n2_diag_cap_is_an_equality(self):
        # by hand: squared gap 2, so the diagonal-of-square is
        # (1/2)^2 + (1/2)^2 = 1/2, equal to the cap (N-1)^3/N = 1/2
        for rep in by_id(reports_for(hermite(), 2), "hermite-diag-sq"):
            assert abs(rep.bound_value - 0.5) <= 1e-14
            assert abs(rep.observed_value - 0.5) <= 1e-14
            assert abs(rep.slack) <= 1e-12

    def test_n10_all_derived_bounds_hold(self):
        for rep in reports_for(hermite(), 10):
            if not rep.comparator:
                assert rep.holds, rep

    def test_comparator_is_flagged(self):
        reports = by_id(reports_for(hermite(), 5), "hermite-gap-comparator")
        assert reports and all(r.comparator for r in reports)

    def test_gap_bound_scaling_floor(self):
        # the gap floor times sqrt(N-1) never falls below 2^(1/4)
        for n in range(2, 51):
            rep = by_id(reports_for(hermite(), n), "hermite-gap")[0]
            assert rep.bound_value * math.sqrt(n - 1) >= 2.0**0.25 * (1.0 - 1e-15)

    def test_needs_at_least_two_roots(self):
        with pytest.raises(ParameterDomainError):
            hermite_diag_bound([compute_roots(hermite(), 1)])

    def test_rejects_other_families(self):
        with pytest.raises(FamilyMismatchError):
            hermite_diag_bound([compute_roots(laguerre(1.0), 3)])


class TestLaguerreBounds:
    def test_n1_min_root_is_an_equality(self):
        rep = by_id(reports_for(laguerre(3.0), 1), "laguerre-min-root")[0]
        assert abs(rep.bound_value - 3.0) <= 1e-14
        assert abs(rep.slack) <= 1e-12

    def test_n1_diag_cap_is_an_equality(self):
        rep = by_id(reports_for(laguerre(3.0), 1), "laguerre-diag-sq")[0]
        assert abs(rep.bound_value - 1.0) <= 1e-13
        assert abs(rep.observed_value - 1.0) <= 1e-15

    def test_small_nu_sweep_holds(self):
        for rep in reports_for(laguerre(0.5), 5):
            if not rep.comparator and not rep.note:
                assert rep.holds, rep

    def test_bessel_rows_not_applicable_below_nu_one(self):
        reports = reports_for(laguerre(0.5), 5)
        for bound_id in ("laguerre-gap-bessel-strong", "laguerre-gap-bessel-weak"):
            group = by_id(reports, bound_id)
            assert group
            for rep in group:
                assert rep.note == "not-applicable"
                assert math.isnan(rep.bound_value)
                assert not rep.holds

    def test_strong_dominates_weak_everywhere(self):
        for nu in LAGUERRE_NUS:
            for n in (2, 5, 17, 40):
                reports = reports_for(laguerre(nu), n)
                strong = by_id(reports, "laguerre-gap-strong")[0].bound_value
                weak = by_id(reports, "laguerre-gap-weak")[0].bound_value
                assert strong >= weak * (1.0 - 1e-15)
                if nu >= 1.0:
                    bstrong = by_id(reports, "laguerre-gap-bessel-strong")[0].bound_value
                    bweak = by_id(reports, "laguerre-gap-bessel-weak")[0].bound_value
                    assert bstrong >= bweak * (1.0 - 1e-15)

    def test_vacuous_comparator_marker(self):
        rep = by_id(reports_for(laguerre(0.2), 3), "laguerre-min-root-bessel")[0]
        assert rep.note == "vacuous"
        assert rep.bound_value < 0.0
        assert rep.holds  # trivially true, never gating

    def test_comparator_crossovers(self):
        # the pi-type comparator wins for small nu and loses for large nu
        small = reports_for(laguerre(0.1), 10)
        assert (
            by_id(small, "laguerre-gap-comparator-3")[0].bound_value
            > by_id(small, "laguerre-gap-strong")[0].bound_value
        )
        large = reports_for(laguerre(50.0), 10)
        assert (
            by_id(large, "laguerre-gap-comparator-3")[0].bound_value
            < by_id(large, "laguerre-gap-strong")[0].bound_value
        )

    @pytest.mark.parametrize("nu", [0.1, 0.5, 2.0, 50.0, 3e-16, 1e-20, 1e-300])
    def test_comparator_1_against_mpmath(self, nu):
        # (nu - 1) / sqrt(((n - 1) + nu) n) takes five roundings of half an
        # ulp each, the square root halving its argument's: at most two
        # units of relative error, so at most 4 ulps.  Summed as n + nu - 1,
        # the bound at N = 1 lost a nu below 1.1e-16, or divided by zero.
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(50):
            for n in (1, 2, 4, 16, 40):
                rows = rows_at(laguerre_bounds([compute_roots(laguerre(nu), n)]), 0)
                (bound,) = [row[1] for row in rows if row[0] == "laguerre-gap-comparator-1"]
                exact = (mpmath.mpf(nu) - 1) / mpmath.sqrt(((n - 1) + mpmath.mpf(nu)) * n)
                assert abs(mpmath.mpf(bound) - exact) <= 4 * math.ulp(bound), (n, bound)

    def test_large_nu_comparator_has_best_constant(self):
        reports = reports_for(laguerre(10.0), 5)
        ratio = (
            by_id(reports, "laguerre-gap-comparator-2")[0].bound_value
            / by_id(reports, "laguerre-gap-bessel-strong")[0].bound_value
        )
        assert ratio > 1.0


class TestJacobiBounds:
    @pytest.mark.parametrize("alpha,beta", [(0.0, 0.0), (-0.5, -0.5), (10.0, 10.0)])
    def test_n1_symmetric_edge_equalities(self, alpha, beta):
        reports = reports_for(jacobi(alpha, beta), 1)
        for bound_id in ("jacobi-upper-edge-strong", "jacobi-lower-edge-strong"):
            rep = by_id(reports, bound_id)[0]
            assert abs(rep.slack) <= 1e-12, rep

    def test_n1_equality_sits_on_the_smaller_parameter_side(self):
        # alpha > beta: the root is nearer -1, the lower-edge floor is tight
        reports = reports_for(jacobi(1.0, -0.9), 1)
        assert abs(by_id(reports, "jacobi-lower-edge-strong")[0].slack) <= 1e-12
        assert by_id(reports, "jacobi-upper-edge-strong")[0].slack > 1e-3
        # alpha < beta: mirrored
        reports = reports_for(jacobi(2.0, 3.0), 1)
        assert abs(by_id(reports, "jacobi-upper-edge-strong")[0].slack) <= 1e-12
        assert by_id(reports, "jacobi-lower-edge-strong")[0].slack > 1e-3

    def test_n1_legendre_symmetric_product_equality(self):
        # z = 0, width 1, floor 8/(M + 4) = 1 with M = 4
        rep = by_id(reports_for(jacobi(0.0, 0.0), 1), "jacobi-boundary-product-symmetric")[0]
        assert abs(rep.bound_value - 1.0) <= 1e-15
        assert abs(rep.slack) <= 1e-12

    def test_symmetric_rows_only_for_equal_parameters(self):
        asym = reports_for(jacobi(2.0, 3.0), 6)
        assert not by_id(asym, "jacobi-boundary-product-symmetric")
        assert not by_id(asym, "jacobi-gap-symmetric")
        sym = reports_for(jacobi(10.0, 10.0), 6)
        assert by_id(sym, "jacobi-boundary-product-symmetric")
        assert by_id(sym, "jacobi-gap-symmetric")

    def test_n10_all_derived_bounds_hold(self):
        for rep in reports_for(jacobi(2.0, 3.0), 10):
            if not rep.comparator and not rep.note:
                assert rep.holds, rep

    def test_strong_dominates_weak(self):
        for alpha, beta in JACOBI_PARAMS:
            for n in (1, 4, 19, 40):
                reports = reports_for(jacobi(alpha, beta), n)
                for side in ("upper", "lower"):
                    strong = by_id(reports, f"jacobi-{side}-edge-strong")[0].bound_value
                    weak = by_id(reports, f"jacobi-{side}-edge-weak")[0].bound_value
                    assert strong >= weak * (1.0 - 1e-15)

    def test_comparator_crossover(self):
        high_alpha = reports_for(jacobi(5.0, 0.0), 30)
        assert (
            by_id(high_alpha, "jacobi-upper-edge-asymptotic")[0].bound_value
            > by_id(high_alpha, "jacobi-upper-edge-strong")[0].bound_value
        )
        low_alpha = reports_for(jacobi(0.5, 0.5), 30)
        assert (
            by_id(low_alpha, "jacobi-upper-edge-asymptotic")[0].bound_value
            < by_id(low_alpha, "jacobi-upper-edge-strong")[0].bound_value
        )

    @pytest.mark.parametrize("alpha", [0.7734820617942575, -0.28503877433830327, 6.520121178923383])
    def test_n1_symmetric_discriminant_is_clamped(self, alpha, tmp_path):
        # M^2 - 16(alpha+1)(beta+1) is exactly 0 at alpha = beta, N = 1, but
        # rounds below 0 here, where its square root raised
        rv = compute_roots(jacobi(alpha, alpha), 1)
        big_m = float(rv.family.spec.spectrum(1, *rv.family.parameters())[-1])
        assert big_m**2 - 16.0 * (alpha + 1.0) * (alpha + 1.0) < 0.0
        for rep in bound_set(rv):
            assert rep.comparator or rep.note or rep.holds, rep
        argv = ["bounds", "--family", "jacobi", "--alpha", repr(alpha), "--beta", repr(alpha), "--n", "1"]
        assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == 0

    def test_comparator_markers(self):
        def asymptotic(alpha, beta):
            reports = bound_set(compute_roots(jacobi(alpha, beta), 4))
            return by_id(reports, "jacobi-upper-edge-asymptotic")[0]

        vacuous = asymptotic(0.0, 0.0)
        assert vacuous.note == "vacuous" and vacuous.bound_value == 0.0
        outside = asymptotic(-0.5, -0.5)
        assert outside.note == "not-applicable"
        assert math.isnan(outside.bound_value)


class TestRunArguments:
    """Every bound function takes a nonempty run of root vectors."""

    @pytest.mark.parametrize("bounds", [bound_rows, hermite_diag_bound, laguerre_bounds, jacobi_bounds])
    def test_empty_run_is_an_empty_problem(self, bounds):
        with pytest.raises(EmptyProblemError):
            bounds([])


def run_bits(run):
    """A ``RunColumns``' columns, point offsets and violation counts, each
    array as its dtype, shape and bytes, so that equal means bit for bit."""

    def bits(value):
        if isinstance(value, tuple):
            return tuple(map(bits, value))
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.shape, value.tobytes()
        return value

    return bits((run.columns, run.starts, run.violations))


class TestRunStacks:
    """A run's ``(lin, cross)`` come from one interaction-sums stack per
    order group (``covariance.order_groups``), not one per point, and do
    not depend on how the stack cap splits the groups, for every kind and
    through ``bound_rows`` as through the kind's own view."""

    # three points of each of two orders, the orders interleaved in the run
    POINTS = {
        "hermite": [(hermite(), n) for _ in range(3) for n in (3, 8)],
        "laguerre": [(laguerre(nu), n) for nu in (0.5, 2.0, 7.0) for n in (3, 8)],
        "jacobi": [(jacobi(a, b), n) for a, b in ((-0.5, -0.5), (1.0, -0.9), (2.0, 3.0)) for n in (3, 8)],
    }
    VIEWS = {"hermite": hermite_diag_bound, "laguerre": laguerre_bounds, "jacobi": jacobi_bounds}

    @pytest.fixture(params=["hermite", "laguerre", "jacobi"])
    def kind(self, request):
        return request.param

    @pytest.fixture(params=["bound_rows", "view"])
    def rows_of(self, request, kind):
        return bound_rows if request.param == "bound_rows" else self.VIEWS[kind]

    @pytest.fixture
    def groups(self, monkeypatch):
        groups = []
        real_pair_terms = covariance.pair_terms

        def pair_terms(group):
            groups.append((group[0].n, len(group)))
            return real_pair_terms(group)

        monkeypatch.setattr(covariance, "pair_terms", pair_terms)
        return groups

    def test_one_stack_per_order_group(self, kind, rows_of, groups):
        rows_of(compute_roots_many(self.POINTS[kind]))
        assert groups == [(3, 3), (8, 3)]

    def test_capped_groups_give_the_same_columns(self, monkeypatch, kind, rows_of, groups):
        points = compute_roots_many(self.POINTS[kind])
        whole = RunColumns(rows_of(points), len(points))
        groups.clear()
        # 50 entries hold five points of order 3 and one of order 8
        monkeypatch.setattr(covariance, "_STACK_ENTRIES", 50)
        capped = RunColumns(rows_of(points), len(points))
        assert groups == [(3, 3), (8, 1), (8, 1), (8, 1)]
        assert run_bits(capped) == run_bits(whole)

    @pytest.mark.parametrize("kind", ["hermite", "laguerre", "jacobi"])
    def test_a_point_of_another_kind_is_rejected(self, kind):
        # the odd point comes last, after a run whose stacks are of one kind
        other = jacobi(1.0, 1.0) if kind == "laguerre" else laguerre(1.0)
        points = compute_roots_many([*self.POINTS[kind], (other, 3)])
        with pytest.raises(FamilyMismatchError):
            self.VIEWS[kind](points)


class TestUniversalValidity:
    """Every applicable derived bound must hold on the whole sweep; one
    violation is a build-stopping failure."""

    @pytest.mark.parametrize("family", all_families(), ids=lambda fam: fam.label())
    def test_full_sweep(self, family):
        start = 2 if family.kind is FamilyKind.HERMITE else 1
        for n in range(start, 51):
            if family.kind is FamilyKind.HERMITE and n < 2:
                continue
            for rep in reports_for(family, n):
                if rep.comparator or rep.note:
                    continue
                assert rep.holds, (family.label(), n, rep)


class TestSharpnessSummary:
    def test_hermite_identity_ratio(self):
        summary = summary_for(hermite(), 2)
        assert abs(summary.diag_square_identity_ratio - 1.0) <= 1e-10

    @pytest.mark.parametrize("nu", LAGUERRE_NUS)
    @pytest.mark.parametrize("n", (1, 3, 12, 40))
    def test_laguerre_identity_ratio(self, nu, n):
        summary = summary_for(laguerre(nu), n)
        assert abs(summary.diag_square_identity_ratio - 1.0) <= 1e-10

    def test_aggregate_slack_factors(self):
        # summed caps against summed left sides: the diagonal cap is loose
        # by about a factor 3, the inverse-square sum cap by about 2
        reports = reports_for(hermite(), 30)
        diag = by_id(reports, "hermite-diag-sq")
        ratio = sum(r.observed_value for r in diag) / sum(r.bound_value for r in diag)
        assert 2.5 <= ratio <= 3.2
        inv2 = by_id(reports, "hermite-inv2-sum")
        ratio = sum(r.observed_value for r in inv2) / sum(r.bound_value for r in inv2)
        assert 1.8 <= ratio <= 2.2

    def test_comparator_ratios_present(self):
        summary = summary_for(laguerre(10.0), 10)
        assert "laguerre-gap-comparator-3/laguerre-gap-strong" in summary.comparator_ratios

    def test_worst_sharpness_at_least_one_for_holding_bounds(self):
        summary = summary_for(jacobi(2.0, 3.0), 15)
        for bound_id, value in summary.worst.items():
            assert value >= 1.0 - 1e-10, bound_id

    def test_no_reports_give_an_empty_summary(self):
        summary = sharpness_summary(compute_roots(hermite(), 3), point_run([]), 0)
        assert (summary.worst, summary.mean, summary.comparator_ratios) == ({}, {}, {})
        assert summary.diag_square_identity_ratio is None


def expand(rows):
    """The scalar rule before bound sets went to columns: one report per
    entry, each field computed on Python floats, from one point's rows as
    tuples ``(bound_id, bound, observed[, note])``.  Kept as the reference
    for ``RunColumns``."""
    reports = []
    make = BoundReport._make
    for bound_id, bound, observed, *rest in rows:
        comparator = bound_id in _COMPARATOR_IDS
        note = rest[0] if rest else ""
        if isinstance(bound, np.ndarray):
            entries = zip(count(1), bound.tolist(), repeat(float(observed)))
        elif isinstance(observed, np.ndarray):
            entries = zip(count(1), repeat(float(bound)), observed.tolist())
        else:
            entries = ((None, float(bound), float(observed)),)
        for index, bound_value, observed_value in entries:
            slack = observed_value - bound_value
            holds = slack >= -_HOLDS_RTOL * max(abs(bound_value), 1.0)
            sharpness = observed_value / bound_value if bound_value > 0.0 else math.nan
            vacuous = comparator and not note and bound_value <= 0.0
            reports.append(make((
                bound_id, index, bound_value, observed_value, slack, holds, sharpness,
                comparator, "vacuous" if vacuous else note,
            )))
    return reports


def summary_of_reports(z, reports):
    """The sharpness summary as it was computed from reports, with
    Python's sequential sums.  Kept as the reference for
    ``sharpness_summary``."""
    worst, mean, by_id = {}, {}, {}
    for rep in reports:
        by_id.setdefault(rep.bound_id, []).append(rep)
    for bound_id, group in by_id.items():
        values = [r.sharpness for r in group if not r.note and math.isfinite(r.sharpness)]
        if values:
            worst[bound_id] = min(values)
            mean[bound_id] = sum(values) / len(values)
    ratio = None
    fam = z.family
    _, square_target = fam.spec.trace_targets(fam.spec.spectrum(z.n, *fam.parameters()))
    diag_id = f"{fam.kind.value}-diag-sq"
    if square_target is not None and diag_id in by_id:
        ratio = sum(r.bound_value for r in by_id[diag_id]) / square_target
    comparator_ratios = {}
    for cmp_id, own_id in _COMPARATOR_PAIRS:
        if cmp_id in by_id and own_id in by_id:
            cmp_value = by_id[cmp_id][0].bound_value
            own_value = by_id[own_id][0].bound_value
            if math.isfinite(cmp_value) and own_value > 0.0:
                comparator_ratios[f"{cmp_id}/{own_id}"] = cmp_value / own_value
    return worst, mean, ratio, comparator_ratios


def same(a, b):
    """Equal in type and value, floats bit for bit (so -0.0 is not 0.0
    and a NaN equals a NaN of the same bits)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    return a == b


def assert_reports_match(got, expected):
    assert len(got) == len(expected)
    for rep, ref in zip(got, expected):
        assert len(rep) == len(ref) == len(BoundReport._fields)
        for name, x, y in zip(BoundReport._fields, rep, ref):
            assert same(x, y), (name, rep, ref)


def column_entries(columns, start, stop):
    """One tuple per entry ``start:stop`` from the columns of a run's
    ``bounds`` output rows, its fields those of a ``BoundReport``: a
    per-entry array item by item, and a ``(pool, keys)`` pair's pool item
    at each entry's key."""
    assert len(columns) == len(BoundReport._fields)
    total = columns[4].size
    fields = []
    for name, column in zip(BoundReport._fields, columns):
        if isinstance(column, tuple):
            pool, keys = column
            assert isinstance(keys, np.ndarray) and keys.shape == (total,), name
            pool = pool.tolist() if isinstance(pool, np.ndarray) else pool
            fields.append([pool[key] for key in keys[start:stop].tolist()])
        else:
            assert isinstance(column, np.ndarray) and column.shape == (total,), name
            fields.append(column[start:stop].tolist())
    return list(zip(*fields))


def point_entries(run, p):
    """Point ``p``'s entries of a ``RunColumns``, as ``column_entries``."""
    return column_entries(run.columns, run.starts[p], run.starts[p + 1])


def scalar_violations(reports):
    return sum(1 for r in reports if not r.comparator and not r.note and not r.holds)


def rows_at(rows, p):
    """Point ``p``'s rows of a run as tuples ``(bound_id, bound, observed,
    note)``: a column side as a float, a ragged side as the point's array;
    a row that does not apply at ``p`` is left out."""

    def side_at(side):
        if isinstance(side, Ragged):
            return side.values[side.starts[p]:side.starts[p + 1]]
        return float(side[p])

    return [
        (
            row.bound_id, side_at(row.bound), side_at(row.observed),
            row.note if isinstance(row.note, str) else row.note[p],
        )
        for row in rows
        if row.applies is None or row.applies[p]
    ]


def run_of(points):
    """The run rows of points given by their row tuples, each point's rows
    with the same ids in the same order and a row that a point lacks as
    ``None``."""
    rows = []
    for same in zip(*points):
        present = [row for row in same if row is not None]
        padded = [row or present[0] for row in same]
        sides = []
        for k in (1, 2):
            values = [row[k] for row in padded]
            if isinstance(values[0], np.ndarray):
                starts = np.cumsum([0] + [value.size for value in values])
                sides.append(Ragged(np.concatenate(values), starts))
            else:
                sides.append(np.array(values, dtype=float))
        notes = [row[3] if len(row) > 3 else "" for row in padded]
        applies = None if len(present) == len(same) else np.array([row is not None for row in same])
        rows.append(BoundRow(present[0][0], *sides, notes, applies))
    return rows


def point_run(rows):
    """``RunColumns`` of a run of one point given by its row tuples."""
    return RunColumns(run_of([rows]), 1)


def assert_columns_match_scalar_rule(rows):
    run = point_run(rows)
    reports = expand(rows)
    assert_reports_match(point_entries(run, 0), reports)
    assert run.violations == [scalar_violations(reports)]
    return run, reports


# rows that the default grid does not give, or gives only incidentally
EDGE_ROWS = {
    # a NaN bound with its note, as the Bessel rows at nu < 1
    "not-applicable": [
        ("laguerre-gap-bessel-strong", math.nan, np.array([0.5, 0.25]), "not-applicable"),
        ("jacobi-upper-edge-asymptotic", math.nan, 0.5, "not-applicable"),
    ],
    # nonpositive comparator bounds are vacuous; a nonpositive derived
    # bound is not, and a failing comparator never gates
    "vacuous": [
        ("laguerre-gap-comparator-1", -0.25, np.array([0.5, 0.25])),
        ("laguerre-min-root-bessel", 0.0, 0.125),
        ("laguerre-gap-comparator-2", 2.0, np.array([0.5, 0.25])),
        ("laguerre-gap-strong", -0.5, np.array([0.5, 0.25])),
    ],
    # the gap rows at N = 1
    "empty": [
        ("hermite-gap", 0.5, np.array([])),
        ("jacobi-diag-sq", np.array([]), 2.0),
        ("laguerre-min-root", 0.5, 0.75),
    ],
    "negative-zero": [
        ("hermite-gap-comparator", -0.0, np.array([0.0, -0.0])),
        ("hermite-gap", -0.0, 0.0),
        ("hermite-inv2-sum", np.array([-0.0, 0.0]), -0.0),
    ],
    # slacks on either side of the tolerance -1e-10 max(|bound|, 1), one ulp
    # of the observed side apart (exactly at it for a zero bound), at the
    # floor of one and above it
    "holds-edge": [
        ("hermite-gap", 0.0, -_HOLDS_RTOL),
        ("hermite-gap", -0.0, np.array([-_HOLDS_RTOL, np.nextafter(-_HOLDS_RTOL, -1.0)])),
        ("jacobi-gap", 1.0, np.array([np.nextafter(1.0 - _HOLDS_RTOL, 2.0), 1.0 - _HOLDS_RTOL])),
        ("jacobi-gap", 4.0, np.array([np.nextafter(4.0 - 4 * _HOLDS_RTOL, 5.0), 4.0 - 4 * _HOLDS_RTOL])),
    ],
    "infinite": [
        ("hermite-gap", math.inf, np.array([math.inf, 1.0])),
        ("hermite-gap-comparator", -math.inf, 1.0),
    ],
}


class TestColumnsMatchScalarRule:
    """``RunColumns`` of one point against the scalar rule, field by field,
    bit for bit, and the views built from the columns against their
    former report-based computation."""

    @pytest.mark.parametrize("name", sorted(EDGE_ROWS))
    def test_edge_rows(self, name):
        assert_columns_match_scalar_rule(EDGE_ROWS[name])

    def test_edge_rows_give_every_note_and_outcome(self):
        reports = [rep for rows in EDGE_ROWS.values() for rep in expand(rows)]
        assert {rep.note for rep in reports} == {"", "vacuous", "not-applicable"}
        assert {rep.holds for rep in reports if not rep.comparator and not rep.note} == {
            True, False,
        }

    @pytest.mark.parametrize("fam", default_families(), ids=lambda fam: fam.label())
    def test_every_default_point(self, fam):
        for n in range(fam.spec.min_n, DEFAULT_N_MAX + 1):
            rv = compute_roots(fam, n)
            rows = rows_at(bound_rows([rv]), 0)
            run, reports = assert_columns_match_scalar_rule(rows)
            assert_reports_match(bound_set(rv), reports)
            assert all(type(rep) is BoundReport for rep in bound_set(rv))
            summary = sharpness_summary(rv, run, 0)
            got = (
                summary.worst, summary.mean, summary.diag_square_identity_ratio,
                summary.comparator_ratios,
            )
            for x, y in zip(got, summary_of_reports(rv, reports)):
                assert same(x, y), (fam.label(), n, x, y)


# the default grid, interleaved with points off it: nu subnormal, tiny and
# large, alpha and beta near -1, large and symmetric, and alpha = beta at
# N = 1 where the Jacobi discriminant rounds below 0
STRESS_POINTS = [
    (fam, n)
    for fam in [
        laguerre(1e-320), laguerre(1e-20), laguerre(0.1), laguerre(1000.0),
        jacobi(-0.999, -0.999), jacobi(-0.9999, 5.0), jacobi(50.0, 50.0),
    ]
    for n in (1, 2, 5, 17, 40)
] + [(jacobi(0.7734820617942575, 0.7734820617942575), 1)]
DEFAULT_POINTS = [
    (fam, n) for fam in default_families() for n in range(fam.spec.min_n, DEFAULT_N_MAX + 1)
]
MIXED_POINTS = [
    point for pair in zip_longest(DEFAULT_POINTS[::2], STRESS_POINTS, DEFAULT_POINTS[1::2])
    for point in pair if point is not None
]


class TestRunColumnsMatchScalarRule:
    """One mixed batch, evaluated a kind at a time as one run, against the
    scalar rule on each point alone, field by field, bit for bit."""

    @pytest.fixture(scope="class")
    def batch(self):
        return compute_roots_many(MIXED_POINTS)

    def test_library_runs(self, batch):
        kinds = {}
        for rv in batch:
            kinds.setdefault(rv.family.kind, []).append(rv)
        assert len(kinds) == 3
        for run in kinds.values():
            columns = RunColumns(bound_rows(run), len(run))
            for p, rv in enumerate(run):
                reports = expand(rows_at(bound_rows([rv]), 0))
                assert_reports_match(point_entries(columns, p), reports)
                assert columns.violations[p] == scalar_violations(reports), rv.family.label()

    def test_bounds_stage(self, batch):
        seen = set()
        for indices, counts, columns, summaries in cli._bounds_stage(batch, "json", None, False):
            assert len(indices) == len(counts) == len(summaries)
            starts = np.cumsum([0, *counts]).tolist()
            for i, start, stop, summary in zip(indices, starts, starts[1:], summaries):
                rv = batch[i]
                reports = expand(rows_at(sorted(bound_rows([rv]), key=itemgetter(0)), 0))
                assert_reports_match(column_entries(columns, start, stop), reports)
                assert summary["violations"] == scalar_violations(reports), (rv.family.label(), rv.n)
                agg = (
                    summary["worst_sharpness"], summary["mean_sharpness"],
                    summary["diag_square_identity_ratio"], summary["comparator_ratios"],
                )
                for x, y in zip(agg, summary_of_reports(rv, reports)):
                    assert same(x, y), (rv.family.label(), rv.n, x, y)
                seen.add(i)
        assert seen == set(range(len(batch)))

    def test_rows_that_share_a_side_share_keys(self, batch):
        run = [rv for rv in batch if rv.family.kind is FamilyKind.LAGUERRE]
        rows = bound_rows(run)
        assert len(rows) == 11
        columns = RunColumns(rows, len(run))
        gaps, roots = sum(rv.n - 1 for rv in run), sum(rv.n for rv in run)
        # observed: the diag-sq cap's column, the last root's column (two
        # rows), the gaps (seven rows) and the square-root gaps, each once;
        # bound: ten formula columns and the diag-sq sides, one per root
        pool, keys = columns.observed_value
        assert pool.size == 2 * len(run) + 2 * gaps
        assert columns.bound_value[0].size == 10 * len(run) + roots
        gap_rows = [r for r, row in enumerate(rows) if row.observed is rows[2].observed]
        assert len(gap_rows) == 7
        for p, rv in enumerate(run):
            start, stop = columns.starts[p], columns.starts[p + 1]
            row = columns.row[start:stop]
            point_keys = [keys[start:stop][row == r].tolist() for r in gap_rows]
            assert all(k == point_keys[0] for k in point_keys)
            assert len(point_keys[0]) == rv.n - 1

    def test_batch_gives_every_note_and_outcome(self, batch):
        reports = [rep for rv in batch for rep in bound_set(rv)]
        assert {rep.note for rep in reports} == {"", "vacuous", "not-applicable"}
        assert {rep.holds for rep in reports if rep.comparator} == {True, False}

    def test_synthetic_run_with_violations(self):
        # rows whose entries and outcomes vary from point to point: ragged
        # sides of 0 to 5 entries, notes, and a row that one order lacks
        def point_rows(k, shortfall):
            gaps = 1.0 - shortfall * np.arange(k, dtype=float)
            note = "" if k % 2 else "not-applicable"
            return [
                ("hermite-gap", 0.5, 0.5 - shortfall),
                ("jacobi-gap", 1.0, gaps),
                None if k == 3 else ("jacobi-gap-symmetric", 0.75, gaps),
                ("laguerre-gap-comparator-1", 0.5 - 4e9 * shortfall, gaps),
                ("laguerre-gap-bessel-strong", math.nan if note else 1.0 - shortfall, gaps, note),
                ("jacobi-diag-sq", 2.0 * gaps, 2.0),
            ]

        shortfalls = (0.0, 0.75e-10, 1.5e-10, 0.25, -0.0, 3.0)
        points = [point_rows(k, shortfall) for k in range(6) for shortfall in shortfalls]
        columns = RunColumns(run_of(points), len(points))
        counts = []
        for p, rows in enumerate(points):
            reports = expand([row for row in rows if row is not None])
            assert_reports_match(point_entries(columns, p), reports)
            counts.append(scalar_violations(reports))
            assert columns.violations[p] == counts[-1], p
        assert min(counts) == 0 and max(counts) >= 3
