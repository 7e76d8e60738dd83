import math

import numpy as np
import pytest

from rootgaps import (
    FamilyKind,
    FamilyMismatchError,
    ParameterDomainError,
    compute_roots,
    hermite,
    hermite_diag_bound,
    jacobi,
    jacobi_bounds,
    jacobi_comparator,
    laguerre,
    laguerre_bounds,
    laguerre_comparators,
    sharpness_summary,
)

from conftest import JACOBI_PARAMS, LAGUERRE_NUS, all_families


def reports_for(family, n):
    rv = compute_roots(family, n)
    if family.kind is FamilyKind.HERMITE:
        return hermite_diag_bound(rv)
    if family.kind is FamilyKind.LAGUERRE:
        return laguerre_bounds(rv) + laguerre_comparators(rv)
    return jacobi_bounds(rv) + [jacobi_comparator(rv)]


def by_id(reports, bound_id):
    return [r for r in reports if r.bound_id == bound_id]


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
            hermite_diag_bound(compute_roots(hermite(), 1))

    def test_rejects_other_families(self):
        with pytest.raises(FamilyMismatchError):
            hermite_diag_bound(compute_roots(laguerre(1.0), 3))


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

    def test_comparator_markers(self):
        vacuous = jacobi_comparator(compute_roots(jacobi(0.0, 0.0), 4))
        assert vacuous.note == "vacuous" and vacuous.bound_value == 0.0
        outside = jacobi_comparator(compute_roots(jacobi(-0.5, -0.5), 4))
        assert outside.note == "not-applicable"
        assert math.isnan(outside.bound_value)


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
        summary = sharpness_summary(reports_for(hermite(), 2))
        assert abs(summary.diag_square_identity_ratio - 1.0) <= 1e-10

    @pytest.mark.parametrize("nu", LAGUERRE_NUS)
    @pytest.mark.parametrize("n", (1, 3, 12, 40))
    def test_laguerre_identity_ratio(self, nu, n):
        summary = sharpness_summary(reports_for(laguerre(nu), n))
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
        summary = sharpness_summary(reports_for(laguerre(10.0), 10))
        assert "laguerre-gap-comparator-3/laguerre-gap-strong" in summary.comparator_ratios

    def test_worst_sharpness_at_least_one_for_holding_bounds(self):
        summary = sharpness_summary(reports_for(jacobi(2.0, 3.0), 15))
        for bound_id, value in summary.worst.items():
            assert value >= 1.0 - 1e-10, bound_id

    def test_empty_input_gives_empty_marker(self):
        summary = sharpness_summary([])
        assert summary.empty
        assert summary.family is None

    def test_mixed_families_rejected(self):
        mixed = reports_for(hermite(), 3) + reports_for(laguerre(1.0), 3)
        with pytest.raises(FamilyMismatchError):
            sharpness_summary(mixed)

    def test_mixed_orders_rejected(self):
        mixed = reports_for(hermite(), 3) + reports_for(hermite(), 4)
        with pytest.raises(FamilyMismatchError):
            sharpness_summary(mixed)
