"""Root-gap and boundary-distance bounds, evaluated against computed roots.

Every report is normalized to the direction ``observed_value >=
bound_value``: for a lower bound the formula lands in ``bound_value`` and
the measured quantity in ``observed_value``; for an upper bound (the
diagonal-of-square caps) the measured left-hand side is the smaller
quantity and therefore lands in ``bound_value`` while the cap is
``observed_value``.  ``slack = observed - bound`` is then nonnegative
exactly when the inequality holds, and ``sharpness = observed / bound``
equals 1 at an equality case.

Bound identifiers, with the family ordering conventions (Hermite and
Laguerre descending, Jacobi ascending; indices are 1-based):

Hermite (derived):
  hermite-diag-sq     (sum_l (z_i-z_l)^-2)^2 + sum_l (z_i-z_l)^-4 <= (N-1)^3/N
  hermite-inv4-sum    sum_l (z_i-z_l)^-4 <= (N-1)^3/(2N)
  hermite-inv2-sum    sum_l (z_i-z_l)^-2 <= (N-1)^(3/2)/sqrt(N)
  hermite-gap         z_i - z_{i+1} >= (2N)^(1/4)/(N-1)^(3/4)
Hermite (comparator):
  hermite-gap-comparator          z_i - z_{i+1} >= 2/sqrt(N)

Laguerre (derived):
  laguerre-diag-sq    (nu/z_i + 2 sum_l (z_i+z_l)/(z_i-z_l)^2)^2
                        + 16 sum_l z_i z_l/(z_i-z_l)^4 <= (2N-1)^2
  laguerre-min-root   z_N >= nu/(2N-1)
  laguerre-gap-strong z_i - z_{i+1} >= sqrt(2(1+sqrt(1+8 nu^2)))/(2N-1)
  laguerre-gap-weak   z_i - z_{i+1} >= 2*2^(1/4) sqrt(nu)/(2N-1)
  laguerre-gap-bessel-strong  (nu >= 1)
      z_i - z_{i+1} >= sqrt(2)/(2N-1) *
        sqrt(2 + sqrt(2) sqrt(2 + (2N-1)^2 (nu^2-1)^2/(N+nu/2)^2))
  laguerre-gap-bessel-weak    (nu >= 1)
      z_i - z_{i+1} >= 2^(3/4) sqrt(nu^2-1)/sqrt((2N-1)(N+nu/2))
  laguerre-sqrt-gap   sqrt(z_i) - sqrt(z_{i+1}) >= 1/sqrt(2N-1)
Laguerre (comparators, from the literature):
  laguerre-min-root-bessel    z_N >= (nu^2-1)/(4(N+nu/2))
  laguerre-gap-comparator-1   z_i - z_{i+1} >= (nu-1)/sqrt((N+nu-1)N)
  laguerre-gap-comparator-2   z_i - z_{i+1} >= 2 sqrt(2) nu/sqrt((N+nu)N)
  laguerre-gap-comparator-3   z_i - z_{i+1} >= pi sqrt(2)/sqrt(2 nu N + nu + 2N^2)

Jacobi (derived; M is the spectral radius from ``max_eigenvalue``):
  jacobi-diag-sq      (s_ii closed form)^2 + 16 sum_l (1-z_i^2)(1-z_l^2)/(z_i-z_l)^4 <= M^2
  jacobi-upper-edge-strong  1 - z_N >= 8(alpha+1)/(M + 4(alpha+1) + sqrt(M^2 - 16(alpha+1)(beta+1)))
  jacobi-upper-edge-weak    1 - z_N >= 4(alpha+1)/(M + 2(alpha+1))
  jacobi-lower-edge-strong  1 + z_1 >= 8(beta+1)/(M + 4(beta+1) + sqrt(M^2 - 16(alpha+1)(beta+1)))
  jacobi-lower-edge-weak    1 + z_1 >= 4(beta+1)/(M + 2(beta+1))
  jacobi-boundary-product   1 - z_i^2 >= 2 min(alpha+1, beta+1)/M
  jacobi-boundary-product-symmetric  (alpha = beta)  1 - z_i^2 >= 8(alpha+1)/(M + 4(alpha+1))
  jacobi-gap          z_{i+1} - z_i >= 2^(7/4) sqrt(min(alpha+1, beta+1))/M
  jacobi-gap-symmetric (alpha = beta)
      z_{i+1} - z_i >= 2^(11/4) sqrt(alpha+1)/sqrt(M(M+4(alpha+1)))
Jacobi (comparator, asymptotic leading term, alpha, beta > -1/2):
  jacobi-upper-edge-asymptotic  1 - z_N >= alpha(alpha+2)/(2(N+(alpha+beta+1)/2)^2)

Comparator reports never gate anything; a nonpositive comparator bound is
marked ``vacuous`` and a formula outside its parameter domain is marked
``not-applicable``.  :func:`bound_set` returns every derived and
comparator report of a root vector's family.

Each public bound function writes its bound set as one list of rows
``(bound_id, bound, observed[, note])`` and hands it to one expander.  A
row whose two sides are scalars gives one report with ``index=None``; a
row with an array side (per-root sums, gaps, boundary products) gives one
report per entry, indices ``1..k``, with the scalar side repeated, so the
gap rows give no report at ``N = 1``.  The comparator flag comes from the
id: the comparator ids are the left column of the comparator/derived
pairs that the sharpness summary compares.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count, repeat
from typing import Iterable, Sequence

import numpy as np

from .covariance import (
    hermite_interaction_sums,
    jacobi_interaction_sums,
    laguerre_interaction_sums,
    max_eigenvalue,
)
from .errors import FamilyMismatchError, ParameterDomainError
from .families import FamilyKind, PolynomialFamily
from .roots import RootVector, require_kind

_HOLDS_RTOL = 1e-10

# Each literature comparator with the derived bound it is measured against;
# a report whose id is on the left is a comparator and never gates anything.
_COMPARATOR_PAIRS = (
    ("hermite-gap-comparator", "hermite-gap"),
    ("laguerre-min-root-bessel", "laguerre-min-root"),
    ("laguerre-gap-comparator-1", "laguerre-gap-strong"),
    ("laguerre-gap-comparator-2", "laguerre-gap-strong"),
    ("laguerre-gap-comparator-3", "laguerre-gap-strong"),
    ("laguerre-gap-comparator-1", "laguerre-gap-bessel-strong"),
    ("laguerre-gap-comparator-2", "laguerre-gap-bessel-strong"),
    ("laguerre-gap-comparator-3", "laguerre-gap-bessel-strong"),
    ("jacobi-upper-edge-asymptotic", "jacobi-upper-edge-strong"),
)
_COMPARATOR_IDS = frozenset(cmp_id for cmp_id, _ in _COMPARATOR_PAIRS)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality at one sweep point.

    ``index`` is the 1-based root or gap index, ``None`` for bounds that
    involve a single extreme root.  ``note`` is empty for a regular
    report, ``"not-applicable"`` when the formula is undefined at the
    given parameters, and ``"vacuous"`` when a comparator bound carries no
    information (nonpositive).
    """

    bound_id: str
    family: PolynomialFamily
    n: int
    index: int | None
    bound_value: float
    observed_value: float
    slack: float
    holds: bool
    sharpness: float
    comparator: bool = False
    note: str = ""


def _expand(z: RootVector, rows: Iterable[tuple]) -> list[BoundReport]:
    """Expand ``(bound_id, bound, observed[, note])`` rows into reports.

    Two scalar sides give one report with ``index=None``.  A row with one
    array side gives one report per entry, indices ``1..k``, with the
    scalar side repeated; an empty array side, such as the gaps at
    ``N = 1``, gives no report.
    """
    reports = []
    family, n = z.family, z.n
    for bound_id, bound, observed, *rest in rows:
        comparator = bound_id in _COMPARATOR_IDS
        note = rest[0] if rest else ""
        if isinstance(bound, np.ndarray):
            entries = zip(count(1), bound.tolist(), repeat(observed))
        elif isinstance(observed, np.ndarray):
            entries = zip(count(1), repeat(bound), observed.tolist())
        else:
            entries = [(None, bound, observed)]
        for index, bound_value, observed_value in entries:
            bound_value = float(bound_value)
            observed_value = float(observed_value)
            slack = observed_value - bound_value
            if math.isnan(bound_value) or math.isnan(observed_value):
                holds = False
            else:
                holds = slack >= -_HOLDS_RTOL * max(abs(bound_value), 1.0)
            sharpness = observed_value / bound_value if bound_value > 0.0 else math.nan
            vacuous = comparator and not note and bound_value <= 0.0
            reports.append(
                BoundReport(
                    bound_id, family, n, index, bound_value, observed_value, slack, holds,
                    sharpness, comparator, "vacuous" if vacuous else note,
                )
            )
    return reports


def hermite_diag_bound(z: RootVector) -> list[BoundReport]:
    """Hermite diagonal-of-square caps, their corollaries, and the
    literature gap comparator; one report per applicable index."""
    require_kind(z, FamilyKind.HERMITE)
    n = z.n
    if n < 2:
        raise ParameterDomainError("Hermite bounds need N >= 2")
    inv2, inv4 = hermite_interaction_sums(z.roots)
    gaps = z.roots[:-1] - z.roots[1:]
    return _expand(z, [
        ("hermite-diag-sq", inv2 * inv2 + inv4, (n - 1) ** 3 / n),
        ("hermite-inv4-sum", inv4, (n - 1) ** 3 / (2 * n)),
        ("hermite-inv2-sum", inv2, (n - 1) ** 1.5 / math.sqrt(n)),
        ("hermite-gap", (2.0 * n) ** 0.25 / (n - 1) ** 0.75, gaps),
        ("hermite-gap-comparator", 2.0 / math.sqrt(n), gaps),
    ])


def laguerre_bounds(z: RootVector) -> list[BoundReport]:
    """Derived Laguerre bounds: diagonal caps, smallest-root floor, and the
    three gap floors (plain, Bessel-assisted for nu >= 1, sqrt scale)."""
    require_kind(z, FamilyKind.LAGUERRE)
    n = z.n
    nu = float(z.family.nu)
    lin, cross = laguerre_interaction_sums(z.roots, nu)
    two_n1 = 2.0 * n - 1.0
    gaps = z.roots[:-1] - z.roots[1:]
    if nu >= 1.0:
        q = two_n1**2 * (nu * nu - 1.0) ** 2 / (n + nu / 2.0) ** 2
        bessel_strong = (
            math.sqrt(2.0) / two_n1
            * math.sqrt(2.0 + math.sqrt(2.0) * math.sqrt(2.0 + q))
        )
        bessel_weak = (
            2.0**0.75 * math.sqrt(nu * nu - 1.0) / math.sqrt(two_n1 * (n + nu / 2.0))
        )
        note = ""
    else:
        # sqrt(nu^2 - 1) is imaginary below nu = 1; the source floor is
        # vacuous there, so the report carries no values
        bessel_strong = bessel_weak = math.nan
        note = "not-applicable"
    strong = math.sqrt(2.0 * (1.0 + math.sqrt(1.0 + 8.0 * nu * nu))) / two_n1
    weak = 2.0 * 2.0**0.25 * math.sqrt(nu) / two_n1
    sqrt_gaps = np.sqrt(z.roots[:-1]) - np.sqrt(z.roots[1:])
    return _expand(z, [
        ("laguerre-diag-sq", lin * lin + cross, two_n1**2),
        ("laguerre-min-root", nu / two_n1, float(z.roots[-1])),
        ("laguerre-gap-strong", strong, gaps),
        ("laguerre-gap-weak", weak, gaps),
        ("laguerre-gap-bessel-strong", bessel_strong, gaps, note),
        ("laguerre-gap-bessel-weak", bessel_weak, gaps, note),
        ("laguerre-sqrt-gap", 1.0 / math.sqrt(two_n1), sqrt_gaps),
    ])


def laguerre_comparators(z: RootVector) -> list[BoundReport]:
    """Literature comparator bounds for Laguerre roots (informational)."""
    require_kind(z, FamilyKind.LAGUERRE)
    n = z.n
    nu = float(z.family.nu)
    gaps = z.roots[:-1] - z.roots[1:]
    smallest = float(z.roots[-1])
    cmp1 = (nu - 1.0) / math.sqrt((n + nu - 1.0) * n)
    cmp2 = 2.0 * math.sqrt(2.0) * nu / math.sqrt((n + nu) * n)
    cmp3 = math.pi * math.sqrt(2.0) / math.sqrt(2.0 * nu * n + nu + 2.0 * n * n)
    return _expand(z, [
        ("laguerre-min-root-bessel", (nu * nu - 1.0) / (4.0 * (n + nu / 2.0)), smallest),
        ("laguerre-gap-comparator-1", cmp1, gaps),
        ("laguerre-gap-comparator-2", cmp2, gaps),
        ("laguerre-gap-comparator-3", cmp3, gaps),
    ])


def jacobi_bounds(z: RootVector) -> list[BoundReport]:
    """Derived Jacobi bounds: diagonal caps, the two boundary-distance
    floors, the boundary-product floors, and the gap floors."""
    require_kind(z, FamilyKind.JACOBI)
    n = z.n
    alpha, beta = float(z.family.alpha), float(z.family.beta)
    big_m = max_eigenvalue(alpha, beta, n)
    lin, cross = jacobi_interaction_sums(z.roots, alpha, beta)
    disc = math.sqrt(big_m**2 - 16.0 * (alpha + 1.0) * (beta + 1.0))
    upper = 1.0 - float(z.roots[-1])
    lower = 1.0 + float(z.roots[0])
    width = 1.0 - z.roots * z.roots
    gaps = z.roots[1:] - z.roots[:-1]
    upper_strong = 8.0 * (alpha + 1.0) / (big_m + 4.0 * (alpha + 1.0) + disc)
    lower_strong = 8.0 * (beta + 1.0) / (big_m + 4.0 * (beta + 1.0) + disc)
    floor = 2.0 * min(alpha + 1.0, beta + 1.0) / big_m
    gap_floor = 2.0**1.75 * math.sqrt(min(alpha + 1.0, beta + 1.0)) / big_m
    rows = [
        ("jacobi-diag-sq", lin * lin + cross, big_m**2),
        ("jacobi-upper-edge-strong", upper_strong, upper),
        ("jacobi-upper-edge-weak", 4.0 * (alpha + 1.0) / (big_m + 2.0 * (alpha + 1.0)), upper),
        ("jacobi-lower-edge-strong", lower_strong, lower),
        ("jacobi-lower-edge-weak", 4.0 * (beta + 1.0) / (big_m + 2.0 * (beta + 1.0)), lower),
        ("jacobi-boundary-product", floor, width),
        ("jacobi-gap", gap_floor, gaps),
    ]
    if alpha == beta:
        floor_sym = 8.0 * (alpha + 1.0) / (big_m + 4.0 * (alpha + 1.0))
        gap_sym = (
            2.0**2.75 * math.sqrt(alpha + 1.0)
            / math.sqrt(big_m * (big_m + 4.0 * (alpha + 1.0)))
        )
        rows += [
            ("jacobi-boundary-product-symmetric", floor_sym, width),
            ("jacobi-gap-symmetric", gap_sym, gaps),
        ]
    return _expand(z, rows)


def jacobi_comparator(z: RootVector) -> BoundReport:
    """Asymptotic leading-term comparator for the upper boundary distance.

    Only meaningful for ``alpha, beta > -1/2``; the dropped ``o(1/N^2)``
    term means this never gates anything.
    """
    require_kind(z, FamilyKind.JACOBI)
    alpha, beta = float(z.family.alpha), float(z.family.beta)
    upper = 1.0 - float(z.roots[-1])
    if alpha <= -0.5 or beta <= -0.5:
        row = ("jacobi-upper-edge-asymptotic", math.nan, upper, "not-applicable")
    else:
        value = alpha * (alpha + 2.0) / (2.0 * (z.n + (alpha + beta + 1.0) / 2.0) ** 2)
        row = ("jacobi-upper-edge-asymptotic", value, upper)
    return _expand(z, [row])[0]


# Each family's bound set; the lambdas look the functions up at call time,
# so wrappers installed on this module's attributes see every call.
_BOUND_SETS = {
    FamilyKind.HERMITE: lambda z: hermite_diag_bound(z),
    FamilyKind.LAGUERRE: lambda z: laguerre_bounds(z) + laguerre_comparators(z),
    FamilyKind.JACOBI: lambda z: jacobi_bounds(z) + [jacobi_comparator(z)],
}


def bound_set(z: RootVector) -> list[BoundReport]:
    """Every derived bound and comparator report for the family of ``z``."""
    return _BOUND_SETS[z.family.kind](z)


@dataclass(frozen=True)
class SharpnessSummary:
    """Aggregate sharpness per bound id for one family and order.

    ``diag_square_identity_ratio`` is the summed diagonal-of-square left
    side divided by its exact trace value; it must be 1 up to rounding for
    Hermite and Laguerre.  ``comparator_ratios`` maps
    ``"<comparator-id>/<own-id>"`` to the ratio of the two bound values.
    """

    family: PolynomialFamily | None
    n: int | None
    worst: dict[str, float]
    mean: dict[str, float]
    diag_square_identity_ratio: float | None
    comparator_ratios: dict[str, float]
    empty: bool = False


def sharpness_summary(reports: Sequence[BoundReport]) -> SharpnessSummary:
    """Aggregate a list of reports from a single family and order."""
    if not reports:
        return SharpnessSummary(None, None, {}, {}, None, {}, empty=True)
    fam = reports[0].family
    n = reports[0].n
    for rep in reports:
        if rep.family != fam or rep.n != n:
            raise FamilyMismatchError("sharpness_summary needs reports from one family and N")
    worst: dict[str, float] = {}
    mean: dict[str, float] = {}
    by_id: dict[str, list[BoundReport]] = {}
    for rep in reports:
        by_id.setdefault(rep.bound_id, []).append(rep)
    for bound_id, group in by_id.items():
        values = [r.sharpness for r in group if not r.note and math.isfinite(r.sharpness)]
        if values:
            worst[bound_id] = min(values)
            mean[bound_id] = sum(values) / len(values)
    ratio = None
    _, square_target = fam.spec.trace_targets(fam, n)
    diag_id = f"{fam.kind.value}-diag-sq"
    if square_target is not None and diag_id in by_id:
        ratio = sum(r.bound_value for r in by_id[diag_id]) / square_target
    comparator_ratios: dict[str, float] = {}
    for cmp_id, own_id in _COMPARATOR_PAIRS:
        if cmp_id in by_id and own_id in by_id:
            cmp_value = by_id[cmp_id][0].bound_value
            own_value = by_id[own_id][0].bound_value
            if math.isfinite(cmp_value) and own_value > 0.0:
                comparator_ratios[f"{cmp_id}/{own_id}"] = cmp_value / own_value
    return SharpnessSummary(fam, n, worst, mean, ratio, comparator_ratios)
