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

Jacobi (derived; M is the spectral radius, the largest eigenvalue of ``S_N``):
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
``not-applicable``.

Each family has one bound function, :func:`hermite_diag_bound`,
:func:`laguerre_bounds` and :func:`jacobi_bounds`, which reads the
family's ``(lin, cross)``, from ``covariance.interaction_sums`` unless
the caller passes them (the ``bounds`` command takes each point's from
one ``interaction_sums_stack`` per order), and returns the family's
derived and comparator bounds as one list of rows
``(bound_id, bound, observed[, note])``; :func:`bound_rows` picks the
function of a root vector's family.  A row whose two sides are scalars
gives one entry with ``index=None``; a row with an array side (per-root
sums, gaps, boundary products) gives one entry per array element, indices
``1..k``, with the scalar side repeated, so the gap rows give no entry at
``N = 1``.  The gap rows read the root vector's ``gaps``, which are in
the index convention of the formulas above; only the sqrt-scale gaps of
``laguerre-sqrt-gap`` are formed here.  The comparator flag comes from the id: the comparator ids are
the left column of the comparator/derived pairs that the sharpness
summary compares.

:func:`bound_columns` turns a point's rows into the columns of its output
rows, with no tuple per entry: one side per row for the id, index, bound
and observed values and comparator flag, and one value per entry for
``slack``, ``holds``, ``sharpness`` (one numpy pass) and ``note``.  The
``bounds`` command writes from these columns, and the library's views
read them: :func:`bound_set`, a ``BoundReport`` per entry (an immutable
named tuple, its fields the output row after the point key), and
:func:`sharpness_summary`, which takes the root vector alongside them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Sequence

import numpy as np

from .covariance import interaction_sums
from .errors import ParameterDomainError
from .families import FamilyKind
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


class BoundReport(NamedTuple):
    """One evaluated inequality at one sweep point, its fields in the
    column order of a ``bounds`` output row (CSV leaves out ``comparator``
    and ``note``).

    ``index`` is the 1-based root or gap index, ``None`` for bounds that
    involve a single extreme root.  ``note`` is empty for a regular
    report, ``"not-applicable"`` when the formula is undefined at the
    given parameters, and ``"vacuous"`` when a comparator bound carries no
    information (nonpositive).
    """

    bound_id: str
    index: int | None
    bound_value: float
    observed_value: float
    slack: float
    holds: bool
    sharpness: float
    comparator: bool = False
    note: str = ""


class BoundColumns(NamedTuple):
    """One point's bound set as the columns of its output rows after the
    point key, ``counts`` giving the entries of each row.  A tuple column
    holds one side per row: a scalar for all the row's entries, or an
    array with one item per entry, which rows may share (the gaps, and
    the indices ``1..count``; a row of two scalars has one entry and the
    index ``None``).  A list column holds one Python value per entry.
    """

    counts: tuple
    bound_id: tuple
    index: tuple
    bound_value: tuple
    observed_value: tuple
    slack: list[float]
    holds: list[bool]
    sharpness: list[float]
    comparator: tuple
    note: list[str]

    def spans(self) -> list[tuple[int, int]]:
        """The ``start`` and ``stop`` of each row's entries."""
        stops = list(accumulate(self.counts))
        return list(zip([0] + stops[:-1], stops))

    def violations(self) -> int:
        """The number of entries that do not hold of the gating rows, neither
        comparators nor noted (a gating row's entries share its note)."""
        return sum(
            self.holds[start:stop].count(False)
            for comparator, (start, stop) in zip(self.comparator, self.spans())
            if not comparator and not any(self.note[start:stop])
        )


def _entries(side, count: int) -> list:
    """The values of one side of a row, one per entry."""
    return side.tolist() if isinstance(side, np.ndarray) else [side] * count


def bound_columns(rows: Sequence[tuple]) -> BoundColumns:
    """The columns of the rows ``(bound_id, bound, observed[, note])``, in
    their order.

    ``slack = observed - bound``; the bound holds when the slack is at
    least ``-1e-10 max(|bound|, 1)``, which a NaN side never is;
    ``sharpness = observed / bound`` when the bound is positive, else NaN.
    A comparator entry whose bound is not positive carries no information
    and is noted ``vacuous``, unless its row has a note of its own.
    """
    table, bound_value, observed_value, note = [], [], [], []
    numbers: dict[int, np.ndarray] = {}
    for bound_id, bound, observed, *rest in rows:
        if isinstance(bound, np.ndarray):
            observed, count = float(observed), bound.size
        elif isinstance(observed, np.ndarray):
            bound, count = float(bound), observed.size
        else:
            bound, observed, count = float(bound), float(observed), None
        if count is None:
            count, index = 1, None
        elif count in numbers:
            index = numbers[count]
        else:
            # rows of one count share one index array
            index = numbers[count] = np.arange(1, count + 1)
        row_bounds = _entries(bound, count)
        bound_value += row_bounds
        observed_value += _entries(observed, count)
        row_note = rest[0] if rest else ""
        comparator = bound_id in _COMPARATOR_IDS
        if comparator and not row_note:
            note += ["vacuous" if value <= 0.0 else "" for value in row_bounds]
        else:
            note += [row_note] * count
        table.append((count, bound_id, index, bound, observed, comparator))
    b, o = np.array(bound_value, dtype=float), np.array(observed_value, dtype=float)
    # numpy warns where Python floats give a NaN or an infinity silently
    with np.errstate(invalid="ignore", over="ignore"):
        slack = o - b
        holds = slack >= -_HOLDS_RTOL * np.maximum(np.abs(b), 1.0)
        sharpness = np.divide(o, b, out=np.full_like(b, math.nan), where=b > 0.0)
    counts, ids, indices, bound_sides, observed_sides, comparators = zip(*table) if table else [()] * 6
    entries = slack.tolist(), holds.tolist(), sharpness.tolist()
    return BoundColumns(counts, ids, indices, bound_sides, observed_sides, *entries, comparators, note)


def hermite_diag_bound(z: RootVector, sums: tuple | None = None) -> list[tuple]:
    """Hermite rows: the diagonal-of-square caps, their corollaries, and
    the literature gap comparator.  ``sums`` is ``interaction_sums(z)``,
    if the caller has it already."""
    require_kind(z, FamilyKind.HERMITE)
    n = z.n
    if n < 2:
        raise ParameterDomainError("Hermite bounds need N >= 2")
    inv2, inv4 = interaction_sums(z) if sums is None else sums
    return [
        ("hermite-diag-sq", inv2 * inv2 + inv4, (n - 1) ** 3 / n),
        ("hermite-inv4-sum", inv4, (n - 1) ** 3 / (2 * n)),
        ("hermite-inv2-sum", inv2, (n - 1) ** 1.5 / math.sqrt(n)),
        ("hermite-gap", (2.0 * n) ** 0.25 / (n - 1) ** 0.75, z.gaps),
        ("hermite-gap-comparator", 2.0 / math.sqrt(n), z.gaps),
    ]


def laguerre_bounds(z: RootVector, sums: tuple | None = None) -> list[tuple]:
    """Laguerre rows: the derived diagonal caps, smallest-root floor and
    three gap floors (plain, Bessel-assisted for nu >= 1, sqrt scale), and
    the literature comparators (informational).  ``sums`` is
    ``interaction_sums(z)``, if the caller has it already."""
    require_kind(z, FamilyKind.LAGUERRE)
    n = z.n
    (nu,) = z.family.parameters()
    lin, cross = interaction_sums(z) if sums is None else sums
    two_n1 = 2.0 * n - 1.0
    smallest = float(z.roots[-1])
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
    # n - 1 first: at N = 1 the sum in the other order cancels a tiny nu
    cmp1 = (nu - 1.0) / math.sqrt(((n - 1.0) + nu) * n)
    cmp2 = 2.0 * math.sqrt(2.0) * nu / math.sqrt((n + nu) * n)
    cmp3 = math.pi * math.sqrt(2.0) / math.sqrt(2.0 * nu * n + nu + 2.0 * n * n)
    return [
        ("laguerre-diag-sq", lin * lin + cross, two_n1**2),
        ("laguerre-min-root", nu / two_n1, smallest),
        ("laguerre-gap-strong", strong, z.gaps),
        ("laguerre-gap-weak", weak, z.gaps),
        ("laguerre-gap-bessel-strong", bessel_strong, z.gaps, note),
        ("laguerre-gap-bessel-weak", bessel_weak, z.gaps, note),
        ("laguerre-sqrt-gap", 1.0 / math.sqrt(two_n1), sqrt_gaps),
        ("laguerre-min-root-bessel", (nu * nu - 1.0) / (4.0 * (n + nu / 2.0)), smallest),
        ("laguerre-gap-comparator-1", cmp1, z.gaps),
        ("laguerre-gap-comparator-2", cmp2, z.gaps),
        ("laguerre-gap-comparator-3", cmp3, z.gaps),
    ]


def jacobi_bounds(z: RootVector, sums: tuple | None = None) -> list[tuple]:
    """Jacobi rows: the derived diagonal caps, the two boundary-distance
    floors, the boundary-product floors and the gap floors, and the
    asymptotic leading-term comparator for the upper boundary distance.

    The comparator is only meaningful for ``alpha, beta > -1/2``; the
    dropped ``o(1/N^2)`` term means it never gates anything.  ``sums`` is
    ``interaction_sums(z)``, if the caller has it already.
    """
    require_kind(z, FamilyKind.JACOBI)
    n = z.n
    alpha, beta = z.family.parameters()
    big_m = float(z.family.spec.spectrum(z.family, n)[-1])
    lin, cross = interaction_sums(z) if sums is None else sums
    disc = math.sqrt(big_m**2 - 16.0 * (alpha + 1.0) * (beta + 1.0))
    upper = 1.0 - float(z.roots[-1])
    lower = 1.0 + float(z.roots[0])
    width = 1.0 - z.roots * z.roots
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
        ("jacobi-gap", gap_floor, z.gaps),
    ]
    if alpha == beta:
        floor_sym = 8.0 * (alpha + 1.0) / (big_m + 4.0 * (alpha + 1.0))
        gap_sym = (
            2.0**2.75 * math.sqrt(alpha + 1.0)
            / math.sqrt(big_m * (big_m + 4.0 * (alpha + 1.0)))
        )
        rows += [
            ("jacobi-boundary-product-symmetric", floor_sym, width),
            ("jacobi-gap-symmetric", gap_sym, z.gaps),
        ]
    if alpha <= -0.5 or beta <= -0.5:
        rows.append(("jacobi-upper-edge-asymptotic", math.nan, upper, "not-applicable"))
    else:
        asymptotic = alpha * (alpha + 2.0) / (2.0 * (n + (alpha + beta + 1.0) / 2.0) ** 2)
        rows.append(("jacobi-upper-edge-asymptotic", asymptotic, upper))
    return rows


# Each family's bound rows; the lambdas look the functions up at call time,
# so wrappers installed on this module's attributes see every call.
_BOUND_SETS = {
    FamilyKind.HERMITE: lambda z, sums: hermite_diag_bound(z, sums),
    FamilyKind.LAGUERRE: lambda z, sums: laguerre_bounds(z, sums),
    FamilyKind.JACOBI: lambda z, sums: jacobi_bounds(z, sums),
}


def bound_rows(z: RootVector, sums: tuple | None = None) -> list[tuple]:
    """Every derived bound and comparator row for the family of ``z``;
    ``sums`` is ``interaction_sums(z)``, if the caller has it already."""
    return _BOUND_SETS[z.family.kind](z, sums)


def bound_set(z: RootVector) -> list[BoundReport]:
    """Every derived bound and comparator report for the family of ``z``,
    in row order."""
    columns = bound_columns(bound_rows(z))
    fields = [
        column if isinstance(column, list)
        else [value for side, count in zip(column, columns.counts) for value in _entries(side, count)]
        for column in columns[1:]
    ]
    return list(map(BoundReport._make, zip(*fields)))


@dataclass(frozen=True)
class SharpnessSummary:
    """Aggregate sharpness per bound id for one root vector's bound set.

    ``diag_square_identity_ratio`` is the summed diagonal-of-square left
    side divided by its exact trace value; it must be 1 up to rounding for
    Hermite and Laguerre.  ``comparator_ratios`` maps
    ``"<comparator-id>/<own-id>"`` to the ratio of the two bound values.
    """

    worst: dict[str, float]
    mean: dict[str, float]
    diag_square_identity_ratio: float | None
    comparator_ratios: dict[str, float]


def sharpness_summary(z: RootVector, columns: BoundColumns) -> SharpnessSummary:
    """Aggregate the bound ``columns`` evaluated on the root vector ``z``.

    A row without entries, such as a gap row at ``N = 1``, is left out.
    Sums are Python's, in entry order.
    """
    worst: dict[str, float] = {}
    mean: dict[str, float] = {}
    bounds: dict[str, list[float]] = {}
    for bound_id, side, (start, stop) in zip(columns.bound_id, columns.bound_value, columns.spans()):
        if start == stop:
            continue
        bounds[bound_id] = _entries(side, stop - start)
        # a vacuous entry has a NaN sharpness, and a noted row counts not at all
        values = [
            value for value, note in zip(columns.sharpness[start:stop], columns.note[start:stop])
            if not note and math.isfinite(value)
        ]
        if values:
            worst[bound_id] = min(values)
            mean[bound_id] = sum(values) / len(values)
    ratio = None
    fam = z.family
    _, square_target = fam.spec.trace_targets(fam.spec.spectrum(fam, z.n))
    diag_id = f"{fam.kind.value}-diag-sq"
    if square_target is not None and diag_id in bounds:
        ratio = sum(bounds[diag_id]) / square_target
    comparator_ratios: dict[str, float] = {}
    for cmp_id, own_id in _COMPARATOR_PAIRS:
        if cmp_id in bounds and own_id in bounds:
            cmp_value, own_value = bounds[cmp_id][0], bounds[own_id][0]
            if math.isfinite(cmp_value) and own_value > 0.0:
                comparator_ratios[f"{cmp_id}/{own_id}"] = cmp_value / own_value
    return SharpnessSummary(worst, mean, ratio, comparator_ratios)
