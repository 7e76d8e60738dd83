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
``not-applicable``.  The discriminant ``M^2 - 16(alpha+1)(beta+1)`` is at
least ``4(alpha-beta)^2``, so zero at ``alpha = beta``, ``N = 1``; it is
clamped at 0 there, where rounding can make it slightly negative.

Bounds are evaluated on runs: all the points of one family kind in a
sweep run, whatever their orders and parameters, at once.  Each family
has one bound function, :func:`hermite_diag_bound`,
:func:`laguerre_bounds` and :func:`jacobi_bounds`, and :func:`bound_rows`
picks the function of the run's kind.  Each takes a sequence of root
vectors of its kind, one point as ``[z]``, reads the points' ``(lin,
cross)``, from ``covariance.interaction_sums`` unless the caller passes
one pair per point (the ``bounds`` command takes each point's from one
``interaction_sums_stack`` per order), and returns the family's derived
and comparator bounds as one list of :class:`BoundRow`: each side is a
``(P,)`` column, one Python-float expression per point, or a
:class:`Ragged` array with one value per entry and per-point offsets (the
gaps, the sqrt-scale gaps, ``lin**2 + cross`` and ``1 - z**2``, each one
numpy pass over the run).  At one point, a row whose two sides are
columns gives one entry with ``index=None``; a row with a ragged side
gives one entry per value of it, indices ``1..k``, with the column side
repeated, so the gap rows give no entry at ``N = 1``.  The gap rows read
the root vectors' ``gaps``, which are in the index convention of the
formulas above.  The comparator flag comes from the id: the comparator
ids are the left column of the comparator/derived pairs that the
sharpness summary compares.

:class:`RunColumns` evaluates a run's rows once: it lays out every entry
of the run point by point, each point's rows in row order, and computes
``slack``, ``holds``, ``sharpness`` and the notes in one numpy pass and
each point's violation count in one integer pass.  ``point(p)`` cuts one
point's :class:`BoundColumns` from them, the columns of its output rows
after the point key with no tuple per entry: one side per row for the id,
index, bound and observed values and comparator flag, and one value per
entry for ``slack``, ``holds``, ``sharpness`` and ``note``.  The
``bounds`` command writes from these columns, and the library's views are
the same path on a run of one point, ``RunColumns(bound_rows([z]),
1).point(0)``: :func:`bound_set`, a ``BoundReport`` per entry (an
immutable named tuple, its fields the output row after the point key),
and :func:`sharpness_summary`, which takes the root vector alongside the
columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Sequence, Union

import numpy as np

from .covariance import interaction_sums
from .errors import EmptyProblemError, ParameterDomainError
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


class Ragged(NamedTuple):
    """One value per entry for a run of points: point ``p``'s values are
    ``values[starts[p]:starts[p + 1]]``."""

    values: np.ndarray
    starts: np.ndarray


Side = Union[np.ndarray, Ragged]


class BoundRow(NamedTuple):
    """One bound row of a run of ``P`` points.  ``bound`` and ``observed``
    are each a ``(P,)`` column, one value per point, or a :class:`Ragged`
    side, one value per entry: a row has one entry per item of its ragged
    side at a point, or one entry where both sides are columns.  ``note``
    is the row's note at every point, or a sequence of one note per point;
    ``applies`` is ``None`` for a row of every point, else a ``(P,)``
    boolean mask of the points that have it."""

    bound_id: str
    bound: Side
    observed: Side
    note: Union[str, Sequence[str]] = ""
    applies: np.ndarray | None = None


def _starts(counts) -> np.ndarray:
    """The offsets of consecutive runs of ``counts`` items, with the total last."""
    starts = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=starts[1:])
    return starts


class _Run(NamedTuple):
    """A run of root vectors of one kind, their per-entry arrays ragged."""

    points: Sequence[RootVector]
    n: list[int]
    roots: Ragged
    gaps: Ragged
    lin: Ragged
    cross: Ragged

    @property
    def first(self) -> np.ndarray:
        """Each point's first stored root."""
        return self.roots.values[self.roots.starts[:-1]]

    @property
    def last(self) -> np.ndarray:
        """Each point's last stored root."""
        return self.roots.values[self.roots.starts[1:] - 1]


def _run(points: Sequence[RootVector], kind: FamilyKind, sums: Sequence[tuple] | None) -> _Run:
    if not points:
        raise EmptyProblemError("bound rows need at least one point")
    for z in points:
        require_kind(z, kind)
    if sums is None:
        sums = [interaction_sums(z) for z in points]
    elif len(sums) != len(points) or any(
        len(pair) != 2 or any(np.shape(side) != (z.n,) for side in pair) for z, pair in zip(points, sums)
    ):
        raise ParameterDomainError("sums needs one (lin, cross) pair per point, each array of shape (n,)")
    n = [z.n for z in points]
    starts = _starts(n)
    gap_starts = _starts([k - 1 for k in n])
    concat = np.concatenate
    return _Run(
        points,
        n,
        Ragged(concat([z.roots for z in points]), starts),
        Ragged(concat([z.gaps for z in points]), gap_starts),
        Ragged(concat([lin for lin, _ in sums]), starts),
        Ragged(concat([cross for _, cross in sums]), starts),
    )


def _columns(per_point: Iterable[tuple]) -> np.ndarray:
    """The ``(P,)`` columns of the scalars that ``per_point`` gives for each
    point, one tuple per point, as the rows of one array."""
    return np.array(list(zip(*per_point)), dtype=float)


def hermite_diag_bound(points: Sequence[RootVector], sums: Sequence[tuple] | None = None) -> list[BoundRow]:
    """Hermite rows of a run of root vectors: the diagonal-of-square caps,
    their corollaries, and the literature gap comparator.  ``sums`` holds
    each point's ``interaction_sums``, if the caller has them already."""
    run = _run(points, FamilyKind.HERMITE, sums)
    if min(run.n) < 2:
        raise ParameterDomainError("Hermite bounds need N >= 2")
    inv2, inv4 = run.lin, run.cross
    diag = Ragged(inv2.values * inv2.values + inv4.values, inv2.starts)
    cap, inv4_cap, inv2_cap, gap_floor, comparator = _columns(
        (
            (n - 1) ** 3 / n,
            (n - 1) ** 3 / (2 * n),
            (n - 1) ** 1.5 / math.sqrt(n),
            (2.0 * n) ** 0.25 / (n - 1) ** 0.75,
            2.0 / math.sqrt(n),
        )
        for n in run.n
    )
    return [
        BoundRow("hermite-diag-sq", diag, cap),
        BoundRow("hermite-inv4-sum", inv4, inv4_cap),
        BoundRow("hermite-inv2-sum", inv2, inv2_cap),
        BoundRow("hermite-gap", gap_floor, run.gaps),
        BoundRow("hermite-gap-comparator", comparator, run.gaps),
    ]


def _laguerre_scalars(n: int, nu: float) -> tuple:
    two_n1 = 2.0 * n - 1.0
    if nu >= 1.0:
        q = two_n1**2 * (nu * nu - 1.0) ** 2 / (n + nu / 2.0) ** 2
        bessel_strong = (
            math.sqrt(2.0) / two_n1
            * math.sqrt(2.0 + math.sqrt(2.0) * math.sqrt(2.0 + q))
        )
        bessel_weak = (
            2.0**0.75 * math.sqrt(nu * nu - 1.0) / math.sqrt(two_n1 * (n + nu / 2.0))
        )
    else:
        # sqrt(nu^2 - 1) is imaginary below nu = 1; the source floor is
        # vacuous there, so the report carries no values
        bessel_strong = bessel_weak = math.nan
    return (
        two_n1**2,
        nu / two_n1,
        math.sqrt(2.0 * (1.0 + math.sqrt(1.0 + 8.0 * nu * nu))) / two_n1,
        2.0 * 2.0**0.25 * math.sqrt(nu) / two_n1,
        bessel_strong,
        bessel_weak,
        1.0 / math.sqrt(two_n1),
        (nu * nu - 1.0) / (4.0 * (n + nu / 2.0)),
        # n - 1 first: at N = 1 the sum in the other order cancels a tiny nu
        (nu - 1.0) / math.sqrt(((n - 1.0) + nu) * n),
        2.0 * math.sqrt(2.0) * nu / math.sqrt((n + nu) * n),
        math.pi * math.sqrt(2.0) / math.sqrt(2.0 * nu * n + nu + 2.0 * n * n),
    )


def laguerre_bounds(points: Sequence[RootVector], sums: Sequence[tuple] | None = None) -> list[BoundRow]:
    """Laguerre rows of a run of root vectors: the derived diagonal caps,
    smallest-root floor and three gap floors (plain, Bessel-assisted for
    nu >= 1, sqrt scale), and the literature comparators (informational).
    ``sums`` holds each point's ``interaction_sums``, if the caller has
    them already."""
    run = _run(points, FamilyKind.LAGUERRE, sums)
    nus = [z.family.parameters()[0] for z in run.points]
    (cap, min_root, strong, weak, bessel_strong, bessel_weak, sqrt_floor, min_root_bessel,
     cmp1, cmp2, cmp3) = _columns(map(_laguerre_scalars, run.n, nus))
    note = ["" if nu >= 1.0 else "not-applicable" for nu in nus]
    lin, cross, gaps = run.lin, run.cross, run.gaps
    diag = Ragged(lin.values * lin.values + cross.values, lin.starts)
    # sqrt(z_i) - sqrt(z_{i+1}) over the run, less the differences that
    # straddle two points
    root = np.sqrt(run.roots.values)
    sqrt_gaps = Ragged(np.delete(root[:-1] - root[1:], run.roots.starts[1:-1] - 1), gaps.starts)
    smallest = run.last
    return [
        BoundRow("laguerre-diag-sq", diag, cap),
        BoundRow("laguerre-min-root", min_root, smallest),
        BoundRow("laguerre-gap-strong", strong, gaps),
        BoundRow("laguerre-gap-weak", weak, gaps),
        BoundRow("laguerre-gap-bessel-strong", bessel_strong, gaps, note),
        BoundRow("laguerre-gap-bessel-weak", bessel_weak, gaps, note),
        BoundRow("laguerre-sqrt-gap", sqrt_floor, sqrt_gaps),
        BoundRow("laguerre-min-root-bessel", min_root_bessel, smallest),
        BoundRow("laguerre-gap-comparator-1", cmp1, gaps),
        BoundRow("laguerre-gap-comparator-2", cmp2, gaps),
        BoundRow("laguerre-gap-comparator-3", cmp3, gaps),
    ]


def _jacobi_scalars(n: int, alpha: float, beta: float, big_m: float) -> tuple:
    # at least 4(alpha - beta)^2, which is 0 at alpha = beta, N = 1
    disc = math.sqrt(max(big_m**2 - 16.0 * (alpha + 1.0) * (beta + 1.0), 0.0))
    if alpha <= -0.5 or beta <= -0.5:
        asymptotic = math.nan
    else:
        asymptotic = alpha * (alpha + 2.0) / (2.0 * (n + (alpha + beta + 1.0) / 2.0) ** 2)
    return (
        big_m**2,
        8.0 * (alpha + 1.0) / (big_m + 4.0 * (alpha + 1.0) + disc),
        4.0 * (alpha + 1.0) / (big_m + 2.0 * (alpha + 1.0)),
        8.0 * (beta + 1.0) / (big_m + 4.0 * (beta + 1.0) + disc),
        4.0 * (beta + 1.0) / (big_m + 2.0 * (beta + 1.0)),
        2.0 * min(alpha + 1.0, beta + 1.0) / big_m,
        2.0**1.75 * math.sqrt(min(alpha + 1.0, beta + 1.0)) / big_m,
        8.0 * (alpha + 1.0) / (big_m + 4.0 * (alpha + 1.0)),
        2.0**2.75 * math.sqrt(alpha + 1.0) / math.sqrt(big_m * (big_m + 4.0 * (alpha + 1.0))),
        asymptotic,
    )


def jacobi_bounds(points: Sequence[RootVector], sums: Sequence[tuple] | None = None) -> list[BoundRow]:
    """Jacobi rows of a run of root vectors: the derived diagonal caps,
    the two boundary-distance floors, the boundary-product floors and the
    gap floors, and the asymptotic leading-term comparator for the upper
    boundary distance.

    The comparator is only meaningful for ``alpha, beta > -1/2``; the
    dropped ``o(1/N^2)`` term means it never gates anything.  ``sums``
    holds each point's ``interaction_sums``, if the caller has them
    already.
    """
    run = _run(points, FamilyKind.JACOBI, sums)
    params = [z.family.parameters() for z in run.points]
    big_m = [float(z.family.spec.spectrum(z.family, z.n)[-1]) for z in run.points]
    (cap, upper_strong, upper_weak, lower_strong, lower_weak, floor, gap_floor, floor_sym,
     gap_sym, asymptotic) = _columns(
        _jacobi_scalars(n, alpha, beta, m) for n, (alpha, beta), m in zip(run.n, params, big_m)
    )
    lin, cross, gaps, roots = run.lin, run.cross, run.gaps, run.roots
    diag = Ragged(lin.values * lin.values + cross.values, lin.starts)
    upper = 1.0 - run.last
    lower = 1.0 + run.first
    width = Ragged(1.0 - roots.values * roots.values, roots.starts)
    rows = [
        BoundRow("jacobi-diag-sq", diag, cap),
        BoundRow("jacobi-upper-edge-strong", upper_strong, upper),
        BoundRow("jacobi-upper-edge-weak", upper_weak, upper),
        BoundRow("jacobi-lower-edge-strong", lower_strong, lower),
        BoundRow("jacobi-lower-edge-weak", lower_weak, lower),
        BoundRow("jacobi-boundary-product", floor, width),
        BoundRow("jacobi-gap", gap_floor, gaps),
    ]
    symmetric = np.array([alpha == beta for alpha, beta in params])
    if symmetric.any():
        applies = None if symmetric.all() else symmetric
        rows += [
            BoundRow("jacobi-boundary-product-symmetric", floor_sym, width, "", applies),
            BoundRow("jacobi-gap-symmetric", gap_sym, gaps, "", applies),
        ]
    note = ["not-applicable" if alpha <= -0.5 or beta <= -0.5 else "" for alpha, beta in params]
    rows.append(BoundRow("jacobi-upper-edge-asymptotic", asymptotic, upper, note))
    return rows


# Each family's bound rows; the lambdas look the functions up at call time,
# so wrappers installed on this module's attributes see every call.
_BOUND_SETS = {
    FamilyKind.HERMITE: lambda points, sums: hermite_diag_bound(points, sums),
    FamilyKind.LAGUERRE: lambda points, sums: laguerre_bounds(points, sums),
    FamilyKind.JACOBI: lambda points, sums: jacobi_bounds(points, sums),
}


def bound_rows(points: Sequence[RootVector], sums: Sequence[tuple] | None = None) -> list[BoundRow]:
    """Every derived bound and comparator row of a run of root vectors of
    one kind, by the family function of that kind; ``sums`` holds each
    point's ``interaction_sums``, if the caller has them already."""
    if not points:
        raise EmptyProblemError("bound rows need at least one point")
    return _BOUND_SETS[points[0].family.kind](points, sums)


def _getter(positions: list[int]) -> Callable[[list], tuple]:
    """The items of a list at ``positions``, as a tuple."""
    if len(positions) == 1:
        return lambda values, i=positions[0]: (values[i],)
    return itemgetter(*positions) if positions else lambda values: ()


def _distinct(sides) -> list:
    """The distinct objects of ``sides``, by identity, in order."""
    return list({id(side): side for side in sides}.values())


class RunColumns:
    """The columns of the bound rows of a run of ``size`` points, every
    entry evaluated once.  The run's entries lie point by point, each
    point's rows in row order and each row's entries in index order.

    ``slack = observed - bound``; the bound holds when the slack is at
    least ``-1e-10 max(|bound|, 1)``, which a NaN side never is;
    ``sharpness = observed / bound`` when the bound is positive, else NaN.
    A comparator entry whose bound is not positive carries no information
    and is noted ``vacuous``, unless its row has a note of its own.  These
    are one numpy pass over the run; ``slack``, ``holds`` and ``sharpness``
    hold them for every entry.  ``violations`` holds, per point, the
    number of entries that do not hold of the gating rows, neither
    comparators nor noted.  :meth:`point` cuts one point's
    :class:`BoundColumns`.
    """

    def __init__(self, rows: Sequence[BoundRow], size: int):
        count = len(rows)
        # (row, point) tables of entries, note codes and the points that
        # have each row
        counts = np.ones((count, size), dtype=np.intp)
        codes = np.zeros((count, size), dtype=np.intp)
        present = np.ones((count, size), dtype=bool)
        notes = {"": 0, "vacuous": 1}
        bounds, observed, raggeds = [np.empty(0)], [np.empty(0)], []
        for r, row in enumerate(rows):
            ragged = next((side for side in row[1:3] if isinstance(side, Ragged)), None)
            raggeds.append(ragged)
            if ragged is not None:
                counts[r] = np.diff(ragged.starts)
            keep = None
            if row.applies is not None:
                present[r] = row.applies
                keep = np.repeat(row.applies, counts[r])
                counts[r] *= present[r]
            for side, entries in ((row.bound, bounds), (row.observed, observed)):
                if isinstance(side, Ragged):
                    entries.append(side.values if keep is None else side.values[keep])
                else:
                    entries.append(np.repeat(side, counts[r]))
            if isinstance(row.note, str):
                codes[r] = notes.setdefault(row.note, len(notes))
            else:
                codes[r] = [notes.setdefault(note, len(notes)) for note in row.note]

        # each entry from its place in the rows' concatenation, row by row,
        # to its place in the run, point by point
        sizes = counts.ravel()
        by_row, by_point = _starts(sizes), _starts(counts.T.ravel())
        dest = np.repeat(by_point[:-1].reshape(size, count).T.ravel() - by_row[:-1], sizes)
        dest += np.arange(by_row[-1])
        b_rows = np.concatenate(bounds)
        flags = np.array([row.bound_id in _COMPARATOR_IDS for row in rows], dtype=bool)
        comparator = np.repeat(flags, counts.sum(axis=1))
        code = np.repeat(codes.ravel(), sizes)
        with np.errstate(invalid="ignore"):
            code[comparator & (code == 0) & (b_rows <= 0.0)] = 1
        b, o, self._codes = np.empty_like(b_rows), np.empty_like(b_rows), np.empty_like(code)
        gating = np.empty(b.size, dtype=bool)
        b[dest], o[dest], self._codes[dest] = b_rows, np.concatenate(observed), code
        gating[dest] = ~comparator & (code == 0)
        # numpy warns where Python floats give a NaN or an infinity silently
        with np.errstate(invalid="ignore", over="ignore"):
            self.slack = o - b
            self.holds = self.slack >= -_HOLDS_RTOL * np.maximum(np.abs(b), 1.0)
            self.sharpness = np.divide(o, b, out=np.full_like(b, math.nan), where=b > 0.0)
        point_starts = by_point[::count] if count else np.zeros(size + 1, dtype=np.intp)
        failed = _starts(gating & ~self.holds)[point_starts]
        self.violations: list[int] = (failed[1:] - failed[:-1]).tolist()

        # a point's side values: its value of each column, its slice and its
        # index array of each ragged side, then None
        columns = _distinct(side for row in rows for side in row[1:3] if not isinstance(side, Ragged))
        sources = _distinct(side for side in raggeds if side is not None)
        position = {id(side): k for k, side in enumerate(columns + sources)}
        none = len(columns) + 2 * len(sources)
        self._positions = [
            (
                position[id(row.bound)], position[id(row.observed)],
                none if ragged is None else position[id(ragged)] + len(sources),
            )
            for row, ragged in zip(rows, raggeds)
        ]
        self._scalars = np.array(columns).T.tolist() if columns else [[]] * size
        self._sources = [(side.values, side.starts.tolist()) for side in sources]
        self._indices: dict[int, np.ndarray] = {}
        self._notes = np.array(list(notes), dtype=object)
        self._rows, self._present, self._comparator = rows, present, flags.tolist()
        self._point_starts, self._counts = point_starts.tolist(), counts.T.tolist()
        # the points that have the same rows share one layout
        masked = [r for r, row in enumerate(rows) if row.applies is not None]
        self._keys = list(map(tuple, present[masked].T.tolist())) if masked else [()] * size
        self._layouts: dict[tuple, tuple] = {}

    def _layout(self, p: int) -> tuple:
        """The ids and comparator flags of point ``p``'s rows, and getters
        of their counts, indices, bound and observed sides."""
        layout = self._layouts.get(self._keys[p])
        if layout is None:
            here = np.flatnonzero(self._present[:, p]).tolist()
            bound, observed, index = zip(*[self._positions[r] for r in here]) if here else ((), (), ())
            layout = self._layouts[self._keys[p]] = (
                tuple(self._rows[r].bound_id for r in here),
                tuple(self._comparator[r] for r in here),
                *map(_getter, (here, list(index), list(bound), list(observed))),
            )
        return layout

    def point(self, p: int) -> BoundColumns:
        """Point ``p``'s columns, cut from the run's."""
        ids, comparator, counts, index, bound, observed = self._layout(p)
        start, stop = self._point_starts[p], self._point_starts[p + 1]
        slices, indices = [], []
        for values, starts in self._sources:
            lo, hi = starts[p], starts[p + 1]
            slices.append(values[lo:hi])
            if hi - lo not in self._indices:
                self._indices[hi - lo] = np.arange(1, hi - lo + 1)
            indices.append(self._indices[hi - lo])
        sides = self._scalars[p] + slices + indices + [None]
        return BoundColumns(
            counts(self._counts[p]),
            ids,
            index(sides),
            bound(sides),
            observed(sides),
            self.slack[start:stop].tolist(),
            self.holds[start:stop].tolist(),
            self.sharpness[start:stop].tolist(),
            comparator,
            self._notes[self._codes[start:stop]].tolist(),
        )


def bound_set(z: RootVector) -> list[BoundReport]:
    """Every derived bound and comparator report for the family of ``z``,
    in row order."""
    columns = RunColumns(bound_rows([z]), 1).point(0)
    fields = [
        column if isinstance(column, list)
        else [value for side, count in zip(column, columns.counts) for value in _entries(side, count)]
        for column in columns[1:]
    ]
    return list(map(BoundReport._make, zip(*fields)))


def _entries(side, count: int) -> list:
    """The values of one side of a row, one per entry."""
    return side.tolist() if isinstance(side, np.ndarray) else [side] * count


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
