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
  jacobi-gap          z_{i+1} - z_i >= 2^(7/4) sqrt(min(alpha+1, beta+1))/M
  jacobi-boundary-product-symmetric  (alpha = beta)  1 - z_i^2 >= 8(alpha+1)/(M + 4(alpha+1))
  jacobi-gap-symmetric (alpha = beta)
      z_{i+1} - z_i >= 2^(11/4) sqrt(alpha+1)/sqrt(M(M+4(alpha+1)))
Jacobi (comparator, asymptotic leading term, alpha, beta > -1/2):
  jacobi-upper-edge-asymptotic  1 - z_N >= alpha(alpha+2)/(2(N+(alpha+beta+1)/2)^2)

Comparator reports never gate anything; a nonpositive comparator bound is
marked ``vacuous``.  The discriminant ``M^2 - 16(alpha+1)(beta+1)`` is at
least ``4(alpha-beta)^2``, so zero at ``alpha = beta``, ``N = 1``; it is
clamped at 0 there, where rounding can make it slightly negative.

Each bound is one :class:`BoundSpec` row of ``BOUND_SPECS``, a family's
rows in the order above: its id; the quantity it observes, from one
vocabulary (``lin``, ``cross``, ``diag-sq = lin**2 + cross``, ``gaps``,
``sqrt-gaps``, ``last`` for the last stored root, ``upper = 1 - z_N``,
``lower = 1 + z_1`` and ``width = 1 - z**2``); its ``formula`` of ``(n,
M, *params)``, with ``M`` the spectral radius of ``S_N``, in Python
floats; ``cap`` for an upper bound; the derived ids that a comparator is
measured ``against``, which give the pairs that the sharpness summary
compares; and its rules of the parameters: outside its ``domain`` the
bound is NaN and noted ``not-applicable``, outside ``only`` the point
has no such row.

Bounds are evaluated on runs: all the points of one family kind in a
sweep run, whatever their orders and parameters, at once.
:func:`bound_rows` evaluates a run's rows by its kind's view of one
evaluator (:func:`hermite_diag_bound`, :func:`laguerre_bounds`,
:func:`jacobi_bounds`), from the root vectors, one point as ``[z]``.
The run's ``(lin, cross)`` come from one
``covariance.interaction_sums_stack`` per order group of the run
(``covariance.order_groups``), written into the run's flat arrays.  Each
observed quantity is built once per run, in one numpy pass, and shared
by its rows: a ``(P,)`` column, one value per point, or a :class:`Ragged`
array, one value per entry with per-point offsets.  Each formula gives a
``(P,)`` column of Python floats.  At one point, a row of two columns
gives one entry, index 0 (``None`` in a report); a row with a ragged side
one entry per value, indices ``1..k``, so the gap rows give none at
``N = 1``.

:class:`RunColumns` lays out every entry of a run as flat arrays, point
by point, each point's rows in row order, with ``starts`` the offsets of
the points: each entry's ``row`` and ``index``, its ``slack``, ``holds``,
``sharpness`` and note code from one numpy pass, and each point's
violation count from one integer pass.  A bound or observed value is a
key into a pool that holds each distinct side of that column once, so
the rows that share a side, as the seven Laguerre gap rows share the
gaps, share its keys.  ``RunColumns.columns`` are the columns of the
``bounds`` output rows after the point key, each a per-entry array or a
``(pool, keys)`` pair, which the ``bounds`` command writes a kind's run
at a time.  The library's views are the same path on a run of one point,
``RunColumns(bound_rows([z]), 1)``: :func:`bound_set`, a ``BoundReport``
per entry (an immutable named tuple, its fields the output row after the
point key), and :func:`sharpness_summary`, which reads one point of a
run alongside its root vector.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from .covariance import interaction_sums_stack, order_groups
from .errors import EmptyProblemError, ParameterDomainError
from .families import FamilyKind
from .roots import RootVector, require_kind

_HOLDS_RTOL = 1e-10

# a run's per-entry keys, rows, indices and note codes, in half the memory
# of np.intp; a run of 2**31 entries would not fit in memory anyway
_ENTRY_INT = np.int32


class BoundSpec(NamedTuple):
    """One row of ``BOUND_SPECS``, as the module docstring has it;
    ``domain`` and ``only`` take the family's parameters."""

    bound_id: str
    observed: str
    formula: Callable[..., float]
    cap: bool = False
    against: tuple[str, ...] = ()
    domain: Callable[..., bool] | None = None
    only: Callable[..., bool] | None = None


def _disc(m: float, a: float, b: float) -> float:
    # at least 4(alpha - beta)^2, which is 0 at alpha = beta, N = 1
    return math.sqrt(max(m**2 - 16.0 * (a + 1.0) * (b + 1.0), 0.0))


_GAP_STRONG = ("laguerre-gap-strong", "laguerre-gap-bessel-strong")

# Every bound, a family's in row order, its formula in Python floats as in
# the catalog (numpy's power can round otherwise); Jacobi's a, b are
# alpha, beta
BOUND_SPECS = {
    FamilyKind.HERMITE: (
        BoundSpec("hermite-diag-sq", "diag-sq", lambda n, m: (n - 1) ** 3 / n, cap=True),
        BoundSpec("hermite-inv4-sum", "cross", lambda n, m: (n - 1) ** 3 / (2 * n), cap=True),
        BoundSpec("hermite-inv2-sum", "lin", lambda n, m: (n - 1) ** 1.5 / math.sqrt(n), cap=True),
        BoundSpec("hermite-gap", "gaps", lambda n, m: (2.0 * n) ** 0.25 / (n - 1) ** 0.75),
        BoundSpec(
            "hermite-gap-comparator", "gaps", lambda n, m: 2.0 / math.sqrt(n), against=("hermite-gap",)
        ),
    ),
    FamilyKind.LAGUERRE: (
        BoundSpec("laguerre-diag-sq", "diag-sq", lambda n, m, nu: (2.0 * n - 1.0) ** 2, cap=True),
        BoundSpec("laguerre-min-root", "last", lambda n, m, nu: nu / (2.0 * n - 1.0)),
        BoundSpec(
            "laguerre-gap-strong", "gaps",
            lambda n, m, nu: math.sqrt(2.0 * (1.0 + math.sqrt(1.0 + 8.0 * nu * nu))) / (2.0 * n - 1.0),
        ),
        BoundSpec(
            "laguerre-gap-weak", "gaps", lambda n, m, nu: 2.0 * 2.0**0.25 * math.sqrt(nu) / (2.0 * n - 1.0)
        ),
        # sqrt(nu^2 - 1) is imaginary below nu = 1, where the source floors are vacuous
        BoundSpec(
            "laguerre-gap-bessel-strong", "gaps",
            lambda n, m, nu: math.sqrt(2.0) / (2.0 * n - 1.0) * math.sqrt(2.0 + math.sqrt(2.0) * math.sqrt(
                2.0 + (2.0 * n - 1.0) ** 2 * (nu * nu - 1.0) ** 2 / (n + nu / 2.0) ** 2
            )),
            domain=lambda nu: nu >= 1.0,
        ),
        BoundSpec(
            "laguerre-gap-bessel-weak", "gaps",
            lambda n, m, nu: 2.0**0.75 * math.sqrt(nu * nu - 1.0)
            / math.sqrt((2.0 * n - 1.0) * (n + nu / 2.0)),
            domain=lambda nu: nu >= 1.0,
        ),
        BoundSpec("laguerre-sqrt-gap", "sqrt-gaps", lambda n, m, nu: 1.0 / math.sqrt(2.0 * n - 1.0)),
        BoundSpec(
            "laguerre-min-root-bessel", "last", lambda n, m, nu: (nu * nu - 1.0) / (4.0 * (n + nu / 2.0)),
            against=("laguerre-min-root",),
        ),
        # n - 1 first: at N = 1 the sum in the other order cancels a tiny nu
        BoundSpec(
            "laguerre-gap-comparator-1", "gaps",
            lambda n, m, nu: (nu - 1.0) / math.sqrt(((n - 1.0) + nu) * n),
            against=_GAP_STRONG,
        ),
        BoundSpec(
            "laguerre-gap-comparator-2", "gaps",
            lambda n, m, nu: 2.0 * math.sqrt(2.0) * nu / math.sqrt((n + nu) * n),
            against=_GAP_STRONG,
        ),
        BoundSpec(
            "laguerre-gap-comparator-3", "gaps",
            lambda n, m, nu: math.pi * math.sqrt(2.0) / math.sqrt(2.0 * nu * n + nu + 2.0 * n * n),
            against=_GAP_STRONG,
        ),
    ),
    FamilyKind.JACOBI: (
        BoundSpec("jacobi-diag-sq", "diag-sq", lambda n, m, a, b: m**2, cap=True),
        BoundSpec(
            "jacobi-upper-edge-strong", "upper",
            lambda n, m, a, b: 8.0 * (a + 1.0) / (m + 4.0 * (a + 1.0) + _disc(m, a, b)),
        ),
        BoundSpec(
            "jacobi-upper-edge-weak", "upper", lambda n, m, a, b: 4.0 * (a + 1.0) / (m + 2.0 * (a + 1.0))
        ),
        BoundSpec(
            "jacobi-lower-edge-strong", "lower",
            lambda n, m, a, b: 8.0 * (b + 1.0) / (m + 4.0 * (b + 1.0) + _disc(m, a, b)),
        ),
        BoundSpec(
            "jacobi-lower-edge-weak", "lower", lambda n, m, a, b: 4.0 * (b + 1.0) / (m + 2.0 * (b + 1.0))
        ),
        BoundSpec("jacobi-boundary-product", "width", lambda n, m, a, b: 2.0 * min(a + 1.0, b + 1.0) / m),
        BoundSpec("jacobi-gap", "gaps", lambda n, m, a, b: 2.0**1.75 * math.sqrt(min(a + 1.0, b + 1.0)) / m),
        BoundSpec(
            "jacobi-boundary-product-symmetric", "width",
            lambda n, m, a, b: 8.0 * (a + 1.0) / (m + 4.0 * (a + 1.0)), only=lambda a, b: a == b,
        ),
        BoundSpec(
            "jacobi-gap-symmetric", "gaps",
            lambda n, m, a, b: 2.0**2.75 * math.sqrt(a + 1.0) / math.sqrt(m * (m + 4.0 * (a + 1.0))),
            only=lambda a, b: a == b,
        ),
        # the dropped o(1/N^2) term means it never gates anything
        BoundSpec(
            "jacobi-upper-edge-asymptotic", "upper",
            lambda n, m, a, b: a * (a + 2.0) / (2.0 * (n + (a + b + 1.0) / 2.0) ** 2),
            against=("jacobi-upper-edge-strong",), domain=lambda a, b: a > -0.5 and b > -0.5,
        ),
    ),
}

# The kinds whose formulas read M; the others' are given NaN in its place
_READS_RADIUS = frozenset({FamilyKind.JACOBI})

# Each literature comparator with a derived bound it is measured against;
# a report whose id is on the left is a comparator and never gates anything.
_COMPARATOR_PAIRS = tuple(
    (spec.bound_id, own_id) for specs in BOUND_SPECS.values() for spec in specs for own_id in spec.against
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

    n: list[int]
    roots: Ragged
    gaps: Ragged
    lin: Ragged
    cross: Ragged


def _run(points: Sequence[RootVector], kind: FamilyKind) -> _Run:
    if not points:
        raise EmptyProblemError("bound rows need at least one point")
    for z in points:
        require_kind(z, kind)
    n = [z.n for z in points]
    starts = _starts(n)
    gap_starts = _starts([k - 1 for k in n])
    # each order group's (lin, cross) stacks, each point's rows at its offset
    lin, cross = np.empty(starts[-1]), np.empty(starts[-1])
    for indices, group in order_groups(points):
        at = starts[indices][:, None] + np.arange(group[0].n)
        lin[at], cross[at] = interaction_sums_stack(group)
    concat = np.concatenate
    return _Run(
        n,
        Ragged(concat([z.roots for z in points]), starts),
        Ragged(concat([z.gaps for z in points]), gap_starts),
        Ragged(lin, starts),
        Ragged(cross, starts),
    )


def _sqrt_gaps(run: _Run) -> Ragged:
    # sqrt(z_i) - sqrt(z_{i+1}) over the run, less those that straddle two points
    root = np.sqrt(run.roots.values)
    return Ragged(np.delete(root[:-1] - root[1:], run.roots.starts[1:-1] - 1), run.gaps.starts)


# Each observed quantity of a run, from its ragged arrays: a Ragged side of
# one value per root or per gap, or a (P,) column of one value per point
_OBSERVED: dict[str, Callable[[_Run], Side]] = {
    "lin": lambda run: run.lin,
    "cross": lambda run: run.cross,
    "diag-sq": lambda run: Ragged(run.lin.values * run.lin.values + run.cross.values, run.lin.starts),
    "gaps": lambda run: run.gaps,
    "sqrt-gaps": _sqrt_gaps,
    "last": lambda run: run.roots.values[run.roots.starts[1:] - 1],
    "upper": lambda run: 1.0 - run.roots.values[run.roots.starts[1:] - 1],
    "lower": lambda run: 1.0 + run.roots.values[run.roots.starts[:-1]],
    "width": lambda run: Ragged(1.0 - run.roots.values * run.roots.values, run.roots.starts),
}


def _evaluate(kind: FamilyKind, points: Sequence[RootVector]) -> list[BoundRow]:
    """The rows of ``BOUND_SPECS[kind]`` on a run of root vectors of that
    kind, each observed quantity built once and shared by its rows."""
    run = _run(points, kind)
    min_n = points[0].family.spec.min_n
    if min(run.n) < min_n:
        raise ParameterDomainError(f"{kind.value.capitalize()} bounds need N >= {min_n}")
    params = [z.family.parameters() for z in points]
    spectrum = points[0].family.spec.spectrum
    radii = (spectrum(z.n, *p)[-1] if kind in _READS_RADIUS else math.nan for z, p in zip(points, params))
    args = [(z.n, float(m), *p) for z, m, p in zip(points, radii, params)]
    sides: dict[str, Side] = {}
    rows = []
    for spec in BOUND_SPECS[kind]:
        applies = np.array([spec.only is None or spec.only(*p) for p in params])
        if not applies.any():
            continue
        inside = [spec.domain is None or spec.domain(*p) for p in params]
        bound = np.array([spec.formula(*a) if ok else math.nan for a, ok in zip(args, inside)], dtype=float)
        note = "" if spec.domain is None else ["" if ok else "not-applicable" for ok in inside]
        if spec.observed not in sides:
            sides[spec.observed] = _OBSERVED[spec.observed](run)
        sides_of = (sides[spec.observed], bound) if spec.cap else (bound, sides[spec.observed])
        rows.append(BoundRow(spec.bound_id, *sides_of, note, None if applies.all() else applies))
    return rows


def hermite_diag_bound(points: Sequence[RootVector]) -> list[BoundRow]:
    """The Hermite rows of ``BOUND_SPECS`` on a run of root vectors."""
    return _evaluate(FamilyKind.HERMITE, points)


def laguerre_bounds(points: Sequence[RootVector]) -> list[BoundRow]:
    """The Laguerre rows of ``BOUND_SPECS`` on a run of root vectors."""
    return _evaluate(FamilyKind.LAGUERRE, points)


def jacobi_bounds(points: Sequence[RootVector]) -> list[BoundRow]:
    """The Jacobi rows of ``BOUND_SPECS`` on a run of root vectors."""
    return _evaluate(FamilyKind.JACOBI, points)


# Each family's bound rows; the lambdas look the functions up at call time,
# so wrappers installed on this module's attributes see every call.
_BOUND_SETS = {
    FamilyKind.HERMITE: lambda points: hermite_diag_bound(points),
    FamilyKind.LAGUERRE: lambda points: laguerre_bounds(points),
    FamilyKind.JACOBI: lambda points: jacobi_bounds(points),
}


def bound_rows(points: Sequence[RootVector]) -> list[BoundRow]:
    """Every derived bound and comparator row of a run of root vectors of
    one kind, by the view of that kind, the run's ``(lin, cross)`` from
    one stack per order group (``covariance.order_groups``)."""
    if not points:
        raise EmptyProblemError("bound rows need at least one point")
    return _BOUND_SETS[points[0].family.kind](points)


class RunColumns:
    """The bound entries of a run of ``size`` points, each evaluated once,
    as flat arrays: point by point, each point's rows in row order and each
    row's entries in index order, point ``p``'s from ``starts[p]`` to
    ``starts[p + 1]``.

    Per entry: ``row``; ``index``, ``1..k`` in a ragged row and 0 in a
    one-entry row; ``slack = observed - bound``; ``holds``, a slack of at
    least ``-1e-10 max(|bound|, 1)``, which a NaN side never has;
    ``sharpness = observed / bound`` for a positive bound, else NaN; and
    ``codes``, the entry's note in ``notes``, ``vacuous`` for a comparator
    entry whose bound is not positive unless its row has a note of its
    own.  ``bound_value`` and ``observed_value`` are each a ``(pool,
    keys)`` pair: the pool holds each distinct side of the column once, so
    the rows that share a side share its keys.  ``violations`` counts, per
    point, the entries of the gating rows (neither comparators nor noted)
    that do not hold.  ``columns`` are the ``BoundReport`` fields, each a
    per-entry array or a ``(pool, keys)`` pair.
    """

    def __init__(self, rows: Sequence[BoundRow], size: int):
        count = len(rows)
        # (row, point) tables of entries and note codes
        counts = np.ones((count, size), dtype=np.intp)
        codes = np.zeros((count, size), dtype=_ENTRY_INT)
        ragged = np.zeros(count, dtype=bool)
        notes = {"": 0, "vacuous": 1}
        # per column: each distinct side's offset in the pool, by identity,
        # the pool's parts, and each row's keys
        offsets: tuple[dict, dict] = ({}, {})
        parts = ([np.empty(0)], [np.empty(0)])
        keys = ([np.empty(0, dtype=_ENTRY_INT)], [np.empty(0, dtype=_ENTRY_INT)])
        for r, row in enumerate(rows):
            source = next((side for side in row[1:3] if isinstance(side, Ragged)), None)
            if source is not None:
                counts[r], ragged[r] = np.diff(source.starts), True
            keep = None
            if row.applies is not None:
                keep = np.repeat(row.applies, counts[r])
                counts[r] *= row.applies
            for side, offset, part, key in zip(row[1:3], offsets, parts, keys):
                values = side.values if isinstance(side, Ragged) else side
                if id(side) not in offset:
                    offset[id(side)] = sum(map(len, part))
                    part.append(values)
                at = offset[id(side)] + np.arange(len(values), dtype=_ENTRY_INT)
                if isinstance(side, Ragged):
                    key.append(at if keep is None else at[keep])
                else:
                    key.append(np.repeat(at, counts[r]))
            if isinstance(row.note, str):
                codes[r] = notes.setdefault(row.note, len(notes))
            else:
                codes[r] = [notes.setdefault(note, len(notes)) for note in row.note]

        # the run's entries, point by point: the entries of each (point, row)
        # pair, and each entry's place in the rows' concatenation, row by row
        per_point = counts.T.ravel()
        by_point, by_row = _starts(per_point), _starts(counts.ravel())
        order = np.repeat(by_row[:-1].reshape(count, size).T.ravel() - by_point[:-1], per_point)
        order += np.arange(by_point[-1])
        self.bound_value, self.observed_value = [
            (np.concatenate(part), np.concatenate(key)[order]) for part, key in zip(parts, keys)
        ]
        self.row = np.repeat(np.tile(np.arange(count, dtype=_ENTRY_INT), size), per_point)
        index = np.arange(by_point[-1]) - np.repeat(by_point[:-1] - 1, per_point)
        self.index = index.astype(_ENTRY_INT) * ragged[self.row]
        self.codes = np.repeat(codes.T.ravel(), per_point)
        b, o = (pool[key] for pool, key in (self.bound_value, self.observed_value))
        flags = [row.bound_id in _COMPARATOR_IDS for row in rows]
        comparator = np.array(flags, dtype=bool)[self.row]
        with np.errstate(invalid="ignore"):
            self.codes[comparator & (self.codes == 0) & (b <= 0.0)] = 1
        # numpy warns where Python floats give a NaN or an infinity silently
        with np.errstate(invalid="ignore", over="ignore"):
            self.slack = o - b
            self.holds = self.slack >= -_HOLDS_RTOL * np.maximum(np.abs(b), 1.0)
            self.sharpness = np.divide(o, b, out=np.full_like(b, math.nan), where=b > 0.0)
        self.starts = by_point[::count] if count else np.zeros(size + 1, dtype=np.intp)
        failed = _starts(~comparator & (self.codes == 0) & ~self.holds)[self.starts]
        self.violations: list[int] = (failed[1:] - failed[:-1]).tolist()
        self.ids, self.notes = [row.bound_id for row in rows], list(notes)
        self.columns = (
            (self.ids, self.row), ([None, *range(1, self.index.max(initial=0) + 1)], self.index),
            self.bound_value, self.observed_value, self.slack, self.holds, self.sharpness,
            (flags, self.row), (self.notes, self.codes),
        )


def bound_set(z: RootVector) -> list[BoundReport]:
    """Every derived bound and comparator report for the family of ``z``,
    in row order."""
    columns = RunColumns(bound_rows([z]), 1).columns
    return list(map(BoundReport._make, zip(*map(_column_values, columns))))


def _column_values(column) -> list:
    """One of ``RunColumns.columns`` as Python values, one per entry."""
    if isinstance(column, tuple):
        pool, keys = column
        # an entry is its pool item, so the entries of one key share a float
        pool = pool.tolist() if isinstance(pool, np.ndarray) else pool
        return list(map(pool.__getitem__, keys.tolist()))
    return column.tolist()


@dataclass(frozen=True)
class SharpnessSummary:
    """Aggregate sharpness per bound id for one root vector's bound set.

    ``diag_square_identity_ratio`` is the summed diagonal-of-square left
    side divided by its exact trace value; it must be 1 up to rounding for
    Hermite and Laguerre.  ``comparator_ratios`` maps
    ``"<comparator-id>/<own-id>"`` to the ratio of the two bound values,
    in the order of ``BOUND_SPECS`` and of each comparator's ``against``.
    """

    worst: dict[str, float]
    mean: dict[str, float]
    diag_square_identity_ratio: float | None
    comparator_ratios: dict[str, float]


# each family's diagonal-of-square bound, whose sum the summary compares
# with its trace
_DIAG_SQ_IDS = {
    kind: spec.bound_id for kind, specs in BOUND_SPECS.items() for spec in specs if spec.observed == "diag-sq"
}


def sharpness_summary(z: RootVector, run: RunColumns, p: int) -> SharpnessSummary:
    """Aggregate point ``p`` of the bound entries ``run``, evaluated on the
    root vector ``z``.

    A row without entries, such as a gap row at ``N = 1``, is left out.
    Sums are Python's, in entry order.
    """
    start, stop = run.starts[p], run.starts[p + 1]
    row = run.row[start:stop]
    # the first entry of each of the point's rows, and the end
    cuts = np.flatnonzero(np.diff(row, prepend=-1)).tolist() + [stop - start]
    pool, keys = run.bound_value
    bound = pool[keys[start:stop]].tolist()
    sharpness = run.sharpness[start:stop].tolist()
    codes = run.codes[start:stop].tolist()
    worst: dict[str, float] = {}
    mean: dict[str, float] = {}
    bounds: dict[str, list[float]] = {}
    for r, lo, hi in zip(row[cuts[:-1]].tolist(), cuts, cuts[1:]):
        bound_id = run.ids[r]
        bounds[bound_id] = bound[lo:hi]
        # a vacuous entry has a NaN sharpness, and a noted row counts not at all
        values = [value for value, code in zip(sharpness[lo:hi], codes[lo:hi]) if not code and math.isfinite(value)]
        if values:
            worst[bound_id] = min(values)
            mean[bound_id] = sum(values) / len(values)
    ratio = None
    fam = z.family
    _, square_target = fam.spec.trace_targets(fam.spec.spectrum(z.n, *fam.parameters()))
    diag_id = _DIAG_SQ_IDS[fam.kind]
    if square_target is not None and diag_id in bounds:
        ratio = sum(bounds[diag_id]) / square_target
    comparator_ratios: dict[str, float] = {}
    for cmp_id, own_id in _COMPARATOR_PAIRS:
        if cmp_id in bounds and own_id in bounds:
            cmp_value, own_value = bounds[cmp_id][0], bounds[own_id][0]
            if math.isfinite(cmp_value) and own_value > 0.0:
                comparator_ratios[f"{cmp_id}/{own_id}"] = cmp_value / own_value
    return SharpnessSummary(worst, mean, ratio, comparator_ratios)
