"""Ordered root vectors from batched Sturm bisection and Newton polishing.

``compute_roots_many`` takes ``(family, n)`` points, of any families and
orders, and finds all their roots together.  The roots of ``P_n`` are the
eigenvalues of the order-``n`` recurrence matrix ``T_n``: every root is
first bisected on Sturm counts (LAPACK ``dstebz``'s rule, Barth, Martin
and Wilkinson 1967) until its bracket holds it alone, then a few steps
more, and then polished by Newton.  The roots of all
families are ordered by ``n``, descending, and each reads its own family's
coefficients, so every bisection step is one pass of Sturm counts over all
the roots of the batch, each distinct midpoint of a point counted once,
and every Newton step one vectorized evaluation of the recurrence.
``compute_roots`` is a batch of one.  Each root is computed from its own
``T_n`` only, so it does not depend on the batch it came in.  A family
whose recurrence matrix has an all-zero diagonal (Hermite, and Jacobi with
``alpha == beta``) has roots symmetric about 0: only its upper half is
computed, each entry still from its own ``T_n`` alone; the lower half is
that half negated and reversed and an odd order's middle root is 0, so the
symmetry holds bit for bit.

Each family keeps its conventional ordering so that index-based formulas
downstream can be transcribed literally: Hermite and Laguerre roots are
stored descending (``z_1`` largest), Jacobi roots ascending (``z_1``
smallest).  The direction and the orthogonality interval come from the
family's ``FamilySpec`` row, and a ``RootVector`` rejects roots that are
not strictly ordered in that direction, so a flipped vector cannot pass
for its family; a root that is not finite is rejected too.  The
differences that check forms are kept as the vector's positive
consecutive gaps, ``gaps``, in the same index convention; the ``roots``
rows, ``gap_statistics`` and the gap bounds all read them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import FamilyMismatchError, InternalConsistencyError, ParameterDomainError, SingularConfigurationError
from .families import FamilyKind, PolynomialFamily, _check_order, _evaluate_scaled, jacobi_matrix, step_table

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RootVector:
    """Ordered roots of ``P_n`` for one family, a one-dimensional array in
    the family's storage direction (``family.spec.ascending``) and inside
    its orthogonality interval; ``n`` is a positive integer, as
    ``compute_roots`` takes it.

    ``gaps`` holds the ``n - 1`` consecutive gaps, positive, in the
    family's index convention: ``z_i - z_{i+1}`` for a descending family,
    ``z_{i+1} - z_i`` for an ascending one.  ``polish_skipped`` lists
    stored-order indices whose Newton refinement was rejected or did not
    settle (the root was bisected to full width and the midpoint of its
    bracket kept instead).
    """

    family: PolynomialFamily
    n: int
    roots: np.ndarray
    polish_skipped: tuple[int, ...] = ()
    gaps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_order(self.n)
        roots = np.asarray(self.roots, dtype=float)
        object.__setattr__(self, "roots", roots)
        if roots.ndim != 1:
            raise ParameterDomainError("roots must be one-dimensional")
        if roots.size != self.n:
            raise InternalConsistencyError(f"expected {self.n} roots, got {roots.size}")
        gaps = _ordered_gaps(roots, self.family.spec)
        object.__setattr__(self, "gaps", gaps)
        roots.setflags(write=False)
        gaps.setflags(write=False)


def _ordered_gaps(roots, spec) -> np.ndarray:
    """The consecutive gaps of ``roots`` in the direction of ``spec``;
    raise unless they are all positive and the roots lie inside its
    orthogonality interval.  One test accepts them, both end roots inside
    and every gap positive, which a NaN fails; only a failure is
    classified."""
    lo, hi = spec.domain
    gaps = roots[1:] - roots[:-1]
    low, high = roots[0], roots[-1]
    if not spec.ascending:
        # exact: the gap z_i - z_{i+1} is the negated difference
        np.negative(gaps, out=gaps)
        low, high = high, low
    if lo < low and high < hi and (gaps > 0.0).all():
        return gaps
    if not np.isfinite(roots).all():
        raise InternalConsistencyError("roots are not finite")
    if (gaps < 0.0).any():
        order = "ascending" if spec.ascending else "descending"
        raise InternalConsistencyError(f"roots are not {order}")
    if (gaps == 0.0).any():
        raise SingularConfigurationError("neighbouring roots coincide in double precision")
    raise InternalConsistencyError(f"roots left the orthogonality interval ({lo}, {hi})")


class GapStatistics(NamedTuple):
    """``None`` marks an undefined statistic, not a zero or an infinity."""

    min_gap: float | None
    boundary_low: float | None
    boundary_high: float | None


# bisection steps a root takes after its bracket first holds it alone,
# before Newton takes over (with three, some large Laguerre roots at
# N = 1000 do not settle and fall back to full width); Newton evaluations
# before a root that has not settled is bisected instead; and the most
# values one block of Sturm counts holds in its pivot table
_STEPS_AFTER = 4
_NEWTON_CAP = 12
_TABLE_CAP = 2**17
_TINY = float(np.finfo(float).tiny)


def compute_roots(family: PolynomialFamily, n: int) -> RootVector:
    """Roots of ``P_n``: :func:`compute_roots_many` of one point."""
    return compute_roots_many([(family, n)])[0]


def compute_roots_many(points) -> list[RootVector]:
    """Roots of ``P_n`` for each ``(family, n)`` in ``points``, in order.

    Every root of every point is an entry ``(family, n, k)``: the ``k``-th
    smallest eigenvalue of the order-``n`` recurrence matrix ``T_n``, the
    leading block of the family's matrix at its largest order in
    ``points``.  The entries of all families are ordered by ``n``,
    descending, and bisected together on Sturm counts (:func:`_bisect`),
    each from the Gershgorin interval of its own ``T_n`` clipped to the
    orthogonality interval, until its bracket holds its eigenvalue alone
    and then ``_STEPS_AFTER`` steps more.  Newton then polishes each root
    inside its bracket, one evaluation of the recurrence per step for all
    the entries (:func:`_polish`).  A root whose polish is rejected or does
    not settle is bisected on to full width and its midpoint kept; its
    stored-order index is listed in ``polish_skipped``.  Every decision is
    made per entry, from its own ``T_n``, so a point's roots do not depend
    on the other points of the batch.

    When the family's diagonal is all zero, as for Hermite and for Jacobi
    with ``alpha == beta``, ``T_n`` is similar to ``-T_n`` (conjugated by
    ``diag(1, -1, 1, ...)``), so its eigenvalues are symmetric about 0 and
    only the entries above the middle, ``2k + 1 > n``, are bisected and
    polished.  Each root with ``2k + 1 < n`` is root ``n - 1 - k`` negated,
    and is in ``polish_skipped`` if that one is; the middle root of an odd
    order is 0, exactly, since then ``det T_n = -det T_n``.  The roots are
    exactly symmetric.
    """
    points = list(points)
    if not points:
        return []
    for _, n in points:
        _check_order(n)
    families = list(dict.fromkeys(fam for fam, _ in points))
    column = {fam: i for i, fam in enumerate(families)}
    orders = np.array([n for _, n in points])
    fam_of_point = np.array([column[fam] for fam, _ in points])
    tops = np.zeros(len(families), dtype=np.int64)
    np.maximum.at(tops, fam_of_point, orders)
    tables, start = _start_brackets(families, tops, fam_of_point, orders)

    # the entries in point order, each point's by index
    owner = np.repeat(np.arange(orders.size), orders)
    first = np.cumsum(orders) - orders
    index = np.arange(owner.size) - first[owner]
    # a zero diagonal (Hermite, Jacobi with alpha == beta) makes T_n similar
    # to -T_n, so root k is root n - 1 - k negated and the middle root of an
    # odd order is 0: of those points only the roots above the middle are
    # computed
    side = 2 * index + 1 - orders[owner]  # < 0 below the middle, 0 at it
    symmetric = ~tables[0].any(axis=0)[fam_of_point[owner]]
    # the computed entries, by order, descending, then by point and index
    rank = np.flatnonzero(~symmetric | (side > 0))
    rank = rank[np.argsort(-orders[owner[rank]], kind="stable")]
    point, k = owner[rank], index[rank]
    fam, degree = fam_of_point[point], orders[point]
    lo, hi, pivmin, slack = start[:, point]

    alone = _bisect(tables, point, fam, degree, k, lo, hi, pivmin, _STEPS_AFTER)
    x = np.empty(lo.size)
    settled = np.zeros(lo.size, dtype=bool)
    if alone.any():
        # views, not copies, when every entry is isolated, as on the default grid
        sel = slice(None) if alone.all() else np.flatnonzero(alone)
        steps = step_table(families, tops)
        domain = np.array([family.spec.domain for family in families]).T
        x[sel], settled[sel] = _polish(steps, domain, fam[sel], degree[sel], lo[sel], hi[sel], slack[sel])
    rest = np.flatnonzero(~settled)
    if rest.size:
        sub_lo, sub_hi = lo[rest], hi[rest]
        _bisect(tables, point[rest], fam[rest], degree[rest], k[rest], sub_lo, sub_hi, pivmin[rest])
        x[rest] = 0.5 * (sub_lo + sub_hi)

    # back to point order, each point's roots ascending
    roots, skipped = np.zeros(owner.size), np.zeros(owner.size, dtype=bool)
    roots[rank], skipped[rank] = x, ~settled
    lower = np.flatnonzero(symmetric & (side < 0))
    image = lower - side[lower]
    roots[lower], skipped[lower] = -roots[image], skipped[image]
    # the stored-order indices of the skipped roots, by point, if any
    flags = {}
    for i in np.flatnonzero(skipped).tolist():
        flags.setdefault(int(owner[i]), []).append(int(index[i]))
    vectors = []
    for p, ((family, n), begin) in enumerate(zip(points, first.tolist())):
        ascending = roots[begin:begin + n]
        flagged = flags.get(p, ())
        if not family.spec.ascending:
            ascending = ascending[::-1]
            flagged = [n - 1 - i for i in reversed(flagged)]
        vectors.append(RootVector(family, n, ascending.copy(), tuple(flagged)))
    return vectors


def _start_brackets(families, tops, fam_of_point, orders):
    """The recurrence coefficients of all families and each point's start.

    ``tables`` holds the diagonal and the squared off-diagonal (entry
    ``i`` couples rows ``i`` and ``i + 1``) of the recurrence matrix of
    family ``f`` at its largest order ``tops[f]`` in column ``f``, padded
    with 0.  Each point's column of ``start`` holds the Gershgorin interval
    of its own ``T_n``, widened as LAPACK ``dstebz`` widens it and clipped
    to the orthogonality interval; the pivot floor ``pivmin = tiny * max(1,
    max b_i^2)`` of its ``T_n``; and that widening, ``slack``, which is how
    far a Sturm count may misplace an eigenvalue.
    """
    top = int(tops.max())
    diag, off2 = np.zeros((top, len(families))), np.zeros((top - 1, len(families)))
    start = np.empty((4, orders.size))
    for f, family in enumerate(families):
        sel = np.flatnonzero(fam_of_point == f)
        ns = orders[sel]
        t = jacobi_matrix(family, int(tops[f]))
        a, b = t.diag, t.offdiag
        diag[:a.size, f], off2[:b.size, f] = a, b * b
        # edge[i] = b_{i-1}; the last row of T_n has only edge[n - 1]
        edge = np.concatenate(([0.0], b, [0.0]))
        radius = edge[:-1] + edge[1:]
        inner_lo = np.concatenate(([np.inf], np.minimum.accumulate(a - radius)))
        inner_hi = np.concatenate(([-np.inf], np.maximum.accumulate(a + radius)))
        last = ns - 1
        low = np.minimum(inner_lo[last], a[last] - edge[last])
        high = np.maximum(inner_hi[last], a[last] + edge[last])
        b2max = np.concatenate(([1.0], np.maximum.accumulate(np.maximum(b * b, 1.0))))
        pivmin = _TINY * b2max[last]
        slack = 2.1 * _EPS * ns * np.maximum(np.abs(low), np.abs(high)) + 4.2 * pivmin
        dom_lo, dom_hi = family.spec.domain
        start[:, sel] = np.maximum(low - slack, dom_lo), np.minimum(high + slack, dom_hi), pivmin, slack
    return (diag, off2), start


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _bisect(tables, point, fam, degree, k, lo, hi, pivmin, steps=None) -> np.ndarray:
    """Bisect each entry's bracket ``[lo, hi]`` on its eigenvalue ``k``, in
    place; the entries come by order, descending, and then by point and
    ``k``.

    An entry stops at full width, ``hi - lo < 2 eps max(|lo|, |hi|) +
    pivmin`` as in LAPACK ``dstebz``, or, when ``steps`` is given, once it
    has taken ``steps`` steps with its bracket holding its eigenvalue alone
    (Sturm counts are monotone, so such a bracket keeps holding it alone),
    so each entry stops at a step of its own.  Entries of one point that
    share a bracket, neighbours in this order, share its midpoint, whose
    Sturm count is computed once.  Returns the mask of the entries whose
    bracket holds their eigenvalue alone (the start brackets count as
    holding all ``n``).
    """
    alone = np.zeros(lo.size, dtype=bool)
    # room for one block's pivot table and its signs, reused by every block
    work = np.empty(_TABLE_CAP), np.empty(_TABLE_CAP, dtype=bool)
    # the entries still bisecting, compacted whenever some stop
    live, pt, f, n, kk, floor = np.arange(lo.size), point, fam, degree, k, pivmin
    l, h = lo.copy(), hi.copy()
    below, upto = np.zeros(lo.size, dtype=np.int64), degree.copy()  # eigenvalues below l, h
    after = np.zeros(lo.size, dtype=np.int64)  # steps taken while isolated
    while live.size:
        done = h - l < 2.0 * _EPS * np.maximum(np.abs(l), np.abs(h)) + floor
        isolated = (below == kk) & (upto == kk + 1)
        if steps is not None:
            done |= isolated & (after >= steps)
        if done.any():
            stop = live[done]
            lo[stop], hi[stop], alone[stop] = l[done], h[done], isolated[done]
            keep = ~done
            live, pt, f, n, kk, floor, l, h, below, upto, after, isolated = (
                v[keep] for v in (live, pt, f, n, kk, floor, l, h, below, upto, after, isolated)
            )
            if not live.size:
                break
        after += isolated
        x = 0.5 * (l + h)
        # a point's count at x is one number, however many entries ask:
        # each run of one point's entries at one midpoint is counted at its head
        fresh = np.concatenate(([True], (x[1:] != x[:-1]) | (pt[1:] != pt[:-1])))
        heads = np.flatnonzero(fresh)
        count = _sturm_counts(tables, f[heads], n[heads], x[heads], floor[heads], work)
        count = count[np.cumsum(fresh) - 1]
        up = count > kk
        np.copyto(h, x, where=up)
        np.copyto(upto, count, where=up)
        np.logical_not(up, out=up)
        np.copyto(l, x, where=up)
        np.copyto(below, count, where=up)
    return alone


def _sturm_counts(tables, fam, degree, x, pivmin, work) -> np.ndarray:
    """The number of eigenvalues of each entry's ``T_n`` below ``x``, the
    number of negative pivots ``q_i = (a_i - x) - b_{i-1}^2 / q_{i-1}``,
    for entries by order, descending, of the families ``fam``.

    The entries go in blocks whose pivot table, one row per ``i`` and one
    column per entry, holds at most ``_TABLE_CAP`` values, whatever their
    families, and is written into ``work``.  A block is run without a
    guard first; the entries with a pivot within ``pivmin`` of 0 are run
    again with LAPACK ``dstebz``'s guard, which replaces such a pivot by
    ``-pivmin``.  Without such a pivot the two runs are the same.
    """
    counts = np.empty(x.size, dtype=np.int64)
    begin = 0
    while begin < x.size:
        end = min(x.size, begin + max(1, _TABLE_CAP // int(degree[begin])))
        block = slice(begin, end)
        q = _pivots(tables, fam[block], degree[block], x[block], None, work)
        counts[block] = _negatives(q, work)
        # a NaN pivot follows only a small pivot, which this finds
        small = np.flatnonzero(np.fmin.reduce(np.abs(q, out=q), axis=0) < pivmin[block])
        if small.size:
            cols = begin + small
            q = _pivots(tables, fam[cols], degree[cols], x[cols], pivmin[cols], work)
            counts[cols] = _negatives(q, work)
        begin = end
    return counts


def _negatives(q, work) -> np.ndarray:
    """The number of negative values in each column of ``q``."""
    negative = work[1][:q.size].reshape(q.shape)
    return np.count_nonzero(np.less(q, 0.0, out=negative), axis=0)


def _pivots(tables, fam, degree, x, pivmin, work) -> np.ndarray:
    """The pivot table of one block, in ``work``, whose entries read the
    coefficient columns ``fam`` of ``tables``, guarded when ``pivmin`` is
    given.  The block's entries come by order, descending.

    Rows past an entry's order are set to ``+inf``, which the recurrence
    keeps at ``+inf`` or NaN, so they never count as negative.
    """
    diag, off2 = tables
    top, size = int(degree[0]), x.size
    q = work[0][:top * size].reshape(top, size)
    one = diag.shape[1] == 1
    if one:
        # one family: its coefficients broadcast over the block as floats
        np.subtract(diag[:top], x, out=q)
        b2 = off2[:top - 1, 0].tolist()
    else:
        # mode="clip" writes into ``out`` directly; every index is valid
        np.subtract(diag[:top].take(fam, axis=1, out=q, mode="clip"), x, out=q)
    # each run of one order ends its rows at that order
    runs = (np.flatnonzero(np.diff(degree)) + 1).tolist()
    for begin, end in zip(runs, runs[1:] + [size]):
        q[degree[begin]:, begin:end] = np.inf
    if pivmin is not None:
        np.copyto(q[0], -pivmin, where=np.abs(q[0]) < pivmin)
    ratio = np.empty(size)
    for i, (row, prev) in enumerate(zip(q[1:], q)):
        b = b2[i] if one else off2[i].take(fam, out=ratio, mode="clip")
        row -= np.divide(b, prev, out=ratio)
        if pivmin is not None:
            np.copyto(row, -pivmin, where=np.abs(row) < pivmin)
    return q


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _polish(steps, domain, fam, degree, lo, hi, slack) -> tuple[np.ndarray, np.ndarray]:
    """Newton from each bracket's midpoint, all entries in one evaluation
    of the recurrence per step; entry ``j`` is of the family in column
    ``fam[j]`` of the step table ``steps``, whose orthogonality interval
    is column ``fam[j]`` of ``domain``.  Returns the polished points and
    the mask of entries that settled.

    The iterates stay in the bracket widened by ``slack`` (the root of
    ``P_n`` may sit that far outside a bracket of Sturm counts) and clipped
    to the orthogonality interval.  A step that leaves it moves to the end
    it crossed; a second such step rejects the polish, as does a
    derivative of 0.  An entry settles at ``P_n = 0``, at a step of 0, or
    at a step within ``slack`` that is no shorter than the one before (a
    2-cycle is one): rounding, not the root, then sets the steps.  Of the
    points it visited it keeps the one with the smallest ``|P_n|``,
    compared as ``log2|p| + exp2`` because the rescaled values can overflow
    when formed; of equal ones, the one with the shortest Newton step.
    Entries that do not settle within ``_NEWTON_CAP`` evaluations are not
    settled.

    Each step is one call of this module's ``_evaluate_scaled`` attribute
    on the entries still live, so a stand-in or a timer set on it sees
    every evaluation.  The live entries shrink from step to step (on the
    default grid 8,160 at first, and 35, 11, 1 and 1 in the last four
    steps); a call of fewer than ``families._SCALAR_ENTRIES`` runs entry
    by entry, at a cost per entry rather than per row of arrays.
    """
    x = 0.5 * (lo + hi)
    lo, hi = np.maximum(lo - slack, domain[0][fam]), np.minimum(hi + slack, domain[1][fam])
    best = x.copy()
    best_mag = np.full(x.size, np.inf)
    best_step = np.full(x.size, np.inf)
    last_step = np.full(x.size, np.inf)
    clamped = np.zeros(x.size, dtype=bool)
    settled = np.zeros(x.size, dtype=bool)
    live = np.arange(x.size)
    for _ in range(_NEWTON_CAP):
        if not live.size:
            break
        current = x[live]
        p, dp, exp2 = _evaluate_scaled(steps, degree[live], current, fam[live])
        mag = np.log2(np.abs(p)) + exp2
        newton = p / dp
        tie = (mag == best_mag[live]) & (np.abs(newton) < best_step[live])
        better = (mag < best_mag[live]) | tie
        best[live[better]] = current[better]
        best_mag[live[better]], best_step[live[better]] = mag[better], np.abs(newton[better])
        candidate = current - newton
        l, h = lo[live], hi[live]
        outside = ~((l <= candidate) & (candidate <= h))
        candidate = np.clip(candidate, l, h)
        step = np.abs(candidate - current)
        reject = (p != 0.0) & ((dp == 0.0) | (outside & clamped[live]))
        stop = (p == 0.0) | (step == 0.0) | ((step >= last_step[live]) & (step <= slack[live]))
        settled[live[stop & ~reject]] = True
        go = ~stop & ~reject
        clamped[live[outside]] = True
        last_step[live] = step
        x[live[go]] = candidate[go]
        live = live[go]
    return best, settled


def require_kind(z: RootVector, kind: FamilyKind) -> None:
    """Input check of the family-specific functions built on root vectors."""
    if z.family.kind is not kind:
        raise FamilyMismatchError(f"expected a {kind.value} root vector, got {z.family.kind.value}")


def to_sqrt_coordinates(rv: RootVector) -> np.ndarray:
    """Map a Laguerre root vector to ``r_i = sqrt(2 z_i)``, order preserved."""
    require_kind(rv, FamilyKind.LAGUERRE)
    return np.sqrt(2.0 * rv.roots)


def gap_statistics(rv: RootVector) -> GapStatistics:
    """Minimal consecutive gap and distances to the orthogonality boundary.

    ``min_gap`` is ``None`` for ``n = 1``; boundary distances are ``None``
    on sides where the orthogonality interval is unbounded.
    """
    roots = rv.roots
    min_gap = None if rv.n == 1 else float(rv.gaps.min())
    lo, hi = rv.family.spec.domain
    return GapStatistics(
        min_gap,
        float(roots.min() - lo) if math.isfinite(lo) else None,
        float(hi - roots.max()) if math.isfinite(hi) else None,
    )
