"""Ordered root vectors with Newton polishing.

``compute_roots_many`` takes the eigenvalues of each order's recurrence
matrix and polishes the roots of all its orders together: every Newton
step is one vectorized evaluation of the whole batch.  ``compute_roots``
is a batch of one.

Each family keeps its conventional ordering so that index-based formulas
downstream can be transcribed literally: Hermite and Laguerre roots are
stored descending (``z_1`` largest), Jacobi roots ascending (``z_1``
smallest).  The direction and the orthogonality interval come from the
family's ``FamilySpec`` row, and a ``RootVector`` rejects roots that are
not strictly ordered in that direction, so a flipped vector cannot pass
for its family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FamilyMismatchError, InternalConsistencyError
from .families import FamilyKind, PolynomialFamily, _evaluate_scaled, jacobi_matrix
from .eigensolve import _tridiag_eigenvalues_only

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class RootVector:
    """Ordered roots of ``P_n`` for one family, in the family's storage
    direction (``family.spec.ascending``) and inside its orthogonality
    interval.

    ``polish_skipped`` lists stored-order indices whose Newton refinement
    was rejected (the raw eigenvalue was kept instead).
    """

    family: PolynomialFamily
    n: int
    roots: np.ndarray
    polish_skipped: tuple[int, ...] = ()

    def __post_init__(self):
        roots = np.asarray(self.roots, dtype=float)
        object.__setattr__(self, "roots", roots)
        if roots.size != self.n:
            raise InternalConsistencyError(f"expected {self.n} roots, got {roots.size}")
        spec = self.family.spec
        diffs = np.diff(roots) if spec.ascending else -np.diff(roots)
        if np.any(diffs <= 0.0):
            order = "ascending" if spec.ascending else "descending"
            raise InternalConsistencyError(f"roots are not strictly {order}")
        lo, hi = spec.domain
        if np.any(roots <= lo) or np.any(roots >= hi):
            raise InternalConsistencyError(
                f"roots left the orthogonality interval ({lo}, {hi})"
            )
        roots.setflags(write=False)


@dataclass(frozen=True)
class SqrtRootVector:
    """Laguerre roots mapped to the scale ``r_i = sqrt(2 z_i)``, descending."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if np.any(values <= 0.0) or np.any(np.diff(values) >= 0.0):
            raise InternalConsistencyError("sqrt-scale roots must be positive and strictly descending")
        values.setflags(write=False)


class GapStatistics(NamedTuple):
    """``None`` marks an undefined statistic, not a zero or an infinity."""

    min_gap: float | None
    boundary_low: float | None
    boundary_high: float | None


_POLISH_STEPS = 3


def compute_roots(family: PolynomialFamily, n: int) -> RootVector:
    """Roots of ``P_n``: :func:`compute_roots_many` with one order."""
    return compute_roots_many(family, [n])[0]


def compute_roots_many(family: PolynomialFamily, orders) -> list[RootVector]:
    """Roots of ``P_n`` for each ``n`` in ``orders``, via the recurrence
    matrix plus Newton polishing.

    Each order's eigenvalues come from QL on its own recurrence matrix.
    Then every eigenvalue of every order gets up to three Newton steps, all
    of them polished together: each step evaluates the whole batch in one
    pass of the recurrence (``families._evaluate_scaled``).  A root stops
    at ``P_n = 0``, at a step that leaves it unchanged, or at a step of at
    most ``2 eps |x|``.  A derivative of 0 or a step that would leave the
    midpoint bracket around its eigenvalue (or the orthogonality interval)
    rejects the polish for that root and keeps the eigenvalue.
    """
    spec = family.spec
    orders = list(orders)
    eigs = [_tridiag_eigenvalues_only(jacobi_matrix(family, n)) for n in orders]
    if not eigs:
        return []
    # the n eigenvalues of each order, stacked in the order given
    raw = np.concatenate(eigs)
    degree = np.repeat(orders, orders)
    first = np.cumsum([0, *orders[:-1]])
    # midpoint brackets, with each order's outer ends at the domain ends
    mid = 0.5 * (raw[:-1] + raw[1:])
    lo, hi = np.append(np.nan, mid), np.append(mid, np.nan)
    lo[first] = spec.domain[0]
    hi[first + orders - 1] = spec.domain[1]

    x = raw.copy()
    rejected = np.zeros(raw.size, dtype=bool)
    live = np.arange(raw.size)
    for _ in range(_POLISH_STEPS):
        if not live.size:
            break
        current = x[live]
        p, dp, _ = _evaluate_scaled(family, degree[live], current)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = p / dp
        candidate = current - step
        inside = (lo[live] < candidate) & (candidate < hi[live])
        reject = (p != 0.0) & ((dp == 0.0) | ~inside)
        moved = (p != 0.0) & ~reject & (candidate != current)
        rejected[live[reject]] = True
        x[live[moved]] = candidate[moved]
        live = live[moved & (np.abs(step) > 2.0 * _EPS * np.abs(candidate))]
    x[rejected] = raw[rejected]

    vectors = []
    for n, start in zip(orders, first.tolist()):
        polished = x[start:start + n]
        skipped = np.flatnonzero(rejected[start:start + n]).tolist()
        if spec.ascending:
            roots = polished.copy()
            flags = tuple(skipped)
        else:
            roots = polished[::-1].copy()
            flags = tuple(sorted(n - 1 - i for i in skipped))
        vectors.append(RootVector(family, n, roots, flags))
    return vectors


def require_kind(z: RootVector, kind: FamilyKind) -> None:
    """Input check of the family-specific functions built on root vectors."""
    if z.family.kind is not kind:
        raise FamilyMismatchError(f"expected a {kind.value} root vector, got {z.family.kind.value}")


def to_sqrt_coordinates(rv: RootVector) -> SqrtRootVector:
    """Map a Laguerre root vector to ``r_i = sqrt(2 z_i)``, order preserved."""
    require_kind(rv, FamilyKind.LAGUERRE)
    return SqrtRootVector(np.sqrt(2.0 * rv.roots))


def gap_statistics(rv: RootVector) -> GapStatistics:
    """Minimal consecutive gap and distances to the orthogonality boundary.

    ``min_gap`` is ``None`` for ``n = 1``; boundary distances are ``None``
    on sides where the orthogonality interval is unbounded.
    """
    roots = rv.roots
    min_gap = None if rv.n == 1 else float(np.min(np.abs(np.diff(roots))))
    lo, hi = rv.family.spec.domain
    return GapStatistics(
        min_gap,
        float(roots.min() - lo) if math.isfinite(lo) else None,
        float(hi - roots.max()) if math.isfinite(hi) else None,
    )
