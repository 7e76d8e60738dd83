"""Inverse covariance matrices of the freezing-limit Gaussians.

For each family the matrix ``S_N`` is built entrywise from the roots of
``P_N`` with one pattern: the off-diagonal is

    ``s_ij = -sqrt(d_i d_j) / (z_i - z_j)^2``

with the weight ``d = 1, 4z, 4(1 - z^2)`` for Hermite, Laguerre and
Jacobi, and the diagonal is ``s_ii = shift + lin_i``, the family's shift
(``FamilySpec.shift``: 1 for Hermite and Laguerre, 0 for Jacobi) plus the
diagonal ``lin`` of ``S_N - shift I``:

* Hermite:   ``lin_i = sum_{l!=i} (z_i - z_l)^-2``; eigenvalues ``1, 2, ..., N``.
* Laguerre:  ``lin_i = nu/z_i + 2 sum_{l!=i} (z_i + z_l)/(z_i - z_l)^2``;
  eigenvalues ``2, 4, ..., 2N``.  An equivalent form on the scale
  ``r_i = sqrt(2 z_i)`` (:func:`laguerre_sqrt_r_S_stack`) must agree entrywise.
* Jacobi:    ``lin_i = 4 sum_{l!=i} (1 - z_i^2)/(z_i - z_l)^2
  + 2(alpha+1)(1+z_i)/(1-z_i) + 2(beta+1)(1-z_i)/(1+z_i)``; eigenvalues
  ``2j(2N + alpha + beta + 1 - j)``.

The two terms of each family, ``d`` and ``lin``, are one row of a
kind-keyed table that :func:`pair_terms` evaluates and
:func:`build_S_stack` and :func:`interaction_sums_stack` both read, so
each formula above is written once; a caller that needs both passes them
one evaluation.  The row sums of the squared off-diagonal are
``cross_i = sum_{l!=i} d_i d_l / (z_i - z_l)^4``, and ``lin**2 + cross``
is the diagonal of ``(S_N - shift I)^2``.

The Hermite and Laguerre ``N = 1`` matrices are the natural trivial
extensions ``[[1]]`` and ``[[2]]`` with spectra ``{1}`` and ``{2}``.

Every kernel here takes the root vectors of one order, of any families,
and works on their stacks: ``(P, n)`` roots and ``(P, n, n)`` matrices,
each kind's terms applied to its runs of consecutive rows, as views
(:func:`kind_runs` splits a group).  Each slice sees the IEEE operations
of the point alone: row sums run over the contiguous last axis and every
decision is taken per slice, so a point's values are bit for bit the
same in any stack.  The per-point names :func:`build_S`,
:func:`interaction_sums` and :func:`laguerre_sqrt_r_S` are stacks of one.

One rule stacks a batch of any orders, for ``verify`` and ``bounds``:
:func:`order_groups` groups it by order, at large orders a few points at
a time, so that no stack exceeds ``_STACK_ENTRIES`` (2**18) entries, and
:func:`bands` runs consecutive groups together up to that total.

The eigenvectors are known in closed form too: :func:`eigenbasis_stack`
builds them for one group, the Golub-Welsch eigenvectors of the family's
recurrence matrix, from its orthonormal polynomials at the roots.  An
:class:`OrthonormalBand` runs that recurrence once for a band of several
order groups, over all their roots, from one :func:`jacobi_matrix` per
distinct family at the band's largest order, and hands each group its
rows as a view of that pass; a point's basis is a band of one group of
one.
The spectra, and the shift under which the trace and diagonal-of-square
identities are stated, come from the family's ``FamilySpec`` row.
"""
from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from itertools import accumulate, groupby

import numpy as np

from .errors import SingularConfigurationError
from .eigensolve import DenseSymmetric
from .families import FamilyKind, PolynomialFamily, jacobi_matrix, orthonormal_polynomials
from .roots import RootVector, require_kind

_TINY = float(np.finfo(float).tiny)


def by_order(roots: Sequence[RootVector]) -> dict[int, list[int]]:
    """The indices of ``roots`` grouped by order, each group in order of
    first appearance, for the kernels below that take one order's points."""
    groups: dict[int, list[int]] = {}
    for i, rv in enumerate(roots):
        groups.setdefault(rv.n, []).append(i)
    return groups


# the most matrix entries of one (P, n, n) stack (2 MB of doubles): a
# caller holds several such stacks at once, so the points of a large order
# are taken a few at a time; each point's values do not depend on its
# group.  A band's stacks hold at most as many entries, unless it is one
# larger group, and its padded recurrence pass about 1.5 times as many
_STACK_ENTRIES = 1 << 18


def order_groups(roots: Sequence[RootVector]) -> Iterator[tuple[list[int], list[RootVector]]]:
    """The indices and root vectors of the points of each order, at large
    orders a few points at a time, so that no ``(P, n, n)`` stack exceeds
    ``_STACK_ENTRIES`` matrix entries."""
    for n, members in by_order(roots).items():
        size = max(1, _STACK_ENTRIES // (n * n))
        for start in range(0, len(members), size):
            indices = members[start:start + size]
            yield indices, [roots[i] for i in indices]


def bands(groups: list[tuple]) -> Iterator[list[tuple]]:
    """Runs of consecutive :func:`order_groups` items whose ``(P, n, n)``
    stacks total at most ``_STACK_ENTRIES`` entries, each group on its own
    if larger, of about equal totals: a band closes once it holds ``1 /
    ceil(total / _STACK_ENTRIES)`` of all the groups' entries.  A band's
    recurrence pass (:class:`OrthonormalBand`) lives beside each of its
    groups' stacks, so equal bands keep the largest pass, and the peak
    memory, as small as the fewest bands allow; padded to the band's
    largest order ``T``, it holds ``3T / (2T + 1) < 1.5`` times the stacks'
    entries for orders 1 to ``T`` of as many points each, and as many for
    one order."""
    sizes = [len(group) * group[0].n ** 2 for _, group in groups]
    share = sum(sizes) / math.ceil(sum(sizes) / _STACK_ENTRIES)
    band, entries = [], 0
    for group, size in zip(groups, sizes):
        if band and (entries >= share or entries + size > _STACK_ENTRIES):
            yield band
            band, entries = [], 0
        band.append(group)
        entries += size
    yield band


def kind_runs(group: Sequence[RootVector]) -> list[tuple[FamilyKind, slice]]:
    """The runs of consecutive root vectors of one kind in ``group``, in
    order, each as its kind and its slice of the group.  A sweep keeps each
    kind contiguous, so a group or a batch has a run per kind; the kernels
    below apply each kind's terms to its runs, as views of the group's
    stacks."""
    runs: list[tuple[FamilyKind, slice]] = []
    start = 0
    for kind, members in groupby(rv.family.kind for rv in group):
        end = start + sum(1 for _ in members)
        runs.append((kind, slice(start, end)))
        start = end
    return runs


def _fill_diagonal(matrices: np.ndarray, values) -> None:
    """``np.fill_diagonal`` of each matrix along the leading axes."""
    i = np.arange(matrices.shape[-1])
    matrices[..., i, i] = values


def _pair_differences(z: np.ndarray) -> np.ndarray:
    """Pairwise ``z_i - z_l`` along the last axis of ``z``, with the
    diagonal set to ``inf``; for ``(P, n)`` roots a ``(P, n, n)`` stack.

    The values of ``z`` are sorted along its last axis (roots in their
    storage order, or a monotone map of them such as ``sqrt(2 z)``), so two
    coincide only if two neighbours do, and only neighbours are compared.
    The infinite diagonal turns every self-interaction term into an exact
    zero, so row sums over ``l != i`` need no masking.
    """
    if np.any(z[..., 1:] == z[..., :-1]):
        raise SingularConfigurationError("coincident roots")
    diff = z[..., :, None] - z[..., None, :]
    _fill_diagonal(diff, math.inf)
    return diff


def _outer(v: np.ndarray) -> np.ndarray:
    """``np.outer(v, v)`` of each row of ``v``."""
    return v[..., :, None] * v[..., None, :]


def _jacobi_lin(z, d, inv2, alpha, beta):
    return (
        (d[..., :, None] * inv2).sum(axis=-1)
        + 2.0 * (alpha + 1.0) * (1.0 + z) / (1.0 - z)
        + 2.0 * (beta + 1.0) * (1.0 - z) / (1.0 + z)
    )


# Each family's weight d(z) and the diagonal lin(z, d, inv2, *parameters)
# of S_N - shift I, where inv2 = (z_i - z_l)^-2 with a zero diagonal; z
# holds the rows of one kind, each parameter a column of their values.
_TERMS = {
    FamilyKind.HERMITE: (np.ones_like, lambda z, d, inv2: inv2.sum(axis=-1)),
    FamilyKind.LAGUERRE: (
        lambda z: 4.0 * z,
        lambda z, d, inv2, nu: (
            nu / z + 2.0 * ((z[..., :, None] + z[..., None, :]) * inv2).sum(axis=-1)
        ),
    ),
    FamilyKind.JACOBI: (lambda z: 4.0 * (1.0 - z * z), _jacobi_lin),
}


def parameter_columns(points: Sequence[RootVector]) -> np.ndarray:
    """The family parameters of ``points``, all of one kind, as ``(P, 1)``
    columns in ``spec.params`` order, one per parameter."""
    return np.array([rv.family.parameters() for rv in points]).T[..., None]


def pair_terms(group: Sequence[RootVector]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(d, inv2, lin)`` for the root vectors of one order, stacked: ``d``
    and ``lin`` are ``(P, n)``, ``inv2`` is ``(P, n, n)``.  Each kind's
    terms are applied to each of its runs (:func:`kind_runs`).
    :func:`interaction_sums_stack` and :func:`build_S_stack` both read them."""
    z = np.stack([rv.roots for rv in group])
    diff = _pair_differences(z)
    inv2 = 1.0 / (diff * diff)
    d, lin = np.empty_like(z), np.empty_like(z)
    for kind, run in kind_runs(group):
        weight, diagonal = _TERMS[kind]
        d[run] = weight(z[run])
        lin[run] = diagonal(z[run], d[run], inv2[run], *parameter_columns(group[run]))
    return d, inv2, lin


def interaction_sums_stack(
    group: Sequence[RootVector], terms: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(lin, cross)`` for the root vectors of one order, as ``(P, n)``
    stacks: ``lin`` is the diagonal of the shifted ``S_N`` and ``cross``
    the row sums of its squared off-diagonal, so ``lin**2 + cross`` is the
    diagonal of its square.  ``terms`` is ``pair_terms(group)``, if the
    caller has it already."""
    d, inv2, lin = pair_terms(group) if terms is None else terms
    return lin, (_outer(d) * inv2 * inv2).sum(axis=-1)


def interaction_sums(z: RootVector) -> tuple[np.ndarray, np.ndarray]:
    """``(lin, cross)`` for ``z``: :func:`interaction_sums_stack` of one
    root vector."""
    lin, cross = interaction_sums_stack([z])
    return lin[0], cross[0]


def build_S_stack(group: Sequence[RootVector], terms: tuple | None = None) -> np.ndarray:
    """``S_N`` for each root vector of one order, as a ``(P, n, n)`` stack;
    the predicted spectrum of each is ``family.spec.spectrum(n,
    *family.parameters())``.  ``terms`` is ``pair_terms(group)``, if the
    caller has it already."""
    d, inv2, lin = pair_terms(group) if terms is None else terms
    matrices = -np.sqrt(_outer(d)) * inv2
    shifts = np.array([rv.family.spec.shift for rv in group])
    _fill_diagonal(matrices, shifts[:, None] + lin)
    return matrices


def build_S(z: RootVector) -> DenseSymmetric:
    """``S_N`` for ``z``: :func:`build_S_stack` of one root vector."""
    return DenseSymmetric(build_S_stack([z])[0])


def laguerre_sqrt_r_S_stack(group: Sequence[RootVector]) -> np.ndarray:
    """The Laguerre ``S_N`` of each root vector of one order written in
    ``r_i = sqrt(2 z_i)``, as a ``(P, n, n)`` stack, algebraically
    identical to :func:`build_S_stack` entry by entry:
    ``s_ij = 2 (r_i + r_j)^-2 - 2 (r_i - r_j)^-2`` and
    ``s_ii = 1 + 2 nu / r_i^2 + 2 sum_{l!=i} ((r_i - r_l)^-2 + (r_i + r_l)^-2)``."""
    for rv in group:
        require_kind(rv, FamilyKind.LAGUERRE)
    r = np.sqrt(2.0 * np.stack([rv.roots for rv in group]))
    nu = np.array([rv.family.parameters() for rv in group])
    dminus = _pair_differences(r)
    inv_minus = 1.0 / (dminus * dminus)
    dplus = r[..., :, None] + r[..., None, :]
    # an infinite diagonal, as in dminus: 1 / (2 r_i)^2 overflows once
    # z_i is below about 1e-309
    _fill_diagonal(dplus, math.inf)
    inv_plus = 1.0 / (dplus * dplus)
    # 2 (inv_plus - inv_minus) as one product, which does not cancel
    # when r_j / r_i is below rounding
    matrices = -8.0 * _outer(r) * inv_minus * inv_plus
    pair = inv_minus + inv_plus
    _fill_diagonal(matrices, 1.0 + 2.0 * nu / (r * r) + 2.0 * pair.sum(axis=-1))
    return matrices


def laguerre_sqrt_r_S(z: RootVector) -> DenseSymmetric:
    """The Laguerre ``S_N`` of ``z`` in ``r_i = sqrt(2 z_i)``:
    :func:`laguerre_sqrt_r_S_stack` of one root vector."""
    return DenseSymmetric(laguerre_sqrt_r_S_stack([z])[0])


# the second coordinate form of S_N of each kind that has one
COORDINATE_FORMS = {FamilyKind.LAGUERRE: laguerre_sqrt_r_S_stack}


class OrthonormalBand:
    """The orthonormal polynomials of the recurrence matrices of a band of
    order groups at their roots, from one pass of the recurrence over all
    the band's points (``families.orthonormal_polynomials``), run when a
    group's rows are first asked for.  ``groups`` are the band's groups,
    each the root vectors of one order.

    The pass reads the recurrence coefficients of the band's distinct
    families from one :func:`jacobi_matrix` each, at the band's largest
    order: each coefficient is a closed form of its index, so it has the
    same bits at any order that covers it.  The pass takes the band's
    entries, one per root, with the groups sorted by order, descending;
    each group's rows are a view of it, and the band drops it once each
    group has been served (a later call runs it anew), so it lives no
    longer than the last group's rows.
    """

    def __init__(self, groups: Sequence[Sequence[RootVector]]):
        self.groups = groups
        self._pass = None
        self._unserved = set(range(len(groups)))

    def _run(self) -> tuple:
        """``(rows, norm2, firsts)``: ``orthonormal_polynomials`` of the
        band's entries and the first entry of each group."""
        # a stable sort keeps the groups of one order in band order
        order = sorted(range(len(self.groups)), key=lambda g: -self.groups[g][0].n)
        groups = [self.groups[g] for g in order]
        ns = [group[0].n for group in groups]
        sizes = [len(group) * n for group, n in zip(groups, ns)]
        firsts = dict(zip(order, accumulate(sizes, initial=0)))
        points = [rv for group in groups for rv in group]
        # each family's column holds (a, b) with b_0 = 0 in front of the off-diagonal
        families: dict[PolynomialFamily, int] = {}
        columns = [families.setdefault(rv.family, len(families)) for rv in points]
        table = np.zeros((2, len(families), ns[0]))
        for f, family in enumerate(families):
            t = jacobi_matrix(family, ns[0])
            table[0, f], table[1, f, 1:] = t.diag, t.offdiag
        x = np.concatenate([rv.roots for rv in points])
        which = np.repeat(columns, [rv.n for rv in points])
        return (*orthonormal_polynomials(table, which, np.repeat(ns, sizes), x), firsts)

    def rows(self, g: int) -> tuple[np.ndarray, np.ndarray]:
        """``(rows, norm2)`` of group ``g``, ``(P, n, n)`` and ``(P, n)``
        views of the band's pass: ``rows[:, n - 1 - k]`` holds ``p_k`` at
        the roots of each point, and ``norm2`` the sum of their squares."""
        rows, norm2, firsts = self._pass = self._pass or self._run()
        self._unserved.discard(g)
        if not self._unserved:
            self._pass = None
        points, n = len(self.groups[g]), self.groups[g][0].n
        first, stop = firsts[g], firsts[g] + points * n
        # the pass's last n rows hold p_{n-1} .. p_0 of the group's entries
        view = rows[len(rows) - n:, first:stop].reshape(n, points, n).transpose(1, 0, 2)
        return view, norm2[first:stop].reshape(points, n)


def eigenbasis_stack(rows: np.ndarray, norm2: np.ndarray) -> np.ndarray:
    """The closed-form eigenvectors of ``S_N`` for each root vector of an
    order group, from its ``(rows, norm2)`` (:meth:`OrthonormalBand.rows`),
    which it only reads: a ``(P, n, n)`` stack of orthonormal matrices,
    their columns in ascending eigenvalue order.

    With ``p_k`` the family's orthonormal polynomials, its recurrence
    matrix is ``T_N = U diag(z) U^T``, ``U[k, i] = p_k(z_i) / ||p(z_i)||``
    and ``||p(z_i)||^2 = sum_{k<N} p_k(z_i)^2`` (Golub & Welsch, Math.
    Comp. 23, 1969).  Column ``j`` of the basis is ``s_i p_{N-1-j}(z_i) /
    ||p(z_i)||``, its rows in storage order and ``s_i`` the sign of
    ``p_{N-1}(z_i)``, nonzero by interlacing, so the first column is
    positive, proportional to ``1``, ``sqrt(z)`` or ``sqrt(1 - z^2)``
    (Ahmed, Bruschi, Calogero, Olshanetsky & Perelomov, Nuovo Cimento B
    49, 1979).  One Newton-Schulz polar step ``Q (3I - Q^T Q) / 2`` makes
    the columns, orthonormal to the accuracy of the roots, orthonormal to
    rounding.  Every operation is elementwise or a slice's own BLAS call,
    which reads a band's rows with its leading dimension and the same
    values, so a point's basis is bit for bit the same in any band.
    """
    # rows[:, n - 1 - k] holds p_k at the roots: the basis, transposed
    n = rows.shape[1]
    rows = rows / np.copysign(np.sqrt(norm2), rows[:, 0])[:, None, :]
    basis = rows.transpose(0, 2, 1).copy()
    # Q^T Q of two operands, so that numpy runs gemm, as the enclosure
    # does, and not syrk, whose first call alone raises the peak memory
    gram = rows @ basis
    del rows
    gram *= -1.0
    gram[:, np.arange(n), np.arange(n)] += 3.0
    basis = basis @ gram
    basis *= 0.5
    return basis


def diag_square_residual(matrices: np.ndarray, shifts: np.ndarray, closed_route: np.ndarray) -> np.ndarray:
    """For each matrix of the ``(P, n, n)`` stack ``matrices``, the worst
    relative disagreement between the diagonal of ``(matrix - shift I)^2``,
    squared explicitly, and its row of ``closed_route``; ``shifts`` holds
    one shift per matrix.

    Never raises, so a deliberately perturbed matrix yields a failing
    value instead of an error.
    """
    shifted = matrices - shifts[:, None, None] * np.eye(matrices.shape[-1])
    matrix_route = (shifted * shifted).sum(axis=-1)
    scale = np.maximum(np.maximum(np.abs(matrix_route), np.abs(closed_route)), _TINY)
    return np.max(np.abs(matrix_route - closed_route) / scale, axis=-1)
