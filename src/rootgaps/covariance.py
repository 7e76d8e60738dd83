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
(:func:`by_order` groups a batch, :func:`kind_runs` splits a group).
Each slice sees the IEEE operations of the point alone: row sums run
over the contiguous last axis and every decision is taken per slice, so
a point's values are bit for bit the same in any stack.  The
per-point names :func:`build_S`, :func:`interaction_sums` and
:func:`laguerre_sqrt_r_S` are stacks of one.

The eigenvectors are known in closed form too; :func:`eigenbasis_stack`
builds them with one Lanczos per order (a point's basis is a stack of
one); a last column that the Lanczos loses to rounding is taken from the
complement of the others.
The spectra, and the shift under which the trace and diagonal-of-square
identities are stated, come from the family's ``FamilySpec`` row.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import groupby

import numpy as np

from .errors import SingularConfigurationError
from .eigensolve import DenseSymmetric
from .families import FamilyKind
from .roots import RootVector, require_kind

_TINY = float(np.finfo(float).tiny)
_SQRT_EPS = math.sqrt(float(np.finfo(float).eps))


def by_order(roots: Sequence[RootVector]) -> dict[int, list[int]]:
    """The indices of ``roots`` grouped by order, each group in order of
    first appearance, for the kernels below that take one order's points."""
    groups: dict[int, list[int]] = {}
    for i, rv in enumerate(roots):
        groups.setdefault(rv.n, []).append(i)
    return groups


def kind_runs(group: Sequence[RootVector]) -> list[tuple[FamilyKind, slice]]:
    """The runs of consecutive root vectors of one kind in ``group``, in
    order, each as its kind and its slice of the group.  A sweep keeps each
    kind contiguous within an order, so a group has a run per kind; the
    kernels below apply each kind's terms to its runs, as views of the
    group's stacks."""
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
        parameters = np.array([rv.family.parameters() for rv in group[run]]).T[..., None]
        d[run] = weight(z[run])
        lin[run] = diagonal(z[run], d[run], inv2[run], *parameters)
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
    the predicted spectrum of each is ``family.spec.spectrum(family, n)``.
    ``terms`` is ``pair_terms(group)``, if the caller has it already."""
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


def eigenbasis_stack(group: Sequence[RootVector]) -> np.ndarray:
    """The closed-form eigenvectors of ``S_N`` for each root vector of one
    order, as a ``(P, n, n)`` stack: for each, the columns of an
    orthonormal matrix in ascending eigenvalue order.

    The k-th is ``(omega(z_i) q_{k-1}(z_i))_i``, where ``q_0, q_1, ...``
    are the polynomials orthonormal on the roots with weights
    ``omega(z_i)^2`` and ``omega`` (``FamilySpec.omega``) is ``1``,
    ``sqrt(z)`` and ``sqrt(1 - z^2)`` for Hermite, Laguerre and Jacobi
    (Ahmed, Bruschi, Calogero, Olshanetsky & Perelomov, Nuovo Cimento B 49,
    1979).  They come from Lanczos on ``diag(z)`` from the start vector
    ``omega(z)``: column k is ``z`` times column ``k - 1``, orthogonalized
    against the earlier columns by classical Gram-Schmidt run twice, which
    keeps them orthonormal to rounding, then normalized.

    When ``omega`` spans many decades (Laguerre with a tiny ``nu``), the
    last column can lose all but rounding of ``z`` times the one before:
    if Gram-Schmidt leaves less than ``sqrt(eps)`` of its norm, the last
    column is taken from the orthogonal complement of the others instead,
    starting from the coordinate vector least represented in them.

    The group runs one Lanczos, every product a stacked ``np.matmul``.
    Each slice of a stacked product is the same BLAS call on the same
    operands as a lone point's, and every decision is made per point, so
    a point's basis is bit for bit the same in any batch.
    """
    z = np.stack([rv.roots for rv in group])
    omega = np.empty_like(z)
    for _, run in kind_runs(group):
        omega[run] = group[run.start].family.spec.omega(z[run])
    return _lanczos(z, omega).transpose(0, 2, 1)


def _lanczos(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Orthonormal Lanczos rows on ``diag(x[p])`` from ``v[p]``, for each
    row ``p`` of the ``(P, n)`` arrays, as a ``(P, n, n)`` array.  The
    vectors are ``(P, n, 1)`` stacks of columns, so each product is one
    stacked matmul."""
    count, n = x.shape
    rows = np.empty((count, n, n))
    x, v = x[:, :, None], v[:, :, None]
    for k in range(n):
        if k:
            w = x * rows[:, k - 1, :, None]
            done = rows[:, :k]
            v = w - _project(done, w)
            v -= _project(done, v)
            if k == n - 1:
                lost = _norms(v)[:, 0, 0] < _SQRT_EPS * _norms(w)[:, 0, 0]
                if lost.any():
                    v[lost] = _complement(done[lost])
        np.divide(v, _norms(v), out=rows[:, k, :, None])
    return rows


def _project(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The component of each column ``v[p]`` in the span of the
    orthonormal rows ``rows[p]``: ``rows[p].T @ (rows[p] @ v[p])``."""
    return rows.transpose(0, 2, 1) @ (rows @ v)


def _norms(v: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each column ``v[p]``, each from one dot
    product, as a ``(P, 1, 1)`` array."""
    return np.sqrt(v.transpose(0, 2, 1) @ v)


def _complement(rows: np.ndarray) -> np.ndarray:
    """For each stack of ``n - 1`` orthonormal rows of length ``n``, a
    column orthogonal to them, not yet normalized: the coordinate vector
    least represented in them, orthogonalized twice."""
    count, _, n = rows.shape
    v = np.zeros((count, n, 1))
    v[np.arange(count), np.argmin((rows * rows).sum(axis=1), axis=1), 0] = 1.0
    v -= _project(rows, v)
    v -= _project(rows, v)
    return v


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
