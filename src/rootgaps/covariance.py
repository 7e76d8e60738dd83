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
  ``r_i = sqrt(2 z_i)`` (:func:`laguerre_sqrt_r_S`) must agree entrywise.
* Jacobi:    ``lin_i = 4 sum_{l!=i} (1 - z_i^2)/(z_i - z_l)^2
  + 2(alpha+1)(1+z_i)/(1-z_i) + 2(beta+1)(1-z_i)/(1+z_i)``; eigenvalues
  ``2j(2N + alpha + beta + 1 - j)``.

The two terms of each family, ``d`` and ``lin``, are one row of a
kind-keyed table that :func:`pair_terms` evaluates and :func:`build_S`
and :func:`interaction_sums` both read, so each formula above is written
once; a caller that needs both passes them one evaluation.  The row sums of the squared
off-diagonal are ``cross_i = sum_{l!=i} d_i d_l / (z_i - z_l)^4``, and
``lin**2 + cross`` is the diagonal of ``(S_N - shift I)^2``.

The Hermite and Laguerre ``N = 1`` matrices are the natural trivial
extensions ``[[1]]`` and ``[[2]]`` with spectra ``{1}`` and ``{2}``.

The eigenvectors are known in closed form too; :func:`eigenbasis` builds
them from the roots of a whole batch of points, one Lanczos per order,
each point's basis independent of the batch; a last column that the
Lanczos loses to rounding is taken from the complement of the others.
The spectra, and the shift under which the trace and diagonal-of-square
identities are stated, come from the family's ``FamilySpec`` row.
"""
from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .errors import SingularConfigurationError
from .eigensolve import DenseSymmetric
from .families import FamilyKind
from .roots import RootVector, to_sqrt_coordinates

_TINY = float(np.finfo(float).tiny)
_SQRT_EPS = math.sqrt(float(np.finfo(float).eps))


def _pair_differences(z: np.ndarray) -> np.ndarray:
    """Pairwise ``z_i - z_l`` with the diagonal set to ``inf``.

    The infinite diagonal turns every self-interaction term into an exact
    zero, so row sums over ``l != i`` need no masking.
    """
    diff = z[:, None] - z[None, :]
    if np.any((diff == 0.0) & ~np.eye(z.size, dtype=bool)):
        raise SingularConfigurationError("coincident roots")
    np.fill_diagonal(diff, math.inf)
    return diff


def _jacobi_lin(z, d, inv2, alpha, beta):
    return (
        (d[:, None] * inv2).sum(axis=1)
        + 2.0 * (alpha + 1.0) * (1.0 + z) / (1.0 - z)
        + 2.0 * (beta + 1.0) * (1.0 - z) / (1.0 + z)
    )


# Each family's weight d(z) and the diagonal lin(z, d, inv2, *parameters)
# of S_N - shift I, where inv2 = (z_i - z_l)^-2 with a zero diagonal.
_TERMS = {
    FamilyKind.HERMITE: (np.ones_like, lambda z, d, inv2: inv2.sum(axis=1)),
    FamilyKind.LAGUERRE: (
        lambda z: 4.0 * z,
        lambda z, d, inv2, nu: nu / z + 2.0 * ((z[:, None] + z[None, :]) * inv2).sum(axis=1),
    ),
    FamilyKind.JACOBI: (lambda z: 4.0 * (1.0 - z * z), _jacobi_lin),
}


def pair_terms(z: RootVector) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(d, inv2, lin)`` for the family of ``z``, which
    :func:`interaction_sums` and :func:`build_S` both read."""
    weight, lin = _TERMS[z.family.kind]
    roots = z.roots
    diff = _pair_differences(roots)
    inv2 = 1.0 / (diff * diff)
    d = weight(roots)
    return d, inv2, lin(roots, d, inv2, *z.family.parameters())


def interaction_sums(z: RootVector, terms: tuple | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``(lin, cross)`` for the family of ``z``: ``lin`` is the diagonal of
    the shifted ``S_N`` and ``cross`` the row sums of its squared
    off-diagonal, so ``lin**2 + cross`` is the diagonal of its square.
    ``terms`` is ``pair_terms(z)``, if the caller has it already."""
    d, inv2, lin = pair_terms(z) if terms is None else terms
    return lin, (np.outer(d, d) * inv2 * inv2).sum(axis=1)


def build_S(z: RootVector, terms: tuple | None = None) -> DenseSymmetric:
    """``S_N`` for the family of ``z``; its predicted spectrum is
    ``z.family.spec.spectrum(z.family, z.n)``.  ``terms`` is
    ``pair_terms(z)``, if the caller has it already."""
    d, inv2, lin = pair_terms(z) if terms is None else terms
    matrix = -np.sqrt(np.outer(d, d)) * inv2
    np.fill_diagonal(matrix, z.family.spec.shift + lin)
    return DenseSymmetric(matrix)


def laguerre_sqrt_r_S(z: RootVector) -> DenseSymmetric:
    """The Laguerre ``S_N`` written in ``r_i = sqrt(2 z_i)``, algebraically
    identical to :func:`build_S` entry by entry:
    ``s_ij = 2 (r_i + r_j)^-2 - 2 (r_i - r_j)^-2`` and
    ``s_ii = 1 + 2 nu / r_i^2 + 2 sum_{l!=i} ((r_i - r_l)^-2 + (r_i + r_l)^-2)``."""
    r = to_sqrt_coordinates(z)
    (nu,) = z.family.parameters()
    dminus = _pair_differences(r)
    inv_minus = 1.0 / (dminus * dminus)
    dplus = r[:, None] + r[None, :]
    inv_plus = 1.0 / (dplus * dplus)
    # 2 (inv_plus - inv_minus) as one product, which does not cancel
    # when r_j / r_i is below rounding
    matrix = -8.0 * np.outer(r, r) * inv_minus * inv_plus
    pair = inv_minus + inv_plus
    np.fill_diagonal(pair, 0.0)
    np.fill_diagonal(matrix, 1.0 + 2.0 * nu / (r * r) + 2.0 * pair.sum(axis=1))
    return DenseSymmetric(matrix)


def eigenbasis(roots: Sequence[RootVector]) -> list[np.ndarray]:
    """The closed-form eigenvectors of ``S_N`` for each root vector in
    ``roots``, in order: for each, the columns of an orthonormal matrix in
    ascending eigenvalue order.

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

    The points are grouped by order and each group runs one Lanczos, every
    product a stacked ``np.matmul`` over the group.  Each slice of a
    stacked product is the same BLAS call on the same operands as a lone
    point's, and every decision is made per point, so a point's basis is
    bit for bit the same in any batch.
    """
    roots = list(roots)
    bases = [None] * len(roots)
    groups: dict[int, list[int]] = {}
    for i, rv in enumerate(roots):
        groups.setdefault(rv.n, []).append(i)
    for n, members in groups.items():
        rows = _lanczos(
            np.stack([roots[i].roots for i in members]),
            np.stack([roots[i].family.spec.omega(roots[i].roots) for i in members]),
        )
        for i, slice_ in zip(members, rows):
            bases[i] = slice_.T
    return bases


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


def diag_square_residual(matrix: np.ndarray, shift: float, closed_route: np.ndarray) -> float:
    """Worst relative disagreement between the diagonal of
    ``(matrix - shift I)^2``, squared explicitly, and ``closed_route``.

    Never raises, so a deliberately perturbed ``matrix`` yields a failing
    value instead of an error.
    """
    shifted = matrix - shift * np.eye(matrix.shape[0])
    matrix_route = (shifted * shifted).sum(axis=1)
    scale = np.maximum(np.maximum(np.abs(matrix_route), np.abs(closed_route)), _TINY)
    return float(np.max(np.abs(matrix_route - closed_route) / scale))
