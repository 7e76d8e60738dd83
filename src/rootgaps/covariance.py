"""Inverse covariance matrices of the freezing-limit Gaussians.

For each family the matrix ``S_N`` is built entrywise from the roots of
``P_N`` and carries a closed-form spectrum:

* Hermite:   ``s_ii = 1 + sum_{l!=i} (z_i - z_l)^-2``,
  ``s_ij = -(z_i - z_j)^-2``; eigenvalues ``1, 2, ..., N``.
* Laguerre:  ``s_ii = 1 + nu/z_i + 2 sum_{l!=i} (z_i + z_l)/(z_i - z_l)^2``,
  ``s_ij = -4 sqrt(z_i z_j)/(z_i - z_j)^2``; eigenvalues ``2, 4, ..., 2N``.
  An equivalent form on the scale ``r_i = sqrt(2 z_i)`` is available and
  must agree entrywise.
* Jacobi:    ``s_ii = 4 sum_{l!=i} (1 - z_i^2)/(z_i - z_l)^2
  + 2(alpha+1)(1+z_i)/(1-z_i) + 2(beta+1)(1-z_i)/(1+z_i)``,
  ``s_ij = -4 sqrt((1-z_i^2)(1-z_j^2))/(z_i - z_j)^2``; eigenvalues
  ``2j(2N + alpha + beta + 1 - j)``.

The Hermite and Laguerre ``N = 1`` matrices are the natural trivial
extensions ``[[1]]`` and ``[[2]]`` with spectra ``{1}`` and ``{2}``.

The eigenvectors are known in closed form too; :func:`eigenbasis` builds
them from the roots of a whole batch of points, one Lanczos per order,
each point's basis independent of the batch; a last column that the
Lanczos loses to rounding is taken from the complement of the others.

The spectra, and the shift (``I`` for Hermite and Laguerre, none for
Jacobi) under which the trace and diagonal-of-square identities are
stated, come from the family's ``FamilySpec`` row.  :func:`build_S` and
:func:`interaction_sums` reach the per-family builders and sums through
one kind-keyed table.

A builder returns an :class:`InverseCovariance`: the roots, the matrix and
the read-only predicted spectrum.  Its family and ``N`` are those of the
roots, which ``RootVector`` keeps inside the orthogonality interval.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterDomainError, SingularConfigurationError
from .eigensolve import DenseSymmetric
from .families import FamilyKind
from .roots import RootVector, require_kind, to_sqrt_coordinates

_TINY = float(np.finfo(float).tiny)
_SQRT_EPS = math.sqrt(float(np.finfo(float).eps))


class CoordinateForm(Enum):
    Z = "z"
    SQRT_R = "sqrt-r"


@dataclass(frozen=True)
class InverseCovariance:
    """``S_N``, the roots it was built from, and its read-only predicted spectrum."""

    roots: RootVector
    matrix: DenseSymmetric
    predicted: np.ndarray


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


def hermite_interaction_sums(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums ``sum_{l!=i} (z_i-z_l)^-2`` and ``sum_{l!=i} (z_i-z_l)^-4``."""
    diff = _pair_differences(np.asarray(z, dtype=float))
    inv2 = 1.0 / (diff * diff)
    return inv2.sum(axis=1), (inv2 * inv2).sum(axis=1)


def laguerre_interaction_sums(z: np.ndarray, nu: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal of ``S_N - I`` and row sums of its squared off-diagonal.

    Returns ``(lin, cross)`` with
    ``lin_i = nu/z_i + 2 sum_{l!=i} (z_i+z_l)/(z_i-z_l)^2`` and
    ``cross_i = 16 sum_{l!=i} z_i z_l / (z_i-z_l)^4``.
    """
    z = np.asarray(z, dtype=float)
    diff = _pair_differences(z)
    inv2 = 1.0 / (diff * diff)
    lin = nu / z + 2.0 * ((z[:, None] + z[None, :]) * inv2).sum(axis=1)
    cross = 16.0 * (np.outer(z, z) * inv2 * inv2).sum(axis=1)
    return lin, cross


def jacobi_interaction_sums(
    z: np.ndarray, alpha: float, beta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal of the Jacobi ``S_N`` and row sums of its squared off-diagonal."""
    z = np.asarray(z, dtype=float)
    diff = _pair_differences(z)
    w = 1.0 - z * z
    inv2 = 1.0 / (diff * diff)
    lin = (
        4.0 * (w[:, None] * inv2).sum(axis=1)
        + 2.0 * (alpha + 1.0) * (1.0 + z) / (1.0 - z)
        + 2.0 * (beta + 1.0) * (1.0 - z) / (1.0 + z)
    )
    cross = 16.0 * (np.outer(w, w) * inv2 * inv2).sum(axis=1)
    return lin, cross


def _inverse_covariance(z: RootVector, matrix: np.ndarray) -> InverseCovariance:
    """Wrap an ``S_N`` ``matrix`` with the predicted spectrum of ``z``'s family."""
    predicted = z.family.spec.spectrum(z.family, z.n)
    predicted.setflags(write=False)
    return InverseCovariance(z, DenseSymmetric(matrix), predicted)


def hermite_S(z: RootVector) -> InverseCovariance:
    """Hermite inverse covariance with predicted spectrum ``1..N``."""
    require_kind(z, FamilyKind.HERMITE)
    diff = _pair_differences(z.roots)
    inv2 = 1.0 / (diff * diff)
    matrix = -inv2
    np.fill_diagonal(matrix, 1.0 + inv2.sum(axis=1))
    return _inverse_covariance(z, matrix)


def laguerre_S(z: RootVector, coordinate: CoordinateForm = CoordinateForm.Z) -> InverseCovariance:
    """Laguerre inverse covariance with predicted spectrum ``2, 4, ..., 2N``.

    ``coordinate`` selects the entry formulas: ``Z`` writes them in the
    roots themselves, ``SQRT_R`` in ``r_i = sqrt(2 z_i)``.  The two forms
    are algebraically identical entry by entry.
    """
    require_kind(z, FamilyKind.LAGUERRE)
    if not isinstance(coordinate, CoordinateForm):
        raise ParameterDomainError(f"unknown coordinate form {coordinate!r}")
    nu = float(z.family.nu)
    roots = z.roots
    if coordinate is CoordinateForm.Z:
        diff = _pair_differences(roots)
        inv2 = 1.0 / (diff * diff)
        matrix = -4.0 * np.sqrt(np.outer(roots, roots)) * inv2
        np.fill_diagonal(
            matrix, 1.0 + nu / roots + 2.0 * ((roots[:, None] + roots[None, :]) * inv2).sum(axis=1)
        )
    else:
        r = to_sqrt_coordinates(z)
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
    return _inverse_covariance(z, matrix)


def jacobi_S(z: RootVector) -> InverseCovariance:
    """Jacobi inverse covariance with spectrum ``2j(2N+alpha+beta+1-j)``."""
    require_kind(z, FamilyKind.JACOBI)
    alpha, beta = float(z.family.alpha), float(z.family.beta)
    roots = z.roots
    diff = _pair_differences(roots)
    inv2 = 1.0 / (diff * diff)
    w = 1.0 - roots * roots
    matrix = -4.0 * np.sqrt(np.outer(w, w)) * inv2
    np.fill_diagonal(
        matrix,
        4.0 * (w[:, None] * inv2).sum(axis=1)
        + 2.0 * (alpha + 1.0) * (1.0 + roots) / (1.0 - roots)
        + 2.0 * (beta + 1.0) * (1.0 - roots) / (1.0 + roots),
    )
    return _inverse_covariance(z, matrix)


# Per-family interaction sums and S_N builder, keyed by kind; every higher
# layer reaches them through interaction_sums and build_S.
_ROUTES = {
    FamilyKind.HERMITE: (hermite_interaction_sums, hermite_S),
    FamilyKind.LAGUERRE: (laguerre_interaction_sums, laguerre_S),
    FamilyKind.JACOBI: (jacobi_interaction_sums, jacobi_S),
}


def interaction_sums(z: RootVector) -> tuple[np.ndarray, np.ndarray]:
    """``(lin, cross)`` for the family of ``z``: ``lin`` is the diagonal of
    the shifted ``S_N`` and ``cross`` the row sums of its squared
    off-diagonal, so ``lin**2 + cross`` is the diagonal of its square."""
    return _ROUTES[z.family.kind][0](z.roots, *z.family.parameters())


def build_S(z: RootVector) -> InverseCovariance:
    """``S_N`` for the family of ``z`` in its default coordinate form."""
    return _ROUTES[z.family.kind][1](z)


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
