"""Self-contained symmetric eigensolvers.

Tridiagonal matrices are diagonalized by implicit-shift QL with Wilkinson
shifts.  Dense symmetric matrices are first reduced to tridiagonal form by
Householder reflections and then handed to the same QL core; this variant
was chosen over cyclic Jacobi sweeps because the reduction vectorizes
cleanly while sharing the well-tested tridiagonal kernel.

Both solvers accumulate eigenvectors so the reported ``residual`` is an
honest backward-error measure, ``max_i ||A v_i - lambda_i v_i||_2``
scaled by the Frobenius norm of ``A``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    EmptyProblemError,
    InternalConsistencyError,
    MagnitudeError,
    ParameterDomainError,
)
from .families import SymTridiagonal

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class DenseSymmetric:
    """Dense symmetric matrix, stored fully and validated exactly.

    Symmetry is required bit-for-bit; builders are expected to write both
    triangles from the same expression.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ParameterDomainError(f"expected a square matrix, got shape {entries.shape}")
        if entries.shape[0] == 0:
            raise EmptyProblemError("empty matrix")
        if not np.all(np.isfinite(entries)):
            raise ParameterDomainError("matrix entries must be finite")
        if not np.array_equal(entries, entries.T):
            raise ParameterDomainError("matrix is not symmetric")
        entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in ascending order plus a backward-error residual."""

    eigenvalues: np.ndarray
    residual: float

    def __post_init__(self):
        eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        if np.any(np.diff(eigenvalues) < 0.0):
            raise ParameterDomainError("eigenvalues must be ascending")
        if not (self.residual >= 0.0):
            raise ParameterDomainError("residual must be nonnegative")
        eigenvalues.setflags(write=False)


def _ql_implicit(
    d: np.ndarray,
    e: np.ndarray,
    vectors: np.ndarray | None = None,
    max_sweeps: int | None = None,
) -> None:
    """Implicit-shift QL, in place on ``d`` (length n) and ``e`` (length n).

    ``e[i]`` couples ``d[i]`` and ``d[i+1]``; ``e[n-1]`` is scratch.  When
    ``vectors`` is given, its columns are rotated along, so that on return
    ``A = V diag(d) V^T``.  An off-diagonal entry is treated as negligible
    when ``|e[i]| <= eps * (|d[i]| + |d[i+1]|)``.
    """
    n = d.size
    cap = 50 * n if max_sweeps is None else max_sweeps
    sweeps = 0
    for l in range(n):
        while True:
            for m in range(l, n - 1):
                if abs(e[m]) <= _EPS * (abs(d[m]) + abs(d[m + 1])):
                    break
            else:
                m = n - 1
            if m == l:
                break
            sweeps += 1
            if sweeps > cap:
                raise ConvergenceError(
                    f"QL iteration exceeded {cap} sweeps while deflating index {l}",
                    stuck_index=l,
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # underflow in the rotation chain; recover and restart
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                if vectors is not None:
                    col = vectors[:, i].copy()
                    nxt = vectors[:, i + 1].copy()
                    vectors[:, i + 1] = s * col + c * nxt
                    vectors[:, i] = c * col - s * nxt
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0


def _tridiag_eigenvalues_only(t: SymTridiagonal) -> np.ndarray:
    """Ascending eigenvalues without eigenvector accumulation (fast path)."""
    d = t.diag.copy()
    e = np.append(t.offdiag, 0.0)
    _ql_implicit(d, e)
    d.sort()
    return d


def _diagonalize(
    matrix: np.ndarray, d: np.ndarray, sub: np.ndarray, vectors: np.ndarray, scale: float
) -> Spectrum:
    """Shared tail of both solvers: QL on the tridiagonal form ``(d, sub)``
    of ``matrix`` with ``vectors`` rotated along, the residual, and a trace
    check to ``1e-12 (n scale + 1)``.  Each caller passes its own ``scale``
    (``max|diag|`` tridiagonal, ``max|entries|`` dense), so the tridiagonal
    check is not loosened by its off-diagonal entries."""
    _ql_implicit(d, np.append(sub, 0.0), vectors)
    order = np.argsort(d, kind="stable")
    lam = d[order]
    vectors = vectors[:, order]
    defect = matrix @ vectors - vectors * lam
    worst = math.sqrt(float(np.max(np.sum(defect * defect, axis=0))))
    residual = worst / max(math.sqrt(float(np.sum(matrix * matrix))), _EPS)
    tol = 1e-12 * (d.size * scale + 1.0)
    if abs(float(np.sum(lam)) - float(np.trace(matrix))) > tol:
        raise InternalConsistencyError(
            f"eigenvalue sum differs from trace by more than {tol:.3e}"
        )
    return Spectrum(lam, residual)


def tridiag_eigenvalues(t: SymTridiagonal) -> Spectrum:
    """All eigenvalues of a symmetric tridiagonal matrix, ascending."""
    scale = float(np.max(np.abs(t.diag), initial=0.0))
    return _diagonalize(t.to_dense(), t.diag.copy(), t.offdiag, np.eye(t.n), scale)


def _householder_tridiag(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reduce a symmetric matrix to tridiagonal ``Q^T A Q``.

    Returns ``(d, e, Q)`` with ``Q`` orthogonal and ``d, e`` the diagonal
    and subdiagonal of the reduced matrix.
    """
    n = matrix.shape[0]
    a = matrix.copy()
    q = np.eye(n)
    for k in range(n - 2):
        x = a[k + 1 :, k].copy()
        norm_x = math.sqrt(float(np.dot(x, x)))
        if norm_x == 0.0:
            continue
        alpha = -math.copysign(norm_x, x[0]) if x[0] != 0.0 else -norm_x
        v = x
        v[0] -= alpha
        vnorm2 = float(np.dot(v, v))
        if vnorm2 == 0.0:
            continue
        p = a[k + 1 :, k + 1 :] @ v * (2.0 / vnorm2)
        kappa = float(np.dot(v, p)) / vnorm2
        w = p - kappa * v
        a[k + 1 :, k + 1 :] -= np.outer(w, v) + np.outer(v, w)
        a[k + 1, k] = alpha
        a[k, k + 1] = alpha
        a[k + 2 :, k] = 0.0
        a[k, k + 2 :] = 0.0
        q[:, k + 1 :] -= np.outer(q[:, k + 1 :] @ v, v) * (2.0 / vnorm2)
    return np.diag(a).copy(), np.diag(a, -1).copy(), q


def dense_eigenvalues(m: DenseSymmetric) -> Spectrum:
    """All eigenvalues of a dense symmetric matrix, ascending.

    Householder reduction to tridiagonal form followed by implicit QL.
    """
    d, sub, q = _householder_tridiag(m.entries)
    return _diagonalize(m.entries, d, sub, q, float(np.max(np.abs(m.entries))))


def trace_power(m: DenseSymmetric, k: int) -> float:
    """Trace of ``m**k`` by repeated matrix multiplication.

    Deliberately avoids the spectral route so the result can be checked
    against eigenvalue power sums.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ParameterDomainError(f"power must be a positive integer, got {k!r}")
    result: np.ndarray | None = None
    base = m.entries
    remaining = int(k)
    with np.errstate(over="ignore", invalid="ignore"):
        while remaining:
            if remaining & 1:
                result = base if result is None else result @ base
            remaining >>= 1
            if remaining:
                base = base @ base
    assert result is not None
    trace = float(np.trace(result))
    if not np.all(np.isfinite(result)) or not math.isfinite(trace):
        raise MagnitudeError(f"tr(m**{k}) overflows the floating-point range")
    return trace
