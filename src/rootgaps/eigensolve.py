"""Dense symmetric matrices, a residual eigenvalue enclosure and trace powers.

No eigensolver lives here.  Polynomial roots come from Sturm bisection
and Newton polish in ``roots``, and the spectrum of ``S_N`` is known in
closed form (``FamilySpec.spectrum``).  ``enclose_eigenvalues`` checks
matrices against such spectra: it encloses the eigenvalues of each matrix
of a ``(P, n, n)`` stack from approximate eigenvectors, without a solve.
``check_symmetric`` is the one check of a ``DenseSymmetric`` and of each
slice of such a stack.  ``trace_power`` takes ``tr(m**k)`` by matrix
multiplication alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyProblemError, MagnitudeError, ParameterDomainError


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
        check_symmetric(entries)
        entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def check_symmetric(matrices: np.ndarray) -> None:
    """Raise ``ParameterDomainError`` unless the matrix, or each matrix of
    a stack along the leading axes, is finite and symmetric bit for bit."""
    if not np.all(np.isfinite(matrices)):
        raise ParameterDomainError("matrix entries must be finite")
    if not np.array_equal(matrices, matrices.swapaxes(-1, -2)):
        raise ParameterDomainError("matrix is not symmetric")


def enclose_eigenvalues(matrices: np.ndarray, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each matrix ``m`` of the ``(P, n, n)`` stack ``matrices``,
    ascending intervals ``centers +- radii`` that enclose its eigenvalues,
    from approximate unit eigenvectors, the columns of its slice of
    ``bases``; ``centers`` and ``radii`` are ``(P, n)`` arrays.  Each
    matrix must pass :func:`check_symmetric`.

    For each column ``q`` the center is the Rayleigh quotient ``rho`` and
    the residual ``r = ||m q - rho q||`` is the radius of an interval that
    holds an eigenvalue (Parlett, *The Symmetric Eigenvalue Problem*,
    ch. 11).  When the intervals are pairwise disjoint each holds exactly
    one, so the k-th holds the k-th ascending eigenvalue, and Kato-Temple
    tightens its radius to ``r^2 / gap``, ``gap`` being the distance from
    ``rho`` to the neighbouring intervals.  Otherwise the radii stay the
    residuals: finite, but the k-th interval need not hold the k-th
    eigenvalue.  Neither step needs the columns to be exactly orthogonal.
    ``rho`` and ``r`` carry rounding errors of order ``n eps ||m||``, so
    the enclosure is exact up to that rounding, not an interval-arithmetic
    proof.

    Each slice's products are one BLAS call on its own operands, its sums
    run over its own columns, and disjointness is decided per slice, so a
    matrix's enclosure is bit for bit the same in any stack.
    """
    check_symmetric(matrices)
    image = matrices @ bases
    rho = np.einsum("pij,pij->pj", bases, image)
    defect = image - bases * rho[:, None, :]
    r = np.sqrt(np.einsum("pij,pij->pj", defect, defect))
    order = np.argsort(rho, axis=1, kind="stable")
    rho, r = np.take_along_axis(rho, order, axis=1), np.take_along_axis(r, order, axis=1)
    lower, upper = rho - r, rho + r
    disjoint = np.all(lower[:, 1:] > upper[:, :-1], axis=1)
    if disjoint.any():
        # disjointness makes every gap exceed its r, so r^2 / gap < r; the
        # other slices keep their residuals, with no gap computed for them
        rho_d, lower, upper = rho[disjoint], lower[disjoint], upper[disjoint]
        edge = np.full((rho_d.shape[0], 1), np.inf)
        gap = np.minimum(
            rho_d - np.hstack([-edge, upper[:, :-1]]), np.hstack([lower[:, 1:], edge]) - rho_d
        )
        r_d = r[disjoint]
        r[disjoint] = r_d * r_d / gap
    return rho, r


def trace_power(m: DenseSymmetric, k: int) -> float:
    """Trace of ``m**k`` by repeated matrix multiplication.

    Deliberately avoids the spectral route so the result can be checked
    against eigenvalue power sums.
    """
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
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
