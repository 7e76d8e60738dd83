"""Dense symmetric matrices, a residual eigenvalue enclosure and trace powers.

No eigensolver lives here.  Polynomial roots come from Sturm bisection
and Newton polish in ``roots``, and the spectrum of ``S_N`` is known in
closed form (``FamilySpec.spectrum``).  ``enclose_eigenvalues`` checks a
matrix against such a spectrum: it encloses the eigenvalues of a
``DenseSymmetric`` from approximate eigenvectors, without a solve.
``trace_power`` takes ``tr(m**k)`` by matrix multiplication alone.
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
        if not np.all(np.isfinite(entries)):
            raise ParameterDomainError("matrix entries must be finite")
        if not np.array_equal(entries, entries.T):
            raise ParameterDomainError("matrix is not symmetric")
        entries.setflags(write=False)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def enclose_eigenvalues(m: DenseSymmetric, basis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending intervals ``centers +- radii`` that enclose the eigenvalues
    of ``m``, from approximate unit eigenvectors, the columns of ``basis``.

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
    """
    image = m.entries @ basis
    rho = np.einsum("ij,ij->j", basis, image)
    defect = image - basis * rho
    r = np.sqrt(np.einsum("ij,ij->j", defect, defect))
    order = np.argsort(rho, kind="stable")
    rho, r = rho[order], r[order]
    lower, upper = rho - r, rho + r
    if np.all(lower[1:] > upper[:-1]):
        # disjointness makes every gap exceed its r, so r^2 / gap < r
        gap = np.minimum(rho - np.append(-np.inf, upper[:-1]), np.append(lower[1:], np.inf) - rho)
        r = r * r / gap
    return rho, r


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
