"""Classical orthogonal polynomial families and their recurrence machinery.

Covers the three classical weights in their standard normalization:

* Hermite, orthogonal w.r.t. ``exp(-x^2)`` on the real line,
* generalized Laguerre ``L_N^(nu-1)`` with ``nu > 0``, orthogonal w.r.t.
  ``exp(-x) * x^(nu-1)`` on ``(0, inf)``,
* Jacobi ``P_N^(alpha,beta)`` with ``alpha, beta > -1``, orthogonal w.r.t.
  ``(1-x)^alpha * (1+x)^beta`` on ``(-1, 1)``.

The module provides the symmetric tridiagonal recurrence (Jacobi) matrix
whose eigenvalues are the polynomial roots, its orthonormal polynomials
at given points, and pointwise evaluation of ``P_N`` together with its
derivative via the differentiated three-term recurrence.  The batched
evaluator, ``_evaluate_scaled``, takes its entries sorted by order,
descending, as the root polish holds them, and raises on any other
order.  It pays only for work that can change its values: the
power-of-two rescaling test runs only from the first row at which a
bound on the values, from the step table's coefficients and the largest
``|x|``, can pass ``2**500`` (never within the 40 rows of the default
grid), and a call of fewer than ``_SCALAR_ENTRIES`` entries, as the last
Newton steps make, runs entry by entry in Python floats instead of as
arrays.  Either way each entry sees the IEEE operations of a scalar
recurrence, in the same order, so its values are bit for bit the same.
The orthonormal polynomials, ``orthonormal_polynomials``, run the same
way: one pass over entries of mixed orders and recurrences, sorted by
order, descending, each step over the prefix still running, into one
array of which the rows of each order are a slice.

Everything that differs between the families is data in one
:class:`FamilySpec` row per kind, ``FAMILY_SPECS``, reached from a family
as ``family.spec``: parameter names and ranges, recurrence coefficients,
orthogonality interval and root ordering, the shift and closed-form
spectrum of ``S_N`` with its trace targets, and the default sweep grid.
The other modules read the row instead of branching on the kind.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from .errors import EmptyProblemError, InternalConsistencyError, MagnitudeError, ParameterDomainError


class FamilyKind(Enum):
    HERMITE = "hermite"
    LAGUERRE = "laguerre"
    JACOBI = "jacobi"


@dataclass(frozen=True)
class PolynomialFamily:
    """Tagged parameter record selecting one classical family.

    ``nu`` is the Laguerre weight exponent (the polynomial is
    ``L_N^(nu-1)``); ``alpha`` and ``beta`` are the Jacobi exponents.
    Parameters not belonging to the selected family must stay ``None``.

    The family's ``spec`` row, its ``parameters()`` and its
    ``params_text()`` are fixed at construction, from the fields; a family
    made by ``dataclasses.replace`` is constructed anew and gets its own.
    Equality and hashing read the fields alone.  A family pickles as its
    constructor arguments, since its ``spec`` holds functions that do not
    pickle.
    """

    kind: FamilyKind
    nu: float | None = None
    alpha: float | None = None
    beta: float | None = None
    spec: FamilySpec = field(init=False, repr=False, compare=False)
    _parameters: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _params_text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.kind, FamilyKind):
            raise ParameterDomainError(f"unknown family kind {self.kind!r}")
        spec = FAMILY_SPECS[self.kind]
        names = spec.params
        given = tuple(name for name in ("nu", "alpha", "beta") if getattr(self, name) is not None)
        if given != names:
            raise ParameterDomainError(
                f"{self.kind.value} takes exactly the parameters ({', '.join(names)}),"
                f" got ({', '.join(given)})"
            )
        for name in names:
            value = getattr(self, name)
            # bool is a numbers.Real, but True is no parameter
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ParameterDomainError(f"{self.kind.value} requires a real {name}, got {value!r}")
            if not (float(value) > spec.lower) or not math.isfinite(value):
                raise ParameterDomainError(
                    f"{self.kind.value} requires {name} > {spec.lower:g}, got {value}"
                )
        values = tuple(float(getattr(self, name)) for name in names)
        text = " ".join(f"{name}={value!r}" for name, value in zip(names, values)) or "-"
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "_parameters", values)
        object.__setattr__(self, "_params_text", text)

    def __reduce__(self):
        return PolynomialFamily, (self.kind, self.nu, self.alpha, self.beta)

    def parameters(self) -> tuple[float, ...]:
        """The family's parameter values as floats, in ``spec.params`` order."""
        return self._parameters

    def params_text(self) -> str:
        """``name=value`` pairs, e.g. ``alpha=1.0 beta=-0.9``; ``-`` for none."""
        return self._params_text

    def label(self) -> str:
        """Short deterministic text form, e.g. ``laguerre(nu=2.0)``."""
        return f"{self.kind.value}({self._params_text})" if self.spec.params else self.kind.value


def hermite() -> PolynomialFamily:
    return PolynomialFamily(FamilyKind.HERMITE)


def laguerre(nu: float) -> PolynomialFamily:
    return PolynomialFamily(FamilyKind.LAGUERRE, nu=float(nu))


def jacobi(alpha: float, beta: float) -> PolynomialFamily:
    return PolynomialFamily(FamilyKind.JACOBI, alpha=float(alpha), beta=float(beta))


def family_from(kind: FamilyKind, values) -> PolynomialFamily:
    """Family of ``kind`` with ``values`` given in ``spec.params`` order."""
    names = FAMILY_SPECS[kind].params
    return PolynomialFamily(kind, **{name: float(v) for name, v in zip(names, values)})


Steps = Iterator[tuple[float, float, float, float]]


@dataclass(frozen=True)
class FamilySpec:
    """Everything that differs between the classical families, as data.

    ``params`` names the :class:`PolynomialFamily` fields the family uses,
    each of which must exceed ``lower``; ``defaults`` lists their values on
    the default sweep grid.  ``recurrence(family, n)`` gives the diagonal and off-diagonal of the
    monic recurrence matrix.  ``steps(family, n)`` yields, for
    ``k = 0 .. n-1``, the coefficients ``(A, B, C, D)`` of
    ``P_{k+1} = ((A x + B) P_k - C P_{k-1}) / D`` in the standard
    normalization, starting from ``P_0 = 1`` and ``P_{-1} = 0``.
    ``domain`` is the open orthogonality interval; root vectors are stored
    ascending (``z_1`` smallest) when ``ascending`` is true, else
    descending (``z_1`` largest).  ``spectrum(n, *parameters)`` is the
    closed-form spectrum of ``S_N`` (ascending) of the family with those
    parameter values, in ``params`` order: scalars give one spectrum, and
    ``(P, 1)`` columns of them a ``(P, n)`` stack (a spectrum that reads no
    parameter stays one ``(n,)`` row, which broadcasts), each row by the
    operations of its scalar call.  ``shift`` is the multiple of the
    identity removed from ``S_N`` before the trace and diagonal-of-square
    identities are stated.
    ``min_n`` is the smallest order of default sweeps and bound sets.
    """

    params: tuple[str, ...]
    lower: float
    defaults: tuple[tuple[float, ...], ...]
    min_n: int
    recurrence: Callable[[PolynomialFamily, int], tuple[np.ndarray, np.ndarray]]
    steps: Callable[[PolynomialFamily, int], Steps]
    domain: tuple[float, float]
    ascending: bool
    shift: float
    spectrum: Callable[..., np.ndarray]
    square_identity: bool

    def trace_targets(self, lam: np.ndarray) -> tuple:
        """Exact ``tr(S_N - shift I)`` and, where the family states that
        identity, ``tr((S_N - shift I)^2)`` (``None`` otherwise), from the
        closed-form spectrum of ``S_N`` along the last axis of ``lam``,
        each summed over its own contiguous row: floats for one spectrum,
        lists of them for a stack."""
        square = ((lam - self.shift) ** 2).sum(axis=-1).tolist() if self.square_identity else None
        return (lam.sum(axis=-1) - self.shift * lam.shape[-1]).tolist(), square


def _laguerre_recurrence(family: PolynomialFamily, n: int) -> tuple[np.ndarray, np.ndarray]:
    (nu,) = family.parameters()
    k = np.arange(1.0, n)
    # (k - 1) + nu, not k + (nu - 1): at k = 1 the latter cancels a tiny nu
    return 2.0 * np.arange(float(n)) + nu, np.sqrt(k * ((k - 1.0) + nu))


def _laguerre_steps(family: PolynomialFamily, n: int) -> Steps:
    (nu,) = family.parameters()
    for k in range(n):
        yield -1.0, 2.0 * k + nu, (k - 1.0) + nu, k + 1.0


def _jacobi_recurrence(family: PolynomialFamily, n: int) -> tuple[np.ndarray, np.ndarray]:
    alpha, beta = family.parameters()
    ab = alpha + beta
    diag = np.empty(n)
    diag[0] = (beta - alpha) / (ab + 2.0)
    k = np.arange(1.0, n)
    diag[1:] = (beta - alpha) * (beta + alpha) / ((2.0 * k + ab) * (2.0 * k + ab + 2.0))
    b = np.empty(n - 1)
    if n > 1:
        # k = 1 has its own closed form; the generic one is 0/0 at ab = -1
        b[0] = 4.0 * (alpha + 1.0) * (beta + 1.0) / ((ab + 2.0) * (ab + 2.0) * (ab + 3.0))
        k = np.arange(2.0, n)
        s = 2.0 * k + ab
        b[1:] = 4.0 * k * (k + alpha) * (k + beta) * (k + ab) / (s * s * (s * s - 1.0))
    return diag, np.sqrt(b)


def _jacobi_steps(family: PolynomialFamily, n: int) -> Steps:
    alpha, beta = family.parameters()
    ab = alpha + beta
    # P_1 has its own closed form; the generic step divides by 0 at ab = 0
    yield 0.5 * (ab + 2.0), 0.5 * (alpha - beta), 0.0, 1.0
    for k in range(2, n + 1):
        s = 2.0 * k + ab
        yield (
            (s - 1.0) * s * (s - 2.0),
            (s - 1.0) * (alpha - beta) * ab,
            2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * s,
            2.0 * k * (k + ab) * (s - 2.0),
        )


def _jacobi_spectrum(n: int, alpha, beta) -> np.ndarray:
    j = np.arange(1.0, n + 1.0)
    return np.sort(2.0 * j * (2.0 * n + alpha + beta + 1.0 - j))


# Default grid: the Laguerre weights span the small- and large-nu regimes,
# the Jacobi pairs include a near-singular weight and a large symmetric one.
FAMILY_SPECS = {
    FamilyKind.HERMITE: FamilySpec(
        params=(), lower=-math.inf, defaults=((),), min_n=2,
        recurrence=lambda family, n: (np.zeros(n), np.sqrt(np.arange(1.0, n) / 2.0)),
        steps=lambda family, n: ((2.0, 0.0, 2.0 * k, 1.0) for k in range(n)),
        domain=(-math.inf, math.inf), ascending=False,
        shift=1.0, spectrum=lambda n: np.arange(1.0, n + 1.0), square_identity=True,
    ),
    FamilyKind.LAGUERRE: FamilySpec(
        params=("nu",), lower=0.0,
        defaults=((0.1,), (0.5,), (1.0,), (2.0,), (10.0,), (50.0,)), min_n=1,
        recurrence=_laguerre_recurrence, steps=_laguerre_steps,
        domain=(0.0, math.inf), ascending=False,
        shift=1.0, spectrum=lambda n, nu: 2.0 * np.arange(1.0, n + 1.0), square_identity=True,
    ),
    FamilyKind.JACOBI: FamilySpec(
        params=("alpha", "beta"), lower=-1.0,
        defaults=((-0.5, -0.5), (0.0, 0.0), (1.0, -0.9), (2.0, 3.0), (10.0, 10.0)), min_n=1,
        recurrence=_jacobi_recurrence, steps=_jacobi_steps,
        domain=(-1.0, 1.0), ascending=True,
        shift=0.0, spectrum=_jacobi_spectrum, square_identity=False,
    ),
}


@dataclass(frozen=True)
class SymTridiagonal:
    """Symmetric tridiagonal matrix stored as diagonal and off-diagonal.

    Off-diagonal entries must be strictly positive, which guarantees
    simple eigenvalues.
    """

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        offdiag = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)
        if diag.ndim != 1 or offdiag.ndim != 1:
            raise ParameterDomainError("diag and offdiag must be one-dimensional")
        if diag.size == 0:
            raise EmptyProblemError("empty tridiagonal matrix")
        if offdiag.size != diag.size - 1:
            raise ParameterDomainError(
                f"length mismatch: {diag.size} diagonal vs {offdiag.size} off-diagonal entries"
            )
        if not np.all(np.isfinite(diag)) or not np.all(np.isfinite(offdiag)):
            raise ParameterDomainError("non-finite tridiagonal entries")
        if offdiag.size and not np.all(offdiag > 0.0):
            raise ParameterDomainError("off-diagonal entries must be strictly positive")
        diag.setflags(write=False)
        offdiag.setflags(write=False)

    @property
    def n(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        full = np.diag(self.diag)
        idx = np.arange(self.n - 1)
        full[idx, idx + 1] = self.offdiag
        full[idx + 1, idx] = self.offdiag
        return full


def jacobi_matrix(family: PolynomialFamily, n: int) -> SymTridiagonal:
    """Recurrence matrix whose eigenvalues are the roots of ``P_n``.

    Uses the monic three-term recurrence coefficients of the selected
    family (the Golub-Welsch construction, without the weight vector).
    """
    _check_order(n)
    # admissible parameters give finite entries and positive off-diagonal
    # ones; huge parameters overflow the coefficients to inf/nan, or to a
    # zero off-diagonal entry where only a denominator overflowed
    with np.errstate(over="ignore", invalid="ignore"):
        diag, offdiag = family.spec.recurrence(family, n)
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag)) and np.all(offdiag > 0.0)):
        raise MagnitudeError("recurrence coefficients overflow the floating-point range")
    return SymTridiagonal(diag, offdiag)


# Rescaling threshold for the forward recurrences.  Only sign and the
# Newton ratio value/derivative survive a rescale, which is all the root
# polish consumes.
_RESCALE_LIMIT = 2.0**500
_RESCALE_EXP = 500
# below this many entries an evaluation runs entry by entry in Python
# floats: over 40 rows of mixed families an entry costs about 0.012 ms so,
# and a pass of array operations about 0.35 ms at any size up to 40 (the
# two cross at 28 on a 2-vCPU Xeon; over 300 rows of one family, at 40)
_SCALAR_ENTRIES = 28


def step_table(families, tops) -> np.ndarray:
    """The recurrence steps of each family, stacked: ``steps[k, :, f]`` is
    ``(A, B, C, D)`` of step ``k`` of ``families[f]`` (see
    :class:`FamilySpec`), for ``k < tops[f]``; the rows past a family's top
    are 0 and never read."""
    tops = [int(top) for top in tops]
    steps = np.zeros((max(tops), 4, len(tops)))
    for f, (family, top) in enumerate(zip(families, tops)):
        steps[:top, :, f] = list(family.spec.steps(family, top))
    return steps


# values past the double range become inf or nan without a warning, as in
# Python float arithmetic; evaluate_with_derivative reports them
@np.errstate(over="ignore", invalid="ignore")
def _evaluate_scaled(
    steps: np.ndarray, orders: np.ndarray, x: np.ndarray, which: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate ``(P_n, P_n')`` at every entry ``(n, x)`` of the integer
    ``orders`` (each ``>= 1``, sorted descending) and the finite ``x``,
    returning arrays ``(p, dp, exp2)`` in entry order.  Entry ``j`` is of
    the family in column ``which[j]`` of the :func:`step_table` ``steps``;
    a table of one family needs no ``which``.

    The true values are ``p * 2**exp2`` and ``dp * 2**exp2``; each entry is
    kept inside the representable range by its own power-of-two rescaling.
    One pass of the recurrence, run to the largest order, serves every
    entry of every family: the entries still running at step ``k`` are
    those of order above ``k``, a prefix that shrinks as orders finish,
    and each step reads the coefficients of that prefix from its row of
    ``steps``.  The rescaling test runs only from the first row at which a
    value can pass ``_RESCALE_LIMIT`` (:func:`_first_rescale_row`).  Fewer
    than ``_SCALAR_ENTRIES`` entries are evaluated one at a time in Python
    floats instead (:func:`_evaluate_entries`).  Each entry sees the same
    operations as a scalar recurrence, so the values are bit for bit those
    of one entry alone.
    """
    if np.any(orders[1:] > orders[:-1]):
        raise InternalConsistencyError("evaluation entries are not sorted by order, descending")
    size = x.size
    if size < _SCALAR_ENTRIES:
        return _evaluate_entries(steps, orders, x, which)
    top = int(orders[0])
    first = _first_rescale_row(steps[:top], float(np.abs(x).max()))
    values = np.empty((2, size))  # (P_n, P_n') of each entry
    exp2 = np.zeros(size, dtype=np.int64)
    # a table of one family gives its steps as floats; the entries of
    # several families read theirs from each row
    if steps.shape[2] == 1:
        which, rows = None, steps[:top, :, 0].tolist()
    else:
        rows, coef = steps[:top], np.empty(4 * size)
    # (P_k, P_k') and (P_{k-1}, P_{k-1}') of the entries still running,
    # and room for the next pair
    cur, prev, spare = np.zeros((3, 2, size))
    cur[0] = 1.0
    m = size
    # for every step k, the number of entries with order above k
    running = np.searchsorted(-orders, -np.arange(top), side="left").tolist()
    for k, (row, count) in enumerate(zip(rows, running)):
        if count < m:
            values[:, count:m] = cur[:, count:m]
            m = count
            cur, prev, spare, x = cur[:, :m], prev[:, :m], spare[:, :m], x[:m]
            if which is not None:
                which = which[:m]
        if which is not None:
            # mode="clip" writes into ``out`` directly; every index is valid
            row = row.take(which, axis=1, out=coef[:4 * m].reshape(4, m), mode="clip")
        a, b, c, d = row
        t = a * x + b
        # (t p - c p_prev) / d and (a p + t p' - c p'_prev) / d, each
        # rounded as the scalar expressions are
        new = np.multiply(t, cur, out=spare)
        new[1] += a * cur[0]
        new -= np.multiply(c, prev, out=prev)
        new /= d
        spare, prev, cur = prev, cur, new
        if k < first:
            continue
        over = np.abs(new, out=spare) > _RESCALE_LIMIT
        if over.any():
            big = np.flatnonzero(over.any(axis=0))
            cur[:, big] *= 2.0**-_RESCALE_EXP
            prev[:, big] *= 2.0**-_RESCALE_EXP
            exp2[big] += _RESCALE_EXP
    values[:, :m] = cur
    return values[0], values[1], exp2


def _first_rescale_row(steps: np.ndarray, reach: float) -> int:
    """The first row of the step table ``steps`` whose new values may pass
    ``_RESCALE_LIMIT`` at some ``|x| <= reach``, for any of its families;
    ``len(steps)`` if none may.

    With ``M_k`` the largest of ``|P_k|``, ``|P_{k-1}|``, ``|P_k'|`` and
    ``|P_{k-1}'|`` (``M_0 = 1``), each step gives ``M_{k+1} <= M_k max(1,
    g_k)``, ``g_k = max_f (|A| (|x| + 1) + |B| + |C|) / |D|``.  A row is
    skipped only while ``log2`` of that product stays one below the
    limit's exponent: rounding adds a factor of about ``1 + 10 eps`` per
    row, to the values and to the bound, so the margin of 2 holds for
    orders far past any a table can hold.  The zero rows past a family's
    top order, where ``D = 0``, are left out; a NaN or an infinity in the
    bound keeps every later test.
    """
    a, b, c, d = np.abs(steps).transpose(1, 0, 2)
    growth = np.divide(a * (reach + 1.0) + b + c, d, out=np.zeros_like(d), where=d != 0.0)
    bound = np.cumsum(np.log2(np.maximum(growth.max(axis=1), 1.0)))
    # the bound grows with the row, and a NaN stays, so the rows that pass
    # this test are a prefix
    return int(np.count_nonzero(bound <= _RESCALE_EXP - 1))


def orthonormal_polynomials(
    coefficients: np.ndarray, which: np.ndarray, orders: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The orthonormal polynomials ``p_0 .. p_{n-1}`` at every entry ``(n,
    x)`` of the integer ``orders`` (each ``>= 1``, sorted descending) and
    the points ``x``, returned as ``(rows, norm2)``.  Entry ``j`` is of the
    recurrence matrix in column ``which[j]`` of ``coefficients``, ``(2, F,
    top)``: ``coefficients[:, f] = (a, b)``, its diagonal and its
    off-diagonal after a leading ``0``, with ``b_{k+1} p_{k+1} = (x - a_k)
    p_k - b_k p_{k-1}`` from ``p_0 = 1``.  ``norm2`` holds ``sum_k
    p_k(x)^2`` of each entry.

    ``rows`` is ``(top, size)``, ``top`` the largest order: its row ``top -
    1 - k`` holds ``p_k`` of the entries of order above ``k``, a prefix of
    them, and is not written past it, so an order ``n`` has its ``p_{n-1}
    .. p_0`` in the last ``n`` rows.  One pass serves every entry: step
    ``k`` runs over the prefix of entries of order above ``k + 1``, each
    reading its ``a_k`` and
    ``b_{k+1}`` from its column.  An entry's values, its rows so far and
    its ``norm2``, are scaled by ``2**-500`` whenever one passes
    ``_RESCALE_LIMIT``, tested from :func:`_first_rescale_row` of the
    recurrences in use, as a step table.  Every operation is elementwise,
    so an entry's values are bit for bit the same in any pass.
    """
    if np.any(orders[1:] > orders[:-1]):
        raise InternalConsistencyError("recurrence entries are not sorted by order, descending")
    top = int(orders[0])
    # for every row k, the number of entries with order above k
    counts = np.searchsorted(-orders, -np.arange(top), side="left").tolist()
    # the columns in use; np.unique would import numpy.ma on its first call
    a, b = coefficients[:, np.flatnonzero(np.bincount(which)), :top]
    # row k of the step table computes p_{k+1} (see FamilySpec)
    steps = np.stack([np.ones_like(a[:, 1:]), -a[:, :-1], b[:, :-1], b[:, 1:]]).transpose(2, 0, 1)
    first = _first_rescale_row(steps, float(np.abs(x).max()))
    # row k of the table is (a_k, b_k) of every column
    table = coefficients[:, :, :top].transpose(2, 0, 1)
    rows = np.empty((top, x.size))
    cur = rows[top - 1]
    cur[:] = 1.0
    prev, norm2 = np.zeros_like(x), np.ones_like(x)
    # b_k of the entries still running, the divisor of the step before
    b_k = np.zeros_like(x)
    for k, m in enumerate(counts[1:]):
        x, which, cur, prev, b_k = x[:m], which[:m], cur[:m], prev[:m], b_k[:m]
        a_k = table[k, 0].take(which)
        b_next = table[k + 1, 1].take(which)
        new = rows[top - 2 - k, :m]
        np.divide((x - a_k) * cur - b_k * prev, b_next, out=new)
        if k >= first:
            over = np.abs(new) > _RESCALE_LIMIT
            if over.any():
                big = np.flatnonzero(over)
                rows[top - 2 - k:, big] *= 2.0**-_RESCALE_EXP
                norm2[big] *= 2.0 ** (-2 * _RESCALE_EXP)
        norm2[:m] += new * new
        prev, cur, b_k = cur, new, b_next
    return rows, norm2


def _evaluate_entries(steps, orders, x, which) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_evaluate_scaled`, one entry at a time in Python floats: the
    same IEEE operations in the same order as the array pass, which costs
    more than these loops below ``_SCALAR_ENTRIES`` entries.  Every ``D``
    of an admissible family is nonzero, so no division raises."""
    size = x.size
    p_out, dp_out, exp2 = np.empty(size), np.empty(size), np.zeros(size, dtype=np.int64)
    columns: dict[int, list] = {}
    fams = [0] * size if which is None else which.tolist()
    for j, (n, xj, f) in enumerate(zip(orders.tolist(), x.tolist(), fams)):
        rows = columns.get(f)
        if rows is None:
            rows = columns[f] = steps[:, :, f].tolist()
        p, dp, pp, pdp, e = 1.0, 0.0, 0.0, 0.0, 0
        for a, b, c, d in islice(rows, n):
            t = a * xj + b
            p, dp, pp, pdp = (t * p - c * pp) / d, ((t * dp + a * p) - c * pdp) / d, p, dp
            if abs(p) > _RESCALE_LIMIT or abs(dp) > _RESCALE_LIMIT:
                p, dp, pp, pdp = (v * 2.0**-_RESCALE_EXP for v in (p, dp, pp, pdp))
                e += _RESCALE_EXP
        p_out[j], dp_out[j], exp2[j] = p, dp, e
    return p_out, dp_out, exp2


def evaluate_with_derivative(family: PolynomialFamily, n: int, x: float) -> tuple[float, float]:
    """Return ``(P_n(x), P_n'(x))`` in the standard normalization.

    Raises :class:`MagnitudeError` when the true values exceed the double
    range; the error carries an approximate base-2 exponent so callers can
    tell how far out of range the request was.
    """
    _check_order(n)
    x = float(x)
    if not math.isfinite(x):
        raise ParameterDomainError(f"evaluation point must be finite, got {x}")
    p, dp, exp2 = _evaluate_scaled(step_table([family], [n]), np.array([n]), np.array([x]))
    p, dp, exp2 = float(p[0]), float(dp[0]), int(exp2[0])
    if exp2 == 0:
        return p, dp
    try:
        value = math.ldexp(p, exp2)
        derivative = math.ldexp(dp, exp2)
    except OverflowError:
        value = derivative = math.inf
    if not (math.isfinite(value) and math.isfinite(derivative)):
        hint = exp2 + math.log2(max(abs(p), abs(dp), 1.0))
        raise MagnitudeError(
            f"|P_{n}| near 2**{hint:.0f} at x={x!r} exceeds the floating-point range",
            scale_hint=hint,
        )
    return value, derivative


def _check_order(n: int) -> None:
    # bool is an int subclass, but True is no order
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ParameterDomainError(f"polynomial order must be an integer, got {n!r}")
    if n == 0:
        raise EmptyProblemError("polynomial order N = 0 gives an empty problem")
    if n < 0:
        raise ParameterDomainError(f"polynomial order must be positive, got {n}")
