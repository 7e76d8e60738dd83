"""Command-line interface: root tables, verification sweeps, bound sweeps.

Subcommands:

* ``roots``   ordered roots with consecutive gaps per sweep point,
* ``verify``  spectral match against the closed-form spectra, trace
  identities, coordinate-form agreement, and the two-route
  diagonal-of-square consistency check,
* ``bounds``  the full bound-report table plus a sharpness summary.

``spectrum-match`` diagonalizes nothing: it checks the predicted spectrum
against the eigenvalue enclosure of ``S_N`` from its closed-form
eigenbasis (``covariance.eigenbasis``, ``eigensolve.enclose_eigenvalues``).

The sweep is split into runs of consecutive points, one per ``--jobs``
worker (one run when serial).  Each run computes the roots of all its
points, whatever their families, in one ``compute_roots_many`` batch,
and for ``verify`` the eigenbases of all their ``S_N`` in one
``eigenbasis`` batch, then hands each point its ``RootVector`` (and
basis).  Each point function returns
its rows as tuples in ``COLUMNS`` order without the (family, params, N)
key, plus a summary dict; ``_evaluate_point`` adds the key once and turns
the rows into text where they are computed, so ``--jobs`` workers send
text.  CSV is written column by column, each with its formatter from
``CSV_FORMATS``.  JSON is encoded one row at a time by one encoder and
indented to its place in the document, so the document is written in
pieces and never joined into one string.

The parsed ``argparse.Namespace`` is the sweep request: ``main`` writes
the resolved families, in sweep order, and the ``--n`` range onto it, and
the sweep and the writers read it.

Output is CSV (default) or JSON, deterministic byte for byte: fixed
column order, shortest round-trip float formatting.  Points come in
(family, parameters, N) order from ``sweep_points``, each run keeps it,
and the serial ``map`` and ``pool.map`` both keep the order of the runs
whatever the worker scheduling; rows within a point are sorted by
(id, index).  A batch of roots or of bases is bit for bit what each
point would get alone, so the output does not depend on ``--jobs``.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage
error (including an empty sweep, a ``--tol`` that is not finite and
positive, and an ``--out`` path that cannot be written, which is checked
before the sweep), 3 numerical failure, reported with the sweep point
that raised it.  A reader that closes stdout early, as ``| head`` does,
leaves the exit code to the sweep.  Only ``verify`` takes ``--tol`` and
``--corrupt``.  Per-family parameters, default grids and minimum orders
come from the ``FamilySpec`` rows in ``rootgaps.families``; a wrong
parameter set or value is worded by ``PolynomialFamily`` itself.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from operator import itemgetter

import numpy as np

from . import bounds as bounds_mod
from .covariance import (
    CoordinateForm,
    build_S,
    diag_square_residual,
    eigenbasis,
    interaction_sums,
    laguerre_S,
)
from .eigensolve import DenseSymmetric, enclose_eigenvalues
from .errors import ParameterDomainError, RootgapsError
from .families import FAMILY_SPECS, FamilyKind, PolynomialFamily, family_from
from .roots import RootVector, compute_roots_many, gap_statistics

DEFAULT_N_MAX = 40

_TINY = float(np.finfo(float).tiny)

# every row and summary starts with the point key
POINT_KEY = ("family", "params", "N")
COLUMNS = {
    "roots": POINT_KEY + ("i", "z_i", "gap_i"),
    "verify": POINT_KEY + ("check_id", "value", "tolerance", "passed"),
    "bounds": POINT_KEY + (
        "bound_id", "index", "bound_value", "observed_value", "slack", "holds", "sharpness",
    ),
}

# bound rows carry two more fields, which only JSON writes
JSON_ONLY_COLUMNS = {"bounds": ("comparator", "note")}


def _optional(fmt):
    return lambda value: "" if value is None else fmt(value)


_BOOL_TEXT = {True: "true", False: "false"}.__getitem__

# the CSV text of each column's cells: floats in shortest round-trip form,
# booleans in lower case, a missing index or gap as an empty cell
CSV_FORMATS = {
    "family": str, "params": str, "N": str,
    "i": str, "z_i": repr, "gap_i": _optional(repr),
    "check_id": str, "value": repr, "tolerance": repr, "passed": _BOOL_TEXT,
    "bound_id": str, "index": _optional(str), "bound_value": repr, "observed_value": repr,
    "slack": repr, "holds": _BOOL_TEXT, "sharpness": repr,
}
_LINE_FORMATS = {
    command: tuple(CSV_FORMATS[name] for name in names) for command, names in COLUMNS.items()
}

# one encoder for every JSON row and summary; each is encoded alone and
# indented to its nesting level in the document
_JSON = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False)


def default_families(kinds=tuple(FamilyKind)) -> list[PolynomialFamily]:
    """The default parameter grid of each kind in ``kinds``."""
    return [family_from(kind, values) for kind in kinds for values in FAMILY_SPECS[kind].defaults]


def _family_sort_key(fam: PolynomialFamily) -> tuple:
    return (fam.kind.value, *fam.parameters())


def sweep_points(args: argparse.Namespace) -> list[tuple[PolynomialFamily, int]]:
    points = []
    for fam in args.families:
        min_n = fam.spec.min_n
        lo = args.n_min if args.n_min is not None else min_n
        hi = args.n_max if args.n_max is not None else DEFAULT_N_MAX
        if args.command == "bounds":
            lo = max(lo, min_n)  # no bound set below the family's minimum order
        for n in range(lo, hi + 1, args.n_step):
            points.append((fam, n))
    if not points:
        raise ParameterDomainError("empty sweep: no (family, N) points selected")
    return points


def _roots_point(rv: RootVector, basis: None, tol: float | None, corrupt: bool) -> tuple[list[tuple], dict]:
    stats = gap_statistics(rv)
    z = rv.roots.tolist()
    gaps = [abs(b - a) for a, b in zip(z, z[1:])] + [None]
    rows = list(zip(range(1, rv.n + 1), z, gaps))
    summary = {
        "min_gap": stats.min_gap,
        "boundary_low": stats.boundary_low,
        "boundary_high": stats.boundary_high,
    }
    return rows, summary


def _verify_point(rv: RootVector, basis: np.ndarray, tol: float | None, corrupt: bool) -> tuple[list[tuple], dict]:
    fam, n = rv.family, rv.n
    cov = build_S(rv)
    matrix = cov.matrix.entries
    if corrupt:
        matrix = matrix.copy()
        j = min(1, n - 1)
        matrix[0, j] += 0.5
        matrix[j, 0] = matrix[0, j]
    checks: list[tuple[str, float, float]] = []

    # the closed-form eigenbasis encloses the eigenvalues of the matrix as
    # given, so a corrupted copy fails here without being diagonalized
    centers, radii = enclose_eigenvalues(DenseSymmetric(matrix), basis)
    spectral_err = float(np.max((np.abs(centers - cov.predicted) + radii) / cov.predicted))
    spectral_tol = (1e-8 if n <= 20 else 1e-6) if tol is None else tol
    checks.append(("spectrum-match", spectral_err, spectral_tol))

    # one (lin, cross) pair feeds both trace identities and the
    # diagonal-of-square check
    ident_tol = 1e-10 if tol is None else tol
    lin, cross = interaction_sums(rv)
    diag_square = lin * lin + cross
    linear_target, square_target = fam.spec.trace_targets(fam, n)
    checks.append(("trace-identity-linear", _rel_defect(float(lin.sum()), linear_target), ident_tol))
    if square_target is not None:
        square = float(diag_square.sum())
        checks.append(("trace-identity-square", _rel_defect(square, square_target), ident_tol))
    if fam.kind is FamilyKind.LAGUERRE:
        alt = laguerre_S(rv, CoordinateForm.SQRT_R)
        scale = np.maximum(np.abs(cov.matrix.entries), np.abs(alt.matrix.entries))
        diff = np.abs(cov.matrix.entries - alt.matrix.entries) / np.maximum(scale, _TINY)
        checks.append(("coordinate-forms-match", float(diff.max()), 1e-13 if tol is None else tol))
    diag_resid = diag_square_residual(matrix, fam.spec.shift, diag_square)
    checks.append(("diag-square-consistency", diag_resid, ident_tol))

    rows = [(check_id, value, tolerance, value <= tolerance) for check_id, value, tolerance in sorted(checks)]
    return rows, {"failed": sum(1 for row in rows if not row[-1])}


def _rel_defect(value: float, target: float) -> float:
    return abs(value - target) / max(abs(target), 1.0)


def _bounds_point(rv: RootVector, basis: None, tol: float | None, corrupt: bool) -> tuple[list[tuple], dict]:
    reports = bounds_mod.bound_set(rv)
    # ids are unique per bound row and each id's reports come in index
    # order, so the stable sort by id alone orders them by (id, index);
    # a report is its row
    rows = sorted(reports, key=itemgetter(0))
    agg = bounds_mod.sharpness_summary(rv, reports)
    summary = {
        "worst_sharpness": agg.worst,
        "mean_sharpness": agg.mean,
        "diag_square_identity_ratio": agg.diag_square_identity_ratio,
        "comparator_ratios": agg.comparator_ratios,
        "violations": sum(
            1 for rep in reports if not rep.comparator and not rep.note and not rep.holds
        ),
    }
    return rows, summary


# one signature: (roots, basis, tol, corrupt) -> (rows in column order
# without the point key, summary without the point key); only verify
# reads the basis
_POINT_FUNCTIONS = {"roots": _roots_point, "verify": _verify_point, "bounds": _bounds_point}


def _evaluate_chunk(task: tuple) -> list[tuple[str, dict]]:
    """The outcomes of a run of sweep points, in order.  The inputs of all
    the run's points are computed in one batch; a numerical failure is
    named by the first point in sweep order that raises it."""
    command, fmt, points, tol, corrupt = task
    try:
        batch = _point_inputs(command, points)
    except RootgapsError:
        # some point failed: each point computes its own inputs, so the
        # points before it run and the failing one is named
        batch = None
    outcomes = []
    for i, (fam, n) in enumerate(points):
        try:
            rv, basis = batch[i] if batch else _point_inputs(command, [(fam, n)])[0]
            outcomes.append(_evaluate_point(command, fmt, rv, basis, tol, corrupt))
        except RootgapsError as exc:
            raise RootgapsError(f"{fam.label()} N={n}: {exc}") from exc
    return outcomes


def _point_inputs(command: str, points: list[tuple[PolynomialFamily, int]]) -> list[tuple]:
    """The ``(roots, basis)`` of each point: its ``RootVector`` and, for
    ``verify``, the closed-form eigenbasis of its ``S_N`` (else ``None``),
    each kind computed in one batch."""
    batch = compute_roots_many(points)
    bases = eigenbasis(batch) if command == "verify" else [None] * len(batch)
    return list(zip(batch, bases))


def _evaluate_point(
    command: str, fmt: str, rv: RootVector, basis: np.ndarray | None, tol: float | None, corrupt: bool
) -> tuple[str, dict]:
    """One sweep point from its roots (and basis): the text of its rows in
    the output format, plus its keyed summary."""
    rows, summary = _POINT_FUNCTIONS[command](rv, basis, tol, corrupt)
    fam = rv.family
    key = (fam.kind.value, fam.params_text(), rv.n)
    text = (_csv_lines if fmt == "csv" else _json_rows)(command, key, rows)
    return text, dict(zip(POINT_KEY, key), **summary)


def _csv_lines(command: str, key: tuple, rows: list[tuple]) -> str:
    """The CSV lines of one point, formatted column by column; the columns
    that only JSON writes are dropped."""
    formats = _LINE_FORMATS[command]
    head = ",".join(fmt(value) for fmt, value in zip(formats, key)) + ","
    cells = [map(fmt, column) for fmt, column in zip(formats[len(key):], zip(*rows))]
    return "".join([head + line + "\n" for line in map(",".join, zip(*cells))])


def _json_rows(command: str, key: tuple, rows: list[tuple]) -> str:
    """The JSON objects of one point's rows, as elements of the document's
    ``results`` list, separated by commas."""
    names = COLUMNS[command] + JSON_ONLY_COLUMNS.get(command, ())
    return ",\n".join(_json_element(dict(zip(names, key + row))) for row in rows)


def _json_element(value) -> str:
    # an element of a list in the document's top-level object: indented by
    # two levels, as ``json.dumps(document, indent=2)`` would place it
    return "    " + _JSON.encode(_json_safe(value)).replace("\n", "\n    ")


def _run_sweep(args: argparse.Namespace, points: list[tuple[PolynomialFamily, int]]) -> list[tuple[str, dict]]:
    # the pool starts all its workers up front, so never more than there are points
    workers = min(args.jobs, len(points))
    # one run of consecutive points per worker, their sizes at most one
    # apart; points come in (family, params, N) order, both maps keep the
    # order of the runs and each run keeps its own
    ends = [len(points) * i // workers for i in range(workers + 1)]
    tasks = [
        (args.command, args.format, points[start:end], args.tol, args.corrupt)
        for start, end in zip(ends, ends[1:])
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_evaluate_chunk, tasks))
    else:
        chunks = [_evaluate_chunk(task) for task in tasks]
    return [outcome for chunk in chunks for outcome in chunk]


def _json_safe(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    return value


def _json_document(args: argparse.Namespace, outcomes: list[tuple[str, dict]]) -> list[str]:
    """The JSON document ``{config, results, summary}`` as chunks: the rows
    come encoded from the points, and the summaries are encoded here, all
    before anything is written."""
    header = {
        "command": args.command,
        "families": [fam.label() for fam in args.families],
        "n_min": args.n_min,
        "n_max": args.n_max,
        "n_step": args.n_step,
        "tol": args.tol,
    }
    return [
        '{\n  "config": ' + _JSON.encode(header).replace("\n", "\n  ") + ',\n  "results": ',
        *_json_list([text for text, _ in outcomes if text]),
        ',\n  "summary": ',
        *_json_list([_json_element(summary) for _, summary in outcomes]),
        "\n}\n",
    ]


def _json_list(elements: list[str]) -> list[str]:
    """A list of the top-level object as chunks, from its encoded elements."""
    if not elements:
        return ["[]"]
    chunks = ["[\n"]
    for element in elements:
        chunks += (element, ",\n")
    chunks[-1] = "\n  ]"
    return chunks


def _emit(args: argparse.Namespace, outcomes: list[tuple[str, dict]]) -> None:
    if args.format == "csv":
        chunks = [",".join(COLUMNS[args.command]) + "\n", *(text for text, _ in outcomes)]
    else:
        chunks = _json_document(args, outcomes)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        return
    try:
        sys.stdout.writelines(chunks)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader stopped early, as ``| head`` does; stdout now goes to
        # the null device so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _check_out(path: str) -> None:
    """Raise ``OSError`` unless ``path`` opens for writing; an existing
    file keeps its bytes and a new one is removed again."""
    existed = os.path.lexists(path)
    with open(path, "a", encoding="utf-8"):
        pass
    if not existed:
        os.remove(path)


def _cannot_write(path: str, exc: OSError) -> int:
    print(f"rootgaps: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
    return 2


def _run_command(args: argparse.Namespace, points: list[tuple[PolynomialFamily, int]]) -> int:
    """Evaluate ``points``, write the output, and return the exit code:
    2 when ``--out`` cannot be written (checked before the sweep and
    again on writing), 1 when a verify check or a gating bound failed at
    some point, else 0.  Nothing is written unless the whole sweep ran."""
    if args.out:
        try:
            _check_out(args.out)
        except OSError as exc:
            return _cannot_write(args.out, exc)
    outcomes = _run_sweep(args, points)
    try:
        _emit(args, outcomes)
    except OSError as exc:
        if not args.out:
            raise
        return _cannot_write(args.out, exc)
    failed = any(summary.get("failed") or summary.get("violations") for _, summary in outcomes)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootgaps",
        description="Roots of classical orthogonal polynomials and their verified gap bounds.",
    )
    parser.set_defaults(tol=None, corrupt=False)  # only verify takes --tol and --corrupt
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("roots", "emit ordered roots and consecutive gaps"),
        ("verify", "check spectra, trace identities, and consistency"),
        ("bounds", "evaluate every bound and comparator"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--family", choices=[k.value for k in FamilyKind], default=None)
        p.add_argument("--nu", type=float, default=None, help="Laguerre weight exponent (> 0)")
        p.add_argument("--alpha", type=float, default=None, help="Jacobi exponent (> -1)")
        p.add_argument("--beta", type=float, default=None, help="Jacobi exponent (> -1)")
        p.add_argument("--n", type=int, default=None, help="single polynomial order")
        p.add_argument("--n-min", type=int, default=None)
        p.add_argument("--n-max", type=int, default=None)
        p.add_argument("--n-step", type=int, default=1)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
        if name == "verify":
            p.add_argument("--tol", type=float, default=None, help="override check tolerances")
            p.add_argument(
                "--corrupt", action="store_true",
                help="testing hook: perturb one matrix entry per sweep point",
            )
    return parser


def _resolve_families(parser: argparse.ArgumentParser, args: argparse.Namespace) -> list[PolynomialFamily]:
    given = {name: getattr(args, name) for name in ("nu", "alpha", "beta")}
    given = {name: value for name, value in given.items() if value is not None}
    if args.family is None:
        if given:
            parser.error("--nu/--alpha/--beta require --family")
        return default_families()
    kind = FamilyKind(args.family)
    if not given:
        return default_families((kind,))
    try:
        return [PolynomialFamily(kind, **given)]
    except ParameterDomainError as exc:
        parser.error(str(exc))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.families = sorted(_resolve_families(parser, args), key=_family_sort_key)
    if args.n is not None:
        if args.n_min is not None or args.n_max is not None:
            parser.error("--n conflicts with --n-min/--n-max")
        args.n_min = args.n_max = args.n
    if args.n_step < 1:
        parser.error("--n-step must be >= 1")
    if args.n_min is not None and args.n_min < 1:
        parser.error("--n/--n-min must be >= 1")
    if args.n_min is not None and args.n_max is not None and args.n_max < args.n_min:
        parser.error("--n-max must be >= --n-min")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0.0):
        parser.error("--tol must be finite and > 0")
    try:
        points = sweep_points(args)
    except ParameterDomainError as exc:
        parser.error(str(exc))
    try:
        return _run_command(args, points)
    except RootgapsError as exc:
        print(f"rootgaps: numerical failure: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
