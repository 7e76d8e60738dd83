"""Command-line interface: root tables, verification sweeps, bound sweeps.

Subcommands:

* ``roots``   ordered roots with consecutive gaps per sweep point,
* ``verify``  spectral match against the closed-form spectra, trace
  identities, coordinate-form agreement, and the two-route
  diagonal-of-square consistency check,
* ``bounds``  the full bound-report table plus a sharpness summary.

``spectrum-match`` diagonalizes nothing: it checks the predicted spectrum
against the eigenvalue enclosure of ``S_N`` from its closed-form
eigenbasis, from the family's three-term recurrence at the roots
(``covariance.eigenbasis_stack``, ``eigensolve.enclose_eigenvalues``).

The sweep is split into runs of consecutive points, one per ``--jobs``
worker (one run when serial).  Each run computes the roots of all its
points, whatever their families, in one ``compute_roots_many`` batch,
then hands the batch to its command's stage (``_STAGES``), which yields
chunks of points ``(indices, counts, columns, summaries)``: the points'
indices in the run, their entry counts, the columns of their rows after
the point key, and their summaries.  A column holds one value per entry,
or is a ``(pool, keys)`` pair, each entry the pool's item at its key.
``roots`` yields a chunk per point.  ``verify`` groups the points by
order, at large orders a few at a time (``covariance.order_groups``),
evaluates its checks once on each group's ``(P, n)`` and ``(P, n, n)``
stacks and yields a chunk per group:
each check value of the group is one ``(P,)`` array, each kind's terms
and spectra are applied to its runs of consecutive points
(``covariance.kind_runs``), and each point only picks its values in its
kind's check order (``VERIFY_CHECKS``).  Its eigenbases come from one
pass of the orthonormal-polynomial recurrence per band of consecutive
groups (``covariance.bands``, ``covariance.OrthonormalBand``), which
reads its own families' recurrence coefficients: each group's rows are a
view of its band's pass, which the band drops once it has served its
last group.  ``bounds`` evaluates the bound rows of each family kind
once for all the run's points of that kind, across orders, and yields
them as one chunk, the columns of
``bounds.RunColumns`` (only JSON computes the sharpness summaries).  Each
chunk becomes text before the next is computed, so ``--jobs`` workers
send text.  The writer formats each pool once per chunk with the
column's formatter from ``CSV_FORMATS`` or ``JSON_FORMATS``
(``_chunk_cells``); each point (``_evaluate_point``) gathers its pool
cells by its keys, formats its other values, and joins each entry into a
CSV line or fills it into a JSON object template, indented to its place
in the document, which is written in pieces; the JSON encoder writes
only the config header and the summaries.  The process pool is imported
only when ``--jobs`` asks for more than one worker, and the bound
catalogue (``rootgaps.bounds``) only when the ``bounds`` stage runs, so
``roots`` and ``verify`` never load it.

The parsed ``argparse.Namespace`` is the sweep request: ``main`` writes
the resolved families, in sweep order, and the ``--n`` range onto it, and
the sweep and the writers read it.

Output is CSV (default) or JSON, deterministic byte for byte: fixed
column order, shortest round-trip float formatting, and in JSON null for
a NaN or an infinity.  Points come in (family, parameters, N) order from
``sweep_points``, each run keeps it, and the serial ``map`` and
``pool.map`` both keep the order of the runs whatever the worker
scheduling; rows within a point are sorted by
(id, index).  A point's roots, bases and check values are bit for bit
what it would get alone, so the output does not depend on ``--jobs``.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage
error (including an empty sweep, a ``--tol`` that is not finite and
positive, and an ``--out`` path that cannot be written, which is checked
before the sweep), 3 numerical failure, reported with the first sweep
point that raises it (after a failed batch each point of the run is
computed alone).  A reader that closes stdout early, as ``| head`` does,
leaves the exit code to the sweep.  Only ``verify`` takes ``--tol`` and
``--corrupt``.  A negative value may follow its option in any float
notation (``--alpha -1e-05``), not only as ``-N`` or ``-N.N``, which are
all that argparse takes for a negative number by itself.  Per-family
parameters, default grids and minimum orders come from the
``FamilySpec`` rows in ``rootgaps.families``; a wrong parameter set or
value is worded by ``PolynomialFamily`` itself.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from itertools import accumulate, repeat
from operator import itemgetter
from typing import Callable, Iterator

import numpy as np

from .covariance import (
    COORDINATE_FORMS,
    OrthonormalBand,
    bands,
    build_S_stack,
    diag_square_residual,
    eigenbasis_stack,
    interaction_sums_stack,
    kind_runs,
    order_groups,
    pair_terms,
    parameter_columns,
)
from .eigensolve import check_symmetric, enclose_eigenvalues
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


def _optional(fmt, missing: str):
    return lambda value: missing if value is None else fmt(value)


def _json_float(value: float) -> str:
    return float.__repr__(value) if math.isfinite(value) else "null"


_BOOL_TEXT = {True: "true", False: "false"}.__getitem__
_JSON_TEXT = json.encoder.encode_basestring_ascii

# the text of each column's cells, per format.  CSV: floats in shortest
# round-trip form, booleans in lower case, a missing index or gap as an
# empty cell.  JSON: as ``json.dumps`` writes each value, except that a
# float that is not finite is null, as a missing index or gap is
CSV_FORMATS = {
    "family": str, "params": str, "N": str,
    "i": str, "z_i": repr, "gap_i": _optional(repr, ""),
    "check_id": str, "value": repr, "tolerance": repr, "passed": _BOOL_TEXT,
    "bound_id": str, "index": _optional(str, ""), "bound_value": repr, "observed_value": repr,
    "slack": repr, "holds": _BOOL_TEXT, "sharpness": repr,
}
JSON_FORMATS = {
    "family": _JSON_TEXT, "params": _JSON_TEXT, "N": int.__repr__,
    "i": int.__repr__, "z_i": _json_float, "gap_i": _optional(_json_float, "null"),
    "check_id": _JSON_TEXT, "value": _json_float, "tolerance": _json_float, "passed": _BOOL_TEXT,
    "bound_id": _JSON_TEXT, "index": _optional(int.__repr__, "null"), "bound_value": _json_float,
    "observed_value": _json_float, "slack": _json_float, "holds": _BOOL_TEXT,
    "sharpness": _json_float, "comparator": _BOOL_TEXT, "note": _JSON_TEXT,
}

# one encoder for the config header and the summaries; each summary is
# encoded alone and indented to its nesting level in the document
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


def _roots_stage(batch: list[RootVector], fmt: str, tol: float | None, corrupt: bool) -> Iterator[tuple]:
    """Each point's roots, the gap after each root, and its gap statistics,
    a chunk per point."""
    for i, rv in enumerate(batch):
        columns = (list(range(1, rv.n + 1)), rv.roots.tolist(), rv.gaps.tolist() + [None])
        yield [i], [rv.n], columns, [gap_statistics(rv)._asdict()]


# the checks of each kind, in row order (by id): the square trace identity
# where the family states it, the coordinate forms where it has a second
VERIFY_CHECKS = {
    kind: tuple(sorted(
        ("spectrum-match", "trace-identity-linear", "diag-square-consistency")
        + (("trace-identity-square",) if spec.square_identity else ())
        + (("coordinate-forms-match",) if kind in COORDINATE_FORMS else ())
    ))
    for kind, spec in FAMILY_SPECS.items()
}


def _verify_stage(batch: list[RootVector], fmt: str, tol: float | None, corrupt: bool) -> Iterator[tuple]:
    """Each point's checks ``(check_id, value, tolerance, passed)``, by id,
    a chunk per group of one order, every check evaluated once for the
    group, and one orthonormal-polynomial pass per band of groups."""
    for band in bands(list(order_groups(batch))):
        polynomials = OrthonormalBand([group for _, group in band])
        for g, (indices, _) in enumerate(band):
            yield (indices, *_verify_group(polynomials, g, tol, corrupt))


def _verify_group(band: OrthonormalBand, g: int, tol: float | None, corrupt: bool) -> tuple:
    """``(counts, columns, summaries)`` of the points of group ``g`` of
    ``band``, all of one order, as a chunk in group order: every check
    value is computed once for the group, as a ``(P,)`` array, and each
    point takes its values in its kind's check order; ``band`` gives
    ``covariance.eigenbasis_stack`` the group's orthonormal polynomials."""
    group = band.groups[g]
    n = group[0].n
    runs = kind_runs(group)
    # one evaluation of the pair terms builds S_N and its interaction sums,
    # whose (lin, cross) feed both trace identities and the
    # diagonal-of-square check; the (P, n, n) terms go before the enclosure
    terms = pair_terms(group)
    s = build_S_stack(group, terms)
    lin, cross = interaction_sums_stack(group, terms)
    del terms
    matrices = s
    if corrupt:
        # every point's own slice of a copy
        matrices = matrices.copy()
        j = min(1, n - 1)
        matrices[:, 0, j] += 0.5
        matrices[:, j, 0] = matrices[:, 0, j]

    # the closed-form eigenbasis encloses the eigenvalues of the matrices
    # as given, so a corrupted copy fails here without being diagonalized
    centers, radii = enclose_eigenvalues(matrices, eigenbasis_stack(*band.rows(g)))
    predicted = np.empty((len(group), n))
    for kind, run in runs:
        predicted[run] = FAMILY_SPECS[kind].spectrum(n, *parameter_columns(group[run]))
    checks = {"spectrum-match": np.max((np.abs(centers - predicted) + radii) / predicted, axis=1)}

    diag_square = lin * lin + cross
    shifts = np.array([rv.family.spec.shift for rv in group])
    checks["diag-square-consistency"] = diag_square_residual(matrices, shifts, diag_square)
    # a check that a kind does not make stays NaN and is not read
    linear_target, square_target, coordinate = np.full((3, len(group)), math.nan)
    for kind, run in runs:
        linear_target[run], square = FAMILY_SPECS[kind].trace_targets(predicted[run])
        if square is not None:
            square_target[run] = square
        if kind in COORDINATE_FORMS:
            alt = COORDINATE_FORMS[kind](group[run])
            # the second form is held to the checks of S_N itself
            check_symmetric(alt)
            base = s[run]
            diff = np.abs(base - alt) / np.maximum(np.maximum(np.abs(base), np.abs(alt)), _TINY)
            coordinate[run] = diff.max(axis=(1, 2))
    checks["trace-identity-linear"] = _rel_defect(lin.sum(axis=1), linear_target)
    checks["trace-identity-square"] = _rel_defect(diag_square.sum(axis=1), square_target)
    checks["coordinate-forms-match"] = coordinate

    spectral_tol = (1e-8 if n <= 20 else 1e-6) if tol is None else tol
    ident_tol = 1e-10 if tol is None else tol
    tolerances = {
        "spectrum-match": spectral_tol,
        "trace-identity-linear": ident_tol,
        "trace-identity-square": ident_tol,
        "coordinate-forms-match": 1e-13 if tol is None else tol,
        "diag-square-consistency": ident_tol,
    }
    values = {name: value.tolist() for name, value in checks.items()}
    passed = {name: (value <= tolerances[name]).tolist() for name, value in checks.items()}
    columns: tuple[list, ...] = ([], [], [], [])
    counts, summaries = [], []
    for kind, run in runs:
        check_ids = list(VERIFY_CHECKS[kind])
        limits = [tolerances[name] for name in check_ids]
        point_values = zip(*[values[name][run] for name in check_ids])
        point_passed = zip(*[passed[name][run] for name in check_ids])
        for value, ok in zip(point_values, point_passed):
            for column, cells in zip(columns, (check_ids, value, limits, ok)):
                column += cells
            counts.append(len(check_ids))
            summaries.append({"failed": ok.count(False)})
    return counts, columns, summaries


def _rel_defect(value: np.ndarray, target: np.ndarray) -> np.ndarray:
    return np.abs(value - target) / np.maximum(np.abs(target), 1.0)


def _bounds_stage(batch: list[RootVector], fmt: str, tol: float | None, corrupt: bool) -> Iterator[tuple]:
    """The bound entries of each family kind, a chunk per run of one kind
    (``covariance.kind_runs``): its rows are evaluated once for all the
    run's points (``bounds.RunColumns``).  Only JSON computes the
    sharpness summaries."""
    from . import bounds as bounds_mod

    for _, members in kind_runs(batch):
        indices = list(range(len(batch))[members])
        rows = bounds_mod.bound_rows(batch[members])
        # ids are unique per bound row and each row's entries come in index
        # order, so the stable sort of the rows by id alone orders the
        # entries by (id, index)
        run = bounds_mod.RunColumns(sorted(rows, key=itemgetter(0)), len(indices))
        summaries = [{"violations": count} for count in run.violations]
        if fmt == "json":
            # CSV writes no summary; the sweep reads only the violation count
            for p, (i, summary) in enumerate(zip(indices, summaries)):
                agg = bounds_mod.sharpness_summary(batch[i], run, p)
                summary.update(
                    worst_sharpness=agg.worst,
                    mean_sharpness=agg.mean,
                    diag_square_identity_ratio=agg.diag_square_identity_ratio,
                    comparator_ratios=agg.comparator_ratios,
                )
        yield indices, np.diff(run.starts).tolist(), run.columns, summaries


# one signature: (the root vectors of a run, format, tol, corrupt) -> chunks
# ``(indices, counts, columns, summaries)`` in any order, as the module
# docstring has them; a summary leaves out the point key
_STAGES = {"roots": _roots_stage, "verify": _verify_stage, "bounds": _bounds_stage}


def _evaluate_chunk(task: tuple) -> list[tuple[str, dict]]:
    """The outcomes of a run of sweep points, in order, all from one batch.
    After a numerical failure each point runs alone, so the points before
    the failing one run and the first that raises it is named."""
    command, fmt, points, tol, corrupt = task
    try:
        return _point_outcomes(command, fmt, points, tol, corrupt)
    except RootgapsError:
        pass
    outcomes = []
    for fam, n in points:
        try:
            outcomes += _point_outcomes(command, fmt, [(fam, n)], tol, corrupt)
        except RootgapsError as exc:
            raise RootgapsError(f"{fam.label()} N={n}: {exc}") from exc
    return outcomes


def _point_outcomes(
    command: str, fmt: str, points: list[tuple[PolynomialFamily, int]], tol: float | None, corrupt: bool
) -> list[tuple[str, dict]]:
    """The text and keyed summary of each point, in order: the roots of all
    the points from one batch, then the command's stage on the batch, each
    chunk turned into text before the stage computes the next."""
    batch = compute_roots_many(points)
    outcomes = [None] * len(batch)
    for indices, counts, columns, summaries in _STAGES[command](batch, fmt, tol, corrupt):
        cells = _chunk_cells(command, fmt, columns)
        starts = [0, *accumulate(counts)]
        for i, start, stop, summary in zip(indices, starts, starts[1:], summaries):
            outcomes[i] = _evaluate_point(command, fmt, batch[i], cells, start, stop, summary)
    return outcomes


def _column_names(command: str, fmt: str) -> tuple[str, ...]:
    """The columns of a command's rows after the point key; CSV drops the
    JSON-only ones."""
    return COLUMNS[command][len(POINT_KEY):] + (JSON_ONLY_COLUMNS.get(command, ()) if fmt == "json" else ())


def _chunk_cells(command: str, fmt: str, columns) -> list[Callable[[int, int], list[str]]]:
    """Each column of a chunk as a function of ``(start, stop)`` that gives
    the cells of those entries, by the format's formatter for the column:
    a ``(pool, keys)`` pair's pool is formatted here, each item once for
    the chunk, and gathered by the keys; a per-entry sequence is formatted
    entry by entry."""
    formats = CSV_FORMATS if fmt == "csv" else JSON_FORMATS
    return [_cell_getter(formats[name], column) for name, column in zip(_column_names(command, fmt), columns)]


def _cell_getter(fmt, column) -> Callable[[int, int], list[str]]:
    # an object array of the pool's cells, so that a point's keys gather them
    if isinstance(column, tuple):
        pool, keys = column
        cells = np.array(list(map(fmt, _python(pool))), dtype=object)
        return lambda start, stop: cells[keys[start:stop]].tolist()
    return lambda start, stop: list(map(fmt, _python(column[start:stop])))


def _python(values):
    """Python values of a sequence, so that every formatter sees Python
    floats, ints and bools."""
    return values.tolist() if isinstance(values, np.ndarray) else values


def _evaluate_point(
    command: str, fmt: str, rv: RootVector, cells: list, start: int, stop: int, summary: dict
) -> tuple[str, dict]:
    """One sweep point's rows as text in the output format, from entries
    ``start:stop`` of its chunk's ``cells``, and its summary keyed by the
    point."""
    fam = rv.family
    key = (fam.kind.value, fam.params_text(), rv.n)
    return _point_text(command, fmt, key, cells, start, stop), dict(zip(POINT_KEY, key), **summary)


def _point_text(command: str, fmt: str, key: tuple, cells: list, start: int, stop: int) -> str:
    """The text of one point's rows in the output format, from entries
    ``start:stop`` of a chunk's ``cells`` (``_chunk_cells``), each entry
    joined into a CSV line or a JSON ``results`` element."""
    if start == stop:
        return ""
    columns = [column(start, stop) for column in cells]
    formats = CSV_FORMATS if fmt == "csv" else JSON_FORMATS
    key_cells = [formats[name](value) for name, value in zip(POINT_KEY, key)]
    if fmt == "csv":
        head = ",".join(key_cells) + ","
        return head + ("\n" + head).join(map(",".join, zip(*columns))) + "\n"
    # an object as ``json.dumps(document, indent=2, sort_keys=True)``
    # places it in the ``results`` list
    names = POINT_KEY + _column_names(command, fmt)
    by_name = dict(zip(names, [repeat(cell) for cell in key_cells] + columns))
    order = sorted(names)
    template = "    {\n" + ",\n".join(["      " + _JSON_TEXT(name) + ": %s" for name in order]) + "\n    }"
    return ",\n".join(map(template.__mod__, zip(*[by_name[name] for name in order])))


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
        with _process_pool(workers) as pool:
            chunks = list(pool.map(_evaluate_chunk, tasks))
    else:
        chunks = [_evaluate_chunk(task) for task in tasks]
    return [outcome for chunk in chunks for outcome in chunk]


def _process_pool(workers: int):
    """A pool of ``workers`` processes.  The import is here, so a serial
    sweep never loads ``multiprocessing``."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
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
        # each summary indented by two levels, to its place in the list
        *_json_list([
            "    " + _JSON.encode(_json_safe(summary)).replace("\n", "\n    ") for _, summary in outcomes
        ]),
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


# argparse reads a token that starts with "-" as a value, not an option,
# only if its negative-number pattern matches it, and its own matches -N
# and -N.N alone: "--alpha -1e-05" would stop with "expected one argument".
# This one matches every negative float literal, exponent, inf and nan too;
# no option of the parser looks like one.
_NEGATIVE_NUMBER = re.compile(
    r"-(?:(?:\d[\d_]*(?:\.[\d_]*)?|\.\d[\d_]*)(?:e[-+]?\d[\d_]*)?|inf(?:inity)?|nan)\Z", re.IGNORECASE
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootgaps",
        description="Roots of classical orthogonal polynomials and their verified gap bounds.",
    )
    parser._negative_number_matcher = _NEGATIVE_NUMBER
    parser.set_defaults(tol=None, corrupt=False)  # only verify takes --tol and --corrupt
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("roots", "emit ordered roots and consecutive gaps"),
        ("verify", "check spectra, trace identities, and consistency"),
        ("bounds", "evaluate every bound and comparator"),
    ):
        p = sub.add_parser(name, help=help_text)
        p._negative_number_matcher = _NEGATIVE_NUMBER
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
