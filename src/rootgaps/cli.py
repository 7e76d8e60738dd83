"""Command-line interface: root tables, verification sweeps, bound sweeps.

Subcommands:

* ``roots``   ordered roots with consecutive gaps per sweep point,
* ``verify``  spectral match against the closed-form spectra, trace
  identities, coordinate-form agreement, and the two-route
  diagonal-of-square consistency check,
* ``bounds``  the full bound-report table plus a sharpness summary.

Output is CSV (default) or JSON, deterministic byte for byte: fixed
column order, shortest round-trip float formatting, rows sorted by
(family, parameters, N, id, index) regardless of worker scheduling.

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 usage
error (including an empty sweep, a ``--tol`` that is not finite and
positive, and an ``--out`` path that cannot be written), 3 numerical
failure.  Per-family parameters, default grids and minimum orders come
from the ``FamilySpec`` rows in ``rootgaps.families``.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .covariance import (
    CoordinateForm,
    build_S,
    diag_square_residual,
    interaction_sums,
    laguerre_S,
)
from .eigensolve import DenseSymmetric, dense_eigenvalues
from .errors import ParameterDomainError, RootgapsError
from .families import FAMILY_SPECS, FamilyKind, PolynomialFamily, family_from
from .roots import compute_roots, gap_statistics

DEFAULT_N_MAX = 40

_TINY = float(np.finfo(float).tiny)

COLUMNS = {
    "roots": ("family", "params", "N", "i", "z_i", "gap_i"),
    "verify": ("family", "params", "N", "check_id", "value", "tolerance", "passed"),
    "bounds": (
        "family", "params", "N", "bound_id", "index",
        "bound_value", "observed_value", "slack", "holds", "sharpness",
    ),
}


@dataclass
class SweepConfig:
    """Resolved sweep request: grid points, tolerances, output shape."""

    command: str
    families: list[PolynomialFamily]
    n_min: int | None = None
    n_max: int | None = None
    n_step: int = 1
    fmt: str = "csv"
    out: str | None = None
    tol: float | None = None
    jobs: int = 1
    corrupt: bool = False


def default_families(kinds=tuple(FamilyKind)) -> list[PolynomialFamily]:
    """The default parameter grid of each kind in ``kinds``."""
    return [family_from(kind, values) for kind in kinds for values in FAMILY_SPECS[kind].defaults]


def _family_sort_key(fam: PolynomialFamily) -> tuple:
    return (fam.kind.value, *fam.parameters())


def sweep_points(config: SweepConfig) -> list[tuple[PolynomialFamily, int]]:
    points = []
    for fam in sorted(config.families, key=_family_sort_key):
        min_n = fam.spec.min_n
        lo = config.n_min if config.n_min is not None else min_n
        hi = config.n_max if config.n_max is not None else DEFAULT_N_MAX
        if config.command == "bounds":
            lo = max(lo, min_n)  # no bound set below the family's minimum order
        for n in range(lo, hi + 1, config.n_step):
            points.append((fam, n))
    if not points:
        raise ParameterDomainError("empty sweep: no (family, N) points selected")
    return points


def _spectral_tolerance(n: int, override: float | None) -> float:
    if override is not None:
        return override
    return 1e-8 if n <= 20 else 1e-6


def _roots_point(fam: PolynomialFamily, n: int) -> tuple[list[dict], dict]:
    rv = compute_roots(fam, n)
    stats = gap_statistics(rv)
    rows = []
    params = fam.params_text()
    for i in range(n):
        if i < n - 1:
            gap = abs(float(rv.roots[i + 1]) - float(rv.roots[i]))
        else:
            gap = None
        rows.append(
            {
                "family": fam.kind.value,
                "params": params,
                "N": n,
                "i": i + 1,
                "z_i": float(rv.roots[i]),
                "gap_i": gap,
            }
        )
    summary = {
        "family": fam.kind.value,
        "params": params,
        "N": n,
        "min_gap": stats.min_gap,
        "boundary_low": stats.boundary_low,
        "boundary_high": stats.boundary_high,
    }
    return rows, summary


def _verify_point(fam: PolynomialFamily, n: int, tol: float | None, corrupt: bool) -> tuple[list[dict], dict]:
    rv = compute_roots(fam, n)
    cov = build_S(rv)
    matrix = cov.matrix.entries
    if corrupt:
        matrix = matrix.copy()
        j = min(1, n - 1)
        matrix[0, j] += 0.5
        matrix[j, 0] = matrix[0, j]
    params = fam.params_text()
    checks: list[tuple[str, float, float]] = []

    spectrum = dense_eigenvalues(DenseSymmetric(matrix))
    spectral_err = float(np.max(np.abs(spectrum.eigenvalues - cov.predicted) / cov.predicted))
    checks.append(("spectrum-match", spectral_err, _spectral_tolerance(n, tol)))

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

    rows = [
        {
            "family": fam.kind.value,
            "params": params,
            "N": n,
            "check_id": check_id,
            "value": value,
            "tolerance": tolerance,
            "passed": value <= tolerance,
        }
        for check_id, value, tolerance in sorted(checks)
    ]
    summary = {
        "family": fam.kind.value,
        "params": params,
        "N": n,
        "failed": sum(1 for row in rows if not row["passed"]),
    }
    return rows, summary


def _rel_defect(value: float, target: float) -> float:
    return abs(value - target) / max(abs(target), 1.0)


def _bounds_point(fam: PolynomialFamily, n: int) -> tuple[list[dict], dict]:
    rv = compute_roots(fam, n)
    reports = bounds_mod.bound_set(rv)
    params = fam.params_text()
    rows = [
        {
            "family": fam.kind.value,
            "params": params,
            "N": n,
            "bound_id": rep.bound_id,
            "index": rep.index,
            "bound_value": rep.bound_value,
            "observed_value": rep.observed_value,
            "slack": rep.slack,
            "holds": rep.holds,
            "sharpness": rep.sharpness,
            "comparator": rep.comparator,
            "note": rep.note,
        }
        for rep in reports
    ]
    rows.sort(key=lambda row: (row["bound_id"], row["index"] if row["index"] is not None else 0))
    agg = bounds_mod.sharpness_summary(reports)
    summary = {
        "family": fam.kind.value,
        "params": params,
        "N": n,
        "worst_sharpness": {k: agg.worst[k] for k in sorted(agg.worst)},
        "mean_sharpness": {k: agg.mean[k] for k in sorted(agg.mean)},
        "diag_square_identity_ratio": agg.diag_square_identity_ratio,
        "comparator_ratios": {k: agg.comparator_ratios[k] for k in sorted(agg.comparator_ratios)},
        "violations": sum(
            1 for rep in reports if not rep.comparator and not rep.note and not rep.holds
        ),
    }
    return rows, summary


def _evaluate_point(task: tuple) -> tuple[tuple, list[dict], dict]:
    command, fam, n, tol, corrupt = task
    if command == "roots":
        rows, summary = _roots_point(fam, n)
    elif command == "verify":
        rows, summary = _verify_point(fam, n, tol, corrupt)
    else:
        rows, summary = _bounds_point(fam, n)
    return (_family_sort_key(fam), n), rows, summary


def _run_sweep(
    config: SweepConfig, points: list[tuple[PolynomialFamily, int]]
) -> tuple[list[dict], list[dict]]:
    tasks = [(config.command, fam, n, config.tol, config.corrupt) for fam, n in points]
    # the pool starts all its workers up front, so never more than there are points
    workers = min(config.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_evaluate_point, tasks))
    else:
        outcomes = [_evaluate_point(task) for task in tasks]
    outcomes.sort(key=lambda item: item[0])
    rows: list[dict] = []
    summaries: list[dict] = []
    for _, point_rows, summary in outcomes:
        rows.extend(point_rows)
        summaries.append(summary)
    return rows, summaries


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_safe(item) for item in value]
    return value


def _emit(config: SweepConfig, columns: tuple[str, ...], rows: list[dict], summaries: list[dict]) -> None:
    if config.fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_format_cell(row[col]) for col in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        document = {
            "config": {
                "command": config.command,
                "families": [fam.label() for fam in sorted(config.families, key=_family_sort_key)],
                "n_min": config.n_min,
                "n_max": config.n_max,
                "n_step": config.n_step,
                "tol": config.tol,
            },
            "results": [_json_safe(row) for row in rows],
            "summary": [_json_safe(item) for item in summaries],
        }
        text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if config.out:
        with open(config.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _run_command(config: SweepConfig, points: list[tuple[PolynomialFamily, int]]) -> int:
    """Evaluate ``points``, write the output, and return the exit code:
    2 when ``--out`` cannot be written, 1 when a verify check or a gating
    bound failed at some point, else 0."""
    rows, summaries = _run_sweep(config, points)
    try:
        _emit(config, COLUMNS[config.command], rows, summaries)
    except OSError as exc:
        if not config.out:
            raise
        print(f"rootgaps: cannot write {config.out}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    failed = any(summary.get("failed") or summary.get("violations") for summary in summaries)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rootgaps",
        description="Roots of classical orthogonal polynomials and their verified gap bounds.",
    )
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
        p.add_argument("--tol", type=float, default=None, help="override check tolerances")
        p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
        if name == "verify":
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
    names = FAMILY_SPECS[kind].params
    flags = " ".join(f"--{name}" for name in names)
    if not set(given) <= set(names):
        parser.error(f"{kind.value} takes {flags or 'no parameters'}")
    if not given:
        return default_families((kind,))
    if set(given) != set(names):
        parser.error(f"{kind.value} needs all of {flags}")
    try:
        return [family_from(kind, [given[name] for name in names])]
    except ParameterDomainError as exc:
        parser.error(str(exc))


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    families = _resolve_families(parser, args)
    if args.n is not None and (args.n_min is not None or args.n_max is not None):
        parser.error("--n conflicts with --n-min/--n-max")
    n_min, n_max = (args.n, args.n) if args.n is not None else (args.n_min, args.n_max)
    if args.n_step < 1:
        parser.error("--n-step must be >= 1")
    if n_min is not None and n_min < 1:
        parser.error("--n/--n-min must be >= 1")
    if n_min is not None and n_max is not None and n_max < n_min:
        parser.error("--n-max must be >= --n-min")
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0.0):
        parser.error("--tol must be finite and > 0")
    config = SweepConfig(
        command=args.command,
        families=families,
        n_min=n_min,
        n_max=n_max,
        n_step=args.n_step,
        fmt=args.format,
        out=args.out,
        tol=args.tol,
        jobs=args.jobs,
        corrupt=getattr(args, "corrupt", False),
    )
    try:
        points = sweep_points(config)
    except ParameterDomainError as exc:
        parser.error(str(exc))
    try:
        return _run_command(config, points)
    except RootgapsError as exc:
        print(f"rootgaps: numerical failure: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
