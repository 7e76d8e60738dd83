"""Benchmark workloads and the parser that checks their CLI output.

Every workload drives ``rootgaps.cli.main`` with ``--jobs 1``; the sweep
points are fixed except for ``large-n``, whose family parameters are drawn
from the seed.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass

# Bound ids that never gate (comparators from the literature), and the
# derived ids whose formula is undefined below nu = 1 (NaN bound, a note).
# The CSV output carries neither the comparator nor the note column.
COMPARATOR_IDS = frozenset({
    "hermite-gap-comparator",
    "laguerre-min-root-bessel",
    "laguerre-gap-comparator-1",
    "laguerre-gap-comparator-2",
    "laguerre-gap-comparator-3",
    "jacobi-upper-edge-asymptotic",
})
NOTE_IDS = frozenset({"laguerre-gap-bessel-strong", "laguerre-gap-bessel-weak"})

LARGE_N = 300


@dataclass(frozen=True)
class Workload:
    """The CLI calls of one workload; one call per ``(command, fmt, extra args)``."""

    name: str
    calls: tuple[tuple[str, str, tuple[str, ...]], ...]
    points: int
    rows: int
    params: dict


def make_workload(name: str, seed: int) -> Workload:
    if name == "verify-sweep":
        return Workload(name, (("verify", "csv", ()),), 479, 1956, {})
    if name == "bounds-csv":
        return Workload(name, (("bounds", "csv", ()),), 479, 64757, {})
    if name == "bounds-json":
        return Workload(name, (("bounds", "json", ()),), 479, 64757, {})
    if name == "large-n":
        rng = random.Random(seed)
        nu = round(rng.uniform(0.5, 10.0), 3)
        alpha = round(rng.uniform(-0.5, 5.0), 3)
        beta = round(rng.uniform(-0.5, 5.0), 3)
        n = ("--n", str(LARGE_N))
        calls = (
            ("verify", "csv", ("--family", "hermite") + n),
            ("verify", "csv", ("--family", "laguerre", "--nu", repr(nu)) + n),
            ("verify", "csv", ("--family", "jacobi", "--alpha", repr(alpha), "--beta", repr(beta)) + n),
        )
        return Workload(name, calls, 3, 4 + 5 + 3, {"N": LARGE_N, "nu": nu, "alpha": alpha, "beta": beta})
    raise KeyError(name)


WORKLOAD_NAMES = ("verify-sweep", "bounds-csv", "bounds-json", "large-n")


def argv_lists(workload: Workload, out_prefix: str) -> list[list[str]]:
    return [
        [command, *extra, "--format", fmt, "--jobs", "1", "--out", f"{out_prefix}-{i}.{fmt}"]
        for i, (command, fmt, extra) in enumerate(workload.calls)
    ]


@dataclass
class Tally:
    """What one output file says: points, rows, failing points, accuracy.

    ``max_rel_err`` is the largest ``spectrum-match`` value for ``verify``
    and, for ``bounds``, the largest relative defect of the Hermite and
    Laguerre diagonal-of-square trace identities (the summed
    ``*-diag-sq`` left sides against ``N(N-1)(2N-1)/6`` and
    ``N(2N-1)(2N+1)/3``).  Both are exact identities that the roots must
    satisfy up to rounding.
    """

    points: int = 0
    rows: int = 0
    failed_points: int = 0
    max_rel_err: float = 0.0

    def add(self, other: "Tally") -> None:
        self.points += other.points
        self.rows += other.rows
        self.failed_points += other.failed_points
        self.max_rel_err = max(self.max_rel_err, other.max_rel_err)


def _read_rows(path: str, fmt: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        if fmt == "json":
            return json.load(handle)["results"]
        return list(csv.DictReader(handle))


def _number(value) -> float:
    return math.nan if value in (None, "") else float(value)


def _flag(value) -> bool:
    return value is True or value == "true"


def _identity_target(family: str, n: int) -> float | None:
    if family == "hermite":
        return n * (n - 1) * (2 * n - 1) / 6.0
    if family == "laguerre":
        return n * (2 * n - 1) * (2 * n + 1) / 3.0
    return None


def tally_output(path: str, command: str, fmt: str) -> Tally:
    """Parse one ``--out`` file of ``verify`` or ``bounds``.

    A point fails when one of its gating rows fails: a verify row with
    ``passed`` false, or a bounds row with ``holds`` false that is neither
    a comparator nor a note.
    """
    rows = _read_rows(path, fmt)
    failed: set[tuple] = set()
    points: set[tuple] = set()
    sums: dict[tuple, float] = {}
    worst = 0.0
    for row in rows:
        key = (row["family"], row["params"], int(row["N"]))
        points.add(key)
        if command == "verify":
            if not _flag(row["passed"]):
                failed.add(key)
            if row["check_id"] == "spectrum-match":
                worst = max(worst, _number(row["value"]))
            continue
        bound = _number(row["bound_value"])
        if fmt == "json":
            comparator, note = row["comparator"], bool(row["note"])
        else:
            comparator = row["bound_id"] in COMPARATOR_IDS
            note = row["bound_id"] in NOTE_IDS and math.isnan(bound)
        if not _flag(row["holds"]) and not comparator and not note:
            failed.add(key)
        if row["bound_id"] in ("hermite-diag-sq", "laguerre-diag-sq"):
            sums[key] = sums.get(key, 0.0) + bound
    for (family, _, n), total in sums.items():
        target = _identity_target(family, n)
        worst = max(worst, abs(total - target) / target)
    return Tally(len(points), len(rows), len(failed), worst)
