"""rootgaps benchmark: time the public CLI on fixed sweeps, check its output.

Usage (from the repository root)::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (``bench/workloads.py``): ``verify-sweep`` and ``bounds-csv``
are listed in ``BENCHMARK.json``; ``bounds-json`` and ``large-n`` run the
same way on request but are left out there, because with runs long enough
to be steady on a shared host four workloads exceed its time budget.  Each
timed call starts a fresh interpreter (``bench/worker.py``), because every
real ``rootgaps`` call pays its own start-up and import.  After one untimed
warm-up call, calls repeat while the next one still fits in ``--seconds``
(at least three untraced calls); medians are reported.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (the
``cli.main`` calls), ``setup_s`` (interpreter start plus import),
``peak_rss_mb``, ``passed_frac`` (sweep points without a failing gating
row) and ``accuracy_digits`` (``-log10`` of the largest exact-identity
defect in the output, see ``workloads.Tally``).

The CPU speed of a shared host shifts by up to a third for minutes at a
time.  So each call also times a fixed reference loop twice: in the worker
after import, and here after the worker has ended (a worker that has run a
sweep runs the loop up to twice as slowly).  ``wall_s`` and
``setup_s`` are reported at the speed where that loop takes
``REF_LOOP_S``: each measured time is multiplied by ``REF_LOOP_S`` over the
mean of the two loop times.  The raw times and the factors are in the notes
line.

``--trace 1`` alternates untraced and traced calls and prints the
per-layer metrics of ``bench/tracer.py``, plus ``trace.overhead_s``.

Every call must exit 0, yield the workload's point and row counts, and
write output whose sha256 matches every other call of the same code on the
same inputs; digests are kept in ``.bench_work/digests.json`` keyed by a
hash of ``src/rootgaps``.  The last stdout line is the JSON result; the line
before it records the inputs, digests and machine context.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_UNITS
from worker import reference_loop_s
from workloads import WORKLOAD_NAMES, Tally, argv_lists, make_workload, tally_output

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_CALLS = 3
REF_LOOP_S = 0.04
CALL_TIMEOUT_S = 150
# Relative errors below this read as exact (about 17 significant digits).
ERR_FLOOR = 1e-17

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "ratio",
    "accuracy_digits": "digits",
}


class CallFailed(Exception):
    """A worker process crashed, timed out or printed no result."""


def run_worker(argvs: list[list[str]], trace_path: str | None = None) -> dict:
    spec = {"src": str(SRC), "calls": argvs, "trace": trace_path}
    spec["t0"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
            capture_output=True, text=True, timeout=CALL_TIMEOUT_S, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise CallFailed(f"worker timed out after {CALL_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise CallFailed(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["speed_scale"] = REF_LOOP_S / statistics.fmean((result["ref_loop_s"], reference_loop_s()))
    return result


def code_digest() -> str:
    sha = hashlib.sha256()
    for path in sorted((SRC / "rootgaps").glob("*.py")):
        sha.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return sha.hexdigest()[:16]


def machine_context() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
    }


class Checker:
    """Checks each call's outputs and accumulates the point tally."""

    def __init__(self, workload, digest_key: str):
        self.workload = workload
        self.tally = Tally()
        self.errors: list[str] = []
        self.digests: list[str] | None = None
        self._parsed: dict[str, Tally] = {}
        self._store = WORK / "digests.json"
        self._key = digest_key
        try:
            self._known = json.loads(self._store.read_text()).get(digest_key)
        except (OSError, ValueError):
            self._known = None

    def check(self, result: dict) -> bool:
        """Tally one worker result; False if the call must count as failed."""
        wl = self.workload
        call = Tally()
        ok = True
        for (command, fmt, _), out in zip(wl.calls, result["outputs"]):
            if out["sha256"] is None:
                ok = False
                self.errors.append(f"{out['path']}: no output (exit {out['exit']})")
                continue
            part = self._parsed.get(out["sha256"])
            if part is None:
                part = self._parsed[out["sha256"]] = tally_output(out["path"], command, fmt)
            call.add(part)
            if out["exit"] != 0:
                ok = False
                self.errors.append(f"{out['path']}: exit {out['exit']}")
        if ok and (call.points, call.rows) != (wl.points, wl.rows):
            ok = False
            self.errors.append(
                f"expected {wl.points} points / {wl.rows} rows, got {call.points} / {call.rows}"
            )
        digests = [out["sha256"] for out in result["outputs"]]
        reference = self.digests or self._known
        if ok and reference is not None and digests != reference:
            ok = False
            self.errors.append(f"output digest {digests} differs from {reference}")
        if ok and self.digests is None:
            self.digests = digests
        failed = call.failed_points if ok or call.failed_points else wl.points
        self.tally.points += wl.points
        self.tally.failed_points += failed
        self.tally.max_rel_err = max(self.tally.max_rel_err, call.max_rel_err)
        return ok

    def fail_call(self, reason: str) -> None:
        self.errors.append(reason)
        self.tally.points += self.workload.points
        self.tally.failed_points += self.workload.points

    def save(self) -> None:
        if self.digests is None or self.errors:
            return
        try:
            store = json.loads(self._store.read_text())
        except (OSError, ValueError):
            store = {}
        store[self._key] = self.digests
        self._store.write_text(json.dumps(store, indent=1, sort_keys=True))


def measure(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    WORK.mkdir(exist_ok=True)
    out_prefix = str(WORK / f"{workload.name}-out")
    argvs = argv_lists(workload, out_prefix)
    key = f"{code_digest()}/{workload.name}" + (f"/{seed}" if workload.params else "")
    checker = Checker(workload, key)
    trace_path = str(WORK / f"trace-{workload.name}.jsonl")
    load_before = os.getloadavg()
    start = time.monotonic()
    # Untimed warm-up: byte-compiles the package and fills the page cache.
    try:
        run_worker([["roots", "--family", "hermite", "--n", "2", "--out", f"{out_prefix}-warm.csv"]])
    except CallFailed:
        pass
    plain: list[dict] = []
    traced: list[dict] = []
    missing: list[str] = []
    longest = 0.0
    while not checker.errors:
        begin = time.monotonic()
        for span_log in ([None, trace_path] if trace else [None]):
            try:
                result = run_worker(argvs, span_log)
            except CallFailed as exc:
                checker.fail_call(str(exc))
                break
            if not checker.check(result):
                break
            if span_log is None:
                plain.append(result)
            else:
                traced.append(result)
                missing = result["missing"]
        longest = max(longest, time.monotonic() - begin)
        enough = len(plain) >= (1 if trace else MIN_CALLS)
        if enough and time.monotonic() - start + longest > seconds:
            break
    checker.save()
    for path in WORK.glob(f"{workload.name}-out-*"):
        path.unlink()
    tally = checker.tally
    metrics: dict[str, float] = {}
    if plain and not trace:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] * r["speed_scale"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] * r["speed_scale"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "passed_frac": 1.0 - tally.failed_points / tally.points,
            "accuracy_digits": -math.log10(max(tally.max_rel_err, ERR_FLOOR)),
        }
    elif plain and traced:
        metrics = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in LAYER_UNITS if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] * r["speed_scale"] for r in traced)
            - statistics.median(r["wall_s"] * r["speed_scale"] for r in plain)
        )
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    notes = {
        "workload": workload.name,
        "seed": seed,
        "params": workload.params,
        "calls": {"untraced": len(plain), "traced": len(traced)},
        "wall_s_each": [r["wall_s"] for r in plain],
        "setup_s_each": [r["setup_s"] for r in plain],
        "speed_scale_each": [r["speed_scale"] for r in plain],
        "digests": checker.digests,
        "max_rel_err": tally.max_rel_err,
        "errors": checker.errors,
        "missing": missing,
        "machine": {
            **machine_context(),
            "numpy": (plain or traced or [{}])[0].get("numpy"),
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
        },
    }
    result = {
        "correct": not checker.errors and tally.failed_points == 0,
        "attempted": tally.points,
        "failed": tally.failed_points,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    return notes, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rootgaps" / "cli.py").is_file():
        print(f"bench: no rootgaps sources under {SRC}", file=sys.stderr)
        return 2
    notes, result = measure(make_workload(args.workload, args.seed), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(notes))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
