"""Tests of the benchmark's own checks.

Run from the repository root with ``python3 -m pytest bench``.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Workload, tally_output  # noqa: E402

REPEATABLE_COUNTS = (
    "families.evaluate.calls",
    "eigensolve.dense.n3_sum",
    "bounds.reports",
    "cli.emit.bytes",
    "roots.polish_skipped",
)


def test_corrupt_verify_sweep_fails_every_point(tmp_path):
    out = tmp_path / "corrupt.csv"
    argv = ["verify", "--family", "hermite", "--n-min", "2", "--n-max", "6",
            "--corrupt", "--jobs", "1", "--out", str(out)]
    result = run.run_worker([argv])
    assert result["outputs"][0]["exit"] == 1
    tally = tally_output(str(out), "verify", "csv")
    assert tally.points == 5
    assert tally.failed_points / tally.points == 1.0


def test_csv_and_json_bounds_parse_alike(tmp_path):
    tallies = []
    for fmt in ("csv", "json"):
        out = tmp_path / f"bounds.{fmt}"
        argv = ["bounds", "--n-max", "6", "--format", fmt, "--jobs", "1", "--out", str(out)]
        assert run.run_worker([argv])["outputs"][0]["exit"] == 0
        tallies.append(tally_output(str(out), "bounds", fmt))
    assert tallies[0] == tallies[1]
    assert tallies[0].failed_points == 0 and tallies[0].points == 12 * 6 - 1
    assert 0.0 < tallies[0].max_rel_err < 1e-12


@pytest.mark.parametrize("command", ["verify", "bounds"])
def test_traced_counts_repeat_exactly(tmp_path, command):
    argv = [[command, "--n-max", "10", "--jobs", "1", "--out", str(tmp_path / "out.csv")]]
    first, second = (
        run.run_worker(argv, str(tmp_path / f"trace-{i}.jsonl"))["layers"] for i in range(2)
    )
    assert {k: first[k] for k in REPEATABLE_COUNTS} == {k: second[k] for k in REPEATABLE_COUNTS}
    assert first["families.evaluate.calls"] > 0 and first["cli.emit.bytes"] > 0
    if command == "verify":
        assert first["eigensolve.dense.n3_sum"] > 0 and first["bounds.reports"] == 0
    else:
        assert first["eigensolve.dense.n3_sum"] == 0 and first["bounds.reports"] > 0


def test_tracer_reports_missing_targets():
    sys.path.insert(0, str(run.SRC))
    import rootgaps.roots
    from rootgaps.families import hermite

    tracer = Tracer((
        ("rootgaps.cli", "no_such_function", "absent", None),
        ("rootgaps.no_such_module", "compute_roots", "absent", None),
        ("rootgaps.roots", "jacobi_matrix", "families.jacobi_matrix", None),
    ))
    tracer.install()
    try:
        rootgaps.roots.compute_roots(hermite(), 5)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["rootgaps.cli.no_such_function", "rootgaps.no_such_module.compute_roots"]
    metrics = tracer.metrics()
    assert metrics["families.jacobi_matrix.calls"] == 1
    assert metrics["eigensolve.dense.calls"] == 0


def test_digest_change_fails_the_call(tmp_path):
    argv = ["verify", "--family", "hermite", "--n", "3", "--jobs", "1", "--out", str(tmp_path / "v.csv")]
    workload = Workload("tiny", (("verify", "csv", ("--family", "hermite", "--n", "3")),), 1, 4, {})
    checker = run.Checker(workload, "test-only-key")
    first = run.run_worker([argv])
    assert checker.check(first)
    second = run.run_worker([argv])
    second["outputs"][0]["sha256"] = "0" * 64
    assert not checker.check(second)
    assert "digest" in checker.errors[-1]
    assert checker.tally.failed_points == 1


def test_exits_without_result_when_sources_are_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "bounds-csv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
