import csv
import hashlib
import io
import json

import pytest

import rootgaps.cli as cli
from rootgaps import ConvergenceError


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestRootsCommand:
    def test_hermite_n2(self, capsys):
        code, out = run_cli(capsys, "roots", "--family", "hermite", "--n", "2")
        assert code == 0
        rows = read_csv(out)
        assert [row["z_i"] for row in rows] == [
            "0.7071067811865476",
            "-0.7071067811865476",
        ]
        assert rows[0]["gap_i"] == "1.4142135623730951"
        assert rows[1]["gap_i"] == ""

    def test_laguerre_n1(self, capsys):
        code, out = run_cli(capsys, "roots", "--family", "laguerre", "--nu", "3", "--n", "1")
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["z_i"]) == pytest.approx(3.0, abs=1e-14)

    def test_jacobi_n1_symmetric(self, capsys):
        code, out = run_cli(
            capsys, "roots", "--family", "jacobi", "--alpha", "0", "--beta", "0", "--n", "1"
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0]["z_i"] == "0.0"


class TestVerifyCommand:
    def test_hermite_sweep_passes(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--family", "hermite", "--n-min", "2", "--n-max", "20"
        )
        assert code == 0
        rows = read_csv(out)
        assert rows and all(row["passed"] == "true" for row in rows)
        spectral = [float(r["value"]) for r in rows if r["check_id"] == "spectrum-match"]
        assert max(spectral) <= 1e-8

    def test_laguerre_identity_row(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--family", "laguerre", "--nu", "1", "--n", "10"
        )
        assert code == 0
        rows = read_csv(out)
        linear = [r for r in rows if r["check_id"] == "trace-identity-linear"]
        assert len(linear) == 1
        assert float(linear[0]["value"]) <= 1e-10

    def test_corrupted_matrix_fails(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--family", "hermite", "--n", "6", "--corrupt"
        )
        assert code == 1
        rows = read_csv(out)
        assert any(row["passed"] == "false" for row in rows)


class TestBoundsCommand:
    def test_hermite_n2_equality_row(self, capsys):
        code, out = run_cli(capsys, "bounds", "--family", "hermite", "--n", "2")
        assert code == 0
        rows = read_csv(out)
        gap_rows = [r for r in rows if r["bound_id"] == "hermite-gap"]
        assert len(gap_rows) == 1
        assert abs(float(gap_rows[0]["slack"])) <= 1e-12

    def test_default_small_sweep_exit_zero(self, capsys):
        code, _ = run_cli(capsys, "bounds", "--n-min", "1", "--n-max", "6")
        assert code == 0

    def test_json_document_shape(self, capsys):
        code, out = run_cli(
            capsys, "bounds", "--family", "laguerre", "--nu", "0.5", "--n", "4",
            "--format", "json",
        )
        assert code == 0
        document = json.loads(out)
        assert set(document) == {"config", "results", "summary"}
        assert document["config"]["command"] == "bounds"
        # not-applicable rows serialize their NaNs as null
        bessel = [
            r for r in document["results"] if r["bound_id"] == "laguerre-gap-bessel-strong"
        ]
        assert bessel and all(r["bound_value"] is None for r in bessel)
        assert all("violations" in point for point in document["summary"])


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ("bounds", "--family", "laguerre", "--nu", "2", "--n-min", "1", "--n-max", "6")
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert cli.main([*args, "--out", str(first)]) == 0
        assert cli.main([*args, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_parallel_output_matches_serial(self, tmp_path):
        args = ("verify", "--family", "jacobi", "--n-min", "1", "--n-max", "8")
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        assert cli.main([*args, "--format", "json", "--out", str(serial)]) == 0
        assert cli.main([*args, "--format", "json", "--out", str(parallel), "--jobs", "2"]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestGoldenOutput:
    # sha256 of the full output, pinned so that refactors keep every byte;
    # these commands run no BLAS-backed product, so the digest is portable
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["roots", "--n-max", "8"],
                "ed2198f2b34af06efa87c9a0b837fb1f6a8160ae8b082422d86bc14dd073c587",
            ),
            (
                ["bounds", "--n-max", "8"],
                "3d36c67052cfa1ab40e5221b7e4608279288410834633d6b50f894336ae86974",
            ),
            (
                ["bounds", "--n-max", "8", "--format", "json"],
                "64bef665f0d633d707d1da11d6a42a9e338915f152eb0ddc39ad2eb9a22f2272",
            ),
        ],
    )
    def test_sha256(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["roots", "--family", "hermite", "--nu", "1", "--n", "2"],
            ["roots", "--family", "laguerre", "--alpha", "1", "--n", "2"],
            ["roots", "--family", "jacobi", "--alpha", "1", "--n", "2"],
            ["roots", "--family", "laguerre", "--nu", "-3", "--n", "2"],
            ["roots", "--nu", "1", "--n", "2"],
            ["roots", "--family", "hermite", "--n", "2", "--n-min", "1"],
            ["roots", "--family", "hermite", "--n", "0"],
            ["roots", "--family", "hermite", "--n-min", "5", "--n-max", "2"],
            ["roots", "--family", "hermite", "--n", "3", "--jobs", "0"],
            ["verify", "--family", "hermite", "--n", "3", "--tol", "inf", "--format", "json"],
            ["verify", "--family", "hermite", "--n", "3", "--tol", "nan", "--format", "json"],
            ["verify", "--family", "hermite", "--n", "3", "--tol", "0"],
            ["verify", "--family", "hermite", "--n", "3", "--tol", "-1"],
            ["bounds", "--family", "hermite", "--n", "1"],
            ["frobnicate"],
        ],
    )
    def test_exit_code_two(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2


    def test_unwritable_out_path(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.csv"
        code = cli.main(["roots", "--family", "hermite", "--n", "3", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"rootgaps: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the requested worker
    count and maps in this process, so no worker is ever started."""

    created: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


class TestJobs:
    @pytest.mark.parametrize(
        "argv,workers",
        [
            (["verify", "--family", "hermite", "--n", "3", "--jobs", "500"], []),
            (["roots", "--family", "hermite", "--n-min", "2", "--n-max", "4", "--jobs", "500"], [3]),
            (["roots", "--family", "hermite", "--n-min", "2", "--n-max", "4", "--jobs", "2"], [2]),
        ],
    )
    def test_workers_capped_at_point_count(self, monkeypatch, capsys, argv, workers):
        monkeypatch.setattr(RecordingPool, "created", [])
        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert RecordingPool.created == workers
        monkeypatch.undo()
        assert run_cli(capsys, *argv[:-2]) == (code, out)


class TestNumericalFailure:
    def test_exit_code_three(self, monkeypatch, capsys):
        def explode(family, n):
            raise ConvergenceError("stuck", stuck_index=0)

        monkeypatch.setattr(cli, "compute_roots", explode)
        code = cli.main(["roots", "--family", "hermite", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert "numerical failure" in captured.err
