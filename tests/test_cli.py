import csv
import functools
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rootgaps.bounds as bounds_mod
import rootgaps.cli as cli
from rootgaps import FamilyKind, MagnitudeError, compute_roots, covariance, hermite, jacobi, laguerre
from rootgaps.roots import compute_roots_many

from conftest import closed_form_bases, loaded_after, recurrence_band
from test_bounds import EDGE_ROWS, MIXED_POINTS, expand, point_run, rows_at
from test_covariance import bases_by_order

real_compute_roots_many = cli.compute_roots_many


def run_cli(capsys, *args):
    code = cli.main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def golden(argv, digest):
    """A golden-output case whose id is built from its argv, not its
    digest, so that a declared digest change keeps the test's name:
    ``["roots", "--n-max", "8", "--format", "json"]`` is
    ``roots-n-max-8-json``."""
    words = [arg.lstrip("-") for arg in argv if arg != "--format"]
    return pytest.param(argv, digest, id="-".join(words))


def explode_at(n_bad, label=None):
    """A ``compute_roots_many`` whose batches fail when they hold a point
    of order ``n_bad`` (of the family labelled ``label``, if given)."""

    def compute_roots_many(points):
        points = list(points)
        if any(n == n_bad and label in (None, fam.label()) for fam, n in points):
            raise MagnitudeError("stuck")
        return real_compute_roots_many(points)

    return compute_roots_many


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


class TestNegativeParameters:
    """argparse alone reads only -N and -N.N as negative numbers; every
    float literal is a parameter value here."""

    def test_exponent_notation_equals_the_joined_form(self, capsys):
        flags = ("roots", "--family", "jacobi", "--beta", "2", "--n", "2")
        code, out = run_cli(capsys, *flags, "--alpha", "-1e-05")
        assert code == 0
        assert run_cli(capsys, *flags, "--alpha=-1e-05") == (0, out)
        assert read_csv(out)[0]["params"] == "alpha=-1e-05 beta=2.0"

    @pytest.mark.parametrize(
        "flags",
        [
            ("jacobi", "--alpha", "-1e-05", "--beta", "-5e-1"),
            ("jacobi", "--alpha", "-1e-300", "--beta", "2.5e+2"),
            ("laguerre", "--nu", "1e-300"),
        ],
        ids=lambda flags: "-".join(flags),
    )
    def test_a_point_runs_again_from_its_params_text(self, capsys, flags):
        code, out = run_cli(capsys, "roots", "--n", "3", "--family", *flags)
        assert code == 0
        params = read_csv(out)[0]["params"]
        again = [arg for pair in params.split() for arg in ("--" + pair.partition("=")[0], pair.partition("=")[2])]
        assert run_cli(capsys, "roots", "--n", "3", "--family", flags[0], *again) == (0, out)


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

    @pytest.mark.parametrize(
        "nu,n,expected",
        [
            ("1e-310", "1", 0), ("1e-310", "2", 0), ("1e-310", "10", 0),
            ("1e-320", "1", 0), ("1e-320", "2", 0),
            # the smallest root is subnormal and keeps few bits, so the
            # checks fail, but without a warning
            ("1e-320", "10", 1),
        ],
    )
    def test_subnormal_nu_runs_without_warnings(self, capsys, nu, n, expected):
        # the second Laguerre form inverted (2 r_i)^2 = 8 z_i on its
        # diagonal, which overflows once z_i is below about 7e-310; the
        # test config turns that RuntimeWarning into an error
        code = cli.main(["verify", "--family", "laguerre", "--nu", nu, "--n", n])
        captured = capsys.readouterr()
        assert (code, captured.err) == (expected, "")
        assert len(read_csv(captured.out)) == 5

    def test_corrupted_sweep_writes_json(self, capsys):
        # the corrupted Hermite N = 2 matrix has a double eigenvalue, so its
        # enclosure intervals overlap; the value must stay finite for JSON
        code, out = run_cli(capsys, "verify", "--corrupt", "--n-max", "6", "--format", "json")
        assert code == 1
        spectral = [r for r in json.loads(out)["results"] if r["check_id"] == "spectrum-match"]
        assert len(spectral) == 71
        assert not any(r["passed"] for r in spectral)

    @pytest.mark.parametrize(
        "family",
        [("hermite",), ("laguerre", "--nu", "2"), ("jacobi", "--alpha", "1", "--beta", "-0.9")],
        ids=lambda argv: argv[0],
    )
    def test_large_order_passes(self, capsys, family):
        code, out = run_cli(capsys, "verify", "--family", *family, "--n", "300")
        assert code == 0
        assert all(row["passed"] == "true" for row in read_csv(out))


# The per-point verify checks that the checks stacked by order replaced,
# kept as their reference: one point, 2-D arrays, its own enclosure.


def reference_terms(rv):
    z = rv.roots
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, math.inf)
    inv2 = 1.0 / (diff * diff)
    kind = rv.family.kind
    if kind is FamilyKind.HERMITE:
        return np.ones_like(z), inv2, inv2.sum(axis=1)
    if kind is FamilyKind.LAGUERRE:
        (nu,) = rv.family.parameters()
        return 4.0 * z, inv2, nu / z + 2.0 * ((z[:, None] + z[None, :]) * inv2).sum(axis=1)
    alpha, beta = rv.family.parameters()
    d = 4.0 * (1.0 - z * z)
    lin = (
        (d[:, None] * inv2).sum(axis=1)
        + 2.0 * (alpha + 1.0) * (1.0 + z) / (1.0 - z)
        + 2.0 * (beta + 1.0) * (1.0 - z) / (1.0 + z)
    )
    return d, inv2, lin


def reference_sqrt_r_S(rv):
    r = np.sqrt(2.0 * rv.roots)
    (nu,) = rv.family.parameters()
    dminus = r[:, None] - r[None, :]
    np.fill_diagonal(dminus, math.inf)
    inv_minus = 1.0 / (dminus * dminus)
    dplus = r[:, None] + r[None, :]
    inv_plus = 1.0 / (dplus * dplus)
    matrix = -8.0 * np.outer(r, r) * inv_minus * inv_plus
    pair = inv_minus + inv_plus
    np.fill_diagonal(pair, 0.0)
    np.fill_diagonal(matrix, 1.0 + 2.0 * nu / (r * r) + 2.0 * pair.sum(axis=1))
    return matrix


def reference_enclosure(matrix, basis):
    image = matrix @ basis
    rho = np.einsum("ij,ij->j", basis, image)
    defect = image - basis * rho
    r = np.sqrt(np.einsum("ij,ij->j", defect, defect))
    order = np.argsort(rho, kind="stable")
    rho, r = rho[order], r[order]
    lower, upper = rho - r, rho + r
    if np.all(lower[1:] > upper[:-1]):
        gap = np.minimum(rho - np.append(-np.inf, upper[:-1]), np.append(lower[1:], np.inf) - rho)
        r = r * r / gap
    return rho, r


def reference_verify_checks(rv, basis, tol, corrupt):
    fam, n = rv.family, rv.n
    d, inv2, lin = reference_terms(rv)
    s = -np.sqrt(np.outer(d, d)) * inv2
    np.fill_diagonal(s, fam.spec.shift + lin)
    matrix = s
    if corrupt:
        matrix = matrix.copy()
        j = min(1, n - 1)
        matrix[0, j] += 0.5
        matrix[j, 0] = matrix[0, j]
    checks = []
    centers, radii = reference_enclosure(matrix, basis)
    predicted = fam.spec.spectrum(n, *fam.parameters())
    spectral_err = float(np.max((np.abs(centers - predicted) + radii) / predicted))
    spectral_tol = (1e-8 if n <= 20 else 1e-6) if tol is None else tol
    checks.append(("spectrum-match", spectral_err, spectral_tol))
    ident_tol = 1e-10 if tol is None else tol
    cross = (np.outer(d, d) * inv2 * inv2).sum(axis=1)
    diag_square = lin * lin + cross
    linear_target, square_target = fam.spec.trace_targets(predicted)
    checks.append(("trace-identity-linear", cli._rel_defect(float(lin.sum()), linear_target), ident_tol))
    if square_target is not None:
        square = float(diag_square.sum())
        checks.append(("trace-identity-square", cli._rel_defect(square, square_target), ident_tol))
    if fam.kind is FamilyKind.LAGUERRE:
        alt = reference_sqrt_r_S(rv)
        diff = np.abs(s - alt) / np.maximum(np.maximum(np.abs(s), np.abs(alt)), np.finfo(float).tiny)
        checks.append(("coordinate-forms-match", float(diff.max()), 1e-13 if tol is None else tol))
    shifted = matrix - fam.spec.shift * np.eye(n)
    matrix_route = (shifted * shifted).sum(axis=1)
    scale = np.maximum(np.maximum(np.abs(matrix_route), np.abs(diag_square)), np.finfo(float).tiny)
    checks.append(("diag-square-consistency", float(np.max(np.abs(matrix_route - diag_square) / scale)), ident_tol))
    return sorted(checks)


@functools.cache
def default_grid():
    """The roots and closed-form eigenbases of every default-grid point."""
    families = cli.default_families()
    roots = compute_roots_many([(fam, n) for fam in families for n in range(fam.spec.min_n, 41)])
    return roots, bases_by_order(roots)


def verify_rows(out, fmt):
    """The rows of a verify output, as ``{point key: [(check_id, value,
    tolerance, passed), ...]}`` with values as floats."""
    if fmt == "csv":
        rows = [
            (r["family"], r["params"], int(r["N"]), r["check_id"], float(r["value"]),
             float(r["tolerance"]), {"true": True, "false": False}[r["passed"]])
            for r in read_csv(out)
        ]
    else:
        rows = [tuple(r[name] for name in cli.COLUMNS["verify"]) for r in json.loads(out)["results"]]
    points = {}
    for row in rows:
        points.setdefault(row[:3], []).append(row[3:])
    return points


class TestStackedChecksMatchReference:
    @pytest.mark.parametrize("corrupt", [False, True], ids=["plain", "corrupt"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_every_default_grid_point(self, capsys, fmt, corrupt):
        code, out = run_cli(capsys, "verify", "--format", fmt, *(["--corrupt"] if corrupt else []))
        assert code == (1 if corrupt else 0)
        got = verify_rows(out, fmt)
        roots, bases = default_grid()
        assert len(got) == len(roots) == 479
        for rv, basis in zip(roots, bases):
            key = (rv.family.kind.value, rv.family.params_text(), rv.n)
            want = [(cid, v, t, v <= t) for cid, v, t in reference_verify_checks(rv, basis, None, corrupt)]
            assert got[key] == want, key

    @pytest.mark.parametrize("corrupt", [False, True], ids=["plain", "corrupt"])
    def test_each_point_of_a_group_matches_its_batch_of_one(self, corrupt):
        # all three kinds at one order, a repeated point, and a tiny-nu
        # point whose eigenbasis recurrence rescales its larger roots
        families = [laguerre(0.5), hermite(), jacobi(1.0, -0.9), laguerre(0.5), laguerre(1e-300)]
        group = compute_roots_many([(fam, 12) for fam in families])
        checks = stage_checks(group, corrupt)
        assert checks[0] == checks[3]
        for rv, point_checks in zip(group, checks):
            assert point_checks == stage_checks([rv], corrupt)[0], rv.family.label()
            (basis,) = closed_form_bases([rv])
            assert point_checks == reference_verify_checks(rv, basis, None, corrupt)


    @pytest.mark.parametrize("tol", [None, 1e-3], ids=["default-tol", "tol"])
    @pytest.mark.parametrize("corrupt", [False, True], ids=["plain", "corrupt"])
    def test_interleaved_kinds_match_their_groups_of_one(self, corrupt, tol):
        # the kinds interleave as H, L, J, L, H, so each kind has two runs
        # but Jacobi, and each check value comes from the group's arrays
        families = [hermite(), laguerre(0.5), jacobi(1.0, -0.9), laguerre(1e-300), hermite()]
        group = compute_roots_many([(fam, 12) for fam in families])
        tables = point_tables(*cli._verify_group(recurrence_band([group]), 0, tol, corrupt))
        assert len(tables) == len(group)
        # the same group behind another in a band of two orders
        other = compute_roots_many([(fam, 20) for fam in families[:2]])
        assert point_tables(*cli._verify_group(recurrence_band([other, group]), 1, tol, corrupt)) == tables
        for rv, got in zip(group, tables):
            (alone,) = point_tables(*cli._verify_group(recurrence_band([[rv]]), 0, tol, corrupt))
            assert got == alone, rv.family.label()
            assert tuple(got[0][0]) == cli.VERIFY_CHECKS[rv.family.kind]


def point_tables(counts, columns, summaries):
    """Each point's ``(columns, summary)`` of a verify chunk, in order."""
    starts = [0, *itertools.accumulate(counts)]
    return [
        (tuple(column[start:stop] for column in columns), summary)
        for start, stop, summary in zip(starts, starts[1:], summaries)
    ]


def stage_checks(group, corrupt):
    """Each point's ``(check_id, value, tolerance)`` from the verify stage,
    in its row order."""
    return [
        list(zip(*columns[:3]))
        for _, counts, chunk, summaries in cli._verify_stage(group, "csv", None, corrupt)
        for columns, _ in point_tables(counts, chunk, summaries)
    ]


class TestStackSize:
    # at 50 entries most bands hold one group, at 200 some bands hold the
    # groups of several orders
    @pytest.mark.parametrize("command, cap", [("verify", 50), ("verify", 200), ("bounds", 50)])
    def test_split_groups_write_the_same_output(self, monkeypatch, capsys, command, cap):
        argv = (command, "--n-max", "10")
        whole = run_cli(capsys, *argv)
        groups = []
        real_pair_terms = covariance.pair_terms

        def pair_terms(group):
            groups.append((group[0].n, len(group)))
            return real_pair_terms(group)

        bands = []
        real_band = cli.OrthonormalBand

        def band(band_groups, *args):
            bands.append([(group[0].n, len(group)) for group in band_groups])
            return real_band(band_groups, *args)

        # verify calls the pair terms through cli, bounds through its
        # interaction sums in covariance
        monkeypatch.setattr(cli, "pair_terms", pair_terms)
        monkeypatch.setattr(covariance, "pair_terms", pair_terms)
        monkeypatch.setattr(cli, "OrthonormalBand", band)
        monkeypatch.setattr(covariance, "_STACK_ENTRIES", cap)
        assert run_cli(capsys, *argv) == whole
        assert len(groups) > 10
        assert all(size <= max(1, cap // (n * n)) for n, size in groups)
        if command == "verify":
            # every group in one band, and a band of several groups within
            # the cap
            assert sorted(group for b in bands for group in b) == sorted(groups)
            assert any(len(b) == 1 for b in bands)
            assert all(len(b) == 1 or sum(size * n * n for n, size in b) <= cap for b in bands)
            if cap == 200:
                assert any(len({n for n, _ in b}) > 1 for b in bands)


def _known_failure(reason):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=reason)


# off the default grid: alpha, beta -> -1, nu -> 0 or large, N in the
# hundreds; Hermite and Laguerre nu = 2 at N = 300 are in
# TestVerifyCommand.test_large_order_passes
OFF_GRID = [
    pytest.param(("laguerre", "--nu", "1e-10", "--n", "3"), id="laguerre-1e-10-n3"),
    pytest.param(("laguerre", "--nu", "1e-6", "--n", "100"), id="laguerre-1e-6-n100"),
    pytest.param(("laguerre", "--nu", "1e-300", "--n", "40"), id="laguerre-1e-300-n40"),
    *(
        pytest.param(
            ("jacobi", "--alpha", "-0.999", "--beta", "-0.999", "--n", n),
            id=f"jacobi-0.999-0.999-n{n}",
            marks=_known_failure(f"ROADMAP item 2: {checks}"),
        )
        for n, checks in (
            ("3", "trace-identity-linear 1.2e-10"),
            ("40", "trace-identity-linear 3.1e-9"),
            ("200", "trace-identity-linear 1.6e-8 and spectrum-match 1.19e-6"),
        )
    ),
    pytest.param(
        ("jacobi", "--alpha", "-0.9999", "--beta", "5", "--n", "300"),
        id="jacobi-0.9999-5-n300",
        marks=_known_failure("ROADMAP item 2: trace-identity-linear 2.7e-10"),
    ),
    pytest.param(
        ("jacobi", "--alpha", "-0.9999", "--beta", "-0.9999", "--n", "200"),
        id="jacobi-0.9999-0.9999-n200",
        marks=_known_failure("ROADMAP items 2 and 6: trace-identity-linear 2.0e-10"),
    ),
    pytest.param(
        ("laguerre", "--nu", "1000", "--n", "300"),
        id="laguerre-1000-n300",
        marks=_known_failure("FOUND in CHANGES.md: coordinate-forms-match 1.31e-13"),
    ),
]


class TestOffGridStress:
    @pytest.mark.parametrize("flags", OFF_GRID)
    def test_verify_passes(self, capsys, flags):
        code, out = run_cli(capsys, "verify", "--family", *flags)
        failed = {row["check_id"]: row["value"] for row in read_csv(out) if row["passed"] != "true"}
        assert (code, failed) == (0, {})


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


    @pytest.mark.parametrize("flags", [("--n", "1"), ("--n-max", "3")])
    def test_comparator_1_at_tiny_nu(self, capsys, flags):
        # at N = 1 the comparator-1 bound divides by sqrt(((N - 1) + nu) N)
        code, out = run_cli(capsys, "bounds", "--family", "laguerre", "--nu", "1e-20", *flags)
        assert code == 0
        assert {row["N"] for row in read_csv(out)} == ({"1"} if flags[0] == "--n" else {"1", "2", "3"})

    def test_infinite_sharpness_is_null_in_json(self, capsys):
        # the comparator-2 bound 5.657e-321 is subnormal, so each sharpness
        # overflows to an infinity, which CSV writes and JSON cannot
        argv = ("bounds", "--family", "laguerre", "--nu", "1e-320", "--n", "5")
        code, out = run_cli(capsys, *argv)
        assert code == 0
        rows = [r for r in read_csv(out) if r["bound_id"] == "laguerre-gap-comparator-2"]
        assert [(r["bound_value"], r["sharpness"]) for r in rows] == [("5.657e-321", "inf")] * 4
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == 0
        rows = [r for r in json.loads(out)["results"] if r["bound_id"] == "laguerre-gap-comparator-2"]
        assert [(r["bound_value"], r["sharpness"]) for r in rows] == [(5.657e-321, None)] * 4


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path, capsys):
        args = ("bounds", "--family", "laguerre", "--nu", "2", "--n-min", "1", "--n-max", "6")
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert cli.main([*args, "--out", str(first)]) == 0
        assert cli.main([*args, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize(
        "args,jobs",
        [
            (("verify", "--family", "jacobi", "--n-min", "1", "--n-max", "8", "--format", "json"), "2"),
            (("roots", "--family", "jacobi", "--n-min", "1", "--n-max", "8"), "2"),
            (("bounds", "--family", "laguerre", "--n-min", "1", "--n-max", "8"), "2"),
            # 20 points of five Jacobi families in runs of 6, 7 and 7, so
            # families are split across the runs
            (("verify", "--family", "jacobi", "--n-min", "1", "--n-max", "4"), "3"),
        ],
    )
    def test_parallel_output_matches_serial(self, tmp_path, args, jobs):
        serial = tmp_path / "serial.out"
        parallel = tmp_path / "parallel.out"
        assert cli.main([*args, "--out", str(serial)]) == 0
        assert cli.main([*args, "--out", str(parallel), "--jobs", jobs]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestGoldenOutput:
    # sha256 of the full output, pinned so that refactors keep every byte;
    # these commands run no BLAS-backed product, so the digest is portable
    @pytest.mark.parametrize(
        "argv,digest",
        [
            golden(
                ["roots", "--n-max", "8"],
                "f1508d65461442d61e47f10d1e09f68b91a3e298067d4f564b1d3fafc5540b07",
            ),
            golden(
                ["roots", "--n-max", "8", "--format", "json"],
                "457dbcd18206e439d88951007adbdd96b7e205a6b5ee6b2f8c7ebff7269c23e9",
            ),
            golden(
                ["bounds", "--n-max", "8"],
                "c0555decccbfea1bf86373d786c00defa5b77200638ab98d7b95d706b5b28e39",
            ),
            golden(
                ["bounds", "--n-max", "8", "--format", "json"],
                "7bb15efc380b5a441f8d0cb25b6d22c8d74d81583e299f6f349cdef482a283d0",
            ),
            # the full default sweep, 64,757 rows
            golden(
                ["bounds"],
                "06cda08e399a0950c5890ca7e4722dfffbcfffcd0975cfc5f039265e339984cd",
            ),
            # every default-grid root, 9,839 in 479 points: a root that
            # moves by one ulp and changes no bound cell shows here
            golden(
                ["roots"],
                "28305d0c41de9f672b1a698b3159d6477c2910e75849f223bf6cd5d56f57522e",
            ),
            # the full default sweep as JSON
            golden(
                ["bounds", "--format", "json"],
                "4c1d537fef2bb43afcbe8f70a3d3282c6d672f35139a1de806dc5b2c254e41c2",
            ),
            # off the default grid: nu tiny and large, alpha = beta large,
            # and alpha below -1/2, where the asymptotic comparator does not apply
            golden(
                ["bounds", "--family", "laguerre", "--nu", "1e-20", "--n-max", "40"],
                "93c96277c6a9ea20083cad8d95a96673ae90d94b2b1b2464b72be06b2710bf97",
            ),
            golden(
                ["bounds", "--family", "laguerre", "--nu", "1000", "--n-max", "40"],
                "ee28e3ea28da1b0f1dc1fef0eb03eefd422eb9e46c0dda0273c0f0d3a6efda83",
            ),
            golden(
                ["bounds", "--family", "jacobi", "--alpha", "50", "--beta", "50", "--n-max", "40", "--format", "json"],
                "68a6a7fbcfdb7ebbc577a5a82b868e64ed5f82f2460ae95f0f91126ec2039ca9",
            ),
            golden(
                ["bounds", "--family", "jacobi", "--alpha", "-0.7", "--beta", "3", "--n-max", "40", "--format", "json"],
                "69542a1399ffbe7f4e269c677b0e0b3ae9b604c9e73387c83f5391cc8ad2637c",
            ),
        ],
    )
    def test_sha256(self, capsys, argv, digest):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("command", ["roots", "verify", "bounds"])
    def test_json_layout_is_that_of_one_dump(self, capsys, command):
        # the document is written in pieces; it must read as if dumped whole
        code, out = run_cli(capsys, command, "--n-max", "4", "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


def per_cell_format(value):
    """The CSV rule before formatting went per column: one type dispatch
    per cell.  Kept as the reference for the column formatters."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


FLOATS = [
    0.5, -2.25, 0.1, 1 / 3, 2.220446049250313e-16, 1e16, 123456789.125, 0.0, -0.0,
    1e-300, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
]
INTS = [0, 1, 7, 40, 64757]
BOOLS = [True, False]
TEXTS = ["hermite", "-", "alpha=1.0 beta=-0.9", "laguerre-gap-bessel-strong", 'a "quoted" \\ 100% \u03bd']

# the values each CSV column can hold
COLUMN_VALUES = {
    "family": TEXTS, "params": TEXTS, "N": INTS,
    "i": INTS, "z_i": FLOATS, "gap_i": FLOATS + [None],
    "check_id": TEXTS, "value": FLOATS, "tolerance": FLOATS, "passed": BOOLS,
    "bound_id": TEXTS, "index": INTS + [None], "bound_value": FLOATS, "observed_value": FLOATS,
    "slack": FLOATS, "holds": BOOLS, "sharpness": FLOATS,
}
# the values of the columns that only JSON writes
JSON_ONLY_VALUES = {"comparator": BOOLS, "note": TEXTS + [""]}


def json_cell(value):
    """The JSON rule for one cell: ``json.dumps`` of the value, with a
    float that is not finite written as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return "null"
    return json.dumps(value)


def json_elements(names, rows):
    """The JSON text of rows as ``json.dumps`` places them in the
    document's ``results`` list, non-finite floats as null."""
    return ",\n".join(
        "    " + json.dumps(
            {name: None if json_cell(value) == "null" else value for name, value in zip(names, row)},
            indent=2, sort_keys=True,
        ).replace("\n", "\n    ")
        for row in rows
    )


class TestColumnFormats:
    def test_every_column_has_a_formatter(self):
        names = {name for columns in cli.COLUMNS.values() for name in columns}
        assert set(cli.CSV_FORMATS) == names == set(COLUMN_VALUES)
        json_only = {name for columns in cli.JSON_ONLY_COLUMNS.values() for name in columns}
        assert set(cli.JSON_FORMATS) == names | json_only == set(COLUMN_VALUES) | set(JSON_ONLY_VALUES)

    @pytest.mark.parametrize("name", sorted(COLUMN_VALUES))
    def test_formatter_matches_per_cell_rule(self, name):
        for value in COLUMN_VALUES[name]:
            assert cli.CSV_FORMATS[name](value) == per_cell_format(value), value

    @pytest.mark.parametrize("name", sorted({**COLUMN_VALUES, **JSON_ONLY_VALUES}))
    def test_json_formatter_matches_json_dumps(self, name):
        for value in {**COLUMN_VALUES, **JSON_ONLY_VALUES}[name]:
            assert cli.JSON_FORMATS[name](value) == json_cell(value), value
        if name in ("z_i", "value", "bound_value", "slack", "sharpness"):
            assert [cli.JSON_FORMATS[name](value) for value in (math.nan, math.inf, -math.inf)] == ["null"] * 3

    def test_json_summaries_write_non_finite_floats_as_null(self):
        summary = {"worst": {"a": math.inf, "b": 0.5}, "ratio": -math.inf, "mean": math.nan, "n": 3}
        assert cli._json_safe(summary) == {"worst": {"a": None, "b": 0.5}, "ratio": None, "mean": None, "n": 3}

    # a point key with characters that JSON escapes and a "%"
    @pytest.mark.parametrize("key", [("jacobi", "alpha=1.0 beta=-0.9", 12), ("x%s", TEXTS[-1], 7)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", sorted(cli.COLUMNS))
    def test_lines_match_per_cell_rule(self, command, fmt, key):
        names = cli.COLUMNS[command]
        width = len(names) - len(cli.POINT_KEY)
        count = max(len(values) for values in COLUMN_VALUES.values())
        columns = [itertools.cycle(COLUMN_VALUES[name]) for name in names[len(cli.POINT_KEY):]]
        # bound rows carry the two JSON-only fields, which CSV drops
        json_only = cli.JSON_ONLY_COLUMNS.get(command, ())
        extra = [itertools.cycle(JSON_ONLY_VALUES[name]) for name in json_only]
        rows = list(itertools.islice(zip(*columns, *extra), count))
        # every other column as a (pool, keys) pair, its pool reversed
        chunk = [
            (values[::-1], np.arange(len(values))[::-1]) if k % 2 else values
            for k, values in enumerate(map(list, zip(*rows)))
        ]
        cells = cli._chunk_cells(command, fmt, chunk)
        for start, stop in ((0, len(rows)), (1, len(rows) - 2)):
            if fmt == "csv":
                head = ",".join(map(per_cell_format, key)) + ","
                lines = (",".join(map(per_cell_format, row[:width])) for row in rows[start:stop])
                expected = "".join(head + line + "\n" for line in lines)
            else:
                expected = json_elements(names + json_only, [key + row for row in rows[start:stop]])
            assert cli._point_text(command, fmt, key, cells, start, stop) == expected
        assert cli._point_text(command, fmt, key, cells, 3, 3) == ""
        empty = cli._chunk_cells(command, fmt, [[] for _ in rows[0]])
        assert cli._point_text(command, fmt, key, empty, 0, 0) == ""


class TestBoundLines:
    """The bound lines, written from the columns with each side formatted
    once, against the per-cell rules on the entries of the scalar rule."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "family,n",
        [("hermite", 2), ("hermite", 9), ("laguerre", 1), ("laguerre", 7), ("jacobi", 1), ("jacobi", 6)],
    )
    def test_grid_points(self, family, n, fmt):
        for fam in cli.default_families((FamilyKind(family),)):
            rv = compute_roots(fam, n)
            self.check(("x", fam.params_text(), n), rows_at(bounds_mod.bound_rows([rv]), 0), fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("name", sorted(EDGE_ROWS))
    def test_edge_rows(self, name, fmt):
        self.check(("jacobi", "alpha=1.0 beta=-0.9", 12), EDGE_ROWS[name], fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_pool_value_is_formatted_once_per_chunk(self, monkeypatch, fmt):
        calls = []

        def counting(name, formatter, value):
            calls.append((name, repr(value)))
            return formatter(value)

        formats = cli.CSV_FORMATS if fmt == "csv" else cli.JSON_FORMATS
        for name, formatter in list(formats.items()):
            monkeypatch.setitem(formats, name, functools.partial(counting, name, formatter))
        batch = compute_roots_many(MIXED_POINTS)
        names = cli._column_names("bounds", fmt)
        chunks = list(cli._bounds_stage(batch, fmt, None, False))
        # a chunk per run of one kind, which the batch interleaves
        runs = [list(range(len(batch))[members]) for _, members in covariance.kind_runs(batch)]
        assert [indices for indices, *_ in chunks] == runs and len(runs) > 3
        for indices, counts, columns, _ in chunks:
            calls.clear()
            cells = cli._chunk_cells("bounds", fmt, columns)
            pools = {name: column[0] for name, column in zip(names, columns) if isinstance(column, tuple)}
            assert set(pools) >= {"bound_id", "index", "bound_value", "observed_value"}
            # each pool value once, in pool order, and nothing else
            pooled = [(name, repr(value)) for name, pool in pools.items() for value in cli._python(pool)]
            assert calls == pooled
            # the rows share sides, so the pools are smaller than the columns
            assert len(pools["observed_value"]) < sum(counts)
            calls.clear()
            starts = np.cumsum([0, *counts]).tolist()
            for i, start, stop in zip(indices, starts, starts[1:]):
                key = (batch[i].family.kind.value, batch[i].family.params_text(), batch[i].n)
                cli._point_text("bounds", fmt, key, cells, start, stop)
            # writing the points formats their keys and per-entry columns alone
            assert {name for name, _ in calls} == set(cli.POINT_KEY) | set(names) - set(pools)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_chunking_never_changes_bytes(self, fmt):
        # Jacobi alpha = beta points have two rows that the others lack, and
        # the gap rows have no entries at N = 1
        points = [
            (fam, n)
            for fam in (jacobi(1.0, 1.0), jacobi(1.0, -0.9), jacobi(-0.5, -0.5), hermite(), laguerre(0.5))
            for n in (1, 2, 3)
            if n >= fam.spec.min_n
        ]
        whole = cli._point_outcomes("bounds", fmt, points, None, False)
        for point, outcome in zip(points, whole):
            assert outcome == cli._point_outcomes("bounds", fmt, [point], None, False)[0], point

    @staticmethod
    def check(key, rows, fmt):
        run = point_run(rows)
        if fmt == "csv":
            head = ",".join(map(per_cell_format, key)) + ","
            width = len(cli.COLUMNS["bounds"]) - len(key)
            lines = (",".join(map(per_cell_format, rep[:width])) for rep in expand(rows))
            expected = "".join(head + line + "\n" for line in lines)
        else:
            names = cli.COLUMNS["bounds"] + cli.JSON_ONLY_COLUMNS["bounds"]
            expected = json_elements(names, [key + tuple(rep) for rep in expand(rows)])
        cells = cli._chunk_cells("bounds", fmt, run.columns)
        assert cli._point_text("bounds", fmt, key, cells, 0, run.starts[1]) == expected


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
            ["roots", "--family", "hermite", "--n", "3", "--n-step", "0"],
            ["roots", "--family", "hermite", "--n-min", "0", "--n-max", "3"],
            ["roots", "--family", "jacobi", "--alpha", "1", "--beta", "-1", "--n", "2"],
            ["roots", "--family", "laguerre", "--nu", "2", "--alpha", "1", "--n", "2"],
            ["verify", "--family", "hermite", "--n", "3", "--tol", "inf", "--format", "json"],
            ["verify", "--family", "hermite", "--n", "3", "--tol", "nan", "--format", "json"],
            ["verify", "--family", "hermite", "--n", "3", "--tol", "0"],
            ["verify", "--family", "hermite", "--n", "3", "--tol", "-1"],
            ["roots", "--family", "hermite", "--n", "3", "--tol", "1e-3"],
            ["bounds", "--family", "hermite", "--n", "3", "--tol", "1e-3"],
            ["bounds", "--family", "hermite", "--n", "1"],
            ["frobnicate"],
        ],
    )
    def test_exit_code_two(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["hermite", "--nu", "1"], "hermite takes exactly the parameters (), got (nu)"),
            (["jacobi", "--alpha", "1"], "jacobi takes exactly the parameters (alpha, beta), got (alpha)"),
            (["laguerre", "--nu", "-3"], "laguerre requires nu > 0, got -3.0"),
            # a negative value in exponent notation is a value, not an option
            (["laguerre", "--nu", "-5e-1"], "laguerre requires nu > 0, got -0.5"),
            (["laguerre", "--nu", "-2e0"], "laguerre requires nu > 0, got -2.0"),
            (["laguerre", "--nu", "-inf"], "laguerre requires nu > 0, got -inf"),
            (["jacobi", "--alpha", "-1e-05", "--beta", "-1E+1"], "jacobi requires beta > -1, got -10.0"),
        ],
    )
    def test_parameter_errors_are_worded_by_the_family_record(self, flags, message, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["roots", "--n", "2", "--family", *flags])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(f"rootgaps: error: {message}\n")


    def test_negative_tolerance_in_exponent_notation(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--family", "hermite", "--n", "3", "--tol", "-1e-3"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith("rootgaps: error: --tol must be finite and > 0\n")

    def test_unwritable_out_path(self, monkeypatch, tmp_path, capsys):
        # checked before the sweep: a sweep that ran would exit 3 here
        monkeypatch.setattr(cli, "compute_roots_many", explode_at(3))
        target = tmp_path / "missing" / "x.csv"
        code = cli.main(["roots", "--family", "hermite", "--n", "3", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"rootgaps: cannot write {target}: No such file or directory\n"
        assert not target.parent.exists()


class TestClosedPipe:
    def test_reader_closing_early_leaves_exit_code_and_stderr_clean(self):
        # the Hermite bound table is far larger than a pipe buffer, so the
        # write meets the closed pipe
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "rootgaps.cli", "bounds", "--family", "hermite"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=path),
        )
        header = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""
        assert header == ",".join(cli.COLUMNS["bounds"]).encode() + b"\n"


class RecordingPool:
    """Stands in for the process pool: records the requested worker count
    and maps in this process, so no worker is ever started."""

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
        monkeypatch.setattr(cli, "_process_pool", RecordingPool)
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert RecordingPool.created == workers
        monkeypatch.undo()
        assert run_cli(capsys, *argv[:-2]) == (code, out)

    def test_serial_sweep_loads_no_process_pool(self):
        script = (
            "import rootgaps.cli as cli; "
            "assert cli.main(['roots', '--family', 'hermite', '--n-max', '4', '--out', sys.argv[1]]) == 0"
        )
        assert loaded_after(script, ("multiprocessing", "concurrent")) == []

    @pytest.mark.parametrize(
        "command,loaded", [("roots", []), ("verify", []), ("bounds", ["rootgaps.bounds"])],
    )
    def test_only_the_bounds_command_loads_the_bound_catalogue(self, command, loaded):
        script = (
            "import rootgaps.cli as cli; "
            f"assert cli.main([{command!r}, '--family', 'hermite', '--n-max', '4', '--out', sys.argv[1]]) == 0"
        )
        assert loaded_after(script, ("rootgaps.bounds", "multiprocessing")) == loaded

    def test_package_import_loads_no_submodule(self):
        assert loaded_after("import rootgaps", ("rootgaps.",)) == []


class TestNumericalFailure:
    def test_exit_code_three(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "compute_roots_many", explode_at(3))
        code = cli.main(["roots", "--family", "hermite", "--n", "3"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == "rootgaps: numerical failure: hermite N=3: stuck\n"

    @pytest.mark.parametrize(
        "flags,label,jobs,workers",
        [
            (["--nu", "2"], None, ["--jobs", "1"], []),
            (["--nu", "2"], None, ["--jobs", "2"], [2]),
            # the failure sits in the second family of the sweep, inside
            # the first of the two runs of points
            ([], "laguerre(nu=0.5)", ["--jobs", "2"], [2]),
            # the same in a serial sweep, whose one batch holds all six
            # families
            ([], "laguerre(nu=0.5)", ["--jobs", "1"], []),
        ],
    )
    def test_names_failing_point(self, monkeypatch, capsys, flags, label, jobs, workers):
        monkeypatch.setattr(RecordingPool, "created", [])
        monkeypatch.setattr(cli, "_process_pool", RecordingPool)
        monkeypatch.setattr(cli, "compute_roots_many", explode_at(4, label))
        argv = ["verify", "--family", "laguerre", *flags, "--n-min", "2", "--n-max", "6"]
        code = cli.main([*argv, *jobs])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            f"rootgaps: numerical failure: {label or 'laguerre(nu=2.0)'} N=4: stuck\n"
        )
        assert RecordingPool.created == workers

    @pytest.mark.parametrize("jobs,workers", [("1", []), ("2", [2])])
    def test_names_failing_point_inside_an_order_group(self, monkeypatch, capsys, jobs, workers):
        # the pair terms of the N = 4 group of the default families fail
        # when it holds laguerre(nu=0.5); Hermite N = 4, in the same group,
        # comes first in sweep order but does not fail alone
        real_pair_terms = cli.pair_terms

        def pair_terms(group):
            if any(rv.n == 4 and rv.family.label() == "laguerre(nu=0.5)" for rv in group):
                raise MagnitudeError("stuck")
            return real_pair_terms(group)

        monkeypatch.setattr(RecordingPool, "created", [])
        monkeypatch.setattr(cli, "_process_pool", RecordingPool)
        monkeypatch.setattr(cli, "pair_terms", pair_terms)
        code = cli.main(["verify", "--n-min", "2", "--n-max", "6", "--jobs", jobs])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == "rootgaps: numerical failure: laguerre(nu=0.5) N=4: stuck\n"
        assert RecordingPool.created == workers

    @pytest.mark.parametrize(
        "value,reason",
        [
            ("1e100", "recurrence coefficients overflow the floating-point range"),
            ("1e160", "recurrence coefficients overflow the floating-point range"),
        ],
    )
    def test_overflowing_parameters(self, capsys, value, reason):
        code = cli.main(
            ["roots", "--family", "jacobi", "--alpha", value, "--beta", value, "--n", "3"]
        )
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            f"rootgaps: numerical failure: jacobi(alpha={float(value)!r} beta={float(value)!r})"
            f" N=3: {reason}\n"
        )

    @pytest.mark.parametrize("command", ["verify", "bounds"])
    def test_coincident_roots_at_large_nu(self, capsys, command):
        # two of the three roots round to the same double, 9.999999999999999e+31
        code = cli.main([command, "--family", "laguerre", "--nu", "1e32", "--n", "3"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (
            "rootgaps: numerical failure: laguerre(nu=1e+32) N=3: "
            "neighbouring roots coincide in double precision\n"
        )

    @pytest.mark.parametrize("earlier", [b"earlier output\n", None])
    def test_failed_sweep_leaves_out_as_it_was(self, monkeypatch, tmp_path, capsys, earlier):
        monkeypatch.setattr(cli, "compute_roots_many", explode_at(3))
        target = tmp_path / "x.csv"
        if earlier is not None:
            target.write_bytes(earlier)
        assert cli.main(["roots", "--family", "hermite", "--n", "3", "--out", str(target)]) == 3
        assert (target.read_bytes() if target.exists() else None) == earlier
