"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import math
from functools import lru_cache

import numpy as np

from rootgaps import (
    DenseSymmetric,
    bound_set,
    build_S,
    compute_roots,
    hermite,
    interaction_sums,
    jacobi,
    laguerre,
    laguerre_sqrt_r_S,
    trace_power,
)

from conftest import JACOBI_PARAMS, LAGUERRE_NUS, ones_kernel_projection, random_symmetric

N_MAX = 40
_TINY = float(np.finfo(float).tiny)


def check(ok: bool, text: str) -> None:
    print(("PASS " if ok else "FAIL ") + text)
    assert ok, text


def spectral_tolerance(n: int) -> float:
    return 1e-8 if n <= 20 else 1e-6


@lru_cache(maxsize=None)
def roots_of(family, n):
    return compute_roots(family, n)


@lru_cache(maxsize=None)
def spectrum_error(family, n):
    computed = np.linalg.eigvalsh(build_S(roots_of(family, n)).entries)
    predicted = family.spec.spectrum(n, *family.parameters())
    return float(np.max(np.abs(computed - predicted) / predicted))


def test_criterion_1_hermite_spectra():
    worst = 0.0
    ok = True
    for n in range(2, N_MAX + 1):
        err = spectrum_error(hermite(), n)
        worst = max(worst, err)
        ok = ok and err <= spectral_tolerance(n)
    check(ok, f"criterion 1: Hermite spectra match 1..N, worst relative error {worst:.3e}")


def test_criterion_2_laguerre_spectra_and_coordinate_forms():
    worst_spec = 0.0
    worst_form = 0.0
    ok = True
    for nu in LAGUERRE_NUS:
        fam = laguerre(nu)
        for n in range(1, N_MAX + 1):
            err = spectrum_error(fam, n)
            worst_spec = max(worst_spec, err)
            ok = ok and err <= spectral_tolerance(n)
            rv = roots_of(fam, n)
            base = build_S(rv).entries
            alt = laguerre_sqrt_r_S(rv).entries
            scale = np.maximum(np.maximum(np.abs(base), np.abs(alt)), _TINY)
            form_err = float(np.max(np.abs(base - alt) / scale))
            worst_form = max(worst_form, form_err)
            ok = ok and form_err <= 1e-13
    check(
        ok,
        "criterion 2: Laguerre spectra match 2,4,..,2N "
        f"(worst {worst_spec:.3e}) and coordinate forms agree (worst {worst_form:.3e})",
    )


def test_criterion_3_jacobi_spectra():
    worst = 0.0
    ok = True
    for alpha, beta in JACOBI_PARAMS:
        fam = jacobi(alpha, beta)
        for n in range(1, N_MAX + 1):
            err = spectrum_error(fam, n)
            worst = max(worst, err)
            ok = ok and err <= spectral_tolerance(n)
    check(ok, f"criterion 3: Jacobi spectra match the closed form, worst relative error {worst:.3e}")


def test_criterion_4_trace_identities():
    worst = 0.0
    ok = True
    for n in range(2, N_MAX + 1):
        inv2, inv4 = interaction_sums(roots_of(hermite(), n))
        linear = float(inv2.sum())
        target = n * (n - 1) / 2.0
        err = abs(linear - target) / target
        square = float((inv2**2 + inv4).sum())
        target_sq = n * (n - 1) * (2 * n - 1) / 6.0
        err = max(err, abs(square - target_sq) / target_sq)
        worst = max(worst, err)
        ok = ok and err <= 1e-10
    for nu in LAGUERRE_NUS:
        fam = laguerre(nu)
        for n in range(1, N_MAX + 1):
            lin, cross = interaction_sums(roots_of(fam, n))
            # tr(S_N - I_N) = 1 + 3 + ... + (2N-1) = N^2
            linear = float(lin.sum())
            err = abs(linear - n * n) / (n * n)
            square = float((lin**2 + cross).sum())
            target_sq = n * (2 * n - 1) * (2 * n + 1) / 3.0
            err = max(err, abs(square - target_sq) / target_sq)
            worst = max(worst, err)
            ok = ok and err <= 1e-10
    check(ok, f"criterion 4: trace identities hold, worst relative residual {worst:.3e}")


def test_criterion_5_bound_suite():
    families = [hermite()]
    families += [laguerre(nu) for nu in LAGUERRE_NUS]
    families += [jacobi(a, b) for a, b in JACOBI_PARAMS]
    checked = 0
    violations = []
    for fam in families:
        start = 2 if fam == hermite() else 1
        for n in range(start, N_MAX + 1):
            for rep in bound_set(roots_of(fam, n)):
                if rep.comparator or rep.note:
                    continue
                checked += 1
                if not rep.holds:
                    violations.append((fam.label(), n, rep.bound_id, rep.index, rep.slack))
    check(
        not violations,
        f"criterion 5: all {checked} applicable derived bound evaluations hold "
        f"({len(violations)} violations)",
    )


def test_criterion_6_equality_certificates():
    failures = []

    reports = {r.bound_id: r for r in bound_set(roots_of(hermite(), 2))}
    gap = reports["hermite-gap"]
    if abs(gap.observed_value - math.sqrt(2.0)) > 1e-14 or abs(gap.slack) > 1e-12:
        failures.append("hermite gap")

    for nu in LAGUERRE_NUS:
        rep = next(
            r for r in bound_set(roots_of(laguerre(nu), 1))
            if r.bound_id == "laguerre-min-root"
        )
        if abs(rep.slack) > 1e-12:
            failures.append(f"laguerre min-root nu={nu}")

    # the strong edge floor is exact at N = 1 on the side whose weight
    # parameter is not larger; both sides when alpha = beta
    tight_sides = {
        (-0.5, -0.5): ("upper", "lower"),
        (0.0, 0.0): ("upper", "lower"),
        (10.0, 10.0): ("upper", "lower"),
        (1.0, -0.9): ("lower",),
        (2.0, 3.0): ("upper",),
    }
    for (alpha, beta), sides in tight_sides.items():
        reports = {r.bound_id: r for r in bound_set(roots_of(jacobi(alpha, beta), 1))}
        for side in sides:
            rep = reports[f"jacobi-{side}-edge-strong"]
            if abs(rep.slack) > 1e-12:
                failures.append(f"jacobi {side} edge ({alpha},{beta})")

    check(not failures, f"criterion 6: equality certificates exact to 1e-12 {failures or ''}")


def test_criterion_7_trace_inequalities_on_random_matrices():
    rng = np.random.default_rng(173)
    worst_plain = math.inf
    worst_projected = math.inf
    ok = True
    for case in range(200):
        n = int(rng.integers(2, 11))
        plain = DenseSymmetric(random_symmetric(rng, n))
        projected = DenseSymmetric(ones_kernel_projection(random_symmetric(rng, n)))
        factor = n / (n - 1)
        for r in range(4):
            k = 2**r
            lhs = trace_power(plain, k)
            slack = lhs - float(np.sum(np.diag(plain.entries) ** k))
            worst_plain = min(worst_plain, slack)
            ok = ok and slack >= -1e-12 * max(1.0, abs(lhs))
            lhs = trace_power(projected, k)
            slack = lhs - factor ** (k - 1) * float(np.sum(np.diag(projected.entries) ** k))
            worst_projected = min(worst_projected, slack)
            ok = ok and slack >= -1e-12 * max(1.0, abs(lhs))
    check(
        ok,
        "criterion 7: trace inequalities hold on 200 random and 200 projected "
        f"matrices (worst slacks {worst_plain:.3e}, {worst_projected:.3e})",
    )


def test_criterion_8_comparator_crossovers():
    def bound_of(reports, bound_id):
        return next(r for r in reports if r.bound_id == bound_id).bound_value

    failures = []

    small = bound_set(roots_of(laguerre(0.1), 10))
    if not bound_of(small, "laguerre-gap-comparator-3") > bound_of(small, "laguerre-gap-strong"):
        failures.append("pi-comparator should win at nu=0.1")
    large = bound_set(roots_of(laguerre(50.0), 10))
    if not bound_of(large, "laguerre-gap-comparator-3") < bound_of(large, "laguerre-gap-strong"):
        failures.append("pi-comparator should lose at nu=50")

    high = bound_set(roots_of(jacobi(5.0, 0.0), 30))
    if not bound_of(high, "jacobi-upper-edge-asymptotic") > bound_of(high, "jacobi-upper-edge-strong"):
        failures.append("asymptotic comparator should win at alpha=5")
    low = bound_set(roots_of(jacobi(0.5, 0.5), 30))
    if not bound_of(low, "jacobi-upper-edge-asymptotic") < bound_of(low, "jacobi-upper-edge-strong"):
        failures.append("asymptotic comparator should lose at alpha=0.5")

    check(not failures, f"criterion 8: comparator crossovers reproduced {failures or ''}")
