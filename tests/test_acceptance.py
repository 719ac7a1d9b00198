"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line (visible under pytest -s or -v
via the test name) and enforces the stated tolerances and time budgets.
"""

import math
import time
import timeit

import numpy as np
import pytest

from matfrob import (
    Exp,
    JordanSpec,
    Monomial,
    NonRealResultError,
    Polynomial,
    PrincipalRoot,
    Tolerance,
    eventually_positive_check,
    frobenius_check,
    matrix_function,
    power_threshold,
    strong_pf_check,
    synthesize_matrix,
    taylor_oracle,
    verify_preservation_theorem,
)
from matfrob.core import norm_inf
from matfrob.funcalc import func_jordan_block, func_real_jordan_block
from matfrob.sampling import random_pf_factors

from helpers import (
    NEGATE,
    differentiable_catalogue,
    jordan_block,
    random_domain_points,
    spec_at,
)
from test_funcalc import SkewedDerivatives, TiltedSlope, pair_transport, row

B = np.array([[2.0, 1.0], [2.0, -1.0]])


def _line(tag: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def test_criterion_1_golden_matrix_and_threshold():
    report = strong_pf_check(B)
    rho_err = abs(report.rho - (1.0 + math.sqrt(17.0)) / 2.0)
    threshold = power_threshold(B, 64)
    # warm everything once, then take the best of 20 timed runs
    elapsed = min(
        timeit.repeat(
            lambda: (strong_pf_check(B), power_threshold(B, 64)),
            number=1,
            repeat=20,
        )
    )
    ok = report.overall and rho_err < 1e-9 and threshold == 4 and elapsed < 1e-3
    _line(
        "criterion 1 (golden matrix)",
        ok,
        f"overall={report.overall} rho_err={rho_err:.2e} "
        f"threshold={threshold} best_time={elapsed * 1e3:.3f}ms",
    )


def test_criterion_2_block_formula_vs_polynomial_arithmetic():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    cases = 0
    worst = 0.0
    for lam in (0.0, 2.0, -1.5, 1 + 1j):
        for n in (1, 2, 3, 4):
            for _ in range(6):
                coeffs = tuple(rng.uniform(-2.0, 2.0, size=int(rng.integers(1, 8))))
                j = jordan_block(lam, n)
                expected = np.zeros((n, n), dtype=complex)
                for c in coeffs[::-1]:
                    expected = expected @ j + c * np.eye(n)
                got = func_jordan_block(row(Polynomial(coeffs), lam, n), n)
                scale = max(1.0, float(np.max(np.abs(expected))))
                worst = max(worst, float(np.max(np.abs(got - expected))) / scale)
                cases += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    _line(
        "criterion 2 (block formula oracle)",
        ok,
        f"{cases} cases worst_rel_err={worst:.2e} time={elapsed:.2f}s",
    )


def test_criterion_3_real_pair_block_vs_transport():
    start = time.perf_counter()
    functions = (Exp(), Monomial(2), Monomial(3), Polynomial((1.0, 1.0, 1.0)))
    worst = 0.0
    cases = 0
    all_real = True
    # 3-4i is the same conjugate pair as 3+4i; the upper representative
    # is the canonical spelling
    for lam in (1j, 1 + 1j, 3 + 4j):
        for k in (1, 2, 3):
            for f in functions:
                got = func_real_jordan_block(row(f, lam, k), k)
                all_real = all_real and got.dtype == np.float64
                expected = pair_transport(f, lam, k)
                worst = max(worst, float(np.max(np.abs(got - expected.real))))
                worst = max(worst, float(np.max(np.abs(expected.imag))))
                cases += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and all_real and elapsed < 1.0
    _line(
        "criterion 3 (conjugate pair transport)",
        ok,
        f"{cases} cases worst_err={worst:.2e} real_dtype={all_real} "
        f"time={elapsed:.2f}s",
    )


def test_criterion_4_preservation_equivalence_500_trials():
    rng = np.random.default_rng(20260819)
    start = time.perf_counter()
    fixed = [
        Exp(),
        Monomial(1),
        Monomial(2),
        Monomial(3),
        Monomial(4),
        PrincipalRoot(3),
        Polynomial((0.5, 1.0, 0.25)),
        NEGATE,
        None,  # placeholder: z - 2 rho, built per trial
    ]
    consistent = frobenius_preserved = negations_failed = 0
    for trial in range(500):
        factors = random_pf_factors(rng, max_dim=12, max_block_size=3)
        f = fixed[trial % len(fixed)]
        if f is None:
            rho = np.max(np.abs(np.linalg.eigvals(factors.reconstruct())))
            f = Polynomial((-2.0 * rho, 1.0))
        res = verify_preservation_theorem(factors, f)
        if res.theorem_consistent:
            consistent += 1
        if res.f_is_frobenius:
            assert res.fa_strong_pf
            frobenius_preserved += 1
        if f is NEGATE:
            assert not res.fa_strong_pf
            negations_failed += 1
    elapsed = time.perf_counter() - start
    ok = consistent == 500 and elapsed < 30.0
    _line(
        "criterion 4 (preservation equivalence)",
        ok,
        f"consistent={consistent}/500 frobenius_cases={frobenius_preserved} "
        f"negation_cases={negations_failed} time={elapsed:.1f}s",
    )


def test_criterion_5_eventual_positivity_closed_under_exp_and_square():
    rng = np.random.default_rng(505)
    start = time.perf_counter()
    disagreements = 0
    for _ in range(100):
        factors = random_pf_factors(rng, max_dim=6)
        a = factors.reconstruct()
        assert power_threshold(a, 64) is not None
        for f in (Exp(), Monomial(2)):
            fa = matrix_function(factors, f)
            spectral_route = eventually_positive_check(fa).overall
            brute_route = power_threshold(fa, 64) is not None
            if spectral_route != brute_route or not spectral_route:
                disagreements += 1
    elapsed = time.perf_counter() - start
    ok = disagreements == 0 and elapsed < 30.0
    _line(
        "criterion 5 (eventual positivity closure)",
        ok,
        f"100 matrices x 2 functions, disagreements={disagreements} "
        f"time={elapsed:.1f}s",
    )


def test_criterion_6_taylor_oracle_equivalence():
    rng = np.random.default_rng(606)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        factors = random_pf_factors(rng, max_dim=8)
        a = factors.reconstruct()
        fa = matrix_function(factors, Exp())
        oracle = taylor_oracle(a, Exp())
        scale = max(1.0, float(np.max(np.abs(oracle))))
        worst = max(worst, float(np.max(np.abs(fa - oracle))) / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and elapsed < 10.0
    _line(
        "criterion 6 (series oracle)",
        ok,
        f"50 matrices worst_rel_dev={worst:.2e} time={elapsed:.1f}s",
    )


def test_criterion_7_reality_and_reflection():
    # the conjugate-symmetry test on f's table, on blocks of size 6 at real
    # samples (orders 0-5) and of size 4 at complex points (orders 0-3)
    rng = np.random.default_rng(707)
    tol = Tolerance(rel_eps=0.0)
    reality_ok = True
    reflection_ok = True
    for f in differentiable_catalogue():
        samples = rng.uniform(0.1, 4.0, size=20)
        verdict = frobenius_check(f, spec_at(samples, 6))
        reality_ok = reality_ok and verdict.conjugate_symmetry
        pts = random_domain_points(rng, f, 100)
        verdict = frobenius_check(f, spec_at(pts, 4), tol)
        reflection_ok = reflection_ok and verdict.conjugate_symmetry
    ok = reality_ok and reflection_ok
    _line(
        "criterion 7 (reality and reflection)",
        ok,
        f"real_derivatives={reality_ok} conjugate_reflection={reflection_ok}",
    )


def test_criterion_8_conjugate_asymmetry_is_rejected():
    # i*z fails at order 0; z with f' = 1 + i only at order 1, which a
    # size-2 pair block needs
    spec = JordanSpec(real_blocks=((2.0, 1),), complex_blocks=((1 + 1j, 2),))
    factors = synthesize_matrix(spec, np.eye(5))
    scalar_flags = matrix_raises = 0
    for f in (SkewedDerivatives(), TiltedSlope()):
        scalar_flags += not frobenius_check(f, spec).conjugate_symmetry
        try:
            matrix_function(factors, f)
        except NonRealResultError as exc:  # named at the pair, before 2
            matrix_raises += "conjugate-symmetric at (1+1j)" in str(exc)
    ok = scalar_flags == matrix_raises == 2
    _line(
        "criterion 8 (asymmetry rejected)",
        ok,
        f"scalar_side={scalar_flags}/2 matrix_level={matrix_raises}/2",
    )
