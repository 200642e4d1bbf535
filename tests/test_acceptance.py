"""Acceptance suite: one test per shipped guarantee, one pass/fail line each."""

import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd

from affinesl2.cyclotomic import one, root_of_unity, sqrt_int
from affinesl2.modgroup import (
    ResidueMatrix,
    decompose,
    lift,
    local_generators,
    random_matrix,
    sl2_order,
)
from affinesl2.wzwrep import RepMatrix, conductor, dispatch_path, evaluate_word, rho_closed, rho_S
from affinesl2.identities import (
    gauss_sum,
    gauss_sum_closed,
    kernel_sum,
    kernel_sum_closed,
    rho_coprime_closed,
    rho_coprime_legendre,
    rho_unit_d_closed,
    rho_upper_triangular,
)
from affinesl2.galois_kernel import (
    bantay_sigma_S_identity,
    enumerate_kernel,
    expected_kernel_slice,
    factor_kernel_sl2z8,
    genus,
    sigma_covariance_check,
    sigma_on_matrix,
    sigma_perm,
)
from affinesl2.qseries import (
    character,
    eta_inverse_cubed,
    s_transform_check,
    verify_k1_identity,
    verify_t_parametrization,
)


def _report(num, ok, detail):
    line = f"criterion {num:02d} {'pass' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _stratified_matrices(n, total, rng):
    """Seeded random residue matrices spread across the dispatch cases."""
    cases = ("theorem1", "upper", "unit_d", "word")
    quota = {c: total // len(cases) for c in cases}
    picked = []
    draws = 0
    while len(picked) < total:
        r = random_matrix(conductor(n), rng)
        draws += 1
        case = dispatch_path(r, n)
        if quota[case] > 0:
            quota[case] -= 1
            picked.append(r)
        elif draws > 40 * total:
            # some cases are rare or absent at this n; fill the remainder freely
            picked.append(r)
    return picked


def test_criterion_01_closed_forms_match_the_word_oracle():
    """Every dispatch path reproduces the S,T-word oracle bit for bit."""
    t0 = time.time()
    mismatches = 0
    checked = 0
    seen_cases = set()
    for n in (3, 4, 5, 6, 7, 10, 12):
        rng = random.Random(1000 + n)
        for r in _stratified_matrices(n, 200, rng):
            seen_cases.add((n, dispatch_path(r, n)))
            want = evaluate_word(decompose(lift(r)), n)
            checked += 1
            if rho_closed(r, n) != want:
                mismatches += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and checked == 1400 and elapsed < 120
    _report(1, ok, f"{checked} matrices over {len(seen_cases)} (n, case) strata, "
                   f"{mismatches} mismatches, {elapsed:.1f}s (limit 120s)")


def test_paper_forms_match_the_word_oracle_on_their_strata():
    """rho_closed takes one route, so each closed form of the paper is replayed here.

    The matrices are criterion 01's; each form runs on the stratum it covers.
    """
    forms = {
        "theorem1": [rho_coprime_closed],
        "upper": [rho_upper_triangular],
        "unit_d": [rho_unit_d_closed],
    }
    checked = Counter()
    for n in (3, 4, 5, 6, 7, 10, 12):
        rng = random.Random(1000 + n)
        for r in _stratified_matrices(n, 200, rng):
            case = dispatch_path(r, n)
            fs = forms.get(case, [])
            if case == "theorem1" and n % 2:
                fs = fs + [rho_coprime_legendre]
            if not fs:
                continue
            want = evaluate_word(decompose(lift(r)), n)
            for f in fs:
                assert f(r, n) == want, (f.__name__, n, r)
                checked[f.__name__] += 1
    # every form, the odd-n Legendre one included, ran at least once
    assert len(checked) == 4, checked


def test_criterion_02_kernel_sum_branches_are_exact():
    """Each closed branch of the sine-weighted sum equals direct summation."""
    t0 = time.time()
    bad = 0
    checked = 0
    for n in (3, 4, 5, 7, 9):
        for alpha in range(1, n):
            for gamma in range(1, n):
                for C in range(4 * n):
                    got = kernel_sum_closed(alpha, gamma, C, n)
                    applicable = gcd(C, 2 * n) == 1 or C % n == 0 or (C % 2 == 0 and gcd(C // 2, n) == 1)
                    if (got is not None) != applicable:
                        bad += 1
                        continue
                    if got is None:
                        continue
                    checked += 1
                    if got[1].promoted(8 * n) != kernel_sum(alpha, gamma, C, n).promoted(8 * n):
                        bad += 1
    elapsed = time.time() - t0
    ok = bad == 0 and elapsed < 120
    _report(2, ok, f"{checked} branch evaluations, {bad} failures, {elapsed:.1f}s (limit 120s)")


def test_criterion_03_gauss_sums():
    """S(1,4n) = 2 sqrt(n)(1+i); the Legendre closed form matches direct sums."""
    bad = 0
    for n in range(1, 13):
        N = 4 * n
        want = sqrt_int(n, N) * 2 * (one(N) + root_of_unity(N, n))
        if gauss_sum(1, N) != want:
            bad += 1
    legendre = 0
    for n in (1, 3, 5, 7, 9, 11):
        for c in range(1, 4 * n):
            if gcd(c, 2 * n) != 1:
                continue
            legendre += 1
            if gauss_sum_closed(c, n) != gauss_sum(c, 4 * n).promoted(4 * n):
                bad += 1
    _report(3, bad == 0, f"12 Dirichlet values, {legendre} Legendre values, {bad} failures")


def test_criterion_04_kernel_lists():
    """Full kernel enumerations match the known lists, with n = 4 corrected."""
    t0 = time.time()
    problems = []
    reports = {n: enumerate_kernel(n) for n in (3, 4, 5, 6, 7, 8)}
    for n in (5, 7):
        report = reports[n]
        slice_ = sorted(r.key() for r in report.kernel if gcd(r.d, 2 * n) == 1)
        want = sorted(r.key() for r in expected_kernel_slice(n))
        if len(want) != 16 or slice_ != want:
            problems.append(f"n={n} slice")
    # the short scalar list holds for even n > 4; exhaustive enumeration shows
    # that at n = 4 the kernel also contains four off-diagonal square roots of
    # 9*Id, so the corrected eight-element list is asserted here
    n4 = sorted(r.key() for r in reports[4].kernel)
    n4_want = sorted(
        [(1, 0, 0, 1), (15, 0, 0, 15), (9, 0, 0, 9), (7, 0, 0, 7),
         (3, 8, 8, 11), (13, 8, 8, 5), (5, 8, 8, 13), (11, 8, 8, 3)]
    )
    if n4 != n4_want:
        problems.append("n=4 corrected list")
    for n in (6, 8):
        N = conductor(n)
        want = sorted(
            ResidueMatrix(N, u % N, 0, 0, u % N).key() for u in (1, -1, 2 * n + 1, -(2 * n + 1))
        )
        if sorted(r.key() for r in reports[n].kernel) != want:
            problems.append(f"n={n} scalar list")
    for n, report in reports.items():
        if any(gcd(r.c, 2 * n) == 1 for r in report.kernel):
            problems.append(f"n={n} coprime obstruction")
    elapsed = time.time() - t0
    ok = not problems and elapsed < 300
    _report(4, ok, f"n in (3,4,5,6,7,8) enumerated; n=4 list corrected to 8 elements "
                   f"(oracle enumeration beats the extrapolated scalar list); "
                   f"problems={problems or 'none'}, {elapsed:.1f}s (limit 300s)")


def test_criterion_05_image_order_and_genus():
    """|Im rho| = 8064 at n = 7; genus values from both closed forms."""
    report = enumerate_kernel(7)
    problems = []
    if sl2_order(56) != 129024:
        problems.append("group order")
    if len(report.kernel) != 16:
        problems.append("kernel size")
    if report.image_order != 8064 or report.image_order != 48 * 7 * 48 // 2:
        problems.append("image order")
    for p, want in ((7, 601), (11, 2461), (19, 13141), (23, 23497)):
        alt = (p * p - 1) * (4 * p - 3) // 2 + 1
        if genus(p) != want or alt != want:
            problems.append(f"genus({p})")
    _report(5, not problems, f"|Im rho|={report.image_order}, genus(7)={genus(7)}, "
                             f"problems={problems or 'none'}")


def test_criterion_06_factor_structure():
    """The mod-8 factor kernel and generator orders at n = 7 and n = 11."""
    problems = []
    want = [(1, 0, 0, 1), (1, 4, 4, 1), (3, 0, 4, 3), (3, 4, 0, 3)]
    for n in (7, 11):
        classes = [r.key() for r in factor_kernel_sl2z8(n)]
        if classes != want:
            problems.append(f"n={n} classes {classes}")
        tword, sword = local_generators(conductor(n))[8]
        t2 = evaluate_word(tword, n)
        s2 = evaluate_word(sword, n)
        if t2 * t2 * t2 * t2 != -RepMatrix.identity(n):
            problems.append(f"n={n} T2 order")
        if not (s2 * s2).is_identity():
            problems.append(f"n={n} S2 order")
    _report(6, not problems, f"four kernel classes and generator orders at n=7, 11; "
                             f"problems={problems or 'none'}")


def test_criterion_07_galois_suite():
    """Covariance, the sigma(S) word identity, and the signed permutation, exactly."""
    t0 = time.time()
    problems = []
    for n in range(3, 9):
        N = conductor(n)
        units = [L for L in range(1, N) if gcd(L, N) == 1]
        rng = random.Random(7000 + n)
        mats = [random_matrix(N, rng) for _ in range(20)]
        for L in units:
            for r in mats:
                if not sigma_covariance_check(L, r, n):
                    problems.append(f"covariance n={n} L={L}")
        for C in units:
            if not bantay_sigma_S_identity(C, n):
                problems.append(f"word identity n={n} C={C}")
        S = rho_S(n)
        for d in range(1, 8 * n, 2):
            if gcd(d, n) != 1:
                continue
            if sigma_perm(d, n).applied_to_rows(S) != sigma_on_matrix(d, S):
                problems.append(f"signed perm n={n} d={d}")
    elapsed = time.time() - t0
    _report(7, not problems, f"n in 3..8, all Galois indices, 20 matrices each, "
                             f"problems={problems or 'none'}, {elapsed:.1f}s")


def test_criterion_08_character_tables_and_identities():
    """Frozen coefficient tables and both series identities through order 30."""
    problems = []
    chi1 = character(1, 3, 9)
    chi2 = character(2, 3, 9)
    if chi1.leading_exponent() != Fraction(-1, 24) or chi1.table(10) != [1, 3, 4, 7, 13, 19, 29, 43, 62, 90]:
        problems.append("chi1 table")
    if chi2.leading_exponent() != Fraction(5, 24) or chi2.table(10) != [2, 2, 6, 8, 14, 20, 34, 46, 70, 96]:
        problems.append("chi2 table")
    if eta_inverse_cubed(8).coeffs != [1, 3, 9, 22, 51, 108, 221, 429, 810]:
        problems.append("eta^-3 table")
    if not verify_k1_identity(30):
        problems.append("product identity")
    if not verify_t_parametrization(30):
        problems.append("t parametrization")
    _report(8, not problems, f"tables through q^9 and q^8, identities through order 30, "
                             f"problems={problems or 'none'}")


def test_criterion_09_numeric_s_transform():
    """chi(-1/tau) = rho(S) chi(tau) numerically below 1e-8 at truncation 400."""
    t0 = time.time()
    problems = []
    for n in (3, 4, 5):
        for tau in (1j, 0.1 + 0.9j, -0.3 + 0.7j):
            if not s_transform_check(n, tau, truncation=400, tol=1e-8):
                problems.append(f"n={n} tau={tau}")
    elapsed = time.time() - t0
    _report(9, not problems, f"n in (3,4,5), three tau values, tol 1e-8, "
                             f"problems={problems or 'none'}, {elapsed:.1f}s")


def test_criterion_10_well_definedness_across_lifts():
    """Two independent lifts of each residue matrix give identical images."""
    bad = 0
    checked = 0
    for n in (3, 4, 5, 6):
        N = conductor(n)
        rng = random.Random(500 + n)
        for _ in range(25):
            r = random_matrix(N, rng)
            m0, m1 = lift(r, 0), lift(r, 1)
            checked += 1
            if m0 == m1:
                bad += 1
                continue
            if evaluate_word(decompose(m0), n) != evaluate_word(decompose(m1), n):
                bad += 1
    _report(10, bad == 0 and checked == 100, f"{checked} matrices, two lifts each, {bad} failures")
