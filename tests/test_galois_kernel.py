"""Tests for Galois symmetries, kernel enumeration, image order, and genus."""

import os
import random
import subprocess
import sys
import types
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from affinesl2 import galois_kernel, wzwrep
from affinesl2.cyclotomic import root_of_unity
from affinesl2.modgroup import (
    ResidueMatrix,
    idempotents,
    local_generators,
    random_matrix,
    sl2_order,
    unimodular_rows,
)
from affinesl2.wzwrep import (
    RepMatrix,
    _theorem1_exponents,
    _theorem1_tables,
    conductor,
    evaluate_word,
    rho_closed,
    rho_S,
    rho_T,
)
from affinesl2.galois_kernel import (
    _kernel_mask,
    _least_shifts,
    _same_difference,
    _sweep_rows,
    SignedPermutation,
    bantay_sigma_S_identity,
    enumerate_kernel,
    expected_kernel_slice,
    factor_kernel_sl2z8,
    genus,
    image_order,
    in_kernel,
    phi2_image_is_normal,
    sigma_covariance_check,
    sigma_on_matrix,
    sigma_perm,
)
from group_enumeration import coordinate_kernel_mask, enumerate_group


def test_signed_permutation_validation_and_text():
    p = SignedPermutation(5, (3, 4, 1, 2), (1, -1, -1, 1), -1)
    assert str(p) == "(1->3, 2->4, 3->1, 4->2) signs +--+ symbol -1"
    with pytest.raises(ValueError):
        SignedPermutation(5, (1, 1, 2, 3), (1, 1, 1, 1))


def test_sigma_perm_example():
    p = sigma_perm(3, 5)
    assert p.perm == (3, 4, 1, 2)
    assert p.signs == (1, -1, -1, 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_sigma_perm_reproduces_galois_on_s(n):
    """The signed permutation equals entrywise conjugation on rho(S), exactly."""
    S = rho_S(n)
    for d in range(1, 8 * n):
        if d % 2 == 0 or gcd(d, n) != 1:
            continue
        assert sigma_perm(d, n).applied_to_rows(S) == sigma_on_matrix(d, S), (n, d)


def test_sigma_on_t_is_a_power():
    """Conjugating rho(T) by sigma_L gives rho(T)^L."""
    n = 5
    N = conductor(n)
    for L in range(1, N):
        if gcd(L, N) != 1:
            continue
        powers = RepMatrix.identity(n).scale_cols([L * (2 * a * a - n) % (8 * n) for a in range(1, n)])
        assert sigma_on_matrix(L, rho_T(n)) == powers


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_sigma_covariance(n):
    """sigma_L(rho(M)) = rho of the (L, L^-1)-twisted matrix, all L, sampled M."""
    N = conductor(n)
    rng = random.Random(n)
    for _ in range(5):
        r = random_matrix(N, rng)
        for L in range(1, N):
            if gcd(L, N) == 1:
                assert sigma_covariance_check(L, r, n), (n, L, r)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_bantay_word_identity(n):
    """sigma_{C^-1}(rho S) equals rho(T^{C^-1} S T^C S T^{C^-1}) for unit C."""
    N = conductor(n)
    for C in range(1, N):
        if gcd(C, N) == 1:
            assert bantay_sigma_S_identity(C, n), (n, C)


def test_in_kernel_detects_scalars():
    n = 5
    N = conductor(n)
    assert in_kernel(ResidueMatrix(N, 1, 0, 0, 1), n)
    assert in_kernel(ResidueMatrix(N, N - 1, 0, 0, N - 1), n)
    assert in_kernel(ResidueMatrix(N, 11, 0, 0, 11), n)
    assert not in_kernel(ResidueMatrix(N, 1, 1, 0, 1), n)


def test_kernel_n5_matches_the_known_sixteen():
    for n in (5, 9, 11):
        report = enumerate_kernel(n)
        assert len(report.kernel) == 16, n
        assert report.matches_known is True, n
        assert report.image_order == sl2_order(conductor(n)) // 16, n
        slice_ = [r for r in report.kernel if gcd(r.d, 2 * n) == 1]
        assert sorted(r.key() for r in slice_) == sorted(r.key() for r in expected_kernel_slice(n)), n


def test_kernel_n4_has_off_diagonal_square_roots():
    """The even-level list at n = 4 gains four off-diagonal elements."""
    report = enumerate_kernel(4)
    keys = [r.key() for r in report.kernel]
    assert len(keys) == 8
    assert (3, 8, 8, 11) in keys and (5, 8, 8, 13) in keys
    assert report.matches_known is True
    sq = ResidueMatrix(16, 3, 8, 8, 11)
    assert (sq * sq).entries() == [[9, 0], [0, 9]]


def test_kernel_n6_is_plus_minus_scalars():
    for n in (6, 16):
        report = enumerate_kernel(n)
        N = conductor(n)
        want = sorted(
            ResidueMatrix(N, u, 0, 0, u).key() for u in (1, N - 1, 2 * n + 1, N - 2 * n - 1)
        )
        assert sorted(r.key() for r in report.kernel) == want, n
        assert report.matches_known is True, n


def test_kernel_n3_is_large_and_unlisted():
    """At n = 3 the kernel has 64 elements and no short closed list applies."""
    report = enumerate_kernel(3)
    assert len(report.kernel) == 64
    assert report.matches_known is None
    assert report.image_order == 144
    assert len(report.kernel) * report.image_order == sl2_order(24)


def test_kernel_coprime_obstruction():
    for n in (3, 4, 5, 6):
        for r in enumerate_kernel(n).kernel:
            assert gcd(r.c, 2 * n) != 1, (n, r)


def test_enumeration_runs_in_one_process_and_takes_only_workers_1():
    """workers=1 gives the default report; any other value raises rather than being ignored.

    The benchmark's kernel-sweep call enumerate_kernel(n, bound=64, workers=1)
    still works, and a bound below N still raises.
    """
    solo = enumerate_kernel(4)
    assert enumerate_kernel(4, workers=1).to_text() == solo.to_text()
    assert solo.survivors == 192
    assert "survivors" not in solo.to_text()
    assert image_order(4) == solo.image_order
    for bad in (0, 2, 1.5, "2", None):
        with pytest.raises(ValueError):
            enumerate_kernel(4, workers=bad)
    assert len(enumerate_kernel(5, bound=64, workers=1).kernel) == 16
    with pytest.raises(ValueError):
        enumerate_kernel(5, bound=8)


@pytest.mark.parametrize("M", [24, 32])
def test_exponent_difference_rule_matches_cyclotomic_equality(M):
    """zeta^e - zeta^f = zeta^g - zeta^h by the three-clause rule exactly when it holds in Q(zeta_M).

    Both sides are invariant under rotating all four exponents, so e = 0 covers every case.
    """
    zeta = [root_of_unity(M, j) for j in range(M)]
    diff = {(g, h): zeta[g] - zeta[h] for g in range(M) for h in range(M)}
    for f in range(M):
        for (g, h), rhs in diff.items():
            assert bool(_same_difference(0, f, g, h, M)) == (diff[0, f] == rhs), (M, f, g, h)


@pytest.mark.parametrize("n", [3, 4])
def test_sweep_matches_the_per_element_exact_reference(n):
    """The exact sweep finds exactly the elements of SL2(Z/NZ) that rho_closed, one at a time, sends to 1.

    _kernel_mask, the sweep's confirmation, run once over the whole group,
    and in_kernel on each element agree with rho_closed on every element.
    """
    N = conductor(n)
    hits, survivors = _sweep_rows(n, unimodular_rows(N))
    group = list(enumerate_group(N))
    mask = _kernel_mask(group, n)
    want = []
    for r, confirmed in zip(group, mask, strict=True):
        identity = rho_closed(r, n).is_identity()
        assert confirmed == identity, r
        assert in_kernel(r, n) == identity, r
        if identity:
            want.append(r.key())
    assert sorted(hits) == sorted(want)
    assert len(want) <= survivors < sl2_order(N)


def test_kernel_mask_on_five_identities_then_t():
    """Each element is decided on its own: five identities pass and T, after them, fails."""
    N = conductor(5)
    rs = [ResidueMatrix(N, 1, 0, 0, 1)] * 5 + [ResidueMatrix(N, 1, 1, 0, 1)]
    assert _kernel_mask(rs, 5).tolist() == [True] * 5 + [False]


@pytest.mark.parametrize("n", [3, 4, 31, 101])
def test_kernel_mask_matches_the_coordinate_oracle(n):
    """_kernel_mask, by exponent pairs, equals the coordinate comparison of rho_theorem1(W) and rho_theorem1(T^k S).

    At n = 3 and 4 on all of SL2(Z/NZ).  At n = 31 and 101 on the known
    kernel list (the whole kernel at odd n), each of its elements times T,
    and seeded random elements, of which the mask accepts exactly the list.
    """
    N = conductor(n)
    if n < 5:
        rs = list(enumerate_group(N))
    else:
        kernel = expected_kernel_slice(n)
        rng = random.Random(n)
        rs = kernel + [r * ResidueMatrix(N, 1, 1, 0, 1) for r in kernel] + [random_matrix(N, rng) for _ in range(16)]
    mask = _kernel_mask(rs, n)
    assert mask.tolist() == coordinate_kernel_mask(rs, n)
    if n > 4:
        assert [r for r, ok in zip(rs, mask) if ok] == kernel


def _all_a_sweep_rows(n, rows):
    """The sweep with stage 1 testing entry (1, 1) at all N values of A on every row, the reference for the congruence solve."""
    N, M = conductor(n), 8 * n
    inv = _theorem1_tables(n)["inv"]
    A = np.arange(N)
    hits, survivors = [], 0
    step = max(1, (1 << 13) // N)
    for start in range(0, len(rows), step):
        c, d = rows[start : start + step].T
        k = _least_shifts(c, d, n)
        C, D = (c * k + d) % N, -c % N
        e, f = (x[..., 0, 0] for x in _theorem1_exponents(A, C[:, np.newaxis], D[:, np.newaxis], n, 1))
        g, h = (x[..., 0, 0] for x in _theorem1_exponents(k[:, np.newaxis], 1, 0, n, 1))
        i, A1 = np.nonzero(_same_difference(e, f, g, h, M))
        survivors += len(i)
        c, d, k, C, D = c[i], d[i], k[i], C[i], D[i]
        e, f = _theorem1_exponents(A1, C, D, n)
        g, h = _theorem1_exponents(k, 1, 0, n)
        j = np.flatnonzero(_same_difference(e, f, g, h, M).all(axis=(1, 2)))
        B = (A1[j] * D[j] - 1) * inv[C[j]] % N
        top = np.stack([-B % N, (A1[j] + B * k[j]) % N, c[j], d[j]], axis=1)
        hits.extend(map(tuple, top.tolist()))
    return hits, survivors


@pytest.mark.parametrize("n", list(range(3, 17)) + [20, 23, 31])
def test_congruence_sweep_matches_the_all_a_reference(n):
    """Solving entry (1, 1) for A keeps exactly the stage-1 survivors and kernel hits of testing every A."""
    rows = unimodular_rows(conductor(n))
    hits, survivors = _sweep_rows(n, rows)
    want_hits, want_survivors = _all_a_sweep_rows(n, rows)
    assert sorted(hits) == sorted(want_hits)
    assert survivors == want_survivors
    assert enumerate_kernel(n).survivors == want_survivors


def test_newly_reachable_levels_match_the_known_lists():
    """The exhaustive kernel at every n = 5..40 (N up to 312) and at nine levels up to n = 125 (N = 1000) matches the known lists and image orders."""
    orders = {20: 92160, 31: 714240}
    for n in [*range(5, 41), 45, 50, 64, 75, 81, 90, 99, 110, 125]:
        N, size = conductor(n), 16 if n % 2 else 4
        report = enumerate_kernel(n)
        assert len(report.kernel) == size, n
        assert report.image_order == orders.get(n, sl2_order(N) // size), n
        assert report.matches_known is True, n


def test_kernel_at_n101_stays_within_40_mb():
    """enumerate_kernel(101), N = 808, finds the 16 known elements, and its peak RSS grows by under 40 MB.

    The confirmation compares exponent pairs and gathers no table; the whole
    call grew the peak by about 16 MB on a 2-core Xeon VM, most of it the
    unimodular rows.  ru_maxrss is in KB on Linux.
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(galois_kernel.__file__)))
    code = """
import resource
from affinesl2.galois_kernel import enumerate_kernel
from affinesl2.modgroup import sl2_order
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
report = enumerate_kernel(101)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base
print(len(report.kernel), report.matches_known, report.image_order == sl2_order(808) // 16, grown < 40 * 1024, grown)
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[:4] == ["16", "True", "True", "True"], done.stdout


def test_kernel_confirmation_is_guarded_and_needs_no_product(monkeypatch):
    """A sweep candidate that _kernel_mask does not confirm raises, and the kernel path never reaches a product."""
    with monkeypatch.context() as m:
        m.setattr(galois_kernel, "_kernel_mask", lambda rs, n: np.zeros(len(rs), dtype=bool))
        with pytest.raises(RuntimeError, match="exact confirmation"):
            enumerate_kernel(4)

    def refuse(*args):
        raise AssertionError("the kernel path reached a product")

    with monkeypatch.context() as m:
        m.setattr(galois_kernel, "rho_closed", refuse)
        m.setattr(RepMatrix, "__mul__", refuse)
        assert len(enumerate_kernel(4).kernel) == 8
        assert len(factor_kernel_sl2z8(7)) == 4
        assert not in_kernel(ResidueMatrix(conductor(5), 1, 1, 0, 1), 5)

    # the confirmation gathers no sqrt(2n) table: the kernel and in_kernel still work without one
    with monkeypatch.context() as m:
        m.setattr(wzwrep, "_sqrt_table", refuse)
        assert len(enumerate_kernel(5).kernel) == 16
        assert in_kernel(ResidueMatrix(conductor(5), 1, 0, 0, 1), 5)
        assert not in_kernel(ResidueMatrix(conductor(5), 1, 1, 0, 1), 5)
        assert galois_kernel._confirmed(5, []) == []


def test_kernel_report_text():
    text = enumerate_kernel(4).to_text()
    assert "kernel_size 8" in text
    assert "matches_known_list pass" in text
    assert "coprime_obstruction pass" in text
    assert text.count("kernel_element") == 8


def test_image_order_small_levels():
    assert image_order(3) == 144
    assert image_order(4) == sl2_order(16) // 8
    assert image_order(5) == sl2_order(40) // 16


def test_genus_values():
    assert genus(7) == 601
    assert genus(11) == 2461
    assert genus(19) == 13141
    assert genus(23) == 23497
    with pytest.raises(ValueError):
        genus(13)


@pytest.mark.parametrize("p", [7, 11, 19, 23, 31])
def test_genus_matches_the_exact_kernel(p):
    """genus(p) is the genus 1 + mu/12 - mu/(2N) of the kernel's curve, from Riemann-Hurwitz.

    The preimage of Ker rho in SL2(Z) is normal and holds -1, so its index in
    PSL2(Z) is mu = image_order.  rho(S) and rho(ST) are not 1, so it has no
    elliptic points, and every cusp has width ord rho(T) = N.
    """
    N = conductor(p)
    mu = image_order(p)
    assert genus(p) == 1 + Fraction(mu, 12) - Fraction(mu, 2 * N)


def test_factor_kernel_classes_at_n7():
    classes = factor_kernel_sl2z8(7)
    assert [r.key() for r in classes] == [(1, 0, 0, 1), (1, 4, 4, 1), (3, 0, 4, 3), (3, 4, 0, 3)]


@pytest.mark.parametrize("n", [7, 11])
def test_factor_kernel_matches_the_per_element_filter(n):
    """The batched sweep finds the classes that in_kernel finds on each embedded element."""
    N = conductor(n)
    e = idempotents(N)[8]
    want = set()
    for m in enumerate_group(8):
        embedded = ResidueMatrix(N, m.a * e + 1 - e, m.b * e, m.c * e, m.d * e + 1 - e)
        if in_kernel(embedded, n):
            want.add(m.canonical_up_to_sign())
    assert factor_kernel_sl2z8(n) == sorted(want, key=lambda r: r.key())


def test_factor_generator_orders():
    """The mod-8 factor generators satisfy rho(T2)^4 = -Id and rho(S2)^2 = Id."""
    n = 7
    N = conductor(n)
    tword, sword = local_generators(N)[8]
    t2 = evaluate_word(tword, n)
    s2 = evaluate_word(sword, n)
    assert t2 * t2 * t2 * t2 == -RepMatrix.identity(n)
    assert (s2 * s2).is_identity()


def test_phi2_image_is_normal():
    """Normal at N = 24, at N = 72..120 and at N = 344, whose factor q = 43 the check handles through S and T alone."""
    for n in (3, 9, 11, 13, 15, 43):
        assert phi2_image_is_normal(n), n


def test_phi2_image_is_not_normal_when_conjugation_by_s_leaves_the_projection(monkeypatch):
    """A kernel of {1, T} mod 40 projects to {1, T} mod 8, and S T S^-1 = (1, 0; -1, 1) is not in it."""
    kernel = [ResidueMatrix(40, 1, 0, 0, 1), ResidueMatrix(40, 1, 1, 0, 1)]
    monkeypatch.setattr(galois_kernel, "enumerate_kernel", lambda n: types.SimpleNamespace(kernel=kernel))
    assert phi2_image_is_normal(5) is False
