"""Tests for Galois symmetries, kernel enumeration, image order, and genus."""

import random
from math import gcd

import numpy as np
import pytest

from affinesl2 import galois_kernel
from affinesl2.modgroup import (
    ResidueMatrix,
    enumerate_group,
    local_generators,
    random_matrix,
    sl2_order,
    unimodular_rows,
)
from affinesl2.wzwrep import RepMatrix, conductor, evaluate_word, rho_float, rho_S, rho_T
from affinesl2.galois_kernel import (
    FLOAT_CUT,
    KernelReport,
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


def test_signed_permutation_validation_and_text():
    p = SignedPermutation(5, (3, 4, 1, 2), (1, -1, -1, 1), -1)
    assert str(p) == "(1->3, 2->4, 3->1, 4->2) signs +--+ symbol -1"
    with pytest.raises(AssertionError):
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
    for n, bound in ((5, 64), (9, 88), (11, 88)):
        report = enumerate_kernel(n, bound=bound)
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


def test_worker_pool_enumeration_is_deterministic():
    solo = enumerate_kernel(4, workers=1)
    pooled = enumerate_kernel(4, workers=2)
    assert [r.key() for r in solo.kernel] == [r.key() for r in pooled.kernel]
    assert (solo.accepted_dev, solo.rejected_dev) == (pooled.accepted_dev, pooled.rejected_dev)


@pytest.mark.parametrize("n", [3, 4])
def test_sweep_matches_the_per_element_float_reference(n):
    """The row-batched sweep flags exactly the elements rho_float, one at a time, puts within the cut."""
    N = conductor(n)
    hits, _, _ = _sweep_rows((n, list(unimodular_rows(N))))
    eye = np.eye(n - 1)
    want = [r.key() for r in enumerate_group(N) if np.abs(rho_float(r, n) - eye).max() < FLOAT_CUT]
    assert hits == want


def test_kernel_margin_is_recorded_and_guarded(monkeypatch):
    """The report carries the filter's observed margin; a closed margin or a false candidate raises."""
    report = enumerate_kernel(5)
    assert report.accepted_dev < 1e-12
    assert report.rejected_dev > 0.3
    assert "dev" not in report.to_text()
    float_S = galois_kernel._float_S
    with monkeypatch.context() as m:
        m.setattr(galois_kernel, "_float_S", lambda n: float_S(n) + 1e-5)
        with pytest.raises(RuntimeError, match="margin closed"):
            enumerate_kernel(5)
    with monkeypatch.context() as m:
        m.setattr(galois_kernel, "rho_closed", lambda r, n: -RepMatrix.identity(n))
        with pytest.raises(RuntimeError, match="exact confirmation"):
            enumerate_kernel(4)


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
    with pytest.raises(AssertionError):
        genus(13)


def test_factor_kernel_classes_at_n7():
    classes = factor_kernel_sl2z8(7)
    assert [r.key() for r in classes] == [(1, 0, 0, 1), (1, 4, 4, 1), (3, 0, 4, 3), (3, 4, 0, 3)]


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
    assert phi2_image_is_normal(3)
