"""Tests for the representation matrices and their closed evaluations."""

import math
import os
import random
import subprocess
import sys
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affinesl2
from affinesl2.cyclotomic import embed, galois, one, root_of_unity, sqrt_int, zero
from affinesl2.modgroup import ResidueMatrix, STWord, decompose, lift, random_matrix
from affinesl2.wzwrep import (
    _FLOAT_EXACT,
    RepMatrix,
    _exact,
    conductor,
    dispatch_path,
    evaluate_word,
    g_parity_check,
    gauss_sum,
    gauss_sum_closed,
    kernel_sum,
    kernel_sum_closed,
    rho_closed,
    rho_coprime_closed,
    rho_coprime_legendre,
    rho_float,
    rho_S,
    rho_T,
    rho_theorem1,
    rho_unit_d_closed,
    rho_upper_triangular,
    sin_value,
)


def test_conductor_values():
    assert [conductor(n) for n in (3, 4, 5, 6, 7, 10, 12)] == [24, 16, 40, 24, 56, 40, 48]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_generator_relations(n):
    """rho(S)^2 = Id, (rho(S) rho(T))^3 = rho(S)^2, rho(T)^N = Id."""
    S, T = rho_S(n), rho_T(n)
    assert (S * S).is_identity()
    st_cubed = (S * T) * (S * T) * (S * T)
    assert st_cubed == S * S
    p = RepMatrix.identity(n)
    for _ in range(conductor(n)):
        p = p * T
    assert p.is_identity()


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_generators_are_unitary(n):
    assert rho_S(n).is_unitary()
    assert rho_T(n).is_unitary()


def test_sin_values_embed_correctly():
    for n in (3, 5, 8):
        for m in range(-3, 4 * n):
            assert abs(embed(sin_value(n, m)) - math.sin(math.pi * m / n)) < 1e-12


def test_s_matrix_entries():
    """S entries are sqrt(2/n) sin(pi a b / n), exactly and numerically."""
    for n in (3, 4, 5, 6):
        arr = rho_S(n).to_floats()
        for a in range(1, n):
            for b in range(1, n):
                want = math.sqrt(2 / n) * math.sin(math.pi * a * b / n)
                assert abs(arr[a - 1, b - 1] - want) < 1e-12


def test_t_matrix_phases():
    """T is diagonal with phases e(a^2/4n - 1/8)."""
    for n in (3, 4, 5):
        arr = rho_T(n).to_floats()
        for a in range(1, n):
            want = np.exp(2j * np.pi * (a * a / (4 * n) - 1 / 8))
            assert abs(arr[a - 1, a - 1] - want) < 1e-12
        off = arr[~np.eye(n - 1, dtype=bool)]
        assert np.max(np.abs(off)) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_word_evaluation_is_a_homomorphism(seed):
    rng = random.Random(seed)
    n = rng.choice([3, 4, 5])
    toks1 = [STWord.S() if rng.random() < 0.4 else STWord.T(rng.randrange(-5, 6)) for _ in range(4)]
    toks2 = [STWord.S() if rng.random() < 0.4 else STWord.T(rng.randrange(-5, 6)) for _ in range(4)]
    w1 = toks1[0]
    for t in toks1[1:]:
        w1 = w1 * t
    w2 = toks2[0]
    for t in toks2[1:]:
        w2 = w2 * t
    assert evaluate_word(w1 * w2, n) == evaluate_word(w1, n) * evaluate_word(w2, n)


def test_minus_identity_acts_trivially():
    """rho(-Id) = Id, so rho factors through the quotient by +-1."""
    for n in (3, 4, 5, 6):
        w = decompose([[-1, 0], [0, -1]])
        assert evaluate_word(w, n).is_identity()
        r = ResidueMatrix(conductor(n), -1, 0, 0, -1)
        assert rho_closed(r, n).is_identity()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_dirichlet_gauss_sum(n):
    """S(1, 4n) = 2 sqrt(n) (1 + i) exactly."""
    N = 4 * n
    want = sqrt_int(n, N) * 2 * (one(N) + root_of_unity(N, n))
    assert gauss_sum(1, N) == want


def test_gauss_sum_closed_matches_direct():
    """The Legendre-symbol closed form equals direct summation for odd n."""
    for n in (1, 3, 5, 7, 9, 11):
        for c in range(1, 4 * n, 2):
            if gcd(c, n) != 1:
                continue
            assert gauss_sum_closed(c, n) == gauss_sum(c, 4 * n).promoted(4 * n), (c, n)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([3, 4, 5, 7, 9]), st.data())
def test_kernel_sum_closed_branches(n, data):
    """Each applicable closed branch of the sine-weighted sum is exact."""
    alpha = data.draw(st.integers(1, n - 1))
    gamma = data.draw(st.integers(1, n - 1))
    C = data.draw(st.integers(0, 4 * n - 1))
    got = kernel_sum_closed(alpha, gamma, C, n)
    if gcd(C, 2 * n) == 1:
        assert got is not None and got[0] == "coprime"
    elif C % n == 0:
        assert got is not None and got[0] == "multiple"
    elif C % 2 == 0 and gcd(C // 2, n) == 1:
        assert got is not None and got[0] == "even"
    if got is not None:
        direct = kernel_sum(alpha, gamma, C, n)
        assert got[1].promoted(8 * n) == direct.promoted(8 * n)


def test_dispatch_covers_the_four_cases():
    n = 6
    N = conductor(n)
    assert dispatch_path(ResidueMatrix(N, 1, 0, 1, 1), n) == "theorem1"
    assert dispatch_path(ResidueMatrix(N, 1, 1, 0, 1), n) == "upper"
    assert dispatch_path(ResidueMatrix(N, 7, 1, 6, 1), n) == "unit_d"
    assert dispatch_path(ResidueMatrix(N, 3, 4, 8, 11), n) == "word"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.integers(0, 10_000))
def test_closed_evaluation_matches_oracle(n, seed):
    """rho_closed agrees bit for bit with the S, T word oracle."""
    r = random_matrix(conductor(n), random.Random(seed))
    assert rho_closed(r, n) == evaluate_word(decompose(lift(r)), n)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([3, 4, 5, 6]), st.integers(0, 10_000))
def test_coprime_c_forms_agree(n, seed):
    """Both closed forms for gcd(c, N) = 1 match the general dispatcher."""
    rng = random.Random(seed)
    N = conductor(n)
    while True:
        r = random_matrix(N, rng)
        if gcd(r.c, N) == 1:
            break
    want = rho_closed(r, n)
    assert rho_theorem1(r, n) == want
    assert rho_coprime_closed(r, n) == want
    if n % 2:
        assert rho_coprime_legendre(r, n) == want


def test_upper_triangular_form():
    """c = 0 matrices evaluate to decorated permutations, matching the oracle."""
    for n in range(3, 13):
        N = conductor(n)
        for a in range(1, N):
            if gcd(a, N) != 1:
                continue
            d = pow(a, -1, N)
            for b in (0, 1, 3, 7):
                r = ResidueMatrix(N, a, b, 0, d)
                got = rho_upper_triangular(r, n)
                assert got == evaluate_word(decompose(lift(r)), n), (n, a, b)


def test_unit_d_form_spot_checks():
    for n in (3, 4, 5, 6):
        N = conductor(n)
        rng = random.Random(n)
        found = 0
        while found < 6:
            r = random_matrix(N, rng)
            if dispatch_path(r, n) != "unit_d":
                continue
            found += 1
            assert rho_unit_d_closed(r, n) == evaluate_word(decompose(lift(r)), n), (n, r)


@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_gauss_sum_parity_identity(n):
    assert g_parity_check(n)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([3, 4, 5, 6]), st.integers(0, 10_000))
def test_float_evaluation_tracks_exact(n, seed):
    r = random_matrix(conductor(n), random.Random(seed))
    dev = np.max(np.abs(rho_closed(r, n).to_floats() - rho_float(r, n)))
    assert dev < 1e-9


def test_rep_matrix_entry_access_and_serialization():
    S = rho_S(3)
    e = S.entry(0, 0)
    assert abs(embed(e) - 1 / math.sqrt(2)) < 1e-12
    dicts = S.to_dicts()
    assert dicts[0][0] == e.to_dict()
    assert len(dicts) == 2 and len(dicts[0]) == 2


def test_rep_matrix_scalar_and_galois():
    """galois_map is multiplicative over matrix products."""
    n = 5
    S, T = rho_S(n), rho_T(n)
    for L in (3, 7, 11):
        if gcd(L, 8 * n) != 1:
            continue
        assert (S * T).galois_map(L) == S.galois_map(L) * T.galois_map(L)
    assert S.dagger() * S == RepMatrix.identity(n)


def test_large_level_closed_vs_oracle_once():
    """A single large-n check keeps the wide-integer paths honest."""
    n = 12
    r = random_matrix(conductor(n), random.Random(77))
    assert rho_closed(r, n) == evaluate_word(decompose(lift(r)), n)


def test_bad_input_raises_value_error_under_optimize():
    """Validation does not rest on assert: under python -O bad input still raises, and nothing spins."""
    code = """
import types
from affinesl2.galois_kernel import enumerate_kernel, factor_kernel_sl2z8
from affinesl2.modgroup import ResidueMatrix
from affinesl2.wzwrep import _unit_shift, conductor, rho_closed, rho_float
cases = [
    lambda: ResidueMatrix(40, 2, 0, 0, 2),
    lambda: ResidueMatrix(0, 1, 0, 0, 1),
    lambda: rho_float([[2, 0], [0, 2]], 5),
    lambda: rho_closed([[2, 0], [0, 2]], 5),
    lambda: _unit_shift(types.SimpleNamespace(a=2, b=0, c=0, d=2), 5),
    lambda: enumerate_kernel(9),
    lambda: conductor(2),
    lambda: conductor(5.0),
    lambda: factor_kernel_sl2z8(5),
]
for i, case in enumerate(cases):
    try:
        case()
    except ValueError:
        continue
    raise SystemExit(f"case {i} accepted")
assert False, "asserts are live"
print("ok")
"""
    src = os.path.dirname(os.path.dirname(affinesl2.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr


def test_exact_kernel_float_path_below_2_53():
    """Just below 2^53 the float64 path equals the Python-int product exactly."""
    rng = np.random.default_rng(53)
    k = 8
    amax = bmax = (1 << 25) - 1
    bound = amax * bmax * k
    assert bound < _FLOAT_EXACT <= 2 * bound
    for _ in range(10):
        a = rng.integers(-amax, amax + 1, size=(5, k), dtype=np.int64)
        b = rng.integers(-bmax, bmax + 1, size=(k, 6), dtype=np.int64)
        # odd extremes put some partial sums right at the bound
        a[0, :] = amax
        b[:, 0] = bmax
        a[1, ::2] = -amax
        got = _exact(bound, np.matmul, a, b)
        assert got.dtype == np.int64
        assert got.tolist() == (a.astype(object) @ b.astype(object)).tolist()
        assert got[0, 0] == bound


def test_exact_kernel_python_ints_from_2_53():
    """At a bound of 2^53 or more the product runs on Python ints."""
    rng = np.random.default_rng(54)
    k = 8
    amax, bmax = (1 << 26) + 1, (1 << 26) + 3
    a = rng.integers(-amax, amax + 1, size=(4, k), dtype=np.int64)
    b = rng.integers(-bmax, bmax + 1, size=(k, 3), dtype=np.int64)
    a[0, :], b[:, 0] = amax, bmax
    want = (a.astype(object) @ b.astype(object)).tolist()
    for bound in (_FLOAT_EXACT, amax * bmax * k):
        got = _exact(bound, np.matmul, a, b)
        assert got.dtype == object
        assert got.tolist() == want


def _entrywise_product(x, y):
    """x * y through Cyclotomic scalars, as the Python-int reference."""
    out = []
    for i in range(x.dim):
        row = []
        for j in range(x.dim):
            acc = zero(x.order)
            for m in range(x.dim):
                acc = acc + x.entry(i, m) * y.entry(m, j)
            row.append(acc)
        out.append(row)
    return out


@pytest.mark.parametrize("n", [5, 8])
def test_rep_matrix_with_numerators_scaled_by_2_40(n):
    """Products, scalings and Galois maps beyond 2^53 are exact and narrow back to int64."""
    S, T = rho_S(n), rho_T(n)
    # over denominator 1 the factor 2^40 cannot cancel
    big = RepMatrix(n, S.arr * (1 << 40), 1)
    assert big.arr.dtype == np.int64 and np.abs(big.arr).max() >= 1 << 40
    other = S * T
    prod = big * other
    assert prod.entries() == _entrywise_product(big, other)
    assert prod.arr.dtype == np.int64
    # big / (2^40 den^2) is S over den, so this product is S^2 = Id
    small = RepMatrix(n, S.arr, S.den * S.den * (1 << 40))
    assert (big * small).is_identity()
    exps = [3 * j + 1 for j in range(n - 1)]
    L = 8 * n - 3
    # scaling and Galois maps bound their sums by max |numerator| * phi, so 2^56 crosses 2^53
    for x in (big, RepMatrix(n, S.arr * (1 << 56), 1)):
        assert x.scale_cols(exps).entries() == [
            [x.entry(i, j) * root_of_unity(8 * n, e) for j, e in enumerate(exps)] for i in range(n - 1)
        ]
        assert x.galois_map(L).entries() == [[galois(L, v) for v in row] for row in x.entries()]
