"""Tests for the representation matrices and their closed evaluations."""

import itertools
import math
import os
import random
import subprocess
import sys
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import affinesl2
from affinesl2 import wzwrep
from affinesl2.cyclotomic import cyclotomic_poly, embed, euler_phi, galois, jacobi, one, root_of_unity, sqrt_int, zero
from affinesl2.galois_kernel import sigma_perm
from affinesl2.modgroup import ResidueMatrix, STWord, decompose, lift, random_matrix
from affinesl2.wzwrep import (
    _FLOAT_EXACT,
    RepMatrix,
    _crt,
    _gather_form,
    _max_abs,
    _num_primes,
    _prime_tables,
    _product_bound,
    _sqrt_planes,
    _sqrt_table,
    _t_exponents,
    _tables,
    _theorem1_exponents,
    _theorem1_tables,
    _unit_shift,
    _vinv_bound,
    conductor,
    dispatch_path,
    evaluate_word,
    g_parity_check,
    rho_closed,
    rho_float,
    rho_S,
    rho_T,
    rho_theorem1,
)
from affinesl2.identities import (
    gauss_sum,
    gauss_sum_closed,
    kernel_sum,
    kernel_sum_closed,
    rho_coprime_closed,
    rho_coprime_legendre,
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
    assert S != T
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


@pytest.mark.parametrize("n", [*range(3, 13), 20, 31, 50])
def test_rho_S_is_the_sine_matrix(n):
    """rho_S's gather equals sqrt(2n) sin(pi a b / n) / n built from Cyclotomic sines, is symmetric and squares to 1.

    evaluate_word relies on rho(S)^2 = 1, and gathers its factors from the
    same table; n = 50 is the largest level where the tests run the word oracle.
    """
    S = rho_S(n)
    assert np.array_equal(S.arr, S.arr.transpose(1, 0, 2))
    if n <= 31:
        root = sqrt_int(2 * n, 8 * n)
        want = RepMatrix.from_entries(n, [[root * sin_value(n, a * b) / n for b in range(1, n)] for a in range(1, n)])
        assert S.den == want.den and np.array_equal(S.arr, want.arr)
    assert (S * S).is_identity()


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


def _word_by_identity_loop(word, n):
    """The reference oracle: start at the identity, scale per T and multiply by rho(S) per odd S."""
    acc = RepMatrix.identity(n)
    for letter, e in word.tokens:
        if letter == "T":
            acc = acc.scale_cols(_t_exponents(n, e))
        elif e % 2:
            acc = acc * rho_S(n)
    return acc


def _oracle_words(n, rng, count):
    """Edge-case words at level n, then count seeded random ones with exponents of both signs."""
    N = conductor(n)
    S, T = STWord.S, STWord.T
    words = [
        STWord(),
        T(5),
        T(-3),
        T(N),
        T(-2 * N),
        S(),
        S(2),
        S(-1),
        S(3),
        S() * T(2) * S(),
        S(2) * T(1) * S(),
        S(-1) * T(-4),
        T(N) * S() * T(1),
        T(-2 * N) * S() * T(3) * S(-1),
        T(7) * S(2) * T(-1) * S() * T(2),
        T(N - 1) * S(2) * T(1),
        T(1) * S() * T(N) * S() * T(1),
    ]
    for _ in range(count):
        size = rng.randint(0, 7)
        words.append(
            STWord(
                [("S", rng.randint(-3, 3)) if rng.random() < 0.4 else ("T", rng.randint(-2 * N, 2 * N)) for _ in range(size)]
            )
        )
    return words


@pytest.mark.parametrize("n", [*range(3, 13), 20])
def test_word_oracle_matches_the_identity_led_loop(n):
    """evaluate_word, which multiplies gathered rho(T^x S T^y) factors, equals the loop that starts at the identity."""
    for word in _oracle_words(n, random.Random(n), 12 if n <= 12 else 4):
        assert evaluate_word(word, n) == _word_by_identity_loop(word, n), (n, word)


@pytest.mark.parametrize("n", [*range(3, 13), 20])
def test_word_oracle_factor_matches_the_identity_loop(n):
    """The gathered factor rho(T^x S T^y) of evaluate_word equals the identity-led loop on T^x S T^y.

    x and y are seeded, of both signs, and include 0, multiples of N and
    values above 2N.
    """
    N = conductor(n)
    rng = random.Random(300 + n)
    pairs = [(0, 0), (0, -5), (N, 1), (-2 * N, 3 * N + 2), (2 * N + 7, -N), (-1, 2 * N + 1)]
    pairs += [(rng.randint(-3 * N, 3 * N), rng.randint(-3 * N, 3 * N)) for _ in range(6)]
    for x, y in pairs:
        word = STWord.T(x) * STWord.S() * STWord.T(y)
        got = evaluate_word(word, n)
        assert got.arr.dtype == _sqrt_table(n)[0].dtype, (n, x, y)
        assert got == _word_by_identity_loop(word, n), (n, x, y)


def test_word_oracle_makes_one_product_fewer_than_its_odd_s(monkeypatch):
    """A word with m odd S tokens makes max(0, m - 1) products, none by a diagonal or the identity.

    Every product goes through RepMatrix.__mul__, and its right operand is
    rho(S T^y), with y the T powers between that odd S and the next.
    """
    products = []
    product = RepMatrix.__mul__

    def counted_product(x, y):
        products.append(y)
        return product(x, y)

    monkeypatch.setattr(RepMatrix, "__mul__", counted_product)
    most = 0
    for n in (3, 4, 5, 6, 7):
        rng = random.Random(100 + n)
        # the decomposed words of random matrices carry up to four odd S
        words = _oracle_words(n, rng, 12) + [decompose(lift(random_matrix(conductor(n), rng))) for _ in range(8)]
        for word in words:
            ys = []
            for letter, e in word.tokens:
                if letter == "S" and e % 2:
                    ys.append(0)
                elif letter == "T" and ys:
                    ys[-1] += e
            products.clear()
            evaluate_word(word, n)
            assert len(products) == max(0, len(ys) - 1), (n, word)
            assert all(x == rho_S(n).scale_cols(_t_exponents(n, y)) for x, y in zip(products, ys[1:])), (n, word)
            most = max(most, len(products))
    assert most >= 2
    # the Bantay word T S T S T: one product, not two
    products.clear()
    evaluate_word(STWord.T(3) * STWord.S() * STWord.T(7) * STWord.S() * STWord.T(3), 5)
    assert len(products) == 1


def test_scale_cols_takes_integer_exponents_of_any_kind():
    """Signed-int arrays take the one-dtype-test path; uint64 arrays and Python ints beyond int64 go through _integer."""
    n, M = 5, 40
    x = rho_S(n) * rho_T(n)
    exps = [-7, 0, 13, 41]
    want = x.scale_cols(exps)
    for same in (
        np.array(exps),
        np.array([e % M for e in exps], dtype=np.uint64),
        [e + (1 << 70) * M for e in exps],
        [np.int32(e) for e in exps],
    ):
        assert x.scale_cols(same) == want
    with pytest.raises(ValueError):
        x.scale_cols(np.zeros((2, 2), dtype=np.int64))


def test_cached_level_arrays_are_read_only():
    """The per-level caches hand out read-only arrays, so a caller's write cannot corrupt later results."""
    n = 5
    S = rho_S(n)
    with pytest.raises(ValueError, match="read-only"):
        S.arr[0, 0, 0] += 1
    # evaluate_word gathers rho(S) afresh from the same read-only table
    assert evaluate_word(STWord.S(), n) == S
    root = sqrt_int(2 * n, 8 * n)
    want = RepMatrix.from_entries(n, [[root * sin_value(n, a * b) / n for b in range(1, n)] for a in range(1, n)])
    assert rho_S(n) == want
    tab = _tables(8 * n)
    cached = [tab["rows"], tab["frows"], _sqrt_table(n)[0], _sqrt_planes(n)[0], *_prime_tables(8 * n, 0)[1:]]
    cached += list(_theorem1_tables(n).values())
    assert not any(arr.flags.writeable for arr in cached)


def test_minus_identity_acts_trivially():
    """rho(-Id) = Id, so rho factors through the quotient by +-1."""
    for n in (3, 4, 5, 6):
        w = decompose([[-1, 0], [0, -1]])
        assert evaluate_word(w, n).is_identity()
        r = ResidueMatrix(conductor(n), -1, 0, 0, -1)
        assert rho_closed(r, n).is_identity()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12])
def test_dirichlet_gauss_sum(n):
    """S(1, 4n) = 2 sqrt(n) (1 + i) and S(1, 8n) = 2 (1 + i) sqrt(2n) exactly; _sqrt_table rests on the second."""
    N = 4 * n
    want = sqrt_int(n, N) * 2 * (one(N) + root_of_unity(N, n))
    assert gauss_sum(1, N) == want
    M = 8 * n
    assert gauss_sum(1, M) == sqrt_int(2 * n, M) * 2 * (one(M) + root_of_unity(M, 2 * n))


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


def _galois_twist_reference(r, n):
    """sigma_L applied to rho(T)^A rho(S) rho(T)^D, L = C^-1 mod 8n: the composed theorem1 form."""
    M = 8 * n

    def t_power(e):
        return RepMatrix.identity(n).scale_cols([e * (2 * a * a - n) % M for a in range(1, n)])

    return (t_power(r.a) * rho_S(n) * t_power(r.d)).galois_map(pow(r.c % M, -1, M))


@pytest.mark.parametrize("n", [*range(3, 13), 20])
def test_theorem1_gather_matches_the_galois_twist(n):
    """The table gather equals the Galois twist of T^A S T^D for every unit C and several A, D."""
    N = conductor(n)
    units = [c for c in range(1, N) if gcd(c, N) == 1]
    pairs = [(0, 0), (1, N - 1), (5, 3), (N - 2, 7)]
    if n == 20:
        units, pairs = [7], [(3, 11)]
    for C in units:
        for A, D in pairs:
            r = ResidueMatrix(N, A, (A * D - 1) * pow(C, -1, N), C, D)
            assert rho_theorem1(r, n) == _galois_twist_reference(r, n), (n, r)


def _assert_same_exponents(got, want):
    assert all(x.dtype == y.dtype == np.int64 and np.array_equal(x, y) for x, y in zip(got, want, strict=True))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_scalar_exponents_equal_the_broadcast_exponents_exhaustively(n):
    """On Python ints, _theorem1_exponents equals its broadcast path at every unit C and every A and D."""
    N = conductor(n)
    units = [c for c in range(N) if gcd(c, N) == 1]
    for size in (None, 2):
        p, q = _theorem1_exponents(*np.ix_(np.arange(N), np.array(units), np.arange(N)), n, size)
        for (A, D), (j, C) in itertools.product(itertools.product(range(N), repeat=2), enumerate(units)):
            _assert_same_exponents(_theorem1_exponents(A, C, D, n, size), (p[A, j, D], q[A, j, D]))


@pytest.mark.parametrize("n", [12, 20, 31])
def test_scalar_exponents_equal_the_broadcast_exponents_on_samples(n):
    """Seeded (A, C, D) at larger levels: the Python-int exponents equal those of numpy integers."""
    rng = random.Random(n)
    N = conductor(n)
    units = [c for c in range(N) if gcd(c, N) == 1]
    for _ in range(100):
        A, C, D = rng.randrange(N), rng.choice(units), rng.randrange(N)
        for size in (None, 2):
            want = _theorem1_exponents(np.int64(A), np.int64(C), np.int64(D), n, size)
            _assert_same_exponents(_theorem1_exponents(A, C, D, n, size), want)


def test_numpy_integers_and_arrays_take_the_broadcast_path(monkeypatch):
    """np.int64 scalars and mixed calls such as (k_array, 1, 0) never reach _scalar_exponents, and agree with it."""
    n, N = 7, 56
    k = np.arange(N)
    scalar = {}
    for A, (C, D), size in itertools.product(range(N), ((1, 0), (3, 5)), (None, 2)):
        scalar[A, C, D, size] = wzwrep._scalar_exponents(A, C, D, n, size)

    def refuse(*args):
        raise AssertionError("a numpy argument reached _scalar_exponents")

    monkeypatch.setattr(wzwrep, "_scalar_exponents", refuse)
    for size in (None, 2):
        p, q = _theorem1_exponents(k, 1, 0, n, size)
        for A in k.tolist():
            _assert_same_exponents((p[A], q[A]), scalar[A, 1, 0, size])
        got = _theorem1_exponents(np.int64(4), np.int64(3), np.int64(5), n, size)
        _assert_same_exponents(got, scalar[4, 3, 5, size])
        got = _theorem1_exponents(4, np.int64(3), 5, n, size)
        _assert_same_exponents(got, scalar[4, 3, 5, size])


def _assert_normalized(m):
    """m is stored as RepMatrix.__init__'s gcd pass would store it: the same den and numerator values."""
    again = RepMatrix(m.n, m.arr.copy(), m.den)
    assert again.den == m.den and np.array_equal(again.arr, m.arr), m


def _assert_normalized_gather(m):
    """m is normalized and kept in the dtype of its level's sqrt(2n) table."""
    assert m.arr.dtype == _sqrt_table(m.n)[0].dtype, m
    _assert_normalized(m)


@pytest.mark.parametrize("n", range(3, 9))
def test_theorem1_gathers_are_born_normalized(n):
    """Every theorem1 bottom row, with a few A, gathers to the normal form, and so does the identity."""
    N = conductor(n)
    for C in (c for c in range(1, N) if gcd(c, N) == 1):
        for D in range(N):
            for A in (0, 1, N - 3):
                _assert_normalized_gather(rho_theorem1(ResidueMatrix(N, A, (A * D - 1) * pow(C, -1, N), C, D), n))
    _assert_normalized(RepMatrix.identity(n))
    assert RepMatrix.identity(n).arr.dtype == np.int64
    # once the table is divided by its content, a divisor is left only at n = 3 and 4
    assert _sqrt_table(n)[2] == {3: 3, 4: 2}.get(n, 1)


def test_random_theorem1_gathers_are_born_normalized():
    """Seeded random theorem1 elements up to n = 44, and at n = 61 and 101, gather to the normal form."""
    rng = random.Random(17)
    for n in (*range(3, 45), 61, 101):
        N = conductor(n)
        for _ in range(3):
            C = rng.choice([c for c in range(1, N) if gcd(c, N) == 1])
            A, D = rng.randrange(N), rng.randrange(N)
            _assert_normalized_gather(rho_theorem1(ResidueMatrix(N, A, (A * D - 1) * pow(C, -1, N), C, D), n))


def test_gather_range_guard_is_per_level():
    """The table guard passes while 2 max |Q| // g stays below 2^53 and raises from there."""
    # widened first: a shift of the cached int8 table would wrap to 0
    table = _sqrt_table(5)[0].astype(np.int64)
    assert _max_abs(table) == 2
    Q, D, g = _gather_form(5, table << 50, 1)
    assert 2 * _max_abs(Q) // g == 1 << 52
    with pytest.raises(ValueError, match="2\\^53"):
        _gather_form(5, table << 51, 1)


@pytest.mark.parametrize(
    "top, dtype",
    [
        (63, np.int8),
        (64, np.int16),
        (-64, np.int16),
        ((1 << 14) - 1, np.int16),
        (1 << 14, np.int32),
        ((1 << 30) - 1, np.int32),
        (1 << 30, np.int64),
    ],
)
def test_gather_form_picks_the_narrowest_type_for_a_row_difference(top, dtype):
    """A table is stored in the first of int8..int64 that holds 2 max |Q|, and the widest row difference fits it."""
    table = _sqrt_table(5)[0].astype(np.int64)
    table[0, 0], table[1, 0] = top, -top
    Q, D, g = _gather_form(5, table, 1)
    assert (Q.dtype, D, g) == (dtype, 1, 1)
    assert np.array_equal(Q, table)
    assert np.array_equal((Q[0] - Q[1]).astype(np.int64), table[0] - table[1])


def _int64_gather(r, n):
    """(numerators, den) of the theorem1 gather of r from an int64 copy of the table."""
    table, den, g = _sqrt_table(n)
    wide = table.astype(np.int64)
    p, q = _theorem1_exponents(r.a, r.c, r.d, n)
    return (wide[p] - wide[q]) // g, den // g


@pytest.mark.parametrize("n", [*range(3, 41), 61, 101])
def test_narrow_table_gathers_equal_the_int64_gather(n):
    """rho_S, rho_theorem1 and theorem1 rho_closed equal a gather from an int64 table, in the table's int8, on seeded elements."""
    assert _sqrt_table(n)[0].dtype == np.int8
    N = conductor(n)
    rng = random.Random(n)
    units = [c for c in range(1, N) if gcd(c, N) == 1]
    rs = [ResidueMatrix(N, 0, -1, 1, 0)]
    for _ in range(3):
        C, A, D = rng.choice(units), rng.randrange(N), rng.randrange(N)
        rs.append(ResidueMatrix(N, A, (A * D - 1) * pow(C, -1, N), C, D))
    pairs = [(rho_S(n), rs[0])] + [(f(r, n), r) for r in rs for f in (rho_theorem1, rho_closed)]
    for m, r in pairs:
        arr, den = _int64_gather(r, n)
        assert m.arr.dtype == np.int8 and m.den == den and np.array_equal(m.arr, arr), (n, r)


def _sqrt_int_table(n):
    """The table of sqrt(2n)/(2n) zeta^j from sqrt_int(2n, 8n): one shifted copy of the rows per nonzero coordinate."""
    M = 8 * n
    rows = _tables(M)["rows"]
    root = sqrt_int(2 * n, M)
    j = np.arange(M)
    table = np.zeros_like(rows)
    for v, c in enumerate(root.num):
        if c:
            table += c * rows[(j + v) % M]
    return _gather_form(n, table, 2 * n * root.den)


@pytest.mark.parametrize("n", [*range(3, 41), 61, 101])
def test_sqrt_table_matches_the_sqrt_int_construction(n):
    """The Gauss-sum zeta-orbit gives the sqrt_int table in Q, dtype, D and g."""
    Q, D, g = _sqrt_table(n)
    want_Q, want_D, want_g = _sqrt_int_table(n)
    assert (Q.dtype, D, g) == (want_Q.dtype, want_D, want_g)
    assert np.array_equal(Q, want_Q)


def test_galois_action_on_sqrt_2n_is_the_jacobi_symbol():
    """sigma_L(sqrt(2n)) = (2n|L) sqrt(2n) for every unit L mod 8n."""
    for n in range(3, 13):
        M = 8 * n
        root = sqrt_int(2 * n, M)
        for L in range(1, M):
            if gcd(L, M) == 1:
                assert galois(L, root) == root * jacobi(2 * n, L), (n, L)


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
    dicts = [[x.to_dict() for x in row] for row in S.entries()]
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


def test_product_of_two_levels_names_them():
    with pytest.raises(ValueError, match="levels n = 5 and n = 7"):
        rho_S(5) * rho_S(7)


def test_large_level_closed_vs_oracle_once():
    """A single large-n check per level keeps the wide-integer paths honest."""
    for n in (12, 31, 50):
        r = random_matrix(conductor(n), random.Random(77))
        assert rho_closed(r, n) == evaluate_word(decompose(lift(r)), n), n


def test_bad_input_raises_value_error_under_optimize():
    """Validation does not rest on assert: under python -O bad input still raises, and nothing spins."""
    code = """
import signal
import types
from fractions import Fraction
import numpy as np
from affinesl2.cyclotomic import cyclotomic_poly, factorize, jacobi
from affinesl2.qseries import log_eta_expansion_check, sigma1, verify_k1_identity, verify_t_parametrization
from affinesl2.galois_kernel import KernelReport, enumerate_kernel, expected_kernel_slice, factor_kernel_sl2z8, genus
from affinesl2.cyclotomic import Cyclotomic, galois, one, root_of_unity, sqrt_int
from affinesl2.modgroup import ResidueMatrix, STWord, complete_row, decompose, idempotents, lift
from affinesl2.modgroup import parse_matrix, sl2_order
from affinesl2.qseries import QSeries, _characters, character, eta_inverse_cubed, numeric_eval, s_transform_check
from affinesl2.galois_kernel import SignedPermutation, bantay_sigma_S_identity, sigma_covariance_check
from affinesl2.galois_kernel import phi2_image_is_normal, sigma_on_matrix, sigma_perm
from affinesl2.wzwrep import RepMatrix, _unit_shift, conductor, g_parity_check, rho_closed, rho_float, rho_S
from affinesl2.wzwrep import _gather_form, _sqrt_table, evaluate_word, rho_T, rho_theorem1
from affinesl2.identities import gauss_sum, gauss_sum_closed, kernel_sum, rho_coprime_closed, rho_coprime_legendre
from affinesl2.identities import rho_unit_d_closed, rho_upper_triangular
from group_enumeration import enumerate_group
cases = [
    lambda: ResidueMatrix(40, 2, 0, 0, 2),
    lambda: ResidueMatrix(0, 1, 0, 0, 1),
    lambda: ResidueMatrix(24, 1.0, 0, 0, 1.0),
    lambda: ResidueMatrix(24.0, 1, 0, 0, 1),
    lambda: rho_closed([[1.0, 0], [0, 1]], 3),
    lambda: rho_float([[2, 0], [0, 2]], 5),
    lambda: rho_closed([[2, 0], [0, 2]], 5),
    lambda: _unit_shift(types.SimpleNamespace(a=2, b=0, c=0, d=2), 5),
    lambda: enumerate_kernel(5, bound=8),
    lambda: conductor(2),
    lambda: conductor(5.0),
    lambda: conductor(np.int64(5)),
    lambda: factor_kernel_sl2z8(5),
    lambda: character(5, 3, 5),
    lambda: character(3, 3, 5),
    lambda: character(0, 3, 5),
    lambda: character(1, 3, -1),
    lambda: genus(13),
    lambda: genus(9),
    lambda: genus(7.0),
    lambda: expected_kernel_slice(3),
    lambda: QSeries(2, 1, [1, 1]) + QSeries(1, 0, [1, 1]),
    lambda: rho_closed(ResidueMatrix(40, 0, 39, 1, 0), 7),
    lambda: rho_theorem1(ResidueMatrix(56, 1, 0, 2, 1), 7),
    lambda: _gather_form(5, _sqrt_table(5)[0].astype(np.int64) << 51, 1),
    lambda: KernelReport(5, enumerate_kernel(5).kernel[:7], 0),
    lambda: KernelReport(5, [], 0),
    lambda: numeric_eval(character(1, 3, 20), 0.5 - 1j),
    lambda: s_transform_check(3, 0.1 - 0.9j, truncation=20),
    lambda: numeric_eval(character(1, 3, 20), complex("nan+1j")),
    lambda: numeric_eval(character(1, 3, 20), complex("0.1+nanj")),
    lambda: numeric_eval(character(1, 3, 20), complex("0.1+infj")),
    lambda: s_transform_check(3, complex("nan+1j"), truncation=20),
    lambda: s_transform_check(3, complex("inf+1j"), truncation=20),
    lambda: s_transform_check(3, complex("nan+nanj"), truncation=20),
    lambda: eta_inverse_cubed(-2),
    lambda: parse_matrix("[[1,2,3],[3,4]]"),
    lambda: Cyclotomic(8, [1, 2]),
    lambda: galois(2, root_of_unity(8, 1)),
    lambda: rho_S(3).galois_map(2),
    lambda: sqrt_int(3, 8),
    lambda: lift(ResidueMatrix(40, 1, 0, 0, 1), -1),
    lambda: parse_matrix("[[1.9,0],[0,1]]"),
    lambda: kernel_sum(0, 1, 1, 5),
    lambda: RepMatrix(3, rho_S(3).arr, 0),
    lambda: rho_S(5).scale_cols([1, 2]),
    lambda: RepMatrix.from_entries(3, [[one(24)]]),
    lambda: rho_S(5) * rho_S(7),
    lambda: rho_upper_triangular(ResidueMatrix(40, 1, 0, 1, 1), 5),
    lambda: rho_unit_d_closed(ResidueMatrix(40, 1, 1, 1, 2), 5),
    lambda: rho_unit_d_closed(ResidueMatrix(72, 1, 0, 3, 1), 9),
    lambda: rho_coprime_closed(ResidueMatrix(40, 1, 0, 2, 1), 5),
    lambda: rho_coprime_legendre(ResidueMatrix(16, 1, 0, 1, 1), 4),
    lambda: rho_coprime_legendre(ResidueMatrix(40, 1, 0, 2, 1), 5),
    lambda: gauss_sum_closed(1, 4),
    lambda: gauss_sum_closed(5, 5),
    lambda: SignedPermutation(5, (1, 1, 2, 3), (1, 1, 1, 1)),
    lambda: SignedPermutation(5, (1, 2, 3, 4), (1, 1, 1)),
    lambda: SignedPermutation(5, (1, 2, 3, 4), (1, 1, 1, 1), 0),
    lambda: sigma_perm(2, 5),
    lambda: sigma_on_matrix(2, rho_S(5)),
    lambda: sigma_covariance_check(2, ResidueMatrix(40, 1, 0, 0, 1), 5),
    lambda: bantay_sigma_S_identity(2, 5),
    lambda: sigma_perm(1, 2),
    lambda: sigma_perm(3.0, 5),
    lambda: sigma_covariance_check(3.0, ResidueMatrix(40, 1, 0, 0, 1), 5),
    lambda: bantay_sigma_S_identity(3.0, 5),
    lambda: RepMatrix(5, rho_S(3).arr, 1),
    lambda: RepMatrix(np.int64(3), rho_S(3).arr, 1),
    lambda: RepMatrix(3.0, rho_S(3).arr, 1),
    lambda: RepMatrix(2, np.zeros((1, 1, 4), dtype=np.int64), 1),
    lambda: g_parity_check(4),
    lambda: gauss_sum(1, 0),
    lambda: decompose([[2, 0], [0, 1]]),
    lambda: ResidueMatrix(24, 1, 1, 0, 1) * ResidueMatrix(16, 1, 0, 1, 1),
    lambda: STWord([("X", 1)]),
    lambda: list(enumerate_group(40, bound=24)),
    lambda: phi2_image_is_normal(4),
    lambda: idempotents(1),
    lambda: sl2_order(0),
    lambda: complete_row(8, 2, 4),
    lambda: root_of_unity(8, 1) ** -1,
    lambda: jacobi(3, 4),
    lambda: factorize(0),
    lambda: factorize(-6),
    lambda: cyclotomic_poly(0),
    lambda: root_of_unity(8, 1).promoted(12),
    lambda: QSeries(0, 0, [1]),
    lambda: QSeries(1, 0, []),
    lambda: QSeries(1, 0, [1, 1]) ** 0,
    lambda: sigma1(0),
    lambda: log_eta_expansion_check(0),
    lambda: verify_k1_identity(-1),
    lambda: verify_t_parametrization(-1),
    lambda: SignedPermutation(5, (1, 2, 3, 4), (1, 1, 1, 1)).applied_to_rows(rho_S(7)),
    lambda: RepMatrix(3, rho_S(3).arr.astype(float), 1),
    lambda: RepMatrix(3, rho_S(3).arr.astype(np.uint8), 1),
    lambda: RepMatrix(3, rho_S(3).arr.astype(bool), 1),
    lambda: RepMatrix(3, rho_S(3).arr.astype(complex), 1),
    lambda: RepMatrix(3, rho_S(3).arr.astype(object) * 1.5, 1),
    lambda: RepMatrix(3, rho_S(3).arr, 2.5),
    lambda: RepMatrix(3, np.full((2, 2, 8), 1 << 53), 1),
    lambda: RepMatrix(3, np.full((2, 2, 8), -(1 << 63)), -1),
    lambda: RepMatrix(3, np.full((2, 2, 8), 1 << 53, dtype=object), 1),
    lambda: RepMatrix.from_entries(3, [[one(24) * (1 << 53), one(24)], [one(24), one(24)]]),
    lambda: RepMatrix(3, np.full((2, 2, 8), (1 << 25) - 1), 1) * RepMatrix(3, np.full((2, 2, 8), (1 << 25) - 1), 1),
    lambda: RepMatrix(3, np.full((2, 2, 8), 1 << 50), 1).scale_cols([0, 1]),
    lambda: RepMatrix(3, np.full((2, 2, 8), 1 << 50), 1).galois_map(5),
    lambda: enumerate_kernel(3, workers=0),
    lambda: enumerate_kernel(3, workers=1.5),
    lambda: enumerate_kernel(3, workers=2),
    lambda: STWord.T(1.5),
    lambda: STWord([("S", 2.7)]),
    lambda: decompose([[1, 0.5], [0, 1]]),
    lambda: decompose([[1, 2.5], [0, 1]]),
    lambda: rho_S(2),
    lambda: rho_S(1),
    lambda: rho_T(2),
    lambda: evaluate_word(STWord.S(), 2),
    lambda: s_transform_check(1, 1j),
    lambda: character(1.5, 3, 5),
    lambda: character(1, 3.0, 5),
    lambda: character(1, 3, 5.0),
    lambda: eta_inverse_cubed(2.5),
    lambda: log_eta_expansion_check(5.0),
    lambda: verify_k1_identity(5.0),
    lambda: verify_t_parametrization(5.0),
    lambda: s_transform_check(3.0, 1j),
    lambda: QSeries(1, 0.5, [1, 2]),
    lambda: character(1, 3, 5).table(-1),
    lambda: character(1, 3, 5).table(2.0),
    lambda: _characters(1, 5),
    lambda: _characters(3.0, 5),
    lambda: _characters(3, -1),
    lambda: rho_S(5).scale_cols([0.5] * 4),
    lambda: rho_S(5).galois_map(2.5),
    lambda: Cyclotomic(4, [0.5, 1.9]),
    lambda: QSeries(1, 0, [0.5, 1]),
]
type_cases = [
    lambda: SignedPermutation(5, (1, 2, 3, 4), (1, 1, 1, 1)).applied_to_rows(rho_S(5).arr),
    lambda: evaluate_word([("S", 1)], 5),
    lambda: RepMatrix(3, [[1]]),
]
zero_cases = [
    lambda: root_of_unity(24, 5) / 0,
    lambda: root_of_unity(24, 5) / Fraction(0),
]
# each case gets its own deadline, so one that spins fails at once and names itself
DEADLINE_S = 5


def spun(signum, frame):
    raise SystemExit(f"case {i} still running after {DEADLINE_S} s")


signal.signal(signal.SIGALRM, spun)
checks = [(case, ValueError) for case in cases] + [(case, TypeError) for case in type_cases]
checks += [(case, ZeroDivisionError) for case in zero_cases]
for i, (case, error) in enumerate(checks):
    signal.alarm(DEADLINE_S)
    try:
        case()
    except error:
        continue
    finally:
        signal.alarm(0)
    raise SystemExit(f"case {i} accepted")
assert False, "asserts are live"
print("ok")
"""
    src = os.path.dirname(os.path.dirname(affinesl2.__file__))
    # the tests' own directory holds group_enumeration
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "ok\n"), done.stderr


def _map_limit(n):
    """The largest max |numerator| whose bound max |numerator| phi rowmax stays below 2^53."""
    tab = _tables(8 * n)
    step = tab["phi"] * tab["rowmax"]
    amax = (_FLOAT_EXACT - 1) // step
    assert amax * step < _FLOAT_EXACT <= (amax + 1) * step
    return amax


def test_exact_kernel_float_path_below_2_53():
    """The float64 scale_cols and galois_map agree with Cyclotomic entries up to the largest bound below 2^53, and raise from 2^53."""
    for n in (3, 5, 8):
        M = 8 * n
        rng = random.Random(53 + n)
        amax = _map_limit(n)
        exps = [rng.randint(-M, 2 * M) for _ in range(n - 1)]
        L = rng.choice([L for L in range(2, M) if gcd(L, M) == 1])
        x = RepMatrix(n, _random_coords(n, rng, amax), 1)
        assert _max_abs(x.arr) == amax
        assert x.scale_cols(exps).entries() == [
            [x.entry(i, j) * root_of_unity(M, e) for j, e in enumerate(exps)] for i in range(n - 1)
        ]
        assert x.galois_map(L).entries() == [[galois(L, v) for v in row] for row in x.entries()]
        y = RepMatrix(n, _random_coords(n, rng, amax + 1), 1)
        for op in (lambda: y.scale_cols(exps), lambda: y.galois_map(L), y.dagger):
            with pytest.raises(ValueError, match="2\\^53"):
                op()


def test_exact_kernel_python_ints_from_2_53():
    """CRT assembles on Python ints once the primes' product reaches 2^53, and recovers every |x| below half of it."""
    rng = random.Random(54)
    for M in (24, 64):
        for k in (2, 3, 4):
            primes = [_prime_tables(M, s)[0] for s in range(k)]
            half = (prod(primes) - 1) // 2
            xs = [rng.randint(-half, half) for _ in range(40)]
            xs += [0, 1, -1, half, -half, _FLOAT_EXACT - 1, 1 - _FLOAT_EXACT]
            xs = [x for x in xs if abs(x) <= half]
            if k >= 3:
                # from 2^53 on: values int64 holds, and (k = 4) values it does not
                xs += [_FLOAT_EXACT, -_FLOAT_EXACT, _FLOAT_EXACT + 1, half - 1]
            # centered residues, as the multimodular product hands them over
            residues = np.array([[(x + p // 2) % p - p // 2 for x in xs] for p in primes], dtype=np.float64)
            got = _crt(residues, primes, np.empty(len(xs)))
            assert got.dtype == (object if prod(primes) >= _FLOAT_EXACT else np.int64)
            assert got.tolist() == xs


@pytest.mark.parametrize("M", [40, 160, 248])
def test_one_centering_lands_within_half_p_below_2_52(M):
    """One _center of any |x| < 2^52 gives r = x (mod p) with |r| <= (p - 1)/2, the range _crt takes digit 0 in."""
    rng = random.Random(M)
    top = (1 << 52) - 1
    for s in range(2):
        p = _prime_tables(M, s)[0]
        xs = [rng.randint(-top, top) for _ in range(200)] + [top, -top]
        # the two halfway neighbours of a multiple of p, on either side
        for m in (0, 1, rng.randrange(top // p), top // p - 1):
            xs += [sign * (p * m + d) for sign in (1, -1) for d in ((p - 1) // 2, (p + 1) // 2, -(p - 1) // 2, -(p + 1) // 2)]
        assert max(map(abs, xs)) == top
        got = wzwrep._center(np.array(xs, dtype=np.float64), p)
        for x, r in zip(xs, got.tolist()):
            assert r == int(r) and (int(r) - x) % p == 0 and abs(r) <= (p - 1) // 2, (p, x, r)


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
    """Products, scalings and Galois maps of large numerators are exact int64, and 2^53 raises."""
    S, T = rho_S(n), rho_T(n)
    # widened first: S.arr is int8, where * 2^40 raises and smaller factors wrap
    wide = S.arr.astype(np.int64)
    # over denominator 1 the factor 2^40 cannot cancel
    big = RepMatrix(n, wide * (1 << 40), 1)
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
    # scaling and Galois maps bound their sums by max |numerator| phi rowmax: S scaled up to the limit keeps it below 2^53
    for x in (big, RepMatrix(n, wide * (_map_limit(n) // _max_abs(wide)), 1)):
        assert x.scale_cols(exps).entries() == [
            [x.entry(i, j) * root_of_unity(8 * n, e) for j, e in enumerate(exps)] for i in range(n - 1)
        ]
        assert x.galois_map(L).entries() == [[galois(L, v) for v in row] for row in x.entries()]
    # stored below 2^53, but its maps' bound reaches it
    near = RepMatrix(n, wide * (1 << 50), 1)
    assert near.arr.dtype == np.int64
    for op in (lambda: near.scale_cols(exps), lambda: near.galois_map(L), near.dagger):
        with pytest.raises(ValueError):
            op()
    # 2^53 is refused as a stored numerator, never wrapped or promoted; normalization comes first
    with pytest.raises(ValueError):
        RepMatrix(n, wide * (1 << 53), 1)
    assert RepMatrix(n, wide * (1 << 53), S.den << 53) == S


@pytest.mark.parametrize("n", range(3, 13))
def test_outputs_are_int64_below_2_53(n):
    """Every RepMatrix that the exact routes, products, unit maps and from_entries build lies below 2^53.

    Theorem1 gathers keep the dtype of the sqrt(2n) table, and so does the
    word oracle on a word with one odd S, a single gather; every other
    output is int64, the oracle's products among them.
    """
    M, N = 8 * n, conductor(n)
    rng = random.Random(n)
    mats = [random_matrix(N, rng) for _ in range(3)]
    # c = 1: a theorem1 element, so that rho_closed returns a gather at every n
    mats.append(ResidueMatrix(N, 1, 0, 1, 1))
    gathers = [rho_S(n)] + [rho_closed(r, n) for r in mats if dispatch_path(r, n) == "theorem1"]
    outs = [rho_T(n), RepMatrix.from_entries(n, rho_S(n).entries())]
    outs += [rho_closed(r, n) for r in mats if dispatch_path(r, n) != "theorem1"]
    # one odd S: a single gather; two: a product
    words = [decompose(lift(r)) for r in mats]
    words += [STWord.T(3) * STWord.S() * STWord.T(-1), STWord.S() * STWord.T(2) * STWord.S()]
    for word in words:
        odd_s = sum(1 for letter, e in word.tokens if letter == "S" and e % 2)
        (gathers if odd_s == 1 else outs).append(evaluate_word(word, n))
    exps = [rng.randint(0, M) for _ in range(n - 1)]
    for x in gathers + outs:
        outs += [x * x, x.scale_cols(exps), x.galois_map(4 * n + 1), x.dagger()]
    assert len(gathers) >= 2
    for x in gathers:
        assert x.arr.dtype == _sqrt_table(n)[0].dtype and _max_abs(x.arr) < _FLOAT_EXACT
    for x in outs:
        assert x.arr.dtype == np.int64 and _max_abs(x.arr) < _FLOAT_EXACT


def test_level_caches_stay_bounded_and_rebuild_bit_identically():
    """Cycling more levels than a per-level cache holds evicts the oldest; a rebuild equals the first build."""
    first = rho_S(3), rho_T(3), _sqrt_table(3)
    bound = rho_S.cache_parameters()["maxsize"]
    for n in range(4, 4 + bound):
        rho_S(n), rho_T(n), _sqrt_table(n)
        assert rho_S.cache_info().currsize <= bound
    again = rho_S(3), rho_T(3), _sqrt_table(3)
    for old, new in zip(first[:2], again[:2]):
        assert new is not old, "level 3 was not evicted"
        assert (new.den, new.arr.dtype) == (old.den, old.arr.dtype) and np.array_equal(new.arr, old.arr)
    (old_q, old_den, old_g), (new_q, new_den, new_g) = first[2], again[2]
    assert new_q is not old_q and (new_den, new_g) == (old_den, old_g) and new_q.dtype == old_q.dtype
    assert np.array_equal(new_q, old_q)


def test_off_stratum_rho_closed_at_n101_stays_within_200_mb():
    """One rho_closed off the theorem1 stratum at n = 101, r = (1, 0; 2, 1) mod 808, grows peak RSS by under 200 MB.

    gcd(c, N) = 2, so the call takes the product route; it grew the peak by
    about 157 MB on a 2-core Xeon VM, for a 31 MB result, where keeping the
    gathered factors alive through normalization grew it by 188 MB.
    ru_maxrss is in KB on Linux.
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(affinesl2.__file__)))
    code = """
import resource
from affinesl2.modgroup import ResidueMatrix
from affinesl2.wzwrep import rho_closed
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
m = rho_closed(ResidueMatrix(808, 1, 0, 2, 1), 101)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base
print(m.arr.shape == (100, 100, 400), m.is_identity(), grown < 200 * 1024, grown)
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[:3] == ["True", "False", "True"], done.stdout


def test_rho_S_at_n101_stays_within_20_mb():
    """rho_S(101) grows peak RSS by under 20 MB over the import.

    Its gather stays in the sqrt(2n) table's int8: a 3.8 MB result, and
    about 14.5 MB of growth on a 2-core Xeon VM, where an int64 copy of it
    grew the peak by 40.4 MB.  ru_maxrss is in KB on Linux.
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(affinesl2.__file__)))
    code = """
import resource
from affinesl2.wzwrep import rho_S
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
m = rho_S(101)
grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base
print(m.arr.shape == (100, 100, 400), grown < 20 * 1024, grown)
"""
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split()[:2] == ["True", "True"], done.stdout


@pytest.mark.parametrize("n", [*range(3, 13), 20, 31])
def test_narrow_numerators_give_the_int64_results(n):
    """Every consumer of an int8 gather gives what it gives on the same numerators in int64, and returns int64."""
    N, M = conductor(n), 8 * n
    rng = random.Random(n)
    units = [c for c in range(1, N) if gcd(c, N) == 1]
    gathers = [rho_S(n)]
    for _ in range(2):
        C, A, D = rng.choice(units), rng.randrange(N), rng.randrange(N)
        gathers.append(rho_closed(ResidueMatrix(N, A, (A * D - 1) * pow(C, -1, N), C, D), n))
    T = rho_T(n)
    exps = [rng.randrange(M) for _ in range(n - 1)]
    L = rng.choice([L for L in range(2, M) if gcd(L, M) == 1])
    perm = sigma_perm(rng.choice([d for d in range(1, 2 * n) if gcd(d, 2 * n) == 1]), n)
    maps = [
        lambda m: -m,
        lambda m: m * T,
        lambda m: T * m,
        lambda m: m.scale_cols(exps),
        lambda m: m.galois_map(L),
        lambda m: m.dagger(),
        perm.applied_to_rows,
    ]
    for X in gathers:
        W = RepMatrix(n, X.arr.astype(np.int64), X.den)
        assert X.arr.dtype == np.int8 and W.arr.dtype == np.int64
        assert X == W and W == X
        for f in maps:
            x, w = f(X), f(W)
            assert x.arr.dtype == w.arr.dtype == np.int64
            assert x.den == w.den and np.array_equal(x.arr, w.arr)
        assert X.is_unitary() and W.is_unitary()
        assert np.array_equal(X.to_floats(), W.to_floats())
        assert X.entries() == W.entries()


def test_int8_numerators_widen_before_the_sign_flip():
    """-128 in int8 over den -1 is stored as +128 over 1: the constructor widens before it negates."""
    arr = np.full((2, 2, 8), -128, dtype=np.int8)
    m = RepMatrix(3, arr, -1)
    assert m.den == 1 and m.arr.dtype == np.int64
    assert np.array_equal(m.arr, np.full((2, 2, 8), 128))


def _normalization_mismatches():
    """Labels of the cases whose stored (arr, den) differs from the reference gcd(den, content) normal form.

    Empty when every case agrees.  It uses no assert, so it checks the
    constructor under python -O as well.
    """
    rng = random.Random(29)
    shape = (2, 2, 8)

    def coords(step):
        return np.array([step * rng.randint(-10, 10) for _ in range(32)], dtype=np.int64).reshape(shape)

    proper = coords(2) * 3
    proper[0, 0, :2] = (6, 18)
    # row 0's content is 6, the whole array's 2
    proper[1, 1, 3] = 8
    confirmed = coords(6)
    confirmed[0, 0, 0] = 6
    zero_row = coords(5)
    zero_row[0] = 0
    zero_row[1, 0, 0] = 5
    cases = {
        "row 0 a proper multiple": (proper, 12),
        "row 0 confirmed": (confirmed, 12),
        "row 0 coprime to den": (coords(1) | 1, 10),
        "zero row 0": (zero_row, 10),
        "zero matrix": (np.zeros(shape, dtype=np.int64), 7),
        "zero matrix over den < 0": (np.zeros(shape, dtype=np.int64), -4),
        "zero matrix over den = 2^70": (np.zeros(shape, dtype=np.int64), 1 << 70),
        "zero matrix over den = -2^70": (np.zeros(shape, dtype=np.int64), -(1 << 70)),
        "den < 0": (coords(3), -9),
    }
    bad = []
    for label, (arr, den) in cases.items():
        vals = [int(v) for v in arr.flat]
        g = gcd(den, *vals)
        sign = -1 if den < 0 else 1
        want = ([sign * v // g for v in vals], sign * den // g)
        for dtype in (np.int8, np.int64, object):
            m = RepMatrix(3, arr.astype(dtype), den)
            if m.arr.dtype != np.int64 or (m.arr.flatten().tolist(), m.den) != want:
                bad.append(f"{label} ({np.dtype(dtype)})")
    if RepMatrix(3, proper, 12).den != 6:
        bad.append("row 0 a proper multiple: den is not 6")
    return bad


def test_normalization_confirms_the_row_divisor():
    """RepMatrix stores the gcd pass's normal form whether or not row 0's divisor divides every numerator, also under -O."""
    assert _normalization_mismatches() == []
    code = "from test_wzwrep import _normalization_mismatches\nassert False, 'asserts are live'\nprint(_normalization_mismatches())"
    src = os.path.dirname(os.path.dirname(affinesl2.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.path.dirname(__file__)]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def _random_coords(n, rng, amax):
    """A random (dim, dim, phi) coordinate array with entries in [-amax, amax] and a few at +-amax."""
    dim, phi = n - 1, euler_phi(8 * n)
    arr = np.array([rng.randint(-amax, amax) for _ in range(dim * dim * phi)], dtype=object)
    arr[:: 7] = amax
    arr[3 :: 11] = -amax
    return arr.reshape(dim, dim, phi).astype(np.int64)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_rep_matrix_product_matches_the_schoolbook_product(n, monkeypatch):
    """The multimodular product equals the product of Cyclotomic entries, for one to many primes."""
    rng = random.Random(n)
    M = 8 * n
    center, calls = wzwrep._center, [0]

    def counted(*args):
        calls[0] += 1
        return center(*args)

    def centerings(op):
        calls[0] = 0
        op()
        return calls[0]

    monkeypatch.setattr(wzwrep, "_center", counted)
    cases = [tuple(RepMatrix(n, _random_coords(n, rng, 9), rng.randint(1, 99)) for _ in range(2))]
    # c X over 1 times Y over c: operands and the bound are large, and the
    # product normalizes to X Y, below 2^53, only if CRT assembles it exactly
    for shift, bmax in ((36, 9), (49, 1 << 25)):
        x = RepMatrix(n, _random_coords(n, rng, 9) << shift, 1)
        cases.append((x, RepMatrix(n, _random_coords(n, rng, bmax), 1 << shift)))
    # numerators just below 2^53, where a residue taken in float64 alone rounds
    top = RepMatrix(n, _random_coords(n, rng, _FLOAT_EXACT - 1), 1)
    cases.append((top, RepMatrix.identity(n)))
    primes = []
    for x, y in cases:
        assert _max_abs(x.arr) < _FLOAT_EXACT and _max_abs(y.arr) < _FLOAT_EXACT
        k = _num_primes(M, _product_bound(_max_abs(x.arr), _max_abs(y.arr), M))
        primes.append(k)
        assert (x * y).entries() == _entrywise_product(x, y)
        planes = sum(
            centerings(lambda m=m: wzwrep._planes(m.arr.reshape((n - 1) ** 2, -1), _max_abs(m.arr), M, k))
            for m in (x, y)
        )
        # two per prime in the product, then CRT: digit 0 arrives centered
        # and is used as given, digits 1..k-1 are centered once each, and
        # digit s takes s - 1 Horner steps
        assert centerings(lambda: x * y) == planes + 2 * k + (k - 1) + (k - 1) * (k - 2) // 2, k
    assert top * RepMatrix.identity(n) == top
    # three or more primes assemble CRT on Python ints
    assert primes[0] <= 2 and primes[1] >= 3 and primes[2] >= 5, primes
    # a product whose normalized coordinates reach 2^53 raises
    full = RepMatrix(n, np.full((n - 1, n - 1, euler_phi(M)), (1 << 25) - 1, dtype=np.int64), 1)
    with pytest.raises(ValueError, match="2\\^53"):
        full * full


@pytest.mark.parametrize("n", range(3, 13))
def test_unit_maps_keep_matrices_normalized(n):
    """scale_cols, galois_map and dagger skip the gcd pass: their results are already normalized."""
    rng = random.Random(100 + n)
    M = 8 * n
    odd = _random_coords(n, rng, 50) * 2
    odd[0, 0, 0] = 3
    inputs = [
        RepMatrix(n, _random_coords(n, rng, 50), rng.randint(1, 99)),
        # every numerator is even and den = 12, yet the stored form is normalized by the odd 3
        RepMatrix(n, odd, 12),
        # every numerator shares the factor 5, coprime to den = 2
        RepMatrix(n, _random_coords(n, rng, 50) * 5, 2),
        rho_S(n) * rho_T(n),
        # widened first: rho_S(n).arr is int8, where * 2^40 raises
        RepMatrix(n, rho_S(n).arr.astype(np.int64) * (1 << 40), 1),
        # the largest numerators whose maps stay exact
        RepMatrix(n, _random_coords(n, rng, _map_limit(n)), 3),
    ]
    assert inputs[1].den == 12 and inputs[2].den == 2 and inputs[-1].den == 3
    exps = [rng.randint(-3 * M, 3 * M) for _ in range(n - 1)]
    exps[0], exps[-1] = -1, M + 5
    L = rng.choice([L for L in range(2, M) if gcd(L, M) == 1])
    for x in inputs:
        for y in (x.scale_cols(exps), x.galois_map(L), x.dagger()):
            again = RepMatrix(n, y.arr, y.den)
            assert (again.den, again.arr.dtype) == (y.den, y.arr.dtype)
            assert np.array_equal(again.arr, y.arr)
    x = inputs[1]
    assert x.scale_cols(exps).entries() == [
        [x.entry(i, j) * root_of_unity(M, e) for j, e in enumerate(exps)] for i in range(n - 1)
    ]
    over = RepMatrix(n, _random_coords(n, rng, _map_limit(n) + 1), 3)
    for op in (lambda: over.scale_cols(exps), lambda: over.galois_map(L), over.dagger):
        with pytest.raises(ValueError):
            op()


@pytest.mark.parametrize("n", range(3, 13))
def test_prime_tables_evaluate_at_the_roots_of_phi(n):
    """Each builder prime is p = 1 (mod 8n); its points are the roots of Phi_8n mod p and V^-1 inverts V."""
    M, phi = 8 * n, euler_phi(8 * n)
    poly = cyclotomic_poly(M)
    seen = set()
    for i in range(3):
        p, x, V, Vinv = _prime_tables(M, i)
        assert p < 1 << 21 and p % M == 1 and p not in seen
        assert all(p % d for d in range(2, math.isqrt(p) + 1))
        seen.add(p)
        roots = [int(v) for v in x]
        assert len(set(roots)) == phi
        assert all(sum(c * pow(v, u, p) for u, c in enumerate(poly)) % p == 0 for v in roots)
        assert np.array_equal(V.astype(np.int64) % p, np.array([[pow(v, u, p) for v in roots] for u in range(phi)]))
        ident = (V.astype(np.int64) @ Vinv.astype(np.int64)) % p
        assert np.array_equal(ident, np.eye(phi, dtype=np.int64))


@pytest.mark.parametrize("n", [*range(3, 13), 20, 31, 50])
def test_vinv_bound_covers_the_float_norm_and_gives_one_prime(n):
    """B_M lies between the float column-sum norm of V^-1 and twice it, and rho_closed then needs one prime."""
    M, phi = 8 * n, euler_phi(8 * n)
    roots = [e for e in range(1, M) if gcd(e, M) == 1]
    V = np.exp(2j * np.pi / M * np.outer(np.arange(phi), roots))
    norm = float(np.abs(np.linalg.inv(V)).sum(axis=0).max())
    assert norm <= _vinv_bound(M) <= 2 * norm
    assert _sqrt_planes(n)[1] == 1


@pytest.mark.parametrize("n", [20, 31, 50])
def test_one_prime_product_matches_the_general_product(n):
    """Off theorem1, rho_closed equals its two theorem1 factors multiplied by RepMatrix.__mul__ on the coordinate bound."""
    N, M = conductor(n), 8 * n
    rng = random.Random(n)
    samples = {}
    while len(samples) < 2:
        r = random_matrix(N, rng)
        stratum = dispatch_path(r, n)
        if stratum in ("unit_d", "word"):
            samples.setdefault(stratum, r)
    a = rng.choice([x for x in range(N) if gcd(x, N) == 1])
    samples["upper"] = ResidueMatrix(N, a, rng.randrange(N), 0, pow(a, -1, N))
    assert sorted(dispatch_path(r, n) for r in samples.values()) == ["unit_d", "upper", "word"]
    for r in samples.values():
        k, w = _unit_shift(r, n)
        x, y = rho_theorem1(w, n), rho_theorem1(ResidueMatrix(N, 0, -1, 1, -k), n)
        # the general product sizes its CRT from the factors' coordinates: two primes here
        assert _num_primes(M, _product_bound(_max_abs(x.arr), _max_abs(y.arr), M)) == 2
        assert rho_closed(r, n) == x * y, r
