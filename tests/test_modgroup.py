"""Tests for SL2 words, residue matrices, and lifting."""

import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinesl2.cyclotomic import xgcd
from affinesl2.modgroup import (
    ResidueMatrix,
    STWord,
    complete_row,
    decompose,
    format_matrix,
    idempotents,
    lift,
    local_generators,
    mat_det,
    mat_mul,
    parse_matrix,
    random_matrix,
    sl2_order,
    unimodular_rows,
)
from group_enumeration import enumerate_group


def word_matrix(w):
    """Evaluate an STWord to a 2x2 integer matrix, letter by letter: the reference for decompose."""
    out = [[1, 0], [0, 1]]
    for letter, e in w.tokens:
        if letter == "T":
            out = mat_mul(out, [[1, e], [0, 1]])
        else:
            # S has order 4 in SL2(Z)
            for _ in range(e % 4):
                out = mat_mul(out, [[0, -1], [1, 0]])
    return out


def _random_sl2z(rng, steps=8):
    """Random SL2(Z) matrix as a short product of generators."""
    m = [[1, 0], [0, 1]]
    s = [[0, -1], [1, 0]]
    for _ in range(steps):
        if rng.random() < 0.5:
            m = mat_mul(m, s)
        else:
            e = rng.randrange(-6, 7)
            m = mat_mul(m, [[1, e], [0, 1]])
    return m


def test_word_algebra():
    """Concatenation and inversion of words match matrix products."""
    w1 = STWord.T(3) * STWord.S() * STWord.T(-2)
    w2 = STWord.S() * STWord.T(5)
    assert word_matrix(w1 * w2) == mat_mul(word_matrix(w1), word_matrix(w2))
    assert word_matrix(w1 * w1.inverse()) == [[1, 0], [0, 1]]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10_000))
def test_decompose_roundtrip(seed):
    """word_matrix(decompose(m)) recovers m for random SL2(Z) matrices."""
    m = _random_sl2z(random.Random(seed))
    assert mat_det(m) == 1
    assert word_matrix(decompose(m)) == m


def test_decompose_word_length_is_logarithmic():
    """Euclid keeps the word length small even for huge entries."""
    m = [[1, 0], [0, 1]]
    for e in (97, -55, 1234, -789, 4096):
        m = mat_mul(m, [[1, e], [0, 1]])
        m = mat_mul(m, [[0, -1], [1, 0]])
    assert max(abs(x) for row in m for x in row) > 10**9
    word = decompose(m)
    assert word_matrix(word) == m
    assert len(word.tokens) < 60


def test_minus_identity_decomposes_through_s_squared():
    w = decompose([[-1, 0], [0, -1]])
    assert word_matrix(w) == [[-1, 0], [0, -1]]


def test_decompose_rejects_non_integer_entries():
    """A Fraction or float entry raises ValueError, not an assert: diag(1/2, 2) has determinant 1 and no word."""
    for m in ([[Fraction(1, 2), 0], [0, 2]], [[0.5, 0], [0, 2]], [[1.0, 0], [0, 1]], [[2, 1], [Fraction(1), 1]]):
        with pytest.raises(ValueError, match="integer"):
            decompose(m)
    assert word_matrix(decompose([[np.int64(2), 1], [1, np.int8(1)]])) == [[2, 1], [1, 1]]


def test_residue_matrix_group_ops():
    N = 24
    r = ResidueMatrix(N, 5, 7, 4, 1)
    assert (r * r.inverse()).is_identity()
    assert (-r).entries() == [[19, 17], [20, 23]]
    assert r.canonical_up_to_sign() == min(r, -r, key=lambda x: x.key())
    with pytest.raises(ValueError):
        ResidueMatrix(N, 1, 1, 1, 1)


def test_residue_matrix_takes_any_integer_type_and_no_float():
    """numpy integers are integers; a float entry or modulus raises ValueError even when it is integral."""
    r = ResidueMatrix(np.int64(24), np.int64(5), np.int32(7), 4, np.uint8(1))
    assert r == ResidueMatrix(24, 5, 7, 4, 1) and type(r.a) is int
    for args in ((24, 1.0, 0, 0, 1.0), (24.0, 1, 0, 0, 1), (24, 1, 0, 0, np.float64(1))):
        with pytest.raises(ValueError, match="integers"):
            ResidueMatrix(*args)


def test_parse_and_format():
    assert parse_matrix("[[0,-1],[1,0]]") == [[0, -1], [1, 0]]
    assert format_matrix([[1, 2], [3, 4]]) == "[[1,2],[3,4]]"
    with pytest.raises(ValueError):
        parse_matrix("[[1,2,3]]")
    with pytest.raises(ValueError):
        parse_matrix("[[1.9,0],[0,1]]")


@pytest.mark.parametrize("N", [2, 3, 4, 6, 8, 12])
def test_group_enumeration_count(N):
    """enumerate_group lists exactly |SL2(Z/NZ)| distinct elements."""
    elems = list(enumerate_group(N))
    assert len(elems) == sl2_order(N)
    assert len({r.key() for r in elems}) == len(elems)


@pytest.mark.parametrize("N", [8, 12, 24, 40])
def test_unimodular_row_count(N):
    """Rows (c, d) with gcd(c, d, N) = 1 number |SL2(Z/NZ)| / N."""
    rows = list(unimodular_rows(N))
    assert len(rows) == sl2_order(N) // N
    assert all(gcd(gcd(c, d), N) == 1 for c, d in rows)


@pytest.mark.parametrize("N", [12, 24, 40, 56])
def test_complete_row(N):
    for c, d in [(1, 0), (0, 1), (5, 7), (N - 1, 2)]:
        if gcd(gcd(c, d), N) != 1:
            continue
        a, b = complete_row(N, c, d)
        assert (a * d - b * c) % N == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([16, 24, 40, 56]), st.integers(0, 10_000), st.integers(0, 3))
def test_lift_reduces_back(N, seed, shift):
    """Lifts have determinant 1 and reduce to the residue matrix mod N."""
    r = random_matrix(N, random.Random(seed))
    m = lift(r, shift)
    assert mat_det(m) == 1
    assert [[x % N for x in row] for row in m] == r.entries()


def _lift_by_prime_powers(r, shift):
    """lift(r, shift) by the CRT over prime powers: the reference for lift's one congruence.

    The same bottom row as lift; the completion (x, y; c, d) of it gets t (c, d)
    added to its top row, where t fixes a mod each prime power q of N at
    which c is a unit and b at the others, where d is one.
    """
    N, c, d = r.N, r.c or r.N, r.d
    ks = (k for k in range(N * N) if gcd(c, d + k * N) == 1)
    for _ in range(shift + 1):
        k = next(ks)
    d += k * N
    _, x, y = xgcd(d, -c)
    t = 0
    for q, e in idempotents(N).items():
        if gcd(c, q) == 1:
            t += (r.a - x) * pow(c, -1, q) * e
        else:
            t += (r.b - y) * pow(d, -1, q) * e
    t %= N
    return [[x + t * c, y + t * d], [c, d]]


@pytest.mark.parametrize("N", [16, 40, 840])
def test_lift_equals_the_prime_power_completion(N):
    """lift agrees with the per-prime-power completion, at one, two and three prime factors of N."""
    rng = random.Random(N)
    rs = [random_matrix(N, rng) for _ in range(60)]
    rs += [ResidueMatrix(N, 1, 0, 0, 1), ResidueMatrix(N, -1, 5, 0, -1), ResidueMatrix(N, 0, -1, 1, 0)]
    for r in rs:
        for shift in range(3):
            assert lift(r, shift) == _lift_by_prime_powers(r, shift), (r, shift)


def test_lifts_with_different_shifts_differ():
    r = ResidueMatrix(24, 5, 7, 4, 1)
    assert lift(r, 0) != lift(r, 1)


def test_idempotents_split_the_modulus():
    """The CRT idempotents square to themselves and sum to 1."""
    for N in (24, 40, 56, 88):
        parts = idempotents(N)
        assert sum(parts.values()) % N == 1
        for q, e in parts.items():
            assert (e * e) % N == e
            assert e % q == 1 and e % (N // q) == 0
            assert N % q == 0 and gcd(q, N // q) == 1


def test_local_generators_project_correctly():
    """Each local word is the generator mod its factor and trivial elsewhere."""
    N = 56
    for q, (tword, sword) in local_generators(N).items():
        tm = word_matrix(tword)
        sm = word_matrix(sword)
        assert [[x % q for x in row] for row in tm] == [[1, 1], [0, 1]]
        assert [[x % (N // q) for x in row] for row in tm] == [[1, 0], [0, 1]]
        assert [[x % q for x in row] for row in sm] == [[0, q - 1], [1, 0]]
        assert [[x % (N // q) for x in row] for row in sm] == [[1, 0], [0, 1]]


def test_random_matrix_is_deterministic_and_valid():
    rng = random.Random(5)
    mats = [random_matrix(40, rng) for _ in range(50)]
    again = [random_matrix(40, random.Random(5)) for _ in range(1)]
    assert mats[0] == again[0]
    for r in mats:
        assert (r.a * r.d - r.b * r.c) % 40 == 1
