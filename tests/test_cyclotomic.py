"""Tests for exact cyclotomic arithmetic."""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinesl2.cyclotomic import (
    Cyclotomic,
    cyclotomic_poly,
    embed,
    euler_phi,
    from_rational,
    galois,
    jacobi,
    one,
    reduction_rows,
    root_of_unity,
    sqrt_int,
    zero,
)

ORDERS = [1, 2, 3, 4, 8, 12, 15, 16, 24, 40, 56]


def _rand_element(M, data):
    phi = euler_phi(M)
    num = [data.draw(st.integers(-9, 9)) for _ in range(phi)]
    den = data.draw(st.integers(1, 6))
    return Cyclotomic(M, num, den)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([8, 12, 24, 40]), st.data())
def test_ring_laws(M, data):
    """Addition and multiplication satisfy the commutative ring axioms."""
    x = _rand_element(M, data)
    y = _rand_element(M, data)
    z = _rand_element(M, data)
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero(M) == x
    assert x * one(M) == x
    assert x - x == zero(M)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([8, 12, 24, 40]), st.data())
def test_embedding_is_a_homomorphism(M, data):
    """Numeric embedding respects the ring operations."""
    x = _rand_element(M, data)
    y = _rand_element(M, data)
    assert abs(embed(x + y) - (embed(x) + embed(y))) < 1e-9
    assert abs(embed(x * y) - embed(x) * embed(y)) < 1e-7


@pytest.mark.parametrize("M", ORDERS)
def test_roots_of_unity(M):
    """zeta_M^k has the right complex value and zeta_M^M = 1."""
    for k in (0, 1, 2, M - 1, 3 * M + 5):
        z = root_of_unity(M, k)
        assert abs(embed(z) - cmath.exp(2j * cmath.pi * k / M)) < 1e-12
        assert z**M == one(M)


def test_powers_of_i_have_order_four():
    i = root_of_unity(4, 1)
    assert i * i == from_rational(4, -1)
    assert i**4 == one(4)


@pytest.mark.parametrize("M", [8, 12, 24, 40, 56])
def test_cyclotomic_polynomial_kills_the_root(M):
    """The canonical reduction satisfies Phi_M(zeta_M) = 0."""
    poly = cyclotomic_poly(M)
    assert len(poly) == euler_phi(M) + 1
    acc = zero(M)
    for j, c in enumerate(poly):
        acc = acc + root_of_unity(M, j) * c
    assert acc == zero(M)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([8, 24, 40]), st.sampled_from([3, 5, 7, 11, 13]), st.data())
def test_galois_is_multiplicative(M, L, data):
    """zeta -> zeta^L is a ring morphism for gcd(L, M) = 1."""
    if math.gcd(L, M) != 1:
        L = 1
    x = _rand_element(M, data)
    y = _rand_element(M, data)
    assert galois(L, x * y) == galois(L, x) * galois(L, y)
    assert galois(L, x + y) == galois(L, x) + galois(L, y)


def test_conjugation_gives_nonnegative_norm():
    """x * conj(x) embeds to |x|^2 on the real axis."""
    x = root_of_unity(24, 7) * 3 + root_of_unity(24, 2) - from_rational(24, Fraction(5, 2))
    norm = x * x.conj()
    val = embed(norm)
    assert abs(val.imag) < 1e-12
    assert val.real >= 0
    assert abs(val - abs(embed(x)) ** 2) < 1e-9


@pytest.mark.parametrize("m,M", [(2, 8), (3, 12), (2, 24), (3, 24), (6, 24), (5, 40), (10, 40), (7, 56), (14, 56)])
def test_sqrt_int_squares_back(m, M):
    """sqrt_int returns the positive square root of m inside Q(zeta_M)."""
    r = sqrt_int(m, M)
    assert r * r == from_rational(M, m)
    val = embed(r)
    assert abs(val.imag) < 1e-12 and val.real > 0


def _loop_reduction_rows(M):
    """x^d mod Phi_M for d < max(M, 2 phi - 1), one Python row at a time."""
    phi = euler_phi(M)
    poly = cyclotomic_poly(M)
    rows = []
    for d in range(max(M, 2 * phi - 1)):
        if d < phi:
            row = [0] * phi
            row[d] = 1
        else:
            prev = rows[d - 1]
            top = prev[phi - 1]
            row = [0] + list(prev[: phi - 1])
            if top:
                for j in range(phi):
                    row[j] -= top * poly[j]
        rows.append(tuple(row))
    return tuple(rows)


def test_reduction_rows_match_the_python_loop():
    """The zeta-orbit rows equal the Python loop's, as tuples of Python ints, at M = 1..130, 248 and 488."""
    for M in (*range(1, 131), 8 * 31, 8 * 61):
        rows = reduction_rows(M)
        assert rows == _loop_reduction_rows(M), M
        assert type(rows) is tuple and {type(x) for row in rows for x in row} == {int}


def test_jacobi_matches_quadratic_residues():
    """For odd primes the symbol agrees with a residue count."""
    for p in (3, 5, 7, 11, 13):
        for a in range(1, p):
            squares = {(x * x) % p for x in range(1, p)}
            assert jacobi(a, p) == (1 if a % p in squares else -1)
    assert jacobi(2, 15) == jacobi(2, 3) * jacobi(2, 5)
    assert jacobi(6, 9) == 0


def test_euler_phi():
    assert [euler_phi(m) for m in (1, 2, 8, 24, 40, 56)] == [1, 1, 4, 8, 16, 24]


def test_dict_roundtrip():
    x = root_of_unity(40, 3) * Fraction(2, 5) - one(40)
    d = x.to_dict()
    assert d["order"] == 40 and len(d["coeffs"]) == euler_phi(40)
    assert [Fraction(c) for c in d["coeffs"]] == [Fraction(c, x.den) for c in x.num]
    assert abs(complex(d["approx"][0], d["approx"][1]) - embed(x)) < 1e-12


def test_promotion_compares_across_orders():
    """The same number in two fields compares equal after promotion."""
    assert root_of_unity(8, 1).promoted(24) == root_of_unity(24, 3)
    assert from_rational(8, 5).promoted(40) == from_rational(40, 5)


def test_division_by_zero_raises_zero_division_error():
    """Dividing by the int 0 or by Fraction(0) raises ZeroDivisionError; the python -O case is in test_wzwrep."""
    x = root_of_unity(24, 5) * Fraction(3, 7)
    for zero_ in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero_
    assert x / 3 == x * Fraction(1, 3) and x / Fraction(3, 7) == root_of_unity(24, 5)
