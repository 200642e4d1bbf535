"""Tests for truncated q-series, characters, and their identities."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinesl2 import qseries
from affinesl2.qseries import (
    QSeries,
    _characters,
    character,
    eta_inverse_cubed,
    log_eta_expansion_check,
    numeric_eval,
    s_transform_check,
    sigma1,
    verify_k1_identity,
    verify_t_parametrization,
)
from affinesl2.wzwrep import rho_S


def _partitions(T):
    """Partition numbers through T by the pentagonal recurrence."""
    p = [0] * (T + 1)
    p[0] = 1
    for m in range(1, T + 1):
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 else -1
            if g1 <= m:
                p[m] += sign * p[m - g1]
            if g2 <= m:
                p[m] += sign * p[m - g2]
            k += 1
    return p


def test_series_normalization_strips_leading_zeros():
    s = QSeries(4, -2, [0, 0, 3, 0, 1])
    assert s.offset == 6 and s.coeffs == [3, 0, 1]
    assert s.truncation == 2
    assert s.leading_exponent() == Fraction(3, 2)
    z = QSeries(4, 1, [0, 0, 0])
    assert z.is_zero() and z.offset == 1 and z.truncation == 2


def test_numpy_coefficient_arrays_give_the_list_series():
    """A numpy coefficient array is read by its entries, not by its truth value."""
    for coeffs in ([0], [0, 3], [0, 0, 3, 0, 1]):
        s, ref = QSeries(1, 0, np.array(coeffs)), QSeries(1, 0, coeffs)
        assert (s.den, s.offset, s.coeffs) == (ref.den, ref.offset, ref.coeffs)
        assert all(type(c) is int for c in s.coeffs)
    with pytest.raises(ValueError, match="nonempty"):
        QSeries(1, 0, np.array([], dtype=np.int64))


def test_addition_window_is_the_intersection():
    a = QSeries(1, 0, [1, 1, 1, 1])
    b = QSeries(1, 2, [5, 5, 5, 5, 5])
    s = a + b
    assert s.offset == 0 and s.end_exponent() == 3
    assert s.coeffs == [1, 1, 6, 6]


def test_multiplication_promotes_denominators():
    a = QSeries(2, -1, [1, 2, 3, 4])
    b = QSeries(3, 0, [5, 0, 7])
    p = a * b
    assert p.den == 6
    assert p.leading_exponent() == Fraction(-1, 2)
    assert p.coeffs == [5, 10, 22]


def test_scalar_multiplication_and_negation():
    a = QSeries(1, 1, [2, -3])
    assert (a * 2).coeffs == [4, -6]
    assert (Fraction(1, 2) * a).coeffs == [1, Fraction(-3, 2)]
    assert (-a).coeffs == [-2, 3]
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_ring_laws(data):
    """Products and sums over a shared window obey the ring axioms."""
    den = data.draw(st.sampled_from([1, 2, 3]))
    residue = data.draw(st.integers(0, den - 1))
    mk = lambda: QSeries(
        den,
        residue + den * data.draw(st.integers(-3, 3)),
        [data.draw(st.integers(-5, 5)) for _ in range(data.draw(st.integers(4, 7)))],
    )
    a, b, c = mk(), mk(), mk()
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    lhs = a * (b + c)
    rhs = a * b + a * c
    # both sides on one exponent grid, from the lower lead to the shorter window's end
    start = min(lhs.leading_exponent(), rhs.leading_exponent())
    count = int(min(lhs.end_exponent(), rhs.end_exponent()) - start) + 1
    grid = lambda s: ([0] * int(s.leading_exponent() - start) + s.coeffs)[:count]
    assert grid(lhs) == grid(rhs)


def test_powers_match_repeated_products():
    a = QSeries(1, 0, [1, 3, 2, 5, 1, 4])
    assert a**2 == a * a
    assert a**5 == a * a * a * a * a


def test_eta_inverse_cubed_table():
    """Three-colored partition counts through q^8, plus a convolution check through q^60.

    15 = 5*6/2 is triangular, so its last coefficient uses the last Jacobi term.
    """
    for T in (12, 15, 60):
        e3 = eta_inverse_cubed(T)
        assert e3.coeffs[:9] == [1, 3, 9, 22, 51, 108, 221, 429, 810]
        p = _partitions(T)
        sq = [sum(p[j] * p[k - j] for j in range(k + 1)) for k in range(T + 1)]
        cube = [sum(sq[j] * p[k - j] for j in range(k + 1)) for k in range(T + 1)]
        assert e3.coeffs == cube


def test_eta_inverse_cubed_matches_the_generator_recurrence():
    """The early-exit loop gives the same table as the generator sum over every Jacobi term."""
    jacobi = [(k * (k + 1) // 2, (-1) ** k * (2 * k + 1)) for k in range(1, 30)]
    inv = [1]
    for t in range(1, 401):
        inv.append(-sum(c * inv[t - e] for e, c in jacobi if e <= t))
    for T in range(401):
        assert eta_inverse_cubed(T).coeffs == inv[: T + 1], T


def test_sigma1_values():
    assert [sigma1(m) for m in range(1, 9)] == [1, 3, 4, 7, 6, 12, 8, 15]


def test_log_eta_expansion():
    """-ln prod(1-q^m) has coefficients sigma1(k)/k; q^8 gives 15/8."""
    assert log_eta_expansion_check(30)
    assert Fraction(sigma1(8), 8) == Fraction(15, 8)


def test_character_tables_level_one():
    chi1 = character(1, 3, 9)
    chi2 = character(2, 3, 9)
    assert chi1.leading_exponent() == Fraction(-1, 24)
    assert chi2.leading_exponent() == Fraction(5, 24)
    assert chi1.table(10) == [1, 3, 4, 7, 13, 19, 29, 43, 62, 90]
    assert chi2.table(10) == [2, 2, 6, 8, 14, 20, 34, 46, 70, 96]


def test_character_leading_exponent_vanishes_at_n2():
    s = character(1, 2, 5)
    assert s.leading_exponent() == 0
    assert s.coeffs[0] == 1


def test_character_coefficients_are_nonnegative():
    """State multiplicities at several levels are nonnegative integers."""
    for n in (3, 4, 5, 6):
        for lam in range(1, n):
            s = character(lam, n, 12)
            assert all(isinstance(c, int) and c >= 0 for c in s.coeffs)
            assert s.coeffs[0] == lam


def test_character_truncation_is_sound():
    """A longer computation restricted to the shorter window agrees exactly."""
    a = character(1, 4, 8)
    b = character(1, 4, 20)
    assert a.leading_exponent() == b.leading_exponent()
    assert a.coeffs == b.coeffs[:9]
    # every weight, including those whose lead exceeds 7/8, and short windows
    for n in range(3, 13):
        for lam in range(1, n):
            full = character(lam, n, 40).table(10)
            for T in (0, 1, 9):
                assert character(lam, n, T).table(T + 1) == full[: T + 1], (n, lam, T)


def test_characters_of_a_level_match_character():
    for n in range(3, 13):
        for T in (0, 1, 9, 60, 300):
            assert _characters(n, T) == [character(lam, n, T) for lam in range(1, n)], (n, T)


def test_identities_hold_through_order_thirty():
    assert verify_k1_identity(30)
    assert verify_t_parametrization(30)


def test_identity_fails_on_a_perturbed_character():
    chi1 = character(1, 3, 33)
    chi2 = character(2, 3, 33)
    bad = QSeries(chi1.den, chi1.offset, [chi1.coeffs[0] + 1] + chi1.coeffs[1:])
    p = bad * chi2 * (bad**4 - chi2**4)
    constant_two = p.leading_exponent() == 0 and p.coeffs[0] == 2 and all(c == 0 for c in p.coeffs[1:])
    assert not constant_two


def test_numeric_eval_matches_direct_sum():
    import cmath

    s = QSeries(24, -1, [1, 0, 3, 5])
    tau = 0.3 + 1.1j
    want = sum(
        c * cmath.exp(2j * cmath.pi * tau * (Fraction(-1, 24) + j)) for j, c in enumerate(s.coeffs)
    )
    assert abs(numeric_eval(s, tau) - want) < 1e-12
    with pytest.raises(ValueError):
        numeric_eval(s, 0.5 - 1j)


def test_s_transform_quick():
    assert s_transform_check(3, 1j, truncation=200, tol=1e-8)
    assert s_transform_check(4, 0.1 + 0.9j, truncation=200, tol=1e-8)


def test_s_transform_evaluates_each_character_twice(monkeypatch):
    """2(n - 1) evaluations and one 1/eta^3 build per check, not (n - 1) + (n - 1)^2 evaluations."""
    calls = {"numeric_eval": 0, "eta_inverse_cubed": 0}

    def counted(name):
        f = getattr(qseries, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(qseries, name, counted(name))
    for n in range(3, 13):
        calls.update(numeric_eval=0, eta_inverse_cubed=0)
        assert s_transform_check(n, 0.1 + 0.9j, truncation=60)
        assert calls == {"numeric_eval": 2 * (n - 1), "eta_inverse_cubed": 1}, n


def test_s_transform_fails_with_wrong_sign():
    """Flipping one S entry pushes the deviation far above tolerance."""
    import cmath

    n, tau = 3, 0.1 + 0.9j
    chars = [character(lam, n, 200) for lam in range(1, n)]
    smat = rho_S(n).to_floats().copy()
    smat[0, 0] = -smat[0, 0]
    worst = 0.0
    for a in range(n - 1):
        lhs = numeric_eval(chars[a], -1 / tau)
        rhs = sum(smat[a, b] * numeric_eval(chars[b], tau) for b in range(n - 1))
        worst = max(worst, abs(lhs - rhs))
    assert worst > 1e-3


def test_str_forms():
    chi1 = character(1, 3, 4)
    assert str(chi1).startswith("q^(-1/24) * (1 + 3 q^1 + 4 q^2")
    plain = QSeries(1, 0, [1, -2, 0, 4])
    assert str(plain) == "1 - 2 q^1 + 4 q^3"
