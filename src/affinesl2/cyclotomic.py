"""Exact arithmetic in cyclotomic fields Q(zeta_M), plus small number theory helpers."""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import index

import numpy as np

__all__ = [
    "Cyclotomic",
    "root_of_unity",
    "zero",
    "one",
    "from_rational",
    "galois",
    "sqrt_int",
    "embed",
    "xgcd",
    "factorize",
    "euler_phi",
    "jacobi",
    "cyclotomic_poly",
    "reduction_rows",
]

# Per-order caches keep the data of this many field orders.  A level n uses
# the orders 8n, 4n, 2n and n, and cyclotomic_poly recurses over every divisor
# of 8n: for n = 3..12, the levels the verify-small and characters workloads
# build in set-up, that is 30 orders, so neither workload rebuilds one.
MAX_ORDERS = 64


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y == g."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


def factorize(m):
    """Return the prime factorization of m >= 1 as a dict {prime: exponent}."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"factorize needs an integer m >= 1, got {m!r}")
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def euler_phi(m):
    """Return Euler's totient of m >= 1."""
    out = 1
    for p, e in factorize(m).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def jacobi(a, b):
    """Return the Jacobi symbol (a|b) for odd positive b."""
    if not isinstance(b, int) or b < 1 or b % 2 == 0:
        raise ValueError(f"the Jacobi symbol needs an odd integer b >= 1, got {b!r}")
    a %= b
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                t = -t
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            t = -t
        a %= b
    return t if b == 1 else 0


def _polydiv_exact(a, b):
    """Divide polynomial a by monic b exactly; coefficients are low to high."""
    assert b[-1] == 1
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = a[i + db]
        if c:
            q[i] = c
            for j in range(db + 1):
                a[i + j] -= c * b[j]
    assert not any(a[:db]), "division was not exact"
    return q


@lru_cache(maxsize=MAX_ORDERS)
def cyclotomic_poly(M):
    """Return the M-th cyclotomic polynomial as a low-to-high coefficient tuple."""
    if not isinstance(M, int) or M < 1:
        raise ValueError(f"cyclotomic_poly needs an integer M >= 1, got {M!r}")
    p = [-1] + [0] * (M - 1) + [1]
    for d in range(1, M):
        if M % d == 0:
            p = _polydiv_exact(p, cyclotomic_poly(d))
    out = tuple(p)
    assert len(out) == euler_phi(M) + 1 and out[-1] == 1
    return out


def _zeta_orbit(start, M, count):
    """Row j < count of the int64 array holds the power-basis coordinates of x zeta_M^j, row 0 being start = x.

    Row j + 1 is row j times zeta_M: its coordinates move up one place and the
    top one, t, folds back as t zeta_M^phi = -t (c_0 + ... + c_(phi-1) zeta_M^(phi-1)).
    """
    low = np.array(cyclotomic_poly(M)[:-1], dtype=np.int64)
    out = np.zeros((count, len(low)), dtype=np.int64)
    out[0] = start
    for j in range(1, count):
        out[j, 1:] = out[j - 1, :-1]
        top = out[j - 1, -1]
        if top:
            out[j] -= top * low
    return out


@lru_cache(maxsize=MAX_ORDERS)
def reduction_rows(M):
    """Return rows[d] = coefficients of x^d mod Phi_M for d up to max(M, 2*phi(M)-1), from _zeta_orbit."""
    phi = euler_phi(M)
    return tuple(map(tuple, _zeta_orbit(np.eye(1, phi, dtype=np.int64)[0], M, max(M, 2 * phi - 1)).tolist()))


class Cyclotomic:
    """An element of Q(zeta_M) held as integer coordinates over a common denominator.

    Coordinates are with respect to the power basis 1, zeta, ..., zeta^(phi(M)-1)
    reduced modulo the M-th cyclotomic polynomial, and are kept normalized
    (gcd of all numerators and the denominator is 1, denominator positive), so
    two equal field elements of the same order have identical representations.
    """

    __slots__ = ("order", "num", "den")

    def __init__(self, order, num, den=1):
        if not isinstance(order, int) or order < 1:
            raise ValueError(f"order must be an integer >= 1, got {order!r}")
        if not isinstance(den, int) or den == 0:
            raise ValueError(f"denominator must be a nonzero integer, got {den!r}")
        try:
            num = [index(c) for c in num]
        except TypeError:
            raise ValueError(f"Cyclotomic numerators must be integers, got {num!r}") from None
        if len(num) != euler_phi(order):
            raise ValueError(f"Q(zeta_{order}) needs {euler_phi(order)} coordinates, got {len(num)}")
        if den < 0:
            den = -den
            num = [-c for c in num]
        g = den
        for c in num:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            den //= g
            num = [c // g for c in num]
        if not any(num):
            den = 1
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    def is_zero(self):
        """Return True when the element is 0."""
        return not any(self.num)

    def promoted(self, order2):
        """Return the same element viewed in Q(zeta_order2); order must divide order2."""
        if order2 == self.order:
            return self
        if order2 % self.order:
            raise ValueError(f"Q(zeta_{self.order}) does not lie in Q(zeta_{order2})")
        return Cyclotomic(order2, _substituted(self.num, order2, order2 // self.order), self.den)

    @staticmethod
    def _common(x, y):
        M = lcm(x.order, y.order)
        return x.promoted(M), y.promoted(M)

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return from_rational(self.order, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        d = lcm(a.den, b.den)
        ka, kb = d // a.den, d // b.den
        return Cyclotomic(a.order, [ka * u + kb * v for u, v in zip(a.num, b.num)], d)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.num], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclotomic(self.order, [other * c for c in self.num], self.den)
        if isinstance(other, Fraction):
            return Cyclotomic(
                self.order,
                [other.numerator * c for c in self.num],
                self.den * other.denominator,
            )
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = Cyclotomic._common(self, other)
        phi = len(a.num)
        prod = [0] * (2 * phi - 1)
        for i, u in enumerate(a.num):
            if u:
                for j, v in enumerate(b.num):
                    if v:
                        prod[i + j] += u * v
        out = prod[:phi]
        rows = reduction_rows(a.order)
        for d in range(phi, 2 * phi - 1):
            c = prod[d]
            if c:
                row = rows[d]
                for t, r in enumerate(row):
                    if r:
                        out[t] += c * r
        return Cyclotomic(a.order, out, a.den * b.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)) and other == 0:
            raise ZeroDivisionError("Cyclotomic division by zero")
        if isinstance(other, int):
            return Cyclotomic(self.order, self.num, self.den * other)
        if isinstance(other, Fraction):
            return self * Fraction(other.denominator, other.numerator)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"a Cyclotomic power needs an integer exponent k >= 0, got {k!r}")
        out = one(self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.order == other.order:
            return self.num == other.num and self.den == other.den
        a, b = Cyclotomic._common(self, other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        return hash((self.order, self.num, self.den))

    def conj(self):
        """Return the complex conjugate."""
        return galois(-1 % self.order if self.order > 1 else 1, self)

    def to_dict(self):
        """Serialize to {order, coeffs, approx}."""
        z = embed(self)
        return {
            "order": self.order,
            "coeffs": [str(Fraction(c, self.den)) for c in self.num],
            "approx": [z.real, z.imag],
        }

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for j, c in enumerate(self.num):
            if not c:
                continue
            coef = Fraction(c, self.den)
            if j == 0:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(f"z{self.order}^{j}")
            elif coef == -1:
                parts.append(f"-z{self.order}^{j}")
            else:
                parts.append(f"{coef}*z{self.order}^{j}")
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    __repr__ = __str__


def zero(M):
    """Return 0 in Q(zeta_M)."""
    return Cyclotomic(M, [0] * euler_phi(M), 1)


def one(M):
    """Return 1 in Q(zeta_M)."""
    return from_rational(M, 1)


def _integer(name, value):
    """value as an int by operator.index; ValueError for a float or any other non-integer."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def from_rational(M, q):
    """Return the rational number q, an int or a Fraction, as an element of Q(zeta_M)."""
    if not isinstance(q, (int, Fraction)):
        raise ValueError(f"from_rational needs an int or a Fraction, got {q!r}")
    q = Fraction(q)
    num = [0] * euler_phi(M)
    num[0] = q.numerator
    return Cyclotomic(M, num, q.denominator)


def root_of_unity(M, k):
    """Return zeta_M^k for zeta_M = exp(2*pi*i/M)."""
    rows = reduction_rows(M)
    return Cyclotomic(M, rows[_integer("k", k) % M], 1)


def _substituted(num, M, step):
    """Power-basis coordinates in Q(zeta_M) of sum_j num[j] zeta_M^(j step)."""
    rows = reduction_rows(M)
    out = [0] * len(rows[0])
    for j, c in enumerate(num):
        if c:
            for t, r in enumerate(rows[j * step % M]):
                if r:
                    out[t] += c * r
    return out


def galois(L, x):
    """Apply the field morphism zeta_M -> zeta_M^L to x; requires gcd(L, M) = 1."""
    M = x.order
    L = _integer("L", L) % M
    if gcd(L, M) != 1:
        raise ValueError(f"galois conjugation needs gcd(L, M) = 1, got L = {L}, M = {M}")
    return Cyclotomic(M, _substituted(x.num, M, L), x.den)


def _sqrt_prime(p, M):
    """Return sqrt(p) in Q(zeta_M) for prime p, via quadratic Gauss sums."""
    if p == 2:
        if M % 8:
            raise ValueError(f"sqrt(2) needs 8 | M, got M = {M}")
        return root_of_unity(M, M // 8) + root_of_unity(M, -(M // 8) % M)
    if M % p:
        raise ValueError(f"sqrt({p}) needs {p} | M, got M = {M}")
    g = zero(M)
    step = M // p
    for t in range(p):
        g = g + root_of_unity(M, (t * t % p) * step)
    if p % 4 == 1:
        return g
    # g = i*sqrt(p) here, so multiply by -i
    if M % 4:
        raise ValueError(f"sqrt({p}) needs 4 | M when {p} = 3 mod 4, got M = {M}")
    return root_of_unity(M, 3 * (M // 4)) * g


def sqrt_int(m, M):
    """Return the positive square root of the integer m >= 1 in Q(zeta_M).

    Sufficient condition: 8*m | M.  The exact requirement enforced is that
    each prime appearing to an odd power in m admits a square root in
    Q(zeta_M): p | M when p = 1 mod 4, 4p | M when p = 3 mod 4, 8 | M for p = 2.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"sqrt_int needs an integer m >= 1, got {m!r}")
    out = one(M)
    rational = 1
    for p, e in factorize(m).items():
        rational *= p ** (e // 2)
        if e % 2:
            out = out * _sqrt_prime(p, M)
    return out * rational


@lru_cache(maxsize=MAX_ORDERS)
def _embed_roots(M):
    """The complex values of the power basis 1, zeta_M, ..., zeta_M^(phi(M)-1)."""
    return tuple(cmath.exp(2j * cmath.pi * j / M) for j in range(euler_phi(M)))


def embed(x):
    """Return the complex value of x under zeta_M -> exp(2*pi*i/M)."""
    total = 0j
    for c, w in zip(x.num, _embed_roots(x.order)):
        if c:
            total += c * w
    return total / x.den
