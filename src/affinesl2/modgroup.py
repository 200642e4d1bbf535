"""Words in the modular group generators, matrices over Z/NZ, lifting and decomposition."""

from __future__ import annotations

import json
from math import gcd
from operator import index

import numpy as np

from .cyclotomic import _integer, factorize, xgcd

__all__ = [
    "STWord",
    "ResidueMatrix",
    "parse_matrix",
    "format_matrix",
    "mat_mul",
    "mat_det",
    "decompose",
    "lift",
    "idempotents",
    "local_generators",
    "random_matrix",
    "sl2_order",
    "unimodular_rows",
    "complete_row",
]


class STWord:
    """A word in the generators S = [[0,-1],[1,0]] and T = [[1,1],[0,1]].

    Stored as a tuple of (letter, exponent) tokens with letter 'S' or 'T'.
    Adjacent equal letters are merged and zero exponents dropped, so the
    empty word is the identity.
    """

    __slots__ = ("tokens",)

    def __init__(self, tokens=()):
        merged = []
        for letter, e in tokens:
            if letter not in ("S", "T"):
                raise ValueError(f"an STWord letter must be 'S' or 'T', got {letter!r}")
            e = _integer("an STWord exponent", e)
            if e == 0:
                continue
            if merged and merged[-1][0] == letter:
                e += merged.pop()[1]
                if e == 0:
                    continue
            merged.append((letter, e))
        object.__setattr__(self, "tokens", tuple(merged))

    def __setattr__(self, name, value):
        raise AttributeError("STWord values are immutable")

    @staticmethod
    def T(e):
        """Return the word T^e."""
        return STWord([("T", e)])

    @staticmethod
    def S(e=1):
        """Return the word S^e."""
        return STWord([("S", e)])

    def __mul__(self, other):
        if not isinstance(other, STWord):
            return NotImplemented
        return STWord(self.tokens + other.tokens)

    def inverse(self):
        """Return the inverse word."""
        return STWord([(letter, -e) for letter, e in reversed(self.tokens)])

    def __len__(self):
        return len(self.tokens)

    def __eq__(self, other):
        return isinstance(other, STWord) and self.tokens == other.tokens

    def __hash__(self):
        return hash(self.tokens)

    def __str__(self):
        if not self.tokens:
            return "1"
        parts = []
        for letter, e in self.tokens:
            if letter == "S" and e == 1:
                parts.append("S")
            else:
                parts.append(f"{letter}^{e}")
        return " ".join(parts)

    __repr__ = __str__


def parse_matrix(text):
    """Parse a matrix string like [[a,b],[c,d]] into a list of lists of ints."""
    m = json.loads(text)
    if not (isinstance(m, list) and len(m) == 2 and all(isinstance(r, list) and len(r) == 2 for r in m)):
        raise ValueError(f"expected [[a,b],[c,d]], got {text}")
    if not all(type(x) is int for r in m for x in r):
        raise ValueError(f"matrix entries must be integers, got {text}")
    return m


def format_matrix(m):
    """Format a 2x2 matrix as [[a,b],[c,d]]."""
    return f"[[{m[0][0]},{m[0][1]}],[{m[1][0]},{m[1][1]}]]"


def mat_mul(x, y):
    """Multiply two 2x2 integer matrices."""
    return [
        [x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]],
        [x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]],
    ]


def mat_det(m):
    """Return the determinant of a 2x2 matrix."""
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


class ResidueMatrix:
    """A matrix in SL2(Z/NZ), stored with entries reduced to [0, N)."""

    __slots__ = ("N", "a", "b", "c", "d")

    def __init__(self, N, a, b, c, d):
        try:
            N, a, b, c, d = index(N), index(a), index(b), index(c), index(d)
        except TypeError:
            raise ValueError(f"modulus and entries must be integers, got {(N, a, b, c, d)!r}") from None
        if N < 1:
            raise ValueError(f"modulus must be a positive int, got {N!r}")
        a, b, c, d = a % N, b % N, c % N, d % N
        if (a * d - b * c) % N != 1 % N:
            raise ValueError(f"determinant must be 1 mod {N}, got {(a * d - b * c) % N}")
        for name, v in zip(("N", "a", "b", "c", "d"), (N, a, b, c, d)):
            object.__setattr__(self, name, v)

    def __setattr__(self, name, value):
        raise AttributeError("ResidueMatrix values are immutable")

    @staticmethod
    def from_list(N, m):
        """Build from a list of lists [[a,b],[c,d]]."""
        return ResidueMatrix(N, m[0][0], m[0][1], m[1][0], m[1][1])

    def entries(self):
        """Return the entries as [[a,b],[c,d]]."""
        return [[self.a, self.b], [self.c, self.d]]

    def __mul__(self, other):
        if not isinstance(other, ResidueMatrix):
            return NotImplemented
        if other.N != self.N:
            raise ValueError(f"cannot multiply residue matrices mod {self.N} and mod {other.N}")
        return ResidueMatrix(
            self.N,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self):
        return ResidueMatrix(self.N, -self.a, -self.b, -self.c, -self.d)

    def inverse(self):
        """Return the inverse matrix."""
        return ResidueMatrix(self.N, self.d, -self.b, -self.c, self.a)

    def is_identity(self):
        """Return True for the identity matrix."""
        return (self.a, self.b, self.c, self.d) == (1 % self.N, 0, 0, 1 % self.N)

    def key(self):
        """Return a deterministic sort key."""
        return (self.a, self.b, self.c, self.d)

    def canonical_up_to_sign(self):
        """Return the lexicographically smaller of this matrix and its opposite."""
        other = -self
        return self if self.key() <= other.key() else other

    def __eq__(self, other):
        return (
            isinstance(other, ResidueMatrix)
            and (self.N, self.a, self.b, self.c, self.d)
            == (other.N, other.a, other.b, other.c, other.d)
        )

    def __hash__(self):
        return hash((self.N, self.a, self.b, self.c, self.d))

    def __str__(self):
        return format_matrix(self.entries())

    __repr__ = __str__


def decompose(m):
    """Write an SL2(Z) matrix as an STWord in S and T.

    Euclid on the bottom row: repeatedly strip T^q and S factors from the
    right until the bottom-left entry vanishes, then emit the remaining
    (+-)T^b prefix, with -1 rendered as S^2.  A non-integer entry raises
    ValueError (see _integer).
    """
    m = [[_integer("a decompose entry", x) for x in row] for row in m]
    if mat_det(m) != 1:
        raise ValueError(f"decompose needs determinant 1, got {mat_det(m)}")
    tail = []
    while m[1][0] != 0:
        (a, b), (c, d) = m
        # centered quotient keeps |d - qc| <= |c|/2, so the row shrinks geometrically
        q = d // c
        if 2 * abs(d - q * c) > abs(c):
            q += 1
        # m -> m * T^-q * S = (b - q a, -a; d - q c, -c), recorded as tail word S^-1 T^q
        m = [[b - q * a, -a], [d - q * c, -c]]
        tail.append(("T", q))
        tail.append(("S", -1))
    tokens = []
    if m[0][0] == 1:
        tokens.append(("T", m[0][1]))
    else:
        assert m[0][0] == -1
        tokens.append(("S", 2))
        tokens.append(("T", -m[0][1]))
    tokens.extend(reversed(tail))
    return STWord(tokens)


def lift(r, shift=0):
    """Lift a ResidueMatrix to an SL2(Z) matrix reducing to it mod N.

    shift = 0, 1, 2, ... selects successive lifts with different bottom rows,
    so independent lifts of the same residue matrix can be compared.

    The bottom row (c, d) is coprime over Z, so xgcd gives x d - y c = 1 and
    M0 = (x, y; c, d) lies in SL2(Z).  Then r M0^-1 = r (d, -y; -c, x) =
    (a d - b c, b x - a y; 0, 1) = (1, t; 0, 1) mod N with t = b x - a y, so
    r = (1, t; 0, 1) M0 = (x + t c, y + t d; c, d) mod N, a matrix of
    determinant 1 over Z.  t is taken mod N: a lift with this bottom row is
    (1, t'; 0, 1) M0 for some integer t', and t' = t mod N.
    """
    if not isinstance(r, ResidueMatrix):
        raise TypeError(f"lift needs a ResidueMatrix, got {r!r}")
    if not isinstance(shift, int) or shift < 0:
        raise ValueError(f"shift must be an integer >= 0, got {shift!r}")
    N = r.N
    c = r.c if r.c != 0 else N
    d = r.d
    found = -1
    k = 0
    while True:
        if gcd(c, d + k * N) == 1:
            found += 1
            if found == shift:
                break
        k += 1
    d = d + k * N
    g, x, y = xgcd(d, -c)
    assert g == 1
    t = (r.b * x - r.a * y) % N
    out = [[x + t * c, y + t * d], [c, d]]
    assert mat_det(out) == 1
    assert all(
        (out[i][j] - r.entries()[i][j]) % N == 0 for i in range(2) for j in range(2)
    )
    return out


def idempotents(N):
    """Return {prime power q: c_q} with c_q = 1 mod q and 0 mod N/q, summing to 1 mod N."""
    if not isinstance(N, int) or N < 2:
        raise ValueError(f"idempotents needs an integer N >= 2, got {N!r}")
    out = {}
    for p, e in factorize(N).items():
        q = p**e
        rest = N // q
        out[q] = rest * pow(rest, -1, q) % N
    assert sum(out.values()) % N == 1
    return out


def _idempotent_items(N):
    """The (q, c_q) pairs of idempotents(N); none for N = 1, where every residue is 0."""
    return idempotents(N).items() if N > 1 else ()


def local_generators(N):
    """Return {prime power q: (T_word, S_word)} generating the mod-q factor of SL2(Z/NZ).

    T_q = T^c and S_q = T^m S T^m S T^m S^-1 with c the idempotent for q and
    m = 1 - c; S_q reduces to S mod q and to the identity mod N/q.
    """
    out = {}
    for q, c in idempotents(N).items():
        m = 1 - c
        t_word = STWord.T(c)
        s_word = STWord(
            [("T", m), ("S", 1), ("T", m), ("S", 1), ("T", m), ("S", -1)]
        )
        out[q] = (t_word, s_word)
    return out


def sl2_order(N):
    """Return |SL2(Z/NZ)|."""
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"sl2_order needs an integer N >= 1, got {N!r}")
    out = N**3
    for p in factorize(N):
        out = out // (p * p) * (p * p - 1)
    return out


def complete_row(N, c, d):
    """Return (a, b) with a*d - b*c = 1 mod N, for a bottom row with gcd(c,d,N)=1."""
    # mod each prime power q of N solve a d - b c = 1 by a = d^-1 or b = -c^-1, and combine by CRT
    a = b = 0
    for q, e in _idempotent_items(N):
        if gcd(d, q) == 1:
            a += pow(d, -1, q) * e
        elif gcd(c, q) == 1:
            b -= pow(c, -1, q) * e
        else:
            raise ValueError(f"({c}, {d}) is not a unimodular row mod {N}")
    assert (a * d - b * c) % N == 1 % N
    return a % N, b % N


def unimodular_rows(N):
    """All bottom rows (c, d) with gcd(c, d, N) = 1, as an int64 array of shape (rows, 2) in lexicographic order."""
    # gcd(c, d, N) = gcd(gcd(c, N), gcd(d, N)), one N x N mask
    g = np.gcd(np.arange(N), N)
    return np.argwhere(np.gcd.outer(g, g) == 1)


def random_matrix(N, rng):
    """Return a uniformly random ResidueMatrix in SL2(Z/NZ) drawn from rng."""
    while True:
        c, d = rng.randrange(N), rng.randrange(N)
        if gcd(gcd(c, d), N) == 1:
            break
    a0, b0 = complete_row(N, c, d)
    t = rng.randrange(N)
    return ResidueMatrix(N, a0 + t * c, b0 + t * d, c, d)
