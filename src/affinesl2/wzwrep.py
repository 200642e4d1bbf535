"""The level-k affine sl2 modular representation: generators, word oracle, closed forms."""

from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .cyclotomic import (
    Cyclotomic,
    euler_phi,
    from_rational,
    jacobi,
    one,
    reduction_rows,
    root_of_unity,
    sqrt_int,
    zero,
)
from .modgroup import ResidueMatrix

__all__ = [
    "conductor",
    "RepMatrix",
    "rho_S",
    "rho_T",
    "evaluate_word",
    "gauss_sum",
    "gauss_sum_closed",
    "sin_value",
    "kernel_sum",
    "kernel_sum_closed",
    "rho_closed",
    "rho_theorem1",
    "rho_coprime_closed",
    "rho_coprime_legendre",
    "rho_unit_d_closed",
    "rho_upper_triangular",
    "dispatch_path",
    "g_parity_check",
    "rho_float",
]

_INT64_SAFE = 1 << 62
# float64 holds every integer of magnitude below this exactly
_FLOAT_EXACT = 1 << 53


def conductor(n):
    """Return the order N of rho(T), also the level at which rho factors: 4n or 8n."""
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"n = k + 2 must be an integer >= 3, got {n!r}")
    return 4 * n if n % 2 == 0 else 8 * n


def _max_abs(arr):
    """Largest absolute value in a coefficient array, as a Python int."""
    if arr.size == 0:
        return 0
    if arr.dtype == object:
        return max((abs(int(v)) for v in arr.ravel()), default=0)
    return int(np.abs(arr).max())


def _gcd_all(arr, seed):
    """gcd of seed and every entry of arr."""
    g = seed
    if arr.dtype == object:
        for v in arr.ravel():
            g = gcd(g, int(v))
            if g == 1:
                return 1
        return g
    flat = np.abs(arr.ravel())
    nz = flat[flat != 0]
    if nz.size:
        g = gcd(g, int(np.gcd.reduce(nz)))
    return g


_TABLES = {}


def _tables(M):
    """Reduction data for Q(zeta_M): rows[d] holds the power-basis coordinates of zeta_M^d, d < M."""
    tab = _TABLES.get(M)
    if tab is None:
        rows = np.array(reduction_rows(M), dtype=np.int64)
        tab = {"rows": rows, "phi": euler_phi(M), "rowmax": max(1, int(np.abs(rows).max()))}
        _TABLES[M] = tab
    return tab


def _exact(bound, op, *arrays):
    """op(*arrays) for integer arrays, where op forms sums of products of their entries.

    bound caps the magnitude of every product and every partial sum op
    forms.  Below 2^53 each of them is an integer that float64 holds
    exactly, so op runs in float64 BLAS and is exact whatever the summation
    order, FMA use or thread count; the result comes back as int64.
    Otherwise, or when an operand is object dtype, op runs on Python ints.
    """
    if bound < _FLOAT_EXACT and all(x.dtype != object for x in arrays):
        return op(*(x.astype(np.float64) for x in arrays)).astype(np.int64)
    return op(*(x.astype(object) for x in arrays))


def _poly_matmul(a, b, tail):
    """Matrix product of two (dim, dim, phi) coordinate arrays, reduced by the tail rows."""
    dim, _, phi = a.shape
    # prod[i, w, j] is the coefficient of x^w in entry (i, j), so each u adds
    # one contiguous block of phi * dim values to each row i
    prod = np.zeros((dim, 2 * phi - 1, dim), dtype=a.dtype)
    flat = b.transpose(0, 2, 1).reshape(dim, phi * dim)
    for u in range(phi):
        coeff = a[:, :, u]
        if not coeff.any():
            continue
        prod[:, u : u + phi, :] += (coeff @ flat).reshape(dim, phi, dim)
    prod = prod.transpose(0, 2, 1)
    head = prod[:, :, :phi]
    spill = prod[:, :, phi:]
    if spill.any():
        head = head + np.tensordot(spill, tail, axes=([2], [0]))
    return head


class RepMatrix:
    """A square matrix over Q(zeta_{8n}) with one shared denominator.

    Numerators sit in an integer array of shape (dim, dim, phi(8n)) holding
    power-basis coordinates mod the 8n-th cyclotomic polynomial; the stored
    form is normalized (den > 0, no common factor), so equal matrices have
    identical arrays and equality is array comparison.  The array is int64,
    or object (Python ints) once an entry reaches 2^62.

    Products, row and column scalings and Galois maps bound every product
    and partial sum they form from the operands' largest numerators.  Below
    2^53 they run in float64 BLAS, which is exact there; at 2^53 or above,
    or on object input, they run on Python ints.
    """

    __slots__ = ("n", "order", "arr", "den")

    def __init__(self, n, arr, den=1):
        assert den != 0
        if den < 0:
            den = -den
            arr = -arr
        g = _gcd_all(arr, den)
        if g > 1:
            arr = arr // g
            den //= g
        if arr.dtype == object and _max_abs(arr) < _INT64_SAFE:
            arr = arr.astype(np.int64)
        self.n = n
        self.order = 8 * n
        self.arr = arr
        self.den = den

    @staticmethod
    def zeros(n):
        """The zero matrix at level n - 2."""
        dim, phi = n - 1, euler_phi(8 * n)
        return RepMatrix(n, np.zeros((dim, dim, phi), dtype=np.int64), 1)

    @staticmethod
    def identity(n):
        """The identity matrix at level n - 2."""
        dim, phi = n - 1, euler_phi(8 * n)
        arr = np.zeros((dim, dim, phi), dtype=np.int64)
        for i in range(dim):
            arr[i, i, 0] = 1
        return RepMatrix(n, arr, 1)

    @staticmethod
    def from_entries(n, entries):
        """Build from a nested list of Cyclotomic entries with order dividing 8n."""
        M = 8 * n
        dim = n - 1
        assert len(entries) == dim and all(len(row) == dim for row in entries)
        scaled = [[x.promoted(M) for x in row] for row in entries]
        den = 1
        for row in scaled:
            for x in row:
                den = lcm(den, x.den)
        phi = euler_phi(M)
        big = any(abs(c) * (den // x.den) >= _INT64_SAFE for row in scaled for x in row for c in x.num)
        arr = np.zeros((dim, dim, phi), dtype=object if big else np.int64)
        for i, row in enumerate(scaled):
            for j, x in enumerate(row):
                m = den // x.den
                for u, c in enumerate(x.num):
                    arr[i, j, u] = c * m
        return RepMatrix(n, arr, den)

    @property
    def dim(self):
        return self.arr.shape[0]

    def entry(self, i, j):
        """Entry (i, j), 0-based, as a Cyclotomic scalar."""
        return Cyclotomic(self.order, [int(v) for v in self.arr[i, j]], self.den)

    def entries(self):
        """Nested list of all entries as Cyclotomic scalars."""
        return [[self.entry(i, j) for j in range(self.dim)] for i in range(self.dim)]

    def __mul__(self, other):
        if not isinstance(other, RepMatrix):
            return NotImplemented
        assert self.n == other.n
        tab = _tables(self.order)
        phi = tab["phi"]
        bound = _max_abs(self.arr) * _max_abs(other.arr) * self.dim * phi
        bound *= 1 + phi * tab["rowmax"]
        head = _exact(bound, _poly_matmul, self.arr, other.arr, tab["rows"][phi : 2 * phi - 1])
        return RepMatrix(self.n, head, self.den * other.den)

    def __neg__(self):
        return RepMatrix(self.n, -self.arr, self.den)

    def __eq__(self, other):
        if not isinstance(other, RepMatrix):
            return NotImplemented
        return (
            self.n == other.n
            and self.den == other.den
            and np.array_equal(self.arr, other.arr)
        )

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def is_identity(self):
        """True when this is exactly the identity matrix."""
        return self == RepMatrix.identity(self.n)

    def _scaled(self, exps, axis):
        """Multiply row (axis 0) or column (axis 1) j by zeta_M^exps[j]."""
        assert len(exps) == self.dim
        M = self.order
        tab = _tables(M)
        bound = _max_abs(self.arr) * tab["phi"] * tab["rowmax"]
        u = np.arange(tab["phi"])

        def scale(arr, rows):
            out = np.empty_like(arr)
            for j, e in enumerate(exps):
                # row u of the map x -> zeta_M^e x is the coordinate vector of zeta_M^(u + e)
                mono = rows[(u + e % M) % M]
                if axis == 0:
                    out[j, :, :] = arr[j, :, :] @ mono
                else:
                    out[:, j, :] = arr[:, j, :] @ mono
            return out

        return RepMatrix(self.n, _exact(bound, scale, self.arr, tab["rows"]), self.den)

    def scale_rows(self, exps):
        """Left-multiply by diag(zeta_M^exps)."""
        return self._scaled(exps, 0)

    def scale_cols(self, exps):
        """Right-multiply by diag(zeta_M^exps)."""
        return self._scaled(exps, 1)

    def galois_map(self, L):
        """Apply zeta_M -> zeta_M^L to every entry; L must be coprime to M = 8n."""
        M = self.order
        L %= M
        assert gcd(L, M) == 1
        tab = _tables(M)
        bound = _max_abs(self.arr) * tab["phi"] * tab["rowmax"]
        # row u of the automorphism is the coordinate vector of zeta_M^(u L)
        mat = tab["rows"][np.arange(tab["phi"]) * L % M]
        arr = _exact(bound, lambda a, m: np.tensordot(a, m, axes=([2], [0])), self.arr, mat)
        return RepMatrix(self.n, arr, self.den)

    def dagger(self):
        """Conjugate transpose, computed exactly via the L = -1 automorphism."""
        conj = self.galois_map(self.order - 1)
        return RepMatrix(self.n, np.transpose(conj.arr, (1, 0, 2)).copy(), conj.den)

    def is_unitary(self):
        """True when U * U.dagger() is exactly the identity."""
        return (self * self.dagger()).is_identity()

    def to_floats(self):
        """Complex ndarray of the entries (float evaluation of the exact data)."""
        M = self.order
        if self.arr.dtype == object or _max_abs(self.arr) >= (1 << 52):
            from .cyclotomic import embed

            dim = self.dim
            out = np.empty((dim, dim), dtype=complex)
            for i in range(dim):
                for j in range(dim):
                    out[i, j] = embed(self.entry(i, j))
            return out
        phi = self.arr.shape[2]
        roots = np.exp(2j * np.pi * np.arange(phi) / M)
        return np.tensordot(self.arr.astype(np.float64), roots, axes=([2], [0])) / self.den

    def to_dicts(self):
        """Nested list of entry dictionaries, for serialization."""
        return [[self.entry(i, j).to_dict() for j in range(self.dim)] for i in range(self.dim)]

    def __repr__(self):
        return f"RepMatrix(n={self.n}, dim={self.dim}, den={self.den})"


_GEN_CACHE = {}


def _gen_cache(n):
    cache = _GEN_CACHE.get(n)
    if cache is None:
        cache = {}
        _GEN_CACHE[n] = cache
    return cache


_SIN_CACHE = {}


def sin_value(n, m):
    """sin(pi m / n) as a Cyclotomic of order 8n, for any integer m."""
    key = (n, m % (2 * n))
    val = _SIN_CACHE.get(key)
    if val is None:
        M = 8 * n
        m4 = 4 * key[1]
        # sin x = (e^{ix} - e^{-ix}) / 2i and 1/i = zeta_M^{-2n}
        val = (root_of_unity(M, m4) - root_of_unity(M, -m4)) * root_of_unity(M, 6 * n) / 2
        _SIN_CACHE[key] = val
    return val


def _t_exponents(n, e):
    """Diagonal exponents of rho(T)^e: e * (2 a^2 - n) mod 8n for a = 1..n-1."""
    M = 8 * n
    return [e * (2 * a * a - n) % M for a in range(1, n)]


def rho_S(n):
    """The symmetric matrix rho(S) with entries sqrt(2/n) sin(pi a b / n), exactly."""
    cache = _gen_cache(n)
    mat = cache.get("S")
    if mat is None:
        M = 8 * n
        root = sqrt_int(2 * n, M)
        sins = [sin_value(n, m) for m in range(2 * n)]
        entries = [
            [root * sins[(a * b) % (2 * n)] / n for b in range(1, n)] for a in range(1, n)
        ]
        mat = RepMatrix.from_entries(n, entries)
        cache["S"] = mat
    return mat


def rho_T(n):
    """The diagonal matrix rho(T) with entries e(a^2/4n - 1/8), exactly."""
    cache = _gen_cache(n)
    mat = cache.get("T")
    if mat is None:
        mat = RepMatrix.identity(n).scale_cols(_t_exponents(n, 1))
        cache["T"] = mat
    return mat


def _s_power(n, e):
    """rho(S)^(e mod 4), or None for the identity power."""
    f = e % 4
    if f == 0:
        return None
    cache = _gen_cache(n)
    key = f"S{f}"
    mat = cache.get(key)
    if mat is None:
        s = rho_S(n)
        mat = s if f == 1 else s * _s_power(n, f - 1)
        cache[key] = mat
    return mat


def evaluate_word(word, n):
    """Evaluate an STWord by direct matrix multiplication; this is the oracle."""
    acc = RepMatrix.identity(n)
    for letter, e in word.tokens:
        if letter == "T":
            acc = acc.scale_cols(_t_exponents(n, e))
        else:
            sp = _s_power(n, e)
            if sp is not None:
                acc = acc * sp
    return acc


_GAUSS_CACHE = {}


def gauss_sum(C, N):
    """Quadratic Gauss sum over Z/NZ: sum of e(C b^2 / N), as a Cyclotomic of order N."""
    assert N >= 1
    key = (C % N, N)
    val = _GAUSS_CACHE.get(key)
    if val is None:
        val = zero(N)
        for b in range(N):
            val = val + root_of_unity(N, C * b * b)
        _GAUSS_CACHE[key] = val
    return val


def gauss_sum_closed(c, n):
    """Closed form 2 (1 + i^{nc}) (c|n) sqrt(n)-unit for the Gauss sum mod 4n, n odd."""
    assert n % 2 == 1 and gcd(c, 2 * n) == 1
    M = 4 * n
    i_pow = root_of_unity(M, n * (n * c % 4))
    # S(1, n) is sqrt(n) for n = 1 mod 4 and i sqrt(n) for n = 3 mod 4
    base = sqrt_int(n, M)
    if n % 4 == 3:
        base = base * root_of_unity(M, n)
    return (one(M) + i_pow) * base * (2 * jacobi(c, n))


def kernel_sum(alpha, gamma, C, n):
    """Triple sum of sin(pi a b/n) sin(pi b g/n) e(C b^2/4n) over b = 1..n-1, directly."""
    assert 1 <= alpha <= n - 1 and 1 <= gamma <= n - 1
    return _kernel_sum_direct(alpha, gamma, C, n)


def _kernel_sum_direct(alpha, gamma, C, n):
    """The defining sum, valid for arbitrary integer first and second arguments."""
    M = 8 * n
    total = zero(M)
    for b in range(1, n):
        term = sin_value(n, alpha * b) * sin_value(n, gamma * b) * root_of_unity(M, 2 * C * b * b)
        total = total + term
    return total


def _g2_sum(m, Gamma, n):
    """Closed form of sum over b mod 2n of e((Gamma b^2 + m b)/2n), gcd(Gamma, n) = 1."""
    M = 8 * n
    if n % 2 == 0:
        # Gamma is odd here, so the sum vanishes for odd m
        if m % 2:
            return zero(M)
        h = pow(Gamma, -1, 2 * n) * (m // 2) % (2 * n)
        phase = root_of_unity(M, -4 * Gamma * h * h)
        return phase * gauss_sum(Gamma, 2 * n).promoted(M)
    if (Gamma + m) % 2:
        return zero(M)
    h = pow(4 * Gamma % n, -1, n) * m % n
    phase = root_of_unity(M, -16 * Gamma * h * h)
    return phase * gauss_sum(2 * Gamma, n).promoted(M) * 2


def kernel_sum_closed(alpha, gamma, C, n):
    """Closed form of the triple sum as (branch, value), or None when no branch applies.

    Branches: "coprime" for gcd(C, 2n) = 1, "multiple" for n | C, and "even"
    for C = 2 Gamma with gcd(Gamma, n) = 1.  Valid for arbitrary integer
    alpha and gamma.
    """
    M = 8 * n
    if gcd(C, 2 * n) == 1:
        Cinv = pow(C % M, -1, M)
        g4 = gauss_sum(C, 4 * n).promoted(M)
        dm = root_of_unity(M, -2 * Cinv * (alpha - gamma) ** 2)
        dp = root_of_unity(M, -2 * Cinv * (alpha + gamma) ** 2)
        return "coprime", g4 * (dm - dp) / 8
    if C % n == 0:
        t = C % (4 * n) // n
        i_pow_t = root_of_unity(M, 2 * n * t)
        total = zero(M)
        if (alpha - gamma) % n == 0:
            sign = -1 if (alpha - gamma) % (2 * n) else 1
            total = total + (one(M) + i_pow_t * sign)
        if (alpha + gamma) % n == 0:
            sign = -1 if (alpha + gamma) % (2 * n) else 1
            total = total - (one(M) + i_pow_t * sign)
        return "multiple", total * Fraction(n, 4)
    if C % 2 == 0 and gcd(C // 2, n) == 1:
        Gamma = C // 2
        val = _g2_sum(alpha - gamma, Gamma, n) - _g2_sum(alpha + gamma, Gamma, n)
        return "even", val / 4
    return None


def dispatch_path(r, n):
    """Name the stratum of r: theorem1, upper, unit_d, or word.

    theorem1 is gcd(c, N) = 1, upper is c = 0, and unit_d is gcd(d, 2n) = 1
    with a closed branch of kernel_sum_closed for C' = -c/d; word is the
    rest.  Each of the first three has a closed form of its own; rho_closed
    takes one route on every stratum.
    """
    N = conductor(n)
    r = _as_residue(r, n)
    if gcd(r.c, N) == 1:
        return "theorem1"
    if r.c % N == 0:
        return "upper"
    if gcd(r.d, 2 * n) == 1:
        Cp = -r.c * pow(r.d, -1, 8 * n) % (8 * n)
        if gcd(Cp, 2 * n) == 1 or Cp % n == 0 or (Cp % 2 == 0 and gcd(Cp // 2, n) == 1):
            return "unit_d"
    return "word"


def _as_residue(r, n):
    if isinstance(r, ResidueMatrix):
        assert r.N == conductor(n)
        return r
    return ResidueMatrix.from_list(conductor(n), r)


def _zeta8(n, e):
    """zeta_8^e inside Q(zeta_{8n})."""
    return root_of_unity(8 * n, n * (e % 8))


def rho_coprime_closed(r, n):
    """rho on gcd(C, 2n) = 1 matrices via the completed-square Gauss sum form."""
    r = _as_residue(r, n)
    A, C, D = r.a, r.c, r.d
    M = 8 * n
    assert gcd(C, 2 * n) == 1
    Cinv = pow(C % M, -1, M)
    U = (A + 1) * Cinv % M
    V = (D + 1) * Cinv % M
    pref = _zeta8(n, 2 - C - U - V) * gauss_sum(C, 4 * n).promoted(M) / (2 * n)
    entries = []
    for a in range(1, n):
        row = []
        for l in range(1, n):
            val = pref * sin_value(n, Cinv * a * l)
            val = val * root_of_unity(M, 2 * Cinv * (A * a * a + D * l * l))
            row.append(val)
        entries.append(row)
    return RepMatrix.from_entries(n, entries)


def _legendre_g(C, n):
    """The mod-8 exponent in the odd-n Legendre-symbol form of rho."""
    eps = 1 if n * C % 4 == 1 else -1
    theta = 0 if n % 4 == 1 else 2
    return 2 + eps + theta


def rho_coprime_legendre(r, n):
    """rho on gcd(C, 2n) = 1 matrices for odd n, via the Legendre symbol form."""
    assert n % 2 == 1
    r = _as_residue(r, n)
    A, C, D = r.a, r.c, r.d
    M = 8 * n
    assert gcd(C, 2 * n) == 1
    Cinv = pow(C, -1, M)
    g = _legendre_g(C, n)
    pref = sqrt_int(2 * n, M) * _zeta8(n, g - (A + D + 3) * C) * Fraction(jacobi(C, n), n)
    entries = []
    for a in range(1, n):
        row = []
        for l in range(1, n):
            val = pref * sin_value(n, Cinv * a * l)
            val = val * root_of_unity(M, 2 * Cinv * (A * a * a + D * l * l))
            row.append(val)
        entries.append(row)
    return RepMatrix.from_entries(n, entries)


def rho_theorem1(r, n):
    """rho on gcd(C, N) = 1 matrices as a Galois twist of rho(T^A S T^D)."""
    r = _as_residue(r, n)
    N = conductor(n)
    assert gcd(r.c, N) == 1
    sandwich = rho_S(n).scale_rows(_t_exponents(n, r.a)).scale_cols(_t_exponents(n, r.d))
    return sandwich.galois_map(pow(r.c % (8 * n), -1, 8 * n))


def rho_unit_d_closed(r, n):
    """rho on gcd(D, 2n) = 1 matrices via the closed triple-sum branches."""
    r = _as_residue(r, n)
    A, B, C, D = r.a, r.b, r.c, r.d
    M = 8 * n
    assert gcd(D, 2 * n) == 1
    Dinv = pow(D, -1, M)
    X = (B - 1) * Dinv % M
    Y = -(C + 1) * Dinv % M
    Cp = -C * Dinv % M
    pref = sqrt_int(2 * n, M) * _zeta8(n, D - X - Y - 2)
    pref = pref * gauss_sum(-D, 4 * n).promoted(M) / (2 * n * n)
    entries = []
    for a in range(1, n):
        aD = a * Dinv % (2 * n)
        row_phase = root_of_unity(M, 2 * B * Dinv * a * a)
        row = []
        for l in range(1, n):
            closed = kernel_sum_closed(aD, l, Cp, n)
            assert closed is not None, "no closed branch for this matrix"
            row.append(pref * row_phase * closed[1])
        entries.append(row)
    return RepMatrix.from_entries(n, entries)


def rho_upper_triangular(r, n):
    """rho on C = 0 matrices: a signed permutation times root-of-unity phases."""
    r = _as_residue(r, n)
    N = conductor(n)
    assert r.c % N == 0
    A, B = r.a, r.b
    M = 8 * n
    # the phases fix every entry up to one overall sign: the Jacobi symbol (2n|A),
    # checked against the word oracle for every unit A at n = 3..12
    base = _zeta8(n, 2 * (A - 1) - A * B) * jacobi(2 * n, A)
    dim = n - 1
    perm, signs = [], []
    for a in range(1, n):
        u = A * a % (2 * n)
        assert u != 0 and u != n
        if u < n:
            perm.append(u - 1)
            signs.append(1)
        else:
            perm.append(2 * n - u - 1)
            signs.append(-1)
    entries = [[zero(M) for _ in range(dim)] for _ in range(dim)]
    for a in range(1, n):
        val = base * root_of_unity(M, 2 * A * B * a * a) * signs[a - 1]
        entries[a - 1][perm[a - 1]] = val
    return RepMatrix.from_entries(n, entries)


def _unit_shift(r, n):
    """The least k >= 0 with gcd(ck + d, N) = 1, and W = r T^k S = (ak + b, -a, ck + d, -c).

    W lies in the theorem1 stratum, and r = W S^-1 T^-k.
    """
    N = conductor(n)
    for k in range(N):
        if gcd(r.c * k + r.d, N) == 1:
            return k, ResidueMatrix(N, r.a * k + r.b, -r.a, r.c * k + r.d, -r.c)
    raise ValueError(f"no unit ck + d mod {N}: ({r.c}, {r.d}) is not the bottom row of an SL2 matrix")


def rho_closed(r, n):
    """Evaluate rho exactly, by one route for every matrix.

    gcd(c, N) = 1 goes to rho_theorem1.  Any other matrix is shifted to
    W = r T^k S in that stratum (see _unit_shift), and
    rho(r) = rho_theorem1(W) rho(S) rho(T)^-k, as rho(S) is real, symmetric
    and orthogonal, so its own inverse.  The paper's other closed forms
    (rho_unit_d_closed, rho_upper_triangular, rho_coprime_closed,
    rho_coprime_legendre) are identities checked against the word oracle,
    not routes of this function.
    """
    r = _as_residue(r, n)
    if gcd(r.c, conductor(n)) == 1:
        return rho_theorem1(r, n)
    k, w = _unit_shift(r, n)
    return (rho_theorem1(w, n) * rho_S(n)).scale_cols(_t_exponents(n, -k))


def g_parity_check(n):
    """Check rho(-R) = rho(R) and the mod-8 exponent parity behind it, for odd n."""
    assert n % 2 == 1
    import random

    target = 2 * (n + 1) % 8
    for C in range(1, 4 * n, 2):
        if gcd(C, n) > 1:
            continue
        if (_legendre_g(C, n) - _legendre_g(-C, n) + 2 * C - target) % 8:
            return False
    from .modgroup import random_matrix

    rng = random.Random(n)
    N = conductor(n)
    for _ in range(5):
        r = random_matrix(N, rng)
        if rho_closed(r, n) != rho_closed(-r, n):
            return False
    return True


def _float_S(n):
    a = np.arange(1, n)
    return np.sqrt(2.0 / n) * np.sin(np.pi * np.outer(a, a) / n)


def _float_T_diag(n, e):
    return np.exp(2j * np.pi * np.array(_t_exponents(n, e)) / (8 * n))


def _rho_float_coprime(A, C, D, n):
    """Float entries for gcd(C, N) = 1: Jacobi symbol times twisted sine and phases.

    A may be an integer or an array of integers of shape K; the result is
    (n-1, n-1) or K + (n-1, n-1).  A enters only through the eighth-root
    prefactor and the row phases, so the matrices T^t W, which differ only in
    A = W.a + t W.c, share the sines, column phases, sign and C^-1 in one call.
    """
    M = 8 * n
    Codd = C % conductor(n)
    Cinv = pow(Codd, -1, M)
    a = np.arange(1, n)
    a2 = a * a
    A = np.asarray(A)[..., np.newaxis]
    # the eighth-root prefactor zeta_8^(-(A+D)/C) and the row phases
    # zeta_4n^(A a^2 / C), as one exponent of zeta_8n
    row = np.exp(2j * np.pi / M * (Cinv * (2 * A * a2 - n * (A + D)) % M))
    col = np.exp(2j * np.pi / M * (2 * Cinv * D * a2 % M))
    sines = np.sin(np.pi / n * (Cinv * np.outer(a, a) % (2 * n)))
    pref = jacobi(-2 * n, Codd) * np.sqrt(2.0 / n)
    return (pref * row)[..., np.newaxis] * (sines * col)


def rho_float(r, n):
    """Evaluate rho over complex doubles; a fast filter, not an exact result."""
    r = _as_residue(r, n)
    N = conductor(n)
    if gcd(r.c, N) == 1:
        return _rho_float_coprime(r.a, r.c, r.d, n)
    k, w = _unit_shift(r, n)
    fw = _rho_float_coprime(w.a, w.c, w.d, n)
    return (fw @ _float_S(n)) * np.conj(_float_T_diag(n, k))[np.newaxis, :]
