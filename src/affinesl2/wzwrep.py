"""The level-k affine sl2 modular representation: exact arithmetic, generators, word oracle, rho_closed."""

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

import numpy as np

from .cyclotomic import Cyclotomic, _zeta_orbit, cyclotomic_poly, euler_phi, factorize, jacobi
from .modgroup import ResidueMatrix, STWord, _integer, random_matrix

__all__ = [
    "conductor",
    "RepMatrix",
    "rho_S",
    "rho_T",
    "evaluate_word",
    "rho_closed",
    "rho_theorem1",
    "dispatch_path",
    "g_parity_check",
    "rho_float",
]

# float64 holds every integer of magnitude below this exactly, and every stored
# RepMatrix numerator lies below it
_FLOAT_EXACT = 1 << 53
# Per-level caches keep the data of this many levels n, and identities sizes
# its value caches from it.  The verify-small and characters workloads build
# n = 3..12 in set-up, ten levels, and neither may rebuild one while it runs.
MAX_LEVELS = 16


def conductor(n):
    """Return the order N of rho(T), also the level at which rho factors: 4n or 8n."""
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"n = k + 2 must be a Python int >= 3, got {n!r}")
    return 4 * n if n % 2 == 0 else 8 * n


def _max_abs(arr):
    """Largest absolute value in a nonempty signed integer coefficient array, as a Python int."""
    return int(np.abs(arr).max())


def _read_only(arr):
    """arr, made read-only: a per-level cache hands the same array to every caller."""
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=MAX_LEVELS)
def _tables(M):
    """Reduction data for Q(zeta_M): rows[d] holds the power-basis coordinates of zeta_M^d, d < M.

    rows is the zeta-orbit of 1 (see cyclotomic._zeta_orbit), and frows is
    rows in float64, the operand of the exact float64 maps of RepMatrix.
    """
    phi = euler_phi(M)
    rows = _zeta_orbit(np.eye(1, phi, dtype=np.int64)[0], M, M)
    return {
        "rows": _read_only(rows),
        "frows": _read_only(rows.astype(np.float64)),
        "phi": phi,
        "rowmax": max(1, int(np.abs(rows).max())),
    }


def _float_coords(arr, tab):
    """arr in float64, for a map that sums phi products of its entries with reduction rows.

    max |arr| phi rowmax bounds every such product and partial sum.  Below
    2^53 float64 holds each of them exactly, so the map runs in float64 BLAS
    and is exact whatever the summation order, FMA use or thread count; from
    2^53 on this raises ValueError.
    """
    bound = _max_abs(arr) * tab["phi"] * tab["rowmax"]
    if bound >= _FLOAT_EXACT:
        raise ValueError(f"max |numerator| phi rowmax = {bound} reaches 2^53: the map would not be exact")
    return arr.astype(np.float64)


# Products run modulo primes p = 1 (mod M) below this limit, where Q(zeta_M)
# splits completely: zeta_M -> x_j, one map to Z/p for each of the phi(M)
# primitive M-th roots x_j mod p, turns a matrix over Q(zeta_M) into phi(M)
# evaluation planes over Z/p, and a product into phi(M) products of planes.
# Every value stays an integer held exactly in float64 when, with residues
# kept centered (|r| <= (p + 1)/2):
#   dim (p + 2)^2 < 2^53 - p    for a product of planes (and for gathered
#                               planes, differences of two residues, |d| <= p - 1);
#   phi (p/2 + 2)^2 < 2^52 - p  for the change of basis by V or V^-1.
# _center reduces any such value x by x - p rint(x / p): q = rint(x / p) is an
# integer with |x - p q| <= p/2 + 1, so |p q| <= 2^53, p q and x - p q are exact,
# x - p q = x (mod p) and |x - p q| <= (p + 1)/2; for |x| < 2^52, where
# rint(x / p) is the nearest integer, |x - p q| <= (p - 1)/2.  Closer to 2^53
# p q can round: at x = 2^53 - 1 and p = 2097097 the result is off by one.
# The change of basis stays below 2^52, so one _center of its sums gives the
# digits in [-(p - 1)/2, (p - 1)/2] that _crt takes as they are.
_PRIME_LIMIT = 1 << 21


def _center(x, p, tmp=None):
    """Reduce the float64 integer array x mod p in place, to [-(p+1)/2, (p+1)/2].

    tmp, if given, is a contiguous work array of x's size.  Reusing it
    matters in a product: the allocator maps a fresh temporary of a
    megabyte anew on every call, and paging it in costs more than the
    arithmetic.
    """
    q = np.divide(x, p, out=None if tmp is None else tmp.reshape(x.shape))
    np.rint(q, out=q)
    q *= p
    x -= q
    return x


# rho_closed needs one prime for every n <= 230 (see _sqrt_planes); the general
# products of the word oracle and is_unitary need one (n <= 12) or two
# (n = 20, 31) at the benchmark workloads' levels, so four per level keep the
# primes of MAX_LEVELS levels.
@lru_cache(maxsize=4 * MAX_LEVELS)
def _prime_tables(M, i):
    """(p, x, V, Vinv) for the i-th largest prime p = 1 (mod M) below 2^21.

    x holds the phi(M) primitive M-th roots of unity mod p, the roots of
    Phi_M mod p.  V[u, j] = x_j^u takes power-basis coordinates to the values
    at the x_j, and Vinv takes them back: row j of Vinv holds the
    coefficients of the Lagrange polynomial Phi_M(t) / ((t - x_j) Phi_M'(x_j)),
    found by synthetic division.  V and Vinv are centered residues in float64.
    """
    top = _prime_tables(M, i - 1)[0] if i else _PRIME_LIMIT
    # the candidates q = 1 (mod M) below top, largest first
    candidates = range(top - 1 - (top - 2) % M, 2, -M)
    p = next((q for q in candidates if factorize(q) == {q: 1}), None)
    if p is None:
        raise ValueError(f"fewer than {i + 1} primes p = 1 (mod {M}) lie below 2^21")
    phi, dim = euler_phi(M), M // 8 - 1
    if dim * (p + 2) ** 2 >= _FLOAT_EXACT - p or phi * (p + 4) ** 2 >= 4 * (_FLOAT_EXACT // 2 - p):
        raise ValueError(f"planes mod {p} are not exact in float64 at M = {M}")
    # w = c^((p-1)/M) has order dividing M; take the first c where it is exactly M
    prime_factors = list(factorize(M))
    for c in range(2, p):
        w = pow(c, (p - 1) // M, p)
        if all(pow(w, M // f, p) != 1 for f in prime_factors):
            break
    x = np.array([pow(w, e, p) for e in range(1, M) if gcd(e, M) == 1], dtype=np.int64)
    V = np.ones((phi, phi), dtype=np.int64)
    for u in range(1, phi):
        V[u] = V[u - 1] * x % p
    poly = np.array(cyclotomic_poly(M), dtype=np.int64) % p
    # Phi_M(t) = (t - x_j) q_j(t): q_j[phi - 1] = 1, q_j[u - 1] = Phi_M[u] + x_j q_j[u]
    quot = np.ones((phi, phi), dtype=np.int64)
    for u in range(phi - 1, 0, -1):
        quot[:, u - 1] = (poly[u] + x * quot[:, u]) % p
    # Phi_M'(x_j) = q_j(x_j)
    deriv = (quot * V.T % p).sum(axis=1) % p
    inv = np.array([pow(int(d), -1, p) for d in deriv], dtype=np.int64)
    Vinv = quot * inv[:, np.newaxis] % p
    V, Vinv = (_center(a.astype(np.float64), p) for a in (V, Vinv))
    return p, _read_only(x), _read_only(V), _read_only(Vinv)


def _product_bound(amax, bmax, M):
    """Bound on the coordinates of a product of matrices whose coordinates are at most amax and bmax."""
    tab = _tables(M)
    phi = tab["phi"]
    # phi products per power of zeta in each of dim terms, then the tail rows
    return amax * bmax * (M // 8 - 1) * phi * (1 + phi * tab["rowmax"])


def _vinv_bound(M):
    """A proven upper bound B_M, as a Fraction, on the largest column sum of |V^-1| over C.

    V[u, j] = z_j^u at the phi = phi(M) primitive M-th roots z_j in C, and
    the coordinates of x in Q(zeta_M) are its values times V^-1:
    x_u = sum_j x(z_j) V^-1[j, u].  So |x_u| <= B_M when every embedding of
    x has modulus at most 1.  V^-1 has the Lagrange form of _prime_tables:
    V^-1[j, u] = q_j[u] / Phi_M'(z_j), where q_j[u] = sum_(i > u) c_i z_j^(i-u-1)
    are the coefficients of Phi_M(t) / (t - z_j) for Phi_M = sum_i c_i t^i,
    and Phi_M'(z_j) = q_j(z_j).

    Proof that the value returned bounds B_M from above.  Let eps = 2^-53,
    S = sum_i |c_i| (so |q_j[u]| <= S) and gamma_m = m eps / (1 - m eps), the
    error bound of a float64 dot product of m terms in any summation order,
    with or without FMA (Higham, Accuracy and Stability of Numerical
    Algorithms, sec. 3.1).  Assume numpy's cos and sin err by at most 4 ulp
    and hypot by at most 2^-50 relative.
    - Each angle 2 pi (e_j k mod M) / M takes three roundings, an error
      below 19 eps, so each part of every computed power z^_j^k is within
      2^-48 of the exact one, and |z^ - z| <= 2^-47.5.
    - The dot products q^ = z^ H, with H[k, u] = c_(u+1+k), give
      |q^ - q| <= sqrt 2 S (2^-48 + gamma_phi (1 + 2^-48)) <= E,
      where E = (64 + phi) S 2^-52.
    - Phi'^_j = sum_u q^_j[u] z^_j^u, four dot products and two roundings,
      gives |Phi'^ - Phi'| <= phi (E (1 + 2^-47) + S 2^-47.5)
      + 2.9 phi (phi + 1) eps (S + E) <= F = 4 phi E.  E and F are exact in
      float64.
    - For the computed moduli h of q^ and g of Phi'^, the true |V^-1[j, u]|
      is then at most (h + E) / (g - F) (1 + 2^-50) / (1 - 2^-50), and
      the float quotients and their column sum err by at most
      gamma_(phi+2), all terms being positive.
    So B_M is at most the computed largest column sum times 1 + phi 2^-40.
    Measured, the result exceeds the float norm of np.linalg.inv(V) by less
    than 10^-8 relative.  For M = 8n it is 1.0 to 1.28 when n has at most
    one odd prime factor, and grows with their number: 3.6 at n = 105 and
    8.6 at n = 385 = 5 7 11.
    """
    phi, poly = euler_phi(M), cyclotomic_poly(M)
    k = np.arange(phi)
    e = np.array([x for x in range(1, M) if gcd(x, M) == 1])
    angle = 2 * np.pi / M * (e[:, np.newaxis] * k % M)
    # the real and imaginary parts of z^[j, k] = z_j^k
    z = np.stack((np.cos(angle), np.sin(angle)))
    # c[k + u] = c_(u+1+k), zero from k + u = phi on
    c = np.zeros(2 * phi)
    c[:phi] = poly[1:]
    q = z @ c[k[:, np.newaxis] + k]
    # d[s, t, j] = sum_u q[s, j, u] z[t, j, u]
    d = np.einsum("sju,tju->stj", q, z)
    E = (64 + phi) * sum(map(abs, poly)) * 2.0**-52
    F = 4 * phi * E
    h, g = np.hypot(*q), np.hypot(d[0, 0] - d[1, 1], d[0, 1] + d[1, 0])
    if g.min() <= F:
        raise ValueError(f"|Phi_{M}'| at a primitive root is too small to bound V^-1 in float64")
    col = ((h + E) / (g - F)[:, np.newaxis]).sum(axis=0).max()
    return Fraction(col) * (1 + Fraction(phi, 1 << 40))


def _num_primes(M, bound):
    """The least k with p_0 ... p_(k-1) > 2 bound, so that CRT recovers every |x| <= bound."""
    k, modulus = 1, _prime_tables(M, 0)[0]
    while modulus <= 2 * bound:
        modulus *= _prime_tables(M, k)[0]
        k += 1
    return k


def _residues(arr, amax, p):
    """Residues r mod p, |r| <= (p + 1)/2, of a signed integer array whose entries are at most amax, as float64."""
    if amax <= p // 2:
        return arr.astype(np.float64)
    # int64 % first: _center alone can round for entries near 2^53
    return _center((arr % p).astype(np.float64), p)


def _planes(coords, amax, M, k):
    """The (k phi, m) evaluation planes of m coordinate rows (m, phi), mod each of k primes."""
    m, phi = coords.shape
    out = np.empty((k, phi, m))
    tmp = np.empty((phi, m))
    for s in range(k):
        p, _, V, _ = _prime_tables(M, s)
        np.matmul(V.T, _residues(coords, amax, p).T, out=out[s])
        _center(out[s], p, tmp)
    return out.reshape(k * phi, m)


def _crt(residues, primes, tmp):
    """The integers x with |x| < prod(primes)/2 and x = residues[s] (mod primes[s]).

    residues is a (k, ...) float64 array whose entries arrive centered in
    [-(p-1)/2, (p-1)/2], as one _center of the multimodular product's sums
    leaves them (see _PRIME_LIMIT); it is overwritten, and tmp is a work
    array of one residues[s]'s size.  Garner's mixed radix
    x = t_0 + p_0 (t_1 + p_1 (t_2 + ...)) with every digit t_s centered in
    [-(p_s-1)/2, (p_s-1)/2] makes x the centered representative.  Digit 0
    is residues[0], used as given; each later digit comes from values below
    2^43 in float64 and is centered once.  x is assembled in float64 while
    prod(primes) < 2^53 and on Python ints beyond.
    """
    for s in range(1, len(primes)):
        p, r = primes[s], residues[s]
        # t_0 + p_0 (t_1 + ...) mod p, by Horner over the digits so far
        acc = residues[s - 1]
        for j in range(s - 2, -1, -1):
            acc = _center(acc * primes[j] + residues[j], p, tmp)
        r -= acc
        r *= pow(prod(primes[:s]), -1, p)
        _center(r, p, tmp)
    if prod(primes) >= _FLOAT_EXACT:
        residues = residues.astype(np.int64).astype(object)
    out = residues[-1]
    for j in range(len(primes) - 2, -1, -1):
        out *= primes[j]
        out += residues[j]
    return out if out.dtype == object else out.astype(np.int64)


def _multimodular_product(M, k, a, b):
    """Power-basis coordinates of the products a[j] b[j] of (k phi, dim, dim) evaluation planes.

    Exact when every coordinate of the product has magnitude below half the
    product of the k primes (see _num_primes).  One batched matmul forms all
    k phi products; V^-1 takes the planes of each prime back to coordinates,
    and CRT combines the primes.  a and b are overwritten.
    """
    phi, dim = _tables(M)["phi"], a.shape[1]
    planes = np.matmul(a, b).reshape(k, phi, dim * dim)
    # a and b are free now: a is the work array, b takes the residues
    work = a.reshape(k, phi * dim * dim)
    residues = b.reshape(k, dim * dim, phi)
    primes = []
    for s in range(k):
        p, _, _, Vinv = _prime_tables(M, s)
        _center(planes[s], p, work[s])
        np.matmul(planes[s].T, Vinv, out=residues[s])
        _center(residues[s], p, work[s])
        primes.append(p)
    # released before _crt, not at return: see rho_closed
    del planes
    return _crt(residues, primes, work[0]).reshape(dim, dim, phi)


class RepMatrix:
    """A square matrix over Q(zeta_{8n}) with one shared denominator.

    Numerators sit in a signed integer array of shape (dim, dim, phi(8n))
    holding power-basis coordinates mod the 8n-th cyclotomic polynomial; the
    stored form is normalized (den > 0, no common factor), so equal matrices
    have equal arrays and equality is array comparison.  Every stored
    numerator lies below 2^53, so float64 holds it exactly; the constructor
    raises ValueError, also under python -O, for a numerator that reaches
    2^53 after normalization.  Python ints appear only inside the CRT of a
    product and its normalization.

    The dtype rule: a theorem1 gather (rho_S, rho_theorem1, rho_closed on
    gcd(c, N) = 1, evaluate_word on a word with one odd S) keeps the sqrt(2n)
    table's narrow type, int8 at every level measured; all else is int64.
    The constructor accepts any signed integer array and stores int64.
    Every consumer in the library widens on its own or compares values:
    maps and products go to float64, negation through the constructor,
    entry through int(), and galois_kernel's signed row permutation
    through int64 signs.  Other
    arithmetic on a stored .arr must widen it first: in int8, * 2^40 raises
    and smaller factors wrap silently.

    A product is multimodular.  The operands' largest numerators bound the
    product's coordinates, and the bound fixes the number k of primes
    p = 1 (mod 8n) below 2^21 whose product exceeds twice it.  Mod each
    prime a matrix becomes phi(8n) evaluation planes, one per primitive
    8n-th root mod p; one batched float64 matmul multiplies all k phi(8n)
    planes, an inverse Vandermonde matrix takes each prime's planes back to
    coordinates, and CRT combines the primes.  Every value stays an integer
    below 2^53, which float64 holds exactly (see _PRIME_LIMIT), so the
    result is exact whatever the summation order, FMA use or thread count.
    rho_closed runs the same algorithm on its two gathered factors but sizes
    k from the unitarity of rho instead (see _sqrt_planes): one prime for
    every n <= 230.  __mul__, the product of the word oracle and
    is_unitary, builds both operands' planes on every call and keeps the
    coordinate bound, which assumes nothing about its operands.

    A column scaling right-multiplies by diag(zeta^e_j): one batched matmul
    takes column j's coordinates through the matrix of "multiply by
    zeta^e_j", gathered from the reduction rows.  A Galois map sigma_L is
    one matmul against the matrix of sigma_L.  Both run in float64 BLAS and
    raise ValueError when max |numerator| phi rowmax, their bound on every
    product and partial sum, reaches 2^53 (see _float_coords).  Their
    results, and dagger's, skip the gcd pass: these maps have integer
    inverses, so they keep the stored form normalized (see _unit_image).
    So do theorem1 gathers, which divide by one divisor per level (see
    rho_theorem1), and identity.  Products and every other construction
    normalize by one confirmed divisor: g0 = gcd(den, content of row 0),
    which the normalizing divisor divides, is checked to divide every
    numerator in one exact pass; only where it does not (or row 0 is zero)
    does the gcd pass over every numerator run.
    """

    __slots__ = ("n", "order", "arr", "den")

    def __init__(self, n, arr, den=1):
        conductor(n)
        if not isinstance(arr, np.ndarray):
            raise TypeError(f"a RepMatrix needs a numpy array of numerators, got {type(arr).__name__}")
        if arr.shape != (n - 1, n - 1, _tables(8 * n)["phi"]):
            raise ValueError(f"rho at n = {n} needs an array of shape (n-1, n-1, phi(8n)), got {arr.shape}")
        # object holds the Python ints of a product's CRT
        if not (arr.dtype.kind == "i" or arr.dtype == object and all(isinstance(v, int) for v in arr.flat)):
            raise ValueError(f"a RepMatrix needs signed integer numerators or Python ints, got dtype {arr.dtype}")
        if not isinstance(den, int) or den == 0:
            raise ValueError(f"a RepMatrix needs a nonzero integer denominator, got {den!r}")
        # widened first: in int8, -(-128) is -128 again
        if arr.dtype != object:
            arr = arr.astype(np.int64, copy=False)
        # The normalizing divisor g = gcd(den, content of arr) divides
        # g0 = gcd(den, content of row 0), and g0 divides g once it divides
        # every numerator: one exact pass, arr // g0 times g0, confirms that.
        # The gcd pass over arr runs where that fails, and for a zero row 0.
        # A zero matrix is 0 over 1, with no division: int64 may not hold |den|.
        row = int(np.gcd.reduce(arr[0], axis=None))
        content = row or int(np.gcd.reduce(arr, axis=None))
        den, g = (den, gcd(den, content)) if content else (1, 1)
        if g > 1:
            q = arr // g
            if row and not (q * g == arr).all():
                g = gcd(g, int(np.gcd.reduce(arr, axis=None)))
                q = arr // g
            arr, den = q, den // g
        # negating after the division: -arr wraps only at -2^63, which the range test rejects
        if den < 0:
            arr, den = -arr, -den
        top = max(-int(arr.min()), int(arr.max()))
        if top >= _FLOAT_EXACT:
            raise ValueError(f"a RepMatrix stores numerators below 2^53, got {top} after normalization")
        self._store(n, arr.astype(np.int64, copy=False), den)

    def _store(self, n, arr, den):
        """Set the fields from a normalized (arr, den)."""
        self.n = n
        self.order = 8 * n
        self.arr = arr
        self.den = den

    @classmethod
    def _unit_image(cls, n, arr, den):
        """The RepMatrix arr / den, with no gcd pass, for an (arr, den) already normalized.

        It is so when arr = A P for a normalized RepMatrix A / den, where P
        acts on the power-basis coordinates of each entry as an integer
        matrix with an integer inverse Q: multiplication by zeta^e
        (Q: by zeta^-e), sigma_L (Q: sigma_(L^-1)), or a permutation of the
        entries.  Any common divisor g of den and the entries of arr then
        divides every entry of A = arr Q, an integer combination of them, so
        g divides gcd(A, den) = 1.  The result is normalized as it stands,
        with the same den > 0.
        """
        out = cls.__new__(cls)
        out._store(n, arr, den)
        return out

    @staticmethod
    def identity(n):
        """The identity matrix at level n - 2."""
        dim, phi = n - 1, _tables(8 * n)["phi"]
        arr = np.zeros((dim, dim, phi), dtype=np.int64)
        arr[range(dim), range(dim), 0] = 1
        # a 0/1 diagonal over 1 is normalized on sight
        return RepMatrix._unit_image(n, arr, 1)

    @staticmethod
    def from_entries(n, entries):
        """Build from a nested list of Cyclotomic entries with order dividing 8n."""
        M = 8 * n
        dim = n - 1
        if len(entries) != dim or any(len(row) != dim for row in entries):
            raise ValueError(f"rho at n = {n} has {dim} x {dim} entries")
        scaled = [[x.promoted(M) for x in row] for row in entries]
        den = lcm(*(x.den for row in scaled for x in row))
        nums = [c * (den // x.den) for row in scaled for x in row for c in x.num]
        if any(abs(c) >= _FLOAT_EXACT for c in nums):
            raise ValueError(f"an entry's numerator over the common denominator {den} reaches 2^53")
        return RepMatrix(n, np.array(nums, dtype=np.int64).reshape(dim, dim, -1), den)

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
        if self.n != other.n:
            raise ValueError(f"cannot multiply matrices of levels n = {self.n} and n = {other.n}")
        M, dim = self.order, self.dim
        amax, bmax = _max_abs(self.arr), _max_abs(other.arr)
        k = _num_primes(M, _product_bound(amax, bmax, M))
        a = _planes(self.arr.reshape(dim * dim, -1), amax, M, k).reshape(-1, dim, dim)
        b = _planes(other.arr.reshape(dim * dim, -1), bmax, M, k).reshape(-1, dim, dim)
        return RepMatrix(self.n, _multimodular_product(M, k, a, b), self.den * other.den)

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

    def is_identity(self):
        """True when this is exactly the identity matrix."""
        return self == RepMatrix.identity(self.n)

    def scale_cols(self, exps):
        """Right-multiply by diag(zeta_M^exps)."""
        M = self.order
        exps = np.asarray(exps)
        if exps.shape != (self.dim,):
            raise ValueError(f"scale_cols needs {self.dim} exponents, got shape {exps.shape}")
        # one dtype test on the hot path; other arrays, such as Python ints
        # beyond int64 or floats, go through _integer one by one
        if exps.dtype.kind != "i":
            exps = np.array([_integer("a scale_cols exponent", e) % M for e in exps.tolist()])
        tab = _tables(M)
        arr = _float_coords(self.arr, tab)
        # row u of maps[j], the map x -> zeta_M^e_j x, is the coordinate vector of zeta_M^(u + e_j)
        shifts = (exps % M)[:, np.newaxis]
        maps = np.take(tab["frows"], (np.arange(tab["phi"]) + shifts) % M, axis=0)
        out = np.empty_like(arr)
        # one product per column j: the row vectors arr[:, j] times maps[j]
        np.matmul(arr.transpose(1, 0, 2), maps, out=out.transpose(1, 0, 2))
        return RepMatrix._unit_image(self.n, out.astype(np.int64), self.den)

    def galois_map(self, L):
        """Apply zeta_M -> zeta_M^L to every entry; L must be coprime to M = 8n."""
        M = self.order
        L = _integer("L", L) % M
        if gcd(L, M) != 1:
            raise ValueError(f"galois_map needs gcd(L, {M}) = 1, got L = {L}")
        tab = _tables(M)
        # row u of the automorphism is the coordinate vector of zeta_M^(u L)
        mat = tab["frows"][np.arange(tab["phi"]) * L % M]
        return RepMatrix._unit_image(self.n, (_float_coords(self.arr, tab) @ mat).astype(np.int64), self.den)

    def dagger(self):
        """Conjugate transpose, computed exactly via the L = -1 automorphism."""
        conj = self.galois_map(self.order - 1)
        return RepMatrix._unit_image(self.n, np.transpose(conj.arr, (1, 0, 2)).copy(), conj.den)

    def is_unitary(self):
        """True when U * U.dagger() is exactly the identity."""
        return (self * self.dagger()).is_identity()

    def to_floats(self):
        """Complex ndarray of the entries (float evaluation of the exact data)."""
        phi = self.arr.shape[2]
        roots = np.exp(2j * np.pi * np.arange(phi) / self.order)
        return np.tensordot(self.arr.astype(np.float64), roots, axes=([2], [0])) / self.den

    def __repr__(self):
        return f"RepMatrix(n={self.n}, dim={self.dim}, den={self.den})"


def _t_exponents(n, e):
    """Diagonal exponents of rho(T)^e: e * (2 a^2 - n) mod 8n for a = 1..n-1."""
    M = 8 * n
    return [e * (2 * a * a - n) % M for a in range(1, n)]


@lru_cache(maxsize=MAX_LEVELS)
def rho_S(n):
    """The symmetric matrix rho(S) with entries sqrt(2/n) sin(pi a b / n), exactly.

    S = (0, -1; 1, 0) lies in the theorem1 stratum, so this is one
    rho_theorem1 gather, with L = 1 and entry (a, b) equal to
    sqrt(2n)/(2n) (zeta_8n^(6n + 4ab) - zeta_8n^(6n - 4ab)).  The word oracle
    gathers from the same table, so test_rho_S_is_the_sine_matrix checks it
    against Cyclotomic sines, independently of rho_theorem1.
    """
    S = rho_theorem1(ResidueMatrix(conductor(n), 0, -1, 1, 0), n)
    _read_only(S.arr)
    return S


def rho_T(n):
    """The diagonal matrix rho(T) with entries e(a^2/4n - 1/8), exactly."""
    conductor(n)
    return RepMatrix.identity(n).scale_cols(_t_exponents(n, 1))


def evaluate_word(word, n):
    """Evaluate an STWord by direct matrix multiplication; this is the oracle.

    rho(S)^2 = 1, as S^2 = -1 and rho(-1) = 1, so a token S^e counts only
    for odd e (test_rho_S_is_the_sine_matrix checks it at every level where
    the tests or the benchmark run this oracle).  Each odd S, with the T
    powers around it, is one factor rho(T^x S T^y): x is the word's leading
    T power for the first factor and 0 for the rest, and y sums the T
    powers up to the next odd S, across even S.  T^x S T^y = (x, xy - 1;
    1, y) has C = 1, so the factor is one theorem1 gather with L = 1 and no
    Jacobi sign; with rho_closed the oracle shares only the sqrt(2n) table
    and the C = 1 exponents, as rho_S did.  So a word with m odd S costs m
    gathers and m - 1 general products (RepMatrix.__mul__, with the
    coordinate bound); one with no odd S is a column scaling of the identity.
    """
    if not isinstance(word, STWord):
        raise TypeError(f"evaluate_word needs an STWord, got {type(word).__name__}")
    N = conductor(n)
    lead, ys = 0, []
    for letter, e in word.tokens:
        if letter == "T":
            if ys:
                ys[-1] += e
            else:
                lead += e
        elif e % 2:
            ys.append(0)
    if not ys:
        return RepMatrix.identity(n).scale_cols(_t_exponents(n, lead))
    acc = _theorem1_gather(ResidueMatrix(N, lead, lead * ys[0] - 1, 1, ys[0]), n)
    for y in ys[1:]:
        acc = acc * _theorem1_gather(ResidueMatrix(N, 0, -1, 1, y), n)
    return acc


def dispatch_path(r, n):
    """Name the stratum of r: theorem1, upper, unit_d, or word.

    theorem1 is gcd(c, N) = 1, upper is c = 0, and unit_d is gcd(d, 2n) = 1
    with a closed branch of identities.kernel_sum_closed for C' = -c/d; word
    is the rest.  Each of the first three has a closed form of its own in
    identities; rho_closed takes one route on every stratum.
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
        if r.N != conductor(n):
            raise ValueError(f"{r} is a residue mod {r.N}, but rho at n = {n} needs mod {conductor(n)}")
        return r
    return ResidueMatrix.from_list(conductor(n), r)


def _legendre_g(C, n):
    """The mod-8 exponent in the odd-n Legendre-symbol form of rho."""
    eps = 1 if n * C % 4 == 1 else -1
    theta = 0 if n % 4 == 1 else 2
    return 2 + eps + theta


@lru_cache(maxsize=MAX_LEVELS)
def _sqrt_table(n):
    """(Q, D, g): row j < 8n of Q over D holds the power-basis coordinates of sqrt(2n)/(2n) zeta_8n^j.

    Row j is the zeta-orbit (see cyclotomic._zeta_orbit) of row 0, and row 0
    comes from the quadratic Gauss sum mod M = 8n,
    sum_(x mod M) zeta^(x^2) = (1 + i) sqrt(M) (Berndt, Evans and Williams,
    Gauss and Jacobi Sums, 1998, Thm 1.2.4).  With -i = zeta^(6n) it gives
        M sqrt(2n)/(2n) = (1 - i) (1 + i) sqrt(M) = sum_(x mod M) (zeta^(x^2) + zeta^(x^2 + 6n)),
    so row 0 over M adds the rows of _tables(M) with the counts w[k] of the
    squares x^2 = k mod M.  g is the normalizing divisor of every theorem1
    gather (see rho_theorem1 and _gather_form).  Q is int8 at every level
    measured (max |Q| <= 26 for n = 3..130, 200, 210, 330 and 401).
    """
    M = 8 * n
    w = np.bincount(np.arange(M) ** 2 % M, minlength=M)
    start = (w + np.roll(w, 6 * n)) @ _tables(M)["rows"]
    table, D, g = _gather_form(n, _zeta_orbit(start, M, M), M)
    return _read_only(table), D, g


def _gather_form(n, table, D):
    """(Q, D', g) for a table whose row j over D holds the coordinates of x zeta_8n^j, for one x.

    Q over D' = D / c is the table divided by c = gcd(D, its coordinates).
    g = gcd(D', content of rho(S)'s gather from Q) is the normalizing
    divisor of every theorem1 gather from Q (see rho_theorem1): 1 at every
    n <= 130 but n = 3 (g = 3) and n = 4 (g = 2).  A difference of two rows
    is at most 2 max |Q|, so the stored numerators of every gather lie
    below 2^53 unless 2 max |Q| // g reaches it; then this raises ValueError.
    After that check, Q is stored in the first of int8, int16, int32 and
    int64 that holds 2 max |Q|, so a difference of two rows fits it, and
    so does every gather's result, which is stored in that type.
    """
    M = 8 * n
    c = gcd(D, int(np.gcd.reduce(table, axis=None)))
    if c > 1:
        table, D = table // c, D // c
    # entry (a, b) of rho(S)'s gather, Q[6n + 4m] - Q[6n - 4m] with m = ab mod 2n,
    # is 0 for m = 0 or n, and swaps sign from m to 2n - m; so every entry is 0
    # or +- one of the first column's, m = a
    a4 = 4 * np.arange(1, n)
    g = gcd(D, int(np.gcd.reduce(table[(6 * n + a4) % M] - table[6 * n - a4], axis=None)))
    top = 2 * _max_abs(table)
    if top // g >= _FLOAT_EXACT:
        raise ValueError(f"a theorem1 gather at n = {n} can reach 2^53 after normalization")
    dtype = next((t for t in (np.int8, np.int16, np.int32) if top <= np.iinfo(t).max), np.int64)
    return table.astype(dtype), D, g


@lru_cache(maxsize=MAX_LEVELS)
def _sqrt_planes(n):
    """(planes, k): _sqrt_table(n) in evaluation form, mod the k primes a product of two gathers needs.

    Row s phi + j of planes holds, in column e < 8n, the image of
    D sqrt(2n)/(2n) zeta_8n^e at the j-th evaluation point mod the s-th
    prime, as a centered residue in float64.

    k is sized from unitarity, not from the operands' coordinates.  The
    product of rho_closed's two gathered factors is D^2 rho(r), where D is
    the table's denominator, that of each factor.  rho(r) is unitary, and
    complex conjugation commutes with every sigma_L of the abelian group
    Gal(Q(zeta_8n)/Q), so sigma_L(rho(r)) is unitary too (Coste-Gannon):
    every embedding of every entry has modulus at most 1.  Each coordinate
    of the product is then at most D^2 B_M (see _vinv_bound), and k is the
    least number of primes whose product exceeds twice that: one for every
    n <= 230 and, when n has at most one odd prime factor, up to about
    n = 400.  The general product's bound asks for two from n = 20.
    """
    M = 8 * n
    table, D, _ = _sqrt_table(n)
    k = _num_primes(M, D**2 * _vinv_bound(M))
    return _read_only(_planes(table, _max_abs(table), M, k)), k


@lru_cache(maxsize=MAX_LEVELS)
def _theorem1_tables(n):
    """Per-level data of _theorem1_exponents.

    For each C < N a unit mod N, inv[C] = C^-1 mod 8n and sign[C] =
    (2n|inv[C]); both are zero at the other C.  t[a - 1] = 2a^2 - n and
    cross[a - 1, b - 1] = 4ab for a, b = 1..n-1.
    """
    N, M = conductor(n), 8 * n
    inv = np.zeros(N, dtype=np.int64)
    sign = np.zeros(N, dtype=np.int64)
    for C in range(N):
        if gcd(C, N) == 1:
            inv[C] = pow(C, -1, M)
            sign[C] = jacobi(2 * n, int(inv[C]))
    a = np.arange(1, n)
    arrays = {"inv": inv, "sign": sign, "t": 2 * a * a - n, "cross": 4 * np.outer(a, a)}
    return {key: _read_only(arr) for key, arr in arrays.items()}


def _theorem1_exponents(A, C, D, n, size=None):
    """(p, q) with entry (a, b) of rho_theorem1(A, B; C, D) = sqrt(2n)/(2n) (zeta_8n^p - zeta_8n^q).

    A, C and D are integers or integer arrays that broadcast to a shape X,
    with every C in [0, N) a unit mod N; p and q, in [0, 8n), have shape
    X + (size, size) and cover the rows and columns a, b <= size (default
    n - 1, the whole matrix).  With L = C^-1 mod 8n, p and q are
    L (A(2a^2 - n) + D(2b^2 - n) + 6n +- s 4ab) mod 8n, where s = (2n|L) is
    the Jacobi sign of rho_theorem1: p and q trade places where it is -1.
    Python ints A, C and D, as from a ResidueMatrix, go to _scalar_exponents;
    arrays and numpy integers, as from the kernel sweep, broadcast here.
    """
    if type(A) is int and type(C) is int and type(D) is int:
        return _scalar_exponents(A, C, D, n, size)
    M = 8 * n
    tab = _theorem1_tables(n)
    t, cross = tab["t"][:size], tab["cross"][:size, :size]
    L = tab["inv"][C]

    def lift(v):
        return np.asarray(v)[..., np.newaxis, np.newaxis]

    LA, LD, Ls, L6 = (lift(v) for v in (L * A % M, L * D % M, L * tab["sign"][C], 6 * n * L % M))
    base = LA * t[:, np.newaxis] + LD * t + L6
    cross = Ls * cross
    return (base + cross) % M, (base - cross) % M


def _scalar_exponents(A, C, D, n, size):
    """_theorem1_exponents for Python ints A, C and D: the scalar factors on Python ints, one outer sum.

    At n <= 12 numpy's per-call cost, not the arithmetic, sets the time,
    and this path makes fewer calls than lifting and broadcasting scalars.
    """
    M = 8 * n
    tab = _theorem1_tables(n)
    t, cross = tab["t"][:size], tab["cross"][:size, :size]
    L = tab["inv"].item(C)
    base = np.add.outer((L * A % M) * t + 6 * n * L % M, (L * D % M) * t)
    cross = L * tab["sign"].item(C) * cross
    return (base + cross) % M, (base - cross) % M


def rho_theorem1(r, n):
    """rho on gcd(c, N) = 1 matrices, as one gather from a table of sqrt(2n) zeta_8n^j.

    rho(A, B; C, D) is sigma_L of rho(T^A S T^D) for L = C^-1 mod 8n.  Entry
    (a, b) of rho(T^A S T^D) is sqrt(2n)/(2n) (zeta^p' - zeta^q') with
    zeta = zeta_8n and p', q' = A(2a^2 - n) + D(2b^2 - n) + 6n +- 4ab, and
    sigma_L sends sqrt(2n) to (2n|L) sqrt(2n) (Coste-Gannon), so the entry is
    (2n|L) sqrt(2n)/(2n) (zeta^(L p') - zeta^(L q')).

    The result is born normalized, with no gcd pass.  Over the table's
    denominator den, entry (a, b) is sigma_L(zeta^(A t_a + D t_b) den S_ab),
    with t_a = 2a^2 - n and S = rho(S).  Multiplication by zeta^e and sigma_L
    act on one entry's coordinates as integer matrices with integer
    inverses (see RepMatrix._unit_image), so they keep each entry's
    content, the gcd of its coordinates.  Every theorem1 gather over den
    thus has the contents of rho(S)'s gather, entry by entry, and the same
    normalizing divisor g = gcd(den, content), one number per level that
    _sqrt_table carries.  The gather runs, and its result stays, in the
    table's narrow type (see _gather_form).
    """
    r = _as_residue(r, n)
    if gcd(r.c, r.N) != 1:
        raise ValueError(f"rho_theorem1 needs gcd(c, N) = 1, got {r} at n = {n}")
    return _theorem1_gather(r, n)


def _theorem1_gather(r, n):
    """rho_theorem1(r, n), unchecked: r is a ResidueMatrix mod N with gcd(c, N) = 1.

    Take, subtract and // g run in the table's type, and the result keeps it.
    """
    table, den, g = _sqrt_table(n)
    p, q = _theorem1_exponents(r.a, r.c, r.d, n)
    arr = table.take(p, axis=0)
    arr -= table.take(q, axis=0)
    if g > 1:
        arr //= g
    return RepMatrix._unit_image(n, arr, den // g)


def _signed_fold(A, n):
    """(perm, signs) with A a = signs[a - 1] perm[a - 1] (mod 2n) and perm[a - 1] in 1..n-1, for a = 1..n-1.

    For gcd(A, 2n) = 1, A a mod 2n is never 0 or n, as n does not divide a,
    so it is u or 2n - u = -u for one u in 1..n-1.
    """
    folded = [A * a % (2 * n) for a in range(1, n)]
    return [u if u < n else 2 * n - u for u in folded], [1 if u < n else -1 for u in folded]


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

    gcd(c, N) = 1 takes rho_theorem1's table gather, with r checked once
    here and not again (_theorem1_gather).  Any other matrix is shifted to
    W = r T^k S in that stratum (see _unit_shift), and
    rho(r) = rho(W) rho(S^-1 T^-k) = rho_theorem1(W) rho_theorem1(0, -1; 1, -k),
    as S^-1 T^-k = -(0, -1; 1, -k) and rho(-1) = rho(S)^2 = 1: two gathers
    and one product.  Both factors are gathered straight into evaluation
    planes (_sqrt_planes) and multiplied by the RepMatrix product's
    multimodular algorithm, mod as many primes as unitarity asks for.  The
    paper's other closed forms live in identities, checked against the word
    oracle; none is a route of this function.
    """
    r = _as_residue(r, n)
    if gcd(r.c, r.N) == 1:
        return _theorem1_gather(r, n)
    k, w = _unit_shift(r, n)
    planes, nprimes = _sqrt_planes(n)
    factors = []
    for x in (w, ResidueMatrix(w.N, 0, -1, 1, -k)):
        p, q = _theorem1_exponents(x.a, x.c, x.d, n)
        # np.take keeps the (k phi, dim, dim) result contiguous for the batched matmul
        gathered = np.take(planes, p, axis=1)
        gathered -= np.take(planes, q, axis=1)
        factors.append(gathered)
    arr = _multimodular_product(8 * n, nprimes, *factors)
    # released before normalizing, as planes before _crt: in this order glibc reuses the memory, not faulting it
    # in anew (verify-all --level 48, 2-core VM: 0.09 M minor faults; 1.8 M without, 0.66 M if __mul__ also does)
    del factors
    return RepMatrix(n, arr, _sqrt_table(n)[1] ** 2)


def g_parity_check(n):
    """Check rho(-R) = rho(R) and the mod-8 exponent parity behind it, for odd n."""
    if n % 2 == 0:
        raise ValueError(f"g_parity_check needs odd n, got n = {n}")
    target = 2 * (n + 1) % 8
    for C in range(1, 4 * n, 2):
        if gcd(C, n) > 1:
            continue
        if (_legendre_g(C, n) - _legendre_g(-C, n) + 2 * C - target) % 8:
            return False
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
    """Float entries for gcd(C, N) = 1: Jacobi symbol times twisted sine and phases."""
    M = 8 * n
    Codd = C % conductor(n)
    Cinv = pow(Codd, -1, M)
    a = np.arange(1, n)
    a2 = a * a
    # the eighth-root prefactor zeta_8^(-(A+D)/C) and the row phases
    # zeta_4n^(A a^2 / C), as one exponent of zeta_8n
    row = np.exp(2j * np.pi / M * (Cinv * (2 * A * a2 - n * (A + D)) % M))
    col = np.exp(2j * np.pi / M * (2 * Cinv * D * a2 % M))
    sines = np.sin(np.pi / n * (Cinv * np.outer(a, a) % (2 * n)))
    pref = jacobi(-2 * n, Codd) * np.sqrt(2.0 / n)
    return (pref * row)[:, np.newaxis] * (sines * col)


def rho_float(r, n):
    """Evaluate rho over complex doubles; not an exact result.

    Its float arithmetic shares nothing with the exact route, so verify-all
    compares it with rho_closed as an independent float check.
    """
    r = _as_residue(r, n)
    N = conductor(n)
    if gcd(r.c, N) == 1:
        return _rho_float_coprime(r.a, r.c, r.d, n)
    k, w = _unit_shift(r, n)
    fw = _rho_float_coprime(w.a, w.c, w.d, n)
    return (fw @ _float_S(n)) * np.conj(_float_T_diag(n, k))[np.newaxis, :]
