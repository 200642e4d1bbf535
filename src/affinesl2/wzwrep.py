"""The level-k affine sl2 modular representation: exact arithmetic, generators, word oracle, rho_closed."""

import random
from functools import lru_cache
from math import gcd, lcm, prod

import numpy as np

from .cyclotomic import Cyclotomic, _integer, _zeta_orbit, cyclotomic_poly, euler_phi, factorize, jacobi
from .modgroup import ResidueMatrix, STWord, random_matrix

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
    tail = 1 + max_u sum_(t = phi .. 2 phi - 2) |rows[t][u]| is the factor
    by which reduction mod Phi_M can grow a coordinate (see _product_bound).
    M is even, so 2 phi - 2 < M.  units holds the e < M coprime to M,
    ascending: evaluation plane j of every prime is the value at x_j = w^e_j
    (see _prime_tables).
    """
    phi = euler_phi(M)
    rows = _zeta_orbit(np.eye(1, phi, dtype=np.int64)[0], M, M)
    return {
        "units": _read_only(np.flatnonzero(np.gcd(np.arange(M), M) == 1)),
        "rows": _read_only(rows),
        "frows": _read_only(rows.astype(np.float64)),
        "phi": phi,
        "rowmax": max(1, int(np.abs(rows).max())),
        "tail": 1 + int(np.abs(rows[phi : 2 * phi - 1]).sum(axis=0).max(initial=0)),
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


# Every _gather_run, rho_closed's product and each run of the word oracle,
# takes one prime for every n <= 272 (see _chain_bound).  __mul__, the
# oracle's joins of its runs and is_unitary, takes one at n <= 12, 20, 31,
# 50, 61 and 101, and one or two at n = 55 and 105; products of large
# numerators take more, so four per level keep the primes of MAX_LEVELS levels.
@lru_cache(maxsize=4 * MAX_LEVELS)
def _prime_tables(M, i):
    """(p, x, V, Vinv) for the i-th largest prime p = 1 (mod M) below 2^21.

    x holds the phi(M) primitive M-th roots of unity mod p, the roots of
    Phi_M mod p: x_j = w^e_j for one w of order M and e_j the j-th of
    _tables(M)["units"].  V[u, j] = x_j^u takes power-basis coordinates to
    the values at the x_j, and Vinv takes them back: row j of Vinv holds
    the coefficients of the Lagrange polynomial
    Phi_M(t) / ((t - x_j) Phi_M'(x_j)), found by synthetic division.  V and
    Vinv are centered residues in float64.
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
    x = np.array([pow(w, e, p) for e in _tables(M)["units"].tolist()], dtype=np.int64)
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


def _norms(arr):
    """(amax, arow) of a (dim, dim, phi) coordinate array, the operand norms of _product_bound.

    amax is the largest |coordinate| and arow = max_i sum_j ||arr[i, j]||_1,
    the largest row sum of |coordinates|, both exact Python ints.  The
    magnitudes are taken in int64, which also widens an int8 -128.  A row
    sum is at most amax dim phi, so the sums run in int64 while that is
    below 2^63, and on Python ints beyond (numerators near 2^53 reach it).
    """
    dim, _, phi = arr.shape
    mags = np.abs(arr, dtype=np.int64)
    amax = int(mags.max())
    if amax * dim * phi >= 1 << 63:
        mags = mags.astype(object)
    return amax, int(mags.sum(axis=(1, 2)).max())


def _product_bound(arow, bmax, M):
    """Bound on every coordinate of a product A B over Q(zeta_M), from the operands' coordinates alone.

    arow bounds max_i sum_j ||a_ij||_1, the largest row sum of A's
    |coordinates| (_norms gives it exactly), and bmax bounds every
    |coordinate| of B.

    Proof.  Before reduction, entry (i, k) of A B is sum_j a_ij b_jk, a
    polynomial in zeta_M of degree at most 2 phi - 2.  Its coefficient of
    zeta^s is sum_j sum_(u + v = s) a_iju b_jkv, at most
    sum_j ||a_ij||_1 bmax <= arow bmax in magnitude.  Reduction mod Phi_M
    keeps the coefficients of zeta^u, u < phi, and adds the coefficient of
    zeta^t times rows[t] for t = phi .. 2 phi - 2, so coordinate u is at
    most arow bmax (1 + sum_t |rows[t][u]|) <= arow bmax tail_M (see
    _tables).  The bound assumes nothing about the operands, so it covers
    every __mul__, the word oracle's joins of its runs among them; a
    _gather_run has a sharper bound of its own (see _chain_bound).
    """
    return arow * bmax * _tables(M)["tail"]


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


def _plane_product(M, k, a, b, out=None):
    """The products a[j] b[j] of (k phi, dim, dim) evaluation planes, centered mod each of the k primes.

    One batched matmul forms all k phi products, into out if given, and one
    _center per prime reduces them, with a, free once the matmul is done,
    as its work array: a is overwritten.
    """
    planes = np.matmul(a, b, out=out)
    work, flat = a.reshape(k, -1), planes.reshape(k, -1)
    for s in range(k):
        _center(flat[s], _prime_tables(M, s)[0], work[s])
    return planes


def _multimodular_product(M, k, a, b):
    """Power-basis coordinates of the products a[j] b[j] of (k phi, dim, dim) evaluation planes.

    Exact when every coordinate of the product has magnitude below half the
    product of the k primes (see _num_primes).  _plane_product forms the
    products; V^-1 takes the planes of each prime back to coordinates, and
    CRT combines the primes.  a and b are overwritten.
    """
    phi, dim = _tables(M)["phi"], a.shape[1]
    planes = _plane_product(M, k, a, b).reshape(k, phi, dim * dim)
    # a and b are free now: a is the work array, b takes the residues
    work = a.reshape(k, phi * dim * dim)
    residues = b.reshape(k, dim * dim, phi)
    primes = []
    for s in range(k):
        p, _, _, Vinv = _prime_tables(M, s)
        np.matmul(planes[s].T, Vinv, out=residues[s])
        _center(residues[s], p, work[s])
        primes.append(p)
    # released before _crt, not at return: see rho_closed
    del planes
    return _crt(residues, primes, work[0]).reshape(dim, dim, phi)


def _galois_slots(M, k, L):
    """The index array that takes (k phi, ...) evaluation planes of X to those of sigma_L(X), for L a unit mod M.

    Plane j of each prime's block is the value at x_j = w^e_j (see
    _prime_tables).  sigma_L(X) is X with zeta_M -> zeta_M^L, and x_j is a
    root of Phi_M mod p, so its value there is X's at x_j^L = w^(e_j L):
    the plane of e_j L mod M, in the same prime's block.  This is the
    action of the Galois group on the CRT slots (Smart and Vercauteren,
    Fully homomorphic SIMD operations, DCC 2014).
    """
    units = _tables(M)["units"]
    perm = np.searchsorted(units, units * (L % M) % M)
    return (len(units) * np.arange(k)[:, np.newaxis] + perm).ravel()


def _same_planes(M, k, x, y):
    """Whether the (k phi, ...) float64 planes x and y agree mod each of the k primes; both are overwritten.

    Every |x - y| must be below 2^52.  Then _center takes x - y exactly to
    its residue in [-(p - 1)/2, (p - 1)/2] (see _PRIME_LIMIT), which is 0
    exactly where x = y (mod p).
    """
    x -= y
    flat, work = x.reshape(k, -1), y.reshape(k, -1)
    return not any(_center(flat[s], _prime_tables(M, s)[0], work[s]).any() for s in range(k))


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

    A product is multimodular.  A proven bound on its coordinates, one
    that reads only the operands' coordinates (see _product_bound) or one
    for a product of gathers (see _chain_bound), fixes the number k of primes
    p = 1 (mod 8n) below 2^21 whose product exceeds twice it.  Mod each
    prime a matrix becomes phi(8n) evaluation planes, one per primitive
    8n-th root mod p; one batched float64 matmul multiplies all k phi(8n)
    planes, an inverse Vandermonde matrix takes each prime's planes back to
    coordinates, and CRT combines the primes.  Every value stays an integer
    below 2^53, which float64 holds exactly (see _PRIME_LIMIT), so the
    result is exact whatever the summation order, FMA use or thread count.
    Every exact product in the library is either __mul__ or a
    _gather_run, and each ends in one such _multimodular_product.
    __mul__ takes both operands through _planes; is_unitary and the word
    oracle's joins of its runs use it.  A _gather_run, the product of
    rho_closed's two factors and each run of the oracle, gathers its
    theorem1 factors as planes straight from the sqrt(2n) table's
    evaluation form, with no change of basis (_gathered_planes), and
    multiplies them by _plane_product up to its last product.  It takes a
    sharper bound, from sqrt(2n)^2 = 2n (see _chain_bound): one prime for
    every n <= 272.  The Galois checks of galois_kernel multiply runs in
    planes too (_run_planes), but compare the planes and return no matrix.

    A column scaling, rho_T's route and no word's, right-multiplies by
    diag(zeta^e_j): one batched matmul takes column j's coordinates through
    the matrix of "multiply by zeta^e_j", gathered from the reduction rows.
    A Galois map sigma_L is one matmul against the matrix of sigma_L.  Both
    run in float64 BLAS and raise ValueError when max |numerator| phi
    rowmax, their bound on every product and partial sum, reaches 2^53 (see
    _float_coords).  Their results, and dagger's, skip the gcd pass: these
    maps have integer inverses, so they keep the stored form normalized (see
    _unit_image).  So do theorem1 gathers, which divide by one divisor per
    level (see rho_theorem1), and identity.  Products and every other
    construction normalize by one confirmed divisor: g0 = gcd(den, content
    of row 0), which the normalizing divisor divides, is checked to divide
    every numerator in one exact pass; only where it does not (or row 0 is
    zero) does the gcd pass over every numerator run.
    """

    __slots__ = ("n", "arr", "den")

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
        self.n, self.arr, self.den = n, arr.astype(np.int64, copy=False), den

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
        out.n, out.arr, out.den = n, arr, den
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
    def order(self):
        """M = 8n: the entries lie in Q(zeta_M)."""
        return 8 * self.n

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
        (amax, arow), bmax = _norms(self.arr), _max_abs(other.arr)
        k = _num_primes(M, _product_bound(arow, bmax, M))
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
    Jacobi sign.  So a word with m >= 1 odd S costs m - 1 products; one
    with none is T^x = -(T^x S) S, two factors with y = 0, and one
    product: the oracle shares no column scaling with rho_T.

    The factors go in runs of _sqrt_table's "chain_len", the last run
    possibly shorter.  Each run is one _gather_run, which multiplies its
    gathers in evaluation planes with one change of basis and one CRT, and
    RepMatrix.__mul__ joins the runs, sized by the operand bound.

    With rho_closed the oracle shares the sqrt(2n) table in both its
    forms, the C = 1 exponents and _gather_run, and so the identity
    sqrt(2n)^2 = 2n, through _chain_bound, which sizes every run
    (rho_closed's is a run of two); the test of that bound checks the
    identity on the table itself.  It shares nothing of rho_closed's
    factorization r = W S^-1 T^-k through T^k S, and that is what
    closed_vs_word cross-checks.
    """
    factors = _word_factors(word, n)
    j = _sqrt_table(n)["chain_len"]
    acc = _gather_run(factors[:j], n)
    for i in range(j, len(factors), j):
        acc = acc * _gather_run(factors[i : i + j], n)
    return acc


def _word_factors(word, n):
    """The factors rho(T^x S T^y) of evaluate_word's product, as ResidueMatrix with C = 1, in order.

    The Bantay check shares them, so it parses its STWord as the oracle does.
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
        ys = [0, 0]
    factors = [ResidueMatrix(N, lead, lead * ys[0] - 1, 1, ys[0])]
    return factors + [ResidueMatrix(N, 0, -1, 1, y) for y in ys[1:]]


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
    """The table of sqrt(2n)/(2n) zeta_8n^j, with what its gathers and their products need.

    A dict: row j < 8n of "table" Q over "den" = D holds the power-basis
    coordinates of sqrt(2n)/(2n) zeta_8n^j, "qmax" is max |Q|, and "g" is
    the normalizing divisor of every theorem1 gather (see rho_theorem1 and
    _gather_form).  Row j is the zeta-orbit (see cyclotomic._zeta_orbit)
    of row 0, and row 0 comes from the quadratic Gauss sum mod M = 8n,
    sum_(x mod M) zeta^(x^2) = (1 + i) sqrt(M) (Berndt, Evans and Williams,
    Gauss and Jacobi Sums, 1998, Thm 1.2.4).  With -i = zeta^(6n) it gives
        M sqrt(2n)/(2n) = (1 - i) (1 + i) sqrt(M) = sum_(x mod M) (zeta^(x^2) + zeta^(x^2 + 6n)),
    so row 0 over M adds the rows of _tables(M) with the counts w[k] of the
    squares x^2 = k mod M.  The table is int8 at every level measured
    (max |Q| <= 26 for n = 3..130, 200, 210, 330 and 401).

    "closed_primes" is the number of primes of _sqrt_planes and of every
    product that _chain_bound sizes, every _gather_run: rho_closed's, of two
    gathers, and each run of the word oracle.  "chain_len" is the largest m
    such that the product of m gathers, and of every shorter run, stays
    within those primes: 2 _chain_bound(n, m, D, max |Q|) is below their
    product.  Both rest on sqrt(2n)^2 = 2n, and closed_primes is 1 for every
    n <= 272.  Counting them builds the level's first prime table, which
    every product at the level takes, and no other.
    """
    M = 8 * n
    w = np.bincount(np.arange(M) ** 2 % M, minlength=M)
    start = (w + np.roll(w, 6 * n)) @ _tables(M)["rows"]
    table, D, g = _gather_form(n, _zeta_orbit(start, M, M), M)
    qmax = _max_abs(table)
    k = _num_primes(M, _chain_bound(n, 2, D, qmax))
    modulus = prod(_prime_tables(M, s)[0] for s in range(k))
    m = 2
    while 2 * _chain_bound(n, m + 1, D, qmax) < modulus:
        m += 1
    return {
        "table": _read_only(table),
        "den": D,
        "g": g,
        "qmax": qmax,
        "closed_primes": k,
        "chain_len": m,
    }


def _chain_bound(n, m, D, qmax):
    """Bound on every coordinate of a product of m >= 1 theorem1 gathers over D, from sqrt(2n)^2 = 2n.

    D is the denominator of _sqrt_table's rows Q_e, which hold
    D s zeta^e with s = sqrt(2n)/(2n), and qmax = max |Q|.

    Proof.  Entry (a, b) of a gather over D is D s (zeta^p - zeta^q), up to
    a Jacobi sign (see rho_theorem1).  Entry (a, b) of the product of m of
    them sums, over the dim^(m - 1) paths a = i_0, i_1, ..., i_m = b, the
    products of m such entries: it is D^m s^m times a signed sum of
    dim^(m - 1) 2^m powers zeta^e.  As sqrt(2n)^2 = 2n, s^2 = 1/(2n).  For
    even m, D^m s^m zeta^e = D^m/(2n)^(m/2) zeta^e has coordinates at most
    D^m rowmax/(2n)^(m/2) (see _tables).  For odd m, it is
    D^(m - 1)/(2n)^((m - 1)/2) times D s zeta^e, the table row Q_e, so its
    coordinates are at most D^(m - 1) qmax/(2n)^((m - 1)/2).  Every
    coordinate of the product is thus at most
        D^m dim^(m - 1) 2^m rowmax / (2n)^(m/2)              (m even),
        D^(m - 1) dim^(m - 1) 2^m qmax / (2n)^((m - 1)/2)    (m odd),
    and below that floored plus 1.  For m = 2 this is rho_closed's bound,
    D^2 2 (n - 1) rowmax / n, on its product D^2 rho(r).  The bound needs
    no unitarity, no float and no operand norm.
    """
    h = m // 2
    top = qmax if m % 2 else _tables(8 * n)["rowmax"]
    return D ** (2 * h) * (n - 1) ** (m - 1) * 2**m * top // (2 * n) ** h + 1


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


# one entry per level, on "closed_primes": one prime at every n <= 272
# (n <= 12, 20, 31, 50, 55, 61, 101 and 105 measured)
@lru_cache(maxsize=MAX_LEVELS)
def _sqrt_planes(n):
    """_sqrt_table(n)'s table in evaluation form, mod each of its k = "closed_primes" primes.

    Row s phi + j holds, in column e < 8n, the image of
    D sqrt(2n)/(2n) zeta_8n^e at the j-th evaluation point mod the s-th
    prime, as a centered residue in float64.
    """
    tab = _sqrt_table(n)
    return _read_only(_planes(tab["table"], tab["qmax"], 8 * n, tab["closed_primes"]))


def _gathered_planes(r, n, out=None):
    """The (k phi, dim, dim) evaluation planes of D rho_theorem1(r) on _sqrt_planes, into out if given.

    r is a ResidueMatrix with gcd(c, N) = 1, and D the table's
    denominator: entry (a, b) is the difference of the planes of two table
    rows (see _theorem1_exponents), a difference of two centered residues,
    |d| <= p - 1 (see _PRIME_LIMIT).  _chain_bound bounds a product of
    such gathers, which _gather_run forms.  np.take keeps the result
    contiguous for the batched matmul.
    """
    planes = _sqrt_planes(n)
    p, q = _theorem1_exponents(r.a, r.c, r.d, n)
    # the exponents lie in [0, 8n), so "clip" clips nothing; it spares the
    # buffered copy that np.take makes of out in its default mode
    out = np.take(planes, p, axis=1, out=out, mode="clip")
    out -= np.take(planes, q, axis=1)
    return out


def _run_planes(rs, n):
    """The two operands of the last product of a run of 2 <= j <= chain_len gathers, as evaluation planes.

    Each rs[i] is a ResidueMatrix with gcd(c, N) = 1, unchecked.  The
    factors are gathered into (k phi, dim, dim) planes from _sqrt_planes,
    on its k = "closed_primes" primes, and the first j - 1 are multiplied
    by j - 2 _plane_products.  The operands are the planes of
    D^(j - 1) rho_theorem1(rs[0]) ... rho_theorem1(rs[j - 2]) and of
    D rho_theorem1(rs[j - 1]); _plane_product of the two gives the planes
    of D^j times the run, each a centered residue of its value at x_j.
    _gather_run takes them back to coordinates, and the Galois checks of
    galois_kernel compare them as they are.
    """
    M, k = 8 * n, _sqrt_table(n)["closed_primes"]
    left, right = _gathered_planes(rs[0], n), _gathered_planes(rs[1], n)
    # The run reuses its own three arrays: each product goes into the one
    # the step before freed, and each factor into right.  The third is
    # released at the return, and the last product takes its memory.
    # verify-all --level 29 and 48 on a 2-core Xeon VM read 0.03 M and
    # 0.10 M minor faults so, and 0.43 M at both with a fresh product and
    # factor per step.
    spare = None
    for r in rs[2:]:
        left, spare = _plane_product(M, k, left, right, spare), left
        _gathered_planes(r, n, right)
    return left, right


def _gather_run(rs, n):
    """D^j rho_theorem1(rs[0]) ... rho_theorem1(rs[j - 1]) over D^j, for 1 <= j <= chain_len.

    Each rs[i] is a ResidueMatrix with gcd(c, N) = 1, unchecked.  One
    factor is its gather.  Two or more take _run_planes, whose primes
    _chain_bound(n, j) fits, and one _multimodular_product: one change of
    basis and one CRT for the whole run.
    """
    if len(rs) == 1:
        return _theorem1_gather(rs[0], n)
    tab = _sqrt_table(n)
    left, right = _run_planes(rs, n)
    arr = _multimodular_product(8 * n, tab["closed_primes"], left, right)
    # released before normalizing, as planes before _crt: in this order glibc reuses the memory, not faulting it
    # in anew (verify-all --level 48, 2-core VM: 0.10 M minor faults; 1.26 M without)
    del left
    return RepMatrix(n, arr, tab["den"] ** len(rs))


def _plane_primes(n):
    """The number k of _sqrt_planes' primes, once 2 B is checked to be below their product P.

    B = max(_chain_bound(n, 2), 2 D max |Q|) bounds every coordinate that
    the Galois checks of galois_kernel decide on evaluation planes: of a
    product of two matrices with gather entries +-D s (zeta^p - zeta^q),
    and of D times one such matrix.  Two such X and Y with X = Y at every
    x_j mod every prime are equal: V is invertible mod p, so each
    coordinate of X - Y is 0 mod p, hence mod P, and below P in magnitude.
    Raises ValueError where 2 B reaches P, which no measured level does.
    """
    tab = _sqrt_table(n)
    D, qmax, k = tab["den"], tab["qmax"], tab["closed_primes"]
    bound = max(_chain_bound(n, 2, D, qmax), 2 * D * qmax)
    if 2 * bound >= prod(_prime_tables(8 * n, s)[0] for s in range(k)):
        raise ValueError(f"at n = {n}, twice the bound {bound} reaches the product of the plane primes")
    return k


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
    tab = _sqrt_table(n)
    table, g = tab["table"], tab["g"]
    p, q = _theorem1_exponents(r.a, r.c, r.d, n)
    arr = table.take(p, axis=0)
    arr -= table.take(q, axis=0)
    if g > 1:
        arr //= g
    return RepMatrix._unit_image(n, arr, tab["den"] // g)


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
    and one product, a _gather_run of two: both factors are gathered
    straight into evaluation planes, and their product, D^2 rho(r), takes
    _sqrt_table's "closed_primes", sized by _chain_bound(n, 2): one prime
    for every n <= 272, as for each run of the word oracle.  The
    paper's other closed forms live in identities, checked against the word
    oracle; none is a route of this function.
    """
    r = _as_residue(r, n)
    if gcd(r.c, r.N) == 1:
        return _theorem1_gather(r, n)
    return _gather_run(_closed_run(r, n), n)


def _closed_run(r, n):
    """rho_closed's run of two for r off the theorem1 stratum: [W, (0, -1; 1, -k)] with W = r T^k S."""
    k, w = _unit_shift(r, n)
    return [w, ResidueMatrix(w.N, 0, -1, 1, -k)]


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
