"""Galois symmetries of rho, kernel enumeration, factor kernels, image order, genus."""

from math import gcd

import numpy as np

from .cyclotomic import factorize, jacobi
from .modgroup import (
    ResidueMatrix,
    STWord,
    _integer,
    idempotents,
    sl2_order,
    unimodular_rows,
)
from .wzwrep import (
    RepMatrix,
    _as_residue,
    _signed_fold,
    _theorem1_exponents,
    _theorem1_tables,
    _unit_shift,
    conductor,
    evaluate_word,
    rho_S,
    rho_closed,
)

__all__ = [
    "SignedPermutation",
    "KernelReport",
    "sigma_on_matrix",
    "sigma_perm",
    "sigma_covariance_check",
    "bantay_sigma_S_identity",
    "in_kernel",
    "expected_kernel_slice",
    "enumerate_kernel",
    "factor_kernel_sl2z8",
    "image_order",
    "genus",
    "phi2_image_is_normal",
]

# stage 1 of the kernel sweep solves at most this many bottom rows at once: a
# larger block raises the sweep's peak memory for little speed
_CHUNK = 1 << 13


class SignedPermutation:
    """A signed permutation of the index set {1, ..., n-1} with a global sign."""

    def __init__(self, n, perm, signs, symbol=1):
        if sorted(perm) != list(range(1, n)):
            raise ValueError(f"{perm} is not a permutation of 1..{n - 1}")
        if len(signs) != n - 1 or any(s not in (1, -1) for s in signs):
            raise ValueError(f"need {n - 1} signs of +-1, got {signs}")
        if symbol not in (1, -1):
            raise ValueError(f"the symbol must be +-1, got {symbol}")
        self.n = n
        self.perm = tuple(perm)
        self.signs = tuple(signs)
        self.symbol = symbol

    def __eq__(self, other):
        if not isinstance(other, SignedPermutation):
            return NotImplemented
        return (self.n, self.perm, self.signs, self.symbol) == (
            other.n,
            other.perm,
            other.signs,
            other.symbol,
        )

    def __hash__(self):
        return hash((self.n, self.perm, self.signs, self.symbol))

    def applied_to_rows(self, m):
        """Replace row a of m by symbol * sign(a) * (row perm(a)); exact."""
        if not isinstance(m, RepMatrix):
            raise TypeError(f"applied_to_rows needs a RepMatrix, got {type(m).__name__}")
        if m.n != self.n:
            raise ValueError(f"a signed permutation at n = {self.n} cannot act on a matrix at n = {m.n}")
        signs = self.symbol * np.array(self.signs)[:, np.newaxis, np.newaxis]
        # a signed permutation of rows is a unit map, so the result stays normalized
        return RepMatrix._unit_image(self.n, m.arr[np.array(self.perm) - 1] * signs, m.den)

    def __str__(self):
        cycles = ", ".join(f"{a}->{p}" for a, p in enumerate(self.perm, start=1))
        signs = "".join("+" if s == 1 else "-" for s in self.signs)
        return f"({cycles}) signs {signs} symbol {self.symbol:+d}"


def sigma_on_matrix(L, m):
    """Apply the Galois automorphism zeta -> zeta^L to every entry of m."""
    if not isinstance(m, RepMatrix):
        raise TypeError(f"sigma_on_matrix needs a RepMatrix, got {type(m).__name__}")
    return m.galois_map(L)


def sigma_perm(d, n):
    """The signed permutation carrying sigma_d across the rows of rho(S)."""
    conductor(n)
    d = _integer("d", d)
    if d <= 0 or gcd(d, 2 * n) != 1:
        raise ValueError(f"sigma_perm needs d > 0 with gcd(d, 2n) = 1, got d = {d}, n = {n}")
    perm, signs = _signed_fold(d, n)
    return SignedPermutation(n, perm, signs, jacobi(-2 * n, d))


def _twisted(r, L):
    """r with B scaled by L and C by L^-1 mod N, for L a unit mod N: sigma_L(rho(r)) = rho(_twisted(r, L))."""
    return ResidueMatrix(r.N, r.a, r.b * L, r.c * pow(L, -1, r.N), r.d)


def sigma_covariance_check(L, r, n):
    """Check sigma_L(rho(R)) = rho of R with B scaled by L and C by L^{-1}."""
    N = conductor(n)
    r = _as_residue(r, n)
    L = _integer("L", L)
    if gcd(L, N) != 1:
        raise ValueError(f"L = {L} is not coprime to N = {N}")
    return sigma_on_matrix(L, rho_closed(r, n)) == rho_closed(_twisted(r, L), n)


def bantay_sigma_S_identity(C, n):
    """Check sigma_{C^{-1}}(S) = T^{C^{-1}} S T^C S T^{C^{-1}} exactly."""
    N = conductor(n)
    C = _integer("C", C)
    if gcd(C, N) != 1:
        raise ValueError(f"C = {C} is not coprime to N = {N}")
    L = pow(C % N, -1, N)
    word = STWord.T(L) * STWord.S() * STWord.T(C % N) * STWord.S() * STWord.T(L)
    return rho_S(n).galois_map(L) == evaluate_word(word, n)


def in_kernel(r, n):
    """True when rho(r) is exactly the identity: _kernel_mask on r alone, no product."""
    return bool(_kernel_mask([_as_residue(r, n)], n)[0])


def expected_kernel_slice(n):
    """The known list of kernel elements with gcd(d, 2n) = 1; valid for n >= 4.

    The closed-form congruence lists require n > 4 (their derivation forces an
    even quotient in d = nL + d0 only then); n = 4 carries four extra elements
    frozen here from exhaustive enumeration, and n = 3 has no short list at all.
    """
    if n < 4:
        raise ValueError(f"the known kernel list needs n >= 4, got {n}")
    N = conductor(n)
    if n % 2 == 1:
        base = [
            [[1, 0], [0, 1]],
            [[1, 4 * n], [4 * n, 1]],
            [[2 * n + 1, 0], [0, 2 * n + 1]],
            [[2 * n + 1, 4 * n], [4 * n, 2 * n + 1]],
            [[2 * n - 1, 4 * n], [0, 2 * n - 1]],
            [[2 * n - 1, 0], [4 * n, 2 * n - 1]],
            [[4 * n + 1, 0], [4 * n, 4 * n + 1]],
            [[4 * n + 1, 4 * n], [0, 4 * n + 1]],
        ]
    else:
        base = [
            [[1, 0], [0, 1]],
            [[2 * n + 1, 0], [0, 2 * n + 1]],
        ]
        if n == 4:
            # the scalar list holds for even n > 4 only: at n = 4 the kernel
            # gains four off-diagonal square roots of (2n+1)*Id, found by
            # exhaustive word-oracle enumeration
            base += [[[3, 8], [8, 11]], [[5, 8], [8, 13]]]
    out = []
    for m in base:
        r = ResidueMatrix.from_list(N, m)
        out.extend([r, -r])
    return sorted(set(out), key=lambda r: r.key())


class KernelReport:
    """Result of a full kernel enumeration at level n - 2.

    survivors counts the elements that passed stage 1 of the exact sweep
    (entry (1, 1) of rho equal to 1) and went on to stage 2; it stays out
    of to_text().  coprime_obstruction is True when no kernel element has
    gcd(c, 2n) = 1.
    """

    def __init__(self, n, kernel, survivors):
        self.n = n
        self.survivors = survivors
        self.N = conductor(n)
        self.kernel = sorted(kernel, key=lambda r: r.key())
        self.coprime_obstruction = all(gcd(r.c, 2 * n) != 1 for r in self.kernel)
        order = sl2_order(self.N)
        if not self.kernel or order % len(self.kernel):
            raise ValueError(f"a kernel has a size dividing |SL2(Z/{self.N}Z)| = {order}, got {len(self.kernel)}")
        self.image_order = order // len(self.kernel)
        if n >= 4:
            expected = set(expected_kernel_slice(n))
            found = {r for r in self.kernel if gcd(r.d, 2 * n) == 1}
            self.matches_known = found == expected
        else:
            self.matches_known = None

    def extras(self):
        """Kernel elements outside the gcd(d, 2n) = 1 slice."""
        return [r for r in self.kernel if gcd(r.d, 2 * self.n) != 1]

    def to_text(self):
        """Structured text form: counts, flags, and one matrix per line."""
        lines = [
            f"n {self.n} N {self.N}",
            f"group_order {sl2_order(self.N)}",
            f"kernel_size {len(self.kernel)}",
            f"image_order {self.image_order}",
            "matches_known_list "
            + ("not_applicable" if self.matches_known is None else "pass" if self.matches_known else "fail"),
            f"coprime_obstruction {'pass' if self.coprime_obstruction else 'fail'}",
        ]
        for r in self.kernel:
            lines.append(f"kernel_element {r}")
        for r in self.extras():
            lines.append(f"outside_unit_d_slice {r}")
        return "\n".join(lines)


def _same_difference(e, f, g, h, M):
    """Where zeta^e - zeta^f = zeta^g - zeta^h, for zeta = zeta_M, M even; elementwise.

    e, f, g and h are integers or integer arrays in [0, M).  Two roots of
    unity are fixed, up to order, by their sum unless the sum is 0, and the
    equation is zeta^e + zeta^h = zeta^g + zeta^f.  So it holds exactly when
      (e = g and f = h)  or  (e = f and g = h)  or  (e = h + M/2 and g = f + M/2),
    all mod M: the two pairs agree, both sides vanish, or both sums vanish.
    """
    half = M // 2
    return (e == g) & (f == h) | (e == f) & (g == h) | (e == (h + half) % M) & (g == (f + half) % M)


def _least_shifts(c, d, n):
    """The least k >= 0 with ck + d a unit mod N, elementwise over the integer arrays c and d."""
    N = conductor(n)
    unit = _theorem1_tables(n)["inv"] != 0
    k = np.zeros_like(c)
    pending = ~unit[d]
    for shift in range(1, N):
        if not pending.any():
            return k
        found = pending & unit[(c * shift + d) % N]
        k[found] = shift
        pending &= ~found
    raise ValueError(f"a bottom row mod {N} is not unimodular")


def _fibres(n):
    """fibres[y] holds the A in [0, N) with (2 - n) A = y (mod 8n), ascending; -1 fills the rows of unsolvable y.

    A -> (2 - n) A mod 8n is a homomorphism Z/N -> Z/8n (8n divides
    (2 - n) N, as N = 8n for odd n and N = 4n with 2 - n even otherwise),
    so every solvable y has the same number of solutions: a coset of its kernel.
    """
    N, M = conductor(n), 8 * n
    image = (2 - n) * np.arange(N) % M
    order = np.argsort(image, kind="stable")
    width = np.count_nonzero(image == 0)
    fibres = np.full((M, width), -1, dtype=np.int64)
    fibres[image[order[::width]]] = order.reshape(-1, width)
    return fibres


def _sweep_rows(n, rows):
    """Kernel elements among the elements of SL2(Z/NZ) with the given bottom rows (c, d), exactly.

    As in _kernel_mask, r with bottom row (c, d) is in the kernel exactly when
    rho_theorem1(W) = rho_theorem1(T^k S), for W = r T^k S = (A, B; C, D)
    with C = ck + d and D = -c.  Entry (a, b) of either side is
    sqrt(2n)/(2n) (zeta^p - zeta^q), zeta = zeta_8n, with (p, q) from
    _theorem1_exponents, and _same_difference decides each entry from the
    exponents alone.  As r runs over the N elements of the row, A runs
    over every residue mod N, and B = (A D - 1) C^-1 gives back
    r = (-B, A + B k; c, d).

    Stage 1 solves entry (1, 1) for A.  With L = inv[C], s = sign[C] and
    t0 = 2 - n, entry (1, 1) of rho_theorem1(W) has exponents
    e = L (t0 A + t0 D + 6n + 4s) and f = e - 8 L s, and that of T^k S has
    g = k t0 + 6n + 4 and h = g - 8, all mod 8n.  L is a unit mod n (C is
    one mod N, a multiple of n) and s = +-1, so e != f and g != h, and of
    the three clauses of _same_difference only two can hold: e = g with
    f = h, where f = h is 8 L s = 8, so L s = 1 (mod n); or e = h + 4n
    with g = f + 4n, where adding the two gives 8 L s = -8, so
    L s = -1 (mod n), and then e = g - 8 + 4n.  A row with L s != +-1 (mod n)
    has no solution.  Otherwise, with target g or g - 8 + 4n, multiplying
    e = target by C = L^-1 (mod 8n) gives one linear congruence
      t0 A = y (mod 8n),  y = C target - t0 D - 6n - 4s,
    whose solutions A in [0, N) are fibres[y] (_fibres).  Stage 1 takes
    the rows _CHUNK at a time.  Stage 2 tests the 2 x 2 corner of the
    block on the pairs that pass, then the whole block on those that pass
    that.  rows is an int64 array of shape (R, 2).  Returns the key tuples
    of the kernel elements, and the number of pairs that passed stage 1.
    """
    N, M = conductor(n), 8 * n
    t0 = 2 - n
    tab = _theorem1_tables(n)
    inv, sign = tab["inv"], tab["sign"]
    fibres = _fibres(n)
    hits, survivors = [], 0
    for start in range(0, len(rows), _CHUNK):
        c, d = rows[start : start + _CHUNK].T
        k = _least_shifts(c, d, n)
        C, D = (c * k + d) % N, -c % N
        s = sign[C]
        Ls = inv[C] * s % n
        g = k * t0 + 6 * n + 4
        target = np.where(Ls == 1, g, g - 8 + 4 * n)
        y = (C * target - t0 * D - 6 * n - 4 * s) % M
        solutions = np.where(((Ls == 1) | (Ls == n - 1))[:, np.newaxis], fibres[y], -1)
        i, j = np.nonzero(solutions >= 0)
        survivors += len(i)
        A, c, d, k, C, D = solutions[i, j], c[i], d[i], k[i], C[i], D[i]
        for size in (2, None):
            e, f = _theorem1_exponents(A, C, D, n, size)
            g, h = _theorem1_exponents(k, 1, 0, n, size)
            j = np.flatnonzero(_same_difference(e, f, g, h, M).all(axis=(1, 2)))
            A, c, d, k, C, D = A[j], c[j], d[j], k[j], C[j], D[j]
        B = (A * D - 1) * inv[C] % N
        top = np.stack([-B % N, (A + B * k) % N, c, d], axis=1)
        hits.extend(map(tuple, top.tolist()))
    return hits, survivors


def _kernel_mask(rs, n):
    """One bool per ResidueMatrix in rs: whether rho(r) is exactly the identity; no product.

    With k and W = r T^k S from the scalar _unit_shift, r = W S^-1 T^-k, so
    rho(r) = 1 exactly when rho_theorem1(W) = rho_theorem1(T^k S), and W and
    T^k S = (k, -1; 1, 0) both lie in the theorem1 stratum.  Entry (a, b) of
    either side is sqrt(2n)/(2n) (zeta^p - zeta^q), zeta = zeta_8n, with
    (p, q) from _theorem1_exponents, and _same_difference decides each
    entry from the two exponent pairs alone, as in the sweep.
    """
    shifts = [_unit_shift(r, n) for r in rs]
    k = np.array([shift for shift, _ in shifts], dtype=np.int64)
    A, _, C, D = np.array([w.key() for _, w in shifts], dtype=np.int64).reshape(-1, 4).T
    e, f = _theorem1_exponents(A, C, D, n)
    g, h = _theorem1_exponents(k, 1, 0, n)
    return _same_difference(e, f, g, h, 8 * n).all(axis=(1, 2))


def _confirmed(n, hits):
    """Confirm the kernel keys exactly, all in one _kernel_mask pass; RuntimeError for the first that fails.

    _kernel_mask starts again from each key, with the scalar _unit_shift, so
    it checks the stage-1 algebra, _least_shifts and the reconstruction of
    B.  It shares _same_difference with the sweep; the tests check that rule
    against equality in Q(zeta_M), and the mask against a comparison of
    rho_theorem1's coordinates.
    """
    N = conductor(n)
    kernel = [ResidueMatrix(N, *key) for key in hits]
    for r, ok in zip(kernel, _kernel_mask(kernel, n)):
        if not ok:
            raise RuntimeError(f"sweep candidate {r} at n = {n} fails exact confirmation")
    return kernel


def enumerate_kernel(n, bound=None, workers=1):
    """Enumerate Ker rho by an exact exponent sweep over SL2(Z/NZ), every hit confirmed by one _kernel_mask pass; no product.

    The sweep runs in this process at any N: about 0.05 s and 36 MB peak RSS
    at n = 61 (N = 488), 0.1 s and 46 MB at n = 101 (N = 808), 0.1 s and
    47 MB at n = 200 and 2 s and 276 MB at n = 401, on a 2-core Xeon VM;
    at n = 401 the exact confirmation of the 16 hits takes 0.18 s of that,
    and the bottom rows of unimodular_rows(N) most of the memory.
    bound and workers remain only for the benchmark's kernel-sweep ops,
    which call enumerate_kernel(n, bound=64, workers=1); no other caller
    passes them, and both go once those ops stop passing them (ROADMAP
    item 1).  Raises ValueError when N exceeds a given bound or workers is
    not 1, and RuntimeError when a sweep candidate is not confirmed.
    """
    N = conductor(n)
    if bound is not None and N > bound:
        raise ValueError(f"enumeration bound exceeded: N = {N} > {bound}")
    if type(workers) is not int or workers != 1:
        raise ValueError(f"workers must be 1, got {workers!r}")
    hits, survivors = _sweep_rows(n, unimodular_rows(N))
    return KernelReport(n, _confirmed(n, sorted(hits)), survivors)


def factor_kernel_sl2z8(n):
    """Kernel classes of rho restricted to the mod-8 factor, in SL2(Z/8Z)/{+-1}.

    An element of SL2(Z/8Z) embeds by CRT as itself mod 8 and the identity
    mod N/8.  One exact sweep (_sweep_rows) over the 48 embedded bottom rows
    finds every kernel element with such a row; the hits whose top row is
    (1, 0) mod N/8 are the embedded ones, and they are confirmed in one
    _kernel_mask pass (_confirmed), as in enumerate_kernel.
    """
    if n % 4 != 3:
        raise ValueError(f"the mod-8 factor kernel needs n = 3 mod 4, got n = {n}")
    N = conductor(n)
    e, rest = idempotents(N)[8], N // 8
    rows = (unimodular_rows(8) * e + [0, 1 - e]) % N
    hits, _ = _sweep_rows(n, rows)
    embedded = sorted(key for key in hits if (key[0] % rest, key[1] % rest) == (1, 0))
    kernel = _confirmed(n, embedded)
    classes = {ResidueMatrix(8, r.a, r.b, r.c, r.d).canonical_up_to_sign() for r in kernel}
    return sorted(classes, key=lambda r: r.key())


def image_order(n):
    """Order of the image of rho, as group order over kernel size; enumerate_kernel sets no limit on N."""
    return enumerate_kernel(n).image_order


def genus(p):
    """Genus of the curve carrying the level p - 2 character vector, p prime, p = 3 mod 4."""
    if not (isinstance(p, int) and p >= 7 and p % 4 == 3 and factorize(p) == {p: 1}):
        raise ValueError(f"{p} is not a prime p >= 7 with p = 3 mod 4")
    return 1 + (p * p - 1) * (4 * p - 3) // 2


def phi2_image_is_normal(n):
    """Check the kernel's projection H to each CRT factor q of N is normal in SL2(Z/qZ).

    The check closes H under conjugation by S = (0, -1; 1, 0) and
    T = (1, 1; 0, 1) mod q only; that is the full condition g H g^-1 = H for
    every g in SL2(Z/qZ).  The g with g H g^-1 contained in H are closed
    under products.  Conjugation by g is injective, so on the finite set H
    containment is equality, and then g^-1 H g = H too: those g form a
    subgroup.  It holds S and T mod q, and S and T generate SL2(Z), whose
    reduction SL2(Z) -> SL2(Z/qZ) is onto, so it is all of SL2(Z/qZ).
    Raises ValueError when N is a prime power.
    """
    N = conductor(n)
    facs = sorted(idempotents(N))
    if len(facs) < 2:
        raise ValueError(f"N = {N} has one prime factor, so the kernel projects to one factor only")
    kernel = enumerate_kernel(n).kernel
    for q in facs:
        H = {ResidueMatrix(q, r.a, r.b, r.c, r.d) for r in kernel}
        for g in (ResidueMatrix(q, 0, -1, 1, 0), ResidueMatrix(q, 1, 1, 0, 1)):
            ginv = g.inverse()
            if any(g * h * ginv not in H for h in H):
                return False
    return True
