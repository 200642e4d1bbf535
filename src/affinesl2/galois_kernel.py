"""Galois symmetries of rho, kernel enumeration, factor kernels, image order, genus."""

from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from math import gcd

import numpy as np

from .cyclotomic import jacobi
from .modgroup import (
    ResidueMatrix,
    STWord,
    complete_row,
    enumerate_group,
    idempotents,
    sl2_order,
    unimodular_rows,
)
from .wzwrep import (
    RepMatrix,
    _float_S,
    _float_T_diag,
    _as_residue,
    _rho_float_coprime,
    _unit_shift,
    conductor,
    evaluate_word,
    rho_S,
    rho_closed,
    rho_float,
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

# r is a kernel candidate when max|rho_float(r) - Id| falls below this cut
FLOAT_CUT = 1e-6
# the enumeration refuses to trust the cut once a deviation lands in this band:
# accepted deviations are rounding error, rejected ones are of order one
MARGIN_BAND = (1e-9, 1e-3)


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
        assert isinstance(m, RepMatrix) and m.dim == self.n - 1
        entries = []
        for a in range(1, self.n):
            src = self.perm[a - 1] - 1
            s = self.symbol * self.signs[a - 1]
            entries.append([m.entry(src, b) * s for b in range(m.dim)])
        return RepMatrix.from_entries(self.n, entries)

    def __str__(self):
        cycles = ", ".join(f"{a}->{p}" for a, p in enumerate(self.perm, start=1))
        signs = "".join("+" if s == 1 else "-" for s in self.signs)
        return f"({cycles}) signs {signs} symbol {self.symbol:+d}"


def sigma_on_matrix(L, m):
    """Apply the Galois automorphism zeta -> zeta^L to every entry of m."""
    if not isinstance(m, RepMatrix):
        raise TypeError(f"sigma_on_matrix needs a RepMatrix, got {type(m).__name__}")
    if gcd(L, m.order) != 1:
        raise ValueError(f"L = {L} is not coprime to {m.order}")
    return m.galois_map(L)


def sigma_perm(d, n):
    """The signed permutation carrying sigma_d across the rows of rho(S)."""
    if d <= 0 or gcd(d, 2 * n) != 1:
        raise ValueError(f"sigma_perm needs d > 0 with gcd(d, 2n) = 1, got d = {d}, n = {n}")
    perm, signs = [], []
    for a in range(1, n):
        u = a * d % (2 * n)
        assert u != 0 and u != n
        if u < n:
            perm.append(u)
            signs.append(1)
        else:
            perm.append(2 * n - u)
            signs.append(-1)
    return SignedPermutation(n, perm, signs, jacobi(-2 * n, d))


def sigma_covariance_check(L, r, n):
    """Check sigma_L(rho(R)) = rho of R with B scaled by L and C by L^{-1}."""
    N = conductor(n)
    r = _as_residue(r, n)
    if gcd(L, N) != 1:
        raise ValueError(f"L = {L} is not coprime to N = {N}")
    Linv = pow(L, -1, N)
    twisted = ResidueMatrix(N, r.a, r.b * L, r.c * Linv, r.d)
    return sigma_on_matrix(L, rho_closed(r, n)) == rho_closed(twisted, n)


def bantay_sigma_S_identity(C, n):
    """Check sigma_{C^{-1}}(S) = T^{C^{-1}} S T^C S T^{C^{-1}} exactly."""
    N = conductor(n)
    if gcd(C, N) != 1:
        raise ValueError(f"C = {C} is not coprime to N = {N}")
    L = pow(C % N, -1, N)
    word = STWord.T(L) * STWord.S() * STWord.T(C % N) * STWord.S() * STWord.T(L)
    return rho_S(n).galois_map(L) == evaluate_word(word, n)


def in_kernel(r, n):
    """True when rho(r) is the identity: float filter, then exact confirmation."""
    r = _as_residue(r, n)
    dev = np.max(np.abs(rho_float(r, n) - np.eye(n - 1)))
    if dev >= FLOAT_CUT:
        return False
    return rho_closed(r, n).is_identity()


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

    accepted_dev is the largest float deviation max|rho_float(r) - Id| among
    the exactly confirmed kernel elements, rejected_dev the smallest among
    the elements the float filter rejected: the observed margin around
    FLOAT_CUT.  They stay out of to_text().
    """

    def __init__(self, n, kernel, accepted_dev, rejected_dev):
        self.n = n
        self.accepted_dev = accepted_dev
        self.rejected_dev = rejected_dev
        self.N = conductor(n)
        self.kernel = sorted(kernel, key=lambda r: r.key())
        order = sl2_order(self.N)
        assert order % len(self.kernel) == 0
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
            f"coprime_obstruction {'pass' if all(gcd(r.c, 2 * self.n) != 1 for r in self.kernel) else 'fail'}",
        ]
        for r in self.kernel:
            lines.append(f"kernel_element {r}")
        for r in self.extras():
            lines.append(f"outside_unit_d_slice {r}")
        return "\n".join(lines)


def _sweep_rows(args):
    """Float-filter kernel candidates over a chunk of bottom rows (c, d).

    The N elements of a row are r_t = T^t r_0, t < N, for the completion
    r_0 = (a0, b0, c, d).  All of them shift by the same k (see _unit_shift)
    to W_t = T^t W_0, which differ only in the top-left entry
    A = W_0.a + t W_0.c, so one _rho_float_coprime call over the N values of
    A gives the row's (N, n-1, n-1) block of float matrices.  r_t is a
    candidate when rho(W_t) lies within FLOAT_CUT of rho(T)^k rho(S).
    Returns the candidates' key tuples, in row order then t order, with the
    largest deviation among them and the smallest among the rest.
    """
    n, rows = args
    N = conductor(n)
    s = _float_S(n)
    t = np.arange(N)
    hits = []
    accepted, rejected = 0.0, np.inf
    for c, d in rows:
        a0, b0 = complete_row(N, c, d)
        k, w = _unit_shift(ResidueMatrix(N, a0, b0, c, d), n)
        target = _float_T_diag(n, k)[:, np.newaxis] * s
        fw = _rho_float_coprime((w.a + t * w.c) % N, w.c, w.d, n)
        dev = np.abs(fw - target).max(axis=(1, 2))
        hit = dev < FLOAT_CUT
        accepted = max(accepted, dev.max(initial=0.0, where=hit))
        rejected = min(rejected, dev.min(initial=np.inf, where=~hit))
        for i in np.flatnonzero(hit).tolist():
            hits.append(((a0 + i * c) % N, (b0 + i * d) % N, c, d))
    return hits, float(accepted), float(rejected)


def _confirmed(n, hits, accepted, rejected):
    """Check the float filter's margin, then confirm each candidate key exactly.

    Raises RuntimeError when a deviation lies inside MARGIN_BAND or a
    candidate is not exactly in the kernel; returns the candidates as
    ResidueMatrix values, in order.
    """
    lo, hi = MARGIN_BAND
    if accepted >= lo or rejected <= hi:
        raise RuntimeError(
            f"float filter margin closed at n = {n}: accepted deviations reach {accepted:.3g}, "
            f"rejected ones start at {rejected:.3g}, and none may lie in [{lo:g}, {hi:g}]"
        )
    N = conductor(n)
    kernel = []
    for key in hits:
        r = ResidueMatrix(N, *key)
        if not rho_closed(r, n).is_identity():
            raise RuntimeError(f"float candidate {r} at n = {n} fails exact confirmation")
        kernel.append(r)
    return kernel


def enumerate_kernel(n, bound=64, workers=1):
    """Enumerate Ker rho by a float sweep over SL2(Z/NZ) plus exact confirmation.

    Raises ValueError when N exceeds bound, and RuntimeError when the float
    filter's margin closes: a deviation inside MARGIN_BAND, or a candidate
    that exact evaluation does not confirm.
    """
    N = conductor(n)
    if N > bound:
        raise ValueError(f"enumeration bound exceeded: N = {N} > {bound}")
    rows = list(unimodular_rows(N))
    if workers > 1:
        step = (len(rows) + 4 * workers - 1) // (4 * workers)
        chunks = [(n, rows[i : i + step]) for i in range(0, len(rows), step)]
        hits, accepted, rejected = [], 0.0, np.inf
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part, acc, rej in pool.map(_sweep_rows, chunks):
                hits.extend(part)
                accepted, rejected = max(accepted, acc), min(rejected, rej)
        hits.sort()
    else:
        hits, accepted, rejected = _sweep_rows((n, rows))
    kernel = _confirmed(n, hits, accepted, rejected)
    assert kernel, "kernel must contain the identity"
    return KernelReport(n, kernel, accepted, rejected)


def factor_kernel_sl2z8(n):
    """Kernel classes of rho restricted to the mod-8 factor, in SL2(Z/8Z)/{+-1}.

    An element of SL2(Z/8Z) embeds by CRT as itself mod 8 and the identity
    mod N/8.  One _sweep_rows pass over the 48 embedded bottom rows filters
    every element with such a row; the hits whose top row is (1, 0) mod N/8
    are the embedded ones, and they get the margin guard and exact
    confirmation of enumerate_kernel.
    """
    if n % 4 != 3:
        raise ValueError(f"the mod-8 factor kernel needs n = 3 mod 4, got n = {n}")
    N = conductor(n)
    e, rest = idempotents(N)[8], N // 8
    rows = sorted((c * e % N, (d * e + 1 - e) % N) for c, d in unimodular_rows(8))
    hits, accepted, rejected = _sweep_rows((n, rows))
    embedded = [key for key in hits if (key[0] % rest, key[1] % rest) == (1, 0)]
    kernel = _confirmed(n, embedded, accepted, rejected)
    classes = {ResidueMatrix(8, r.a, r.b, r.c, r.d).canonical_up_to_sign() for r in kernel}
    return sorted(classes, key=lambda r: r.key())


def image_order(n, bound=64, workers=1):
    """Order of the image of rho, as group order over kernel size."""
    return enumerate_kernel(n, bound=bound, workers=workers).image_order


def _is_prime(p):
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def genus(p):
    """Genus of the curve carrying the level p - 2 character vector, p prime, p = 3 mod 4."""
    if not (_is_prime(p) and p >= 7 and p % 4 == 3):
        raise ValueError(f"{p} is not a prime p >= 7 with p = 3 mod 4")
    g = 1 + Fraction(12 * p * (p * p - 1)) * (Fraction(1, 6) - Fraction(1, 8 * p))
    assert g.denominator == 1
    alt = (4 * p**3 - 3 * p * p - 4 * p + 5) // 2
    assert g == alt, "the two closed genus forms disagree"
    assert alt == (p * p - 1) * (4 * p - 3) // 2 + 1
    return int(g)


def phi2_image_is_normal(n, bound=40):
    """Check the kernel's projection to each CRT factor is a normal subgroup."""
    N = conductor(n)
    facs = sorted(idempotents(N))
    assert len(facs) >= 2
    kernel = enumerate_kernel(n).kernel
    for q in facs:
        assert q <= bound, f"factor enumeration bound exceeded: {q} > {bound}"
        proj = {ResidueMatrix(q, r.a, r.b, r.c, r.d).key() for r in kernel}
        for g in enumerate_group(q):
            ginv = g.inverse()
            for key in proj:
                k = ResidueMatrix(q, *key)
                if (g * k * ginv).key() not in proj:
                    return False
    return True
