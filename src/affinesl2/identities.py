"""The paper's other closed forms of rho and its sums, kept as identities checked against the word oracle.

rho_closed evaluates every matrix by one route; nothing in the library calls
these forms.  The tests check each against the S,T-word oracle or a direct
sum on its stratum: the Gauss sums and their closed form, the sine-weighted
triple sum and its branches, the completed-square and Legendre-symbol forms
for gcd(c, 2n) = 1, the unit-d triple-sum form and the upper-triangular form.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .cyclotomic import jacobi, one, root_of_unity, sqrt_int, zero
from .wzwrep import MAX_LEVELS, RepMatrix, _as_residue, _legendre_g, _signed_fold, conductor

__all__ = [
    "gauss_sum",
    "gauss_sum_closed",
    "kernel_sum",
    "kernel_sum_closed",
    "rho_coprime_closed",
    "rho_coprime_legendre",
    "rho_unit_d_closed",
    "rho_upper_triangular",
    "sin_value",
]

# Value caches keep every sine (2n of them) and Gauss sum (moduli n, 2n and 4n:
# 7n of them) of MAX_LEVELS levels up to n = 32.
MAX_VALUES = 9 * 32 * MAX_LEVELS


def sin_value(n, m):
    """sin(pi m / n) as a Cyclotomic of order 8n, for any integer m."""
    return _sin_value(n, m % (2 * n))


@lru_cache(maxsize=MAX_VALUES)
def _sin_value(n, m):
    M = 8 * n
    # sin x = (e^{ix} - e^{-ix}) / 2i and 1/i = zeta_M^{-2n}
    return (root_of_unity(M, 4 * m) - root_of_unity(M, -4 * m)) * root_of_unity(M, 6 * n) / 2


def gauss_sum(C, N):
    """Quadratic Gauss sum over Z/NZ: sum of e(C b^2 / N), as a Cyclotomic of order N."""
    if not isinstance(N, int) or N < 1:
        raise ValueError(f"gauss_sum needs an integer modulus N >= 1, got {N!r}")
    return _gauss_sum(C % N, N)


@lru_cache(maxsize=MAX_VALUES)
def _gauss_sum(C, N):
    val = zero(N)
    for b in range(N):
        val = val + root_of_unity(N, C * b * b)
    return val


def gauss_sum_closed(c, n):
    """Closed form 2 (1 + i^{nc}) (c|n) sqrt(n)-unit for the Gauss sum mod 4n, n odd."""
    if n % 2 == 0 or gcd(c, 2 * n) != 1:
        raise ValueError(f"gauss_sum_closed needs odd n and gcd(c, 2n) = 1, got c = {c}, n = {n}")
    M = 4 * n
    i_pow = root_of_unity(M, n * (n * c % 4))
    # S(1, n) is sqrt(n) for n = 1 mod 4 and i sqrt(n) for n = 3 mod 4
    base = sqrt_int(n, M)
    if n % 4 == 3:
        base = base * root_of_unity(M, n)
    return (one(M) + i_pow) * base * (2 * jacobi(c, n))


def kernel_sum(alpha, gamma, C, n):
    """Triple sum of sin(pi a b/n) sin(pi b g/n) e(C b^2/4n) over b = 1..n-1, directly."""
    if not (1 <= alpha <= n - 1 and 1 <= gamma <= n - 1):
        raise ValueError(f"kernel_sum needs 1 <= alpha, gamma <= {n - 1}, got {alpha}, {gamma}")
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


def _zeta8(n, e):
    """zeta_8^e inside Q(zeta_{8n})."""
    return root_of_unity(8 * n, n * (e % 8))


def rho_coprime_closed(r, n):
    """rho on gcd(C, 2n) = 1 matrices via the completed-square Gauss sum form."""
    r = _as_residue(r, n)
    A, C, D = r.a, r.c, r.d
    M = 8 * n
    if gcd(C, 2 * n) != 1:
        raise ValueError(f"rho_coprime_closed needs gcd(c, 2n) = 1, got {r} at n = {n}")
    Cinv = pow(C % M, -1, M)
    U = (A + 1) * Cinv % M
    V = (D + 1) * Cinv % M
    pref = _zeta8(n, 2 - C - U - V) * gauss_sum(C, 4 * n).promoted(M) / (2 * n)
    return _coprime_entries(pref, A, Cinv, D, n)


def _coprime_entries(pref, A, Cinv, D, n):
    """The matrix with entry (a, l) = pref sin(pi Cinv a l / n) zeta_8n^(2 Cinv (A a^2 + D l^2))."""
    M = 8 * n
    entries = []
    for a in range(1, n):
        row = []
        for l in range(1, n):
            val = pref * sin_value(n, Cinv * a * l)
            val = val * root_of_unity(M, 2 * Cinv * (A * a * a + D * l * l))
            row.append(val)
        entries.append(row)
    return RepMatrix.from_entries(n, entries)


def rho_coprime_legendre(r, n):
    """rho on gcd(C, 2n) = 1 matrices for odd n, via the Legendre symbol form."""
    r = _as_residue(r, n)
    A, C, D = r.a, r.c, r.d
    M = 8 * n
    if n % 2 == 0 or gcd(C, 2 * n) != 1:
        raise ValueError(f"rho_coprime_legendre needs odd n and gcd(c, 2n) = 1, got {r} at n = {n}")
    Cinv = pow(C, -1, M)
    g = _legendre_g(C, n)
    pref = sqrt_int(2 * n, M) * _zeta8(n, g - (A + D + 3) * C) * Fraction(jacobi(C, n), n)
    return _coprime_entries(pref, A, Cinv, D, n)


def rho_unit_d_closed(r, n):
    """rho on gcd(D, 2n) = 1 matrices via the closed triple-sum branches."""
    r = _as_residue(r, n)
    A, B, C, D = r.a, r.b, r.c, r.d
    M = 8 * n
    if gcd(D, 2 * n) != 1:
        raise ValueError(f"rho_unit_d_closed needs gcd(d, 2n) = 1, got {r} at n = {n}")
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
            if closed is None:
                raise ValueError(f"kernel_sum_closed has no branch for C' = {Cp} at n = {n}: {r}")
            row.append(pref * row_phase * closed[1])
        entries.append(row)
    return RepMatrix.from_entries(n, entries)


def rho_upper_triangular(r, n):
    """rho on C = 0 matrices: a signed permutation times root-of-unity phases."""
    r = _as_residue(r, n)
    N = conductor(n)
    if r.c % N:
        raise ValueError(f"rho_upper_triangular needs c = 0 mod {N}, got {r}")
    A, B = r.a, r.b
    M = 8 * n
    # the phases fix every entry up to one overall sign: the Jacobi symbol (2n|A),
    # checked against the word oracle for every unit A at n = 3..12
    base = _zeta8(n, 2 * (A - 1) - A * B) * jacobi(2 * n, A)
    dim = n - 1
    # A is a unit mod N, so mod 2n
    perm, signs = _signed_fold(A, n)
    entries = [[zero(M) for _ in range(dim)] for _ in range(dim)]
    for a in range(1, n):
        val = base * root_of_unity(M, 2 * A * B * a * a) * signs[a - 1]
        entries[a - 1][perm[a - 1] - 1] = val
    return RepMatrix.from_entries(n, entries)
