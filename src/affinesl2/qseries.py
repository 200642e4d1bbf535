"""Truncated q-series with a rational leading exponent: eta powers, characters, identities."""

import cmath
from fractions import Fraction
from math import isqrt, lcm
from .cyclotomic import _integer
from .wzwrep import conductor, rho_S

__all__ = [
    "QSeries",
    "eta_inverse_cubed",
    "sigma1",
    "log_eta_expansion_check",
    "character",
    "verify_k1_identity",
    "verify_t_parametrization",
    "numeric_eval",
    "s_transform_check",
]


def _canonical(c):
    """c as an int when integral, else as a Fraction; ValueError for a float or any other non-rational."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    return _integer("a QSeries coefficient", c)


class QSeries:
    """A truncated series sum of coeffs[j] * q^(offset/den + j).

    The leading exponent offset/den is rational; the coefficients sit at
    integer steps from it.  The retained window is exact: every step from 0
    through truncation has its true coefficient stored (zeros included), and
    nothing is claimed beyond it.  The leading coefficient is nonzero unless
    the series is identically zero, in which case the window is kept as
    bookkeeping.  A product adds the leads and keeps the shorter window; a
    sum needs leads that differ by an integer.
    """

    __slots__ = ("den", "offset", "coeffs")

    def __init__(self, den, offset, coeffs):
        if not isinstance(den, int) or den < 1:
            raise ValueError(f"a QSeries needs an integer denominator >= 1, got {den!r}")
        offset = _integer("a QSeries offset", offset)
        coeffs = [_canonical(c) for c in coeffs]
        if not coeffs:
            raise ValueError("a QSeries needs a nonempty coefficient window")
        lead = 0
        while lead < len(coeffs) and coeffs[lead] == 0:
            lead += 1
        if lead == len(coeffs):
            lead = 0
        self.den = den
        self.offset = offset + lead * den
        self.coeffs = coeffs[lead:]

    @property
    def truncation(self):
        """Highest retained step."""
        return len(self.coeffs) - 1

    def is_zero(self):
        """True when every retained coefficient vanishes."""
        return all(c == 0 for c in self.coeffs)

    def leading_exponent(self):
        return Fraction(self.offset, self.den)

    def end_exponent(self):
        return self.leading_exponent() + self.truncation

    def table(self, count):
        """The first count coefficients, at integer steps from the leading exponent."""
        count = _integer("count", count)
        if count < 0:
            raise ValueError(f"count {count} is negative")
        if count > len(self.coeffs):
            raise ValueError("exponent beyond the reliable window")
        return self.coeffs[:count]

    def __add__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        gap = other.leading_exponent() - self.leading_exponent()
        if gap.denominator != 1:
            raise ValueError("cannot add series whose leading exponents differ by a fraction")
        a, b = (self, other) if gap >= 0 else (other, self)
        gap = abs(int(gap))
        coeffs = a.coeffs[: min(a.truncation, gap + b.truncation) + 1]
        for j in range(gap, len(coeffs)):
            coeffs[j] += b.coeffs[j - gap]
        den = lcm(a.den, b.den)
        return QSeries(den, a.offset * (den // a.den), coeffs)

    def __neg__(self):
        return QSeries(self.den, self.offset, [-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return QSeries(self.den, self.offset, [0] * len(self.coeffs))
            return QSeries(self.den, self.offset, [c * other for c in self.coeffs])
        if not isinstance(other, QSeries):
            return NotImplemented
        rel_end = min(self.truncation, other.truncation)
        coeffs = [0] * (rel_end + 1)
        terms_a = [(j, c) for j, c in enumerate(self.coeffs[: rel_end + 1]) if c != 0]
        terms_b = [(j, c) for j, c in enumerate(other.coeffs[: rel_end + 1]) if c != 0]
        if len(terms_a) > len(terms_b):
            terms_a, terms_b = terms_b, terms_a
        for u, cu in terms_a:
            for v, cv in terms_b:
                if u + v > rel_end:
                    break
                coeffs[u + v] += cu * cv
        den = lcm(self.den, other.den)
        offset = self.offset * (den // self.den) + other.offset * (den // other.den)
        return QSeries(den, offset, coeffs)

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"a QSeries power needs an integer exponent k >= 1, got {k!r}")
        out = self
        for bit in bin(k)[3:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        return (self.den, self.offset, self.coeffs) == (other.den, other.offset, other.coeffs)

    def __str__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = c if not parts else abs(c)
            term = f"{mag} q^{j}" if j else f"{mag}"
            if parts:
                parts.append("+" if (c > 0) else "-")
            parts.append(term)
        body = " ".join(parts) if parts else "0"
        lead = self.leading_exponent()
        if lead == 0:
            return body
        return f"q^({lead}) * ({body})"


def _truncation(value):
    """value as an int truncation order; ValueError for a non-integer or a negative value."""
    truncation = _integer("truncation", value)
    if truncation < 0:
        raise ValueError(f"truncation {truncation} is negative")
    return truncation


def _descending_product_coeffs(truncation):
    """Coefficients of prod_{m>=1} (1 - q^m) through q^truncation."""
    poly = [0] * (truncation + 1)
    poly[0] = 1
    for m in range(1, truncation + 1):
        for j in range(truncation, m - 1, -1):
            poly[j] -= poly[j - m]
    return poly


def eta_inverse_cubed(truncation):
    """The series 1/prod(1-q^m)^3 through q^truncation (no q^(1/8) prefactor).

    Jacobi's identity prod(1-q^m)^3 = sum_k (-1)^k (2k+1) q^(k(k+1)/2) gives
    the product with O(sqrt(truncation)) terms; its inverse follows term by term.
    """
    truncation = _truncation(truncation)
    jacobi = []
    k = 1
    while k * (k + 1) // 2 <= truncation:
        jacobi.append((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    inv = [1] + [0] * truncation
    for t in range(1, truncation + 1):
        acc = 0
        for e, c in jacobi:
            if e > t:
                break
            acc += c * inv[t - e]
        inv[t] = -acc
    return QSeries(1, 0, inv)


def sigma1(m):
    """Sum of the divisors of m >= 1."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"sigma1 needs an integer m >= 1, got {m!r}")
    total = 0
    for d in range(1, isqrt(m) + 1):
        if m % d == 0:
            total += d
            if d != m // d:
                total += m // d
    return total


def log_eta_expansion_check(truncation):
    """Verify -ln prod(1-q^m) = sum sigma1(k) q^k / k termwise through q^truncation."""
    truncation = _integer("truncation", truncation)
    if truncation < 1:
        raise ValueError(f"truncation {truncation} is below 1")
    f = _descending_product_coeffs(truncation)
    # g = -ln f satisfies f g' = -f', solved coefficient by coefficient
    g = [Fraction(0)] * (truncation + 1)
    for k in range(1, truncation + 1):
        acc = Fraction(-k * f[k])
        for j in range(1, k):
            acc -= f[j] * (k - j) * g[k - j]
        g[k] = acc / k
        if g[k] != Fraction(sigma1(k), k):
            return False
    return True


def _theta(lam, n, truncation):
    """The numerator theta_lam of chi_lam, with the eta prefactor q^(-1/8) in its lead.

    theta_lam = sum over x = lam (mod 2n) of x q^(x^2/4n).  The term
    x = lam + 2nm sits m(lam + nm) >= 0 steps past lam^2/4n, so theta is built
    on the step lattice, and q^(-1/8) puts the lead at
    lam^2/4n - 1/8 = (6 lam^2 - 3n)/24n.  It keeps truncation + 1
    coefficients.  The arguments are validated ints: 1 <= lam <= n - 1 and
    truncation >= 0.
    """
    theta = [0] * (truncation + 1)
    # m(lam + nm) >= m^2 unless m = -1, which sits n - lam >= 1 steps in
    r = isqrt(truncation)
    for m in range(-r, r + 1):
        step = m * (lam + n * m)
        if step <= truncation:
            theta[step] += lam + 2 * n * m
    return QSeries(24 * n, 6 * lam * lam - 3 * n, theta)


def character(lam, n, truncation):
    """The level n-2 character with shifted weight lam, exact through truncation steps.

    chi_lam = theta_lam / eta^3: `_theta` times `eta_inverse_cubed`, built
    for this one weight.  The result keeps exactly truncation + 1
    coefficients from its lead (6 lam^2 - 3n)/24n.  `_characters` builds all
    weights of a level from one 1/eta^3.
    """
    lam, n, truncation = _integer("lam", lam), _integer("n", n), _truncation(truncation)
    if not 1 <= lam <= n - 1:
        raise ValueError(f"weight {lam} is not in 1..{n - 1}")
    return _theta(lam, n, truncation) * eta_inverse_cubed(truncation)


def _characters(n, truncation):
    """[character(lam, n, truncation) for lam in 1..n-1], sharing one 1/eta^3 build.

    n and truncation are checked as `character` checks them; below n = 2
    there is no weight, and the ValueError says so.
    """
    n, truncation = _integer("n", n), _truncation(truncation)
    if n < 2:
        raise ValueError(f"level n = {n} has no weight in 1..{n - 1}")
    eta = eta_inverse_cubed(truncation)
    return [_theta(lam, n, truncation) * eta for lam in range(1, n)]


def verify_k1_identity(truncation):
    """Check chi1 chi2 (chi1^4 - chi2^4) = 2 as a series through q^truncation."""
    truncation = _truncation(truncation)
    chi1, chi2 = _characters(3, truncation + 3)
    p = chi1 * chi2 * (chi1**4 - chi2**4)
    if p.end_exponent() < truncation:
        return False
    if p.leading_exponent() != 0 or p.coeffs[0] != 2:
        return False
    return all(c == 0 for c in p.coeffs[1:])


def verify_t_parametrization(truncation):
    """Check t chi1^8 - 2 chi1^4 - t^5 = 0 (t = chi1 chi2) through q^truncation."""
    truncation = _truncation(truncation)
    chi1, chi2 = _characters(3, truncation + 4)
    t = chi1 * chi2
    e = t * chi1**8 - 2 * chi1**4 - t**5
    return e.end_exponent() >= truncation and e.is_zero()


def numeric_eval(s, tau):
    """Evaluate the series at q^(1/D) = e(tau/D); tau in the upper half plane."""
    if not isinstance(s, QSeries):
        raise TypeError(f"numeric_eval needs a QSeries, got {type(s).__name__}")
    tau = complex(tau)
    if not (cmath.isfinite(tau) and tau.imag > 0):
        raise ValueError(f"tau = {tau} is not a finite point of the upper half plane")
    total = 0j
    for j, c in enumerate(s.coeffs):
        if c != 0:
            total += complex(c) * cmath.exp(2j * cmath.pi * tau * (s.offset + j * s.den) / s.den)
    return total


def s_transform_check(n, tau, truncation=400, tol=1e-8):
    """Check chi(-1/tau) = rho(S) chi(tau) numerically for all weights at level n-2.

    The n - 1 characters come from one 1/eta^3 build (`_characters`), and
    each is evaluated once at tau and once at -1/tau: 2(n - 1) evaluations.
    """
    n = _integer("n", n)
    conductor(n)  # ValueError below n = 3, before any character is built
    if not tol > 0:
        raise ValueError(f"tolerance {tol} is not positive")
    tau = complex(tau)
    if not (cmath.isfinite(tau) and tau.imag > 0):
        raise ValueError(f"tau = {tau} is not a finite point of the upper half plane")
    stau = -1 / tau
    chars = _characters(n, truncation)
    at_tau = [numeric_eval(chi, tau) for chi in chars]
    smat = rho_S(n).to_floats()
    worst = 0.0
    for a, chi in enumerate(chars):
        lhs = numeric_eval(chi, stau)
        rhs = sum(smat[a, b] * at_tau[b] for b in range(n - 1))
        worst = max(worst, abs(lhs - rhs))
    return worst < tol
