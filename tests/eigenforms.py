"""Eigenform decompositions of the composite eta powers, kept as a test oracle.

The lacunary eta powers eta(12z)^d for d in {10, 14, 26} are not Hecke
eigenforms themselves; each is a combination of eigenforms built from
Eisenstein series and smaller eta powers, some of them with
coefficients in Q(sqrt(-3)) (J.-P. Serre, "Sur la lacunarité des
puissances de eta", Glasgow Math. J. 27 (1985)).  Criterion 7 and
``test_forms`` check those decompositions and the eigenform relations of
d in {2, 4, 6, 8}.  No command computes with them, so they live here:
the ring Q(sqrt(-3)), Eisenstein series, the double-sum Hecke operator
(the reference ``forms.hecke_apply_prime`` is tested against) and the
normalized-eigenform scan.
"""

from fractions import Fraction
from math import gcd, isqrt

from congruence_workbench.arith import PreconditionError, as_rational, format_rational
from congruence_workbench.forms import FormExpansion, eta_power
from congruence_workbench.qseries import Series, substitute_power

from oracles import primes_below


class QuadRational:
    """Immutable element re + im*sqrt(-3) with exact rational components.

    The norm re^2 + 3*im^2 is multiplicative, which is what the tests
    lean on.  Division is exact: x^-1 = conj(x) / norm(x).
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        object.__setattr__(self, "re", as_rational(re))
        object.__setattr__(self, "im", as_rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("QuadRational is immutable")

    def __delattr__(self, name):
        raise AttributeError("QuadRational is immutable")

    def _coerce(self, other):
        if isinstance(other, QuadRational):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadRational(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return QuadRational(-self.re, -self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadRational(
            self.re * o.re - 3 * self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadRational":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("QuadRational zero has no inverse")
        return QuadRational(self.re / n, -self.im / n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other):
        if isinstance(other, QuadRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def norm(self):
        return self.re * self.re + 3 * self.im * self.im

    def __repr__(self):
        return f"QuadRational({self.re}, {self.im})"

    def __str__(self):
        return f"{format_rational(self.re)}+{format_rational(self.im)}*sqrt(-3)"


class NotNormalizedError(PreconditionError):
    """Eigenform scan called on a form whose coefficient at q is neither 0 nor 1."""


def _divisors(n: int) -> list[int]:
    out = []
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
    return sorted(out)


def divisor_sigma(j: int, n: int) -> int:
    """Sum of j-th powers of the positive divisors of n."""
    if n < 1:
        raise PreconditionError("divisor_sigma requires n >= 1")
    return sum(d**j for d in _divisors(n))


def eisenstein_series(k: int, prec: int) -> Series:
    """E_4, E_6, or E_8 = E_4^2 (weight 8, level 1, one-dimensional space)."""
    if k == 4:
        return Series([1] + [240 * divisor_sigma(3, n) for n in range(1, prec)])
    if k == 6:
        return Series([1] + [-504 * divisor_sigma(5, n) for n in range(1, prec)])
    if k == 8:
        e4 = eisenstein_series(4, prec)
        return e4 * e4
    raise PreconditionError(f"eisenstein_series supports k in {{4, 6, 8}}, got {k}")


def hecke_apply(f: FormExpansion, m: int) -> Series:
    """Apply the m-th Hecke operator (double-sum formula).

    Output coefficient at n is sum over delta | gcd(m, n) of
    chi(delta) * delta^(k-1) * a(m*n / delta^2); result precision is
    floor(prec / m).
    """
    if m < 1:
        raise PreconditionError("hecke_apply requires m >= 1")
    k = f.integer_weight()
    a = f.series.coeff
    out_prec = f.series.prec // m
    out = []
    for n in range(out_prec):
        acc = 0
        for delta in _divisors(gcd(m, n) if n else m):
            chi = f.character_value(delta)
            if chi == 0:
                continue
            acc = acc + chi * delta ** (k - 1) * a(m * n // (delta * delta))
        out.append(acc)
    return Series(out)


def eigenform_violations(f: FormExpansion, prec: int | None = None) -> list[tuple[int, int]]:
    """All (n, ell) with n*ell < prec violating a(n)a(ell) = a(n*ell) + chi(ell)ell^(k-1)a(n/ell).

    Empty iff the expansion looks like a normalized Hecke eigenform up to
    the scan bound.  A form with a(1) = 0 is scanned as-is (the n = 1 rows
    expose the failure); any other a(1) != 1 raises NotNormalizedError.
    """
    scan = f.series.prec if prec is None else min(prec, f.series.prec)
    k = f.integer_weight()
    a = f.series.coeff
    if scan > 1 and a(1) not in (0, 1):
        raise NotNormalizedError(f"a(1) = {a(1)}; normalize the form first")
    violations = []
    for ell in primes_below(scan):
        chi = f.character_value(ell)
        a_ell = a(ell)
        factor = chi * ell ** (k - 1)
        for n in range(1, (scan - 1) // ell + 1):
            rhs = a(n * ell)
            if factor != 0 and n % ell == 0:
                rhs = rhs + factor * a(n // ell)
            if a(n) * a_ell != rhs:
                violations.append((n, ell))
    return violations


def normalize_leading(f: Series) -> Series:
    """Divide by the first nonzero coefficient."""
    for c in f.coeffs:
        if c != 0:
            return f.scale(Fraction(1) / c)
    return f


def _sub12(f: Series, prec: int) -> Series:
    return substitute_power(f, 12).truncate(prec)


def serre_components(d: int, prec: int) -> list[Series]:
    """The bracketed eigenform combinations for the composite eta powers.

    d = 10: two combinations E4(12t)*eta(12t)^2 +- 48*eta(12t)^10 over the
    rationals; d = 14: two combinations with 360*sqrt(-3)*eta(12t)^14;
    d = 26: four combinations mixing eta^26, E6*eta^14, and E8*eta^10.
    Raw combinations are returned; use normalize_leading for a(1) = 1.
    """
    if d not in (10, 14, 26):
        raise PreconditionError(f"serre_components supports d in {{10, 14, 26}}, got {d}")
    e_prec = (prec + 11) // 12
    eta2 = eta_power(2, prec)
    if d == 10:
        base = _sub12(eisenstein_series(4, e_prec), prec) * eta2
        eta10 = eta_power(10, prec)
        return [base + eta10.scale(48), base - eta10.scale(48)]
    if d == 14:
        base = _sub12(eisenstein_series(6, e_prec), prec) * eta2
        swing = eta_power(14, prec).scale(QuadRational(0, 360))
        return [base + swing, base - swing]
    e6_12 = _sub12(eisenstein_series(6, e_prec), prec)
    base = e6_12 * e6_12 * eta2
    eta26 = eta_power(26, prec)
    plus = eta26.scale(9398592)
    minus = eta26.scale(6910272)
    swing_a = (e6_12 * eta_power(14, prec)).scale(QuadRational(0, 102960))
    swing_b = (_sub12(eisenstein_series(8, e_prec), prec) * eta_power(10, prec)).scale(20592)
    return [
        base + plus + swing_a,
        base + plus - swing_a,
        base - minus + swing_b,
        base - minus - swing_b,
    ]
