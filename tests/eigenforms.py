"""The eta forms, their Hecke images and eigenform decompositions, kept as a test oracle.

No command computes with a form's weight, level or character, with a
Hecke operator or with the a_2(ell^i) recursion (``find_w`` is a closed
form), so they live here:

* ``FormExpansion`` and ``eta_form``: the eta power of ``forms`` with
  its weight d/2, level (24/gcd(d, 24))^2 and character;
* ``hecke_apply_prime``, the prime-index collapse, and the double-sum
  ``hecke_apply`` it is tested against;
* the two-term recursion for a_2(ell^i) mod ell^v, seeded from
  ``eta_form(2, .)``, and ``find_w_by_search``, which walks it;
* the eigenform decompositions of the composite eta powers.

Character evaluation: each form carries the numerator of a Kronecker
symbol (or None for the principal character; eta powers read theirs from
``oracles.eta_character_numerator``) together with its level; values are
taken as a Dirichlet character modulo the level, i.e. zero whenever the
argument shares a factor with the level.  Evaluating the bare Kronecker
symbol instead would break the eigenform relations at the primes
dividing the level (for the weight-1 form the relation at n = ell = 2
forces chi(2) = 0, while the bare symbol gives (-1/2) = 1).

The lacunary eta powers eta(12z)^d for d in {10, 14, 26} are not Hecke
eigenforms themselves; each is a combination of eigenforms built from
Eisenstein series and smaller eta powers, some of them with
coefficients in Q(sqrt(-3)) (J.-P. Serre, "Sur la lacunarité des
puissances de eta", Glasgow Math. J. 27 (1985)).  Criterion 7 and
``test_forms`` check those decompositions and the eigenform relations of
d in {2, 4, 6, 8}, with the ring Q(sqrt(-3)), Eisenstein series and the
normalized-eigenform scan below.
"""

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, NamedTuple

from congruence_workbench.arith import PreconditionError, as_rational, format_rational, is_prime
from congruence_workbench.forms import EtaPowerSpec, eta_power
from congruence_workbench.qseries import Series

from oracles import combine, eta_character_numerator, kronecker_symbol, primes_below


class FormExpansion(NamedTuple):
    """A q-expansion tagged with weight, level, and character metadata.

    weight is d/2 for the d-th eta power (an int when whole, a rational
    when half-integral); the level is descriptive and only enters through
    character evaluation.
    """

    series: Series
    weight: object
    level: int
    character_numerator: int | None = None

    def character_value(self, m: int) -> int:
        if m < 1:
            raise PreconditionError("character argument must be >= 1")
        if gcd(m, self.level) > 1:
            return 0
        if self.character_numerator is None:
            return 1
        return kronecker_symbol(self.character_numerator, m)

    def integer_weight(self) -> int:
        k = self.weight
        if isinstance(k, int):
            if k < 1:
                raise PreconditionError("weight must be a positive integer")
            return k
        if isinstance(k, Fraction) and k.denominator == 1 and k.numerator >= 1:
            return k.numerator
        raise PreconditionError(f"weight {k} is not a positive integer")


def eta_form(d: int, prec: int) -> FormExpansion:
    """Eta power packaged with weight d/2, level (24/gcd(d,24))^2, and its character."""
    spec = EtaPowerSpec.for_power(d)
    weight = d // 2 if d % 2 == 0 else Fraction(d, 2)
    return FormExpansion(
        series=eta_power(d, prec),
        weight=weight,
        level=spec.M * spec.M,
        character_numerator=eta_character_numerator(d),
    )


def hecke_apply_prime(f: FormExpansion, ell: int) -> Series:
    """Prime-index collapse: a(ell*n) + chi(ell) * ell^(k-1) * a(n/ell)."""
    if not is_prime(ell):
        raise PreconditionError(f"{ell} is not prime")
    k = f.integer_weight()
    a = f.series.coeff
    chi = f.character_value(ell)
    out_prec = f.series.prec // ell
    out = []
    for n in range(out_prec):
        val = a(ell * n)
        if chi != 0 and n % ell == 0:
            val = val + chi * ell ** (k - 1) * a(n // ell)
        out.append(val)
    return Series(out)


def a2_prime_power_iter(ell: int, v: int) -> Iterator[int]:
    """Residues a_2(ell^i) mod ell^v for i = 0, 1, 2, ... (never ends).

    Seeds a_2(1) = 1 and reads a_2(ell) and chi(ell) off ``eta_form(2,
    ell + 1)``, then iterates the Hecke two-term recursion
    a_2(ell^(i+1)) = a_2(ell)a_2(ell^i) - chi(ell) a_2(ell^(i-1)) in
    residue arithmetic.  For primes in the 1 mod 12 class the character
    value is 1 and this is the textbook recursion; for 2 and 3, which
    divide the level 144, the character term vanishes.
    """
    if not is_prime(ell):
        raise PreconditionError(f"{ell} is not prime")
    if v < 1:
        raise PreconditionError("a2_prime_power_iter requires v >= 1")
    mod = ell**v
    form = eta_form(2, ell + 1)
    a1 = form.series.coeff(ell) % mod
    chi = form.character_value(ell)
    prev, cur = 1 % mod, a1
    yield prev
    while True:
        yield cur
        prev, cur = cur, (a1 * cur - chi * prev) % mod


def a2_prime_power_sequence(ell: int, v: int, i_max: int) -> list[int]:
    """Residues a_2(ell^i) mod ell^v for i = 0..i_max."""
    if i_max < 0:
        raise PreconditionError("i_max must be >= 0")
    it = a2_prime_power_iter(ell, v)
    return [next(it) for _ in range(i_max + 1)]

def find_w_by_search(ell: int, v: int) -> int:
    """Smallest w >= 1 with a_2(ell^w) == 0 (mod ell^v), by walking the recursion.

    The two-term Hecke recursion on (a_2(ell^i), a_2(ell^(i+1))) mod ell^v,
    seeded from the eta-square expansion, is purely periodic, so some index
    below ell^(2v) hits zero; O(ell^v) steps when ell == 1 (mod 12).
    """
    bound = ell ** (2 * v)
    it = a2_prime_power_iter(ell, v)
    next(it)  # a_2(1)
    for w in range(1, bound + 1):
        if next(it) == 0:
            return w
    raise AssertionError(f"no zero of a_2({ell}^w) mod {ell}^{v} below the period bound {bound}")


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
            return combine((Fraction(1) / c, f))
    return f


def _sub12(f: Series, prec: int) -> Series:
    """f(q^12) to precision prec; f has ceil(prec / 12) coefficients."""
    out = [0] * prec
    out[::12] = f.coeffs
    return Series(out)


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
        return [combine((1, base), (s, eta10)) for s in (48, -48)]
    if d == 14:
        base = _sub12(eisenstein_series(6, e_prec), prec) * eta2
        eta14 = eta_power(14, prec)
        return [combine((1, base), (QuadRational(0, s), eta14)) for s in (360, -360)]
    e6_12 = _sub12(eisenstein_series(6, e_prec), prec)
    base = e6_12 * e6_12 * eta2
    eta26 = eta_power(26, prec)
    e6_eta14 = e6_12 * eta_power(14, prec)
    e8_eta10 = _sub12(eisenstein_series(8, e_prec), prec) * eta_power(10, prec)
    swing = QuadRational(0, 102960)
    return [
        combine((1, base), (9398592, eta26), (swing, e6_eta14)),
        combine((1, base), (9398592, eta26), (-swing, e6_eta14)),
        combine((1, base), (-6910272, eta26), (20592, e8_eta10)),
        combine((1, base), (-6910272, eta26), (-20592, e8_eta10)),
    ]
