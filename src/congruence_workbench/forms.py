"""Eta powers, Eisenstein series, Hecke operators, and eigenform checks.

The d-th eta power is expanded with rescaled argument so that all
q-exponents are integral: with g = gcd(d, 24), M = 24/g and t = d/g,
the expansion is q^t * (q^M; q^M)_inf^d, whose coefficient at n we call
a_d(n).  It is (q; q)_inf^d spread along q^M: a_d(M*n + t) = p_d(n), the
same numbers the partition claims use for alpha = d, so the power comes
from the one recurrence in ``qseries`` (with b = 1, in plain ints).

Character evaluation: each form carries the numerator of a Kronecker
symbol (or None for the principal character; eta powers read theirs from
``arith.eta_character_numerator``) together with its level;
values are taken as a Dirichlet character modulo the level, i.e. zero
whenever the argument shares a factor with the level.  Evaluating the
bare Kronecker symbol instead would report spurious eigenform failures
at the primes dividing the level (for the weight-1 form the relation at
n = ell = 2 forces chi(2) = 0, while the bare symbol gives (-1/2) = 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, NamedTuple

from .arith import (
    PreconditionError,
    QuadRational,
    eta_character_numerator,
    is_prime,
    kronecker_symbol,
    primes_below,
)
from .qseries import (
    Series,
    euler_product,
    series_pow_int,
    series_shift,
    substitute_power,
)

__all__ = [
    "EtaPowerSpec",
    "FormExpansion",
    "NotNormalizedError",
    "a2_prime_power_iter",
    "a2_prime_power_sequence",
    "divisor_sigma",
    "eigenform_violations",
    "eisenstein_series",
    "eta_form",
    "eta_power",
    "hecke_apply",
    "hecke_apply_prime",
    "normalize_leading",
    "serre_components",
]


class NotNormalizedError(PreconditionError):
    """Eigenform scan called on a form whose coefficient at q is neither 0 nor 1."""


class EtaPowerSpec(NamedTuple):
    """Rescaling data for the d-th eta power: M*d = 24*t."""

    d: int
    M: int
    t: int

    @classmethod
    def for_power(cls, d: int) -> "EtaPowerSpec":
        if d < 1:
            raise PreconditionError(
                "eta powers are expanded for d >= 1 only (d <= 0 would need Laurent tails)"
            )
        g = gcd(d, 24)
        return cls(d, 24 // g, d // g)


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


def eta_power(d: int, prec: int) -> Series:
    """Coefficients a_d(0..prec-1) of the rescaled d-th eta power.

    a_d(M*n + t) = p_d(n), the coefficients of (q; q)_inf^d, and a_d is
    zero off that progression: the power is taken once, by the
    recurrence of ``series_pow_int``, on the unspread product with
    P = ceil((prec - t) / M) terms, then spread along q^M and shifted by t.
    """
    spec = EtaPowerSpec.for_power(d)
    if prec <= spec.t:
        return Series([0] * prec)
    power = series_pow_int(euler_product(1, -(-(prec - spec.t) // spec.M)), d)
    return series_shift(substitute_power(power, spec.M).truncate(prec - spec.t), spec.t)


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
