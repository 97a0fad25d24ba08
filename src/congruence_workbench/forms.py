"""Eta powers, their Hecke images at a prime, and the a_2(ell^i) recursion.

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
bare Kronecker symbol instead would break the eigenform relations at the
primes dividing the level (for the weight-1 form the relation at
n = ell = 2 forces chi(2) = 0, while the bare symbol gives (-1/2) = 1).

The eigenform decompositions of d in {10, 14, 26} run in no command; they
are a test oracle, ``tests/eigenforms.py``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, NamedTuple

from .arith import (
    PreconditionError,
    eta_character_numerator,
    is_prime,
    kronecker_symbol,
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
    "a2_prime_power_iter",
    "a2_prime_power_sequence",
    "eta_form",
    "eta_power",
    "hecke_apply_prime",
]


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
