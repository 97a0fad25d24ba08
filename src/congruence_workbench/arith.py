"""Exact scalar arithmetic.

Rationals are ``fractions.Fraction`` (a plain int embeds into them).
This module adds their text format, l-adic valuations of nonzero
rationals, canonical residues mod prime powers, quadratic-residue
symbols (Legendre / Jacobi / Kronecker) together with the eta-power
character table, and a Miller-Rabin primality test that is exact below
PRIME_TEST_BOUND.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "MAX_POWER_BITS",
    "NotLIntegralError",
    "PRIME_TEST_BOUND",
    "PreconditionError",
    "as_rational",
    "check_power_cap",
    "eta_character_numerator",
    "format_rational",
    "is_prime",
    "kronecker_symbol",
    "legendre_symbol",
    "padic_ord",
    "reduce_mod_prime_power",
]


#: Largest power, in bits, built from outside input (``^`` in expressions,
#: find_w's ell^v, residue moduli, ``--mod L^K``): about 315,000 decimal
#: digits.  Uncapped, ``9^9^9`` alone would need about 3.7*10^8.
MAX_POWER_BITS = 1 << 20


def format_rational(x) -> str:
    """Serialize as ``"<numerator>/<denominator>"``, denominator >= 1."""
    return f"{x.numerator}/{x.denominator}"


def as_rational(value) -> Fraction:
    """An int or Fraction as a Fraction; anything else is a TypeError."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


class PreconditionError(ValueError):
    """An argument violates a documented precondition."""


class NotLIntegralError(PreconditionError):
    """The prime divides a denominator, so the congruence is undefined."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


def check_power_cap(base: int, exponent: int, what: str) -> None:
    """Refuse base^exponent when it would take more than MAX_POWER_BITS bits."""
    if exponent * base.bit_length() > MAX_POWER_BITS:
        raise PreconditionError(f"{what} = {base}^{exponent} exceeds the {MAX_POWER_BITS}-bit cap")


#: psi_13, the least strong pseudoprime to the 13 witnesses 2..41: below
#: it the Miller-Rabin test of :func:`is_prime` is exact (J. Sorenson and
#: J. Webster, Math. Comp. 86 (2017)).  The 12 witnesses 2..37 alone are
#: exact only below psi_12 = 318665857834031151167461, itself a strong
#: pseudoprime to all of them.  The CLI refuses integers from here up.
PRIME_TEST_BOUND = 3317044064679887385961981

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality check, exact below PRIME_TEST_BOUND (about 3.3e24)."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(ell: int, what: str = "modulus"):
    if not is_prime(ell):
        raise PreconditionError(f"{what} {ell} is not prime")


def _int_ord(n: int, ell: int) -> int:
    # n != 0
    k = 0
    while n % ell == 0:
        n //= ell
        k += 1
    return k


def padic_ord(x, ell: int) -> int:
    """l-adic valuation of a nonzero rational; x = 0 raises PreconditionError.

    ord(num) - ord(den), so e.g. ord_7(-49/8) = 2 and ord_5(1/5) = -1.
    """
    _require_prime(ell, "valuation prime")
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"padic_ord expects a rational, got {type(x).__name__}")
    if x == 0:
        raise PreconditionError("padic_ord is defined for nonzero rationals only")
    return _int_ord(x.numerator, ell) - _int_ord(x.denominator, ell)


def kronecker_symbol(a: int, m: int) -> int:
    """Kronecker symbol (a/m), the full extension of the Jacobi symbol.

    Conventions: (a/2) is 0 for even a and +-1 by a mod 8; (a/-1) is the
    sign of a; (a/1) = 1.  m = 0 is rejected.
    """
    if m == 0:
        raise PreconditionError("kronecker_symbol requires m != 0")
    result = 1
    if m < 0:
        m = -m
        if a < 0:
            result = -1
    while m % 2 == 0:
        m //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # Jacobi symbol for odd positive m via quadratic reciprocity.
    a %= m
    while a:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def legendre_symbol(a: int, ell: int) -> int:
    """Legendre symbol (a/ell) for an odd prime ell."""
    if ell == 2 or not is_prime(ell):
        raise PreconditionError(f"legendre_symbol requires an odd prime, got {ell}")
    return kronecker_symbol(a, ell)


def eta_character_numerator(d: int) -> int:
    """The eta-power character table: the numerator a of the Kronecker symbol (a/.) for d.

    Even d: (-1)^(d/2).  Odd d coprime to 6: 12.  Odd multiples of 3: -4.
    """
    if d % 2 == 0:
        return -1 if (d // 2) % 2 else 1
    if d % 3 == 0:
        return -4
    return 12


def reduce_mod_prime_power(x, ell: int, k: int) -> int:
    """Canonical residue of a rational in [0, ell^k).

    Raises NotLIntegralError when ell divides the denominator (the value
    has no residue mod ell^k).
    """
    _require_prime(ell)
    if k < 1:
        raise PreconditionError("reduce_mod_prime_power requires k >= 1")
    num, den = x.numerator, x.denominator
    if den % ell == 0:
        raise NotLIntegralError(
            f"{format_rational(x)} is not {ell}-integral: {ell} divides the denominator"
        )
    mod = ell**k
    return num * pow(den, -1, mod) % mod
