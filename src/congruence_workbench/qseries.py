"""Truncated formal power series over an exact coefficient ring.

A :class:`Series` is a tuple of dense coefficients for exponents
0..prec-1; prec is the tuple's length.
Coefficients are plain ints or ``fractions.Fraction`` values (the
arithmetic works over any exact ring); all operations are exact.
Binary operations truncate to the shorter operand, and nothing ever
pads precision with fabricated zeros.

The two entry points that matter most are :func:`euler_product`, the
sparse pentagonal-number expansion of (q^M; q^M)_inf, and
:func:`series_pow_numerators`, which raises a series of ints with constant
term 1 to an arbitrary rational exponent alpha = a/b via the
logarithmic-derivative recurrence (J.C.P. Miller's formula for powers of
power series)

    n*g(n) = sum_{k=1..n} (alpha*k - (n-k)) * f(k) * g(n-k),

one exact pass, no floating point anywhere.  The pass is fraction-free:
for integer f, D(n)*g(n) is an integer with
D(n) = b^n * prod_{p | b} p^ord_p(n!), so the recurrence runs on plain
int numerators over the common denominator D(prec-1), and every step
ends in one exact division by b*n (checked; a remainder raises).
:func:`series_pow_numerators` returns that output as it is, the int
numerators and D.  Checks read those: :func:`series_reduce_mod` takes
int numerators only and reduces N(n) * D^-1 mod ell^k with one
multiplication each, so congruence checks build no ``Fraction``.
Exact values have one reduction path, :func:`series_pow_pairs`: it
divides N(n) by D / D(n), the closed form above, and strips the factor
left in common with gcds against b, never a gcd of two big ints unless
a shared prime power exceeds b.  It yields int pairs in lowest terms;
``coeffs`` prints them as they stream, and :func:`series_pow_rational`
turns them into ``Fraction`` values at the API edge.  Input
coefficients must be ``int``; any other raises TypeError.  This is the
only power algorithm: :func:`series_pow_int` runs the same pass with
b = 1, where the common denominator is 1, so the result is ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import index

from .arith import (
    NotLIntegralError,
    PreconditionError,
    as_rational,
    padic_ord,
    reduce_mod_prime_power,
)

__all__ = [
    "Series",
    "euler_product",
    "extract_progression",
    "frac_partition_series",
    "series_pow_int",
    "series_pow_numerators",
    "series_pow_pairs",
    "series_pow_rational",
    "series_reduce_mod",
    "series_shift",
    "substitute_power",
]


class Series:
    """Immutable truncated power series: coefficients for 0..prec-1, prec = len(coeffs)."""

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "prec", len(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    def __delattr__(self, name):
        raise AttributeError("Series is immutable")

    def coeff(self, n: int):
        """Coefficient at exponent n; 0 for n < 0 by convention."""
        if n < 0:
            return 0
        if n >= self.prec:
            raise IndexError(f"exponent {n} beyond truncation order {self.prec}")
        return self.coeffs[n]

    def nonzero_items(self):
        return [(n, c) for n, c in enumerate(self.coeffs) if c != 0]

    def truncate(self, prec: int) -> "Series":
        if prec > self.prec:
            raise ValueError(f"cannot extend precision {self.prec} to {prec}")
        return Series(self.coeffs[:prec])

    def scale(self, scalar) -> "Series":
        if scalar == 1:
            return self
        return Series([scalar * c for c in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Series([-c for c in self.coeffs])

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return Series([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return Series([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        prec = min(self.prec, other.prec)
        # Cauchy product; skip zero entries so sparse operands (eta powers,
        # Euler products) pay only for their support.
        f = [(i, c) for i, c in enumerate(self.coeffs[:prec]) if c != 0]
        g = [(j, c) for j, c in enumerate(other.coeffs[:prec]) if c != 0]
        if len(g) < len(f):
            f, g = g, f
        out = [0] * prec
        for i, a in f:
            for j, b in g:
                n = i + j
                if n >= prec:
                    break
                out[n] = out[n] + a * b
        return Series(out)

    def __repr__(self):
        shown = ", ".join(f"{c}*q^{n}" for n, c in self.nonzero_items()[:6])
        if len(self.nonzero_items()) > 6:
            shown += ", ..."
        return f"Series({shown or '0'}; prec={self.prec})"


def euler_product(M: int, prec: int) -> Series:
    """(q^M; q^M)_inf truncated at prec.

    Sparse fill: coefficient (-1)^k at exponent M*k*(3k-1)/2 for every
    integer k (generalized pentagonal numbers), zero elsewhere.
    """
    if M < 1:
        raise PreconditionError("euler_product requires M >= 1")
    if prec < 1:
        raise PreconditionError("euler_product requires prec >= 1")
    out = [0] * prec
    out[0] = 1
    k = 1
    while True:
        placed = False
        sign = -1 if k % 2 else 1
        for kk in (k, -k):
            e = M * kk * (3 * kk - 1) // 2
            if e < prec:
                out[e] = sign
                placed = True
        if not placed:
            break
        k += 1
    return Series(out)


def _multiplier(n: int, b: int) -> int:
    """D(n) / D(n-1): b times the part of n made of primes dividing b."""
    m = b
    g = gcd(n, b)
    while g > 1:
        n //= g
        m *= g
        g = gcd(n, g)
    return m


def series_pow_numerators(f: Series, alpha) -> tuple[Series, int]:
    """The power kernel's output as it is: (N, D) with f**alpha = N / D.

    N is a Series of ``int`` numerators and D the common denominator, so
    coefficient n of f**alpha is N(n) / D, not reduced.  Requires
    f(0) = 1 and ``int`` coefficients; any other coefficient raises
    TypeError.

    Fraction-free: with alpha = a/b and integer coefficients f(k),
    D(n)*g(n) is an integer for D(n) = b^n * prod_{p | b} p^ord_p(n!), and
    D(n) divides D = D(P) for P = prec - 1.  So the recurrence runs on the
    integers N(n) = D*g(n):

        b*n*N(n) = sum_{k=1..n} (a*k - b*(n-k)) * f(k) * N(n-k),

    each step ending in one exact division by b*n (a nonzero remainder
    raises ArithmeticError).
    """
    alpha = as_rational(alpha)
    a, b = alpha.numerator, alpha.denominator
    if f.prec < 1 or f.coeff(0) != 1:
        raise PreconditionError("series powers require constant term 1")
    prec = f.prec
    # weight * f(k) = u - n*v
    support = []
    for k, c in enumerate(f.coeffs):
        if not isinstance(c, int):
            raise TypeError("series powers are defined for int coefficients")
        if k >= 1 and c != 0:
            support.append(((a + b) * k * c, b * c, k))
    denominator = 1
    for n in range(1, prec):
        denominator *= _multiplier(n, b)
    num = [denominator] + [0] * (prec - 1)
    for n in range(1, prec):
        acc = 0
        for u, v, k in support:
            if k > n:
                break
            acc += (u - n * v) * num[n - k]
        num[n], rest = divmod(acc, b * n)
        if rest:
            raise ArithmeticError(f"inexact division by {b * n} in the power recurrence")
    return Series(num), denominator


def series_pow_pairs(f: Series, alpha):
    """Yield coefficient n of f**alpha in lowest terms, as ints (num, den) with den > 0, for n = 0, 1, ...

    Same requirements as :func:`series_pow_numerators`, whose output it
    reduces as it walks n upward.
    D(n) = b^n * prod_{p | b} p^ord_p(n!) divides the kernel's D, and
    D(n)*g(n) is an integer, so M(n) = N(n) // (D / D(n)) is exact and
    g(n) = M(n) / D(n).  Every prime of D(n) divides b, so the pair is in
    lowest terms exactly when s = gcd(gcd(M(n), b), D(n)) is 1: b is never
    factored, and this first probe has an operand of at most b.  What M(n)
    and D(n) share after dividing by s has only primes of s, so the next
    probe is s*s in place of b; a prime shared to a high power costs a few
    rounds, not one per power, and a zero coefficient comes out as (0, 1).
    """
    numerators, denominator = series_pow_numerators(f, alpha)
    b = as_rational(alpha).denominator
    quotient, den_n = denominator, 1  # D / D(n) and D(n)
    for n, c in enumerate(numerators.coeffs):
        if n:
            step = _multiplier(n, b)
            quotient //= step
            den_n *= step
        num, den = c // quotient, den_n
        shared = gcd(gcd(num, b), den)
        while shared > 1:
            num //= shared
            den //= shared
            shared = gcd(gcd(num, shared * shared), den)
        yield num, den


def series_pow_rational(f: Series, alpha) -> Series:
    """f**alpha for rational alpha; requires f(0) = 1 and int coefficients.

    Exact output: the unique solution g of f*g' = alpha*f'*g with
    g(0) = 1, one ``Fraction`` per lowest-terms pair of
    :func:`series_pow_pairs`.
    """
    return Series([Fraction(num, den) for num, den in series_pow_pairs(f, alpha)])


def series_pow_int(f: Series, e: int) -> Series:
    """f**e for an integer e by the same recurrence; requires f(0) = 1 and int coefficients.

    With b = 1 the common denominator D(P) is 1, so the result is the
    ``int`` numerators themselves.  A coefficient that is not an ``int``
    raises TypeError.
    """
    return series_pow_numerators(f, index(e))[0]


def frac_partition_series(alpha, prec: int) -> Series:
    """Coefficients of (q; q)_inf**alpha for exponents 0..prec-1."""
    return series_pow_rational(euler_product(1, prec), alpha)


def substitute_power(f: Series, m: int) -> Series:
    """q -> q^m; coefficient at m*n equals f(n), result prec = m*f.prec."""
    if m < 1:
        raise PreconditionError("substitute_power requires m >= 1")
    if m == 1:
        return f
    out = [0] * (m * f.prec)
    for n, c in enumerate(f.coeffs):
        out[m * n] = c
    return Series(out)


def extract_progression(f: Series, m: int, c: int) -> Series:
    """Coefficients along the progression m*n + c, n = 0, 1, ..."""
    if m < 1:
        raise PreconditionError("extract_progression requires m >= 1")
    if not 0 <= c < m:
        raise PreconditionError(f"residue c = {c} must satisfy 0 <= c < m = {m}")
    return Series(f.coeffs[c::m])


def series_shift(f: Series, t: int) -> Series:
    """Multiply by q^t; precision grows by t."""
    if t < 0:
        raise PreconditionError("series_shift requires t >= 0")
    if t == 0:
        return f
    return Series((0,) * t + f.coeffs)


def series_reduce_mod(f: Series, ell: int, k: int, denominator: int = 1) -> Series:
    """Coefficientwise canonical residues of N(n) / denominator in [0, ell^k).

    ``f`` holds ``int`` numerators, as :func:`series_pow_numerators`
    returns them with their common denominator; any other coefficient
    raises TypeError.  With denominator = ell^t * u, ell^t must divide
    each numerator, else NotLIntegralError names the first offending
    exponent.  u is inverted once, so each numerator costs one
    multiplication, and no Fraction is built.
    """
    mod = ell**k
    scale = ell ** padic_ord(denominator, ell)
    # reduce_mod_prime_power also refuses k < 1
    inverse = pow(reduce_mod_prime_power(denominator // scale, ell, k), -1, mod)
    out = []
    for n, c in enumerate(f.coeffs):
        if not isinstance(c, int):
            raise TypeError("series_reduce_mod is defined for int numerators")
        c, rest = divmod(c, scale)
        if rest:
            raise NotLIntegralError(f"coefficient at exponent {n} is not {ell}-integral", index=n)
        out.append(c * inverse % mod)
    return Series(out)
