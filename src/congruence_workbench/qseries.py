"""Truncated formal power series over an exact coefficient ring.

A :class:`Series` is a tuple of dense coefficients for exponents
0..prec-1; prec is the tuple's length.
Coefficients are plain ints or ``fractions.Fraction`` values (the
arithmetic works over any exact ring); all operations are exact.
Binary operations truncate to the shorter operand, and nothing ever
pads precision with fabricated zeros.  The one change of shape is
:func:`extract_progression`, which reads a progression out of a series.

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
numerators and D.  ``coeffs --mod`` reads those: :func:`series_reduce_mod`
takes int numerators only and reduces N(n) * D^-1 mod ell^k with one
multiplication each, so it builds no ``Fraction``.
Exact values have one reduction path, :func:`series_pow_pairs`: it
divides N(n) by D / D(n), the closed form above, and strips the factor
left in common with gcds against b, never a gcd of two big ints unless
a shared prime power exceeds b.  It yields int pairs in lowest terms;
``coeffs`` prints them as they stream, and :func:`series_pow_rational`
turns them into ``Fraction`` values at the API edge.  Input
coefficients must be ``int``; any other raises TypeError.  This is the
only exact power algorithm: :func:`series_pow_int` runs the same pass
with b = 1, where the common denominator is 1, so the result is ints.
Residues come from the ell-adic kernel :func:`series_pow_residues`:
f**alpha = f**a * f(q^ell)**g * T**g with f**ell = f(q^ell) * T, one
level per power of ell, and T**g a binomial sum mod ell^k that is empty
past t = 0 when ell^(k-1) divides g (lemma R).  Each product is one int
multiplication (Kronecker substitution); congruence checks read it.
"""

from __future__ import annotations

import sys
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
    "series_pow_residues",
    "series_reduce_mod",
]


class _Value:
    """An immutable value: equal only to one of its own class with equal ``_args()``, its constructor's arguments.

    It hashes by them, and copies and pickles are rebuilt through the constructor, which checks them again.
    """

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._args()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._args() == other._args()

    def __hash__(self):
        return hash(self._args())


class Series(_Value):
    """Immutable truncated power series: coefficients for 0..prec-1, prec = len(coeffs)."""

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "prec", len(coeffs))

    def _args(self) -> tuple:
        return (self.coeffs,)

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
        # Cauchy product, skipping zero entries.  No command multiplies series; it stays a
        # method because perfbench/tracer.py patches Series.__mul__.
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


def _mul_mod(x: list, y: list, mod: int) -> list:
    """The first len(x) coefficients of x*y mod ``mod``, for residue lists x and y of one length.

    Kronecker substitution: each list is packed little-endian into one int, in slots wide enough for
    a product coefficient, at most len(x) * (mod - 1)^2, so one int multiplication makes the product
    with no carry between slots.  Slots of 1, 2, 4 or 8 bytes go through ``array`` and ``memoryview``:
    at 986 terms mod 7^3 (CPython 3.11, x86-64) they packed and unpacked in 50 us, ``int.from_bytes`` in 350 us.
    """
    size = len(x)
    width = ((size * (mod - 1) ** 2).bit_length() + 7) // 8
    code = "BHIIQQQQ"[width - 1] if width <= 8 and sys.byteorder == "little" else None
    if code:
        from array import array  # here, so that only a residue run pays for the import
        width = array(code).itemsize
        pack = lambda v: int.from_bytes(array(code, v), "little")
    else:
        pack = lambda v: int.from_bytes(b"".join([c.to_bytes(width, "little") for c in v]), "little")
    product = pack(x) ** 2 if y is x else pack(x) * pack(y)
    data = (product & (1 << 8 * size * width) - 1).to_bytes(size * width, "little")
    if code:
        return [c % mod for c in memoryview(data).cast(code)]
    return [int.from_bytes(data[i : i + width], "little") % mod for i in range(0, size * width, width)]


def _pow_mod(x: list, e: int, mod: int) -> list:
    """x**e to len(x) terms mod ``mod``, for e >= 1, by left-to-right square-and-multiply."""
    power = x
    for bit in bin(e)[3:]:
        power = _mul_mod(power, power, mod)
        if bit == "1":
            power = _mul_mod(power, x, mod)
    return power


def _inverse_mod(x: list, mod: int) -> list:
    """1/x to len(x) terms mod ``mod``, for x[0] = 1: each Newton step y*(2 - x*y) doubles the terms known."""
    y = [1]
    while len(y) < len(x):
        y += [0] * (min(2 * len(y), len(x)) - len(y))
        e = _mul_mod(y, x[: len(y)], mod)
        y = _mul_mod(y, [1] + [-c % mod for c in e[1:]], mod)
    return y


def _binomial_residues(g, ell: int, k: int, size: int) -> list:
    """binom(g, t) mod ell^k for t = 1..I, where I is the last t < min(k, size) with ord_ell binom(g, t) + t < k.

    (T - 1)**t has no term below q^t, so no t >= size reaches the first size terms.
    """
    last = ords = 0
    for t in range(1, min(k, size)):
        if g == t - 1:  # binom(g, t) = 0 from here on
            break
        ords += padic_ord(g - t + 1, ell) - padic_ord(t, ell)
        if ords + t < k:
            last = t
    residues, c = [], 1
    for t in range(1, last + 1):
        c = c * (g - t + 1) / t
        residues.append(reduce_mod_prime_power(c, ell, k))
    return residues


def _power_residues(alpha, ell: int, k: int, size: int) -> list:
    """f**alpha mod ell^k to size terms, for ell not dividing the denominator of alpha: see series_pow_residues."""
    if size == 1:
        return [1]
    mod, a = ell**k, reduce_mod_prime_power(alpha, ell, k) % ell
    g, lower = (alpha - a) / ell, -(-size // ell)
    base = [x % mod for x in euler_product(1, size).coeffs]
    power = [0] * size
    power[::ell] = _power_residues(g, ell, k, lower)
    if a:
        power = _mul_mod(power, _pow_mod(base, a, mod), mod)
    binomials = _binomial_residues(g, ell, k, size)
    if binomials:
        inverse = [0] * size
        inverse[::ell] = _inverse_mod(base[:lower], mod)
        step = _mul_mod(_pow_mod(base, ell, mod), inverse, mod)
        step[0] = 0  # T - 1
        total, term = [1] + [0] * (size - 1), step
        for i, c in enumerate(binomials):
            term = _mul_mod(term, step, mod) if i else term
            total = [(s + c * x) % mod for s, x in zip(total, term)]
        power = _mul_mod(power, total, mod)
    return power


def _refuse_non_integral(b: int, ell: int, prec: int) -> int:
    """ord_ell(b) for alpha = a/b; refuses an ell that is not prime, and ell | b unless prec is 1 (p_alpha(1) = -alpha)."""
    ords = padic_ord(b, ell)
    if ords and prec > 1:
        raise NotLIntegralError(f"coefficient at exponent 1 is not {ell}-integral", index=1)
    return ords


def series_pow_residues(alpha, ell: int, k: int, prec: int) -> Series:
    """Residues in [0, ell^k) of (q; q)_inf**alpha for exponents 0..prec-1; no exact coefficient is built.

    For alpha = a/b with ell not dividing b, write f = (q; q)_inf and f**ell = f(q^ell) * T, where
    T == 1 (mod ell).  With a == alpha (mod ell) in [0, ell) and g = (alpha - a) / ell, f**alpha =
    f**a * f(q^ell)**g * T**g.  f(q^ell)**g repeats this on ceil(prec / ell) terms, and T**g ==
    sum_t binom(g, t) * (T - 1)**t (mod ell^k), where term t is 0 once ord_ell binom(g, t) + t >= k;
    when ell^(k-1) divides g only t = 0 is left (lemma R).  When ell divides b, ord_ell p_alpha(N) =
    -N*ord_ell(b) - ord_ell(N!) < 0 for every N >= 1, so exponent 1 is refused unless prec is 1.
    """
    alpha = as_rational(alpha)
    if _refuse_non_integral(alpha.denominator, ell, prec):
        return euler_product(1, prec)
    return Series(_power_residues(alpha, ell, k, prec))


def extract_progression(f: Series, m: int, c: int) -> Series:
    """Coefficients along the progression m*n + c, n = 0, 1, ..."""
    if m < 1:
        raise PreconditionError("extract_progression requires m >= 1")
    if not 0 <= c < m:
        raise PreconditionError(f"residue c = {c} must satisfy 0 <= c < m = {m}")
    return Series(f.coeffs[c::m])


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
