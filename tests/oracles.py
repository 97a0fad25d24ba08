"""Independent reference computations used to freeze expected test values.

Each oracle avoids the code path it checks: partition counts come from
the bounded-largest-part recurrence (no pentagonal numbers, no series
powers), products are expanded factor by factor, valuations are
recomputed from scratch, and the Kronecker symbol, which checks the
Euler's-criterion ``legendre_symbol``, runs by quadratic reciprocity.
The eta-power character table, which ``eigenforms`` evaluates with it,
sits beside it.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from congruence_workbench.arith import NotLIntegralError, PreconditionError, as_rational, padic_ord
from congruence_workbench.congruence import (
    Counterexample,
    SharpnessWitness,
    VerificationReport,
    VerificationStatus,
)
from congruence_workbench.qseries import Series, extract_progression, frac_partition_series


def partition_counts(n_max: int) -> list[int]:
    """p(0..n_max) via p(n, k) = p(n-k, k) + p(n, k-1) (largest part <= k)."""
    table = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    for k in range(n_max + 1):
        table[0][k] = 1
    for n in range(1, n_max + 1):
        for k in range(1, n_max + 1):
            table[n][k] = table[n][k - 1] + (table[n - k][k] if n >= k else 0)
    return [table[n][n_max] for n in range(n_max + 1)]


def naive_euler_product(M: int, prec: int) -> list[int]:
    """Expand prod_{j>=1} (1 - q^(M*j)) by repeated polynomial multiplication."""
    coeffs = [0] * prec
    coeffs[0] = 1
    j = M
    while j < prec:
        for n in range(prec - 1, j - 1, -1):
            coeffs[n] -= coeffs[n - j]
        j += M
    return coeffs


def naive_power(coeffs: list[int], e: int, prec: int) -> list[int]:
    """Schoolbook e-th power of a dense integer polynomial, truncated."""
    out = [1] + [0] * (prec - 1)
    for _ in range(e):
        out = naive_product(out, coeffs, prec)
    return out


def naive_product(a: list, b: list, prec: int) -> list:
    """Schoolbook product of two dense polynomials, truncated to prec terms."""
    out = [0] * prec
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b[: prec - i]):
            out[i + j] += x * y
    return out


def combine(*terms) -> Series:
    """The linear combination sum(c * f) of (scalar, Series) pairs, truncated to the shortest f."""
    return Series(map(sum, zip(*([c * x for x in f.coeffs] for c, f in terms))))


def binomial_series_power(coeffs: list[int], alpha: Fraction, prec: int) -> list[Fraction]:
    """(1 + h)^alpha truncated to prec terms, where coeffs = 1 + h and h(0) = 0.

    Sums the generalized binomial series sum_k C(alpha, k) h^k over
    fractions.Fraction with schoolbook products, so it never runs the
    log-derivative recurrence that series_pow_rational uses, nor the
    package's rational backend.  Only k < prec matter, since h^k starts
    at q^k.
    """
    if coeffs[0] != 1:
        raise ValueError("constant term must be 1")
    h = [0] + list(coeffs[1:prec])
    out = [Fraction(0)] * prec
    h_k = [1] + [0] * (prec - 1)  # h^0
    binom = Fraction(1)  # C(alpha, 0)
    for k in range(prec):
        for n, c in enumerate(h_k):
            out[n] += binom * c
        binom = binom * (alpha - k) / (k + 1)
        h_k = naive_product(h_k, h, prec)
    return out


def pow_rational_by_fractions(f: Series, alpha) -> Series:
    """f**alpha for rational alpha; requires f(0) = 1.

    The log-derivative recurrence n*g(n) = sum_k (alpha*k - (n-k)) f(k)
    g(n-k) run directly over fractions.Fraction (a gcd in every add), as
    series_pow_rational computed it before its fraction-free kernel.
    """
    alpha = as_rational(alpha)
    if f.prec < 1 or f.coeff(0) != 1:
        raise PreconditionError("series_pow_rational requires constant term 1")
    a, b = alpha.numerator, alpha.denominator
    prec = f.prec
    support = [(k, c) for k, c in enumerate(f.coeffs) if k >= 1 and c != 0]
    out = [Fraction(1)] + [None] * (prec - 1)
    for n in range(1, prec):
        acc = 0
        for k, c in support:
            if k > n:
                break
            weight = a * k - b * (n - k)
            if weight == 0:
                continue
            if c == 1:
                acc = acc + weight * out[n - k]
            elif c == -1:
                acc = acc - weight * out[n - k]
            else:
                acc = acc + weight * c * out[n - k]
        out[n] = Fraction(acc, b * n) if isinstance(acc, int) else acc / (b * n)
    return Series(out)


def primes_below(limit: int) -> list[int]:
    """All primes < limit, by sieve."""
    if limit <= 2:
        return []
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for p in range(2, isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [i for i in range(limit) if flags[i]]


def squares_mod(p: int) -> set[int]:
    return {(x * x) % p for x in range(p)}


def euler_criterion(a: int, p: int) -> int:
    """Legendre symbol by Euler's criterion: a^((p-1)/2) mod p mapped to {-1,0,1}."""
    r = pow(a, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


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


def eta_character_numerator(d: int) -> int:
    """The eta-power character table: the numerator a of the Kronecker symbol (a/.) for d.

    Even d: (-1)^(d/2).  Odd d coprime to 6: 12.  Odd multiples of 3: -4.
    """
    if d % 2 == 0:
        return -1 if (d // 2) % 2 else 1
    if d % 3 == 0:
        return -4
    return 12


@lru_cache(maxsize=None)
def factorial_ord(n: int, p: int) -> int:
    """ord_p(n!) by Legendre's formula."""
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def expected_denominator(b: int, n: int) -> int:
    """b^n * prod_{p | b} p^(ord_p(n!))."""
    result = b**n
    for p in prime_factors(b):
        result *= p ** factorial_ord(n, p)
    return result


# -- claim checks over Fractions -------------------------------------------


def progression_fractions(claim, n_max: int) -> Series:
    """p_alpha(ell^e * n + r) for n <= n_max, each a reduced Fraction of the whole series."""
    series = frac_partition_series(claim.alpha, _precision(claim, n_max))
    return Series(extract_progression(series, claim.progression_modulus, claim.r).coeffs[: n_max + 1])


def _precision(claim, n_max: int) -> int:
    return claim.progression_modulus * n_max + claim.r + 1


def _refuse_non_integral(claim, n_max: int, values: Series):
    """A claim forged with ell | b: refuse as the ell-adic kernel does, at the first exponent below
    the precision (read off the Fraction series) whose coefficient is not ell-integral."""
    ell = claim.ell
    if any(value.denominator % ell == 0 for value in values.coeffs):
        series = frac_partition_series(claim.alpha, _precision(claim, n_max))
        n = next(n for n, c in enumerate(series.coeffs) if c.denominator % ell == 0)
        raise NotLIntegralError(f"coefficient at exponent {n} is not {ell}-integral", index=n)


def verify_claim_by_fractions(claim, n_max: int, values: Series | None = None) -> VerificationReport:
    """verify_claim as it ran before it read integer numerators: every value a Fraction.

    Residues are num * den^-1 mod ell^m, computed here from the Fraction.
    """
    if values is None:
        values = progression_fractions(claim, n_max)
    _refuse_non_integral(claim, n_max, values)
    ell, mod = claim.ell, claim.ell**claim.modulus_power
    for n, value in enumerate(values.coeffs):
        if value.numerator * pow(value.denominator, -1, mod) % mod != 0:
            ce = Counterexample(n=n, value=value, ord=padic_ord(value, ell))
            return VerificationReport(claim, n_max, VerificationStatus.COUNTEREXAMPLE, ce)
    return VerificationReport(claim, n_max, VerificationStatus.VERIFIED_IN_RANGE)


def sharpness_probe_by_fractions(claim, n_max: int, values: Series | None = None):
    """sharpness_probe over Fractions: the first value of ord exactly modulus_power."""
    if values is None:
        values = progression_fractions(claim, n_max)
    _refuse_non_integral(claim, n_max, values)
    for n, value in enumerate(values.coeffs):
        if value != 0 and padic_ord(value, claim.ell) == claim.modulus_power:
            return SharpnessWitness(n=n, value=value)
    return None
