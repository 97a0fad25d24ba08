import inspect
import random
from fractions import Fraction
from math import gcd

import pytest

from congruence_workbench.arith import NotLIntegralError, PreconditionError, padic_ord
from congruence_workbench.qseries import (
    Series,
    euler_product,
    extract_progression,
    frac_partition_series,
    series_pow_int,
    series_pow_numerators,
    series_pow_pairs,
    series_pow_rational,
    series_pow_residues,
    series_reduce_mod,
)

from congruence_workbench import qseries

from eigenforms import QuadRational
from oracles import (
    binomial_series_power,
    combine,
    expected_denominator,
    factorial_ord,
    naive_euler_product,
    naive_power,
    partition_counts,
    pow_rational_by_fractions,
)


def series_from_ints(values):
    return Series(list(values))


class TestRingOps:
    def test_geometric_inverse(self):
        one_minus_q = series_from_ints([1, -1] + [0] * 48)
        product = one_minus_q * Series([1] * 50)
        assert product.coeffs[0] == 1
        assert all(c == 0 for c in product.coeffs[1:])

    def test_multiplicative_identity(self):
        f = euler_product(1, 40)
        one = series_pow_int(f, 0)
        assert f * one == f

    def test_euler_times_inverse_is_one(self):
        f = euler_product(1, 100)
        g = series_pow_int(f, -1)
        product = f * g
        assert product.coeffs[0] == 1
        assert all(c == 0 for c in product.coeffs[1:])

    def test_min_precision_contract(self):
        f = euler_product(1, 30)
        g = euler_product(1, 50)
        assert (f * g).prec == 30

    def test_no_ring_but_the_traced_product(self):
        # a Series is a coefficient tuple; oracles.combine forms linear combinations in the tests
        for op in (lambda: Series([1, 2]) + Series([1, 2]), lambda: Series([1]) - Series([1]), lambda: -Series([1])):
            with pytest.raises(TypeError):
                op()
        assert not hasattr(Series, "scale") and not hasattr(Series, "truncate")
        assert "perfbench/tracer.py patches Series.__mul__" in inspect.getsource(Series.__mul__)

    def test_immutable(self):
        s = Series([1, 2])
        for name in ("coeffs", "prec"):
            with pytest.raises(AttributeError, match="Series is immutable"):
                setattr(s, name, (0,))
            with pytest.raises(AttributeError, match="Series is immutable"):
                delattr(s, name)
        assert s.coeffs == (1, 2) and s.prec == 2
        assert s == Series([1, 2]) and hash(s) == hash(Series([1, 2]))

    def test_never_equals_its_coeffs_tuple(self):
        # the Series twin of CongruenceClaim's rule: a value equals only a value of its own class
        s = Series([1, 2])
        for other in (s.coeffs, (s.coeffs,)):
            assert s != other and other != s
            assert not s == other and not other == s


class TestPowInt:
    def test_power_zero(self):
        f = euler_product(1, 20)
        assert series_pow_int(f, 0) == series_from_ints([1] + [0] * 19)

    def test_inverse_gives_partitions(self):
        counts = partition_counts(60)
        f = series_pow_int(euler_product(1, 61), -1)
        assert [int(c) for c in f.coeffs] == counts

    def test_square_consistency(self):
        f = euler_product(1, 80)
        assert series_pow_int(f, 2) == f * f

    def test_noninvertible_constant_term(self):
        # one recurrence for every power: it needs f(0) = 1, like series_pow_rational
        with pytest.raises(PreconditionError):
            series_pow_int(series_from_ints([0, 1, 1]), -1)
        with pytest.raises(PreconditionError):
            series_pow_int(series_from_ints([2, 1, 1]), -1)

    @pytest.mark.parametrize("M", [1, 5, 12])
    def test_matches_schoolbook_and_binomial_oracles(self, M):
        base = naive_euler_product(M, 120)
        f = euler_product(M, 120)
        for e in range(1, 27):
            got = series_pow_int(f, e).coeffs
            assert list(got) == naive_power(base, e, 120), (M, e)
            assert all(type(c) is int for c in got), (M, e)
        for e in range(-3, 0):
            got = series_pow_int(f, e).coeffs
            assert list(got) == binomial_series_power(base, Fraction(e), 120), (M, e)
            assert all(type(c) is int for c in got), (M, e)


class TestPowRational:
    def test_exponent_one_is_identity(self):
        f = euler_product(1, 30)
        g = series_pow_rational(f, 1)
        assert [int(c) for c in g.coeffs] == list(f.coeffs)

    def test_square_root_roundtrip(self):
        f = euler_product(1, 60)
        h = series_pow_rational(f, Fraction(1, 2))
        assert [c for c in (h * h).coeffs] == [Fraction(c) for c in f.coeffs]

    def test_known_coefficient(self):
        f = frac_partition_series(Fraction(-1, 8), 6)
        assert f.coeff(5) == Fraction(55615, 262144)

    def test_requires_unit_constant_term(self):
        with pytest.raises(PreconditionError):
            series_pow_rational(series_from_ints([2, 1]), Fraction(1, 2))

    def test_exponent_law(self):
        f = euler_product(1, 50)
        rng = random.Random(99)
        for _ in range(20):
            alpha = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            beta = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            lhs = series_pow_rational(f, alpha) * series_pow_rational(f, beta)
            rhs = series_pow_rational(f, alpha + beta)
            assert lhs == rhs

    def test_integer_consistency(self):
        f = euler_product(1, 40)
        for e in range(-3, 4):
            via_rational = series_pow_rational(f, e)
            via_int = series_pow_int(f, e)
            assert all(via_rational.coeff(n) == via_int.coeff(n) for n in range(f.prec)), e
        # the kernel takes int series only: rational coefficients are refused
        rational = Series([Fraction(1), Fraction(1, 2), Fraction(-1, 3)] + [Fraction(0)] * 37)
        with pytest.raises(TypeError):
            series_pow_rational(rational, 3)
        with pytest.raises(TypeError):
            series_pow_int(rational, 3)

    def test_only_int_coefficients(self):
        fraction = Series([1] + [Fraction((-1) ** k, k + 1) for k in range(1, 20)])
        quad = Series([1] + [QuadRational(Fraction(1, k + 1), Fraction((-1) ** k, 2)) for k in range(1, 20)])
        for f in (fraction, quad):
            with pytest.raises(TypeError):
                series_pow_rational(f, Fraction(-1, 8))
            with pytest.raises(TypeError):
                series_pow_int(f, 2)
        # the constant-term check comes first, whatever the ring
        for f in (Series([2, 1, 1]), Series([Fraction(1, 2), Fraction(1, 3)])):
            with pytest.raises(PreconditionError):
                series_pow_rational(f, Fraction(-1, 8))
            with pytest.raises(PreconditionError):
                series_pow_int(f, 2)


# name -> (builder, largest precision checked)
_DIFFERENTIAL_SERIES = {
    "euler1": (lambda prec: euler_product(1, prec), 300),
    "euler5": (lambda prec: euler_product(5, prec), 300),
    "euler7": (lambda prec: euler_product(7, prec), 300),
    # dense: the partition numbers
    "partitions": (lambda prec: series_pow_int(euler_product(1, prec), -1), 120),
}
_DIFFERENTIAL_ALPHAS = [
    Fraction(-1, 8), Fraction(1, 13), Fraction(97, 8), Fraction(-49, 13),
    Fraction(1, 12), Fraction(-7, 30), 3, -1, 0,
]


class TestFractionFreeKernel:
    """series_pow_rational against the Fraction recurrence it replaced."""

    @pytest.mark.parametrize("alpha", _DIFFERENTIAL_ALPHAS, ids=str)
    @pytest.mark.parametrize("name", sorted(_DIFFERENTIAL_SERIES))
    def test_matches_fraction_oracle(self, name, alpha):
        build, top = _DIFFERENTIAL_SERIES[name]
        for prec in (1, 2, 13, top):
            f = build(prec)
            got = series_pow_rational(f, alpha).coeffs
            want = pow_rational_by_fractions(f, alpha).coeffs
            assert got == want, (name, alpha, prec)
            assert all(type(c) is Fraction for c in got), (name, alpha, prec)

    @pytest.mark.parametrize("alpha", _DIFFERENTIAL_ALPHAS, ids=str)
    def test_numerators_over_common_denominator(self, alpha):
        f = euler_product(1, 60)
        numerators, denominator = series_pow_numerators(f, alpha)
        assert all(type(c) is int for c in numerators.coeffs) and numerators.prec == 60
        assert denominator == expected_denominator(Fraction(alpha).denominator, 59)
        assert [Fraction(c, denominator) for c in numerators.coeffs] == list(series_pow_rational(f, alpha).coeffs)

    def test_inexact_division_raises(self, monkeypatch):
        # a common denominator without the p^ord_p(n!) factors is too small
        monkeypatch.setattr(qseries, "_multiplier", lambda n, b: b)
        with pytest.raises(ArithmeticError):
            series_pow_rational(euler_product(1, 10), Fraction(1, 2))


# b of alpha = a/b: prime powers, several primes, a 65-bit power of 2, and a
# semiprime of two 20-bit primes, which the reduction must never factor
_PAIR_DENOMINATORS = [1, 2, 8, 12, 13, 30, 36, 2**64, 1000003 * 1000033]


class TestLowestTermsPairs:
    """series_pow_pairs against Fraction(N(n), D), the reduction it replaces."""

    @staticmethod
    def _alphas(b):
        # negative and positive numerators prime to b; 0 too when b = 1
        return [Fraction(a, b) for a in (1, -1, b + 1, -(2 * b + 1), 7 * b - 1)] + ([Fraction(0)] if b == 1 else [])

    @staticmethod
    def _assert_matches(f, alpha):
        numerators, denominator = series_pow_numerators(f, alpha)
        want = [Fraction(c, denominator) for c in numerators.coeffs]
        got = list(series_pow_pairs(f, alpha))
        assert got == [(x.numerator, x.denominator) for x in want], (f.prec, alpha)
        assert all(type(num) is int and type(den) is int and den > 0 for num, den in got)
        assert all(den == 1 for num, den in got if num == 0)
        return got

    @pytest.mark.parametrize("b", _PAIR_DENOMINATORS, ids=str)
    def test_euler_powers(self, b):
        alphas = self._alphas(b)
        for alpha in alphas:
            for prec in (1, 2, 3, 41):
                self._assert_matches(euler_product(1, prec), alpha)
        for alpha in (alphas[0], alphas[3]):  # a/b with a > 0 and a < 0
            self._assert_matches(euler_product(1, 300), alpha)

    @pytest.mark.parametrize("b", _PAIR_DENOMINATORS, ids=str)
    def test_zero_and_shared_factors(self, b):
        # 1 + c*q^3 leaves zeros off the multiples of 3; c = 6*b^2 makes
        # numerator and denominator share high powers of b's primes
        for c in (5, 6 * b * b):
            f = Series([1, 0, 0, c] + [0] * 116)
            for alpha in self._alphas(b):
                got = self._assert_matches(f, alpha)
                assert got[1] == got[2] == (0, 1)

    @pytest.mark.parametrize("b", [2, 13, 36], ids=str)
    def test_dense_series(self, b):
        f = series_pow_int(euler_product(1, 120), -1)
        for alpha in self._alphas(b):
            self._assert_matches(f, alpha)

    def test_no_gcd_of_two_big_ints_on_euler_powers(self, monkeypatch):
        # every gcd the reduction takes on (q;q)_inf^alpha has an operand of at most b
        seen = []

        def recording_gcd(x, y):
            seen.append(min(abs(x), abs(y)))
            return gcd(x, y)

        monkeypatch.setattr(qseries, "gcd", recording_gcd)
        for b in (8, 13, 36, 1000003 * 1000033):
            seen.clear()
            pairs = list(series_pow_pairs(euler_product(1, 200), Fraction(-1, b)))
            assert pairs[-1][1].bit_length() > 200 and seen and max(seen) <= b

    def test_kernel_refusals_come_through(self):
        with pytest.raises(PreconditionError):
            next(series_pow_pairs(series_from_ints([2, 1]), Fraction(1, 2)))
        with pytest.raises(TypeError):
            next(series_pow_pairs(Series([1, Fraction(1, 2)]), Fraction(1, 2)))


class TestEulerProduct:
    def test_first_coefficients(self):
        f = euler_product(1, 8)
        assert [int(c) for c in f.coeffs] == [1, -1, -1, 0, 0, 1, 0, 1]

    def test_substituted_support(self):
        f = euler_product(12, 100)
        assert all(c == 0 for n, c in enumerate(f.coeffs) if n % 12 != 0)

    def test_matches_naive_product_small(self):
        assert list(euler_product(1, 300).coeffs) == naive_euler_product(1, 300)
        assert list(euler_product(6, 200).coeffs) == naive_euler_product(6, 200)


class TestFracPartitionSeries:
    def test_partition_numbers(self):
        f = frac_partition_series(-1, 10)
        assert [int(c) for c in f.coeffs] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]

    def test_alpha_one_is_pentagonal(self):
        f = frac_partition_series(1, 50)
        assert all(f.coeff(n) == euler_product(1, 50).coeff(n) for n in range(50))

    def test_known_coefficient_alpha_one_thirteenth(self):
        f = frac_partition_series(Fraction(1, 13), 8)
        assert f.coeff(7) == Fraction(-3395395, 62748517)

    def test_negative_index_convention(self):
        assert frac_partition_series(-1, 5).coeff(-3) == 0


class TestSubstituteExtractShift:
    def test_substitute_matches_euler_product(self):
        # (q^6; q^6)_inf is (q; q)_inf with q -> q^6
        f = euler_product(6, 300)
        assert f.coeffs[::6] == euler_product(1, 50).coeffs
        assert all(c == 0 for n, c in enumerate(f.coeffs) if n % 6)

    def test_extract_identity(self):
        f = euler_product(1, 25)
        assert extract_progression(f, 1, 0) == f

    def test_extract_ramanujan_progression(self):
        counts = partition_counts(99)
        f = frac_partition_series(-1, 100)
        sub = extract_progression(f, 5, 4)
        assert [int(c) for c in sub.coeffs[:4]] == [5, 30, 135, 490]
        assert [int(c) for c in sub.coeffs] == counts[4::5]

    def test_extract_interleaving_reconstructs(self):
        f = euler_product(1, 90)
        pieces = [extract_progression(f, 3, c) for c in range(3)]
        rebuilt = [None] * 90
        for c, piece in enumerate(pieces):
            for n, value in enumerate(piece.coeffs):
                rebuilt[3 * n + c] = value
        assert rebuilt == list(f.coeffs)

    def test_extract_rejects_bad_residue(self):
        with pytest.raises(PreconditionError):
            extract_progression(euler_product(1, 10), 3, 3)


class TestReduceMod:
    def test_ramanujan_zeros(self):
        numerators, denominator = series_pow_numerators(euler_product(1, 50), -1)
        residues = series_reduce_mod(numerators, 5, 1, denominator)
        for n in range(50):
            if n % 5 == 4:
                assert residues.coeff(n) == 0

    def test_zero_series(self):
        z = series_from_ints([0, 0, 0])
        assert series_reduce_mod(z, 7, 2) == z

    def test_not_l_integral_names_index(self):
        numerators, denominator = series_pow_numerators(euler_product(1, 10), Fraction(1, 5))
        with pytest.raises(NotLIntegralError) as excinfo:
            series_reduce_mod(numerators, 5, 1, denominator)
        assert excinfo.value.index == 1

    def test_only_int_numerators(self):
        # rationals are reduced one at a time with reduce_mod_prime_power
        for f in (frac_partition_series(Fraction(-1, 8), 5), Series([1, QuadRational(0, 1)])):
            with pytest.raises(TypeError):
                series_reduce_mod(f, 7, 1)


def _exact_residues(alpha, ell, k, prec):
    """The exact kernel's numerators reduced mod ell^k: the oracle of series_pow_residues."""
    numerators, denominator = series_pow_numerators(euler_product(1, prec), alpha)
    return series_reduce_mod(numerators, ell, k, denominator)


class TestResidueKernel:
    @pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 20])
    def test_matches_exact_residues(self, ell, k):
        # P on both sides of each power of ell up to 200, so every level count and level size edge
        # is hit; k = 20 makes every slot wider than 64 bits
        precs = {1, 2, 150} | {ell**i + s for i in (1, 2, 3) if ell**i < 200 for s in (-1, 0, 1)}
        b = 9 if ell == 2 else 8
        alphas = [0, -1, 6, Fraction(7 * ell, b), Fraction(-5, b), Fraction(-11 * ell, b), Fraction(ell**25 + 4, b)]
        for alpha in alphas:
            for prec in sorted(precs):
                assert series_pow_residues(alpha, ell, k, prec) == _exact_residues(alpha, ell, k, prec), (alpha, prec)

    @pytest.mark.parametrize("ell", [2, 3, 7])
    @pytest.mark.parametrize("k", [30, 100, 500])
    def test_matches_exact_residues_at_large_k(self, ell, k):
        # 6 + ell^v * y puts ord_ell of each level's g on both sides of k - 1, below which the
        # binomial sum for T**g has terms past t = 0; a generic alpha needs about k of them, but
        # (T - 1)**t starts at q^t, so none past t = prec - 1 (k = 2000 took 3 s at prec = 2)
        b = 9 if ell == 2 else 8
        alphas = [Fraction(-5, b), Fraction(ell ** (k // 2), b)] + [6 + ell**v * y for v in (k - 2, k - 1, k, k + 1) for y in (1, Fraction(-3, b))]
        for alpha in alphas:
            for prec in (1, 2, ell, ell + 1, 60):
                assert series_pow_residues(alpha, ell, k, prec) == _exact_residues(alpha, ell, k, prec), (alpha, prec)

    def test_residues_are_canonical(self):
        residues = series_pow_residues(Fraction(-1, 8), 7, 3, 400).coeffs
        assert all(type(c) is int and 0 <= c < 343 for c in residues)
        values = frac_partition_series(Fraction(-1, 8), 6).coeffs  # 1, 1/8, 17/128, ...
        assert residues[:6] == tuple(c.numerator * pow(c.denominator, -1, 343) % 343 for c in values)

    @pytest.mark.parametrize(
        "alpha, ell",
        [(Fraction(1, 2), 2), (Fraction(-1, 8), 2), (Fraction(3, 4), 2), (Fraction(1, 3), 3), (Fraction(-5, 9), 3),
         (Fraction(2, 5), 5), (Fraction(1, 25), 5), (Fraction(7, 10), 5), (Fraction(1, 7), 7), (Fraction(-3, 14), 7)],
    )
    def test_ord_closed_form_when_ell_divides_b(self, alpha, ell):
        # the j = N term of sum_j binom(alpha, j) * (f - 1)^j has the strictly smallest ord
        values = frac_partition_series(alpha, 80)
        v = padic_ord(alpha.denominator, ell)
        for n in range(1, 80):
            assert padic_ord(values.coeff(n), ell) == -n * v - factorial_ord(n, ell)

    @pytest.mark.parametrize("alpha, ell, k", [(Fraction(1, 5), 5, 1), (Fraction(-1, 8), 2, 3), (Fraction(2, 63), 3, 4)])
    def test_ell_dividing_b_refuses_like_the_exact_path(self, alpha, ell, k):
        assert series_pow_residues(alpha, ell, k, 1) == _exact_residues(alpha, ell, k, 1) == Series([1])
        for prec in (2, 3, 40):
            with pytest.raises(NotLIntegralError) as want:
                _exact_residues(alpha, ell, k, prec)
            with pytest.raises(NotLIntegralError) as got:
                series_pow_residues(alpha, ell, k, prec)
            assert (str(got.value), got.value.index) == (str(want.value), want.value.index) == (
                f"coefficient at exponent 1 is not {ell}-integral", 1
            )

    def test_refuses_what_the_exact_path_refuses(self):
        with pytest.raises(PreconditionError, match="^valuation prime 4 is not prime$"):
            series_pow_residues(Fraction(1, 3), 4, 1, 10)
        with pytest.raises(PreconditionError, match="k >= 1"):
            series_pow_residues(Fraction(1, 3), 5, 0, 10)
        with pytest.raises(PreconditionError, match="prec >= 1"):
            series_pow_residues(Fraction(1, 3), 5, 1, 0)


class TestFrobeniusCongruence:
    # (q;q)^(l^r * alpha) == (q^l;q^l)^(l^(r-1) * alpha) coefficientwise mod l^r
    @pytest.mark.parametrize("ell", [5, 7, 13])
    @pytest.mark.parametrize("r", [1, 2])
    def test_congruence(self, ell, r):
        prec = 200
        for alpha in (Fraction(1, 2), Fraction(-1, 8), Fraction(2, 5)):
            if int(alpha.denominator) % ell == 0:
                continue
            lhs = series_pow_rational(euler_product(1, prec), ell**r * alpha)
            rhs = series_pow_rational(euler_product(ell, prec), ell ** (r - 1) * alpha)
            diff = combine((1, lhs), (-1, rhs))
            for n in range(prec):
                value = diff.coeff(n)
                if value != 0:
                    assert padic_ord(value, ell) >= r, (alpha, n)


class TestDenominatorFormula:
    @pytest.mark.parametrize(
        "alpha", [Fraction(1, 2), Fraction(1, 3), Fraction(-2, 5), Fraction(1, 13)]
    )
    def test_exact_denominators(self, alpha):
        b = int(alpha.denominator)
        f = frac_partition_series(alpha, 41)
        for n in range(41):
            assert int(f.coeff(n).denominator) == expected_denominator(b, n)


def test_coeff_bounds():
    f = euler_product(1, 5)
    with pytest.raises(IndexError):
        f.coeff(5)
    assert f.coeff(-1) == 0
