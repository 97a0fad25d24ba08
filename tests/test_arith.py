import random
from fractions import Fraction

import pytest

from congruence_workbench.arith import (
    NotLIntegralError,
    PreconditionError,
    format_rational,
    is_prime,
    legendre_symbol,
    padic_ord,
    reduce_mod_prime_power,
)

from eigenforms import QuadRational, eta_form
from oracles import eta_character_numerator, euler_criterion, kronecker_symbol, primes_below, squares_mod


class TestPadicOrd:
    def test_known_valuation(self):
        # ord_7(-1/8 - 6) = ord_7(-49/8)
        assert padic_ord(Fraction(-1, 8) - 6, 7) == 2

    def test_zero_is_refused(self):
        with pytest.raises(PreconditionError):
            padic_ord(Fraction(0), 5)
        with pytest.raises(PreconditionError):
            padic_ord(0, 7)

    def test_integer(self):
        assert padic_ord(Fraction(24), 2) == 3
        assert padic_ord(24, 2) == 3

    def test_negative_ord_from_denominator(self):
        assert padic_ord(Fraction(3, 25), 5) == -2

    def test_requires_prime(self):
        with pytest.raises(PreconditionError):
            padic_ord(Fraction(1), 6)

    def test_additive_on_products(self):
        rng = random.Random(7)
        for _ in range(200):
            x = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
            y = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
            for ell in (2, 3, 5, 7):
                assert padic_ord(x * y, ell) == padic_ord(x, ell) + padic_ord(y, ell)

    def test_ultrametric_inequality(self):
        rng = random.Random(11)
        for _ in range(200):
            x = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30))
            y = Fraction(rng.randint(-30, 30) or 1, rng.randint(1, 30))
            if x + y == 0:
                continue
            for ell in (2, 5):
                ox, oy = padic_ord(x, ell), padic_ord(y, ell)
                assert padic_ord(x + y, ell) >= min(ox, oy)
                if ox != oy:
                    assert padic_ord(x + y, ell) == min(ox, oy)


class TestLegendre:
    def test_examples(self):
        assert legendre_symbol(1, 7) == 1
        assert legendre_symbol(2, 5) == -1
        assert legendre_symbol(73, 5) == -1

    def test_rejects_even_or_composite(self):
        with pytest.raises(PreconditionError):
            legendre_symbol(3, 2)
        with pytest.raises(PreconditionError):
            legendre_symbol(3, 9)

    def test_against_euler_criterion(self):
        for ell in primes_below(51):
            if ell == 2:
                continue
            for a in range(2 * ell):
                assert legendre_symbol(a, ell) == euler_criterion(a, ell), (a, ell)
                assert legendre_symbol(a, ell) == kronecker_symbol(a, ell), (a, ell)

    def test_against_square_enumeration(self):
        for ell in (3, 5, 7, 11, 13):
            squares = squares_mod(ell)
            for a in range(ell):
                expected = 0 if a == 0 else (1 if a in squares else -1)
                assert legendre_symbol(a, ell) == expected

    def test_completely_multiplicative(self):
        for ell in primes_below(51):
            if ell == 2:
                continue
            for a in range(1, 30):
                for b in range(1, 30):
                    assert legendre_symbol(a * b, ell) == legendre_symbol(
                        a, ell
                    ) * legendre_symbol(b, ell)


class TestKronecker:
    def test_examples(self):
        assert kronecker_symbol(-1, 13) == 1
        assert kronecker_symbol(-1, 7) == -1
        for a in (-5, -1, 0, 1, 2, 100):
            assert kronecker_symbol(a, 1) == 1

    def test_rejects_zero(self):
        with pytest.raises(PreconditionError):
            kronecker_symbol(3, 0)

    def test_even_and_negative_entries(self):
        assert kronecker_symbol(-4, 2) == 0
        assert kronecker_symbol(-1, 2) == 1
        assert kronecker_symbol(3, 2) == -1
        assert kronecker_symbol(-1, -1) == -1
        assert kronecker_symbol(1, -1) == 1

    def test_multiplicative_in_lower_argument(self):
        for m1 in range(1, 200, 2):
            for m2 in range(1, 200, 2):
                for a in (-3, 2, 12):
                    assert kronecker_symbol(a, m1 * m2) == kronecker_symbol(
                        a, m1
                    ) * kronecker_symbol(a, m2)


def chi_eta(d: int, m: int) -> int:
    """The bare character of the d-th eta power at m: the table's Kronecker symbol."""
    return kronecker_symbol(eta_character_numerator(d), m)


class TestChiEta:
    def test_weight_one_entries(self):
        assert chi_eta(2, 13) == 1
        assert chi_eta(2, 7) == -1

    def test_d4_trivial(self):
        for m in range(1, 40):
            assert chi_eta(4, m) == 1

    def test_case_split(self):
        # odd coprime to 6 -> (12/.), odd multiple of 3 -> (-4/.)
        assert chi_eta(1, 11) == kronecker_symbol(12, 11)
        assert chi_eta(5, 7) == kronecker_symbol(12, 7)
        assert chi_eta(3, 5) == kronecker_symbol(-4, 5)
        assert chi_eta(9, 7) == kronecker_symbol(-4, 7)
        # one table: off the primes 2 and 3 of its level, eta_form agrees
        for d in range(1, 50):
            form = eta_form(d, 1)
            for m in range(1, 200):
                if m % 2 and m % 3:
                    assert chi_eta(d, m) == form.character_value(m), (d, m)

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            chi_eta(2, 0)


class TestReduceModPrimePower:
    def test_known_residues(self):
        x = Fraction(55615, 262144)
        assert reduce_mod_prime_power(x, 7, 2) == 0
        assert reduce_mod_prime_power(x, 7, 3) != 0

    def test_integer_case(self):
        assert reduce_mod_prime_power(Fraction(3), 5, 1) == 3

    def test_not_l_integral(self):
        with pytest.raises(NotLIntegralError):
            reduce_mod_prime_power(Fraction(1, 5), 5, 1)

    def test_residue_matches_congruence(self):
        rng = random.Random(3)
        for _ in range(300):
            x = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
            for ell, k in ((3, 2), (5, 1), (7, 3)):
                if int(x.denominator) % ell == 0:
                    continue
                res = reduce_mod_prime_power(x, ell, k)
                assert 0 <= res < ell**k
                assert (res * int(x.denominator) - int(x.numerator)) % ell**k == 0


class TestQuadRational:
    def test_embedding(self):
        x = QuadRational(Fraction(3, 4), 0)
        assert x.im == 0
        assert x == Fraction(3, 4)

    def test_norm_multiplicative(self):
        rng = random.Random(42)
        for _ in range(1000):
            x = QuadRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            y = QuadRational(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            assert (x * y).norm() == x.norm() * y.norm()

    def test_sqrt_minus_3_squares_to_minus_3(self):
        sqrt_minus_3 = QuadRational(0, 1)
        assert sqrt_minus_3 * sqrt_minus_3 == Fraction(-3)

    def test_inverse(self):
        x = QuadRational(Fraction(2, 3), Fraction(-1, 5))
        assert x * x.inverse() == 1
        assert 1 / x == x.inverse()
        with pytest.raises(ZeroDivisionError):
            QuadRational(0, 0).inverse()

    def test_mixed_arithmetic(self):
        x = QuadRational(1, 2)
        assert x + 1 == QuadRational(2, 2)
        assert 3 * x == QuadRational(3, 6)
        assert x - Fraction(1, 2) == QuadRational(Fraction(1, 2), 2)

    def test_conjugate_gives_norm(self):
        x = QuadRational(Fraction(5, 7), Fraction(1, 2))
        assert x * QuadRational(x.re, -x.im) == x.norm()

    def test_immutable(self):
        x = QuadRational(1, 2)
        for name in ("re", "im"):
            with pytest.raises(AttributeError):
                setattr(x, name, 0)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            x.extra = 0
        assert x == QuadRational(1, 2) and hash(x) == hash(QuadRational(1, 2))


class TestSerialization:
    def test_rational_format(self):
        assert format_rational(Fraction(-3395395, 62748517)) == "-3395395/62748517"
        assert format_rational(Fraction(3)) == "3/1"


def test_is_prime_small():
    known = set(primes_below(200))
    for n in range(200):
        assert is_prime(n) == (n in known)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_is_prime_rejects_psi_12():
    # the least strong pseudoprime to the twelve witnesses 2..37; witness 41 exposes it
    psi_12 = 318665857834031151167461
    assert psi_12 == 399165290221 * 798330580441
    assert not is_prime(psi_12)
    assert is_prime(399165290221) and is_prime(798330580441)
