import random
from fractions import Fraction
from math import gcd

import pytest

from congruence_workbench.arith import PreconditionError
from congruence_workbench.congruence import is_d_satisfactory
from congruence_workbench.forms import EtaPowerSpec, eta_power
from congruence_workbench.qseries import Series, euler_product, series_pow_int

from eigenforms import (
    FormExpansion,
    NotNormalizedError,
    QuadRational,
    a2_prime_power_sequence,
    divisor_sigma,
    eigenform_violations,
    eisenstein_series,
    eta_form,
    hecke_apply,
    hecke_apply_prime,
    normalize_leading,
    serre_components,
)
from oracles import combine, naive_euler_product, naive_power, primes_below


class TestDivisorSigma:
    def test_values(self):
        assert divisor_sigma(3, 1) == 1
        assert divisor_sigma(3, 2) == 9
        assert divisor_sigma(5, 2) == 33
        assert divisor_sigma(1, 12) == 28

    def test_rejects_zero(self):
        with pytest.raises(PreconditionError):
            divisor_sigma(3, 0)


class TestEisenstein:
    def test_normalizations(self):
        assert eisenstein_series(4, 3).coeff(1) == 240
        assert eisenstein_series(6, 3).coeff(1) == -504
        assert eisenstein_series(8, 10).coeff(1) == 480

    def test_e8_is_e4_squared(self):
        e4 = eisenstein_series(4, 10)
        assert eisenstein_series(8, 10) == e4 * e4

    def test_rejects_other_weights(self):
        with pytest.raises(PreconditionError):
            eisenstein_series(10, 5)


class TestEtaPowerSpec:
    def test_rescaling_identity(self):
        for d in range(1, 27):
            spec = EtaPowerSpec.for_power(d)
            assert spec.M * d == 24 * spec.t
            assert spec.M == 24 // gcd(d, 24)

    def test_rejects_nonpositive(self):
        with pytest.raises(PreconditionError):
            EtaPowerSpec.for_power(0)
        with pytest.raises(PreconditionError):
            EtaPowerSpec.for_power(-2)


class TestEtaPower:
    def test_weight_one_values(self):
        e2 = eta_power(2, 14)
        assert e2.coeff(1) == 1
        assert e2.coeff(13) == -2

    def test_support(self):
        e2 = eta_power(2, 100)
        assert all(c == 0 for n, c in enumerate(e2.coeffs) if n % 12 != 1)

    def test_support_all_powers(self):
        for d in range(1, 27):
            spec = EtaPowerSpec.for_power(d)
            f = eta_power(d, 500)
            for n, c in enumerate(f.coeffs):
                if n % spec.M != spec.t % spec.M:
                    assert c == 0, (d, n)

    def test_matches_naive_expansion(self):
        for d in range(1, 27):
            spec = EtaPowerSpec.for_power(d)
            for prec in (spec.t, spec.t + 1, spec.t + spec.M, 200):
                f = eta_power(d, prec)
                tail = prec - spec.t
                expected = [0] * spec.t
                if tail:
                    expected += naive_power(naive_euler_product(spec.M, tail), d, tail)
                assert list(f.coeffs) == expected[:prec], (d, prec)
                assert all(type(c) is int for c in f.coeffs), (d, prec)

    def test_shift_of_squared_product(self):
        # for every d, not only 2; the reference powers (q^M; q^M)_inf itself,
        # so nothing is spread along q^M, at precisions on both sides of t + k*M
        for d in range(1, 27):
            spec = EtaPowerSpec.for_power(d)
            edges = [spec.t + k * spec.M for k in range(4)]
            for prec in sorted({max(edge + step, 0) for edge in edges for step in (-1, 0, 1)} | {100}):
                expected = (0,) * min(prec, spec.t)
                if prec > spec.t:
                    expected += series_pow_int(euler_product(spec.M, prec - spec.t), d).coeffs
                assert eta_power(d, prec).coeffs == expected, (d, prec)

    def test_coprime_multiplicativity(self):
        for d in (2, 4, 6, 8, 12):
            f = eta_power(d, 300)
            for m in range(1, 300):
                for n in range(1, 300 // m + 1):
                    if gcd(m, n) == 1 and m * n < 300:
                        assert f.coeff(m) * f.coeff(n) == f.coeff(m * n), (d, m, n)


class TestHecke:
    def test_identity_operator(self):
        f = eta_form(2, 120)
        assert hecke_apply(f, 1) == f.series

    def test_t13_eigenvalue(self):
        f = eta_form(2, 13 * 151)
        result = hecke_apply(f, 13)
        expected = combine((-2, Series(f.series.coeffs[: result.prec])))
        assert result.prec >= 150
        assert result == expected

    @pytest.mark.parametrize("ell", [5, 7, 11, 37])
    def test_prime_eigenvalues(self, ell):
        f = eta_form(2, ell * 40)
        eigenvalue = f.series.coeff(ell)
        assert hecke_apply(f, ell) == combine((eigenvalue, Series(f.series.coeffs[:40])))

    @pytest.mark.parametrize("ell", [2, 3, 5, 7, 13])
    def test_prime_formula_matches_double_sum(self, ell):
        rng = random.Random(17)
        coeffs = [rng.randint(-9, 9) for _ in range(ell * 25)]
        coeffs[1] = 1
        f = FormExpansion(Series(coeffs), weight=3, level=16, character_numerator=-1)
        assert hecke_apply(f, ell) == hecke_apply_prime(f, ell)

    def test_rejects_m_zero(self):
        with pytest.raises(PreconditionError):
            hecke_apply(eta_form(2, 50), 0)

    def test_rejects_half_integral_weight(self):
        f = eta_form(3, 50)
        with pytest.raises(PreconditionError):
            hecke_apply(f, 2)


class TestEigenformViolations:
    @pytest.mark.parametrize("d", [2, 4, 6, 8])
    def test_eta_eigenforms_clean(self, d):
        assert eigenform_violations(eta_form(d, 300)) == []

    def test_eta_10_violates(self):
        f = FormExpansion(eta_power(10, 300), weight=5, level=144, character_numerator=-1)
        violations = eigenform_violations(f)
        assert violations
        assert violations[0] == (1, 5)

    def test_delta_pattern_form_violates_only_on_diagonal(self):
        # For a(n) = delta_{n,1} every product a(n)a(ell) and every a(n*ell)
        # vanishes; the lone surviving term is chi(ell) ell^(k-1) a(1) at
        # n = ell, so the violations are exactly the diagonal pairs.
        coeffs = [0] * 200
        coeffs[1] = 1
        f = FormExpansion(Series(coeffs), weight=2, level=36, character_numerator=1)
        expected = [
            (ell, ell)
            for ell in primes_below(200)
            if f.character_value(ell) != 0 and ell * ell < 200
        ]
        assert eigenform_violations(f) == expected

    def test_rejects_unnormalized(self):
        f = eta_form(2, 100)
        with pytest.raises(NotNormalizedError):
            eigenform_violations(FormExpansion(combine((2, f.series)), 1, 144, -1))


SERRE_WEIGHT = {10: 5, 14: 7, 26: 13}


class TestSerreComponents:
    def test_reconstruction_d10(self):
        comps = serre_components(10, 200)
        rebuilt = combine(*zip((Fraction(1, 96), Fraction(-1, 96)), comps))
        expected = eta_power(10, 200)
        assert all(rebuilt.coeff(n) == expected.coeff(n) for n in range(200))

    def test_reconstruction_d14(self):
        comps = serre_components(14, 200)
        scalar = QuadRational(0, 720).inverse()
        rebuilt = combine(*zip((scalar, -scalar), comps))
        expected = eta_power(14, 200)
        for n in range(200):
            value = rebuilt.coeff(n)
            assert value == expected.coeff(n), n

    def test_reconstruction_d26(self):
        comps = serre_components(26, 200)
        scalar = Fraction(1, 32617728)
        rebuilt = combine(*zip((scalar, scalar, -scalar, -scalar), comps))
        expected = eta_power(26, 200)
        for n in range(200):
            assert rebuilt.coeff(n) == expected.coeff(n), n

    def test_sqrt_terms_cancel_in_reconstruction(self):
        comps = serre_components(26, 120)
        combined = combine(*zip((1, 1, -1, -1), comps))
        for c in combined.coeffs:
            if isinstance(c, QuadRational):
                assert c.im == 0

    def test_d10_coefficients_vanish_at_satisfactory_primes(self):
        comps = serre_components(10, 500)
        for ell in primes_below(500):
            if is_d_satisfactory(10, ell):
                for comp in comps:
                    assert comp.coeff(ell) == 0, ell

    @pytest.mark.parametrize("d", [10, 14, 26])
    def test_components_are_eigenforms_up_to_200(self, d):
        for comp in serre_components(d, 200):
            form = FormExpansion(
                normalize_leading(comp),
                weight=SERRE_WEIGHT[d],
                level=144,
                character_numerator=-1,
            )
            assert eigenform_violations(form, 200) == []

    @pytest.mark.parametrize("d", [10, 14, 26])
    def test_component_multiplicativity(self, d):
        for comp in serre_components(d, 200):
            norm = normalize_leading(comp)
            assert norm.coeff(1) == 1
            for m in range(2, 200):
                for n in range(2, 200 // m + 1):
                    if gcd(m, n) == 1 and m * n < 200:
                        assert norm.coeff(m) * norm.coeff(n) == norm.coeff(m * n)

    def test_rejects_other_d(self):
        with pytest.raises(PreconditionError):
            serre_components(12, 50)


class TestA2PrimePowerSequence:
    def test_mod_13_closed_form(self):
        # a_2(13^k) = (-1)^k (k+1): the recursion seeded with a_2(13) = -2.
        seq = a2_prime_power_sequence(13, 1, 24)
        assert seq == [((-1) ** k * (k + 1)) % 13 for k in range(25)]

    def test_a2_13_12_vanishes_mod_13(self):
        assert a2_prime_power_sequence(13, 1, 12)[12] == 0

    def test_matches_direct_coefficients(self):
        direct = eta_power(2, 13**3 + 1)
        for v in (1, 2):
            seq = a2_prime_power_sequence(13, v, 3)
            for i in (1, 2, 3):
                assert seq[i] == direct.coeff(13**i) % 13**v, (v, i)

    def test_two_satisfactory_prime(self):
        # a_2(5) = 0 by support; a_2(25) = -1 (25 == 1 mod 12 is in the support).
        direct = eta_power(2, 5**3 + 1)
        for v in (1, 2):
            seq = a2_prime_power_sequence(5, v, 4)
            assert seq[1] == 0
            assert seq[2] == direct.coeff(25) % 5**v == (-1) % 5**v
            assert seq[3] == direct.coeff(125) % 5**v == 0
            assert seq[4] == 1

    @pytest.mark.parametrize("ell, i_max", [(2, 10), (3, 6), (7, 3), (11, 2), (37, 1)])
    def test_character_zero_at_primes_of_the_level(self, ell, i_max):
        # chi(ell) comes from eta_form(2, .), whose level 144 zeroes it at 2 and 3
        direct = eta_power(2, ell**i_max + 1)
        for v in (1, 2):
            seq = a2_prime_power_sequence(ell, v, i_max)
            assert seq == [direct.coeff(ell**i) % ell**v for i in range(i_max + 1)], v

    def test_rejects_nonprime(self):
        with pytest.raises(PreconditionError):
            a2_prime_power_sequence(6, 1, 3)


class TestSatisfactoryVanishing:
    def test_a_d_vanishes_along_satisfactory_primes(self):
        for d in (2, 4, 6, 8, 10, 14, 26):
            f = eta_power(d, 500)
            for ell in primes_below(30):
                if not is_d_satisfactory(d, ell):
                    continue
                for k in range(1, 500 // ell + 1):
                    if k % ell != 0 and ell * k < 500:
                        assert f.coeff(ell * k) == 0, (d, ell, k)
