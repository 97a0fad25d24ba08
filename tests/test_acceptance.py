"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line with its
runtime (run pytest with -s to see them).  All arithmetic is exact, so
every comparison is equality; the only tolerances are the runtime
budgets, asserted against a monotonic clock.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

import pytest

from congruence_workbench.arith import padic_ord
from congruence_workbench.congruence import (
    ClaimFamily,
    CongruenceClaim,
    VerificationStatus,
    build_cw_claim,
    build_t1_claim,
    build_t2_claim,
    build_t3_claim,
    find_w,
    is_d_satisfactory,
    sharpness_probe,
    verify_claim,
)
from congruence_workbench.forms import eta_power
from congruence_workbench.qseries import (
    euler_product,
    frac_partition_series,
    series_pow_rational,
)

from eigenforms import (
    QuadRational,
    a2_prime_power_sequence,
    eigenform_violations,
    eta_form,
    normalize_leading,
    serre_components,
)
from oracles import expected_denominator, naive_euler_product, partition_counts, primes_below


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"[PASS] criterion {number} ({elapsed:.2f}s <= {budget_seconds:g}s): {description}")
    assert elapsed <= budget_seconds, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_value_regression():
    with criterion(1, "p_(-1/8)(5) and p_(1/13)(7) exact", 1.0):
        assert frac_partition_series(Fraction(-1, 8), 6).coeff(5) == Fraction(55615, 262144)
        assert frac_partition_series(Fraction(1, 13), 8).coeff(7) == Fraction(
            -3395395, 62748517
        )


def test_criterion_2_t1_desk_scale():
    with criterion(2, "p_(-1/8)(49n+5) == 0 mod 49 for n <= 20, sharp at n = 0", 120.0):
        claim = build_t1_claim(Fraction(-1, 8), 6, 7, 5)
        assert claim.modulus_power == 2
        report = verify_claim(claim, 20)
        assert report.status is VerificationStatus.VERIFIED_IN_RANGE
        witness = sharpness_probe(claim, 20)
        assert witness.n == 0
        assert witness.value == Fraction(55615, 262144)
        assert padic_ord(witness.value, 7) == 2  # nonzero mod 7^3


def test_criterion_3_t2_desk_scale():
    with criterion(3, "p_(1/13)(25n+7) == 0 mod 5 for n <= 40, fails mod 25 at n = 0", 60.0):
        claim = build_t2_claim(Fraction(1, 13), 5, 7)
        report = verify_claim(claim, 40)
        assert report.status is VerificationStatus.VERIFIED_IN_RANGE
        bumped = CongruenceClaim(ClaimFamily.T2, Fraction(1, 13), 2, 5, 2, 7, 2)
        refuted = verify_claim(bumped, 40)
        assert refuted.status is VerificationStatus.COUNTEREXAMPLE
        assert refuted.counterexample.n == 0


CHAN_WANG_TUPLES = [
    # one verified tuple per d, hypotheses checked by the builder
    (6, 1, 5, 3),
    (8, 3, 5, 2),
    (-1, 4, 5, 4),
    (Fraction(-1, 8), 6, 7, 5),
    (3, 8, 5, 3),
    (3, 10, 7, 6),
    (3, 14, 11, 4),
    (4, 26, 11, 9),
]


def test_criterion_4_chan_wang_family():
    with criterion(4, "p(5n+4) == 0 mod 5 for n <= 100 plus one tuple per d", 120.0):
        ramanujan = build_cw_claim(-1, 4, 5, 4)
        assert verify_claim(ramanujan, 100).status is VerificationStatus.VERIFIED_IN_RANGE
        seen = set()
        for alpha, d, ell, r in CHAN_WANG_TUPLES:
            claim = build_cw_claim(alpha, d, ell, r)
            report = verify_claim(claim, 50)
            assert report.status is VerificationStatus.VERIFIED_IN_RANGE, (d, ell, r)
            seen.add(d)
        assert seen == {1, 3, 4, 6, 8, 10, 14, 26}


def test_criterion_5_t3_machinery():
    with criterion(5, "find_w(13,1) = 12; a_2(13^k) recursion vs closed form and expansion", 10.0):
        assert find_w(13, 1) == 12
        # The recursion with seeds a_2(1) = 1, a_2(13) = -2 has the exact
        # closed form a_2(13^k) = (-1)^k (k+1); only k = 12 vanishes mod 13
        # in each period.
        seq = a2_prime_power_sequence(13, 1, 24)
        assert seq == [((-1) ** k * (k + 1)) % 13 for k in range(25)]
        assert seq[12] == 0
        direct = eta_power(2, 13**3 + 1)
        for v in (1, 2):
            seq_v = a2_prime_power_sequence(13, v, 3)
            for i in (1, 2, 3):
                assert seq_v[i] == direct.coeff(13**i) % 13**v
        # t3 hypothesis checks at full scale; the verification itself would
        # need series precision 13^13 and is out of desk range by construction.
        alpha = Fraction(2, 13**13 + 1)
        claim = build_t3_claim(alpha, 13, 1, (13**12 - 1) // 12)
        assert claim.e == 13
        assert claim.modulus_power == 1


def test_criterion_6_vanishing_suite():
    with criterion(6, "a_d(ell*k) = 0 for d-satisfactory ell < 30, k coprime, ell*k < 500", 60.0):
        for d in (2, 4, 6, 8, 10, 14, 26):
            coeffs = eta_power(d, 500)
            ells = [ell for ell in primes_below(30) if is_d_satisfactory(d, ell)]
            assert ells, d
            for ell in ells:
                for k in range(1, (499 // ell) + 1):
                    if k % ell != 0:
                        assert coeffs.coeff(ell * k) == 0, (d, ell, k)


SERRE_WEIGHT = {10: 5, 14: 7, 26: 13}


def test_criterion_7_eigenform_suite():
    with criterion(7, "eigenform scans, component multiplicativity, reconstructions", 120.0):
        for d in (2, 4, 6, 8):
            assert eigenform_violations(eta_form(d, 300)) == []
        for d in (10, 14, 26):
            comps = serre_components(d, 200)
            for comp in comps:
                norm = normalize_leading(comp)
                assert norm.coeff(1) == 1
                for m in range(2, 200):
                    for n in range(2, 200 // m + 1):
                        if gcd(m, n) == 1 and m * n < 200:
                            assert norm.coeff(m) * norm.coeff(n) == norm.coeff(m * n)
        recon10 = (lambda c: (c[0] - c[1]).scale(Fraction(1, 96)))(serre_components(10, 200))
        expect10 = eta_power(10, 200)
        assert all(recon10.coeff(n) == expect10.coeff(n) for n in range(200))
        c14 = serre_components(14, 200)
        recon14 = (c14[0] - c14[1]).scale(QuadRational(0, 720).inverse())
        expect14 = eta_power(14, 200)
        assert all(recon14.coeff(n) == expect14.coeff(n) for n in range(200))
        c26 = serre_components(26, 200)
        recon26 = (c26[0] + c26[1] - c26[2] - c26[3]).scale(Fraction(1, 32617728))
        expect26 = eta_power(26, 200)
        assert all(recon26.coeff(n) == expect26.coeff(n) for n in range(200))


def test_criterion_8_frobenius_and_denominator_invariants():
    with criterion(8, "Frobenius congruence grid and exact denominator formula", 120.0):
        prec = 200
        for ell in (5, 7, 13):
            for r in (1, 2):
                for alpha in (Fraction(1, 2), Fraction(-1, 8), Fraction(2, 5)):
                    if int(alpha.denominator) % ell == 0:
                        continue
                    lhs = series_pow_rational(euler_product(1, prec), ell**r * alpha)
                    rhs = series_pow_rational(
                        euler_product(ell, prec), ell ** (r - 1) * alpha
                    )
                    diff = lhs - rhs
                    for n in range(prec):
                        value = diff.coeff(n)
                        if value != 0:
                            assert padic_ord(value, ell) >= r, (ell, r, alpha, n)
        for alpha in (Fraction(1, 2), Fraction(1, 3), Fraction(-2, 5), Fraction(1, 13)):
            series = frac_partition_series(alpha, 41)
            b = int(alpha.denominator)
            for n in range(41):
                assert int(series.coeff(n).denominator) == expected_denominator(b, n)


def test_criterion_9_oracle_equivalence():
    with criterion(9, "partition enumeration to n = 60; naive Euler product to prec 2000", 120.0):
        counts = partition_counts(60)
        series = frac_partition_series(-1, 61)
        assert [int(series.coeff(n)) for n in range(61)] == counts
        assert list(euler_product(1, 2000).coeffs) == naive_euler_product(1, 2000)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
