import copy
import json
import pickle
from fractions import Fraction
from math import gcd

import pytest

from congruence_workbench.arith import NotLIntegralError, PreconditionError, padic_ord
from congruence_workbench.congruence import (
    ClaimFamily,
    CongruenceClaim,
    Counterexample,
    HypothesisError,
    PrecisionCapExceeded,
    VerificationStatus,
    build_cw_claim,
    build_remark_claim,
    build_t1_claim,
    build_t2_claim,
    build_t3_claim,
    certificate_line,
    certificate_record,
    chan_wang_condition,
    find_residues,
    find_w,
    is_d_satisfactory,
    sharpness_probe,
    verify_claim,
)
from congruence_workbench import qseries

from eigenforms import a2_prime_power_sequence, find_w_by_search
from oracles import (
    primes_below,
    progression_fractions,
    sharpness_probe_by_fractions,
    verify_claim_by_fractions,
)


class TestSatisfactoryPredicate:
    def test_examples(self):
        assert is_d_satisfactory(6, 7)
        assert not is_d_satisfactory(2, 13)
        assert not is_d_satisfactory(14, 5)
        assert not is_d_satisfactory(26, 11)
        assert is_d_satisfactory(26, 23)
        assert is_d_satisfactory(2, 2) and is_d_satisfactory(2, 3)

    def test_rejects_unknown_d(self):
        with pytest.raises(PreconditionError):
            is_d_satisfactory(12, 5)

    def test_rejects_composite(self):
        with pytest.raises(PreconditionError):
            is_d_satisfactory(2, 15)


class TestChanWangCondition:
    def test_examples(self):
        assert chan_wang_condition(1, 5, 3)
        assert chan_wang_condition(4, 5, 4)
        assert not any(chan_wang_condition(6, 5, r) for r in range(120))

    def test_d3_accepts_zero_symbol(self):
        # (8r+1 / ell) != 1 includes the ell | 8r+1 case
        assert chan_wang_condition(3, 5, 3)  # 8*3+1 = 25

    def test_rejects_unknown_d(self):
        with pytest.raises(PreconditionError):
            chan_wang_condition(2, 5, 1)

    def test_ell_2_refuses_d1_and_d3(self):
        # p_1 and p_3 have odd coefficients on both progressions 2n and 2n + 1
        for d in (1, 3):
            p_d = qseries.series_pow_int(qseries.euler_product(1, 20), d).coeffs
            assert all(any(c % 2 for c in p_d[r::2]) for r in (0, 1))
            assert not any(chan_wang_condition(d, 2, r) for r in range(4))
        for alpha, d in ((-1, 1), (1, 3)):
            with pytest.raises(HypothesisError) as excinfo:
                build_cw_claim(alpha, d, 2, 0)
            assert excinfo.value.hypothesis == "chan_wang_condition"


# The two hypotheses' inert-prime tables as they were written before they shared one helper.
_SATISFACTORY = {
    4: lambda ell: ell % 6 == 5,
    8: lambda ell: ell % 6 == 5,
    14: lambda ell: ell % 6 == 5 and ell != 5,
    6: lambda ell: ell >= 7 and ell % 4 == 3,
    10: lambda ell: ell >= 7 and ell % 4 == 3,
    26: lambda ell: ell % 12 == 11 and ell != 11,
}
_CHAN_WANG = {
    4: lambda ell: ell % 6 == 5,
    8: lambda ell: ell % 6 == 5,
    14: lambda ell: ell % 6 == 5,
    6: lambda ell: ell >= 7 and ell % 4 == 3,
    10: lambda ell: ell >= 7 and ell % 4 == 3,
    26: lambda ell: ell % 12 == 11,
}


def test_inert_table_pins_both_hypotheses():
    for d in (4, 6, 8, 10, 14, 26):
        for ell in primes_below(200):
            assert is_d_satisfactory(d, ell) == _SATISFACTORY[d](ell), (d, ell)
            for r in range(ell):
                expected = _CHAN_WANG[d](ell) and (24 * r + d) % ell == 0
                assert chan_wang_condition(d, ell, r) == expected, (d, ell, r)
    # they differ only at the remark pairs
    differ = {
        (d, ell)
        for d in (4, 6, 8, 10, 14, 26)
        for ell in primes_below(200)
        if is_d_satisfactory(d, ell) != any(chan_wang_condition(d, ell, r) for r in range(ell))
    }
    assert differ == {(14, 5), (26, 11)}


class TestBuilders:
    def test_cw_ramanujan(self):
        claim = build_cw_claim(-1, 4, 5, 4)
        assert (claim.e, claim.r, claim.modulus_power) == (1, 4, 1)
        assert claim.family is ClaimFamily.CW

    def test_cw_residue_solving(self):
        claim = build_cw_claim(Fraction(-1, 8), 6, 7, 5)
        assert claim.r == 5

    def test_cw_divisibility_failure(self):
        with pytest.raises(HypothesisError) as excinfo:
            build_cw_claim(-1, 4, 7, 4)
        assert excinfo.value.hypothesis == "ell_divides_a_minus_db"

    def test_cw_canonicalizes_r(self):
        assert build_cw_claim(-1, 4, 5, 9).r == 4

    def test_t1_example(self):
        claim = build_t1_claim(Fraction(-1, 8), 6, 7, 5)
        assert (claim.e, claim.modulus_power, claim.r) == (2, 2, 5)
        assert claim.progression_modulus == 49

    def test_t1_ord_hypothesis(self):
        # 4*12 + 1 = 49 has ord 2, not 1
        with pytest.raises(HypothesisError) as excinfo:
            build_t1_claim(Fraction(-1, 8), 6, 7, 12)
        assert excinfo.value.hypothesis == "residue_ord_one"

    def test_t1_rejects_unsatisfactory_prime(self):
        with pytest.raises(HypothesisError) as excinfo:
            build_t1_claim(Fraction(-1, 8), 6, 13, 5)
        assert excinfo.value.hypothesis == "d_satisfactory"

    def test_t2_example(self):
        claim = build_t2_claim(Fraction(1, 13), 5, 7)
        assert (claim.e, claim.modulus_power) == (2, 1)
        assert padic_ord(claim.alpha - 2, 5) == 2

    def test_t2_ord_failure(self):
        with pytest.raises(HypothesisError) as excinfo:
            build_t2_claim(Fraction(1, 13), 5, 2)  # 12*2+1 = 25, ord 2
        assert excinfo.value.hypothesis == "residue_ord_one"

    def test_t2_rejects_denominator(self):
        with pytest.raises(HypothesisError) as excinfo:
            build_t2_claim(Fraction(1, 5), 5, 7)
        assert excinfo.value.hypothesis == "ell_coprime_to_denominator"

    def test_t3_full_scale_hypotheses(self):
        b = (13**13 + 1) // 2
        alpha = Fraction(1, b)
        r = (13**12 - 1) // 12
        assert padic_ord(alpha - 2, 13) == 13
        assert padic_ord(12 * r + 1, 13) == 12
        claim = build_t3_claim(alpha, 13, 1, r)
        assert claim.e == 13
        assert claim.progression_modulus == 13**13
        assert claim.modulus_power == 1

    def test_t3_ord_mismatch_named(self):
        # ord_13(15 - 2) = 1, but v + w = 1 + 12 = 13
        with pytest.raises(HypothesisError) as excinfo:
            build_t3_claim(15, 13, 1, (13**12 - 1) // 12)
        assert excinfo.value.hypothesis == "alpha_ord_equals_v_plus_w"

    def test_t3_two_satisfactory_matches_t2_shape(self):
        t3 = build_t3_claim(Fraction(1, 13), 5, 1, 7)
        t2 = build_t2_claim(Fraction(1, 13), 5, 7)
        assert (t3.e, t3.r, t3.modulus_power) == (t2.e, t2.r, t2.modulus_power)

    def test_remark_powers(self):
        # ord_5(alpha - 14) = 2 -> power 1 for d = 14
        alpha = 14 + Fraction(25, 13)
        claim = build_remark_claim(alpha, 14, 5, find_residues(14, 5, 1, 1)[0])
        assert claim.modulus_power == 1
        # ord_11(alpha - 26) = 3 -> power 1 for d = 26
        alpha = 26 + Fraction(11**3, 13)
        claim = build_remark_claim(alpha, 26, 11, find_residues(26, 11, 1, 1)[0])
        assert claim.modulus_power == 1

    def test_remark_rejects_power_zero(self):
        alpha = 14 + Fraction(5, 13)
        with pytest.raises(HypothesisError) as excinfo:
            build_remark_claim(alpha, 14, 5, find_residues(14, 5, 1, 1)[0])
        assert excinfo.value.hypothesis == "modulus_power_positive"

    def test_remark_rejects_other_pairs(self):
        with pytest.raises(HypothesisError):
            build_remark_claim(Fraction(1, 2), 14, 11, 1)

    @pytest.mark.parametrize(
        "check, args",
        [(is_d_satisfactory, (6, 9)), (chan_wang_condition, (1, 9, 0)), (find_w, (9, 1)), (find_residues, (6, 9, 1, 1))],
    )
    def test_nonprime_refusal_names_only_the_number(self, check, args):
        with pytest.raises(PreconditionError, match="^9 is not prime$"):
            check(*args)

    def test_claim_type_validates(self):
        with pytest.raises(PreconditionError, match="^claim prime 6 is not prime$"):
            CongruenceClaim(ClaimFamily.CW, -1, 4, 6, 1, 4, 1)
        with pytest.raises(PreconditionError, match=r"^claim residue r = 5 outside \[0, 5\^1\)$"):
            CongruenceClaim(ClaimFamily.CW, -1, 4, 5, 1, 5, 1)
        with pytest.raises(PreconditionError, match="^claim requires e >= 1 and modulus_power >= 1$"):
            CongruenceClaim(ClaimFamily.CW, -1, 4, 5, 1, 4, 0)
        with pytest.raises(HypothesisError, match="^ell_coprime_to_denominator: 5 divides"):
            CongruenceClaim(ClaimFamily.T2, Fraction(1, 5), 2, 5, 2, 7, 1)
        with pytest.raises(ValueError, match="'bogus' is not a valid ClaimFamily"):
            CongruenceClaim("bogus", -1, 4, 5, 1, 4, 1)


# One refusal per hypothesis name of each builder, in the builder's check order: (builder, args,
# hypothesis, message).  The cw, t1 and t2 messages are pinned byte for byte; None leaves one unpinned.
_REFUSALS = [
    (build_cw_claim, (-1, 5, 5, 4), "d_in_family_list", "d = 5 not in (1, 3, 4, 6, 8, 10, 14, 26)"),
    (build_cw_claim, (Fraction(1, 5), 4, 5, 4), "ell_coprime_to_denominator", "5 divides denominator(1/5)"),
    (build_cw_claim, (-1, 4, 7, 4), "ell_divides_a_minus_db", "7 does not divide a - d*b = -5"),
    (build_cw_claim, (-1, 4, 5, 1), "chan_wang_condition", "condition for d = 4 fails at (ell, r) = (5, 1)"),
    (build_t1_claim, (Fraction(-1, 8), 5, 7, 5), "d_in_family_list", "d = 5 not in (4, 6, 8, 10, 14, 26)"),
    (build_t1_claim, (Fraction(-1, 8), 6, 13, 5), "d_satisfactory", "13 is not 6-satisfactory"),
    (build_t1_claim, (Fraction(1, 7), 6, 7, 5), "ell_coprime_to_denominator", "7 divides denominator(1/7)"),
    (build_t1_claim, (Fraction(-1, 8), 6, 7, 12), "residue_ord_one",
     "ord_7((24/gcd)*r + d/gcd) = ord_7(49) = 2, need 1"),
    (build_t1_claim, (6, 6, 7, 5), "alpha_distinct_from_d", "alpha = 6 gives an infinite ord"),
    (build_t1_claim, (Fraction(1, 8), 6, 7, 5), "alpha_ord_positive", "ord_7(alpha - 6) = 0, need >= 1"),
    (build_t2_claim, (Fraction(1, 13), 13, 7), "two_satisfactory", "13 == 1 (mod 12) is excluded"),
    (build_t2_claim, (Fraction(1, 5), 5, 7), "ell_coprime_to_denominator", "5 divides denominator(1/5)"),
    (build_t2_claim, (Fraction(1, 13), 5, 2), "residue_ord_one", "ord_5((24/gcd)*r + d/gcd) = ord_5(25) = 2, need 1"),
    (build_t2_claim, (2, 5, 7), "alpha_distinct_from_d", "alpha = 2 gives an infinite ord"),
    (build_t2_claim, (7, 5, 7), "alpha_ord_at_least_two", "ord_5(alpha - 2) = 1, need >= 2"),
    (build_t3_claim, (Fraction(29, 2), 5, 0, 7), "v_positive", None),
    (build_t3_claim, (Fraction(1, 5), 5, 1, 7), "ell_coprime_to_denominator", None),
    (build_t3_claim, (2, 5, 1, 7), "alpha_distinct_from_d", None),
    (build_t3_claim, (15, 13, 1, 0), "alpha_ord_equals_v_plus_w", None),
    (build_t3_claim, (Fraction(29, 2), 5, 1, 0), "residue_ord_equals_w", None),
    (build_remark_claim, (Fraction(1, 2), 14, 11, 1), "remark_pair", None),
    (build_remark_claim, (Fraction(1, 5), 14, 5, 4), "ell_coprime_to_denominator", None),
    (build_remark_claim, (14 + Fraction(25, 13), 14, 5, 5), "residue_ord_one", None),
    (build_remark_claim, (14, 14, 5, 4), "alpha_distinct_from_d", None),
    (build_remark_claim, (14 + Fraction(5, 13), 14, 5, 4), "modulus_power_positive", None),
]


@pytest.mark.parametrize(
    "builder, args, hypothesis, message", _REFUSALS, ids=[f"{b.__name__}-{h}" for b, _, h, _ in _REFUSALS]
)
def test_each_hypothesis_refuses_by_name(builder, args, hypothesis, message):
    with pytest.raises(HypothesisError) as excinfo:
        builder(*args)
    assert excinfo.value.hypothesis == hypothesis
    if message is not None:
        assert str(excinfo.value) == f"{hypothesis}: {message}"


# Two hypotheses fail in each case; the one checked first is named.
_ORDER = [
    (build_t1_claim, (Fraction(1, 7), 6, 7, 12), "ell_coprime_to_denominator"),  # and residue_ord_one
    (build_remark_claim, (Fraction(1, 11), 14, 11, 1), "remark_pair"),  # and ell_coprime_to_denominator
    (build_t3_claim, (Fraction(1, 5), 5, 0, 7), "v_positive"),  # and ell_coprime_to_denominator
    (build_cw_claim, (Fraction(1, 5), 5, 5, 4), "d_in_family_list"),  # and ell_coprime_to_denominator
]


@pytest.mark.parametrize("builder, args, hypothesis", _ORDER, ids=[b.__name__ for b, _, _ in _ORDER])
def test_first_failed_hypothesis_is_named(builder, args, hypothesis):
    with pytest.raises(HypothesisError) as excinfo:
        builder(*args)
    assert excinfo.value.hypothesis == hypothesis


def test_remark_and_t3_refusal_messages():
    with pytest.raises(HypothesisError) as excinfo:
        build_remark_claim(14 + Fraction(5, 13), 14, 5, 4)
    assert str(excinfo.value) == "modulus_power_positive: ord_5(alpha - 14) = 1, need >= 2"
    with pytest.raises(HypothesisError) as excinfo:
        build_t3_claim(Fraction(29, 2), 5, 1, 0)
    assert str(excinfo.value) == "residue_ord_equals_w: ord_5((24/gcd)*r + d/gcd) = ord_5(1) = 0, need 1"


class TestFindW:
    def test_known_value(self):
        assert find_w(13, 1) == 12

    def test_support_zero_prime(self):
        assert find_w(5, 3) == 1

    def test_mod_169(self):
        # a_2(13^k) = (-1)^k (k+1) exactly, so the first zero mod 169 is at
        # k = 168; cross-check the closed form by exact integer recursion.
        exact = [1, -2]
        for _ in range(200):
            exact.append(-2 * exact[-1] - exact[-2])
        assert all(exact[k] == (-1) ** k * (k + 1) for k in range(len(exact)))
        first = next(k for k in range(1, 200) if exact[k] % 169 == 0)
        assert find_w(13, 2) == first == 168

    def test_bound_property(self):
        for ell in (2, 3, 5, 7, 11, 13, 37):
            for v in (1, 2):
                assert 1 <= find_w(ell, v) < ell ** (2 * v)

    def test_rejects_nonprime(self):
        with pytest.raises(PreconditionError):
            find_w(4, 1)

    def test_rejects_v_below_one(self):
        with pytest.raises(PreconditionError):
            find_w(13, 0)

    def test_closed_form_matches_search(self):
        cases = [(ell, v) for ell in primes_below(60) for v in (1, 2, 3)] + [(13, 6)]
        for ell, v in cases:
            assert find_w(ell, v) == find_w_by_search(ell, v), (ell, v)

    def test_large_v(self):
        assert find_w(13, 10) == 13**10 - 1 == 137858491848
        assert find_w(11, 10**9) == 1
        with pytest.raises(PreconditionError):
            find_w(13, 10**9)


class TestPeriodStructure:
    @pytest.mark.parametrize("v", [1, 2])
    def test_pure_periodicity_from_index_zero(self, v):
        mod = 13**v
        seq = a2_prime_power_sequence(13, v, 6 * mod + 2)
        state0 = (seq[0], seq[1])
        period = next(
            s for s in range(1, len(seq) - 1) if (seq[s], seq[s + 1]) == state0
        )
        for i in range(len(seq) - period):
            assert seq[i + period] == seq[i]


class TestFindResidues:
    def test_examples(self):
        assert find_residues(6, 7, 1, 1) == [5]
        assert find_residues(2, 5, 1, 1) == [7]

    def test_t3_residue(self):
        # smallest r with ord_13(12r + 1) = 12 is (13^12 - 1)/12
        r = find_residues(2, 13, 12, 1)[0]
        assert r == (13**12 - 1) // 12
        assert padic_ord(12 * r + 1, 13) == 12

    def test_exact_ord_and_increasing(self):
        for d, ell, target in ((2, 5, 1), (2, 5, 2), (6, 7, 1), (4, 11, 2)):
            rs = find_residues(d, ell, target, 5)
            assert rs == sorted(set(rs))
            step, offset = 24 // gcd(d, 24), d // gcd(d, 24)
            for r in rs:
                assert padic_ord(step * r + offset, ell) == target

    def test_rejects_shared_factor(self):
        with pytest.raises(PreconditionError):
            find_residues(1, 2, 1, 1)


class TestVerifyClaim:
    def test_t1_desk_scale(self):
        claim = build_t1_claim(Fraction(-1, 8), 6, 7, 5)
        report = verify_claim(claim, 10)
        assert report.status is VerificationStatus.VERIFIED_IN_RANGE
        assert report.counterexample is None

    def test_cw_ramanujan_range(self):
        claim = build_cw_claim(-1, 4, 5, 4)
        assert verify_claim(claim, 100).status is VerificationStatus.VERIFIED_IN_RANGE

    def test_falsified_claim_counterexample(self):
        bumped = CongruenceClaim(ClaimFamily.T2, Fraction(1, 13), 2, 5, 2, 7, 2)
        report = verify_claim(bumped, 5)
        assert report.status is VerificationStatus.COUNTEREXAMPLE
        ce = report.counterexample
        assert ce.n == 0
        assert ce.value == Fraction(-3395395, 62748517)
        assert ce.ord == 1

    def test_not_l_integral_is_precondition_failed(self):
        # No builder or constructor emits a claim with ell | denominator(alpha); one forced
        # past them meets the ell-adic kernel's refusal of exponent 1, a PreconditionError.
        claim = object.__new__(CongruenceClaim)
        for field, value in (
            ("family", ClaimFamily.CW),
            ("alpha", Fraction(1, 5)),
            ("d", 1),
            ("ell", 5),
            ("e", 1),
            ("r", 3),
            ("modulus_power", 1),
        ):
            object.__setattr__(claim, field, value)
        for check in (verify_claim, sharpness_probe):
            with pytest.raises(PreconditionError) as excinfo:
                check(claim, 4)
            assert type(excinfo.value) is NotLIntegralError and excinfo.value.index == 1
            assert str(excinfo.value) == "coefficient at exponent 1 is not 5-integral"

    def test_precision_cap(self):
        claim = build_t1_claim(Fraction(-1, 8), 6, 7, 5)
        with pytest.raises(PrecisionCapExceeded):
            verify_claim(claim, 100, max_precision=1000)

    def test_builder_smoke_grid(self):
        # every claim a builder accepts should verify on a small range
        grid = [
            build_cw_claim(6, 1, 5, 3),
            build_cw_claim(8, 3, 5, 2),
            build_cw_claim(-1, 4, 5, 4),
            build_cw_claim(Fraction(-1, 8), 6, 7, 5),
            build_cw_claim(3, 8, 5, 3),
            build_cw_claim(3, 10, 7, 6),
            build_cw_claim(3, 14, 11, 4),
            build_cw_claim(4, 26, 11, 9),
            build_t1_claim(Fraction(-1, 8), 6, 7, 5),
            build_t2_claim(Fraction(1, 13), 5, 7),
            build_t3_claim(Fraction(1, 13), 5, 1, 7),
        ]
        for claim in grid:
            report = verify_claim(claim, 10)
            assert report.status is VerificationStatus.VERIFIED_IN_RANGE, claim

    def test_t1_hypotheses_imply_cw_at_projected_residue(self):
        cases = [
            (Fraction(-1, 8), 6, 7, 5),
            (Fraction(1, 4), 4, 5, 9),
            (3, 10, 7, 6),
            (3, 8, 5, 3),
        ]
        for alpha, d, ell, r_seed in cases:
            t1 = build_t1_claim(alpha, d, ell, r_seed)
            cw = build_cw_claim(alpha, d, ell, t1.r % ell)
            assert cw.r == t1.r % ell
            assert verify_claim(cw, 5).status is VerificationStatus.VERIFIED_IN_RANGE


class TestSharpness:
    def test_t1_witness(self):
        claim = build_t1_claim(Fraction(-1, 8), 6, 7, 5)
        witness = sharpness_probe(claim, 5)
        assert witness.n == 0
        assert witness.value == Fraction(55615, 262144)

    def test_t2_witness(self):
        claim = build_t2_claim(Fraction(1, 13), 5, 7)
        witness = sharpness_probe(claim, 5)
        assert witness.n == 0
        assert witness.value == Fraction(-3395395, 62748517)

    def test_inconclusive(self):
        # along 7n+5 the n = 0 value has ord 2, above the mod-7 claim's power
        claim = build_cw_claim(Fraction(-1, 8), 6, 7, 5)
        assert sharpness_probe(claim, 0) is None


class TestCertificates:
    def test_record_fields_and_order(self):
        claim = build_t2_claim(Fraction(1, 13), 5, 7)
        report = verify_claim(claim, 10)
        record = certificate_record(report)
        assert list(record) == [
            "family",
            "alpha",
            "d",
            "ell",
            "e",
            "r",
            "modulus_power",
            "n_max",
            "status",
            "artifact_version",
        ]
        assert record["alpha"] == "1/13"
        assert record["status"] == "VERIFIED_IN_RANGE"

    def test_counterexample_serialization(self):
        bumped = CongruenceClaim(ClaimFamily.T2, Fraction(1, 13), 2, 5, 2, 7, 2)
        line = certificate_line(verify_claim(bumped, 3))
        parsed = json.loads(line)
        assert parsed["counterexample"] == {
            "n": 0,
            "value": "-3395395/62748517",
            "ord": 1,
        }

    def test_line_deterministic(self):
        claim = build_cw_claim(-1, 4, 5, 4)
        a = certificate_line(verify_claim(claim, 20))
        b = certificate_line(verify_claim(claim, 20))
        assert a == b


class TestClaimValue:
    def test_fields_cannot_be_assigned_or_deleted(self):
        claim = build_cw_claim(-1, 4, 5, 4)
        for name in CongruenceClaim.__slots__:
            with pytest.raises(AttributeError):
                setattr(claim, name, 0)
            with pytest.raises(AttributeError):
                delattr(claim, name)
        with pytest.raises(AttributeError):
            claim.extra = 0
        assert claim == build_cw_claim(-1, 4, 5, 4)

    def test_fields_in_order(self):
        assert CongruenceClaim.__slots__ == ("family", "alpha", "d", "ell", "e", "r", "modulus_power")

    def test_equal_claims_hash_alike(self):
        a = build_t1_claim(Fraction(-1, 8), 6, 7, 5)
        b = CongruenceClaim("t1", Fraction(-2, 16), 6, 7, 2, 5, 2)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != build_t1_claim(Fraction(97, 8), 6, 7, 5)
        assert a != _forced(a, modulus_power=3)

    def test_never_equals_its_field_tuple(self):
        claim = build_cw_claim(-1, 4, 5, 4)
        fields = tuple(getattr(claim, name) for name in CongruenceClaim.__slots__)
        assert claim != fields
        assert fields != claim

    def test_repr(self):
        assert repr(build_cw_claim(-1, 4, 5, 4)) == (
            "CongruenceClaim(family=<ClaimFamily.CW: 'cw'>, alpha=Fraction(-1, 1), "
            "d=4, ell=5, e=1, r=4, modulus_power=1)"
        )


def test_infinity_never_in_counterexample_ord():
    claim = build_cw_claim(-1, 4, 5, 4)
    assert "counterexample" not in certificate_record(verify_claim(claim, 30))
    # a counterexample has a nonzero residue, so its value is nonzero and its ord an int
    counterexample = certificate_record(verify_claim(_forced(claim, modulus_power=2), 30))["counterexample"]
    assert type(counterexample["ord"]) is int and counterexample["value"] != "0/1"


_COPIERS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("copier", ["copy", "deepcopy", "pickle"])
def test_immutable_values_copy_and_pickle(copier):
    claim = build_t1_claim(Fraction(-1, 8), 6, 7, 5)
    report = verify_claim(_forced(claim, modulus_power=3), 2)  # holds a claim and a counterexample
    series = qseries.frac_partition_series(Fraction(1, 13), 5)
    for value in (claim, report, series):
        twin = _COPIERS[copier](value)
        assert twin == value and type(twin) is type(value)
    assert report.status is VerificationStatus.COUNTEREXAMPLE
    # the copy is rebuilt through the constructor, which refuses ell | b as it refuses any claim
    with pytest.raises(HypothesisError, match="ell_coprime_to_denominator"):
        _COPIERS[copier](_forced(claim, alpha=Fraction(1, 7)))


@pytest.mark.parametrize("copier", _COPIERS)
def test_hypothesis_error_copies_and_pickles(copier):
    with pytest.raises(HypothesisError) as excinfo:
        build_t1_claim(Fraction(-1, 8), 6, 13, 5)
    twin = _COPIERS[copier](excinfo.value)
    assert type(twin) is HypothesisError and twin.hypothesis == "d_satisfactory"
    assert str(twin) == str(excinfo.value) == "d_satisfactory: 13 is not 6-satisfactory"


def _forced(claim, **changes):
    """The claim with some fields changed, built past every validation."""
    forced = object.__new__(CongruenceClaim)
    for name in CongruenceClaim.__slots__:
        object.__setattr__(forced, name, changes.get(name, getattr(claim, name)))
    return forced


# Every claim of the claim-deep and cli-short benchmark pools, at each range
# those workloads check it to.
_POOL_CLAIMS = {}
for _alpha in ("-1/8", "97/8", "-99/8"):
    for _n_max in (2, 20):
        _POOL_CLAIMS[f"t1-{_alpha}-n{_n_max}"] = (lambda a=_alpha: build_t1_claim(Fraction(a), 6, 7, 5), _n_max)
for _alpha in ("1/13", "51/13", "-49/13"):
    for _n_max in (4, 40):
        _POOL_CLAIMS[f"t2-{_alpha}-n{_n_max}"] = (lambda a=_alpha: build_t2_claim(Fraction(a), 5, 7), _n_max)
for _alpha in ("29/2", "-21/2"):
    _POOL_CLAIMS[f"t3-{_alpha}"] = (lambda a=_alpha: build_t3_claim(Fraction(a), 5, 1, 7), 40)
for _alpha in ("67/3", "92/3"):
    _POOL_CLAIMS[f"remark-{_alpha}"] = (lambda a=_alpha: build_remark_claim(Fraction(a), 14, 5, 4), 40)
_POOL_CLAIMS["cw-ramanujan"] = (lambda: build_cw_claim(-1, 4, 5, 4), 200)
for _d, _ell, _r, _alphas in (
    (1, 5, 3, (-4, 6)), (3, 5, 2, (-2, 3)), (4, 5, 4, (-11, 14)), (6, 7, 5, (-8, 13)),
    (8, 5, 3, (-2, 3)), (10, 7, 6, (-11, 10)), (14, 5, 4, (-11, 14)), (26, 11, 9, (-7, 4)),
):
    for _alpha in _alphas:
        _POOL_CLAIMS[f"cw-d{_d}-{_alpha}"] = (
            lambda a=_alpha, d=_d, ell=_ell, r=_r: build_cw_claim(a, d, ell, r), 50
        )


class TestChecksAgainstFractionOracle:
    """verify_claim and sharpness_probe read int numerators; the oracle reads Fractions."""

    def _assert_same(self, claim, n_max, values):
        report = verify_claim(claim, n_max)
        expected = verify_claim_by_fractions(claim, n_max, values)
        assert report == expected
        assert certificate_line(report) == certificate_line(expected)
        if report.counterexample is not None:
            assert type(report.counterexample.value) is Fraction
        assert sharpness_probe(claim, n_max) == sharpness_probe_by_fractions(claim, n_max, values)
        return report

    @pytest.mark.parametrize("case", sorted(_POOL_CLAIMS))
    def test_pool_claim(self, case):
        build, n_max = _POOL_CLAIMS[case]
        claim = build()
        values = progression_fractions(claim, n_max)
        report = self._assert_same(claim, n_max, values)
        assert report.status is VerificationStatus.VERIFIED_IN_RANGE
        # one power more than the claim states: a witness in range refutes it
        raised = _forced(claim, modulus_power=claim.modulus_power + 1)
        raised_report = self._assert_same(raised, n_max, values)
        if sharpness_probe_by_fractions(claim, n_max, values) is not None:
            assert raised_report.status is VerificationStatus.COUNTEREXAMPLE

    @pytest.mark.parametrize("m", [10, 30, 100])
    @pytest.mark.parametrize("y", [1, Fraction(1, 8), -3])
    def test_t1_claim_at_large_modulus_power(self, m, y):
        # sharpness reads mod 7^(m+1), where alpha mod 7^(m+1) has about (m+1)*log2(7) bits
        claim = build_t1_claim(6 + 7**m * y, 6, 7, 5)
        values = progression_fractions(claim, 3)
        assert self._assert_same(claim, 3, values).status is VerificationStatus.VERIFIED_IN_RANGE
        self._assert_same(_forced(claim, modulus_power=m + 1), 3, values)

    def _assert_same_refusal(self, claim, n_max, values):
        """verify_claim, sharpness_probe and their oracles all refuse, naming exponent 1."""
        pairs = ((verify_claim, verify_claim_by_fractions), (sharpness_probe, sharpness_probe_by_fractions))
        for check, oracle in pairs:
            with pytest.raises(NotLIntegralError) as got:
                check(claim, n_max)
            with pytest.raises(NotLIntegralError) as want:
                oracle(claim, n_max, values)
            assert got.value.index == want.value.index == 1
            assert str(got.value) == str(want.value) == f"coefficient at exponent 1 is not {claim.ell}-integral"

    @pytest.mark.parametrize(
        "alpha, ell, e, r",
        [(Fraction(1, 5), 5, 1, 3), (Fraction(1, 5), 5, 1, 0), (Fraction(2, 7), 7, 1, 0), (Fraction(-3, 5), 5, 2, 4)],
    )
    def test_not_l_integral_note_names_same_exponent(self, alpha, ell, e, r):
        # the kernel's refusal names the exponent that the Fraction series shows first failing
        base = build_cw_claim(-1, 4, 5, 4)
        claim = _forced(base, alpha=alpha, ell=ell, e=e, r=r)
        self._assert_same_refusal(claim, 6, progression_fractions(claim, 6))

    @pytest.mark.parametrize(
        "alpha, ell", [(Fraction(1, 5), 5), (Fraction(-1, 8), 2), (Fraction(2, 9), 3), (Fraction(3, 49), 7)]
    )
    @pytest.mark.parametrize("e, r", [(1, 0), (1, 1), (2, 0), (2, 3)])
    @pytest.mark.parametrize("n_max", [0, 1, 4])
    def test_ell_dividing_b_matches_the_exact_path(self, alpha, ell, e, r, n_max):
        # every coefficient past the constant term has a negative ord, so only precision 1 is read
        for power in (1, 2):
            claim = _forced(build_cw_claim(-1, 4, 5, 4), alpha=alpha, ell=ell, e=e, r=r, modulus_power=power)
            values = progression_fractions(claim, n_max)
            if r == 0 and n_max == 0:
                report = self._assert_same(claim, n_max, values)
                assert report.status is VerificationStatus.COUNTEREXAMPLE
                assert report.counterexample == Counterexample(n=0, value=Fraction(1), ord=0)
                assert sharpness_probe(claim, n_max) is None
            else:
                self._assert_same_refusal(claim, n_max, values)

    def test_sharpness_reads_ord_relative_to_the_denominator(self):
        # ell | b: every coefficient past the constant term has a negative ord, so at every
        # modulus_power up to 59 sharpness refuses past precision 1, as its oracle does, and
        # reads None at precision 1
        base = build_cw_claim(-1, 4, 5, 4)
        claim = _forced(base, alpha=Fraction(1, 5), r=0)
        values = progression_fractions(claim, 6)
        for power in range(1, 60):
            forced = _forced(claim, modulus_power=power)
            with pytest.raises(NotLIntegralError) as got:
                sharpness_probe(forced, 6)
            with pytest.raises(NotLIntegralError) as want:
                sharpness_probe_by_fractions(forced, 6, values)
            assert got.value.index == want.value.index == 1
            assert sharpness_probe(forced, 0) is None
            assert sharpness_probe_by_fractions(forced, 0, qseries.Series(values.coeffs[:1])) is None

    def test_verified_claim_builds_no_coefficient_fraction(self, monkeypatch):
        # qseries.series_pow_rational is where a coefficient becomes a Fraction
        def refuse(*args):
            raise AssertionError("a coefficient Fraction was built")

        monkeypatch.setattr(qseries, "Fraction", refuse)
        claim = build_t1_claim(Fraction(-1, 8), 6, 7, 5)
        assert verify_claim(claim, 20).status is VerificationStatus.VERIFIED_IN_RANGE
