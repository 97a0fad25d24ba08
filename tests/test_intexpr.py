import sys
from fractions import Fraction

import pytest

from congruence_workbench.intexpr import ExpressionError, evaluate_int, evaluate_rational


def test_literals_and_signs():
    assert evaluate_int("42") == 42
    assert evaluate_int("-7") == -7
    assert evaluate_int("--7") == 7
    assert evaluate_int(" 2 * 3") == 6
    assert evaluate_int("5 ") == 5
    assert evaluate_int("5\t") == 5


# ASCII digits, ASCII spaces and "-" signs only: int() would read each of these as a number (an Arabic-Indic
# and a fullwidth 5, a 5 after an em space)
@pytest.mark.parametrize("text", ["+5", "2*+3", "1_1", "\u0665", "\uff15", "\u2003" + "5"])
def test_only_ascii_digits_and_minus_signs(text):
    with pytest.raises(ExpressionError, match="unexpected"):
        evaluate_rational(text)


def test_unexpected_character_is_quoted():
    # the first character that no token starts with, never an empty quote
    for text, char in [("5 x", "x"), ("\u2003" + "5", "\u2003"), ("1 +5\u2003", "\u2003")]:
        with pytest.raises(ExpressionError) as info:
            evaluate_rational(text)
        assert str(info.value) == f"unexpected character {char!r} in {text!r}"


def test_precedence():
    assert evaluate_int("2+3*4") == 14
    assert evaluate_int("(2+3)*4") == 20
    assert evaluate_int("2^3^2") == 512  # right-associative
    assert evaluate_int("-2^2") == -4


def test_rationals():
    assert evaluate_rational("1/3") == Fraction(1, 3)
    assert evaluate_rational("2/(13^13+1)") == Fraction(2, 13**13 + 1)
    assert evaluate_rational("(1/2+1/3)*6/5") == 1


def test_t3_residue_expression():
    assert evaluate_int("(13^12-1)/12") == (13**12 - 1) // 12


def test_non_integer_division_rejected_for_int_context():
    # 11*13^12 - 1 == 10 (mod 12), so this residue expression is not integral
    with pytest.raises(ExpressionError):
        evaluate_int("(11*13^12-1)/12")


def test_division_by_zero():
    with pytest.raises(ExpressionError):
        evaluate_rational("1/(2-2)")


def test_fractional_exponent_rejected():
    with pytest.raises(ExpressionError):
        evaluate_rational("2^(1/2)")


def test_negative_exponent_is_exact():
    assert evaluate_rational("2^-3") == Fraction(1, 8)


def test_power_cap():
    with pytest.raises(ExpressionError, match="cap"):
        evaluate_rational("9^9^9")
    with pytest.raises(ExpressionError, match="cap"):
        evaluate_rational("(1/3)^-(2^20)")
    assert evaluate_int("2^(2^19)") == 2 ** (2**19)
    # the bases 0, 1 and -1 never grow
    assert evaluate_int("0^(10^9)") == 0
    assert evaluate_int("1^(10^9)") == 1
    assert evaluate_int("(-1)^(10^9+1)") == -1


def test_intermediate_values_and_budget():
    # each value is sized before it is built, so no step builds a number over the cap
    with pytest.raises(ExpressionError, match="product of over 2\\^20 bits"):
        evaluate_rational("(2^600000)*(2^600000)")
    with pytest.raises(ExpressionError, match="quotient of over 2\\^20 bits"):
        evaluate_rational("(2^600000)/(1/3^300000)")
    # a sum's denominator of about 1.9 million bits is refused before any gcd runs
    with pytest.raises(ExpressionError, match="cap"):
        evaluate_rational("1/(7^349000)+1/(11^262000)")
    # one power near the cap passes, with room for small arithmetic; two do not
    assert evaluate_int("2^(2^19)+1") == 2 ** (2**19) + 1
    assert evaluate_rational("(2^(2^19)+1)/3") == Fraction(2 ** (2**19) + 1, 3)
    assert evaluate_int("7^349000") == 7**349000
    for text in ("7^349000+7^349000", "1+0*(" + "+".join(["7^349000"] * 200) + ")"):
        with pytest.raises(ExpressionError, match="bit\\^2, above the cap"):
            evaluate_rational(text)


def test_malformed():
    for bad in ("", "1+", "(1", "1)", "1**2", "a+1", "1 2"):
        with pytest.raises(ExpressionError):
            evaluate_rational(bad)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_literal_over_digit_limit_is_expression_error():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert evaluate_rational("9" * 4300) == 10**4300 - 1
        with pytest.raises(ExpressionError, match="5000 digits"):
            evaluate_rational("9" * 5000)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit")
def test_power_cap_message_is_bounded():
    # the bit estimate of 2^2^2^2^2^2 has about 19,700 decimal digits
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ExpressionError, match="cap") as info:
            evaluate_rational("2^2^2^2^2^2")
        assert len(str(info.value)) < 200
    finally:
        sys.set_int_max_str_digits(limit)


DEEP_EXPRESSIONS = {
    "parentheses": "(" * 1000 + "1" + ")" * 1000,
    "power-chain": "^".join(["1"] * 1000),
    "negations": "-(" * 1000 + "1" + ")" * 1000,
}


@pytest.mark.parametrize("text", DEEP_EXPRESSIONS.values(), ids=DEEP_EXPRESSIONS.keys())
def test_deep_nesting_is_expression_error(text):
    with pytest.raises(ExpressionError, match="nested too deeply"):
        evaluate_rational(text)
