"""Property tests: random inputs checked against independent references."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congruence_workbench.arith import NotLIntegralError, QuadRational, primes_below, reduce_mod_prime_power
from congruence_workbench.congruence import find_w
from congruence_workbench.intexpr import ExpressionError, evaluate_rational
from congruence_workbench.qseries import (
    Series,
    euler_product,
    format_series_text,
    parse_series_text,
    series_pow_int,
    series_pow_numerators,
    series_pow_rational,
    series_reduce_mod,
)

from oracles import find_w_by_search

# -- intexpr against a direct Fraction evaluator ---------------------------

_leaves = st.integers(0, 20)
_trees = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.tuples(st.sampled_from("+-*/"), sub, sub),
        st.tuples(st.just("^"), sub, st.integers(-4, 4)),
        st.tuples(st.just("neg"), sub),
    ),
    max_leaves=8,
)


def _render(tree) -> str:
    if isinstance(tree, int):
        return str(tree)
    if tree[0] == "neg":
        return f"(-{_render(tree[1])})"
    op, left, right = tree
    return f"({_render(left)}{op}{_render(right)})"


def _direct(tree) -> Fraction:
    """Evaluate the tree over Fraction; ZeroDivisionError where intexpr refuses."""
    if isinstance(tree, int):
        return Fraction(tree)
    if tree[0] == "neg":
        return -_direct(tree[1])
    op, left, right = tree
    a, b = _direct(left), _direct(right)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    return a ** int(b)


@given(_trees)
def test_intexpr_matches_direct_fraction_evaluation(tree):
    text = _render(tree)
    try:
        expected = _direct(tree)
    except ZeroDivisionError:
        try:
            evaluate_rational(text)
        except ExpressionError:
            return
        raise AssertionError(f"{text!r} should be refused")
    assert evaluate_rational(text) == expected


# -- series text format round trip -----------------------------------------

_fractions = st.fractions(max_denominator=10**6)
_coefficients = st.one_of(_fractions, st.builds(QuadRational, _fractions, _fractions))


@given(st.lists(_coefficients, max_size=30))
def test_series_text_round_trip(coeffs):
    series = Series(coeffs)
    text = format_series_text(series)
    parsed = parse_series_text(text)
    assert parsed == series
    assert format_series_text(parsed) == text


# -- closed-form find_w against the search ---------------------------------


# every (ell, v) with ell^v <= 10^5, so the search takes at most 10^5 steps
_PRIMES_BY_V = {v: [p for p in primes_below(10**5 + 1) if p**v <= 10**5] for v in range(1, 17)}
_prime_and_v = st.sampled_from(sorted(_PRIMES_BY_V)).flatmap(
    lambda v: st.tuples(st.sampled_from(_PRIMES_BY_V[v]), st.just(v))
)


@settings(max_examples=60, deadline=None)
@given(_prime_and_v)
def test_find_w_closed_form_matches_search(case):
    ell, v = case
    assert find_w(ell, v) == find_w_by_search(ell, v)


# -- exponent laws for series_pow_rational ---------------------------------

_exponents = st.fractions(min_value=-6, max_value=6, max_denominator=12)
# f(0) = 1 and small int tails: the power kernel takes int series only
_unit_series = st.lists(st.integers(-3, 3), min_size=0, max_size=14).map(
    lambda tail: Series([1] + tail)
)


@settings(deadline=None)
@given(_unit_series, _exponents, _exponents)
def test_pow_rational_exponents_add(f, a, b):
    product = series_pow_rational(f, a) * series_pow_rational(f, b)
    assert product == series_pow_rational(f, a + b)


@settings(deadline=None)
@given(_unit_series, st.integers(-6, 6), _exponents)
def test_pow_rational_exponents_multiply(f, a, b):
    # f^a stays an int series for integer a, so it can be raised again
    assert series_pow_rational(series_pow_int(f, a), b) == series_pow_rational(f, a * b)


# -- residues of the kernel's int numerators against the Fractions ---------

_primes = st.sampled_from([2, 3, 5, 7, 11, 13])
_alphas = st.fractions(min_value=-60, max_value=60, max_denominator=60)


@settings(deadline=None)
@given(_primes, _alphas, st.integers(1, 4), st.integers(1, 60))
def test_numerator_residues_match_fraction_residues(ell, alpha, k, prec):
    assume(alpha.denominator % ell != 0)
    numerators, denominator = series_pow_numerators(euler_product(1, prec), alpha)
    fractions = series_pow_rational(euler_product(1, prec), alpha)
    want = [reduce_mod_prime_power(c, ell, k) for c in fractions.coeffs]
    assert list(series_reduce_mod(numerators, ell, k, denominator).coeffs) == want


def _first_non_integral(reduce):
    try:
        reduce()
    except NotLIntegralError as exc:
        return exc.index
    return None


@settings(deadline=None)
@given(_primes, _alphas, st.integers(1, 3), st.integers(1, 40))
def test_numerator_refusal_names_the_fraction_path_index(ell, alpha, k, prec):
    # with ell | b the refusal must name the first exponent whose Fraction is not ell-integral
    numerators, denominator = series_pow_numerators(euler_product(1, prec), alpha)
    fractions = series_pow_rational(euler_product(1, prec), alpha)
    want = next((n for n, c in enumerate(fractions.coeffs) if c.denominator % ell == 0), None)
    assert _first_non_integral(lambda: series_reduce_mod(numerators, ell, k, denominator)) == want
