"""Property tests: random inputs checked against independent references."""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from congruence_workbench.arith import NotLIntegralError, reduce_mod_prime_power
from congruence_workbench.congruence import find_w
from congruence_workbench.intexpr import ExpressionError, evaluate_rational
from congruence_workbench.qseries import (
    Series,
    euler_product,
    series_pow_int,
    series_pow_numerators,
    series_pow_pairs,
    series_pow_rational,
    series_pow_residues,
    series_reduce_mod,
)

from oracles import find_w_by_search, primes_below

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


# -- lowest-terms pairs against Fraction(N(n), D) ---------------------------


@settings(deadline=None)
@given(
    st.lists(st.integers(-3, 3), max_size=14),
    st.integers(0, 2),
    st.integers(0, 250),
    st.integers(-300, 300),
    st.sampled_from([1, 2, 8, 12, 13, 30, 36, 2**64, 1000003 * 1000033]),
)
def test_pairs_are_the_reduced_fractions(tail, power, pad, a, b):
    # a tail scaled by b^power makes numerator and denominator share b's primes
    assume(gcd(a, b) == 1)
    f = Series([1] + [c * b**power for c in tail] + [0] * pad)
    numerators, denominator = series_pow_numerators(f, Fraction(a, b))
    want = [Fraction(c, denominator) for c in numerators.coeffs]
    got = list(series_pow_pairs(f, Fraction(a, b)))
    assert got == [(x.numerator, x.denominator) for x in want]
    assert all(den > 0 for _, den in got)


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


# -- the ell-adic kernel against the exact numerators ------------------------


@settings(deadline=None)
@given(_primes, _alphas, st.integers(1, 60), st.integers(1, 150))
def test_residue_kernel_matches_exact_residues(ell, alpha, k, prec):
    numerators, denominator = series_pow_numerators(euler_product(1, prec), alpha)
    exact = lambda: series_reduce_mod(numerators, ell, k, denominator)
    kernel = lambda: series_pow_residues(alpha, ell, k, prec)
    if alpha.denominator % ell == 0:
        # ell | b: both refuse at the same exponent, or both give the constant term alone
        assert _first_non_integral(kernel) == _first_non_integral(exact)
        if prec == 1:
            assert kernel() == exact()
    else:
        assert kernel() == exact()
