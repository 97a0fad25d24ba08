"""Exact arithmetic expressions for CLI flags.

Grammar: +, -, *, /, ^ (power), unary -, parentheses, ASCII decimal
integers, with ASCII whitespace skipped around any token.  The whole
expression is evaluated over exact rationals, so division never rounds;
callers that need an integer use :func:`evaluate_int`, which rejects
non-integral results.  This lets flags like a t3-family residue be
written as ``(13^12-1)/12`` instead of a 13-digit literal.

Each value is sized before it is built, by the bits of its larger part:
the sum of its operands' part sizes (plus one for a sum's numerator), or
for a power b^e, |e| times a bound on log2(b) within 1/64 of it.  A
value over ``MAX_POWER_BITS`` (2^20 bits, about 315,000 digits) is
refused, so ``9^9^9`` fails at once; powers of 0, 1 and -1 are exempt.
Each operation is charged its size squared, as its multiplications and
gcds cost at most that, and one expression's charges may sum to
MAX_POWER_BITS^2, the cost of one value at the cap (``cli`` bounds
printing the same way): one power of 2^20 bits passes, two do not.  The
parser recurses once per parenthesis, unary sign and ``^``; input nested
past the interpreter's recursion limit is refused with ExpressionError
too.  Messages quote a long expression by its first characters and its
length.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add, mul, sub, truediv

from .arith import MAX_POWER_BITS

__all__ = ["ExpressionError", "evaluate_int", "evaluate_rational"]


class ExpressionError(ValueError):
    pass


def _quote(text: str) -> str:
    """repr(text) up to 80 characters; a longer text by its first 40 and its length."""
    if len(text) <= 80:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


_TOKEN = re.compile(r"\s+|(\d+)|([()+\-*/^])", re.ASCII)  # no other script's digits or spaces


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ExpressionError(f"unexpected character {text[pos]!r} in {_quote(text)}")
        if m.lastindex:  # not a run of ASCII whitespace
            tokens.append(m[m.lastindex])
        pos = m.end()
    return tokens


def _power_bits(x: int, e: int) -> int:
    """An upper bound on bits(x^e), x >= 1, e >= 1, at most e/64 + 1 above it.

    x < top * 2^shift, top its 32 leading bits rounded up, and bits(top^64) > 64 * log2(top).
    """
    shift = max(x.bit_length() - 32, 0)
    top = (x >> shift) + (shift > 0)
    return -(-e * (64 * shift + (top**64).bit_length()) // 64)


_OPERATIONS = {"+": ("sum", add), "-": ("difference", sub), "*": ("product", mul), "/": ("quotient", truediv)}


class _Parser:
    def __init__(self, tokens: list[str], source: str):
        self.tokens = tokens
        self.pos = 0
        self.source = source
        self.spent = 0  # sum of the squared size estimates, in bit^2

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok: str):
        if self.take() != tok:
            raise ExpressionError(f"expected {tok!r} in {_quote(self.source)}")

    def charge(self, bits: int, what: str):
        """Refuse a value estimated above MAX_POWER_BITS bits, or one whose bits^2 overdraws the budget."""
        if bits > MAX_POWER_BITS:
            # the estimate itself may have thousands of digits: print its size
            raise ExpressionError(
                f"{what} of over 2^{bits.bit_length() - 1} bits exceeds the "
                f"{MAX_POWER_BITS}-bit cap in {_quote(self.source)}"
            )
        self.spent += bits * bits
        if self.spent > MAX_POWER_BITS**2:
            raise ExpressionError(
                f"the values of {_quote(self.source)} cost an estimated {self.spent} bit^2, "
                f"above the cap {MAX_POWER_BITS}^2"
            )

    def apply(self, op: str, x, y):
        """x op y, charged by its size estimate before it is built."""
        what, function = _OPERATIONS[op]
        xn, xd = x.numerator.bit_length(), x.denominator.bit_length()
        yn, yd = y.numerator.bit_length(), y.denominator.bit_length()
        if op == "/":
            if y == 0:
                raise ExpressionError(f"division by zero in {_quote(self.source)}")
            yn, yd = yd, yn  # sized as x * (1/y)
        self.charge(max(xn + yn, xd + yd) if op in "*/" else max(xn + yd, yn + xd) + 1, what)
        return function(x, y)

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise ExpressionError(f"trailing input {_quote(self.peek())} in {_quote(self.source)}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            value = self.apply(self.take(), value, self.term())
        return value

    def term(self):
        value = self.factor()
        while self.peek() in ("*", "/"):
            value = self.apply(self.take(), value, self.factor())
        return value

    def factor(self):
        sign = 1
        while self.peek() == "-":
            self.take()
            sign = -sign
        return sign * self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.take()
            exponent = self.factor()
            if exponent.denominator != 1:
                raise ExpressionError(f"non-integer exponent in {_quote(self.source)}")
            e = exponent.numerator
            if e < 0 and base == 0:
                raise ExpressionError(f"zero raised to a negative power in {_quote(self.source)}")
            if base not in (0, 1, -1):
                n = abs(e)
                self.charge(max(_power_bits(abs(base.numerator), n), _power_bits(base.denominator, n)), "power")
            return base**e
        return base

    def atom(self):
        tok = self.take()
        if tok is None:
            raise ExpressionError(f"unexpected end of expression in {_quote(self.source)}")
        if tok == "(":
            value = self.expr()
            self.expect(")")
            return value
        if tok.isdigit():
            try:
                return Fraction(int(tok))
            except ValueError as exc:  # over the interpreter's int-to-str digit limit
                raise ExpressionError(f"integer literal of {len(tok)} digits refused: {exc}") from None
        raise ExpressionError(f"unexpected token {tok!r} in {_quote(self.source)}")


def evaluate_rational(text: str):
    """Evaluate an expression to an exact rational."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    try:
        return _Parser(tokens, text).parse()
    except RecursionError:  # one frame per parenthesis, unary sign and '^'
        raise ExpressionError(f"expression of {len(text)} characters is nested too deeply") from None


def evaluate_int(text: str) -> int:
    """Evaluate an expression that must come out to an integer."""
    value = evaluate_rational(text)
    if value.denominator != 1:
        size = max(abs(value.numerator), value.denominator).bit_length()
        shown = f"the non-integer {value}" if size <= 128 else f"a non-integer of {size} bits"
        raise ExpressionError(f"{_quote(text)} evaluates to {shown}")
    return value.numerator
