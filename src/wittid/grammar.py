"""Text form of graded Lie polynomials.

Grammar (whitespace-insensitive)::

    poly  := '0' | term ('+' term)*
    term  := (coeff '*')? mono
    mono  := '[' var (',' var)* ']' | var
    var   := 'x' INT '^' SINT
    coeff := SINT ('/' INT)?

Example: ``[x1^-1, x2^1] + [x2^1, x1^-1]``. Integer coefficients are
reduced into the target field; the fractional coefficient form is only
meaningful over the rationals.
"""

from __future__ import annotations

from .fields import Field, _rational
from .freealg import LiePoly, Var


class PolynomialSyntaxError(ValueError):
    """Syntax error with the offending position in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"at position {position}: {message}")
        self.position = position


class _Parser:
    def __init__(self, text: str, field: Field):
        self.text = text
        self.pos = 0
        self.field = field

    def error(self, message: str):
        raise PolynomialSyntaxError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self, signed: bool = True) -> int:
        self.skip_ws()
        start = self.pos
        if signed and self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            self.error("expected an integer")
        return int(self.text[start:self.pos])

    def variable(self) -> Var:
        if self.peek() != "x":
            self.error("expected a variable like x1^2")
        self.pos += 1
        index = self.integer(signed=False)
        if self.peek() != "^":
            self.error("expected '^' after the variable index")
        self.pos += 1
        degree = self.integer()
        try:
            return Var(index, degree)
        except ValueError as exc:
            self.error(str(exc))

    def monomial(self) -> tuple:
        if self.peek() == "[":
            self.pos += 1
            vars_ = [self.variable()]
            while self.peek() == ",":
                self.pos += 1
                vars_.append(self.variable())
            self.expect("]")
            return tuple(vars_)
        return (self.variable(),)

    def term(self) -> LiePoly:
        ch = self.peek()
        coeff = self.field.one
        if ch in "+-" or ch.isdigit():
            num = self.integer()
            if self.peek() == "/":
                self.pos += 1
                den = self.integer(signed=False)
                if self.field.kind != "rational":
                    self.error("fractional coefficients need the rational field")
                if den == 0:
                    self.error("zero denominator")
                coeff = _rational(num, den)
            else:
                coeff = self.field.from_int(num)
            self.expect("*")
        return LiePoly.monomial(self.field, self.monomial(), coeff)

    def polynomial(self) -> LiePoly:
        self.skip_ws()
        if self.text[self.pos:].strip() == "0":
            self.pos = len(self.text)
            return LiePoly.zero(self.field)
        out = self.term()
        while self.peek() == "+":
            self.pos += 1
            out = out + self.term()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return out


def parse_polynomial(text: str, field: Field) -> LiePoly:
    """Parse the text grammar into a Lie polynomial over the field."""
    return _Parser(text, field).polynomial()


def parse_monomial(text: str, field: Field) -> tuple:
    """Parse a single monomial (no coefficient) into a Var tuple."""
    poly = parse_polynomial(text, field)
    if len(poly.terms) != 1:
        raise PolynomialSyntaxError("expected a single monomial", 0)
    (mono, coeff), = poly.terms.items()
    if coeff != field.one:
        raise PolynomialSyntaxError("expected a bare monomial without coefficient", 0)
    return mono


def format_monomial(mono: tuple) -> str:
    if len(mono) == 1:
        return str(mono[0])
    return "[" + ", ".join(str(v) for v in mono) + "]"


def format_polynomial(f: LiePoly) -> str:
    """Deterministic text form; parses back to the same polynomial."""
    return f.format(f.monomials(), format_monomial)
