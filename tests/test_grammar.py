import random

import pytest
from hypothesis import given, strategies as st

from wittid.fields import Field
from wittid.freealg import LiePoly, Var
from wittid.grammar import (
    PolynomialSyntaxError,
    format_polynomial,
    parse_monomial,
    parse_polynomial,
)

GF2 = Field.gf(2)


def test_parse_bracket_monomial():
    p = parse_polynomial("[x1^1, x2^3]", GF2)
    assert p.same_terms(LiePoly.monomial(GF2, (Var(1, 1), Var(2, 3))))


def test_parse_sum():
    p = parse_polynomial("[x1^0, x2^2, x3^0] + [x3^0, x2^2, x1^0]", GF2)
    assert len(p.terms) == 2
    assert all(c == 1 for c in p.terms.values())


def test_parse_single_variable():
    p = parse_polynomial("x1^-2", GF2)
    assert p.same_terms(LiePoly.variable(GF2, Var(1, -2)))


def test_whitespace_insensitive():
    a = parse_polynomial("[x1^-1,x2^1]+[x2^1,x1^-1]", GF2)
    b = parse_polynomial("  [ x1 ^ -1 , x2 ^ 1 ]  +  [ x2^1 , x1^-1 ] ", GF2)
    assert a.same_terms(b)


def test_coefficients_reduced_into_field():
    p = parse_polynomial("3*[x1^1, x2^1]", GF2)
    assert p.same_terms(LiePoly.monomial(GF2, (Var(1, 1), Var(2, 1))))
    q = parse_polynomial("2*[x1^1, x2^1]", GF2)
    assert not q.terms  # coefficient 2 vanishes mod 2


def test_fractional_coefficients_need_rationals():
    q = Field.rationals()
    p = parse_polynomial("1/2*x1^0", q)
    assert format_polynomial(p) == "1/2*x1^0"
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("1/2*x1^0", GF2)
    with pytest.raises(PolynomialSyntaxError, match="zero denominator"):
        parse_polynomial("1/0*[x1^1, x2^3]", q)


def test_zero_polynomial():
    assert parse_polynomial("0", GF2).same_terms(LiePoly.zero(GF2))
    assert format_polynomial(LiePoly.zero(GF2)) == "0"


def test_syntax_errors_carry_positions():
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial("[x1^1, y2^3]", GF2)
    assert err.value.position == 7
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("[x1^1, x2^3", GF2)
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("[x1^1] junk", GF2)
    with pytest.raises(PolynomialSyntaxError):
        parse_polynomial("x0^1", GF2)  # indices start at 1


def test_parse_monomial_helper():
    mono = parse_monomial("[x1^1, x2^0]", GF2)
    assert mono == (Var(1, 1), Var(2, 0))
    with pytest.raises(PolynomialSyntaxError):
        parse_monomial("[x1^1] + [x2^0]", GF2)
    # 3 reduces to the unit mod 2, so reject over a field where it does not
    assert parse_monomial("3*[x1^1]", GF2) == (Var(1, 1),)
    with pytest.raises(PolynomialSyntaxError):
        parse_monomial("3*[x1^1]", Field.gf(5))


@st.composite
def random_polys(draw):
    field = draw(st.sampled_from([GF2, Field.gf(5), Field.rationals()]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    poly = LiePoly.zero(field)
    for _ in range(rng.randint(1, 4)):
        length = rng.randint(1, 4)
        mono = tuple(
            Var(rng.randint(1, 5), rng.randint(-4, 4)) for _ in range(length)
        )
        poly = poly + LiePoly.monomial(field, mono, field.from_int(rng.randint(-6, 6)))
    return field, poly


@given(random_polys())
def test_print_parse_roundtrip(data):
    field, poly = data
    assert parse_polynomial(format_polynomial(poly), field).same_terms(poly)
