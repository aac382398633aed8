from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wittid.fields import GF2, Field


def test_from_int_reduces():
    assert GF2.from_int(2) == 0
    assert GF2.from_int(3) == 1
    assert Field.gf(3).from_int(-3) == 0
    assert Field.rationals().from_int(-3) == Fraction(-3)


def test_basic_ops_gf2():
    f = GF2
    assert f.add(1, 1) == 0
    assert f.neg(1) == 1
    assert f.mul(1, 1) == 1


def test_inverse_gf3():
    f = Field.gf(3)
    assert f.inv(2) == 2
    assert f.mul(2, f.inv(2)) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF2.inv(0)
    with pytest.raises(ZeroDivisionError):
        Field.rationals().inv(Fraction(0))


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        Field.gf(4)
    with pytest.raises(ValueError):
        Field.gf(1)
    with pytest.raises(ValueError):
        Field.from_spec("gf")
    with pytest.raises(ValueError):
        Field.from_spec("complex")
    with pytest.raises(ValueError):
        Field("rational", 5)


def test_modulus_bound():
    # The largest prime below the bound is accepted; at the bound a prime
    # like 2^61 - 1 is refused before any trial division.
    assert Field.gf(2**31 - 1).p == 2**31 - 1
    for p in (2**31, 2**61 - 1):
        with pytest.raises(ValueError, match=r"2\^31"):
            Field.gf(p)


def test_from_spec():
    assert Field.from_spec("gf2") == GF2
    assert Field.from_spec("gf17").p == 17
    assert Field.from_spec("rational").kind == "rational"
    assert str(Field.gf(5)) == "gf5"
    assert Field.gf(5).characteristic == 5
    assert Field.rationals().characteristic == 0


FIELDS = [Field.gf(2), Field.gf(3), Field.gf(5), Field.rationals()]


@st.composite
def field_and_triple(draw):
    field = draw(st.sampled_from(FIELDS))
    ints = st.integers(min_value=-50, max_value=50)
    a, b, c = draw(ints), draw(ints), draw(ints)
    return field, field.from_int(a), field.from_int(b), field.from_int(c)


@given(field_and_triple())
def test_field_axioms(data):
    f, a, b, c = data
    assert f.add(a, b) == f.add(b, a)
    assert f.mul(a, b) == f.mul(b, a)
    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    assert f.add(a, f.neg(a)) == f.zero
    assert f.add(a, f.zero) == a
    assert f.mul(a, f.one) == a
    if not f.is_zero(a):
        assert f.mul(a, f.inv(a)) == f.one


@given(st.integers(min_value=-100, max_value=100))
def test_char_two_self_inverse(n):
    a = GF2.from_int(n)
    assert GF2.add(a, a) == 0
    assert GF2.neg(a) == a


def test_scalar_formatting():
    assert GF2.format_scalar(1) == "1"
    q = Field.rationals()
    assert q.format_scalar(Fraction(3, 2)) == "3/2"
    assert q.format_scalar(Fraction(4, 2)) == "2"


@given(
    st.sampled_from(FIELDS),
    st.dictionaries(st.integers(0, 9), st.integers(-20, 20), max_size=8),
)
def test_reduced_matches_add_into_on_distinct_keys(field, terms):
    # Scalars as the constructors receive them: ints, or Fractions over Q.
    items = [(k, Fraction(c, 3) if field.p is None else c) for k, c in terms.items()]
    got = field.reduced(items)
    assert got == field.add_into({}, items)
    assert all(type(v) is (int if field.p else Fraction) for v in got.values())
