"""The one sparse combination type behind Lie polynomials, their
associative images and model values."""

from fractions import Fraction

import pytest

from wittid.fields import Combination, Field
from wittid.freealg import AssocPoly, LiePoly, Var
from wittid.grammar import format_polynomial
from wittid.models import ModelElement, u1_model

GF2 = Field.gf(2)
GF3 = Field.gf(3)
Q = Field.rationals()
FIELDS = [GF2, GF3, Q]

X1, X2, X3 = Var(1, 0), Var(2, 0), Var(3, 0)

# Two distinct keys of each class: monomials, words, (degree, slot) pairs.
KEYS = {
    LiePoly: ((X1, X2), (X2, X1)),
    AssocPoly: ((X1, X2), (X2, X1)),
    ModelElement: ((3, 0), (-1, 0)),
}

classes = pytest.mark.parametrize("cls", list(KEYS), ids=lambda c: c.__name__)
fields = pytest.mark.parametrize("field", FIELDS, ids=str)


@classes
def test_every_combination_shares_the_arithmetic(cls):
    assert issubclass(cls, Combination)
    assert cls.__slots__ == ()
    for name in ("__add__", "scale", "zero"):
        assert name not in vars(cls), name


@classes
@fields
def test_a_cancelling_add_stores_no_zero(cls, field):
    k1, k2 = KEYS[cls]
    a = cls(field, {k1: field.one, k2: field.one})
    total = a + cls(field, {k1: field.from_int(-1)})
    assert total.terms == {k2: field.one}
    assert type(total) is cls and total.field == field
    # Neither summand changed.
    assert a.terms == {k1: field.one, k2: field.one}
    assert (a + a.scale(-1)).terms == {}


@classes
@fields
def test_scale(cls, field):
    k1, k2 = KEYS[cls]
    x = cls(field, {k1: field.one, k2: field.from_int(2)})
    assert x.scale(0).terms == {} and x.scale(0).is_zero()
    negated = x.scale(-1)
    want = {GF2: {k1: 1}, GF3: {k1: 2, k2: 1}, Q: {k1: Fraction(-1), k2: Fraction(-2)}}
    assert negated.terms == want[field]
    assert type(negated) is cls


@classes
@fields
def test_construction_reduces_and_drops_zeros(cls, field):
    k1, k2 = KEYS[cls]
    x = cls(field, {k1: field.from_int(6), k2: field.one})
    assert x.terms == ({k2: field.one} if field.p else {k1: Fraction(6), k2: field.one})
    assert cls.zero(field).terms == {} and cls(field).terms == {}


@classes
@fields
def test_mixing_fields_raises(cls, field):
    k1, _ = KEYS[cls]
    other = GF3 if field != GF3 else Q
    with pytest.raises(ValueError, match="mixed fields"):
        cls(field, {k1: field.one}) + cls(other, {k1: other.one})


@fields
@pytest.mark.parametrize(
    "left, right",
    [(LiePoly, AssocPoly), (ModelElement, LiePoly), (AssocPoly, ModelElement)],
    ids=lambda c: c.__name__,
)
def test_adding_different_classes_raises(field, left, right):
    # A Lie polynomial plus its associative words is no Lie polynomial, and
    # a monomial is no model slot: the sum is refused either way round,
    # even when the terms would cancel.
    for a, b in ((left, right), (right, left)):
        x = a(field, {KEYS[a][0]: field.one})
        y = b(field, {KEYS[a][0]: field.from_int(-1)})
        with pytest.raises(TypeError, match=f"cannot add {b.__name__} to {a.__name__}"):
            x + y
        with pytest.raises(TypeError):
            x + Combination(field, {KEYS[a][0]: field.one})


@fields
def test_classes_with_the_same_terms_are_not_equal(field):
    terms = {(X1, X2): field.one}
    lie, assoc = LiePoly(field, terms), AssocPoly(field, terms)
    assert lie.terms == assoc.terms
    assert lie != assoc and assoc != lie
    assert not lie == assoc and not assoc == lie
    assert assoc == AssocPoly(field, terms)
    assert assoc != AssocPoly(GF2 if field != GF2 else GF3, terms)


@fields
def test_lie_zero_is_decided_by_expansion(field):
    # [x1, x2] + [x2, x1] is zero as a Lie element although it has terms.
    f = LiePoly(field, {(X1, X2): field.one, (X2, X1): field.one})
    assert len(f.terms) == 2
    assert f.is_zero() and f == LiePoly.zero(field)
    assert not f.same_terms(LiePoly.zero(field))
    # The same terms are not zero as an associative polynomial.
    assert not AssocPoly(field, f.terms).is_zero()
    assert not ModelElement(field, {(0, 0): field.one}).is_zero()


@pytest.mark.parametrize(
    "field, c, want_lie, want_assoc, want_model",
    [
        (GF2, 1, "x3^0 + [x1^0, x2^0]", "x3^0 + x1^0x2^0", "e-1 + e3"),
        (GF3, 2, "x3^0 + 2*[x1^0, x2^0]", "x3^0 + 2*x1^0x2^0", "2*e-1 + 2*e3"),
        (Q, Fraction(1, 2), "x3^0 + 1/2*[x1^0, x2^0]", "x3^0 + 1/2*x1^0x2^0",
         "-1*e-1 + 1/2*e3"),
    ],
)
def test_format_keeps_the_text_form(field, c, want_lie, want_assoc, want_model):
    # The texts are those of the per-class loops this type replaced.
    terms = {(X1, X2): c, (X3,): field.one}
    assert format_polynomial(LiePoly(field, terms)) == want_lie
    assert repr(LiePoly(field, terms)) == want_lie
    assert repr(AssocPoly(field, terms)) == want_assoc
    value = ModelElement(field, {(3, 0): c, (-1, 0): field.from_int(-1)})
    assert u1_model(field).format_element(value) == want_model
    for x in (LiePoly(field), AssocPoly(field)):
        assert repr(x) == "0"
    assert u1_model(field).format_element(ModelElement(field)) == "0"


@pytest.mark.parametrize("field", [GF2, GF3, Field.gf(5), Q], ids=str)
def test_monomial_constructor_matches_the_general_one(field):
    mono = (X2, X1, X3)
    p = field.characteristic
    coeffs = [0, 2, 3, -1, Fraction(1, 2), Fraction(-4, 3)] if not p else [0, p, p + 1, -1, 1]
    for c in coeffs:
        a, b = LiePoly.monomial(field, mono, c), LiePoly(field, {mono: c})
        assert a.same_terms(b) and type(a) is LiePoly, c
        assert [type(x) for x in a.terms.values()] == [type(x) for x in b.terms.values()]
    assert LiePoly.monomial(field, mono, 0).terms == {}
    assert LiePoly.monomial(field, list(mono)).terms == {mono: field.one}
    assert LiePoly.monomial(field, mono).same_terms(LiePoly(field, {mono: field.one}))
