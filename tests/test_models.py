import itertools
import random
import re
from fractions import Fraction

import pytest
from conftest import (
    oracle_kernel, oracle_rows, oracle_satisfies, oracle_value, random_multilinear_tree,
)

from wittid.fields import Field
from wittid.freealg import LiePoly, MultilinearSpace, Var
from wittid.linalg import SubspaceBasis
from wittid.models import (
    ModelElement,
    _basis_terms,
    _basis_tuple_rows,
    _value,
    basis_substitutions,
    evaluate,
    first_nonzero,
    onedim_model,
    parse_model,
    satisfies_multilinear,
    u1_model,
    ut3_model,
    w1_model,
)
from wittid.tideal import identity_subspace

GF2 = Field.gf(2)
GF3 = Field.gf(3)


def basis_bracket(model, i, j):
    return model.bracket(model.basis_element(i), model.basis_element(j))


def test_u1_bracket_examples():
    m = u1_model(GF2)
    assert basis_bracket(m, 1, 2) == ModelElement(GF2, {(3, 0): 1})
    assert basis_bracket(m, 1, 3).is_zero()
    m3 = u1_model(GF3)
    assert basis_bracket(m3, 1, 3) == ModelElement(GF3, {(4, 0): 2})


def test_element_coefficients_are_reduced():
    assert ModelElement(GF2, {(1, 0): 2}).is_zero()
    assert ModelElement(GF3, {(1, 0): -1}).terms == {(1, 0): 2}


def test_w1_examples():
    m = w1_model(GF2)
    assert basis_bracket(m, -1, 0) == ModelElement(GF2, {(-1, 0): 1})
    assert m.dim(-2) == 0
    assert basis_bracket(m, -1, 1).is_zero()
    with pytest.raises(ValueError):
        m.basis_element(-2)


def test_w1_agrees_with_u1_on_common_support():
    mu = u1_model(GF2)
    mw = w1_model(GF2)
    for i in range(-1, 13):
        for j in range(-1, 13):
            assert basis_bracket(mu, i, j) == basis_bracket(mw, i, j)


def _witt_closed_form(model, x, y):
    """[x, y] by the structure constant, summed without the library."""
    field = model.field
    out = {}
    for ((i, _), a), ((j, _), b) in itertools.product(x.terms.items(), y.terms.items()):
        c = field.mul(field.mul(a, b), field.from_int(j - i))
        out[(i + j, 0)] = field.add(out.get((i + j, 0), field.zero), c)
    return {key: c for key, c in out.items() if not field.is_zero(c)}


@pytest.mark.parametrize("field", [GF2, GF3, Field.gf(5), Field.rationals()], ids=str)
@pytest.mark.parametrize("make", [u1_model, w1_model], ids=["u1", "w1"])
def test_witt_bracket_is_the_closed_form(field, make):
    model = make(field)
    e = model.basis_element
    # Equal degrees: coefficient j - i = 0.
    assert model.bracket(e(3), e(3)).terms == {}
    assert model.bracket(e(-1), e(-1)).terms == {}
    # [e_-1, e_j] = (j + 1) e_{j-1}, in u1 and w1 alike.
    assert model.bracket(e(-1), e(2)).terms == ModelElement(field, {(1, 0): 3}).terms
    # [e1 + e2, e1 + e2]: the two cross products cancel.
    x = e(1) + e(2)
    assert model.bracket(x, x).terms == {}
    # Terms of equal degree on both sides, products that cancel mod p.
    p = field.characteristic or 7
    y = e(0) + e(p).scale(field.from_int(2)) + e(-1)
    assert model.bracket(y, e(0)).terms == _witt_closed_form(model, y, e(0))
    rng = random.Random(f"witt/{model.name}/{field}")
    for _ in range(60):
        x, y = (
            ModelElement(field, {
                (d, 0): _random_scalar(rng, field)
                for d in rng.sample(range(-1, 9), rng.randint(1, 4))
            })
            for _ in range(2)
        )
        value = model.bracket(x, y)
        assert value.terms == _witt_closed_form(model, x, y), (x, y)
        assert all(value.terms.values()) and value.field is field


def test_w1_bracket_asserts_it_stays_in_its_support():
    # Only elements outside the support can bracket below -1.
    m = w1_model(GF2)
    below = ModelElement(GF2, {(-2, 0): 1})
    assert m.bracket(below, m.basis_element(1)) == ModelElement(GF2, {(-1, 0): 1})
    with pytest.raises(AssertionError, match="left the support at degree -3"):
        m.bracket(below, m.basis_element(-1))
    assert u1_model(GF2).bracket(below, u1_model(GF2).basis_element(-1)).terms == {(-3, 0): 1}
    m3 = w1_model(GF3)
    with pytest.raises(AssertionError, match="left the support at degree -2"):
        m3.bracket(ModelElement(GF3, {(-2, 0): 1}), m3.basis_element(0))


def test_grading_compatibility_window():
    for model in (u1_model(GF2), w1_model(GF2), u1_model(GF3)):
        for i in range(-12, 13):
            for j in range(-12, 13):
                if model.dim(i) == 0 or model.dim(j) == 0:
                    continue
                value = basis_bracket(model, i, j)
                assert value.is_homogeneous(i + j)


def _all_basis_elements(model, window=None):
    degrees = model.finite_support()
    if degrees is None:
        degrees = range(-12, 13)
    out = []
    for d in degrees:
        for slot in range(model.dim(d)):
            out.append(model.basis_element(d, slot))
    return out


@pytest.mark.parametrize(
    "model",
    [
        u1_model(GF2),
        w1_model(GF2),
        u1_model(GF3),
        ut3_model(GF2, 0, 2),
        ut3_model(GF2, 2, 2),
        ut3_model(GF2, 0, 0),
        ut3_model(GF3, -2, 0),
        onedim_model(GF2, -3),
    ],
)
def test_alternation_and_jacobi(model):
    elements = _all_basis_elements(model)
    for x in elements:
        assert model.bracket(x, x).is_zero()
    f = model.field
    for x, y in itertools.product(elements, repeat=2):
        # antisymmetry: [x,y] + [y,x] = 0 (equality of brackets in char 2)
        s = model.bracket(x, y) + model.bracket(y, x)
        assert s.is_zero()
    small = elements[:8]
    for x, y, z in itertools.product(small, repeat=3):
        jac = (
            model.bracket(model.bracket(x, y), z)
            + model.bracket(model.bracket(y, z), x)
            + model.bracket(model.bracket(z, x), y)
        )
        assert jac.is_zero()


def test_ut3_gradings():
    m = ut3_model(GF2, 0, 2)
    assert m.component_slots(0) == ("E12",)
    assert m.component_slots(2) == ("E23", "E13")  # collision r + s = s merged
    assert m.collision_merged
    f = LiePoly.monomial(GF2, (Var(1, 0), Var(2, 2)))
    assert not satisfies_multilinear(m, f)

    m = ut3_model(GF2, 2, 2)
    assert m.component_slots(2) == ("E12", "E23")
    assert m.component_slots(4) == ("E13",)
    assert not m.collision_merged

    m = ut3_model(GF2, 0, 0)
    assert m.component_slots(0) == ("E12", "E23", "E13")
    assert m.dim(1) == 0

    with pytest.raises(ValueError):
        ut3_model(GF2, 2, 0)
    with pytest.raises(ValueError):
        ut3_model(GF2, 0, 1)


def test_ut3_bracket_is_e13():
    m = ut3_model(GF2, 0, 2)
    e12 = m.basis_element(0, 0)
    e23 = m.basis_element(2, 0)
    value = m.bracket(e12, e23)
    assert m.format_element(value) == "E13"
    assert not value.is_zero()


def _matrix_commutator(model, x, y):
    """[x, y] as the commutator of 3x3 matrices, read back into the
    model's slots, without the library's bracket."""
    field = model.field
    where = {model.slot_name(d, i): (d, i) for d in model.finite_support()
             for i in range(model.dim(d))}

    def matrix(z):
        m = [[field.zero] * 3 for _ in range(3)]
        for key, c in z.terms.items():
            unit = model.slot_name(*key)
            m[int(unit[1]) - 1][int(unit[2]) - 1] = c
        return m

    def entry(a, b, i, j):
        total = field.zero
        for k in range(3):
            total = field.add(total, field.mul(a[i][k], b[k][j]))
        return total

    a, b = matrix(x), matrix(y)
    out = {}
    for i, j in itertools.product(range(3), repeat=2):
        c = field.sub(entry(a, b, i, j), entry(b, a, i, j))
        if not field.is_zero(c):
            out[where[f"E{i + 1}{j + 1}"]] = c
    return out


@pytest.mark.parametrize("field", [GF2, GF3, Field.gf(5), Field.rationals()], ids=str)
@pytest.mark.parametrize("r, s", [(-1, 3), (2, 2), (0, 0), (0, 2), (-2, 0), (1, 1)])
def test_ut3_bracket_is_the_matrix_commutator(field, r, s):
    # Multi-term elements, in separate and in merged components, against
    # the commutator of the matrices they stand for.
    model = ut3_model(field, r, s)
    slots = [(d, i) for d in model.finite_support() for i in range(model.dim(d))]
    rng = random.Random(f"ut3/{r}/{s}/{field}")
    for _ in range(40):
        x, y = (
            ModelElement(field, {
                key: _random_scalar(rng, field)
                for key in rng.sample(slots, rng.randint(1, len(slots)))
            })
            for _ in range(2)
        )
        value = model.bracket(x, y)
        assert value.terms == _matrix_commutator(model, x, y), (x, y)
        assert value.field is field


def test_onedim_model():
    m = onedim_model(GF2, -3)
    assert not satisfies_multilinear(m, LiePoly.variable(GF2, Var(1, -3)))
    assert satisfies_multilinear(m, LiePoly.variable(GF2, Var(1, -2)))
    x = m.basis_element(-3)
    assert m.bracket(x, x).is_zero()


def test_parse_model():
    assert parse_model("u1", GF2).name == "u1"
    assert parse_model("w1", GF2).name == "w1"
    assert parse_model("ut3:0:2", GF2).name == "ut3:0:2"
    assert parse_model("ut3:-2:0", GF2).name == "ut3:-2:0"
    assert parse_model("onedim:-3", GF2).name == "onedim:-3"
    with pytest.raises(ValueError):
        parse_model("sl2", GF2)


def test_evaluate_examples():
    m = u1_model(GF2)
    sub = {
        Var(1, 2): m.basis_element(2),
        Var(2, 4): m.basis_element(4),
        Var(3, 1): m.basis_element(1),
    }
    # [e2, e4] = 2 e6 = 0 kills the first ordering
    f = LiePoly.monomial(GF2, (Var(1, 2), Var(2, 4), Var(3, 1)))
    assert evaluate(f, sub, m).is_zero()
    g = LiePoly.monomial(GF2, (Var(3, 1), Var(1, 2), Var(2, 4)))
    assert evaluate(g, sub, m) == ModelElement(GF2, {(7, 0): 1})

    single = LiePoly.variable(GF2, Var(1, 5))
    assert evaluate(single, {Var(1, 5): m.basis_element(5)}, m) == ModelElement(
        GF2, {(5, 0): 1}
    )

    h = LiePoly.monomial(GF2, (Var(1, 1), Var(2, 3)))
    sub2 = {Var(1, 1): m.basis_element(1), Var(2, 3): m.basis_element(3)}
    assert evaluate(h, sub2, m).is_zero()


def test_evaluate_rejects_bad_substitutions():
    m = u1_model(GF2)
    f = LiePoly.monomial(GF2, (Var(1, 2), Var(2, 4)))
    with pytest.raises(ValueError, match="misses"):
        evaluate(f, {Var(1, 2): m.basis_element(2)}, m)
    with pytest.raises(ValueError, match="x2\\^4"):
        evaluate(
            f,
            {Var(1, 2): m.basis_element(2), Var(2, 4): m.basis_element(3)},
            m,
        )


def test_evaluate_names_the_lowest_bad_variable():
    # Variables are checked in the order of Var, by index and then
    # degree, so the message does not depend on set iteration order.
    m = u1_model(GF2)
    vs = [Var(i, d) for i in (9, 4, 7, 2, 12, 5) for d in (3, -1)]
    f = sum((LiePoly.variable(GF2, x) for x in vs), LiePoly.zero(GF2))
    full = {x: m.basis_element(x.degree) for x in vs}
    for missing in itertools.combinations(vs, 3):
        sub = {x: e for x, e in full.items() if x not in missing}
        with pytest.raises(ValueError, match=re.escape(f"misses variable {min(missing)}") + "$"):
            evaluate(f, sub, m)
    # A missing variable is named before a bad value of a higher one.
    sub = dict(full)
    del sub[Var(5, 3)]
    sub[Var(9, -1)] = m.basis_element(0)
    with pytest.raises(ValueError, match="misses variable x5\\^3$"):
        evaluate(f, sub, m)
    del sub[Var(5, -1)]
    with pytest.raises(ValueError, match="misses variable x5\\^-1$"):
        evaluate(f, sub, m)


def test_evaluate_rejects_wrong_field_and_inhomogeneous_values():
    m = u1_model(GF2)
    f = LiePoly.monomial(GF2, (Var(1, 2), Var(2, 4), Var(3, 1)))
    sub = {x: m.basis_element(x.degree) for x in f.variables()}
    wrong = dict(sub)
    wrong[Var(2, 4)] = u1_model(GF3).basis_element(4)
    with pytest.raises(ValueError, match="value for x2\\^4 lives over a different field"):
        evaluate(f, wrong, m)
    # An equal field object that is not the model's own is accepted.
    same = dict(sub)
    same[Var(2, 4)] = u1_model(Field.gf(2)).basis_element(4)
    assert evaluate(f, same, m) == evaluate(f, sub, m)
    mixed = dict(sub)
    mixed[Var(3, 1)] = m.basis_element(1) + m.basis_element(-2)
    with pytest.raises(
        ValueError,
        match=r"value for x3\^1 is not homogeneous of degree 1 \(degrees \[-2, 1\]\)",
    ):
        evaluate(f, mixed, m)
    # The zero value lies in every component.
    zero = dict(sub)
    zero[Var(3, 1)] = ModelElement.zero(GF2)
    assert evaluate(f, zero, m).is_zero()


@pytest.mark.parametrize(
    "poly_field, model_field",
    [(GF3, GF2), (GF2, GF3), (Field.rationals(), GF3), (GF3, Field.rationals())],
    ids=str,
)
def test_a_polynomial_over_another_field_is_refused(poly_field, model_field):
    model = u1_model(model_field)
    x1, x2 = Var(1, 1), Var(2, 2)
    f = LiePoly.monomial(poly_field, (x1, x2), 1 if poly_field == GF2 else 2)
    sub = {x: model.basis_element(x.degree) for x in (x1, x2)}
    with pytest.raises(ValueError, match="polynomial field .* does not match the model's field"):
        evaluate(f, sub, model)
    with pytest.raises(ValueError, match="polynomial field .* does not match the model's field"):
        satisfies_multilinear(model, f)
    # An equal field object that is not the model's own is accepted.
    twin = Field.from_spec(str(model_field))
    assert twin is not model_field
    g, own = (LiePoly.monomial(field, (x1, x2), 2) for field in (twin, model_field))
    assert evaluate(g, sub, model) == evaluate(own, sub, model)
    assert satisfies_multilinear(model, g) == satisfies_multilinear(model, own)
    # w1 has no degree -2 basis vector, hence no basis tuple to evaluate on:
    # only the field check refuses this.
    low = LiePoly.monomial(poly_field, (Var(1, -2), x2), 1 if poly_field == GF2 else 2)
    with pytest.raises(ValueError, match="polynomial field .* does not match the model's field"):
        satisfies_multilinear(w1_model(model_field), low)


def test_satisfies_multilinear_examples():
    m = u1_model(GF2)
    assert satisfies_multilinear(m, LiePoly.monomial(GF2, (Var(1, 2), Var(2, 4))))
    assert not satisfies_multilinear(m, LiePoly.monomial(GF2, (Var(1, 1), Var(2, 2))))
    ut = ut3_model(GF2, 0, 2)
    assert satisfies_multilinear(ut, LiePoly.monomial(GF2, (Var(1, 0), Var(2, 4))))


def test_basis_substitutions_cover_every_basis_tuple():
    ut = ut3_model(GF2, 0, 0)  # one three-dimensional component
    variables = (Var(1, 0), Var(2, 0))
    subs = list(basis_substitutions(ut, variables))
    assert len(subs) == 9
    assert all(set(s) == set(variables) for s in subs)
    assert len({tuple(tuple(s[v].terms) for v in variables) for s in subs}) == 9
    # an empty component admits only the zero value, so no tuple at all
    assert list(basis_substitutions(w1_model(GF2), (Var(1, 1), Var(2, -3)))) == []


@pytest.mark.parametrize("field", [GF2, GF3, Field.rationals()], ids=str)
def test_bracket_is_bilinear_on_sums(field):
    """[x, y] of sums equals the sum of the scaled basis brackets, also when
    the products cancel part way (the later products go through add_into)."""
    u1 = u1_model(field)
    e = u1.basis_element
    # [e1 + e2, e1 + e2] = [e1, e2] + [e2, e1] = 0: the first product is
    # cancelled by the second.
    x = e(1) + e(2)
    assert u1.bracket(x, x).is_zero()
    rng = random.Random(f"bracket/{field}")
    for model in (u1, w1_model(field), ut3_model(field, 0, 0), ut3_model(field, 0, 2)):
        elements = _all_basis_elements(model)
        for _ in range(40):
            x, y = (
                ModelElement(field, {
                    key: _random_scalar(rng, field)
                    for b in rng.sample(elements, rng.randint(1, min(4, len(elements))))
                    for key in b.terms
                })
                for _ in range(2)
            )
            expected = {}
            for (k1, c1), (k2, c2) in itertools.product(x.terms.items(), y.terms.items()):
                unit = model.bracket(model.basis_element(*k1), model.basis_element(*k2))
                for key, a in unit.terms.items():
                    expected[key] = field.add(
                        expected.get(key, field.zero), field.mul(field.mul(c1, c2), a)
                    )
            value = model.bracket(x, y)
            assert value == ModelElement(field, expected), (model, x, y)
            assert all(not field.is_zero(c) for c in value.terms.values())


#: Models whose term bracket is compared on random elements, with ut3:0:2
#: collision-merged (E23 and E13 share degree 2).
TERM_MODELS = ["u1", "w1", "ut3:0:0", "ut3:1:1", "ut3:0:2", "onedim:-2"]


@pytest.mark.parametrize("field", [GF2, GF3, Field.rationals()], ids=str)
@pytest.mark.parametrize("spec", TERM_MODELS)
def test_bracket_is_the_term_bracket(field, spec):
    """model.bracket wraps bracket_terms, which leaves its inputs as they
    are, returns reduced terms and is bilinear over the oracle's values of
    the basis brackets."""
    model = parse_model(spec, field)
    if spec.startswith("ut3"):
        assert model.collision_merged == (spec == "ut3:0:2")
    rng = random.Random(f"terms/{spec}/{field}")
    elements = _all_basis_elements(model)
    for _ in range(40):
        x, y = (
            ModelElement(field, {
                key: _random_scalar(rng, field)
                for b in rng.sample(elements, rng.randint(1, min(4, len(elements))))
                for key in b.terms
            })
            for _ in range(2)
        )
        before = dict(x.terms), dict(y.terms)
        terms = model.bracket_terms(x.terms, y.terms)
        assert (x.terms, y.terms) == before
        assert model.bracket(x, y).terms == terms
        assert all(c and (not field.p or 0 < c < field.p) for c in terms.values())
        expected = {}
        for ((d1, s1), c1), ((d2, s2), c2) in itertools.product(x.terms.items(), y.terms.items()):
            a, b = Var(1, d1), Var(2, d2)
            for key, c in oracle_value(model, (a, b), {a: s1, b: s2}).items():
                expected[key] = field.add(expected.get(key, field.zero), field.mul(field.mul(c1, c2), c))
        assert terms == {k: c for k, c in expected.items() if c}, (spec, x, y)
    if spec == "w1":
        with pytest.raises(AssertionError, match="left the support at degree -3"):
            model.bracket_terms({(-2, 0): field.one}, {(-1, 0): field.one})


def test_zero_prefix_runs_keep_the_rows():
    """u1 over GF(2) at degrees (-2, -2, -1, -2): the lead x4 brackets to
    zero with x1 and x2 (equal degrees), not with x3. The basis rows are the
    per-monomial rows, and below a zero prefix nothing is bracketed: each
    prefix whose shorter prefix is nonzero is bracketed once per
    substitution, 7 of the tree's 15 nodes."""
    model = u1_model(GF2)
    space = MultilinearSpace.for_degrees((-2, -2, -1, -2), GF2)
    x1, x2, x3, x4 = space.variables
    letters, = _basis_terms(model, space.variables)
    assert not _monomial_value(model, (x4, x1), letters)
    assert not _monomial_value(model, (x4, x2), letters)
    assert _monomial_value(model, (x4, x3), letters)
    rows = _basis_tuple_rows(model, space.variables)
    assert rows == _per_monomial_rows(model, space.variables, space.basis)
    assert [bool(row[0]) for row in rows] == [False] * 4 + [True] * 2
    calls = _count_brackets(model)
    _basis_tuple_rows(model, space.variables)
    del model.bracket_terms
    assert calls[0] == _prefix_brackets(model, space.variables, space.basis) == 7


def _monomial_value(model, mono, letters):
    """Terms of one left-normed monomial, through the term bracket."""
    return _value(tuple(mono), letters, model.bracket_terms)


def _per_monomial_rows(model, variables, monomials):
    """The rows of _basis_tuple_rows, each monomial evaluated on its own."""
    total = sum(v.degree for v in variables)
    slots = range(model.dim(total))
    rows = [[] for _ in monomials]
    if not slots:
        return rows
    zero = model.field.zero
    for letters in _basis_terms(model, variables):
        for row, mono in zip(rows, monomials):
            value = _monomial_value(model, mono, letters)
            row.extend(value.get((total, slot), zero) for slot in slots)
    return rows


def _prefix_brackets(model, variables, monomials):
    """Brute force: per basis substitution, the distinct prefixes of length
    >= 2 whose one-letter-shorter prefix has a nonzero value."""
    if not model.dim(sum(v.degree for v in variables)):
        return 0
    prefixes = {mono[:k] for mono in monomials for k in range(2, len(mono) + 1)}
    return sum(
        bool(_monomial_value(model, prefix[:-1], letters))
        for letters in _basis_terms(model, variables)
        for prefix in prefixes
    )


def _count_brackets(model):
    """Wrap the model's term bracket; returns the one-element call counter."""
    calls = [0]
    inner = model.bracket_terms

    def counted(x, y):
        calls[0] += 1
        return inner(x, y)

    model.bracket_terms = counted
    return calls


#: (model spec, degrees): w1 components where a proper prefix vanishes
#: ([e_a, e_a] = 0, [e_-1, e_1] = 2 e_0, and over GF(3) [e_-1, e_2] = 3 e_1),
#: u1 components, and ut3 components of dimension 2 or 3, whose several
#: basis substitutions each walk the prefix tree afresh.
PREFIX_CASES = [
    ("w1", (2, 2, 1, 3)),
    ("w1", (-1, 1, 0, 2, 2)),
    ("w1", (-1, -1, 2, 1, 3)),
    ("w1", (-1, 0, 1, 2, 3)),
    ("u1", (1, 2, 3, 4, -5)),
    ("u1", (-3, 0, 1, 1, 2)),
    ("ut3:0:0", (0, 0, 0)),
    ("ut3:0:0", (0, 0, 0, 0)),
    ("ut3:1:1", (1, 1)),
    ("ut3:1:1", (1, 1, 1)),
    ("ut3:0:2", (0, 2)),
    ("ut3:0:2", (0, 2, 0)),
    ("ut3:0:2", (2, 2, 0, 0)),
]


@pytest.mark.parametrize("field", [GF2, GF3], ids=str)
@pytest.mark.parametrize("spec, degrees", PREFIX_CASES)
def test_basis_tuple_rows_share_prefixes(field, spec, degrees):
    """The rows read off the prefix tree equal the per-monomial rows of the
    basis, and each distinct prefix whose shorter prefix is nonzero is
    bracketed exactly once per substitution."""
    model = parse_model(spec, field)
    space = MultilinearSpace.for_degrees(degrees, field)
    variables = space.variables
    basis = space.basis
    assert _basis_tuple_rows(model, variables) == _per_monomial_rows(model, variables, basis)
    if spec == "w1":
        assert any(
            not _monomial_value(model, mono[:k], letters)
            for letters in _basis_terms(model, variables)
            for mono in basis
            for k in range(2, len(mono))
        )
    if spec.startswith("ut3"):
        assert len(list(basis_substitutions(model, variables))) > 1
    expected = _prefix_brackets(model, variables, basis)
    calls = _count_brackets(model)
    _basis_tuple_rows(model, variables)
    del model.bracket_terms
    assert calls[0] == expected


@pytest.mark.parametrize(
    "field, degrees", [(GF2, (1, 2, 2, 2, 2)), (GF3, (1, 2, 3, 4, 6))], ids=str
)
def test_satisfies_multilinear_matches_the_oracle_on_many_terms(field, degrees):
    """Terms given in shuffled order: the verdict is the oracle's, on
    identities with many terms (random combinations of the kernel vectors)
    and on perturbed ones."""
    rng = random.Random(f"sorted/{field}")
    model = u1_model(field)
    space = MultilinearSpace.for_degrees(degrees, field)
    kernel = oracle_kernel(oracle_rows(model, space.variables, space.basis), field)
    assert 0 < len(kernel) < space.dim
    for trial in range(6):
        coeffs = [field.zero] * space.dim
        for vec in kernel:
            a = _random_scalar(rng, field)
            coeffs = [field.add(x, field.mul(a, y)) for x, y in zip(coeffs, vec)]
        if trial % 2:
            coeffs[rng.randrange(space.dim)] = field.one  # most likely no identity
        terms = [(mono, c) for mono, c in zip(space.basis, coeffs) if c]
        rng.shuffle(terms)
        f = LiePoly(field, dict(terms))
        assert satisfies_multilinear(model, f) == oracle_satisfies(model, f), f.terms


def test_satisfies_multilinear_rejects_nonmultilinear():
    m = u1_model(GF2)
    square = LiePoly.monomial(GF2, (Var(1, 0), Var(2, 1), Var(1, 0)))
    with pytest.raises(ValueError):
        satisfies_multilinear(m, square)


#: model -> the degrees its random variables are drawn from
ORACLE_MODELS = {
    "u1": range(-3, 4),
    "w1": range(-3, 4),
    "ut3:0:0": (0, 0, 0, 1),  # one three-dimensional component
    "ut3:0:2": (0, 2, 2),  # E23 and E13 merged at degree 2
    "onedim:-2": (-2, -2, 1),
}


def _random_scalar(rng, field):
    if field.characteristic:
        return rng.randrange(field.characteristic)
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def _oracle_evaluate(model, poly, choice):
    field = model.field
    out = {}
    for mono, c in poly.terms.items():
        for key, a in oracle_value(model, mono, choice).items():
            out[key] = field.add(out.get(key, field.zero), field.mul(c, a))
    return {key: a for key, a in out.items() if not field.is_zero(a)}


@pytest.mark.parametrize("field", [GF2, GF3, Field.rationals()], ids=str)
@pytest.mark.parametrize("spec", sorted(ORACLE_MODELS))
def test_evaluation_matches_oracle(field, spec):
    """identity_subspace, satisfies_multilinear and evaluate against values
    computed without a model bracket, on random multi-term
    polynomials; the identities built from oracle kernel vectors have
    coefficients that cancel only when sums are reduced in the field."""
    rng = random.Random(f"{spec}/{field}")
    model = parse_model(spec, field)
    for _ in range(12):
        degrees = [rng.choice(ORACLE_MODELS[spec]) for _ in range(rng.randint(1, 4))]
        space = MultilinearSpace.for_degrees(degrees, field)
        kernel = oracle_kernel(oracle_rows(model, space.variables, space.basis), field)
        expected = SubspaceBasis.from_vectors(field, space.dim, kernel)
        assert identity_subspace(model, space) == expected, (spec, degrees)

        coeffs = [field.zero] * space.dim
        for vec in kernel:
            a = _random_scalar(rng, field)
            coeffs = [field.add(x, field.mul(a, y)) for x, y in zip(coeffs, vec)]
        identity = LiePoly(field, dict(zip(space.basis, coeffs)))
        assert satisfies_multilinear(model, identity), (spec, degrees, identity.terms)

        orders = list(itertools.permutations(space.variables))
        monos = rng.sample(orders, min(len(orders), rng.randint(1, 4)))
        poly = LiePoly(field, {m: _random_scalar(rng, field) for m in monos})
        for f in (poly, poly + identity):
            assert satisfies_multilinear(model, f) == oracle_satisfies(model, f), (
                spec, degrees, f.terms,
            )
            dims = [model.dim(v.degree) for v in space.variables]
            if all(dims):
                choice = {v: rng.randrange(d) for v, d in zip(space.variables, dims)}
                substitution = {
                    v: model.basis_element(v.degree, i) for v, i in choice.items()
                }
                value = evaluate(f, substitution, model)
                assert value.terms == _oracle_evaluate(model, f, choice), (spec, degrees)


@pytest.mark.parametrize("field", [GF2, GF3, Field.rationals()], ids=str)
@pytest.mark.parametrize("spec", sorted(ORACLE_MODELS))
def test_tree_values_are_the_values_of_their_coordinates(field, spec):
    """On every basis tuple, the value of a random bracket tree is the
    combination of the oracle values of the left-normed basis that its
    certified coordinates give, and first_nonzero picks the first tree
    whose coordinates lie outside the identity subspace."""
    rng = random.Random(f"trees/{spec}/{field}")
    model = parse_model(spec, field)
    for _ in range(10):
        degrees = [rng.choice(ORACLE_MODELS[spec]) for _ in range(rng.randint(1, 4))]
        space = MultilinearSpace.for_degrees(degrees, field)
        trees = [random_multilinear_tree(rng, space.variables) for _ in range(4)]
        slots = list(itertools.product(*(range(model.dim(v.degree)) for v in space.variables)))
        for tree in trees:
            coords = space.coordinates(tree)
            for choice, letters in zip(slots, _basis_terms(model, space.variables)):
                picked = dict(zip(space.variables, choice))
                expected = {}
                for c, mono in zip(coords, space.basis):
                    for key, a in oracle_value(model, mono, picked).items():
                        expected[key] = field.add(expected.get(key, field.zero), field.mul(c, a))
                got = _value(tree, letters, model.bracket_terms)
                assert got == {k: a for k, a in expected.items() if a}, (spec, degrees, tree)
        ident = identity_subspace(model, space)
        outside = [t for t in trees if not ident.contains_vector(space.coordinates(t))]
        assert first_nonzero(model, space.variables, trees) == (outside[0] if outside else None)
