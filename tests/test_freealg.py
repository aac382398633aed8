import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_coordinates, oracle_expand, random_multilinear_tree, random_shape
from wittid import freealg
from wittid.fields import Field
from wittid.freealg import (
    AssocPoly,
    LiePoly,
    MultilinearSpace,
    Pair,
    Var,
    _ad_rows,
    _basis_prefixes,
    _core_rows,
    _expand_element,
    _fold,
    _position_fold,
    apply_ad,
    expand_to_associative,
    is_regular,
    leftnormed_basis,
    leftnormed_coordinates,
    mono_to_tree,
    multilinearize,
    zdegree,
)
from wittid.linalg import pack_bits

GF2 = Field.gf(2)
Q = Field.rationals()


def v(index, degree):
    return Var(index, degree)


def words_of(poly):
    return {tuple(str(x) for x in w): c for w, c in poly.terms.items()}


def test_variable_validation():
    with pytest.raises(ValueError):
        Var(0, 1)
    assert str(Var(3, -2)) == "x3^-2"


def test_variables_behave_as_index_degree_pairs():
    pairs = [(i, d) for i in (1, 2, 5, 11) for d in (-3, 0, 2)]
    vs = [Var(i, d) for i, d in pairs]
    for x, p in zip(vs, pairs):
        assert hash(x) == hash(p) == hash(Var(*p))
        assert repr(x) == f"Var(index={p[0]}, degree={p[1]})"
        for y, q in zip(vs, pairs):
            assert (x == y) == (p == q)
            assert (x < y) == (p < q) and (x <= y) == (p <= q)
        for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert twin == x and hash(twin) == hash(x) and repr(twin) == repr(x)
    assert sorted(reversed(vs)) == vs
    assert len({*vs, *(Var(i, d) for i, d in pairs)}) == len(vs)
    with pytest.raises(dataclasses.FrozenInstanceError):
        vs[0].index = 4


def test_expand_single_bracket_char2():
    t = Pair(v(1, 0), v(2, 0))
    exp = expand_to_associative(t, GF2)
    assert words_of(exp) == {("x1^0", "x2^0"): 1, ("x2^0", "x1^0"): 1}


def test_expand_leaf_is_word():
    exp = expand_to_associative(v(1, 5), GF2)
    assert words_of(exp) == {("x1^5",): 1}


def test_expand_triple_char2():
    # [[x1,x2],x3] -> ([x1,x2])x3 + x3([x1,x2]) once signs collapse mod 2
    mono = (v(1, 0), v(2, 0), v(3, 0))
    exp = expand_to_associative(mono, GF2)
    assert words_of(exp) == {
        ("x1^0", "x2^0", "x3^0"): 1,
        ("x2^0", "x1^0", "x3^0"): 1,
        ("x3^0", "x1^0", "x2^0"): 1,
        ("x3^0", "x2^0", "x1^0"): 1,
    }


def test_expand_signs_over_rationals():
    exp = expand_to_associative((v(1, 0), v(2, 0)), Q)
    assert words_of(exp) == {("x1^0", "x2^0"): 1, ("x2^0", "x1^0"): -1}


def test_expansion_is_faithful_on_rewritings():
    # [x1,x2] and -[x2,x1] are the same Lie element
    a = LiePoly.monomial(Q, (v(1, 1), v(2, 2)))
    b = LiePoly.monomial(Q, (v(2, 2), v(1, 1)), Q.from_int(-1))
    assert a == b
    assert not a.same_terms(b)


def test_constructors_and_scale_reduce_coefficients():
    gf3 = Field.gf(3)
    m = (v(2, 1), v(1, 3))
    assert repr(LiePoly(GF2, {m: 2})) == "0"
    assert LiePoly(GF2, {m: 2}).terms == {}
    assert LiePoly(gf3, {m: -1}).terms == {m: 2}
    assert AssocPoly(GF2, {m: 4}).is_zero()
    assert AssocPoly(gf3, {m: 5}).terms == {m: 2}
    assert repr(LiePoly(GF2, {m: 1}).scale(2)) == "0"
    assert LiePoly(GF2, {m: 1}).scale(2).terms == {}
    assert AssocPoly(GF2, {m: 1}).scale(2).is_zero()
    assert LiePoly(gf3, {m: 1}).scale(-1).terms == {m: 2}


def test_zdegree():
    assert zdegree((v(1, 2), v(2, 4), v(3, 1))) == 7
    assert zdegree(v(1, -2)) == -2
    assert zdegree((v(1, 1), v(2, -1))) == 0
    assert zdegree(Pair(v(1, 3), v(2, -1))) == 2
    f = LiePoly.monomial(GF2, (v(1, 1), v(2, 1)))
    assert zdegree(f) == 2


def test_zdegree_rejects_mixed_and_zero():
    mixed = LiePoly.monomial(GF2, (v(1, 1),)) + LiePoly.monomial(GF2, (v(2, 2),))
    with pytest.raises(ValueError):
        zdegree(mixed)
    with pytest.raises(ValueError):
        zdegree(LiePoly.zero(GF2))


def test_leftnormed_basis_sizes():
    assert len(MultilinearSpace.for_degrees([5], GF2).basis) == 1
    assert len(MultilinearSpace.for_degrees([1, 2, 3, 4, 5], GF2).basis) == 24
    space = MultilinearSpace.for_degrees([0, 0, 0], GF2)
    assert leftnormed_basis(space) == [
        (v(3, 0), v(1, 0), v(2, 0)),
        (v(3, 0), v(2, 0), v(1, 0)),
    ]


def test_space_requires_distinct_indices():
    with pytest.raises(ValueError):
        MultilinearSpace([v(1, 0), v(1, 1)], GF2)
    with pytest.raises(ValueError):
        MultilinearSpace([], GF2)


def test_single_variable_space():
    space = MultilinearSpace.for_degrees([-2], GF2)
    assert space.dim == 1
    assert space.coordinates(v(1, -2)) == (1,)


def test_coordinates_accept_a_list_of_variables():
    space = MultilinearSpace.for_degrees([1, 2, 3], GF2)
    for mono in space.basis:
        assert space.coordinates(list(mono)) == space.coordinates(mono)


def test_basis_elements_have_unit_coordinates():
    space = MultilinearSpace.for_degrees([1, 2, 3], GF2)
    for i, mono in enumerate(space.basis):
        coords = space.coordinates(mono)
        assert coords == tuple(1 if j == i else 0 for j in range(space.dim))


def test_jacobi_coordinates_char2():
    space = MultilinearSpace.for_degrees([0, 0, 0], GF2)
    tree = Pair(v(3, 0), Pair(v(1, 0), v(2, 0)))
    assert space.coordinates(tree) == (1, 1)


def test_coordinates_match_linear_solve_oracle():
    # same conversion recovered by a dense solve on the word coordinates
    space = MultilinearSpace.for_degrees([1, 2, 3], GF2)
    tree = Pair(Pair(v(1, 1), v(2, 2)), v(3, 3))
    assert space.coordinates(tree) == oracle_coordinates(space, tree)


@pytest.mark.parametrize("field", [GF2, Field.gf(3), Q])
def test_coordinates_match_oracle_on_random_trees(field):
    rng = random.Random(41)
    spaces = [
        MultilinearSpace.for_degrees(list(range(-1, n - 1)), field) for n in range(1, 6)
    ]
    # Indices neither contiguous nor sorted on input, so that a variable's
    # letter (its position in the space) is not its index.
    spaces.append(MultilinearSpace([v(7, 1), v(2, -1), v(5, 0)], field))
    spaces.append(MultilinearSpace([v(9, 0), v(4, 2), v(11, -2), v(3, 1)], field))
    for space in spaces:
        for _ in range(15):
            tree = random_multilinear_tree(rng, space.variables)
            assert space.coordinates(tree) == oracle_coordinates(space, tree)
        polys = []
        for _ in range(5):
            terms = {
                tuple(rng.sample(space.variables, space.n)): field.from_int(rng.randint(1, 6))
                for _ in range(rng.randint(2, 4))
            }
            polys.append(LiePoly(field, terms))
        for _ in range(5 if space.n > 1 else 0):
            # [a, b, ...] + [b, a, ...] is zero; [..., a, b] and [..., b, a]
            # share the words that put a and b on either side of the rest.
            m = tuple(rng.sample(space.variables, space.n))
            c = field.from_int(rng.randint(1, 6))
            polys.append(LiePoly(field, {m: c, (m[1], m[0]) + m[2:]: c}))
            if space.n > 2:
                d = field.from_int(rng.randint(1, 6))
                polys.append(LiePoly(field, {m: c, m[:-2] + (m[-1], m[-2]): d}))
        for poly in polys:
            want = [field.zero] * space.dim
            for mono, c in poly.terms.items():
                for j, x in enumerate(oracle_coordinates(space, mono)):
                    want[j] = field.add(want[j], field.mul(c, x))
            assert space.coordinates(poly) == tuple(want)


@pytest.mark.parametrize("n", range(1, 9))
def test_left_normed_fold_equals_tree_fold(n):
    # A tuple or a list reads the per-n position table; the tree walks its
    # spine. Same words, signs and order, with and without a letter map.
    rng = random.Random(f"fold/{n}")
    for _ in range(3):
        mono = [v(i, rng.randint(-3, 3)) for i in rng.sample(range(1, 20), n)]
        letter = {x: i for i, x in enumerate(sorted(mono, key=lambda x: x.index))}
        for letters in (None, letter):
            want = _fold(mono_to_tree(mono), letters)
            assert _fold(tuple(mono), letters) == want
            assert _fold(list(mono), letters) == want
    with pytest.raises(ValueError, match="empty monomial"):
        _fold(())


def test_position_fold_is_keyed_by_n_alone():
    _position_fold.cache_clear()
    rng = random.Random(17)
    lengths = [2, 3, 5, 6, 3, 2, 6]
    for n in lengths:
        for _ in range(4):
            _fold(tuple(v(i + 1, rng.randint(-3, 3)) for i in range(n)))
    assert _position_fold.cache_info().currsize == len(set(lengths))
    for n in set(lengths):
        getters, signs = _position_fold(n)
        assert isinstance(getters, tuple) and isinstance(signs, tuple)
        assert len(getters) == len(signs) == 2 ** (n - 1)
        # The table holds positions only: each getter picks a permutation
        # of the positions, and no degree or variable is kept.
        for g in getters:
            assert sorted(g(tuple(range(n)))) == list(range(n))
        assert set(signs) <= {1, -1}


@pytest.mark.parametrize("n", range(1, 8))
def test_basis_prefixes_spell_the_basis(n):
    """Each node extends an earlier prefix by one letter, the leaves spell
    MultilinearSpace.basis in its order, and there is one node per prefix
    of 2..n letters: sum over k of (n-1)!/(n-1-k)!."""
    nodes, leaves = _basis_prefixes(n)
    space = MultilinearSpace.for_degrees(range(n), GF2)
    spelled = [(n - 1,)]
    for parent, letter in nodes:
        assert parent < len(spelled) and letter not in spelled[parent]
        spelled.append(spelled[parent] + (letter,))
    assert [tuple(space.variables[i] for i in spelled[leaf]) for leaf in leaves] == space.basis
    assert len(set(spelled)) == len(spelled)
    assert len(nodes) == sum(factorial(n - 1) // factorial(n - 1 - k) for k in range(1, n))


@pytest.mark.parametrize("field", [GF2, Field.gf(3), Q], ids=str)
def test_liepoly_input_agrees_with_tree_input(field):
    rng = random.Random(f"liepoly/{field}")
    for n in range(1, 7):
        indices = rng.sample(range(1, 15), n)
        space = MultilinearSpace([v(i, rng.randint(-2, 2)) for i in indices], field)
        for _ in range(4):
            terms = {
                tuple(rng.sample(space.variables, n)): field.from_int(rng.randint(1, 6))
                for _ in range(rng.randint(1, 4))
            }
            poly = LiePoly(field, terms)
            letter = {x: i for i, x in enumerate(space.variables)}
            for letters in (None, letter):
                want = {}
                coords = [field.zero] * space.dim
                for mono, c in poly.terms.items():
                    tree = mono_to_tree(mono)
                    words = _expand_element(tree, field, letters).items()
                    field.add_into(want, ((w, field.mul(c, a)) for w, a in words))
                    coords = [
                        field.add(x, field.mul(c, y))
                        for x, y in zip(coords, space.coordinates(tree))
                    ]
                assert _expand_element(poly, field, letters) == want
                assert space.coordinates(poly) == tuple(coords)
            for mono in poly.terms:
                assert _expand_element(mono, field) == _expand_element(mono_to_tree(mono), field)


def test_certification_is_live_on_both_paths():
    # A corrupted basis table must make the certification fail, on the
    # GF(2) mask path and on the generic recombination path alike. The
    # tables are shared by every space with the same (n, field), so the
    # corruption goes into a copy bound to this one space, and a fresh
    # space must still certify.
    space = MultilinearSpace.for_degrees([0, 1, 2, 3], GF2)
    mono = space.basis[2]
    assert space.coordinates(mono_to_tree(mono)) == (0, 0, 1, 0, 0, 0)
    masks = list(space._basis_masks)
    masks[2] ^= 1 << 23
    space._basis_masks = tuple(masks)
    with pytest.raises(AssertionError, match="certification failed"):
        space.coordinates(mono_to_tree(mono))
    poly = LiePoly(GF2, {mono: 1, space.basis[0]: 1})
    with pytest.raises(AssertionError, match="certification failed"):
        space.coordinates(poly)
    fresh = MultilinearSpace.for_degrees([0, 1, 2, 3], GF2)
    assert fresh.coordinates(poly) == (1, 0, 1, 0, 0, 0)
    # A coefficient stored unreduced counts mod 2, as in the expansion.
    assert fresh.coordinates(LiePoly(GF2, {mono: 3, space.basis[0]: 2})) == (0, 0, 1, 0, 0, 0)
    assert fresh.coordinates(mono_to_tree(fresh.basis[2])) == (0, 0, 1, 0, 0, 0)

    gf3 = Field.gf(3)
    space = MultilinearSpace.for_degrees([0, 1, 2, 3], gf3)
    mono = space.basis[2]
    assert space.coordinates(mono_to_tree(mono)) == (0, 0, 1, 0, 0, 0)
    expansions = list(space._basis_expansions)
    row = dict(expansions[2])
    word = next(iter(row))
    row[word] = gf3.add(row[word], 1)
    expansions[2] = row
    space._basis_expansions = tuple(expansions)
    with pytest.raises(AssertionError, match="certification failed"):
        space.coordinates(mono_to_tree(mono))
    fresh = MultilinearSpace.for_degrees([0, 1, 2, 3], gf3)
    assert fresh.coordinates(mono_to_tree(fresh.basis[2])) == (0, 0, 1, 0, 0, 0)


@pytest.mark.parametrize("field", [GF2, Field.gf(3)])
def test_shared_tables_are_read_only(field):
    a = MultilinearSpace.for_degrees([0, 1, 2], field)
    b = MultilinearSpace((v(9, 5), v(4, -1), v(7, 0)), field)
    a.coordinates(mono_to_tree(a.basis[0]))
    b.coordinates(mono_to_tree(b.basis[0]))
    assert a._lead_words is b._lead_words
    if field == GF2:
        assert a._basis_masks is b._basis_masks
        # Coordinate i is read as bit i of a word mask.
        assert [a._word_id[w] for w in a._lead_words] == list(range(a.dim))
        with pytest.raises(TypeError):
            a._basis_masks[0] = 0
        with pytest.raises(TypeError):
            a._word_id[(0, 1, 2)] = 0
    else:
        assert a._basis_expansions is b._basis_expansions
        with pytest.raises(TypeError):
            a._basis_expansions[0][(2, 0, 1)] = 1


@pytest.mark.parametrize("field", [GF2, Field.gf(3)])
def test_row_tables_match_oracle_and_are_shared(field):
    # The rows on 4 letters, read in a space with other indices and
    # degrees, against the oracle; repeated calls return the same tuples.
    # Over GF(2) a row is the int mask of its oracle coordinates, and the
    # ad rows are the core rows of the split with pos alone on the right.
    space = MultilinearSpace((v(9, 5), v(2, -1), v(7, 0), v(4, 2)), field)
    vs = space.variables
    row_form = pack_bits if field == GF2 else tuple
    core = _core_rows(4, (0, 2), field)
    assert core is _core_rows(4, (0, 2), field)
    lefts = MultilinearSpace((vs[0], vs[2]), field).basis
    rights = MultilinearSpace((vs[1], vs[3]), field).basis
    assert list(core) == [
        row_form(oracle_coordinates(space, Pair(mono_to_tree(m), mono_to_tree(r))))
        for m in lefts
        for r in rights
    ]
    ad = _ad_rows(4, 1, field)
    assert ad is _ad_rows(4, 1, field)
    rest = MultilinearSpace(vs[:1] + vs[2:], field).basis
    images = [oracle_coordinates(space, b + (vs[1],)) for b in rest]
    if field == GF2:
        assert all(type(row) is int for row in core + ad)
        assert ad == _core_rows(4, (0, 2, 3), field)
        assert list(ad) == [pack_bits(c) for c in images]
    else:
        assert all(isinstance(row, tuple) for row in core + ad)
        assert list(ad) == [tuple((i, x) for i, x in enumerate(c) if x) for c in images]
    for table in (core, ad):
        with pytest.raises(TypeError):
            table[0] = ()


def _clear_row_tables():
    _core_rows.cache_clear()
    _ad_rows.cache_clear()


@pytest.mark.parametrize("field", [GF2, Field.gf(3)])
def test_row_tables_certify_when_built(monkeypatch, field):
    # Every basis row of the shared letter tables gets its own wrong word,
    # so any nonzero recombination fails the certification. The row tables
    # are cleared before and after, so no row built here stays cached.
    real = freealg._letter_tables

    def corrupted(n, f):
        lead_words, word_id, masks, expansions = real(n, f)
        if masks is not None:
            masks = tuple(m ^ (1 << i) for i, m in enumerate(masks))
        else:
            expansions = tuple(
                {**e, w: f.add(e[w], f.one)} for w, e in zip(lead_words, expansions)
            )
        return lead_words, word_id, masks, expansions

    _clear_row_tables()
    monkeypatch.setattr(freealg, "_letter_tables", corrupted)
    try:
        with pytest.raises(AssertionError, match="certification failed"):
            _core_rows(3, (0,), field)
        with pytest.raises(AssertionError, match="certification failed"):
            _ad_rows(3, 1, field)
    finally:
        monkeypatch.undo()
        _clear_row_tables()
    assert _core_rows(3, (0,), field)
    assert _ad_rows(3, 1, field)


def test_coordinates_reject_non_members():
    space = MultilinearSpace.for_degrees([1, 2], GF2)
    with pytest.raises(ValueError):
        space.coordinates((v(1, 1), v(1, 1)))
    with pytest.raises(ValueError):
        space.coordinates(v(1, 1))
    other = LiePoly.monomial(GF2, (v(1, 1), v(3, 2)))
    with pytest.raises(ValueError):
        space.coordinates(other)


@pytest.mark.parametrize("field", [GF2, Q])
def test_roundtrip_through_coordinates(field):
    rng = random.Random(12)
    for n in range(1, 6):
        space = MultilinearSpace.for_degrees([(-1) ** i * (i % 3) for i in range(n)], field)
        for _ in range(20):
            tree = random_multilinear_tree(rng, space.variables)
            coords = leftnormed_coordinates(tree, space)
            rebuilt = space.poly_from_coords(coords)
            assert rebuilt.expand() == expand_to_associative(tree, field)


@pytest.mark.parametrize("field", [GF2, Field.gf(3), Q])
def test_expansion_matches_orientation_oracle(field):
    rng = random.Random(31)
    for n in range(1, 6):
        vs = [v(i + 1, rng.randint(-2, 2)) for i in range(n)]
        for _ in range(15):
            tree = random_multilinear_tree(rng, vs)
            mono = tuple(rng.sample(vs, n))
            # Leaves drawn with repetition, so that words can cancel.
            repeated = random_shape(rng, [rng.choice(vs) for _ in range(n)])
            for x in (tree, mono, repeated):
                assert expand_to_associative(x, field).terms == oracle_expand(x, field)



@pytest.mark.parametrize("field", [Field.gf(3), Q], ids=str)
def test_expand_element_of_scaled_polys_matches_oracle(field):
    # Each monomial's words are added once, times its coefficient; the
    # monomials may repeat letters, so that words cancel within them.
    rng = random.Random(f"scaled/{field}")
    for n in range(1, 6):
        vs = [v(i + 1, rng.randint(-2, 2)) for i in range(n)]
        for _ in range(10):
            monos = {tuple(rng.sample(vs, n)) for _ in range(rng.randint(1, 4))}
            monos.add(tuple(rng.choice(vs) for _ in range(n)))
            if field == Q:
                terms = {m: Fraction(rng.choice([-3, -2, 2, 5]), rng.randint(1, 4)) for m in monos}
            else:
                terms = {m: 2 for m in monos}
            want = {}
            for mono, c in terms.items():
                words = oracle_expand(mono, field).items()
                field.add_into(want, ((w, field.mul(c, a)) for w, a in words))
            assert _expand_element(LiePoly(field, terms), field) == want

@pytest.mark.parametrize("field", [GF2, Field.gf(3), Q])
def test_basis_expansions_full_rank(field):
    from wittid.linalg import SubspaceBasis

    for n in range(1, 5):
        space = MultilinearSpace.for_degrees([2] * n, field)
        words = {w: j for j, w in enumerate(itertools.permutations(space.variables))}
        span = SubspaceBasis.zero(field, len(words))
        for mono in space.basis:
            exp = expand_to_associative(mono, field)
            vec = [field.zero] * len(words)
            for w, c in exp.terms.items():
                vec[words[w]] = c
            assert span.insert(vec)
        assert span.dim == factorial(n - 1)


def test_alternation_and_jacobi_in_the_image():
    rng = random.Random(5)
    for field in (GF2, Q):
        for _ in range(25):
            n = rng.randint(1, 4)
            vs = [v(i + 1, rng.randint(-2, 2)) for i in range(n)]
            t = random_multilinear_tree(rng, vs)
            assert expand_to_associative(Pair(t, t), field).is_zero()
            b = random_multilinear_tree(rng, [v(n + 1, 0)])
            c = random_multilinear_tree(rng, [v(n + 2, 1)])
            jacobi = (
                expand_to_associative(Pair(Pair(t, b), c), field)
                + expand_to_associative(Pair(Pair(b, c), t), field)
                + expand_to_associative(Pair(Pair(c, t), b), field)
            )
            assert jacobi.is_zero()


def test_apply_ad():
    f = LiePoly.monomial(GF2, (v(1, 1),))
    assert apply_ad(f, v(2, 2), 1).same_terms(LiePoly.monomial(GF2, (v(1, 1), v(2, 2))))
    assert apply_ad(f, v(2, 2), 0).same_terms(f)
    g = LiePoly.monomial(GF2, (v(1, 1), v(2, 2)))
    assert apply_ad(g, v(3, 0), 2).same_terms(
        LiePoly.monomial(GF2, (v(1, 1), v(2, 2), v(3, 0), v(3, 0)))
    )


def test_is_regular():
    a = LiePoly.monomial(GF2, (v(1, 1), v(2, 2))) + LiePoly.monomial(
        GF2, (v(2, 2), v(1, 1))
    )
    assert is_regular(a)
    b = LiePoly.monomial(GF2, (v(1, 1), v(2, 2))) + LiePoly.monomial(
        GF2, (v(1, 1), v(3, 3))
    )
    assert not is_regular(b)
    assert is_regular(LiePoly.monomial(GF2, (v(1, 1), v(2, 2), v(1, 1))))


def test_multilinearize_linear_input_unchanged():
    f = LiePoly.monomial(GF2, (v(1, 1), v(2, 2)))
    assert multilinearize(f, v(1, 1)).same_terms(f)


def test_multilinearize_two_occurrences():
    f = LiePoly.monomial(GF2, (v(1, 0), v(2, 2), v(1, 0)))
    expected = LiePoly.monomial(GF2, (v(1, 0), v(2, 2), v(3, 0))) + LiePoly.monomial(
        GF2, (v(3, 0), v(2, 2), v(1, 0))
    )
    assert multilinearize(f, v(1, 0)).same_terms(expected)


def test_multilinearize_summand_count():
    f = LiePoly.monomial(Q, (v(1, 0), v(1, 0), v(2, 1)))
    h = multilinearize(f, v(1, 0))
    assert len(h.terms) == 2


def test_multilinearize_identification_scales_by_count():
    # identifying the fresh variables back multiplies by k! (so over GF(2)
    # with k = 2 the identification would vanish; check over the rationals)
    f = LiePoly.monomial(Q, (v(1, 0), v(2, 2), v(1, 0)))
    h = multilinearize(f, v(1, 0), fresh_indices=[3])
    identified = LiePoly.zero(Q)
    for mono, c in h.terms.items():
        back = tuple(v(1, 0) if x.index == 3 else x for x in mono)
        identified = identified + LiePoly.monomial(Q, back, c)
    assert identified.expand() == f.expand().scale(Q.from_int(2))


def test_multilinearize_errors():
    f = LiePoly.monomial(GF2, (v(1, 1), v(2, 2)))
    with pytest.raises(ValueError):
        multilinearize(f, v(3, 3))
    mixed = LiePoly.monomial(GF2, (v(1, 0), v(2, 1))) + LiePoly.monomial(
        GF2, (v(1, 0), v(2, 1), v(1, 0))
    )
    with pytest.raises(ValueError):
        multilinearize(mixed, v(1, 0))
    with pytest.raises(ValueError):
        multilinearize(f, v(1, 1), fresh_indices=[2])  # collides with x2


@st.composite
def multilinear_trees(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    degrees = draw(
        st.lists(st.integers(min_value=-2, max_value=2), min_size=n, max_size=n)
    )
    vs = [Var(i + 1, d) for i, d in enumerate(degrees)]
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return random_multilinear_tree(random.Random(seed), vs)


@settings(max_examples=60, deadline=None)
@given(multilinear_trees(), st.sampled_from([GF2, Field.gf(3), Q]))
def test_property_self_bracket_vanishes(tree, field):
    assert expand_to_associative(Pair(tree, tree), field).is_zero()
