import copy
import itertools
import pickle
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_coordinates, oracle_expand, random_multilinear_tree, random_shape
from wittid import freealg, tideal
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
    _expand_terms,
    _fold,
    _letter_coordinates,
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
from wittid.linalg import pack_bits, unpack_bits

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
    with pytest.raises(AttributeError):
        vs[0].index = 4
    # Trees and families are values too: immutable, compared and hashed by
    # their fields, and kept by a pickle or copy round trip.
    family = tideal.BasisFamily("w1", -1)
    for x, same, other, field in (
        (Pair(v(1, 0), v(2, 1)), Pair(v(1, 0), v(2, 1)), Pair(v(2, 1), v(1, 0)), "left"),
        (family, tideal.family_for("w1", "wide"), tideal.BasisFamily("w1", 0), "kind"),
    ):
        assert x == same and hash(x) == hash(same) and x != other
        assert len({x, same, other}) == 2
        for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            assert twin == x and hash(twin) == hash(x) and repr(twin) == repr(x)
        with pytest.raises(AttributeError):
            setattr(x, field, other)
    assert repr(family) == "BasisFamily(kind='w1', bracket_lower_bound=-1)"


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
    # spine. Same words, signs and order, on Vars and on letters, and the
    # fold on letters is the fold on Vars with each Var put on its letter.
    rng = random.Random(f"fold/{n}")
    for _ in range(3):
        mono = [v(i, rng.randint(-3, 3)) for i in rng.sample(range(1, 20), n)]
        letter = {x: i for i, x in enumerate(sorted(mono, key=lambda x: x.index))}
        letters = [letter[x] for x in mono]
        for leaves in (mono, letters):
            want = _fold(mono_to_tree(leaves))
            assert _fold(tuple(leaves)) == want
            assert _fold(list(leaves)) == want
        words, signs = _fold(tuple(mono))
        assert _fold(tuple(letters)) == ([tuple(letter[x] for x in w) for w in words], signs)
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
            want = {}
            coords = [field.zero] * space.dim
            for mono, c in poly.terms.items():
                tree = mono_to_tree(mono)
                words = expand_to_associative(tree, field).terms.items()
                field.add_into(want, ((w, field.mul(c, a)) for w, a in words))
                coords = [
                    field.add(x, field.mul(c, y))
                    for x, y in zip(coords, space.coordinates(tree))
                ]
            assert _expand_terms(poly.terms.items(), field) == want
            assert expand_to_associative(poly).terms == want
            assert space.coordinates(poly) == tuple(coords)
            # The same polynomial on letters, read by the letter routine.
            letter = {x: i for i, x in enumerate(space.variables)}
            on_letters = [(tuple(letter[x] for x in m), c) for m, c in poly.terms.items()]
            got = _letter_coordinates(on_letters, n, field)
            assert (unpack_bits(got, space.dim) if field == GF2 else got) == tuple(coords)
            for mono in poly.terms:
                one = ((mono, field.one),)
                assert _expand_terms(one, field) == _expand_terms(
                    ((mono_to_tree(mono), field.one),), field
                )


def _corrupted_letter_tables(monkeypatch, n):
    """Replace the letter tables on n letters by ones in which every basis
    row has its own wrong word, so that any nonzero recombination fails
    the certification; other sizes keep theirs."""
    real = freealg._letter_tables

    def corrupted(k, f):
        lead_words, word_id, masks, expansions = real(k, f)
        if k != n:
            return lead_words, word_id, masks, expansions
        if masks is not None:
            masks = tuple(m ^ (1 << (len(word_id) - 1 - i)) for i, m in enumerate(masks))
        else:
            expansions = tuple(
                {**e, w: f.add(e[w], f.one)} for w, e in zip(lead_words, expansions)
            )
        return lead_words, word_id, masks, expansions

    monkeypatch.setattr(freealg, "_letter_tables", corrupted)


def test_certification_is_live_on_both_paths(monkeypatch):
    # Corrupted letter tables must make the certification fail, on the
    # GF(2) mask path and on the generic recombination path alike, for a
    # tree and for a polynomial; with the tables back, the same inputs
    # certify.
    for field in (GF2, Field.gf(3)):
        space = MultilinearSpace.for_degrees([0, 1, 2, 3], field)
        tree = mono_to_tree(space.basis[2])
        poly = LiePoly(field, {space.basis[2]: 1, space.basis[0]: 1})
        small = MultilinearSpace.for_degrees([0, 1, 2], field)
        assert space.coordinates(tree) == (0, 0, 1, 0, 0, 0)
        with monkeypatch.context() as patch:
            _corrupted_letter_tables(patch, 4)
            with pytest.raises(AssertionError, match="certification failed"):
                space.coordinates(tree)
            with pytest.raises(AssertionError, match="certification failed"):
                space.coordinates(poly)
            # Other sizes read their own, intact tables.
            assert small.coordinates(small.basis[0]) == (1, 0)
        assert space.coordinates(poly) == (1, 0, 1, 0, 0, 0)
        assert space.coordinates(tree) == (0, 0, 1, 0, 0, 0)
    # A coefficient stored unreduced counts mod 2, as in the expansion.
    basis = MultilinearSpace.for_degrees([0, 1, 2, 3], GF2).basis
    poly = LiePoly(GF2, {basis[2]: 3, basis[0]: 2})
    assert MultilinearSpace.for_degrees([0, 1, 2, 3], GF2).coordinates(poly) == (0, 0, 1, 0, 0, 0)


@pytest.mark.parametrize("field", [GF2, Field.gf(3)])
def test_shared_tables_are_read_only(monkeypatch, field):
    # Spaces of the same size and field, whatever their variables, read one
    # table object, keyed by (n, field) alone; it cannot be changed.
    reads = []

    def recording(n, f):
        reads.append((n, f, real(n, f)))
        return reads[-1][2]

    real = freealg._letter_tables
    monkeypatch.setattr(freealg, "_letter_tables", recording)
    a = MultilinearSpace.for_degrees([0, 1, 2], field)
    b = MultilinearSpace((v(9, 5), v(4, -1), v(7, 0)), field)
    a.coordinates(mono_to_tree(a.basis[0]))
    b.coordinates(LiePoly(field, {b.basis[1]: 1}))
    assert [(n, f) for n, f, _ in reads] == [(3, field), (3, field)]
    assert reads[0][2] is reads[1][2]
    lead_words, word_id, masks, expansions = reads[0][2]
    assert list(lead_words) == [(2, 0, 1), (2, 1, 0)]
    if field == GF2:
        assert expansions is None
        # Coordinate i is read as bit i of a word mask.
        assert [word_id[w] for w in lead_words] == list(range(a.dim))
        with pytest.raises(TypeError):
            masks[0] = 0
        with pytest.raises(TypeError):
            word_id[(0, 1, 2)] = 0
    else:
        assert word_id is None and masks is None
        with pytest.raises(TypeError):
            expansions[0][(2, 0, 1)] = 1


@pytest.mark.parametrize("k", range(2, 6))
@pytest.mark.parametrize("field", [GF2, Field.gf(3)], ids=str)
def test_row_tables_match_oracle_and_are_shared(field, k):
    # The rows of every split on k letters, read in a space with other
    # indices and degrees, against the oracle; repeated calls return the
    # same tuples. Over GF(2) a row is the int mask of its oracle
    # coordinates, and the ad rows are the core rows of the split with pos
    # alone on the right.
    rng = random.Random(f"rows/{k}")
    space = MultilinearSpace(
        [v(i, rng.randint(-2, 2)) for i in rng.sample(range(1, 15), k)], field
    )
    vs = space.variables
    row_form = pack_bits if field == GF2 else tuple
    row_type = int if field == GF2 else tuple
    tables = []
    for size in range(1, k):
        for left in itertools.combinations(range(k), size):
            core = _core_rows(k, left, field)
            assert core is _core_rows(k, left, field)
            lefts = MultilinearSpace([vs[i] for i in left], field).basis
            rights = MultilinearSpace([x for i, x in enumerate(vs) if i not in left], field).basis
            assert list(core) == [
                row_form(oracle_coordinates(space, Pair(mono_to_tree(m), mono_to_tree(r))))
                for m in lefts
                for r in rights
            ]
            tables.append(core)
    for pos in range(k):
        ad = _ad_rows(k, pos, field)
        assert ad is _ad_rows(k, pos, field)
        rest = MultilinearSpace(vs[:pos] + vs[pos + 1:], field).basis
        images = [oracle_coordinates(space, b + (vs[pos],)) for b in rest]
        if field == GF2:
            assert ad == _core_rows(k, tuple(i for i in range(k) if i != pos), field)
            assert list(ad) == [pack_bits(c) for c in images]
        else:
            assert list(ad) == [tuple((i, x) for i, x in enumerate(c) if x) for c in images]
        tables.append(ad)
    for table in tables:
        assert all(type(row) is row_type for row in table)
        with pytest.raises(TypeError):
            table[0] = ()


def _clear_row_tables():
    _core_rows.cache_clear()
    _ad_rows.cache_clear()


@pytest.mark.parametrize("field", [GF2, Field.gf(3)])
def test_row_tables_certify_when_built(monkeypatch, field):
    # Row tables are built through the letter routine, so corrupted letter
    # tables fail their certification. The row tables are cleared before
    # and after, so no row built here stays cached.
    _clear_row_tables()
    try:
        with monkeypatch.context() as patch:
            _corrupted_letter_tables(patch, 3)
            with pytest.raises(AssertionError, match="certification failed"):
                _core_rows(3, (0,), field)
            with pytest.raises(AssertionError, match="certification failed"):
                _ad_rows(3, 1, field)
    finally:
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
    # A polynomial over another field is refused, even with its monomials
    # in the space, and so is a coordinate vector of the wrong length.
    gf3 = Field.gf(3)
    with pytest.raises(ValueError, match="field does not match the space"):
        space.coordinates(LiePoly.monomial(gf3, (v(2, 2), v(1, 1))))
    assert MultilinearSpace(space.variables, gf3).coordinates(
        LiePoly.monomial(gf3, (v(2, 2), v(1, 1)))
    ) == (1,)
    with pytest.raises(ValueError, match="expected 1 coordinates, got 2"):
        space.poly_from_coords((1, 0))


@pytest.mark.parametrize("field", [GF2, Field.gf(3), Q], ids=str)
def test_negation_and_difference_match_the_oracle(field):
    # f - f is zero, and f - g expands as f + (-g) by the orientation oracle.
    def oracle(poly):
        out = {}
        for mono, c in poly.terms.items():
            words = oracle_expand(mono, field).items()
            field.add_into(out, ((w, field.mul(c, a)) for w, a in words))
        return out

    rng = random.Random(f"negate/{field}")
    vs = [v(i + 1, rng.randint(-2, 2)) for i in range(4)]
    for _ in range(10):
        f, g = (
            LiePoly(field, {
                tuple(rng.sample(vs, 4)): field.from_int(rng.randint(1, 6))
                for _ in range(rng.randint(1, 3))
            })
            for _ in range(2)
        )
        assert (f - f).is_zero() and not (f - f).terms
        assert (-f).field == field and (f - g).field == field
        diff = f - g
        assert diff == f + (-g)
        want = oracle(f)
        field.add_into(want, ((w, field.neg(c)) for w, c in oracle(g).items()))
        assert diff.expand().terms == want
        assert (-g).expand().terms == {w: field.neg(c) for w, c in oracle(g).items()}


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
            poly = LiePoly(field, terms)
            assert _expand_terms(poly.terms.items(), field) == want
            assert expand_to_associative(poly).terms == want


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
