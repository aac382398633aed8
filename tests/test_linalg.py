import random
from fractions import Fraction

import pytest

from conftest import _row_reduce, oracle_kernel, oracle_rref, oracle_span_rows
from wittid.fields import Field
from wittid.freealg import MultilinearSpace
from wittid.models import _basis_tuple_rows, parse_model
from wittid.linalg import SubspaceBasis, linear_dependencies, pack_bits, unpack_bits

GF2 = Field.gf(2)
GF3 = Field.gf(3)


def test_zero_and_full():
    z = SubspaceBasis.zero(GF2, 4)
    assert z.dim == 0 and z.is_zero()
    f = SubspaceBasis.full(GF2, 4)
    assert f.dim == 4 and f.is_full()
    assert f.contains_subspace(z)
    assert not z.contains_subspace(f)


def test_insert_reports_rank_growth():
    b = SubspaceBasis.zero(GF2, 3)
    assert b.insert((1, 1, 0))
    assert not b.insert((1, 1, 0))
    assert b.insert((0, 1, 1))
    assert not b.insert((1, 0, 1))  # sum of the first two
    assert b.dim == 2


def test_reduced_echelon_is_canonical_gf3():
    b1 = SubspaceBasis.from_vectors(GF3, 3, [(1, 2, 0), (0, 1, 1)])
    b2 = SubspaceBasis.from_vectors(GF3, 3, [(2, 4, 0), (1, 0, 1)])
    assert b1 == b2
    assert b1.rows() == b2.rows()
    for row in b1.rows():
        pivot = next(i for i, c in enumerate(row) if c)
        assert row[pivot] == 1


def test_contains_vector():
    b = SubspaceBasis.from_vectors(GF2, 4, [(1, 0, 1, 0), (0, 1, 1, 0)])
    assert b.contains_vector((1, 1, 0, 0))
    assert not b.contains_vector((0, 0, 0, 1))
    assert b.reduce((1, 1, 0, 0)) == (0, 0, 0, 0)


@pytest.mark.parametrize("field", [GF2, GF3])
@pytest.mark.parametrize("vec", [(1, 0, 0, 1), (1, 0)])
def test_contains_vector_checks_length(field, vec):
    b = SubspaceBasis.from_vectors(field, 3, [(1, 0, 0)])
    with pytest.raises(ValueError, match="expected length 3"):
        b.contains_vector(vec)


def test_subspace_comparisons():
    a = SubspaceBasis.from_vectors(GF2, 3, [(1, 0, 0), (0, 1, 0)])
    c = SubspaceBasis.from_vectors(GF2, 3, [(1, 1, 0)])
    assert a == a
    assert a.contains_subspace(c)
    assert not c.contains_subspace(a)
    assert a != c


def test_ambient_mismatch_rejected():
    a = SubspaceBasis.zero(GF2, 3)
    b = SubspaceBasis.zero(GF2, 4)
    c = SubspaceBasis.zero(GF3, 3)
    with pytest.raises(ValueError):
        a.contains_subspace(b)
    with pytest.raises(ValueError):
        a == c
    with pytest.raises(ValueError):
        a.insert((1, 0))


@pytest.mark.parametrize("field", [GF2, GF3, Field.rationals()])
def test_rank_matches_brute_force(field):
    rng = random.Random(7)
    for _ in range(20):
        ncols = rng.randint(1, 6)
        vectors = [
            [field.from_int(rng.randint(-3, 3)) for _ in range(ncols)]
            for _ in range(rng.randint(1, 6))
        ]
        basis = SubspaceBasis.from_vectors(field, ncols, vectors)
        # every input vector lies in the span; rank never exceeds bounds
        assert all(basis.contains_vector(v) for v in vectors)
        assert basis.dim <= min(ncols, len(vectors))
        # re-inserting the echelon rows changes nothing
        again = SubspaceBasis.from_vectors(field, ncols, basis.rows())
        assert again == basis


@pytest.mark.parametrize("field", [GF2, GF3, Field.rationals()])
def test_linear_dependencies_kernel(field):
    rng = random.Random(11)
    for _ in range(20):
        m = rng.randint(1, 5)
        t = rng.randint(1, 5)
        vectors = [
            [field.from_int(rng.randint(-2, 2)) for _ in range(t)] for _ in range(m)
        ]
        kernel = linear_dependencies(vectors, field)
        span = SubspaceBasis.from_vectors(field, t, vectors)
        # rank-nullity and exactness of every kernel row
        assert kernel.dim == m - span.dim
        for coeffs in kernel.rows():
            combo = [field.zero] * t
            for c, vec in zip(coeffs, vectors):
                combo = [field.add(x, field.mul(c, y)) for x, y in zip(combo, vec)]
            assert all(field.is_zero(x) for x in combo)


def test_linear_dependencies_refuse_vectors_of_different_lengths():
    with pytest.raises(ValueError, match="vectors must share a length"):
        linear_dependencies([(1, 0), (1, 0, 1)], GF2)


def test_dependencies_of_independent_vectors_trivial():
    kernel = linear_dependencies([(1, 0), (0, 1)], GF2)
    assert kernel.dim == 0
    kernel = linear_dependencies([(1, 1), (1, 1)], GF2)
    assert kernel.dim == 1
    assert kernel.rows() == [(1, 1)]


# -- packed rows against the from-scratch elimination of conftest ----------------


def random_scalar(rng, field, low=1):
    """A residue in [low, p-1], or over Q a fraction whose numerator is
    at least ``low`` in size: nonzero unless ``low`` is 0."""
    if field.kind == "prime":
        return field.from_int(rng.randint(low, field.p - 1))
    return Fraction(rng.choice((-1, 1)) * rng.randint(low, 3), rng.randint(1, 3))


def random_vector(rng, field, ncols, density):
    return [
        random_scalar(rng, field) if rng.random() < density else field.zero
        for _ in range(ncols)
    ]


def combination(rng, field, vectors, ncols):
    out = [field.zero] * ncols
    for v in vectors:
        c = random_scalar(rng, field, low=0)
        out = [field.add(a, field.mul(c, b)) for a, b in zip(out, v)]
    return out


def random_pair(rng, field):
    """Vectors of a subspace A of F^ncols, up to 130 columns, and of a
    subspace B that lies in A or leaves it by one vector placed anywhere
    among B's, so that containment, equality and rank all vary."""
    ncols = rng.choice([rng.randint(1, 8), rng.randint(60, 70), rng.randint(120, 130)])
    density = rng.choice([0.05, 0.3, 0.6])
    a = [random_vector(rng, field, ncols, density) for _ in range(rng.randint(0, 9))]
    b = [combination(rng, field, a, ncols) for _ in range(rng.randint(0, 5))]
    if rng.random() < 0.5:
        b.insert(rng.randint(0, len(b)), random_vector(rng, field, ncols, density))
    return ncols, a, b


@pytest.mark.parametrize("field", [GF2, GF3])
def test_packed_spans_match_oracle(field):
    rng = random.Random(8)
    outcomes = set()
    for _ in range(40):
        ncols, a, b = random_pair(rng, field)
        span_a = SubspaceBasis.from_vectors(field, ncols, a)
        span_b = SubspaceBasis.from_vectors(field, ncols, b)
        rref_a = oracle_rref(a, ncols, field)
        rref_b = oracle_rref(b, ncols, field)
        assert span_a.rows() == rref_a and span_b.rows() == rref_b
        rank_ab = len(oracle_rref(a + b, ncols, field))
        a_has_b, b_has_a = rank_ab == len(rref_a), rank_ab == len(rref_b)
        assert span_a.contains_subspace(span_b) == a_has_b
        assert span_b.contains_subspace(span_a) == b_has_a
        assert (span_a == span_b) == (rref_a == rref_b)
        # the same span from its rows in reverse order, plus a combination
        again = SubspaceBasis.from_vectors(
            field, ncols, rref_a[::-1] + [combination(rng, field, a, ncols)]
        )
        assert again == span_a
        outcomes.add((a_has_b, span_a.dim == span_b.dim, rref_a == rref_b))
    # the draws reach equal spans, proper containments and equal
    # dimensions without equality
    assert {(True, True, True), (True, False, False), (False, True, False)} <= outcomes


@pytest.mark.parametrize("field", [GF2, GF3])
@pytest.mark.parametrize("ncols", [0, 1, 64, 65, 130])
def test_full_matches_oracle(field, ncols):
    full = SubspaceBasis.full(field, ncols)
    units = [[field.one if i == j else field.zero for i in range(ncols)] for j in range(ncols)]
    assert full.is_full() and full.rows() == oracle_rref(units, ncols, field)
    assert full == SubspaceBasis.from_vectors(field, ncols, units[::-1])
    rng = random.Random(ncols)
    vec = random_vector(rng, field, ncols, 0.5)
    assert full.contains_vector(vec)
    assert full.contains_subspace(SubspaceBasis.from_vectors(field, ncols, [vec]))
    if ncols:
        assert not SubspaceBasis.from_vectors(field, ncols, units[1:]).contains_subspace(full)


@pytest.mark.parametrize("field", [GF2, GF3, Field.rationals()])
def test_linear_dependencies_match_oracle(field):
    rng = random.Random(9)
    # over Q the oracle's reduction of a wide kernel grows fractions
    wide = (60, 130) if field.kind == "prime" else (20, 40)
    for _ in range(12):
        m = rng.choice([rng.randint(1, 8), rng.randint(*wide)])
        t = rng.randint(0, 12)
        base = [random_vector(rng, field, t, 0.4) for _ in range(rng.randint(1, 6))]
        vectors = [
            combination(rng, field, base, t) if rng.random() < 0.7
            else random_vector(rng, field, t, 0.4)
            for _ in range(m)
        ]
        kernel = linear_dependencies(vectors, field)
        assert kernel.ncols == m
        assert kernel.rows() == oracle_rref(oracle_kernel(vectors, field), m, field)


def evaluation_rows(spec, field, degrees):
    space = MultilinearSpace.for_degrees(degrees, field)
    return _basis_tuple_rows(parse_model(spec, field), space.variables)


@pytest.mark.parametrize(
    "field, rows",
    [(GF2, lambda: evaluation_rows("u1", GF2, (1, 2, 2, 2, 2, 2, 2))),
     (GF3, lambda: evaluation_rows("u1", GF3, (-1, 0, 1, 2, 3, 4))),
     (Field.rationals(), lambda: evaluation_rows("ut3:0:0", Field.rationals(), (0, 0, 0))),
     (GF3, lambda: [[0] * 5] * 4),
     (GF2, lambda: [])],
    ids=["u1-gf2-n7", "u1-gf3-n6", "ut3-rational", "zero", "empty"],
)
def test_kernel_of_evaluation_rows(monkeypatch, field, rows):
    rows = rows()
    m, t = len(rows), len(rows[0]) if rows else 0
    targets = []
    insert = SubspaceBasis.insert

    def spy(self, vec):
        targets.append(self)
        return insert(self, vec)

    monkeypatch.setattr(SubspaceBasis, "insert", spy)
    kernel = linear_dependencies(rows, field)
    monkeypatch.undo()
    # one elimination: one insert per coordinate, none for a kernel row
    assert len(targets) == t and all(target is not kernel for target in targets)
    assert kernel.ncols == m
    assert kernel.dim == m - SubspaceBasis.from_vectors(field, t, rows).dim
    for coeffs in kernel.rows():
        combo = [field.zero] * t
        for c, vec in zip(coeffs, rows):
            if not field.is_zero(c):
                combo = [field.add(x, field.mul(c, y)) for x, y in zip(combo, vec)]
        assert all(field.is_zero(x) for x in combo)
    assert SubspaceBasis.from_vectors(field, m, kernel.rows()) == kernel


@pytest.mark.parametrize("field", [GF2, GF3])
def test_image_insertion_matches_oracle(field):
    rng = random.Random(10)
    for _ in range(30):
        source_cols = rng.choice([rng.randint(1, 8), rng.randint(20, 40)])
        ncols = rng.choice([rng.randint(1, 8), rng.randint(60, 70), rng.randint(120, 130)])
        # a random sparse map: column j goes to a few (i, c); over GF(2)
        # SubspaceBasis.images takes each image as its mask instead
        sparse = [
            [(i, field.from_int(rng.randint(1, field.p - 1)))
             for i in sorted(rng.sample(range(ncols), rng.randint(0, min(3, ncols))))]
            for _ in range(source_cols)
        ]
        source = SubspaceBasis.from_vectors(
            field, source_cols,
            [random_vector(rng, field, source_cols, 0.3) for _ in range(rng.randint(0, 8))],
        )
        expected = []
        for row in source.rows():
            image = [field.zero] * ncols
            for a, targets in zip(row, sparse):
                for i, c in targets:
                    image[i] = field.add(image[i], field.mul(a, c))
            expected.append(image)
        seed = [random_vector(rng, field, ncols, 0.1) for _ in range(rng.randint(0, 3))]
        target = SubspaceBasis.zero(field, ncols)
        for vec in seed:
            target.insert(vec)
        packed = [sum(1 << i for i, _ in row) for row in sparse] if field == GF2 else sparse
        for image in source.images(packed, ncols):
            target.insert(image)
        assert target.rows() == oracle_rref(seed + expected, ncols, field)


@pytest.mark.parametrize("ncols", [3, 64, 130])
def test_packed_row_must_fit(ncols):
    # insert, reduce and contains_vector read a vector through one helper:
    # over GF(2) each takes a mask that fits in ncols bits, and no other.
    basis = SubspaceBasis.zero(GF2, ncols)
    for read in (basis.insert, basis.reduce, basis.contains_vector):
        for mask in (1 << ncols, (1 << (ncols + 1)) - 1, -1):
            with pytest.raises(ValueError, match="does not fit"):
                read(mask)
    assert basis.is_zero()
    top, ones = 1 << (ncols - 1), (1 << ncols) - 1
    assert basis.insert(ones) and not basis.contains_vector(top)
    assert basis.reduce(top) == basis.reduce(unpack_bits(top, ncols)) == unpack_bits(top, ncols)
    assert basis.reduce(ones) == (0,) * ncols and basis.contains_vector(ones)
    assert basis.insert(top)
    assert basis.rows() == oracle_rref([[0] * (ncols - 1) + [1], [1] * ncols], ncols, GF2)
    # A mask is a GF(2) row; other fields take scalar sequences only.
    other = SubspaceBasis.from_vectors(GF3, ncols, [[1] * ncols])
    for read in (other.insert, other.reduce, other.contains_vector):
        with pytest.raises(TypeError):
            read(top)


def test_images_check_the_map_width():
    basis = SubspaceBasis.from_vectors(GF3, 3, [(1, 0, 2)])
    with pytest.raises(ValueError, match="map on 3 columns"):
        basis.images([[(0, 1)], [(1, 1)]], 2)


@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 130])
def test_bits_round_trip_and_unpacked_rows_match_oracle(width):
    # Width 0 matters: format(0, "00b") is "0", not "".
    rng = random.Random(width)
    vectors = [(0,) * width, (1,) * width] + [
        tuple(rng.randint(0, 1) for _ in range(width)) for _ in range(8)
    ]
    for vec in vectors:
        mask = pack_bits(vec)
        assert mask == sum(1 << j for j, c in enumerate(vec) if c)
        assert unpack_bits(mask, width) == vec
    span = SubspaceBasis.from_vectors(GF2, width, vectors[2:6])
    rref = [list(v) for v in vectors[2:6]]
    pivots = _row_reduce(rref, width, GF2)
    assert span.rows() == [tuple(row) for row in rref[: len(pivots)]]
    for vec in vectors:
        residual = list(vec)
        for pivot, row in zip(pivots, rref):
            if residual[pivot]:
                residual = [a ^ b for a, b in zip(residual, row)]
        assert span.reduce(vec) == tuple(residual)


# -- semi-echelon storage, made canonical on demand -----------------------------

QQ = Field.rationals()


def oracle_residue(rref, vec, field):
    """The residue of ``vec`` by reduced echelon rows: each row clears its
    own pivot column and no other one."""
    out = list(vec)
    for row in rref:
        c = vec[next(j for j, x in enumerate(row) if not field.is_zero(x))]
        if not field.is_zero(c):
            out = [field.sub(a, field.mul(c, b)) for a, b in zip(out, row)]
    return tuple(out)


def random_sparse_map(rng, field, source_cols, ncols):
    """A linear map as SubspaceBasis.images takes it, and the dense image
    of a vector under it."""
    sparse = [
        [(i, random_scalar(rng, field))
         for i in sorted(rng.sample(range(ncols), rng.randint(0, min(3, ncols))))]
        for _ in range(source_cols)
    ]

    def apply(vec):
        image = [field.zero] * ncols
        for a, targets in zip(vec, sparse):
            for i, c in targets:
                image[i] = field.add(image[i], field.mul(a, c))
        return image

    packed = [sum(1 << i for i, _ in row) for row in sparse] if field == GF2 else sparse
    return packed, apply


def draw(rng, field, ncols, inserted):
    """A new vector, a combination of the ones inserted, or a stored row
    scaled: inserts that grow the span and inserts that do not."""
    kind = rng.random()
    if inserted and kind < 0.3:
        return combination(rng, field, rng.sample(inserted, min(3, len(inserted))), ncols)
    if inserted and kind < 0.4:
        c = random_scalar(rng, field)
        return [field.mul(c, x) for x in rng.choice(inserted)]
    return random_vector(rng, field, ncols, rng.choice([0.1, 0.4, 0.8]))


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_reads_interleaved_with_inserts_match_oracle(field):
    rng = random.Random(19)
    reads = {}
    for _ in range(30):
        wide = (60, 70) if field.kind == "prime" else (12, 16)
        ncols = rng.choice([rng.randint(1, 8), rng.randint(*wide)])
        span = SubspaceBasis.zero(field, ncols)
        inserted, rank = [], 0
        for _ in range(rng.randint(1, 24)):
            vec = draw(rng, field, ncols, inserted)
            inserted.append(vec)
            rref = oracle_rref(inserted, ncols, field)
            assert span.insert(vec) == (len(rref) > rank)
            rank = len(rref)
            assert span.dim == rank and span.is_full() == (rank == ncols)
            read = rng.choice(["none", "rows", "eq", "deps", "reduce", "contains"])
            reads[read] = reads.get(read, 0) + 1
            if read == "rows":
                assert span.rows() == rref
            elif read == "eq":
                # the same vectors in another order; or all but one
                shuffled = rng.sample(inserted, len(inserted))
                assert span == SubspaceBasis.from_vectors(field, ncols, shuffled)
                fewer = shuffled[1:]
                equal = len(oracle_rref(fewer, ncols, field)) == rank
                assert (span == SubspaceBasis.from_vectors(field, ncols, fewer)) == equal
            elif read == "deps":
                m = len(inserted)
                kernel = linear_dependencies(inserted, field)
                assert kernel.rows() == oracle_rref(oracle_kernel(inserted, field), m, field)
                # a canonical kernel that takes more inserts
                extra = [random_vector(rng, field, m, 0.5) for _ in range(rng.randint(1, 3))]
                for vec in extra:
                    kernel.insert(vec)
                assert kernel.rows() == oracle_rref(oracle_kernel(inserted, field) + extra, m, field)
            elif read == "reduce":
                probe = draw(rng, field, ncols, inserted)
                residue = oracle_residue(rref, probe, field)
                assert span.reduce(probe) == residue
                assert span.contains_vector(probe) == (not any(residue))
            elif read == "contains":
                part = SubspaceBasis.from_vectors(field, ncols, rng.sample(inserted, len(inserted) // 2))
                other = SubspaceBasis.from_vectors(field, ncols, [draw(rng, field, ncols, [])])
                assert span.contains_subspace(part)
                assert part.contains_subspace(span) == (part.dim == rank)
                both = len(oracle_rref(inserted + other.rows(), ncols, field))
                assert span.contains_subspace(other) == (both == rank)
        assert span.rows() == oracle_rref(inserted, ncols, field)
    assert min(reads.values()) >= 20, reads


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_images_of_semi_echelon_rows_span_the_image(field):
    rng = random.Random(20)
    differs = set()
    for _ in range(30):
        source_cols = rng.choice([rng.randint(1, 8), rng.randint(20, 30)])
        ncols = rng.choice([rng.randint(1, 8), rng.randint(60, 70)])
        packed, apply = random_sparse_map(rng, field, source_cols, ncols)
        vectors = [random_vector(rng, field, source_cols, 0.4) for _ in range(rng.randint(0, 8))]
        span = SubspaceBasis.from_vectors(field, source_cols, vectors)
        # images of the stored rows first, while they are semi-echelon
        semi = span.images(packed, ncols)
        if field == GF2:
            semi = [unpack_bits(mask, ncols) for mask in semi]
        assert len(semi) == span.dim
        canonical = [apply(row) for row in oracle_rref(vectors, source_cols, field)]
        assert oracle_rref(semi, ncols, field) == oracle_rref(canonical, ncols, field)
        differs.add([list(v) for v in semi] != [list(v) for v in canonical])
        # once the rows are read, images are those of the canonical rows
        span.rows()
        after = span.images(packed, ncols)
        if field == GF2:
            after = [unpack_bits(mask, ncols) for mask in after]
        assert [list(v) for v in after] == [list(v) for v in canonical]
    # some images came from rows that were not yet reduced
    assert differs == {True, False}


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_sparse_oracle_matches_dense_oracle(field):
    rng = random.Random(21)
    for _ in range(40):
        ncols = rng.randint(0, 12)
        vectors = [random_vector(rng, field, ncols, 0.3) for _ in range(rng.randint(0, 8))]
        vectors += [combination(rng, field, vectors, ncols) for _ in range(rng.randint(0, 3))]
        assert oracle_span_rows(vectors, ncols, field) == oracle_rref(vectors, ncols, field)


# -- the first reduced row a span misses ----------------------------------------


@pytest.mark.parametrize("field", [GF2, GF3, QQ], ids=str)
def test_row_outside_is_the_first_reduced_row_missed(field):
    rng = random.Random(20)
    outcomes = []
    for _ in range(60):
        ncols = rng.randint(1, 12)
        inner = [random_vector(rng, field, ncols, 0.4) for _ in range(rng.randint(0, 6))]
        outer = rng.sample(inner, rng.randint(0, len(inner)))
        outer += [draw(rng, field, ncols, inner) for _ in range(rng.randint(0, 2))]
        span = SubspaceBasis.from_vectors(field, ncols, outer)
        rank = len(oracle_rref(outer, ncols, field))
        want = next(
            (row for row in oracle_rref(inner, ncols, field)
             if len(oracle_rref(outer + [row], ncols, field)) > rank),
            None,
        )
        other = SubspaceBasis.from_vectors(field, ncols, inner)
        assert span.row_outside(other) == want
        assert span.contains_subspace(other) == (want is None)
        outcomes.append(want is None)
    assert 10 <= sum(outcomes) <= 50, sum(outcomes)
    with pytest.raises(ValueError, match="different ambient"):
        span.row_outside(SubspaceBasis.zero(field, ncols + 1))
