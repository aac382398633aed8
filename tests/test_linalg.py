import random

import pytest

from wittid.fields import Field
from wittid.linalg import SubspaceBasis, linear_dependencies

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


def test_dependencies_of_independent_vectors_trivial():
    kernel = linear_dependencies([(1, 0), (0, 1)], GF2)
    assert kernel.dim == 0
    kernel = linear_dependencies([(1, 1), (1, 1)], GF2)
    assert kernel.dim == 1
    assert kernel.rows() == [(1, 1)]
