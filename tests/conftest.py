"""Shared test helpers: random trees and independent oracles.

The oracles here deliberately avoid the library's own expansion,
row-reduction and coordinate paths: associative images are summed over
every orientation of the tree, and coordinates are recovered by a
from-scratch Gaussian solve on the full word-coordinate system, so they
can certify the first-letter extraction used by the package.
"""

import itertools
from functools import reduce

import pytest

from wittid.fields import Field
from wittid.freealg import Pair, Var, tree_leaves
from wittid.linalg import SubspaceBasis
from wittid.tideal import consequence_instances


def random_shape(rng, leaves):
    if len(leaves) == 1:
        return leaves[0]
    cut = rng.randint(1, len(leaves) - 1)
    return Pair(random_shape(rng, leaves[:cut]), random_shape(rng, leaves[cut:]))


def random_multilinear_tree(rng, variables):
    vs = list(variables)
    rng.shuffle(vs)
    return random_shape(rng, vs)


def all_multilinear_trees(variables):
    """Every bracketing shape with every leaf order (Catalan * factorial)."""

    def shapes(seq):
        if len(seq) == 1:
            yield seq[0]
            return
        for cut in range(1, len(seq)):
            for left in shapes(seq[:cut]):
                for right in shapes(seq[cut:]):
                    yield Pair(left, right)

    for perm in itertools.permutations(variables):
        yield from shapes(list(perm))


def substitute_leaf(tree, leaf, replacement):
    if tree == leaf:
        return replacement
    if isinstance(tree, Var):
        return tree
    return Pair(
        substitute_leaf(tree.left, leaf, replacement),
        substitute_leaf(tree.right, leaf, replacement),
    )


def solve_exact(rows, rhs, field):
    """Solve sum_i c_i rows[i] = rhs by plain Gaussian elimination.

    Raises ValueError if the system is inconsistent. Implemented from
    scratch so tests do not depend on the library's linear algebra.
    """
    m = len(rows)
    t = len(rhs)
    aug = [[rows[i][j] for i in range(m)] + [rhs[j]] for j in range(t)]
    pivots = []
    row_at = 0
    for col in range(m):
        pivot = None
        for r in range(row_at, t):
            if not field.is_zero(aug[r][col]):
                pivot = r
                break
        if pivot is None:
            continue
        aug[row_at], aug[pivot] = aug[pivot], aug[row_at]
        inv = field.inv(aug[row_at][col])
        aug[row_at] = [field.mul(inv, x) for x in aug[row_at]]
        for r in range(t):
            if r != row_at and not field.is_zero(aug[r][col]):
                c = aug[r][col]
                aug[r] = [
                    field.sub(a, field.mul(c, b)) for a, b in zip(aug[r], aug[row_at])
                ]
        pivots.append(col)
        row_at += 1
    for r in range(row_at, t):
        if not field.is_zero(aug[r][m]):
            raise ValueError("inconsistent system")
    solution = [field.zero] * m
    for r, col in enumerate(pivots):
        solution[col] = aug[r][m]
    return tuple(solution)


def oracle_expand(x, field):
    """Associative image of a tree, or of a left-normed monomial given as a
    tuple of Vars, as a word -> coefficient dict without zeros.

    Each of the 2^(internal nodes) orientations of the tree reads its
    leaves as one word: a Pair read as left+right contributes sign +1, read
    as right+left sign -1. The image is the signed sum of those words.
    """
    tree = reduce(Pair, x) if isinstance(x, tuple) else x
    internal = len(tree_leaves(tree)) - 1

    def read(t, flips):
        if isinstance(t, Var):
            return (t,)
        flipped = next(flips)
        left, right = read(t.left, flips), read(t.right, flips)
        return right + left if flipped else left + right

    total = {}
    for mask in range(1 << internal):
        flips = iter([(mask >> i) & 1 for i in range(internal)])
        word = read(tree, flips)
        sign = field.from_int(-1 if bin(mask).count("1") % 2 else 1)
        total[word] = field.add(total.get(word, field.zero), sign)
    return {w: c for w, c in total.items() if not field.is_zero(c)}


def oracle_coordinates(space, element):
    """Coordinates over the space basis via the full word-coordinate solve."""
    field = space.field
    words = list(itertools.permutations(space.variables))
    col = {w: j for j, w in enumerate(words)}

    def word_vector(x):
        vec = [field.zero] * len(words)
        for w, c in oracle_expand(x, field).items():
            vec[col[w]] = c
        return vec

    rows = [word_vector(mono) for mono in space.basis]
    return solve_exact(rows, word_vector(element), field)


def instance_span(family, space):
    """Span of the enumerated consequence instances: the reference that the
    recursion in ``tideal.consequence_subspace`` is gated against."""
    span = SubspaceBasis.zero(space.field, space.dim)
    for tree in consequence_instances(family, space):
        span.insert(space.coordinates(tree))
        if span.is_full():
            break
    return span


@pytest.fixture
def gf2():
    return Field.gf(2)


@pytest.fixture
def gf3():
    return Field.gf(3)


@pytest.fixture
def rationals():
    return Field.rationals()
