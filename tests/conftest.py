"""Shared test helpers: random trees and independent oracles.

The oracles here deliberately avoid the library's own expansion,
row-reduction, coordinate and evaluation paths: associative images are
summed over every orientation of the tree, coordinates are recovered by a
from-scratch Gaussian solve on the full word-coordinate system, so they
can certify the first-letter extraction used by the package, and model
values come from closed forms and matrix commutators rather than
the models' brackets.
"""

import itertools
import json
from functools import reduce

import pytest

from wittid.fields import Field
from wittid.freealg import Pair, Var, tree_leaves
from wittid.linalg import SubspaceBasis
from wittid.models import OneDimModel, UT3Model, WittModel
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


def _row_reduce(aug, ncols, field):
    """Reduce the rows of ``aug`` in place to reduced row echelon form in
    their first ``ncols`` columns; returns the pivot columns in order."""
    pivots = []
    row_at = 0
    for col in range(ncols):
        pivot = None
        for r in range(row_at, len(aug)):
            if not field.is_zero(aug[r][col]):
                pivot = r
                break
        if pivot is None:
            continue
        aug[row_at], aug[pivot] = aug[pivot], aug[row_at]
        inv = field.inv(aug[row_at][col])
        aug[row_at] = [field.mul(inv, x) for x in aug[row_at]]
        for r in range(len(aug)):
            if r != row_at and not field.is_zero(aug[r][col]):
                c = aug[r][col]
                aug[r] = [
                    field.sub(a, field.mul(c, b)) for a, b in zip(aug[r], aug[row_at])
                ]
        pivots.append(col)
        row_at += 1
    return pivots


def oracle_rref(vectors, ncols, field):
    """The nonzero reduced row-echelon rows of the vectors, as tuples, by
    :func:`_row_reduce`: the canonical form ``SubspaceBasis.rows()`` must
    match."""
    aug = [list(v) for v in vectors]
    pivots = _row_reduce(aug, ncols, field)
    return [tuple(row) for row in aug[: len(pivots)]]


def oracle_span_rows(vectors, ncols, field):
    """The same rows as :func:`oracle_rref`, by a from-scratch sparse
    elimination that takes the vectors one at a time and stops once the
    span is full. Rows are ``{column: coefficient}`` dicts kept in reduced
    echelon form after every vector, so a vector's entries in the pivot
    columns pick the rows that clear them. Consequence instances have
    few nonzero coordinates (about 8 of 720 at n = 7), so this takes
    seconds on an n = 7 component's 10,000 or more instances."""
    rows = {}  # pivot -> row

    def subtract(target, c, row):
        for j, b in row.items():
            x = field.sub(target.get(j, field.zero), field.mul(c, b))
            if field.is_zero(x):
                target.pop(j, None)
            else:
                target[j] = x

    for vec in vectors:
        v = {j: c for j, c in enumerate(vec) if not field.is_zero(c)}
        # The other rows are zero in a pivot column: clearing one entry
        # leaves the vector's other pivot entries as they were.
        for pivot in [j for j in v if j in rows]:
            subtract(v, v[pivot], rows[pivot])
        if not v:
            continue
        pivot = min(v)
        inv = field.inv(v[pivot])
        v = {j: field.mul(inv, c) for j, c in v.items()}
        for row in rows.values():
            if pivot in row:
                subtract(row, row[pivot], v)
        rows[pivot] = v
        if len(rows) == ncols:
            break
    return [tuple(rows[p].get(j, field.zero) for j in range(ncols)) for p in sorted(rows)]


def solve_exact(rows, rhs, field):
    """Solve sum_i c_i rows[i] = rhs by plain Gaussian elimination.

    Raises ValueError if the system is inconsistent. Implemented from
    scratch so tests do not depend on the library's linear algebra.
    """
    m = len(rows)
    t = len(rhs)
    aug = [[rows[i][j] for i in range(m)] + [rhs[j]] for j in range(t)]
    pivots = _row_reduce(aug, m, field)
    for r in range(len(pivots), t):
        if not field.is_zero(aug[r][m]):
            raise ValueError("inconsistent system")
    solution = [field.zero] * m
    for r, col in enumerate(pivots):
        solution[col] = aug[r][m]
    return tuple(solution)


def oracle_kernel(rows, field):
    """A basis of {c : sum_i c_i rows[i] = 0}, by the same from-scratch
    elimination as :func:`solve_exact`."""
    m = len(rows)
    width = len(rows[0]) if rows else 0
    eqs = [[rows[i][j] for i in range(m)] for j in range(width)]
    pivots = _row_reduce(eqs, m, field)
    kernel = []
    for free in range(m):
        if free in pivots:
            continue
        vec = [field.zero] * m
        vec[free] = field.one
        for r, col in enumerate(pivots):
            vec[col] = field.neg(eqs[r][free])
        kernel.append(vec)
    return kernel


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


_UNITS = {"E12": (0, 1), "E23": (1, 2), "E13": (0, 2)}


def _commutator(a, b):
    ab = [[sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    ba = [[sum(b[i][k] * a[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    return [[x - y for x, y in zip(p, q)] for p, q in zip(ab, ba)]


def oracle_value(model, mono, choice):
    """Value of a left-normed monomial when each variable v takes the
    basis vector in slot ``choice[v]`` of its component, as a
    (degree, slot) -> coefficient dict without zeros.

    Witt models: e_{d_1} bracketed in turn with e_{d_2}, ..., e_{d_n} is
    prod_k (d_k - s_{k-1}) e_{s_n}, s_k the prefix degree sums, and w1 has
    no vector of degree below -1. ``ut3``: integer 3x3 matrix commutators.
    ``onedim``: abelian.
    """
    field = model.field
    degrees = [v.degree for v in mono]
    if isinstance(model, WittModel):
        if model.name == "w1" and min(degrees) < -1:
            return {}
        coeff, total = 1, degrees[0]
        for d in degrees[1:]:
            coeff *= d - total
            total += d
        c = field.from_int(coeff)
        return {} if field.is_zero(c) else {(total, 0): c}
    if isinstance(model, OneDimModel):
        return {(model.d, 0): field.one} if len(mono) == 1 else {}
    assert isinstance(model, UT3Model)
    matrix = None
    for v in mono:
        i, j = _UNITS[model.component_slots(v.degree)[choice[v]]]
        unit = [[int((a, b) == (i, j)) for b in range(3)] for a in range(3)]
        matrix = unit if matrix is None else _commutator(matrix, unit)
    degree_of = {"E12": model.r, "E23": model.s, "E13": model.r + model.s}
    out = {}
    for name, (i, j) in _UNITS.items():
        c = field.from_int(matrix[i][j])
        if not field.is_zero(c):
            d = degree_of[name]
            out[(d, model.component_slots(d).index(name))] = c
    return out


def oracle_rows(model, variables, monomials):
    """One row per monomial: its oracle values on every tuple of basis
    vectors for the variables, one column per (tuple, degree, slot) that
    some monomial reaches."""
    columns = {}
    values = [{} for _ in monomials]
    for choice in itertools.product(*(range(model.dim(v.degree)) for v in variables)):
        picked = dict(zip(variables, choice))
        for per_mono, mono in zip(values, monomials):
            for key, c in oracle_value(model, mono, picked).items():
                column = columns.setdefault((choice, key), len(columns))
                per_mono[column] = c
    zero = model.field.zero
    return [[vals.get(j, zero) for j in range(len(columns))] for vals in values]


def oracle_satisfies(model, poly):
    """Whether the multilinear polynomial vanishes on every basis tuple,
    by the oracle values."""
    field = model.field
    rows = oracle_rows(model, sorted(poly.variables()), list(poly.terms))
    for column in zip(*rows):
        total = field.zero
        for c, x in zip(poly.terms.values(), column):
            total = field.add(total, field.mul(c, x))
        if not field.is_zero(total):
            return False
    return True


def hand_report(nmax, extra_degree_tuples=()):
    """The JSON text of a hand-written u1 report with no entries, as a user
    might edit one; no sweep is run to make it."""
    config = {
        "model": "u1", "family": "brackets of equal parity", "range": None,
        "field": "gf2", "nmax": nmax, "dmax": 0, "workers": 1, "space_budget_s": None,
        "extra_degree_tuples": [list(t) for t in extra_degree_tuples], "seed": None,
    }
    summary = {"passed": 0, "failed": 0, "skipped": 0}
    return json.dumps({"config": config, "spaces": [], "summary": summary, "timings": {}})


@pytest.fixture
def gf2():
    return Field.gf(2)


@pytest.fixture
def gf3():
    return Field.gf(3)


@pytest.fixture
def rationals():
    return Field.rationals()
