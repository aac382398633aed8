"""The free Z-graded Lie algebra and its multilinear components.

Variables carry a positive index and an integer degree (written
``x3^-1`` for index 3, degree -1). Lie polynomials are stored as formal
combinations of left-normed monomials
``[v0, v1, ..., vk] = [[...[v0, v1], ...], vk]``; arbitrary bracketings
are represented as :class:`Pair` trees. Distinct left-normed monomials
may be proportional as Lie elements (``[x2,x1] = -[x1,x2]``), so
equality of Lie elements is decided through the expansion
``[a, b] -> ab - ba`` into the free associative algebra, a faithful
embedding over any field. One fold, :func:`_fold`, computes it on trees
and on left-normed monomials alike, as uncollected words with signs: it
walks the left spine in a loop and recurses only into right children
that are brackets. The words of a left-normed monomial of n letters
depend only on its letters' positions, so they are read off
:func:`_position_fold`, the fold of the monomial on ``0, ..., n-1``,
computed once per n (one ``itemgetter`` per word, and the signs).
:func:`_expand_terms` is the one fold-and-collect: it folds each
``(monomial or tree, coefficient)`` pair and adds the words, times the
coefficient, into one word -> coefficient dict.

A :class:`MultilinearSpace` is the component of polynomials that are
multilinear in a fixed set of distinct variables. Its dimension is
``(n-1)!`` and it carries the left-normed basis whose monomials all
start with the highest-indexed variable, in the one order of
:func:`_basis_words`; :func:`_basis_prefixes` is that basis's prefix
tree on letters, once per n, which evaluation walks to bracket each
shared prefix once. Coordinates are computed on letters only: a
variable's letter is its position in the space, and
:meth:`MultilinearSpace.coordinates` is one pass that puts its input on
letters and checks that it is multilinear, followed by
:func:`_letter_coordinates`, the one certified routine. In the
expansion of a basis monomial, the only word that starts with the lead
letter is the monomial itself (coefficient 1), so coordinates are read
off the lead words and then certified against the whole expansion: over
GF(2) the words are XORed into a bitmask over word ids, whose low
``dim`` bits are the coordinates, checked by XOR of the basis bitmasks;
elsewhere the basis expansions are recombined. Letter words hash in C,
and the tables (lead words, word ids, basis bitmasks or expansions)
depend only on ``(n, field)``: :func:`_letter_tables` builds them once,
read-only. :func:`_core_rows` and :func:`_ad_rows` keep certified
coordinates of letter brackets, for the consequence-span recursion,
over GF(2) as coordinate masks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache, reduce, total_ordering
from math import factorial
from operator import itemgetter
from types import MappingProxyType
from typing import Iterable, Optional, Sequence, Union

from .fields import Combination, Field, Scalar
from .linalg import _is_gf2, unpack_bits, xor_selected


class _Frozen:
    """Base of the immutable value types. A subclass names its fields in
    ``_fields`` and sets each once in ``__init__`` with
    ``object.__setattr__``; equality, hash, repr and pickling go by the
    field values, and assignment raises AttributeError."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


@total_ordering
class Var(_Frozen):
    """Graded variable ``x<index>^<degree>``, ordered by ``(index, degree)``."""

    __slots__ = ("index", "degree", "_hash")
    _fields = ("index", "degree")

    def __init__(self, index: int, degree: int):
        if index < 1:
            raise ValueError(f"variable index must be positive, got {index}")
        setattr_ = object.__setattr__
        setattr_(self, "index", index)
        setattr_(self, "degree", degree)
        # Stored once: a hash of the fields would rebuild this tuple on
        # every dict lookup.
        setattr_(self, "_hash", hash((index, degree)))

    def __eq__(self, other):
        if other.__class__ is not Var:
            return NotImplemented
        return self.index == other.index and self.degree == other.degree

    def __lt__(self, other):
        if other.__class__ is not Var:
            return NotImplemented
        return (self.index, self.degree) < (other.index, other.degree)

    def __hash__(self):
        return self._hash

    def __str__(self):
        return f"x{self.index}^{self.degree}"


class Pair(_Frozen):
    """Bracket node ``[left, right]`` of a tree-shaped Lie element."""

    __slots__ = _fields = ("left", "right")

    def __init__(self, left: "Tree", right: "Tree"):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)


Tree = Union[Var, Pair]


def tree_leaves(t: Tree) -> list:
    """The leaves of a tree, left to right."""
    out, stack = [], [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Pair):
            stack += (t.right, t.left)
        else:
            out.append(t)
    return out


def mono_to_tree(mono: Sequence[Var]) -> Tree:
    if not mono:
        raise ValueError("empty monomial")
    return reduce(Pair, mono)


def _word_order(word: tuple) -> tuple:
    """Print order of words and monomials: by length, then by letters."""
    return len(word), tuple((v.index, v.degree) for v in word)


class AssocPoly(Combination):
    """Element of the free associative algebra on graded variables."""

    __slots__ = ()

    def __repr__(self):
        return self.format(sorted(self.terms, key=_word_order), lambda w: "".join(map(str, w)))


def _fold(x) -> tuple:
    """Uncollected image of a tree or a left-normed tuple under
    ``[a, b] -> ab - ba``: parallel lists of words and signs (+1 or -1).

    On a tree, the left spine is folded in a loop, one bracket with a
    right child at a time; only a right child that is itself a bracket
    recurses. A left-normed tuple or list of n >= 2 letters is not folded
    again: its words are read off :func:`_position_fold` ``(n)``, the fold
    of the monomial on the positions ``0, ..., n-1``, by picking its
    letters at those positions. Words are tuples of the leaves, Vars or
    small-int letters alike. A word may occur more than once; collecting
    is the caller's.
    """
    if isinstance(x, (tuple, list)):
        if len(x) > 1:
            getters, signs = _position_fold(len(x))
            return [g(x) for g in getters], list(signs)
        if not x:
            raise ValueError("empty monomial")
        x, rights = x[0], ()
    elif isinstance(x, Pair):
        rights = []
        while isinstance(x, Pair):
            rights.append(x.right)
            x = x.left
        rights.reverse()
    else:
        rights = ()
    words, signs = [(x,)], [1]
    for r in rights:
        if isinstance(r, Pair):
            rwords, rsigns = _fold(r)
            words = [u + w for u in words for w in rwords] + [w + u for u in words for w in rwords]
            signs = [s * t for s in signs for t in rsigns]
        else:
            w = (r,)
            words = [u + w for u in words] + [w + u for u in words]
        signs += [-s for s in signs]
    return words, signs


@lru_cache(maxsize=None)
def _position_fold(n: int) -> tuple:
    """The fold of the left-normed monomial on the positions ``0, ..., n-1``
    (n >= 2), as ``(getters, signs)``: getter k picks the letters of a
    monomial's word k out of the tuple of its letters, so
    ``[g(letters) for g in getters]`` are its words in :func:`_fold`'s
    order, with these signs. Keyed by n alone and read-only: 2^(n-1)
    getters, no degrees and no field."""
    words, signs = _fold(mono_to_tree(tuple(range(n))))
    return tuple(itemgetter(*w) for w in words), tuple(signs)


def _basis_words(letters: Sequence) -> list:
    """The left-normed basis on ``letters``, given in increasing order (Vars
    by index, or small ints): the last letter, then the others in every
    order, by lexicographic permutation. The one encoding of the basis
    order: :attr:`MultilinearSpace.basis`, the lead words of
    :func:`_letter_tables` and the blocks of :func:`_core_rows` and of
    :func:`~wittid.tideal.consequence_instances` are read off it."""
    *rest, lead = letters
    return [(lead,) + perm for perm in itertools.permutations(rest)]


@lru_cache(maxsize=None)
def _basis_prefixes(n: int) -> tuple:
    """The prefix tree of the left-normed basis of :class:`MultilinearSpace`
    on the letters ``0, ..., n-1``, as ``(nodes, leaves)``. Prefix 0 is the
    lead letter ``n-1``; ``nodes[k] = (parent, letter)`` is prefix k + 1,
    prefix ``parent`` followed by ``letter``, in depth-first order, so a
    parent comes before its children; ``leaves[i]`` is the prefix that is
    basis monomial i, in :attr:`MultilinearSpace.basis` order. Keyed by n
    alone and read-only: one node per prefix of two or more letters."""
    nodes, leaves = [], []

    def walk(parent: int, rest: tuple):
        if not rest:
            leaves.append(parent)
        for i, letter in enumerate(rest):
            nodes.append((parent, letter))
            walk(len(nodes), rest[:i] + rest[i + 1:])

    walk(0, tuple(range(n - 1)))
    return tuple(nodes), tuple(leaves)


class LiePoly(Combination):
    """Formal combination of left-normed monomials over a field."""

    __slots__ = ()

    def __init__(self, field: Field, terms: Optional[dict] = None):
        self.field = field
        self.terms = field.reduced((tuple(m), c) for m, c in terms.items()) if terms else {}

    @classmethod
    def monomial(cls, field: Field, variables: Sequence[Var], coeff: Optional[Scalar] = None) -> "LiePoly":
        # One key: Field.reduced's loop, inlined.
        out = cls(field)
        c = field.one if coeff is None else coeff
        if field.p is not None:
            c %= field.p
        if c:
            out.terms = {tuple(variables): c}
        return out

    @classmethod
    def variable(cls, field: Field, v: Var) -> "LiePoly":
        return cls.monomial(field, (v,))

    def __neg__(self) -> "LiePoly":
        f = self.field
        out = LiePoly(f)
        out.terms = {m: f.neg(c) for m, c in self.terms.items()}
        return out

    def __sub__(self, other: "LiePoly") -> "LiePoly":
        return self + (-other)

    def expand(self) -> AssocPoly:
        return expand_to_associative(self)

    def variables(self) -> set:
        out = set()
        for mono in self.terms:
            out.update(mono)
        return out

    def monomials(self) -> list:
        return sorted(self.terms, key=_word_order)

    def is_multilinear(self) -> bool:
        """Degree exactly one in each of its variables, in every monomial."""
        if not self.terms:
            return True
        vars_ = self.variables()
        n = len(vars_)
        return all(len(m) == n and set(m) == vars_ for m in self.terms)

    def is_zero(self) -> bool:
        """Zero as a Lie element (decided via the associative expansion)."""
        return self.expand().is_zero()

    def same_terms(self, other: "LiePoly") -> bool:
        """Syntactic equality of the stored combinations."""
        return self.field == other.field and self.terms == other.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, LiePoly):
            return NotImplemented
        if self.field != other.field:
            return False
        return self.expand() == other.expand()

    def __repr__(self):
        from .grammar import format_polynomial

        return format_polynomial(self)


def expand_to_associative(x, field: Optional[Field] = None) -> AssocPoly:
    """Image under the bracket expansion ``[a, b] -> ab - ba``.

    Accepts a LiePoly (field attached), a tree, a variable, or a
    left-normed monomial given as a tuple or list of Vars (those need the
    ``field`` argument). Two Lie elements are equal iff their images are
    equal.
    """
    if isinstance(x, LiePoly):
        field, terms = x.field, x.terms.items()
    elif field is None:
        raise ValueError("a field is required to expand a bare tree or monomial")
    elif isinstance(x, (Var, Pair, tuple, list)):
        terms = ((x, field.one),)  # the field's one keeps its scalar type
    else:
        raise TypeError(f"cannot expand {type(x).__name__}")
    out = AssocPoly(field)
    out.terms = _expand_terms(terms, field)
    return out


def _expand_terms(terms, field: Field) -> dict:
    """Image of the sum of ``c * x`` over the ``(x, c)`` in ``terms``, each x
    a tree, a leaf or a left-normed tuple or list, under
    ``[a, b] -> ab - ba``, as a word -> coefficient dict with no zero
    coefficients. The one fold-and-collect: each x is folded by
    :func:`_fold` and its words are added with one :meth:`Field.add_into`
    of ``c * sign``."""
    acc = {}
    for x, c in terms:
        words, signs = _fold(x)
        field.add_into(acc, zip(words, [c * s for s in signs]))
    return acc


def zdegree(x) -> int:
    """Z-degree of a variable, tree, monomial, or homogeneous polynomial."""
    if isinstance(x, Var):
        return x.degree
    if isinstance(x, Pair):
        return sum(v.degree for v in tree_leaves(x))
    if isinstance(x, tuple):
        return sum(v.degree for v in x)
    if isinstance(x, (LiePoly, AssocPoly)):
        degrees = {sum(v.degree for v in m) for m in x.terms}
        if not degrees:
            raise ValueError("the zero polynomial has no homogeneous degree")
        if len(degrees) > 1:
            raise ValueError(f"polynomial is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()
    raise TypeError(f"cannot take the degree of {type(x).__name__}")


def is_regular(f: LiePoly) -> bool:
    """True iff every variable of f occurs in every monomial of f."""
    vars_ = f.variables()
    return all(vars_.issubset(set(m)) for m in f.terms)


def apply_ad(f: LiePoly, v: Var, k: int = 1) -> LiePoly:
    """Append v to the right end of every left-normed monomial, k times."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return f
    suffix = (v,) * k
    out = LiePoly(f.field)
    out.terms = {m + suffix: c for m, c in f.terms.items()}
    return out


def multilinearize(
    f: LiePoly, target: Var, fresh_indices: Optional[Sequence[int]] = None
) -> LiePoly:
    """Full polarization of f in the target variable.

    f must be homogeneous of some degree k >= 1 in the target. The k
    occurrence slots are filled with the replacement variables (the
    target itself plus k-1 fresh variables of the same degree) in all k!
    ways and the results are summed. Identifying the fresh variables back
    to the target returns k! copies of f, so over the rationals the
    polarization recovers f up to the distribution count.

    Fresh indices default to max(existing index) + 1, 2, ...; when given
    explicitly they name the occurrences after the first.
    """
    counts = {m: sum(1 for v in m if v == target) for m in f.terms}
    if not counts:
        raise ValueError("cannot multilinearize the zero polynomial")
    k_values = set(counts.values())
    if k_values == {0}:
        raise ValueError(f"target {target} does not occur in the polynomial")
    if len(k_values) != 1:
        raise ValueError(
            f"polynomial is not homogeneous in {target}: occurrence counts {sorted(k_values)}"
        )
    k = k_values.pop()
    if fresh_indices is None:
        start = max(v.index for v in f.variables()) + 1
        fresh_indices = range(start, start + k - 1)
    fresh_indices = tuple(fresh_indices)
    if len(fresh_indices) != k - 1:
        raise ValueError(f"need {k - 1} fresh indices, got {len(fresh_indices)}")
    taken = {v.index for v in f.variables()}
    for i in fresh_indices:
        if i in taken:
            raise ValueError(f"fresh index {i} collides with an existing variable")
    names = (target,) + tuple(Var(i, target.degree) for i in fresh_indices)

    field = f.field
    out = LiePoly.zero(field)
    for mono, c in f.terms.items():
        slots = [i for i, v in enumerate(mono) if v == target]
        for assignment in itertools.permutations(names):
            new = list(mono)
            for slot, name in zip(slots, assignment):
                new[slot] = name
            out = out + LiePoly.monomial(field, new, c)
    return out


@lru_cache(maxsize=None)
def _letter_tables(n: int, field: Field) -> tuple:
    """Coordinate tables on the letters ``0, ..., n-1`` over ``field``, read
    only by :func:`_letter_coordinates`: ``(lead_words, word_id,
    basis_masks, basis_expansions)``, lead word i being basis monomial i.
    Over GF(2) the word ids, lead word i with id i, and the basis bitmasks
    over them; elsewhere the basis expansions; the other two are None.
    Immutable, since every caller shares them."""
    lead_words = tuple(_basis_words(range(n)))
    if _is_gf2(field):
        others = (w for w in itertools.permutations(range(n)) if w[0] != n - 1)
        word_id = {w: i for i, w in enumerate(itertools.chain(lead_words, others))}
        masks = tuple(_word_mask(_fold(w)[0], word_id) for w in lead_words)
        return lead_words, MappingProxyType(word_id), masks, None
    expansions = (_expand_terms(((w, field.one),), field) for w in lead_words)
    return lead_words, None, None, tuple(MappingProxyType(e) for e in expansions)


def _word_mask(words, word_id, mask: int = 0) -> int:
    """``mask`` XOR the bits of ``words`` over GF(2): a word that occurs
    twice cancels."""
    for w in words:
        mask ^= 1 << word_id[w]
    return mask


def _letter_coordinates(terms, n: int, field: Field):
    """Certified coordinates of the sum of ``c * x`` over the ``(x, c)`` in
    ``terms``, each x a tree or a left-normed tuple that has every letter
    ``0, ..., n-1`` once, over the left-normed basis on those letters.

    The one coordinate routine. The coordinates are the coefficients of
    the lead words in the expansion; the recombination of the basis
    expansions by them must give the whole expansion back, else
    AssertionError. Over GF(2) no dict is built: the words of each x are
    XORed into a bitmask over word ids, the coordinates are its low
    ``dim`` bits, returned as an int mask, and the certification is the
    XOR of the basis masks they select. Elsewhere they are a tuple.
    """
    lead_words, word_id, masks, expansions = _letter_tables(n, field)
    if masks is not None:
        mask = 0
        # Coefficients are reduced, so over GF(2) each is 1.
        for x, _ in terms:
            mask = _word_mask(_fold(x)[0], word_id, mask)
        coords = mask & ((1 << len(lead_words)) - 1)
        if xor_selected(coords, masks) != mask:
            raise AssertionError("certification failed: not a Lie element?")
        return coords
    exp = _expand_terms(terms, field)
    zero = field.zero
    coords = tuple([exp.get(w, zero) for w in lead_words])
    acc = {}
    for c, rowexp in zip(coords, expansions):
        if not field.is_zero(c):
            field.add_into(acc, ((w, field.mul(c, a)) for w, a in rowexp.items()))
    if acc != exp:
        raise AssertionError("certification failed: not a Lie element?")
    return coords


@lru_cache(maxsize=None)
def _core_rows(k: int, left: tuple, field: Field) -> tuple:
    """Coordinates on k letters of ``[L, R]``, for L over the basis monomials
    on the letters in ``left`` (increasing) and, inside, R over those on
    the others; certified once, then shared. Over GF(2) a row is a
    coordinate mask."""
    rights = [mono_to_tree(m) for m in _basis_words([i for i in range(k) if i not in left])]
    one = field.one
    return tuple(
        _letter_coordinates(((Pair(mono_to_tree(m), r), one),), k, field)
        for m in _basis_words(left)
        for r in rights
    )


@lru_cache(maxsize=None)
def _ad_rows(k: int, pos: int, field: Field) -> tuple:
    """Matrix of ``ad`` of letter ``pos``, as :meth:`SubspaceBasis.images`
    takes it: row j is ``[b_j, pos]``, b_j the basis monomials on the other
    letters, i.e. the core rows of the split that puts ``pos`` alone on the
    right; over GF(2) as they are, elsewhere their nonzero ``(i, c)``."""
    rows = _core_rows(k, tuple(i for i in range(k) if i != pos), field)
    if _is_gf2(field):
        return rows
    return tuple(tuple((i, c) for i, c in enumerate(row) if c) for row in rows)


def _tree_on_letters(t, letter: dict):
    """The tree t with each leaf v replaced by ``letter[v]``."""
    if isinstance(t, Pair):
        return Pair(_tree_on_letters(t.left, letter), _tree_on_letters(t.right, letter))
    return letter[t]


class MultilinearSpace:
    """Multilinear component on distinct graded variables, over a field.

    Variables are kept sorted by index; the basis consists of the
    ``(n-1)!`` left-normed monomials that start with the highest-indexed
    variable, enumerated by lexicographic permutation of the rest. A
    variable's letter is its position in :attr:`variables`.
    """

    def __init__(self, variables: Iterable[Var], field: Field):
        vs = sorted(variables, key=lambda v: v.index)
        if not vs:
            raise ValueError("a multilinear space needs at least one variable")
        indices = [v.index for v in vs]
        if len(set(indices)) != len(indices):
            raise ValueError(f"variable indices must be distinct, got {indices}")
        self.field = field
        self.variables = tuple(vs)
        self.n = len(vs)
        self._letter = {v: i for i, v in enumerate(vs)}
        self._basis = None
        self._gf2 = _is_gf2(field)

    @classmethod
    def for_degrees(cls, degrees: Sequence[int], field: Field) -> "MultilinearSpace":
        return cls((Var(i + 1, d) for i, d in enumerate(degrees)), field)

    @property
    def degrees(self) -> tuple:
        return tuple(v.degree for v in self.variables)

    @property
    def dim(self) -> int:
        return factorial(self.n - 1)

    @property
    def basis(self) -> list:
        """The left-normed basis monomials, in lexicographic order."""
        if self._basis is None:
            self._basis = _basis_words(self.variables)
        return self._basis

    def coordinates(self, x) -> tuple:
        """Coordinates of a LiePoly, a tree, a variable or a left-normed
        tuple or list over the left-normed basis.

        One pass puts each monomial, or the tree, on the space's letters
        and checks that it has every variable of the space once
        (ValueError otherwise, or for a polynomial over another field);
        :func:`_letter_coordinates` reads and certifies the coordinates.
        """
        f, letter, n = self.field, self._letter, self.n
        if isinstance(x, LiePoly):
            if x.field != f:
                raise ValueError("polynomial field does not match the space")
            items = x.terms.items()
        else:
            items = ((x, f.one),)
        terms = []
        for mono, c in items:
            try:
                if isinstance(mono, (tuple, list)):
                    leaves = on_letters = tuple([letter[v] for v in mono])
                else:
                    on_letters = _tree_on_letters(mono, letter)
                    leaves = tree_leaves(on_letters)
            except KeyError:
                leaves = ()
            if len(leaves) != n or len(set(leaves)) != n:
                shown = mono if isinstance(mono, (tuple, list)) else tree_leaves(mono)
                raise ValueError(
                    "input is not multilinear in the space variables "
                    f"(leaves {[str(v) for v in shown]})"
                )
            terms.append((on_letters, c))
        coords = _letter_coordinates(terms, n, f)
        return unpack_bits(coords, self.dim) if self._gf2 else coords

    def poly_from_coords(self, coords: Sequence[Scalar]) -> LiePoly:
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        return LiePoly(self.field, dict(zip(self.basis, coords)))

    def __repr__(self):
        vars_ = ", ".join(str(v) for v in self.variables)
        return f"MultilinearSpace({vars_}; {self.field})"


def leftnormed_basis(space: MultilinearSpace) -> list:
    """The (n-1)! left-normed basis monomials of the space."""
    return list(space.basis)


def leftnormed_coordinates(x, space: MultilinearSpace) -> tuple:
    """Coordinate vector of a multilinear element over the space basis."""
    return space.coordinates(x)
