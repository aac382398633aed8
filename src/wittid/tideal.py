"""Identity-ideal machinery over the graded free Lie algebra.

Provides the two generating families of identities (the bracket family
[x1^a, x2^b] with a and b of equal parity for the Laurent case, plus the
single variables x^c, c <= -2, for the polynomial case), the parity
criterion and normal form for monomial identities in characteristic two,
and exact computation of two subspaces of a multilinear component.
:func:`family_for` is the one map from a model name and range to its
family, and :meth:`BasisFamily.brackets` the one list of its bracket
members within a degree bound. The two subspaces are:

* the identity subspace: the kernel of the evaluation map into the model,
  on the basis-tuple values of the loop in :mod:`wittid.models`;
* the consequence subspace: the span of all multilinear substitution
  instances of family members inside the component.

A multilinear consequence instance is built in three steps: pick an
ordered partition of a subset of the space's variables into blocks, one
per generator variable, whose degree sums match a family member; fill
each block with a left-normed basis monomial of the block's multilinear
component; then bracket the substituted generator with the remaining
variables in every spanning position. For the last step it is enough to
append the remaining variables on the right in all orders: the
left-normed monomials with a fixed first letter form a basis of the
multilinear component over the extended alphabet, so placing the
substituted generator first already spans everything.

:func:`consequence_instances` yields these instances one by one; it is
the reference enumeration and the source of soundness witnesses.
:func:`consequence_subspace` computes their span without enumerating
them: an instance either uses every variable of its component in the
core, or it is ``[instance on the other variables, v]`` with v appended
last, so the span of a component is the span of its cores plus the
images, under ``ad_v``, of the spans of its sub-components with one
variable less. In coordinates, cores and ``ad_v`` depend only on
letters, so their rows come from certified tables shared per size and
field, in the form :class:`~wittid.linalg.SubspaceBasis` takes (over
GF(2), masks); degrees only pick the family brackets, so a
sub-component's span is determined by its degree tuple. That tuple keys
:class:`SpanMemo`, which runs the recursion and which the components of
one run share; it keeps every span narrower than the run's widest
components.
"""

from __future__ import annotations

import itertools
import time
from functools import reduce
from math import factorial
from typing import Iterator, Optional

from .fields import Field
from .freealg import (
    LiePoly, MultilinearSpace, Pair, Tree, Var, _ad_rows, _basis_words, _core_rows, _Frozen,
    mono_to_tree,
)
from .linalg import SubspaceBasis, linear_dependencies
from .models import GradedModel, WittModel, _basis_tuple_rows


class BudgetExceeded(RuntimeError):
    """Raised when a consequence span computation runs past its deadline."""


class BasisFamily(_Frozen):
    """A generating family of graded identities; :func:`family_for` builds
    the family of a model and range.

    kind "u1": the brackets [x1^a, x2^b] with a, b of the same parity.
    kind "w1": the same brackets restricted to a, b >= bracket_lower_bound
    (-1 or 0), together with the single variables x^c, c <= -2.
    """

    __slots__ = _fields = ("kind", "bracket_lower_bound")

    def __init__(self, kind: str, bracket_lower_bound: Optional[int] = None):
        if kind not in ("u1", "w1"):
            raise ValueError(f"unknown family kind {kind!r}")
        if kind == "w1" and bracket_lower_bound not in (-1, 0):
            raise ValueError("w1 family needs a bracket lower bound of -1 or 0")
        if kind == "u1" and bracket_lower_bound is not None:
            raise ValueError("u1 family takes no lower bound")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "bracket_lower_bound", bracket_lower_bound)

    @property
    def has_singletons(self) -> bool:
        return self.kind == "w1"

    def contains_bracket(self, a: int, b: int) -> bool:
        """Whether [x1^a, x2^b] belongs to the family (order-insensitive)."""
        if (a - b) % 2 != 0:
            return False
        if self.bracket_lower_bound is not None:
            return a >= self.bracket_lower_bound and b >= self.bracket_lower_bound
        return True

    def contains_single(self, c: int) -> bool:
        return self.has_singletons and c <= -2

    def brackets(self, bound: int) -> list:
        """The bracket members as pairs (a, b) with a <= b, both in
        [-bound, bound], ordered by a, then b."""
        return [
            (a, b)
            for a in range(-bound, bound + 1)
            for b in range(a, bound + 1)
            if self.contains_bracket(a, b)
        ]

    def bracket_count(self, bound: int) -> int:
        """``len(self.brackets(bound))`` in closed form: the m degrees in
        range, e of them even, give e(e+1)/2 + (m-e)(m-e+1)/2 pairs."""
        low = -bound if self.bracket_lower_bound is None else max(-bound, self.bracket_lower_bound)
        m = max(0, bound - low + 1)
        e = bound // 2 - (low - 1) // 2 if m else 0
        return (e * (e + 1) + (m - e) * (m - e + 1)) // 2

    def bracket_member(self, a: int, b: int, field: Field) -> LiePoly:
        if not self.contains_bracket(a, b):
            raise ValueError(f"[x1^{a}, x2^{b}] is not in the family")
        return LiePoly.monomial(field, (Var(1, a), Var(2, b)))

    def single_member(self, c: int, field: Field) -> LiePoly:
        if not self.contains_single(c):
            raise ValueError(f"x^{c} is not in the family")
        return LiePoly.variable(field, Var(1, c))

    def describe(self) -> str:
        if self.kind == "u1":
            return "brackets of equal parity"
        return (
            f"brackets of equal parity with degrees >= {self.bracket_lower_bound}, "
            "plus single variables of degree <= -2"
        )


#: ``--range`` tokens; "thm12"/"thm45" kept as accepted aliases.
W1_RANGE_BOUNDS = {"wide": -1, "tight": 0, "thm12": -1, "thm45": 0}


def family_for(model: str, range: Optional[str] = None) -> BasisFamily:
    """The generating family of a model name ("u1" or "w1") and a w1
    bracket range (a :data:`W1_RANGE_BOUNDS` token, default "wide"; u1
    has one family, whatever the range). Any other model or range raises
    ValueError."""
    if range is not None and range not in W1_RANGE_BOUNDS:
        raise ValueError(f"unknown family range {range!r} (want {'|'.join(W1_RANGE_BOUNDS)})")
    if model == "u1":
        return BasisFamily("u1")
    if model == "w1":
        return BasisFamily("w1", W1_RANGE_BOUNDS[range or "wide"])
    raise ValueError(f"no generating family for model {model!r} (want u1 or w1)")


def u1_family() -> BasisFamily:
    return family_for("u1")


def w1_family(variant: str = "wide") -> BasisFamily:
    """The polynomial-case family; variant "wide" uses bracket degrees
    >= -1, "tight" uses bracket degrees >= 0."""
    return family_for("w1", variant)


def _laurent_parity_identity(degrees) -> bool:
    prefix = degrees[0]
    for d in degrees[1:]:
        prefix += d
        if prefix % 2 == 0:
            return True
    return False


def monomial_is_identity(mono: tuple, model: GradedModel) -> bool:
    """Parity criterion for a left-normed monomial being a graded identity.

    Laurent case: the monomial is NOT an identity iff every prefix degree
    sum a_0 + ... + a_k (k >= 1) is odd; equivalently exactly one of the
    first two degrees is odd and all later ones are even. Polynomial
    case: additionally any variable of degree below the model's
    ``min_degree`` forces an identity (its component is zero).
    """
    if not isinstance(model, WittModel):
        raise ValueError("the monomial criterion applies to the u1/w1 models only")
    if model.field.characteristic != 2:
        raise ValueError("the parity criterion is specific to characteristic two")
    degrees = [v.degree for v in mono]
    low = model.min_degree
    if low is not None and any(d < low for d in degrees):
        return True
    return _laurent_parity_identity(degrees)


def monomial_normal_form(mono: tuple) -> Optional[tuple]:
    """Normal form of a monomial modulo the Laurent-case identity ideal,
    in characteristic two.

    Identities map to None (zero). A non-identity monomial is congruent,
    with coefficient 1, to the unique monomial that has its odd-degree
    variable first and the even-degree variables sorted ascending by
    (degree, index).
    """
    if _laurent_parity_identity([v.degree for v in mono]):
        return None
    if len(mono) == 1:
        return mono
    head_pos = 0 if mono[0].degree % 2 != 0 else 1
    head = mono[head_pos]
    rest = [v for i, v in enumerate(mono) if i != head_pos]
    rest.sort(key=lambda v: (v.degree, v.index))
    return (head, *rest)


def identity_subspace(model: GradedModel, space: MultilinearSpace) -> SubspaceBasis:
    """Kernel of the evaluation map of the multilinear component into the
    model: the linear dependencies of the basis monomials' values."""
    if model.field != space.field:
        raise ValueError("model and space fields differ")
    return linear_dependencies(_basis_tuple_rows(model, space.variables), space.field)


def _bracket_splits(family: BasisFamily, degrees, positions) -> Iterator[tuple]:
    """The splits ``(left, right)`` of ``positions`` into two nonempty
    blocks, each in the order of ``positions``, whose degree sums form a
    family bracket; ``degrees[i]`` is the degree at position i."""
    total = sum(degrees[i] for i in positions)
    contains_bracket = family.contains_bracket
    for left_size in range(1, len(positions)):
        for left in itertools.combinations(positions, left_size):
            a = sum(degrees[i] for i in left)
            if contains_bracket(a, total - a):
                yield left, tuple(i for i in positions if i not in left)


def consequence_instances(
    family: BasisFamily, space: MultilinearSpace
) -> Iterator[Tree]:
    """Spanning instances of the family inside the component, as trees."""
    vars_ = space.variables
    degrees = space.degrees
    n = space.n
    indices = tuple(range(n))
    block_cache = {}

    def block_basis(subset):
        # the block's basis monomials, as trees
        if subset not in block_cache:
            words = _basis_words([vars_[i] for i in subset])
            block_cache[subset] = [mono_to_tree(w) for w in words]
        return block_cache[subset]

    def wrapped(core, rest_indices):
        # the rest appended on the right in every order; none when empty
        for perm in itertools.permutations(vars_[i] for i in rest_indices):
            yield reduce(Pair, perm, core)

    if family.has_singletons:
        for size in range(1, n + 1):
            for block in itertools.combinations(indices, size):
                if not family.contains_single(sum(degrees[i] for i in block)):
                    continue
                rest = tuple(i for i in indices if i not in block)
                for inner in block_basis(block):
                    yield from wrapped(inner, rest)

    for size in range(2, n + 1):
        for chosen in itertools.combinations(indices, size):
            rest = tuple(i for i in indices if i not in chosen)
            for left, right in _bracket_splits(family, degrees, chosen):
                for inner_left in block_basis(left):
                    for inner_right in block_basis(right):
                        yield from wrapped(Pair(inner_left, inner_right), rest)


def consequence_subspace(
    family: BasisFamily,
    space: MultilinearSpace,
    deadline: Optional[float] = None,
    memo: Optional["SpanMemo"] = None,
) -> SubspaceBasis:
    """Span of all multilinear substitution instances of family members
    inside the component, as a semi-echelon subspace.

    Computed by recursion over the sub-components T of the space (its
    variables minus some, in index order), memoized by degree tuple. An
    instance on T is either a core (a substituted generator that uses all
    of T) or ``[instance on T - v, v]`` for the variable v appended last, so

        cons(T) = span(cores(T)) + sum over v in T of ad_v(cons(T - v)).

    The cores of T are the brackets ``[L, R]`` of basis monomials with
    ``L | R = T`` whose degree sums form a family bracket; when T's degree
    sum is a single-variable member, the basis monomials of T are cores
    too, so T is full. ``ad_v`` is linear, so the image of cons(T - v) is
    spanned by the images of its echelon rows. T takes no more rows once
    it is full. The rows of the cores and of ``ad_v`` depend only on
    letters (positions in T), so they are read from the certified tables
    :func:`~wittid.freealg._core_rows` and :func:`~wittid.freealg._ad_rows`,
    and cons(T) depends only on T's degree tuple, which keys the memo.
    :func:`consequence_instances` enumerates the same instances one by one
    and is the reference for this recursion.

    Without ``memo`` the spans are kept for this call only. A
    :class:`SpanMemo` shares them with the other calls of one run; it must
    hold the same family and field and be at least as wide as the space
    (ValueError otherwise). The span returned may be the memo's own, so it
    is not to be modified.

    ``deadline`` is an absolute time.monotonic() bound; running past it
    raises BudgetExceeded. It is checked before each core and each ad_v
    image, so a component without instances never raises. A span enters
    the memo only once it is complete, so an interrupted call leaves no
    partial span behind.
    """
    if memo is None:
        memo = SpanMemo(family, space.field, largest=space.n)
    if family != memo.family or space.field != memo.field:
        raise ValueError(
            f"span memo of {memo.family} over {memo.field} "
            f"asked for {family} over {space.field}"
        )
    if memo.largest is not None and space.n > memo.largest:
        raise ValueError(
            f"span memo of at most {memo.largest} variables asked for {space.n}"
        )
    return memo.span(space.degrees, deadline)


class SpanMemo:
    """Consequence spans of one family over one field, by degree tuple,
    shared by the :func:`consequence_subspace` calls of one run of
    components (a sweep, a pool chunk of one, or the revalidation of one
    report) and dropped with it. There is no memo across runs: each run
    starts cold.

    Memory bound: no span of ``largest`` variables or more is kept, since
    the run's largest components are nobody's sub-components; ``largest``
    None puts no bound. The memo runs the recursion itself, by methods
    rather than recursive closures: those form a reference cycle, which
    keeps the spans alive until the garbage collector runs."""

    __slots__ = ("family", "field", "largest", "spans")

    def __init__(self, family: BasisFamily, field: Field, largest: Optional[int] = None):
        self.family = family
        self.field = field
        self.largest = largest
        self.spans = {}

    def span(self, degrees: tuple, deadline: Optional[float] = None) -> SubspaceBasis:
        """The consequence span of the component of ``degrees``, kept when
        it is narrower than ``largest``."""
        span = self.spans.get(degrees)
        if span is None:
            span = self._span_of(degrees, deadline)
            if self.largest is None or len(degrees) < self.largest:
                self.spans[degrees] = span
        return span

    def _check_deadline(self, deadline: Optional[float], degrees: tuple) -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceeded(f"consequence span of degrees {degrees}")

    def _span_of(self, degrees: tuple, deadline: Optional[float]) -> SubspaceBasis:
        field, family, check = self.field, self.family, self._check_deadline
        k = len(degrees)
        dim = factorial(k - 1)
        if family.contains_single(sum(degrees)):
            check(deadline, degrees)
            return SubspaceBasis.full(field, dim)
        acc = SubspaceBasis.zero(field, dim)
        for left, _ in _bracket_splits(family, degrees, range(k)):
            for row in _core_rows(k, left, field):
                check(deadline, degrees)
                acc.insert(row)
                if acc.is_full():
                    return acc
        if k == 1:
            return acc
        for pos in range(k):
            inner = self.span(degrees[:pos] + degrees[pos + 1:], deadline)
            if inner.is_zero():
                continue
            check(deadline, degrees)
            for image in inner.images(_ad_rows(k, pos, field), dim):
                acc.insert(image)
                if acc.is_full():
                    return acc
        return acc


def subspace_contains(outer: SubspaceBasis, inner: SubspaceBasis) -> bool:
    """Exact containment inner <= outer, by row reduction."""
    return outer.contains_subspace(inner)


def subspace_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Exact equality of subspaces: their reduced row echelon forms, into
    which both are put in place, coincide."""
    return a == b
