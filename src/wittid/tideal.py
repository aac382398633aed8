"""Identity-ideal machinery over the graded free Lie algebra.

Provides the two generating families of identities (the bracket family
[x1^a, x2^b] with a and b of equal parity for the Laurent case, plus the
single variables x^c, c <= -2, for the polynomial case), the parity
criterion and normal form for monomial identities in characteristic two,
and exact computation of two subspaces of a multilinear component:

* the identity subspace: the kernel of the evaluation map into the model,
  computed by evaluating every basis monomial on component basis tuples;
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
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .fields import Field
from .freealg import LiePoly, MultilinearSpace, Pair, Tree, Var, mono_to_tree
from .linalg import SubspaceBasis, linear_dependencies
from .models import GradedModel, WittModel, _evaluate_monomial, basis_substitutions


class BudgetExceeded(RuntimeError):
    """Raised when a consequence enumeration runs past its deadline."""


@dataclass(frozen=True)
class BasisFamily:
    """A generating family of graded identities.

    kind "u1": the brackets [x1^a, x2^b] with a, b of the same parity.
    kind "w1": the same brackets restricted to a, b >= bracket_lower_bound
    (-1 or 0), together with the single variables x^c, c <= -2.
    """

    kind: str
    bracket_lower_bound: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("u1", "w1"):
            raise ValueError(f"unknown family kind {self.kind!r}")
        if self.kind == "w1" and self.bracket_lower_bound not in (-1, 0):
            raise ValueError("w1 family needs a bracket lower bound of -1 or 0")
        if self.kind == "u1" and self.bracket_lower_bound is not None:
            raise ValueError("u1 family takes no lower bound")

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


def u1_family() -> BasisFamily:
    return BasisFamily("u1")


#: ``--range`` tokens; "thm12"/"thm45" kept as accepted aliases.
W1_RANGE_BOUNDS = {"wide": -1, "tight": 0, "thm12": -1, "thm45": 0}


def w1_family(variant: str = "wide") -> BasisFamily:
    """The polynomial-case family; variant "wide" uses bracket degrees
    >= -1, "tight" uses bracket degrees >= 0."""
    if variant not in W1_RANGE_BOUNDS:
        raise ValueError(f"unknown family variant {variant!r}")
    return BasisFamily("w1", W1_RANGE_BOUNDS[variant])


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
    case: additionally any variable of degree <= -2 forces an identity
    (its component is zero).
    """
    if not isinstance(model, WittModel):
        raise ValueError("the monomial criterion applies to the u1/w1 models only")
    if model.field.characteristic != 2:
        raise ValueError("the parity criterion is specific to characteristic two")
    degrees = [v.degree for v in mono]
    if model.name == "w1" and any(d <= -2 for d in degrees):
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
    model, computed on tuples of component basis vectors."""
    if model.field != space.field:
        raise ValueError("model and space fields differ")
    field = space.field
    total = sum(v.degree for v in space.variables)
    target_dim = model.dim(total)
    substitutions = list(basis_substitutions(model, space.variables))
    if not substitutions or target_dim == 0:
        return SubspaceBasis.full(field, space.dim)
    rows = []
    for mono in space.basis:
        row = []
        for substitution in substitutions:
            value = _evaluate_monomial(mono, substitution, model)
            row.extend(value.coeff(total, slot) for slot in range(target_dim))
        rows.append(row)
    return linear_dependencies(rows, field)


def _append_right(core: Tree, suffix) -> Tree:
    tree = core
    for v in suffix:
        tree = Pair(tree, v)
    return tree


def consequence_instances(
    family: BasisFamily, space: MultilinearSpace
) -> Iterator[Tree]:
    """Spanning instances of the family inside the component, as trees."""
    field = space.field
    vars_ = space.variables
    n = space.n
    indices = tuple(range(n))
    block_cache = {}

    def block_basis(subset):
        if subset not in block_cache:
            block_cache[subset] = MultilinearSpace(
                (vars_[i] for i in subset), field
            ).basis
        return block_cache[subset]

    def wrapped(core, rest_indices):
        rest = tuple(vars_[i] for i in rest_indices)
        if not rest:
            yield core
            return
        for perm in itertools.permutations(rest):
            yield _append_right(core, perm)

    if family.has_singletons:
        for size in range(1, n + 1):
            for block in itertools.combinations(indices, size):
                if not family.contains_single(sum(vars_[i].degree for i in block)):
                    continue
                rest = tuple(i for i in indices if i not in block)
                for inner in block_basis(block):
                    yield from wrapped(mono_to_tree(inner), rest)

    for size in range(2, n + 1):
        for chosen in itertools.combinations(indices, size):
            chosen_set = set(chosen)
            rest = tuple(i for i in indices if i not in chosen_set)
            for left_size in range(1, size):
                for left in itertools.combinations(chosen, left_size):
                    right = tuple(i for i in chosen if i not in set(left))
                    d_left = sum(vars_[i].degree for i in left)
                    d_right = sum(vars_[i].degree for i in right)
                    if not family.contains_bracket(d_left, d_right):
                        continue
                    for inner_left in block_basis(left):
                        tree_left = mono_to_tree(inner_left)
                        for inner_right in block_basis(right):
                            core = Pair(tree_left, mono_to_tree(inner_right))
                            yield from wrapped(core, rest)


def consequence_subspace(
    family: BasisFamily,
    space: MultilinearSpace,
    deadline: Optional[float] = None,
) -> SubspaceBasis:
    """Span of all multilinear substitution instances of family members
    inside the component, as a row-echelon subspace.

    ``deadline`` is an absolute time.monotonic() bound; running past it
    raises BudgetExceeded (checked between instances).
    """
    acc = SubspaceBasis.zero(space.field, space.dim)
    for count, tree in enumerate(consequence_instances(family, space)):
        if deadline is not None and count % 32 == 0 and time.monotonic() > deadline:
            raise BudgetExceeded(f"consequence enumeration in {space!r}")
        acc.insert(space.coordinates(tree))
        if acc.is_full():
            break
    return acc


def subspace_contains(outer: SubspaceBasis, inner: SubspaceBasis) -> bool:
    """Exact containment inner <= outer, by row reduction."""
    return outer.contains_subspace(inner)


def subspace_equal(a: SubspaceBasis, b: SubspaceBasis) -> bool:
    """Exact equality of subspaces (canonical echelon forms coincide)."""
    return a == b
