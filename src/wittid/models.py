"""Concrete Z-graded Lie algebras as sparse structure-constant models.

Every model exposes its homogeneous components as named basis slots per
degree and a bracket of two elements; elements are sparse
combinations over (degree, slot) keys (:class:`ModelElement`). Provided
models:

* ``u1_model``: basis e_i for all integers i, bracket
  [e_i, e_j] = (j - i) e_{i+j} with the coefficient reduced into the field.
* ``w1_model``: the restriction to degrees >= -1 (components below are zero).
* ``ut3_model(r, s)``: strictly upper triangular 3x3 matrices graded by
  placing E12 at degree r, E23 at degree s and E13 at degree r + s; the
  only nonzero basis bracket is [E12, E23] = E13 (and its opposite with a
  sign). When r + s collides with r or s the spans are merged into one
  two-dimensional component and the model is flagged.
* ``onedim_model(d)``: a one-dimensional abelian algebra concentrated in
  degree d.

Models are immutable after construction and evaluation is pure. Values
are computed by structure constants only, through each model's one term
bracket, :meth:`~GradedModel.bracket_terms`, on reduced
``(degree, slot) -> scalar`` dicts: :meth:`WittModel.bracket_terms`
reads ``(j - i)`` term by term with the residues taken inline,
:meth:`UT3Model.bracket_terms` the E12 and E23 coefficients, and the
one-dimensional model's is zero. :meth:`GradedModel.bracket` is the one
wrapper that gives it :class:`ModelElement` arguments and value.
One evaluator, :func:`_value`, takes a bracket tree or a left-normed
tuple, and stops at the first part whose value is zero; :func:`evaluate`
and :func:`first_nonzero` (the soundness-witness search) use it. One
loop, :func:`_basis_tuple_rows`, evaluates a list of multilinear
monomials on every tuple of component basis vectors, for both the
multilinear identity check and the identity subspaces; it keeps a stack of
prefix values per tuple, so a prefix that consecutive monomials share is
bracketed once (the left-normed basis, in lexicographic order, brackets
about e·(n-1)! prefixes instead of (n-1)·(n-1)!), and the monomials after
a zero prefix that start with it get zero rows without a bracket.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Dict, Iterator, Optional, Sequence

from .fields import Combination, Field
from .freealg import LiePoly, Pair, Var


class ModelElement(Combination):
    """Sparse element of a graded model: (degree, slot) -> coefficient."""

    __slots__ = ()

    def degrees(self) -> set:
        return {d for d, _ in self.terms}

    def is_homogeneous(self, degree: int) -> bool:
        """Lies in the component of the given degree (zero qualifies)."""
        return all(d == degree for d, _ in self.terms)

    def __repr__(self):
        return f"ModelElement({self.terms})"


class GradedModel:
    """Base class: a Z-graded Lie algebra given by structure constants;
    each model defines its :meth:`bracket`."""

    name: str

    def __init__(self, field: Field):
        self.field = field

    def dim(self, degree: int) -> int:
        return len(self.component_slots(degree))

    def component_slots(self, degree: int) -> tuple:
        """Names of the basis slots of the component of this degree."""
        raise NotImplementedError

    def finite_support(self) -> Optional[tuple]:
        """Support degrees when finite, else None."""
        return None

    def basis_element(self, degree: int, slot: int = 0) -> ModelElement:
        slots = self.component_slots(degree)
        if not slots:
            raise ValueError(f"{self.name}: empty component at degree {degree}")
        if not 0 <= slot < len(slots):
            raise ValueError(f"{self.name}: no slot {slot} at degree {degree}")
        return ModelElement(self.field, {(degree, slot): self.field.one})

    def bracket(self, x: ModelElement, y: ModelElement) -> ModelElement:
        """The bracket of two elements: :meth:`bracket_terms` of their terms."""
        value = ModelElement(self.field)
        value.terms = self.bracket_terms(x.terms, y.terms)
        return value

    def bracket_terms(self, x: dict, y: dict) -> dict:
        """The bracket of two reduced ``(degree, slot) -> scalar`` dicts, as
        one, by the model's structure constants."""
        raise NotImplementedError

    def slot_name(self, degree: int, slot: int) -> str:
        return self.component_slots(degree)[slot]

    def format_element(self, x: ModelElement) -> str:
        return x.format(sorted(x.terms), lambda key: self.slot_name(*key))

    def __repr__(self):
        return f"{type(self).__name__}({self.name}, {self.field})"


class WittModel(GradedModel):
    """Derivation algebras with basis e_i and bracket [e_i,e_j] = (j-i)e_{i+j}.

    The bracket of two elements is taken from this structure constant
    directly, term by term.

    ``min_degree=None`` keeps all integer degrees (Laurent case);
    ``min_degree=-1`` truncates to the polynomial case, where every
    component below -1 is zero.
    """

    def __init__(self, field: Field, min_degree: Optional[int] = None):
        super().__init__(field)
        self.min_degree = min_degree
        self.name = "u1" if min_degree is None else "w1"

    def dim(self, degree: int) -> int:
        return int(self.min_degree is None or degree >= self.min_degree)

    def component_slots(self, degree: int) -> tuple:
        return (f"e{degree}",) if self.dim(degree) else ()

    def bracket_terms(self, x: dict, y: dict) -> dict:
        """``[a e_i, b e_j] = ab(j - i) e_{i+j}`` over every pair of terms,
        summed with the residues taken inline and the zeros dropped."""
        p = self.field.p
        out = {}
        for (d1, _), c1 in x.items():
            for (d2, _), c2 in y.items():
                key = (d1 + d2, 0)
                c = out.get(key, 0) + c1 * c2 * (d2 - d1)
                if p is not None:
                    c %= p
                if c:
                    out[key] = c
                else:
                    out.pop(key, None)
        low = self.min_degree
        if low is not None:
            for d, _ in out:
                if d < low:
                    # Cannot happen: within support, products landing below
                    # the truncation always carry coefficient zero.
                    raise AssertionError(f"bracket left the support at degree {d}")
        return out


class UT3Model(GradedModel):
    """Strictly upper triangular 3x3 matrices with a two-parameter grading."""

    def __init__(self, field: Field, r: int, s: int):
        super().__init__(field)
        if r > s:
            raise ValueError(f"need r <= s, got ({r}, {s})")
        if (r - s) % 2 != 0:
            raise ValueError(f"need r and s of the same parity, got ({r}, {s})")
        self.r = r
        self.s = s
        self.name = f"ut3:{r}:{s}"
        components: Dict[int, list] = {}
        if r == s == 0:
            components[0] = ["E12", "E23", "E13"]
        elif r == s:
            components[r] = ["E12", "E23"]
            components[2 * r] = ["E13"]
        else:
            components[r] = ["E12"]
            components[s] = ["E23"]
            components.setdefault(r + s, []).append("E13")
        self.collision_merged = r != s and (r + s in (r, s))
        self._components = {d: tuple(names) for d, names in components.items()}
        self._e12, self._e23, self._e13 = map(self._locate, ("E12", "E23", "E13"))

    def component_slots(self, degree: int) -> tuple:
        return self._components.get(degree, ())

    def finite_support(self) -> tuple:
        return tuple(sorted(self._components))

    def _locate(self, unit: str) -> tuple:
        for d, names in self._components.items():
            if unit in names:
                return d, names.index(unit)
        raise AssertionError(unit)

    def bracket_terms(self, x: dict, y: dict) -> dict:
        """``(x_E12 y_E23 - x_E23 y_E12) E13``: [E12, E23] = E13 is the only
        nonzero bracket of basis matrices, whichever components they share."""
        e12, e23 = self._e12, self._e23
        c = x.get(e12, 0) * y.get(e23, 0) - x.get(e23, 0) * y.get(e12, 0)
        return self.field.reduced([(self._e13, c)])


class OneDimModel(GradedModel):
    """One-dimensional abelian algebra concentrated in a single degree."""

    def __init__(self, field: Field, d: int):
        super().__init__(field)
        self.d = d
        self.name = f"onedim:{d}"

    def component_slots(self, degree: int) -> tuple:
        return ("h",) if degree == self.d else ()

    def finite_support(self) -> tuple:
        return (self.d,)

    def bracket_terms(self, x: dict, y: dict) -> dict:
        return {}


def u1_model(field: Field) -> WittModel:
    """Laurent-derivation algebra: one-dimensional components at every degree."""
    return WittModel(field, min_degree=None)


def w1_model(field: Field) -> WittModel:
    """Polynomial-derivation algebra: components vanish below degree -1."""
    return WittModel(field, min_degree=-1)


def ut3_model(field: Field, r: int, s: int) -> UT3Model:
    return UT3Model(field, r, s)


def onedim_model(field: Field, d: int) -> OneDimModel:
    return OneDimModel(field, d)


def parse_model(text: str, field: Field) -> GradedModel:
    """Parse a model name: ``u1 | w1 | ut3:<r>:<s> | onedim:<d>``."""
    parts = text.strip().lower().split(":")
    if parts == ["u1"]:
        return u1_model(field)
    if parts == ["w1"]:
        return w1_model(field)
    try:
        params = [int(x) for x in parts[1:]]
    except ValueError:
        params = None
    if params is not None and parts[0] == "ut3" and len(params) == 2:
        return ut3_model(field, *params)
    if params is not None and parts[0] == "onedim" and len(params) == 1:
        return onedim_model(field, *params)
    raise ValueError(f"bad model spec {text!r} (want u1|w1|ut3:<r>:<s>|onedim:<d>)")


# The order of Var (by index, then degree), read in C.
_VAR_ORDER = attrgetter("index", "degree")


def _check_field(f: LiePoly, field: Field):
    """f lives over the model's field (an equal field object will do)."""
    if f.field is not field and f.field != field:
        raise ValueError(f"polynomial field {f.field} does not match the model's field {field}")


def _substituted_terms(f: LiePoly, substitution: dict, model: GradedModel) -> dict:
    """The terms of the value of each variable of f, checked in one pass:
    every value lies over the model's field and in the component of its
    variable's degree. On failure the lowest offending variable is named."""
    field = model.field
    values = {}
    variables = f.variables()
    for v in variables:
        value = substitution.get(v)
        if value is None or value.field is not field and value.field != field:
            continue
        degree = v.degree
        for d, _ in value.terms:
            if d != degree:
                break
        else:
            values[v] = value.terms
    if len(values) < len(variables):
        v = min(variables - values.keys(), key=_VAR_ORDER)
        value = substitution.get(v)
        if value is None:
            raise ValueError(f"substitution misses variable {v}")
        if value.field is not field and value.field != field:
            raise ValueError(f"value for {v} lives over a different field")
        raise ValueError(
            f"inadmissible substitution: value for {v} is not homogeneous "
            f"of degree {v.degree} (degrees {sorted(value.degrees())})"
        )
    return values


def _value(x, values: dict, bracket) -> dict:
    """The terms of the value of ``x``, a bracket tree or a left-normed
    tuple of variables, when each variable v takes the terms ``values[v]``;
    ``bracket`` is the model's :meth:`~GradedModel.bracket_terms`. A part
    whose value is zero ends the evaluation: a left-normed prefix, or the
    left side of a bracket before its right side is evaluated."""
    if type(x) is tuple:
        acc = values[x[0]]
        for v in x[1:]:
            if not acc:
                break
            acc = bracket(acc, values[v])
        return acc
    if type(x) is Pair:
        left = _value(x.left, values, bracket)
        if not left:
            return left
        right = _value(x.right, values, bracket)
        return bracket(left, right) if right else right
    return values[x]


def evaluate(f: LiePoly, substitution: dict, model: GradedModel) -> ModelElement:
    """Value of f under an admissible substitution, by structure constants."""
    field = model.field
    _check_field(f, field)
    values = _substituted_terms(f, substitution, model)
    bracket = model.bracket_terms
    one = field.one
    out = {}
    for mono, c in f.terms.items():
        value = _value(mono, values, bracket).items()
        if c != one:
            value = [(key, field.mul(c, a)) for key, a in value]
        field.add_into(out, value)
    # add_into leaves no zeros, so the constructor's filter is skipped.
    result = ModelElement(field)
    result.terms = out
    return result


def basis_substitutions(model: GradedModel, variables: Sequence[Var]) -> Iterator[dict]:
    """Every substitution of component basis vectors for the variables.

    Yields nothing when some variable's component is zero, since then
    every admissible value of that variable is zero.
    """
    for letters in _basis_terms(model, variables):
        yield {v: ModelElement(model.field, terms) for v, terms in letters.items()}


def _basis_terms(model: GradedModel, variables: Sequence[Var]) -> list:
    """The :func:`basis_substitutions` as ``Var -> terms`` dicts, in order."""
    one = model.field.one
    per_var = [
        [{(v.degree, slot): one} for slot in range(model.dim(v.degree))]
        for v in variables
    ]
    return [dict(zip(variables, choice)) for choice in itertools.product(*per_var)]


def first_nonzero(model: GradedModel, variables: Sequence[Var], elements):
    """The first of ``elements`` (bracket trees or left-normed tuples in
    the variables) that takes a nonzero value on some basis tuple, or
    None. The identity subspace is the kernel of this evaluation, so that
    is the first element outside it."""
    substitutions = _basis_terms(model, variables)
    bracket = model.bracket_terms
    for x in elements:
        for values in substitutions:
            if _value(x, values, bracket):
                return x
    return None


def _basis_tuple_rows(model: GradedModel, variables: Sequence[Var], monomials) -> list:
    """Per monomial, its values on the :func:`basis_substitutions` tuples as
    coordinates in the component of the variables' degree sum, concatenated.
    The tuples are admissible by construction, so none is checked.

    Each substitution keeps a stack of prefix values (term dicts): the
    values of the prefixes that a monomial shares with the one before it in
    the list are reused, so a run of monomials with a common prefix brackets
    it once, and a zero prefix ends the monomial. The monomials that follow
    and start with the same zero prefix, found by one tuple-slice compare,
    get zero rows with no bracket. Any order of ``monomials`` gives the same
    rows; the lexicographic order shares the most.
    """
    total = sum(v.degree for v in variables)
    keys = [(total, slot) for slot in range(model.dim(total))]
    rows = [[] for _ in monomials]
    if not keys:
        return rows
    zeros = [model.field.zero] * len(keys)
    bracket = model.bracket_terms
    for letters in _basis_terms(model, variables):
        # values[k] is the value of the previous monomial's first k + 1
        # letters; the stack stops at the first zero prefix, whose letters
        # are ``dead`` (else ``dead`` is None).
        values = []
        previous = ()
        dead = None
        for row, mono in zip(rows, monomials):
            if dead is not None and mono[:len(dead)] == dead:
                row.extend(zeros)
                continue
            k = 0
            for a, b, _ in zip(mono, previous, values):
                if a is not b and a != b:
                    break
                k += 1
            del values[k:]
            if not values:
                values.append(letters[mono[0]])
            acc = values[-1]
            for v in mono[len(values):]:
                if not acc:
                    break
                acc = bracket(acc, letters[v])
                values.append(acc)
            if acc:
                row.extend(map(acc.get, keys, zeros))
                dead = None
            else:
                row.extend(zeros)
                dead = mono[:len(values)]
            previous = mono
    return rows


def satisfies_multilinear(model: GradedModel, f: LiePoly) -> bool:
    """Whether a multilinear polynomial vanishes under every admissible
    substitution, decided on tuples of component basis vectors (which
    suffices by multilinearity)."""
    if not f.is_multilinear():
        raise ValueError("identity check by evaluation is restricted to multilinear input")
    field = model.field
    _check_field(f, field)
    sums = {}
    # Sorted by monomial, so that monomials with a common prefix are adjacent.
    terms = sorted(f.terms.items())
    rows = _basis_tuple_rows(model, sorted(f.variables()), [mono for mono, _ in terms])
    for (_, c), row in zip(terms, rows):
        field.add_into(sums, ((j, field.mul(c, x)) for j, x in enumerate(row)))
    return not sums
