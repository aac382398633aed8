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
and :func:`first_nonzero` (the soundness-witness search) use it, and
:func:`satisfies_multilinear` evaluates the polynomial on every tuple of
component basis vectors through the loop of :func:`evaluate`. The identity
subspaces read the rows of :func:`_basis_tuple_rows`, which walks the
prefix tree of the left-normed basis (:func:`~wittid.freealg._basis_prefixes`)
once per tuple: each prefix is bracketed at most once (about e·(n-1)!
brackets instead of (n-1)·(n-1)!), and nothing below a zero prefix.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Dict, Iterator, Optional, Sequence

from .fields import Combination, Field
from .freealg import LiePoly, Pair, Var, _basis_prefixes


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


def _poly_value(f: LiePoly, values: dict, model: GradedModel) -> dict:
    """The terms of the value of f when each variable v takes the terms
    ``values[v]``: each monomial's :func:`_value` times its coefficient,
    summed with the zeros dropped."""
    field = model.field
    bracket = model.bracket_terms
    one = field.one
    out = {}
    for mono, c in f.terms.items():
        value = _value(mono, values, bracket).items()
        if c != one:
            value = [(key, field.mul(c, a)) for key, a in value]
        field.add_into(out, value)
    return out


def evaluate(f: LiePoly, substitution: dict, model: GradedModel) -> ModelElement:
    """Value of f under an admissible substitution, by structure constants."""
    field = model.field
    _check_field(f, field)
    values = _substituted_terms(f, substitution, model)
    # _poly_value leaves no zeros, so the constructor's filter is skipped.
    result = ModelElement(field)
    result.terms = _poly_value(f, values, model)
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


def _basis_tuple_rows(model: GradedModel, variables: Sequence[Var]) -> list:
    """Per monomial of :attr:`MultilinearSpace.basis` on ``variables`` (in
    the space's order, by index), its values on the :func:`basis_substitutions`
    tuples as coordinates in the component of the variables' degree sum,
    concatenated. The tuples are admissible by construction, so none is
    checked.

    Each tuple makes one pass over the nodes of :func:`_basis_prefixes`:
    a prefix's value is its parent's bracketed with its letter, or its
    parent's zero with no bracket, so every prefix is bracketed at most
    once; the rows are read at the leaves.
    """
    total = sum(v.degree for v in variables)
    keys = [(total, slot) for slot in range(model.dim(total))]
    nodes, leaves = _basis_prefixes(len(variables))
    rows = [[] for _ in leaves]
    if not keys:
        return rows
    zeros = [model.field.zero] * len(keys)
    bracket = model.bracket_terms
    for letters in _basis_terms(model, variables):
        terms = [letters[v] for v in variables]
        values = [terms[-1]]
        for parent, letter in nodes:
            acc = values[parent]
            values.append(bracket(acc, terms[letter]) if acc else acc)
        for row, leaf in zip(rows, leaves):
            row.extend(map(values[leaf].get, keys, zeros))
    return rows


def satisfies_multilinear(model: GradedModel, f: LiePoly) -> bool:
    """Whether a multilinear polynomial vanishes under every admissible
    substitution, decided on tuples of component basis vectors (which
    suffices by multilinearity)."""
    if not f.is_multilinear():
        raise ValueError("identity check by evaluation is restricted to multilinear input")
    _check_field(f, model.field)
    return not any(
        _poly_value(f, values, model) for values in _basis_terms(model, sorted(f.variables()))
    )
