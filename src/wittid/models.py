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
are computed by structure constants only, through each model's one
``bracket``: :meth:`WittModel.bracket` reads ``(j - i)`` term by term,
:meth:`UT3Model.bracket` the E12 and E23 coefficients, and the
one-dimensional model's bracket is zero.
One loop, :func:`_basis_tuple_rows`, evaluates a list of multilinear
monomials on every tuple of component basis vectors, for both the
multilinear identity check and the identity subspaces; it keeps a stack of
prefix values per tuple, so a prefix that consecutive monomials share is
bracketed once (the left-normed basis, in lexicographic order, brackets
about e·(n-1)! prefixes instead of (n-1)·(n-1)!).
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Dict, Iterator, Optional, Sequence

from .fields import Combination, Field, Scalar
from .freealg import LiePoly, Var


class ModelElement(Combination):
    """Sparse element of a graded model: (degree, slot) -> coefficient."""

    __slots__ = ()

    def degrees(self) -> set:
        return {d for d, _ in self.terms}

    def is_homogeneous(self, degree: int) -> bool:
        """Lies in the component of the given degree (zero qualifies)."""
        return all(d == degree for d, _ in self.terms)

    def coeff(self, degree: int, slot: int) -> Scalar:
        return self.terms.get((degree, slot), self.field.zero)

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
        """The bracket of two elements, by the model's structure constants."""
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

    def component_slots(self, degree: int) -> tuple:
        if self.min_degree is not None and degree < self.min_degree:
            return ()
        return (f"e{degree}",)

    def bracket(self, x: ModelElement, y: ModelElement) -> ModelElement:
        """``[a e_i, b e_j] = ab(j - i) e_{i+j}`` over every pair of terms,
        summed by one :meth:`Field.add_into`, which reduces the products
        and drops the zeros."""
        value = ModelElement(self.field)
        value.terms = out = self.field.add_into({}, [
            ((d1 + d2, 0), c1 * c2 * (d2 - d1))
            for (d1, _), c1 in x.terms.items()
            for (d2, _), c2 in y.terms.items()
        ])
        low = self.min_degree
        if low is not None:
            for d, _ in out:
                if d < low:
                    # Cannot happen: within support, products landing below
                    # the truncation always carry coefficient zero.
                    raise AssertionError(f"bracket left the support at degree {d}")
        return value


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

    def bracket(self, x: ModelElement, y: ModelElement) -> ModelElement:
        """``(x_E12 y_E23 - x_E23 y_E12) E13``: [E12, E23] = E13 is the only
        nonzero bracket of basis matrices, whichever components they share."""
        f = self.field
        c = f.sub(
            f.mul(x.coeff(*self._e12), y.coeff(*self._e23)),
            f.mul(x.coeff(*self._e23), y.coeff(*self._e12)),
        )
        return ModelElement(f, {self._e13: c})


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

    def bracket(self, x: ModelElement, y: ModelElement) -> ModelElement:
        return ModelElement(self.field)


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


def _check_substitution(f: LiePoly, substitution: dict, model: GradedModel):
    """Every variable of f has a value over the model's field that lies in
    the component of its degree; the lowest offending variable is named."""
    field = model.field
    for v in sorted(f.variables(), key=_VAR_ORDER):
        value = substitution.get(v)
        if value is None:
            raise ValueError(f"substitution misses variable {v}")
        if value.field is not field and value.field != field:
            raise ValueError(f"value for {v} lives over a different field")
        degree = v.degree
        for d, _ in value.terms:
            if d != degree:
                raise ValueError(
                    f"inadmissible substitution: value for {v} is not homogeneous "
                    f"of degree {degree} (degrees {sorted(value.degrees())})"
                )


def _evaluate_monomial(mono: tuple, substitution: dict, model: GradedModel) -> ModelElement:
    acc = substitution[mono[0]]
    for v in mono[1:]:
        if acc.is_zero():
            return acc
        acc = model.bracket(acc, substitution[v])
    return acc


def evaluate(f: LiePoly, substitution: dict, model: GradedModel) -> ModelElement:
    """Value of f under an admissible substitution, by structure constants."""
    field = model.field
    _check_field(f, field)
    _check_substitution(f, substitution, model)
    one = field.one
    out = {}
    for mono, c in f.terms.items():
        value = _evaluate_monomial(mono, substitution, model).terms.items()
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
    per_var = [
        [model.basis_element(v.degree, i) for i in range(model.dim(v.degree))]
        for v in variables
    ]
    for choice in itertools.product(*per_var):
        yield dict(zip(variables, choice))


def _basis_tuple_rows(model: GradedModel, variables: Sequence[Var], monomials) -> list:
    """Per monomial, its values on the :func:`basis_substitutions` tuples as
    coordinates in the component of the variables' degree sum, concatenated.
    The tuples are admissible by construction, so none is checked.

    Each substitution keeps a stack of prefix values: the values of the
    prefixes that a monomial shares with the one before it in the list are
    reused, so a run of monomials with a common prefix brackets it once,
    and a zero prefix ends the monomial. Any order of ``monomials`` gives
    the same rows; the lexicographic order shares the most.
    """
    total = sum(v.degree for v in variables)
    keys = [(total, slot) for slot in range(model.dim(total))]
    rows = [[] for _ in monomials]
    if not keys:
        return rows
    zeros = [model.field.zero] * len(keys)
    bracket = model.bracket
    for substitution in basis_substitutions(model, variables):
        # values[k] is the value of the previous monomial's first k + 1
        # letters; the stack stops at the first zero prefix, so only the
        # letters it covers are compared.
        values = []
        previous = ()
        for row, mono in zip(rows, monomials):
            k = 0
            for a, b, _ in zip(mono, previous, values):
                if a is not b and a != b:
                    break
                k += 1
            del values[k:]
            if not values:
                values.append(substitution[mono[0]])
            acc = values[-1]
            for v in mono[len(values):]:
                if not acc.terms:
                    break
                acc = bracket(acc, substitution[v])
                values.append(acc)
            row.extend(map(acc.terms.get, keys, zeros))
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
