"""Exact scalar arithmetic: prime fields GF(p) and the rationals.

Scalars are plain Python values (canonical residues ``0 <= v < p`` for
GF(p), :class:`fractions.Fraction` for the rationals); a :class:`Field`
instance supplies the operations. Characteristic two is the default
everywhere in this package, but signs are always carried through the
field arithmetic rather than dropped textually, so the same code is
correct over GF(p) for odd p and over the rationals.

A :class:`Combination` is a sparse formal combination of keys over a
field, kept without zero coefficients by :meth:`Field.reduced` and
:meth:`Field.add_into`. Lie polynomials, their associative images and the
values of the structure-constant models are all combinations: they share
its sum, scaling, comparison and text form.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from fractions import Fraction

Scalar = Union[int, "Fraction"]

#: Moduli are below 2^31, so the trial division of :func:`_is_prime` stops
#: below sqrt(2^31) < 46,341.
MAX_MODULUS = 2**31


def _rational(n: int, d: int = 1):
    """The Fraction ``n/d``; :mod:`fractions` is imported on first use, so
    GF(p) work never loads it."""
    from fractions import Fraction

    return Fraction(n, d)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class Field:
    """A prime field GF(p) (``kind == "prime"``) or the rationals."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "prime":
            if p is not None and p >= MAX_MODULUS:
                raise ValueError(f"field modulus must be below 2^31 = {MAX_MODULUS:,}, got {p}")
            if p is None or not _is_prime(p):
                raise ValueError(f"field modulus must be prime, got {p!r}")
        elif kind == "rational":
            if p is not None:
                raise ValueError("the rational field has no modulus")
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p

    @classmethod
    def gf(cls, p: int) -> "Field":
        return cls("prime", p)

    @classmethod
    def rationals(cls) -> "Field":
        return cls("rational")

    @classmethod
    def from_spec(cls, spec: str) -> "Field":
        """Parse a field name: ``gf2``, ``gf<p>`` or ``rational``."""
        text = spec.strip().lower()
        if text == "rational":
            return cls.rationals()
        if text.startswith("gf"):
            try:
                p = int(text[2:])
            except ValueError:
                raise ValueError(f"bad field spec {spec!r}") from None
            return cls.gf(p)
        raise ValueError(f"bad field spec {spec!r} (want gf<p> or rational)")

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "prime" else 0

    @property
    def zero(self) -> Scalar:
        return 0 if self.kind == "prime" else _rational(0)

    @property
    def one(self) -> Scalar:
        return 1 if self.kind == "prime" else _rational(1)

    def from_int(self, n: int) -> Scalar:
        """Reduce an integer into the field."""
        return n % self.p if self.kind == "prime" else _rational(n)

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.kind == "prime" else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.kind == "prime" else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.kind == "prime" else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.kind == "prime" else -a

    def inv(self, a: Scalar) -> Scalar:
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p) if self.kind == "prime" else 1 / a

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    def add_into(self, acc: dict, items) -> dict:
        """Add ``(key, scalar)`` pairs into the sparse combination ``acc``.

        Keys whose coefficient cancels to zero are dropped, so ``acc``
        never stores a zero. Returns ``acc``.
        """
        p = self.p
        for key, c in items:
            s = acc.get(key, 0) + c
            if p is not None:
                s %= p
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
        return acc

    def reduced(self, items) -> dict:
        """The sparse combination of ``(key, scalar)`` pairs whose keys are
        distinct: each scalar reduced, zeros dropped, one store per key."""
        p = self.p
        if p is None:
            return {key: c for key, c in items if c}
        return {key: r for key, c in items if (r := c % p)}

    def format_scalar(self, a: Scalar) -> str:
        if self.kind == "rational" and a.denominator != 1:
            return f"{a.numerator}/{a.denominator}"
        return str(int(a))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Field)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __str__(self):
        return f"gf{self.p}" if self.kind == "prime" else "rational"

    def __repr__(self):
        return f"Field({str(self)})"


GF2 = Field.gf(2)


class Combination:
    """Sparse formal combination over a field: ``terms`` maps each key to
    a nonzero scalar."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict | None = None):
        self.field = field
        self.terms = field.reduced(terms.items()) if terms else {}

    @classmethod
    def zero(cls, field: Field) -> "Combination":
        return cls(field)

    def __add__(self, other: "Combination") -> "Combination":
        if type(other) is not type(self):
            raise TypeError(f"cannot add {type(other).__name__} to {type(self).__name__}")
        if self.field != other.field:
            raise ValueError("mixed fields")
        out = type(self)(self.field)
        out.terms = self.field.add_into(dict(self.terms), other.terms.items())
        return out

    def scale(self, c: Scalar) -> "Combination":
        f = self.field
        return type(self)(f, {key: f.mul(c, a) for key, a in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def format(self, keys, name) -> str:
        """``"0"``, or ``c*name(key) + ...`` over ``keys`` (the stored keys,
        in the order to print), with a coefficient of one left out."""
        if not self.terms:
            return "0"
        f = self.field
        bits = []
        for key in keys:
            c = self.terms[key]
            bits.append(name(key) if c == f.one else f"{f.format_scalar(c)}*{name(key)}")
        return " + ".join(bits)
