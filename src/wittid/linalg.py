"""Exact row-echelon linear algebra over a :class:`~wittid.fields.Field`.

Subspaces of F^n are kept in reduced row echelon form, which is a
canonical representation: two subspaces are equal iff their stored rows
coincide. Over GF(2) rows are packed into int bitmasks (bit j = column
j); other fields store rows as scalar lists. The interface is
field-generic either way.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .fields import Field, Scalar


class SubspaceBasis:
    """Row-echelon basis of a subspace of F^ncols."""

    __slots__ = ("field", "ncols", "_gf2", "_rows", "_pivots")

    def __init__(self, field: Field, ncols: int):
        if ncols < 0:
            raise ValueError("ncols must be non-negative")
        self.field = field
        self.ncols = ncols
        self._gf2 = field.kind == "prime" and field.p == 2
        # GF(2): list of int masks; otherwise list of scalar lists.
        self._rows = []
        self._pivots = []

    @classmethod
    def zero(cls, field: Field, ncols: int) -> "SubspaceBasis":
        return cls(field, ncols)

    @classmethod
    def full(cls, field: Field, ncols: int) -> "SubspaceBasis":
        basis = cls(field, ncols)
        one, zero = field.one, field.zero
        for j in range(ncols):
            basis.insert([one if i == j else zero for i in range(ncols)])
        return basis

    @classmethod
    def from_vectors(
        cls, field: Field, ncols: int, vectors: Iterable[Sequence[Scalar]]
    ) -> "SubspaceBasis":
        basis = cls(field, ncols)
        for v in vectors:
            basis.insert(v)
        return basis

    @property
    def dim(self) -> int:
        return len(self._rows)

    def is_zero(self) -> bool:
        return not self._rows

    def is_full(self) -> bool:
        return len(self._rows) == self.ncols

    # -- GF(2) bitmask path -------------------------------------------------

    def _encode(self, vec: Sequence[Scalar]) -> int:
        mask = 0
        for j, c in enumerate(vec):
            if c:
                mask |= 1 << j
        return mask

    def _decode(self, mask: int) -> tuple:
        return tuple((mask >> j) & 1 for j in range(self.ncols))

    def _reduce_mask(self, mask: int) -> int:
        for pivot, row in zip(self._pivots, self._rows):
            if (mask >> pivot) & 1:
                mask ^= row
        return mask

    def _insert_mask(self, mask: int) -> bool:
        mask = self._reduce_mask(mask)
        if mask == 0:
            return False
        pivot = (mask & -mask).bit_length() - 1
        for i, row in enumerate(self._rows):
            if (row >> pivot) & 1:
                self._rows[i] = row ^ mask
        at = 0
        while at < len(self._pivots) and self._pivots[at] < pivot:
            at += 1
        self._pivots.insert(at, pivot)
        self._rows.insert(at, mask)
        return True

    # -- generic path -------------------------------------------------------

    def _reduce_list(self, vec: list) -> list:
        f = self.field
        for pivot, row in zip(self._pivots, self._rows):
            c = vec[pivot]
            if not f.is_zero(c):
                vec = [f.sub(a, f.mul(c, b)) for a, b in zip(vec, row)]
        return vec

    def _insert_list(self, vec: list) -> bool:
        f = self.field
        vec = self._reduce_list(vec)
        pivot = next((j for j, c in enumerate(vec) if not f.is_zero(c)), None)
        if pivot is None:
            return False
        scale = f.inv(vec[pivot])
        vec = [f.mul(scale, c) for c in vec]
        for i, row in enumerate(self._rows):
            c = row[pivot]
            if not f.is_zero(c):
                self._rows[i] = [f.sub(a, f.mul(c, b)) for a, b in zip(row, vec)]
        at = 0
        while at < len(self._pivots) and self._pivots[at] < pivot:
            at += 1
        self._pivots.insert(at, pivot)
        self._rows.insert(at, vec)
        return True

    # -- public interface ---------------------------------------------------

    def insert(self, vec: Sequence[Scalar]) -> bool:
        """Add a vector to the span; returns True if the rank grew."""
        self._check_length(vec)
        if self._gf2:
            return self._insert_mask(self._encode(vec))
        return self._insert_list(list(vec))

    def reduce(self, vec: Sequence[Scalar]) -> tuple:
        """Residual of a vector after elimination by the stored rows."""
        self._check_length(vec)
        if self._gf2:
            return self._decode(self._reduce_mask(self._encode(vec)))
        return tuple(self._reduce_list(list(vec)))

    def contains_vector(self, vec: Sequence[Scalar]) -> bool:
        self._check_length(vec)
        if self._gf2:
            return self._reduce_mask(self._encode(vec)) == 0
        f = self.field
        return all(f.is_zero(c) for c in self._reduce_list(list(vec)))

    def contains_subspace(self, other: "SubspaceBasis") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(row) for row in other.rows())

    def rows(self) -> list:
        """The reduced row-echelon rows, as scalar tuples."""
        if self._gf2:
            return [self._decode(m) for m in self._rows]
        return [tuple(row) for row in self._rows]

    def pivots(self) -> tuple:
        return tuple(self._pivots)

    def _check_length(self, vec: Sequence[Scalar]):
        if len(vec) != self.ncols:
            raise ValueError(f"expected length {self.ncols}, got {len(vec)}")

    def _check_ambient(self, other: "SubspaceBasis"):
        if not isinstance(other, SubspaceBasis):
            raise TypeError("expected a SubspaceBasis")
        if other.field != self.field or other.ncols != self.ncols:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubspaceBasis):
            return NotImplemented
        self._check_ambient(other)
        return self.rows() == other.rows()

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, ncols={self.ncols}, field={self.field})"


def linear_dependencies(
    vectors: Sequence[Sequence[Scalar]], field: Field
) -> SubspaceBasis:
    """Kernel {c : sum_i c_i * vectors[i] = 0} as a subspace of F^len(vectors).

    Computed by reduced row echelon form of the transposed matrix followed
    by back-substitution on the free columns.
    """
    m = len(vectors)
    if m == 0:
        return SubspaceBasis.zero(field, 0)
    lengths = {len(v) for v in vectors}
    if len(lengths) != 1:
        raise ValueError("vectors must share a length")
    t = lengths.pop()
    f = field
    # Rows of the transposed system: one per coordinate of the vectors.
    echelon = SubspaceBasis(field, m)
    for j in range(t):
        echelon.insert([vectors[i][j] for i in range(m)])
    pivots = set(echelon.pivots())
    rows = echelon.rows()
    kernel = SubspaceBasis(field, m)
    for free in range(m):
        if free in pivots:
            continue
        vec = [f.zero] * m
        vec[free] = f.one
        for pivot, row in zip(echelon.pivots(), rows):
            vec[pivot] = f.neg(row[free])
        kernel.insert(vec)
    return kernel
