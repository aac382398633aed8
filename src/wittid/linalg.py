"""Exact row-echelon linear algebra over a :class:`~wittid.fields.Field`.

Subspaces of F^n are kept in reduced row echelon form, which is a
canonical representation: two subspaces are equal iff their stored rows
coincide. Rows are stored packed: over GF(2) as int bitmasks (bit j =
column j), over other fields as scalar lists; :func:`pack_bits` and
:func:`unpack_bits` convert between a GF(2) tuple and its mask.
:meth:`SubspaceBasis.insert` also takes masks, such as the certified
coordinate masks of :mod:`wittid.freealg`. Spans, images, kernels,
containment and equality work on the packed rows; only
:meth:`SubspaceBasis.rows`, :meth:`SubspaceBasis.reduce` and
:meth:`SubspaceBasis.contains_vector` take or give scalar tuples.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import compress
from typing import Iterable, Sequence

from .fields import Field, Scalar


def _is_gf2(field: Field) -> bool:
    return field.kind == "prime" and field.p == 2


@lru_cache(maxsize=64)
def _bits(ncols: int) -> tuple:
    """``1 << j`` for every column j: summing the ones a GF(2) vector
    selects packs it, in C."""
    return tuple(1 << j for j in range(ncols))


def pack_bits(vec: Sequence[Scalar]) -> int:
    """A GF(2) vector as an int mask, bit j = column j."""
    return sum(compress(_bits(len(vec)), vec))


# "0"/"1" -> byte 0/1, so a binary string unpacks in C.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def unpack_bits(mask: int, width: int) -> tuple:
    """Bits 0..width-1 of a mask as a GF(2) scalar tuple, bit j = entry j."""
    if not width:
        return ()  # format(0, "00b") is "0", one digit too many
    return tuple(format(mask, f"0{width}b")[::-1].encode().translate(_BIT_BYTES))


def xor_selected(mask: int, table: Sequence[int]) -> int:
    """XOR of ``table[j]`` over the set bits j of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= table[low.bit_length() - 1]
        mask ^= low
    return out


class SubspaceBasis:
    """Row-echelon basis of a subspace of F^ncols."""

    __slots__ = ("field", "ncols", "_gf2", "_rows", "_pivots", "_pivot_mask")

    def __init__(self, field: Field, ncols: int):
        if ncols < 0:
            raise ValueError("ncols must be non-negative")
        self.field = field
        self.ncols = ncols
        self._gf2 = _is_gf2(field)
        # Sorted by pivot. GF(2): int masks, plus the mask of the pivot
        # columns; otherwise scalar lists.
        self._rows = []
        self._pivots = []
        self._pivot_mask = 0

    @classmethod
    def zero(cls, field: Field, ncols: int) -> "SubspaceBasis":
        return cls(field, ncols)

    @classmethod
    def full(cls, field: Field, ncols: int) -> "SubspaceBasis":
        basis = cls(field, ncols)
        basis._pivots = list(range(ncols))
        if basis._gf2:
            basis._rows = list(_bits(ncols))
            basis._pivot_mask = (1 << ncols) - 1
        else:
            one, zero = field.one, field.zero
            basis._rows = [[one if i == j else zero for i in range(ncols)] for j in range(ncols)]
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

    def _reduce_mask(self, mask: int) -> int:
        # In reduced echelon form a row is zero in every other pivot
        # column, so the pivot bits of the input pick the rows to add.
        hits = mask & self._pivot_mask
        while hits:
            low = hits & -hits
            mask ^= self._rows[bisect_left(self._pivots, low.bit_length() - 1)]
            hits ^= low
        return mask

    def _insert_mask(self, mask: int) -> bool:
        mask = self._reduce_mask(mask)
        if mask == 0:
            return False
        low = mask & -mask
        pivot = low.bit_length() - 1
        at = bisect_left(self._pivots, pivot)
        rows = self._rows
        # Only rows with a smaller pivot can have a one in this column.
        for i in range(at):
            if rows[i] & low:
                rows[i] ^= mask
        self._pivots.insert(at, pivot)
        rows.insert(at, mask)
        self._pivot_mask |= low
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
        at = bisect_left(self._pivots, pivot)
        self._pivots.insert(at, pivot)
        self._rows.insert(at, vec)
        return True

    # -- public interface ---------------------------------------------------

    def insert(self, vec: Sequence[Scalar] | int) -> bool:
        """Add a vector to the span; returns True if the rank grew.

        Over GF(2) the vector may come packed, as an int mask (bit j =
        column j) that fits in ``ncols`` bits."""
        if self._gf2:
            if isinstance(vec, int):
                if vec < 0 or vec.bit_length() > self.ncols:
                    raise ValueError(f"mask does not fit in {self.ncols} columns")
                return self._insert_mask(vec)
            self._check_length(vec)
            return self._insert_mask(pack_bits(vec))
        self._check_length(vec)
        return self._insert_list(list(vec))

    def images(self, packed_map: Sequence, ncols: int) -> list:
        """The packed images of the stored rows under a linear map from
        F^self.ncols to F^ncols. ``packed_map[j]`` is the image of column
        j: over GF(2) an int mask, elsewhere its nonzero ``(i, c)``."""
        if len(packed_map) != self.ncols:
            raise ValueError(f"expected a map on {self.ncols} columns, got {len(packed_map)}")
        if self._gf2:
            return [xor_selected(mask, packed_map) for mask in self._rows]
        f = self.field
        out = []
        for row in self._rows:
            image = [f.zero] * ncols
            for a, targets in zip(row, packed_map):
                if not f.is_zero(a):
                    for j, c in targets:
                        image[j] = f.add(image[j], f.mul(a, c))
            out.append(image)
        return out

    def reduce(self, vec: Sequence[Scalar]) -> tuple:
        """Residual of a vector after elimination by the stored rows."""
        self._check_length(vec)
        if self._gf2:
            return unpack_bits(self._reduce_mask(pack_bits(vec)), self.ncols)
        return tuple(self._reduce_list(list(vec)))

    def contains_vector(self, vec: Sequence[Scalar]) -> bool:
        self._check_length(vec)
        if self._gf2:
            return self._reduce_mask(pack_bits(vec)) == 0
        f = self.field
        return all(f.is_zero(c) for c in self._reduce_list(list(vec)))

    def contains_subspace(self, other: "SubspaceBasis") -> bool:
        self._check_ambient(other)
        if self._gf2:
            return not any(self._reduce_mask(row) for row in other._rows)
        f = self.field
        return all(
            f.is_zero(c) for row in other._rows for c in self._reduce_list(row)
        )

    def rows(self) -> list:
        """The reduced row-echelon rows, as scalar tuples."""
        if self._gf2:
            return [unpack_bits(m, self.ncols) for m in self._rows]
        return [tuple(row) for row in self._rows]

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
        return self._rows == other._rows

    def __repr__(self):
        return f"SubspaceBasis(dim={self.dim}, ncols={self.ncols}, field={self.field})"


def linear_dependencies(
    vectors: Sequence[Sequence[Scalar]], field: Field
) -> SubspaceBasis:
    """Kernel {c : sum_i c_i * vectors[i] = 0} as a subspace of F^len(vectors).

    One elimination, of the transposed system with its columns reversed: the
    row of pivot p is then zero at every free column above p, so the kernel
    row ``e_f - sum_p row_p[f] * e_p`` of free column f is already reduced.
    """
    m = len(vectors)
    if len({len(v) for v in vectors}) > 1:
        raise ValueError("vectors must share a length")
    # One row per coordinate of the vectors; its column q is column m-1-q.
    echelon = SubspaceBasis(field, m)
    for column in zip(*vectors):
        echelon.insert(column[::-1])
    pivot_rows = [(m - 1 - q, row) for q, row in zip(echelon._pivots, echelon._rows)]
    kernel = SubspaceBasis(field, m)
    kernel._pivots = sorted(set(range(m)).difference(p for p, _ in pivot_rows))
    for free in kernel._pivots:
        q = m - 1 - free
        if kernel._gf2:
            vec = 1 << free
            for pivot, row in pivot_rows:
                vec |= ((row >> q) & 1) << pivot
            kernel._pivot_mask |= 1 << free
        else:
            vec = [field.zero] * m
            vec[free] = field.one
            for pivot, row in pivot_rows:
                vec[pivot] = field.neg(row[q])
        kernel._rows.append(vec)
    return kernel
