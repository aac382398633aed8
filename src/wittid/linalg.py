"""Exact row-echelon linear algebra over a :class:`~wittid.fields.Field`.

Subspaces of F^n are kept in semi-echelon form: each stored row is 1 at
its pivot, its first nonzero column. An insert reduces the vector by the
stored rows in pivot order and stores the rest at its pivot, without
touching the stored rows. The residue of a reduction is unique, so the
dimension, containment and :meth:`SubspaceBasis.reduce` do not depend on
which semi-echelon rows are stored. Reduced row echelon form, the
canonical one (two subspaces are equal iff their reduced rows coincide),
is made in place only when it is read: by :meth:`SubspaceBasis.rows`,
``==``, :meth:`SubspaceBasis.row_outside` and :func:`linear_dependencies`.

Rows are stored packed: over GF(2) as int bitmasks (bit j = column j),
over other fields as scalar lists with inline arithmetic, mod p over
GF(p); :func:`pack_bits` and :func:`unpack_bits` convert between a GF(2)
tuple and its mask. Each row form has one residue routine, which inserts,
reductions, containment and the canonical form share. ``insert``,
``reduce`` and ``contains_vector`` read a vector through one helper, so
over GF(2) each also takes a mask that fits in ``ncols`` bits, such as
the certified coordinate masks of :mod:`wittid.freealg`. Everything else
works on the packed rows; only ``rows``, ``reduce`` and ``row_outside``
give scalar tuples.

:func:`linear_dependencies` returns a :class:`Kernel`: the common kernel
of r functionals, kept as their r reduced rows and never written out
(for the identities of a u1 or w1 component, r <= 1). Its reduced rows
are made one at a time when they are read, and a
:class:`SubspaceBasis` reads them, as they are made, through its own
residue routine; the kernel's own containments are r dot products per
row.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import compress, islice
from operator import mul
from typing import Iterable, Iterator, Sequence

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


def _subtract(vec: list, c: Scalar, row: list, start: int, p: int) -> None:
    """``vec -= c * row`` in place, for a row that is zero before column
    ``start``: mod p over GF(p), exactly over the rationals (p = 0)."""
    tail = zip(islice(vec, start, None), islice(row, start, None))
    if p:
        vec[start:] = [(a - c * b) % p for a, b in tail]
    else:
        vec[start:] = [a - c * b for a, b in tail]


class _Subspace:
    """What a stored subspace of F^ncols and a :class:`Kernel` share: the
    field, the packed row form, and the reading of vectors into it."""

    __slots__ = ("field", "ncols", "_gf2", "_p")

    def _read(self, vec: Sequence[Scalar] | int):
        """A vector as a packed row of the caller's own: over GF(2) a mask,
        taken as it is if it comes as one that fits in ``ncols`` bits;
        elsewhere a list."""
        if self._gf2 and isinstance(vec, int):
            if vec < 0 or vec.bit_length() > self.ncols:
                raise ValueError(f"mask does not fit in {self.ncols} columns")
            return vec
        if len(vec) != self.ncols:
            raise ValueError(f"expected length {self.ncols}, got {len(vec)}")
        return pack_bits(vec) if self._gf2 else list(vec)

    def _unpack(self, row) -> tuple:
        return unpack_bits(row, self.ncols) if self._gf2 else tuple(row)

    def _check_ambient(self, other: "_Subspace"):
        if not isinstance(other, _Subspace):
            raise TypeError("expected a SubspaceBasis or a Kernel")
        if other.field != self.field or other.ncols != self.ncols:
            raise ValueError("subspaces live in different ambient spaces")

    # Each subclass gives its rows packed in two ways: ``_packed()``, any
    # rows that span it, and ``_rref()``, its reduced row echelon rows.

    def rows(self) -> list:
        """The reduced row-echelon rows, as scalar tuples."""
        return list(map(self._unpack, self._rref()))

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim}, ncols={self.ncols}, field={self.field})"


class SubspaceBasis(_Subspace):
    """Semi-echelon basis of a subspace of F^ncols, put in reduced row
    echelon form when that form is read."""

    __slots__ = ("_rows", "_pivots", "_pivot_mask", "_reduced")

    def __init__(self, field: Field, ncols: int):
        if ncols < 0:
            raise ValueError("ncols must be non-negative")
        self.field = field
        self.ncols = ncols
        self._gf2 = _is_gf2(field)
        # The modulus of the inline arithmetic; 0 over the rationals.
        self._p = field.p if field.kind == "prime" else 0
        # Sorted by pivot. GF(2): int masks, plus the mask of the pivot
        # columns; otherwise scalar lists. _reduced: whether the rows are
        # in reduced row echelon form.
        self._rows = []
        self._pivots = []
        self._pivot_mask = 0
        self._reduced = True

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

    # -- the residue routines: one per row form ------------------------------

    def _reduce_mask(self, mask: int, start: int = 0) -> int:
        """The residue of a GF(2) row mask modulo the rows from index
        ``start`` on."""
        # A row is zero below its pivot bit, so adding it clears that bit
        # and changes only higher ones: the lowest pivot bit left in the
        # mask picks the next row to add.
        rows, pivots, live = self._rows, self._pivots, self._pivot_mask
        if start:
            live &= -(1 << pivots[start])  # the pivots from row ``start`` on
        hits = mask & live
        while hits:
            mask ^= rows[bisect_left(pivots, (hits & -hits).bit_length() - 1, start)]
            hits = mask & live
        return mask

    def _reduce_list(self, vec: list, start: int = 0) -> list:
        """The residue of ``vec``, a list of the caller's own, modulo the
        rows from index ``start`` on, made in place; returns it."""
        p = self._p
        pairs = zip(self._pivots, self._rows)
        if start:
            pairs = islice(pairs, start, None)
        for pivot, row in pairs:
            c = vec[pivot]
            if c:
                _subtract(vec, c, row, pivot, p)
        return vec

    def _first_outside(self, rows: Iterable):
        """The first of some packed rows, which are left as they are, that
        the span misses; None when it contains them all."""
        if self._gf2:
            return next((row for row in rows if self._reduce_mask(row)), None)
        return next((row for row in rows if any(self._reduce_list(list(row)))), None)

    def _reduce_rows(self) -> None:
        """Put the stored rows in reduced row echelon form, in place."""
        if self._reduced:
            return
        rows = self._rows
        residue = self._reduce_mask if self._gf2 else self._reduce_list
        # From the highest pivot down: the rows after row i are reduced, so
        # the residue of row i modulo them is zero in every other pivot
        # column and keeps its own pivot.
        for i in range(len(rows) - 2, -1, -1):
            rows[i] = residue(rows[i], i + 1)
        self._reduced = True

    def _packed(self) -> list:
        return self._rows

    def _rref(self) -> list:
        self._reduce_rows()
        return self._rows

    # -- public interface ---------------------------------------------------

    def insert(self, vec: Sequence[Scalar] | int) -> bool:
        """Add a vector to the span; returns True if the rank grew. Its
        residue, normalised to 1 at its pivot, is stored at that pivot."""
        row = self._read(vec)
        if self._gf2:
            row = self._reduce_mask(row)
            if not row:
                return False
            low = row & -row
            pivot = low.bit_length() - 1
            self._pivot_mask |= low
        else:
            row = self._reduce_list(row)
            pivot = next((j for j, c in enumerate(row) if c), None)
            if pivot is None:
                return False
            scale, p = self.field.inv(row[pivot]), self._p
            row = [(scale * c) % p for c in row] if p else [scale * c for c in row]
        at = bisect_left(self._pivots, pivot)
        self._pivots.insert(at, pivot)
        self._rows.insert(at, row)
        self._reduced = False
        return True

    def images(self, packed_map: Sequence, ncols: int) -> list:
        """The packed images of the stored rows under a linear map from
        F^self.ncols to F^ncols; they span the image of the subspace,
        whichever echelon rows are stored. ``packed_map[j]`` is the image
        of column j: over GF(2) an int mask, elsewhere its nonzero
        ``(i, c)``."""
        if len(packed_map) != self.ncols:
            raise ValueError(f"expected a map on {self.ncols} columns, got {len(packed_map)}")
        if self._gf2:
            return [xor_selected(mask, packed_map) for mask in self._rows]
        p, zero = self._p, self.field.zero
        out = []
        for row in self._rows:
            image = [zero] * ncols
            for a, targets in zip(row, packed_map):
                if a:
                    for j, c in targets:
                        image[j] += a * c
            out.append([x % p for x in image] if p else image)
        return out

    def reduce(self, vec: Sequence[Scalar] | int) -> tuple:
        """The residue of a vector by the span, as a scalar tuple: the
        vector minus the one element of the span that agrees with it in
        every pivot column."""
        row = self._read(vec)
        return self._unpack(self._reduce_mask(row) if self._gf2 else self._reduce_list(row))

    def contains_vector(self, vec: Sequence[Scalar] | int) -> bool:
        return self._first_outside((self._read(vec),)) is None

    def contains_subspace(self, other: _Subspace) -> bool:
        """Whether the span contains ``other``, a subspace or a kernel."""
        self._check_ambient(other)
        return self._first_outside(other._packed()) is None

    def row_outside(self, other: _Subspace) -> tuple | None:
        """The first reduced row of ``other`` that the span misses, as a
        scalar tuple; None when the span contains ``other``. Only that row
        is unpacked."""
        self._check_ambient(other)
        row = self._first_outside(other._rref())
        return None if row is None else self._unpack(row)

    def __eq__(self, other) -> bool:
        """Equality of subspaces: the same pivot columns, which every
        echelon basis of a subspace shares, then the same reduced rows."""
        if not isinstance(other, SubspaceBasis):
            return NotImplemented
        self._check_ambient(other)
        if self._pivots != other._pivots:
            return False
        self._reduce_rows()
        other._reduce_rows()
        return self._rows == other._rows


class Kernel(_Subspace):
    """The common kernel of some functionals on F^ncols, kept as their
    reduced echelon rows, not as the kernel's rows.

    The stored row of pivot p is 1 at p, its last nonzero column, and zero
    at every other pivot. The reduced kernel rows are made one at a time,
    in pivot order, when they are read: the row of free column f is
    ``e_f - sum_p row_p[f] * e_p``. A vector lies in the kernel when its
    dot product with every stored row is zero."""

    __slots__ = ("_rows", "_pivots")

    def __init__(self, echelon: SubspaceBasis):
        """The kernel of the rows of ``echelon`` read in reverse: its
        column q is column ncols-1-q here."""
        self.field, self.ncols, self._gf2, self._p = (
            echelon.field, echelon.ncols, echelon._gf2, echelon._p
        )
        m = self.ncols
        rows = reversed(echelon._rref())
        self._pivots = [m - 1 - q for q in reversed(echelon._pivots)]
        if self._gf2:
            self._rows = [int(format(row, f"0{m}b")[::-1], 2) for row in rows]
        else:
            self._rows = [row[::-1] for row in rows]

    @property
    def dim(self) -> int:
        return self.ncols - len(self._rows)

    def is_zero(self) -> bool:
        return len(self._rows) == self.ncols

    def is_full(self) -> bool:
        return not self._rows

    def _rref(self) -> Iterator:
        """The reduced kernel rows, packed, in pivot order."""
        m, pivots, p = self.ncols, self._pivots, self._p
        free = sorted(set(range(m)).difference(pivots))
        if self._gf2:
            pairs = list(zip(pivots, self._rows))
            for f in free:
                vec = 1 << f
                for q, row in pairs:
                    vec |= (row >> f & 1) << q
                yield vec
            return
        # The stored rows negated, so that column f of each is its entry.
        pairs = [(q, [-c % p if p else -c for c in row]) for q, row in zip(pivots, self._rows)]
        zero, one = self.field.zero, self.field.one
        for f in free:
            vec = [zero] * m
            vec[f] = one
            for q, row in pairs:
                vec[q] = row[f]
            yield vec

    _packed = _rref

    def _inside(self, rows: Sequence) -> bool:
        """Whether some packed rows all have a zero dot product with every
        stored row, so lie in the kernel."""
        if self._gf2:
            return not any((row & r).bit_count() & 1 for r in self._rows for row in rows)
        p = self._p
        dots = (sum(map(mul, row, r)) for r in self._rows for row in rows)
        return not (any(d % p for d in dots) if p else any(dots))

    def contains_vector(self, vec: Sequence[Scalar] | int) -> bool:
        return self._inside((self._read(vec),))

    def contains_subspace(self, other: _Subspace) -> bool:
        """Whether the kernel contains ``other``: r dot products per row
        of ``other``, for the r stored rows."""
        self._check_ambient(other)
        return self._inside(list(other._packed()))

    def __eq__(self, other) -> bool:
        """Equality of subspaces: the same dimension, and containment."""
        if not isinstance(other, _Subspace):
            return NotImplemented
        self._check_ambient(other)
        return other.dim == self.dim and self.contains_subspace(other)


def linear_dependencies(vectors: Sequence[Sequence[Scalar]], field: Field) -> Kernel:
    """Kernel {c : sum_i c_i * vectors[i] = 0} as a subspace of F^len(vectors).

    One elimination, of the transposed system with its columns reversed,
    whose rows are then put in reduced form: the row of pivot p is zero at
    every other pivot and at every free column above p, so the kernel row
    ``e_f - sum_p row_p[f] * e_p`` of free column f is already reduced.
    The kernel keeps only those r <= len(vectors[0]) rows.
    """
    m = len(vectors)
    if len({len(v) for v in vectors}) > 1:
        raise ValueError("vectors must share a length")
    # One row per coordinate of the vectors; its column q is column m-1-q.
    echelon = SubspaceBasis(field, m)
    for column in zip(*vectors):
        echelon.insert(column[::-1])
    return Kernel(echelon)
