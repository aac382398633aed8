"""Gate for the identity subspace against the evaluation oracle.

Compares ``tideal.identity_subspace`` with the kernel of the values that
``conftest.oracle_rows`` computes without the models' brackets
(closed forms for u1/w1, matrix commutators for ut3), over GF(2) and
GF(3), on four parts:

* ``n <= 5``: every canonical degree tuple with n <= 5 and degrees in
  [-3, 3], for u1 and w1, and ut3:r:s for every valid r <= s in [-2, 2];
* ``n = 6``: every canonical n = 6 tuple with degrees in [-3, 3], for u1
  and w1;
* ``n = 7 sample``: a seeded sample of ``N7_SAMPLE`` canonical n = 7
  tuples with degrees in [-3, 3] per field, for u1 and w1;
* ``n = 8 sample``: a seeded sample of ``N8_SAMPLE`` canonical n = 8
  tuples with degrees in [-3, 3] per field, for u1 and w1. Their
  components are one-dimensional, so the oracle rows have at most one
  column, a functional; :func:`functional_mismatch` checks the identity
  subspace against its kernel without building that kernel.

Prints the mismatches, each part's count and the time taken, and exits
1 on any mismatch. Not collected by pytest (the file name does not start
with ``test_``); ``test_models.py::test_evaluation_matches_oracle`` runs
a random sample of the same comparison, and ``test_gates.py`` runs
:func:`component_mismatch` on a few components.

    python3 tests/gate_eval.py
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import oracle_kernel, oracle_rows  # noqa: E402
from wittid.fields import Field  # noqa: E402
from wittid.freealg import MultilinearSpace  # noqa: E402
from wittid.linalg import SubspaceBasis  # noqa: E402
from wittid.models import parse_model  # noqa: E402
from wittid.tideal import identity_subspace  # noqa: E402
from wittid.verify import canonical_degree_tuples  # noqa: E402

NMAX, DMAX = 5, 3
UT3_RANGE = range(-2, 3)
N7_SAMPLE, SEED = 50, 16
N8_SAMPLE = 6
FIELDS = (Field.gf(2), Field.gf(3))
WITT = ("u1", "w1")


def component_mismatch(model, degrees) -> bool:
    """Whether the identity subspace of the component differs from the
    kernel of its oracle rows."""
    field = model.field
    space = MultilinearSpace.for_degrees(degrees, field)
    rows = oracle_rows(model, space.variables, space.basis)
    oracle = SubspaceBasis.from_vectors(field, space.dim, oracle_kernel(rows, field))
    return identity_subspace(model, space) != oracle


def functional_mismatch(model, degrees) -> bool:
    """For a model whose components are one-dimensional (u1, w1): whether
    the identity subspace differs from the kernel of the functional that
    the oracle rows give. It does not when its reduced rows have distinct
    first nonzero columns (so they are independent), each is orthogonal to
    the functional, and there are dimP minus the functional's rank of them.
    The rows are read packed, one at a time as the subspace gives them, so
    no n = 8 row is unpacked and no n = 8 kernel is held whole."""
    field = model.field
    space = MultilinearSpace.for_degrees(degrees, field)
    columns = list(zip(*oracle_rows(model, space.variables, space.basis)))
    assert len(columns) <= 1, "a component of dimension above one"
    functional = columns[0] if columns else ()
    support = [j for j, c in enumerate(functional) if c]
    ident = identity_subspace(model, space)
    p = field.characteristic
    mask = sum(1 << j for j in support)
    pivots, count, dots = set(), 0, 0
    for row in ident._rref():
        count += 1
        if ident._gf2:
            pivots.add((row & -row).bit_length() - 1)
            dot = (row & mask).bit_count()
        else:
            pivots.add(next(j for j, c in enumerate(row) if c))
            dot = sum(row[j] * functional[j] for j in support)
        dots += bool(dot % p if p else dot)
    return count != space.dim - len(columns) or len(pivots) < count or dots > 0


def components():
    """``(part, field, spec, degrees)`` of every compared component, in order."""
    specs = list(WITT) + [
        f"ut3:{r}:{s}"
        for r in UT3_RANGE
        for s in UT3_RANGE
        if r <= s and (r - s) % 2 == 0
    ]
    for field in FIELDS:
        for spec in specs:
            for n in range(1, NMAX + 1):
                for degrees in canonical_degree_tuples(n, DMAX):
                    yield "n <= 5", field, spec, degrees
    for field in FIELDS:
        for spec in WITT:
            for degrees in canonical_degree_tuples(6, DMAX):
                yield "n = 6", field, spec, degrees
    rng = random.Random(SEED)
    for field in FIELDS:
        sample = rng.sample(list(canonical_degree_tuples(7, DMAX)), N7_SAMPLE)
        for spec in WITT:
            for degrees in sample:
                yield "n = 7 sample", field, spec, degrees
    for field in FIELDS:
        sample = rng.sample(list(canonical_degree_tuples(8, DMAX)), N8_SAMPLE)
        for spec in WITT:
            for degrees in sample:
                yield "n = 8 sample", field, spec, degrees


def main() -> int:
    start = time.perf_counter()
    counts = {}  # part -> [components, mismatches]
    for part, field, spec, degrees in components():
        count = counts.setdefault(part, [0, 0])
        count[0] += 1
        compare = functional_mismatch if part == "n = 8 sample" else component_mismatch
        if compare(parse_model(spec, field), degrees):
            count[1] += 1
            print(f"mismatch: {spec} {field} {degrees}")
    elapsed = time.perf_counter() - start
    for part, (seen, bad) in counts.items():
        print(f"{part}: {bad} mismatches over {seen} components")
    mismatches = sum(bad for _, bad in counts.values())
    total = sum(seen for seen, _ in counts.values())
    print(f"{mismatches} mismatches over {total} components in {elapsed:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
