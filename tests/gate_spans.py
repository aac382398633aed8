"""Gate for the consequence-span recursion against the instance enumeration.

Two parts, under the u1, w1-wide and w1-tight families, over GF(2) and
GF(3):

* ``n <= 5``: every canonical degree tuple with n <= 5 and degrees in
  [-4, 4] (12,006 components). Compares ``tideal.consequence_subspace``
  with the span of ``tideal.consequence_instances``, once computed fresh
  and once through one ``tideal.SpanMemo`` shared per (field, family) in
  sweep order, under the memory bound of a sweep to n = 5.
* ``n = 6, 7 sample``: per field, a seeded sample of ``N6_SAMPLE``
  canonical n = 6 tuples with degrees in [-4, 4] and as many with exactly
  one odd degree, whose u1 spans do not fill, and the same of
  ``N7_SAMPLE`` n = 7 tuples. Compares the reduced rows of the consequence span with
  ``conftest.oracle_span_rows``, a from-scratch elimination of the
  instance coordinates that does not use ``linalg.SubspaceBasis``, so a
  fault in the elimination that every span and verdict goes through
  cannot vouch for itself here.

Prints the mismatches, each part's count and the time taken. Exits 1 on
any mismatch. Not collected by pytest (the file name does not start with
``test_``); the suite runs a smaller sample of the same comparison, and
``test_gates.py`` runs :func:`component_mismatches` on a few components
and :func:`frontier_mismatch` on one n = 6 component of the sample.

    python3 tests/gate_spans.py
"""

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import instance_span, oracle_span_rows  # noqa: E402
from wittid.fields import Field  # noqa: E402
from wittid.freealg import MultilinearSpace  # noqa: E402
from wittid.tideal import (  # noqa: E402
    SpanMemo, consequence_instances, consequence_subspace, u1_family, w1_family,
)
from wittid.verify import canonical_degree_tuples  # noqa: E402

NMAX, DMAX = 5, 4
N6_SAMPLE, N7_SAMPLE, SEED = 8, 3, 19
FIELDS = (Field.gf(2), Field.gf(3))
FAMILIES = {"u1": u1_family(), "w1-wide": w1_family("wide"), "w1-tight": w1_family("tight")}


def component_mismatches(family, degrees, field, memo) -> list:
    """How the consequence span of the component, computed fresh and
    through ``memo``, differs from the span of its instances: one label
    per computation that differs."""
    space = MultilinearSpace.for_degrees(degrees, field)
    want = instance_span(family, space)
    labels = []
    if consequence_subspace(family, space) != want:
        labels.append("mismatch")
    if consequence_subspace(family, space, memo=memo) != want:
        labels.append("mismatch with a shared memo")
    return labels


def frontier_sample():
    """``(field, name, degrees)`` of the seeded n = 6 and n = 7 sample, in order."""
    rng = random.Random(SEED)
    for field in FIELDS:
        sample = []
        for n, size in ((6, N6_SAMPLE), (7, N7_SAMPLE)):
            tuples = list(canonical_degree_tuples(n, DMAX))
            one_odd = [d for d in tuples if sum(x % 2 for x in d) == 1]
            sample += rng.sample(tuples, size) + rng.sample(one_odd, size)
        for name in FAMILIES:
            for degrees in sample:
                yield field, name, degrees


def frontier_mismatch(family, degrees, field) -> bool:
    """Whether the reduced rows of the consequence span of the component
    differ from the from-scratch elimination of its instance coordinates."""
    space = MultilinearSpace.for_degrees(degrees, field)
    coordinates = (space.coordinates(tree) for tree in consequence_instances(family, space))
    want = oracle_span_rows(coordinates, space.dim, field)
    return consequence_subspace(family, space).rows() != want


def main() -> int:
    start = time.perf_counter()
    counts = {}  # part -> [components, mismatches]
    part = counts.setdefault("n <= 5", [0, 0])
    for field in FIELDS:
        for name, family in FAMILIES.items():
            memo = SpanMemo(family, field, largest=NMAX)
            for n in range(1, NMAX + 1):
                for degrees in canonical_degree_tuples(n, DMAX):
                    part[0] += 1
                    for label in component_mismatches(family, degrees, field, memo):
                        part[1] += 1
                        print(f"{label}: {name} {field} {degrees}")
    part = counts.setdefault("n = 6, 7 sample", [0, 0])
    for field, name, degrees in frontier_sample():
        part[0] += 1
        if frontier_mismatch(FAMILIES[name], degrees, field):
            part[1] += 1
            print(f"mismatch with the oracle elimination: {name} {field} {degrees}")
    elapsed = time.perf_counter() - start
    for label, (seen, bad) in counts.items():
        print(f"{label}: {bad} mismatches over {seen} components")
    mismatches = sum(bad for _, bad in counts.values())
    total = sum(seen for seen, _ in counts.values())
    print(f"{mismatches} mismatches over {total} components in {elapsed:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
