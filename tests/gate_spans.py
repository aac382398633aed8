"""Gate for the consequence-span recursion against the instance enumeration.

For every canonical degree tuple with n <= 5 and degrees in [-4, 4],
under the u1, w1-wide and w1-tight families, over GF(2) and GF(3)
(12,006 components), compares ``tideal.consequence_subspace`` with the
span of ``tideal.consequence_instances``, once computed fresh and once
through one ``tideal.SpanMemo`` shared per (field, family) in sweep order,
under the memory bound of a sweep to n = 5. Prints the mismatches, their
count and the time taken. Exits 1 on any mismatch. Not collected by
pytest (the file name does not start with ``test_``); the suite runs a
smaller sample of the same comparison, and ``test_gates.py`` runs
:func:`component_mismatches` on a few components.

    python3 tests/gate_spans.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from conftest import instance_span  # noqa: E402
from wittid.fields import Field  # noqa: E402
from wittid.freealg import MultilinearSpace  # noqa: E402
from wittid.tideal import SpanMemo, consequence_subspace, u1_family, w1_family  # noqa: E402
from wittid.verify import canonical_degree_tuples  # noqa: E402

NMAX, DMAX = 5, 4


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


def main() -> int:
    families = {
        "u1": u1_family(), "w1-wide": w1_family("wide"), "w1-tight": w1_family("tight"),
    }
    start = time.perf_counter()
    components = mismatches = 0
    for field in (Field.gf(2), Field.gf(3)):
        for name, family in families.items():
            memo = SpanMemo(family, field, largest=NMAX)
            for n in range(1, NMAX + 1):
                for degrees in canonical_degree_tuples(n, DMAX):
                    components += 1
                    for label in component_mismatches(family, degrees, field, memo):
                        mismatches += 1
                        print(f"{label}: {name} {field} {degrees}")
    elapsed = time.perf_counter() - start
    print(f"{mismatches} mismatches over {components} components in {elapsed:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
