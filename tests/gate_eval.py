"""Gate for the identity subspace against the evaluation oracle.

For every canonical degree tuple with n <= 5 and degrees in [-3, 3],
compares ``tideal.identity_subspace`` with the kernel of the values that
``conftest.oracle_rows`` computes without ``GradedModel.bracket``
(closed forms for u1/w1, matrix commutators for ut3). Models: u1 and w1,
and ut3:r:s for every valid r <= s in [-2, 2], each over GF(2) and
GF(3). Prints the mismatches, their count and the time taken, and exits
1 on any mismatch. Not collected by pytest (the file name does not start
with ``test_``); ``test_models.py::test_evaluation_matches_oracle`` runs
a random sample of the same comparison.

    python3 tests/gate_eval.py
"""

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


def main() -> int:
    specs = ["u1", "w1"] + [
        f"ut3:{r}:{s}"
        for r in UT3_RANGE
        for s in UT3_RANGE
        if r <= s and (r - s) % 2 == 0
    ]
    start = time.perf_counter()
    components = mismatches = 0
    for field in (Field.gf(2), Field.gf(3)):
        for spec in specs:
            model = parse_model(spec, field)
            for n in range(1, NMAX + 1):
                for degrees in canonical_degree_tuples(n, DMAX):
                    space = MultilinearSpace.for_degrees(degrees, field)
                    rows = oracle_rows(model, space.variables, space.basis)
                    oracle = SubspaceBasis.from_vectors(
                        field, space.dim, oracle_kernel(rows, field)
                    )
                    components += 1
                    if identity_subspace(model, space) != oracle:
                        mismatches += 1
                        print(f"mismatch: {spec} {field} {degrees}")
    elapsed = time.perf_counter() - start
    print(f"{mismatches} mismatches over {components} components in {elapsed:.1f} s")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
