"""
Independence, minimality, and the absence of a finite basis
===========================================================

Each equal-parity bracket [x1^r, x2^s] admits a separating algebra: a
graded form of the strictly upper triangular 3x3 matrices that violates
exactly that bracket while satisfying all the others. Single-variable
members x^c get one-dimensional separating algebras. Since every member
can be separated from all the rest, no finite subset generates the whole
family; the demo prints the certificate table for the leading members.

For the polynomial case two bracket ranges are on the table: degrees
>= -1 ("wide") and degrees >= 0 ("tight"). The minimality sweep runs
both and records the probe components at degrees (-1, 1) and (-1, 3),
where the identity [x1^-1, x2^odd] holds (the bracket coefficient is
even) but the tight family has no instance to cover it.
"""

from wittid import (
    independence_check,
    minimality_sweep,
    no_finite_basis_demo,
    variable_independence_check,
)

print("Separation certificates (bound 6):")
for r, s in [(0, 2), (2, 2), (0, 0), (-1, 1)]:
    result = independence_check(r, s, bound=6)
    merged = " (merged grading)" if result["collision_merged"] else ""
    print(
        f"  [x1^{r}, x2^{s}]: violated by ut3:{r}:{s}{merged}, "
        f"{result['checked_pairs']} other members all satisfied: {result['ok']}"
    )
for d in (-2, -5):
    result = variable_independence_check(d, bound=6)
    print(
        f"  x1^{d}: violated by onedim:{d}, brackets and other singles "
        f"satisfied: {result['ok']}"
    )

print("\nSeparation table for the first 10 members:")
demo = no_finite_basis_demo(10)
for row in demo["rows"]:
    print(
        f"  {row['member']:16} model {row['model']:10} "
        f"fails own: {row['fails_member']}, satisfies rest: {row['satisfies_rest']}"
    )
print(f"table valid: {demo['ok']} -> no finite subset of the family suffices")

print("\nPolynomial-case probe components under both bracket ranges:")
report = minimality_sweep("w1", member_bound=2, separation_bound=6, nmax=2, dmax=2)
for variant in ("wide", "tight"):
    for probe in report["probes"][variant]:
        witness = probe.get("witness")
        extra = f", witness {witness!r}" if witness else ""
        print(
            f"  {variant:5} degrees {tuple(probe['degrees'])}: identity dim "
            f"{probe['dimIdentity']}, consequence dim {probe['dimConsequence']}{extra}"
        )
