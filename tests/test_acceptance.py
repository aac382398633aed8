"""Acceptance sweep: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy criteria
(full sweeps at n <= 5 and the exhaustive monomial ranges at n <= 6) run
in well under the stated budgets on a laptop.
"""

import itertools
import random
from math import factorial

from wittid.fields import Field
from wittid.freealg import (
    LiePoly,
    MultilinearSpace,
    Var,
    expand_to_associative,
    leftnormed_basis,
    leftnormed_coordinates,
)
from wittid.grammar import parse_polynomial
from wittid.linalg import SubspaceBasis
from wittid.models import ModelElement, evaluate, satisfies_multilinear, u1_model, w1_model
from wittid.tideal import (
    consequence_subspace,
    monomial_is_identity,
    monomial_normal_form,
    u1_family,
)
from wittid.verify import (
    SweepConfig,
    independence_check,
    minimality_sweep,
    no_finite_basis_demo,
    revalidate_entry,
    variable_independence_check,
    verify_basis_theorem,
)

from conftest import random_multilinear_tree

GF2 = Field.gf(2)
GF3 = Field.gf(3)


def report(n, detail):
    print(f"[criterion {n}] PASS — {detail}")


def test_criterion_1_structure_constants():
    """Bracket of basis vectors is (j - i) e_{i+j}, exhaustively in a window."""
    checked = 0
    for field in (GF2, GF3):
        model = u1_model(field)
        for i in range(-10, 11):
            for j in range(-10, 11):
                value = model.bracket(model.basis_element(i), model.basis_element(j))
                coeff = field.from_int(j - i)
                expected = (
                    ModelElement.zero(field)
                    if field.is_zero(coeff)
                    else ModelElement(field, {(i + j, 0): coeff})
                )
                assert value == expected, (i, j, field)
                checked += 1
    report(1, f"{checked} basis brackets over gf2 and gf3 match exactly")


def test_criterion_2_monomial_criterion_equals_evaluation():
    """Parity rule agrees with the evaluation oracle, exhaustively."""
    models = [u1_model(GF2), w1_model(GF2)]
    checked = 0
    for n in range(1, 7):
        for degrees in itertools.product(range(-3, 4), repeat=n):
            variables = tuple(Var(i + 1, d) for i, d in enumerate(degrees))
            poly = LiePoly.monomial(GF2, variables)
            for model in models:
                assert monomial_is_identity(variables, model) == satisfies_multilinear(
                    model, poly
                ), (degrees, model.name)
                checked += 1
    report(2, f"{checked} monomial verdicts agree on u1 and w1")


def test_criterion_3_u1_basis_theorem_desk_scale():
    """Identity subspace equals consequence subspace on every component."""
    config = SweepConfig(model="u1", nmax=5, dmax=4, field="gf2")
    result = verify_basis_theorem(config)
    assert result.passed, result.summary
    assert result.summary["failed"] == 0 and result.summary["skipped"] == 0
    witnesses = [e for e in result.spaces if "witness" in e]
    assert not witnesses
    report(
        3,
        f"u1 family: {result.summary['passed']} components equal "
        f"in {result.timings['total_s']}s",
    )


def test_criterion_4_w1_basis_theorem_desk_scale():
    """Same sweep for the polynomial case with the wide family."""
    config = SweepConfig(model="w1", family_range="wide", nmax=5, dmax=4, field="gf2")
    result = verify_basis_theorem(config)
    assert result.passed, result.summary
    entry = result.entry_for([-1, -1])
    assert entry["sound"] and entry["complete"] and entry["dimIdentity"] == 1
    report(
        4,
        f"w1 family: {result.summary['passed']} components equal "
        f"(including degrees (-1, -1)) in {result.timings['total_s']}s",
    )


def test_criterion_5_independence_and_no_finite_basis():
    """Separation certificates for every member in the window."""
    pairs = 0
    for r in range(-6, 7):
        for s in range(r, 7):
            if (r - s) % 2 != 0:
                continue
            result = independence_check(r, s, bound=6)
            assert result["ok"], (r, s, result["violations"])
            pairs += 1
    singles = 0
    for d in range(-6, -1):
        result = variable_independence_check(d, bound=6)
        assert result["ok"], (d, result["violations"])
        singles += 1
    demo = no_finite_basis_demo(15)
    assert demo["ok"] and len(demo["rows"]) == 15
    report(
        5,
        f"{pairs} bracket separations, {singles} single-variable separations, "
        "15-row separation table all valid",
    )


def test_criterion_6_basis_integrity():
    """Left-normed basis size, full rank, and exact coordinate round-trips."""
    rng = random.Random(2024)
    trees_checked = 0
    for n in range(1, 6):
        degrees = [(-1) ** i * ((i % 3) + 1) for i in range(n)]
        space = MultilinearSpace.for_degrees(degrees, GF2)
        basis = leftnormed_basis(space)
        assert len(basis) == factorial(n - 1)
        words = {w: j for j, w in enumerate(itertools.permutations(space.variables))}
        span = SubspaceBasis.zero(GF2, len(words))
        for mono_ in basis:
            exp = expand_to_associative(mono_, GF2)
            vec = [0] * len(words)
            for w, c in exp.terms.items():
                vec[words[w]] = c
            assert span.insert(vec)
        assert span.dim == factorial(n - 1)
        for _ in range(200):
            tree = random_multilinear_tree(rng, space.variables)
            coords = leftnormed_coordinates(tree, space)
            rebuilt = space.poly_from_coords(coords)
            assert rebuilt.expand() == expand_to_associative(tree, GF2)
            trees_checked += 1
    report(6, f"ranks full for n <= 5; {trees_checked} random trees round-trip exactly")


def test_criterion_7_normal_form_congruence():
    """Normal forms are congruent modulo the consequence span, idempotent,
    and identities map to zero, over the criterion-2 range."""
    u1 = u1_model(GF2)
    odd_values = [-3, -1, 1, 3]
    even_values = [-2, 0, 2]
    identities_zeroed = 0
    reduced = 0
    for n in range(1, 7):
        # identities map to zero: any two odd degrees force it
        for degrees in itertools.product(range(-3, 4), repeat=min(n, 3)):
            variables = tuple(Var(i + 1, d) for i, d in enumerate(degrees))
            if monomial_is_identity(variables, u1):
                assert monomial_normal_form(variables) is None
                identities_zeroed += 1
        # every non-identity monomial lives in a component whose degree
        # multiset has exactly one odd entry
        for odd in odd_values:
            for evens in itertools.combinations_with_replacement(even_values, n - 1):
                multiset = sorted((odd,) + evens)
                space = MultilinearSpace.for_degrees(multiset, GF2)
                cons = consequence_subspace(u1_family(), space)
                substitution = {
                    x: u1.basis_element(x.degree) for x in space.variables
                }
                for perm in itertools.permutations(space.variables):
                    if monomial_is_identity(perm, u1):
                        assert monomial_normal_form(perm) is None
                        continue
                    normal = monomial_normal_form(perm)
                    assert normal is not None
                    assert monomial_normal_form(normal) == normal
                    diff = LiePoly.monomial(GF2, perm) + LiePoly.monomial(GF2, normal)
                    if diff.terms:
                        assert cons.contains_vector(space.coordinates(diff))
                    assert evaluate(LiePoly.monomial(GF2, perm), substitution, u1) == evaluate(
                        LiePoly.monomial(GF2, normal), substitution, u1
                    )
                    reduced += 1
    report(
        7,
        f"{reduced} non-identity monomials reduced and certified, "
        f"{identities_zeroed} identities map to zero",
    )


def test_criterion_8_characteristic_contrast_detects_failure():
    """Over gf3 the characteristic-two family is not even sound."""
    config = SweepConfig(model="u1", nmax=2, dmax=3, field="gf3")
    result = verify_basis_theorem(config)
    assert not result.passed
    entry = result.entry_for([1, 3])
    assert entry is not None and entry["sound"] is False
    witness = parse_polynomial(entry["witness"], GF3)
    assert witness == LiePoly.monomial(GF3, (Var(1, 1), Var(2, 3)))
    assert revalidate_entry(entry, result.config)
    report(
        8,
        "gf3 sweep reports the soundness failure at degrees (1, 3) "
        f"with witness {entry['witness']!r}",
    )


def test_criterion_9_minimality_probe_components():
    """Both bracket ranges are swept and the probe components recorded."""
    result = minimality_sweep(
        "w1", member_bound=2, separation_bound=6, nmax=2, dmax=2
    )
    details = []
    for variant in ("wide", "tight"):
        probes = result["probes"][variant]
        assert [p["degrees"] for p in probes] == [[-1, 1], [-1, 3]]
        for probe in probes:
            assert probe["dimIdentity"] is not None
            assert probe["dimConsequence"] is not None
            if not probe["complete"]:
                assert "witness" in probe
                assert revalidate_entry(probe, result["sweeps"][variant]["config"])
            details.append(
                f"{variant}{tuple(probe['degrees'])}: "
                f"id {probe['dimIdentity']}/cons {probe['dimConsequence']}"
            )
    report(9, "; ".join(details))
