import itertools
import random
import time

import pytest

from conftest import all_multilinear_trees, instance_span, substitute_leaf
from wittid.fields import Field
from wittid.freealg import LiePoly, MultilinearSpace, Pair, Var, zdegree
from wittid.linalg import SubspaceBasis
from wittid.models import WittModel, evaluate, satisfies_multilinear, u1_model, w1_model
from wittid.tideal import (
    BasisFamily,
    BudgetExceeded,
    SpanMemo,
    _bracket_splits,
    consequence_instances,
    consequence_subspace,
    family_for,
    identity_subspace,
    monomial_is_identity,
    monomial_normal_form,
    subspace_contains,
    subspace_equal,
    u1_family,
    w1_family,
)
from wittid.verify import canonical_degree_tuples, sweep_tuples

GF2 = Field.gf(2)


def v(i, d):
    return Var(i, d)


def mono(*pairs):
    return tuple(Var(i, d) for i, d in pairs)


# -- families -----------------------------------------------------------------


def test_family_membership():
    fam = u1_family()
    assert fam.contains_bracket(2, 4)
    assert fam.contains_bracket(-3, 1)
    assert not fam.contains_bracket(1, 2)
    assert not fam.contains_single(-2)

    wide = w1_family("wide")
    assert wide.contains_bracket(-1, 1)
    assert not wide.contains_bracket(-3, 1)
    assert wide.contains_single(-2)
    assert not wide.contains_single(-1)

    tight = w1_family("tight")
    assert not tight.contains_bracket(-1, 1)
    assert tight.contains_bracket(0, 2)
    assert tight.contains_single(-5)


def test_family_validation():
    with pytest.raises(ValueError):
        BasisFamily("u1", -1)
    with pytest.raises(ValueError):
        BasisFamily("w1", None)
    with pytest.raises(ValueError):
        BasisFamily("sl2")
    with pytest.raises(ValueError):
        w1_family("narrow")
    assert w1_family("thm12").bracket_lower_bound == -1
    assert w1_family("thm45").bracket_lower_bound == 0


@pytest.mark.parametrize(
    "family, bound",
    [(family_for("u1"), 3), (family_for("w1", "wide"), 3), (family_for("w1", "tight"), 4)],
)
def test_family_brackets_match_brute_force(family, bound):
    low = {None: -bound, -1: -1, 0: 0}[family.bracket_lower_bound]
    want = [
        (a, b)
        for a in range(-bound, bound + 1)
        for b in range(-bound, bound + 1)
        if a <= b and (a - b) % 2 == 0 and a >= low
    ]
    assert family.brackets(bound) == want
    assert family.brackets(-1) == []
    assert [family.bracket_count(b) for b in range(-2, 12)] == [
        len(family.brackets(b)) for b in range(-2, 12)
    ]


def test_family_for_is_the_model_and_range_map():
    assert family_for("u1") == family_for("u1", "tight") == u1_family()
    assert family_for("w1") == family_for("w1", "thm12") == w1_family("wide")
    assert family_for("w1", "tight") == family_for("w1", "thm45") == w1_family("tight")
    for model in ("onedim:-2", "ut3:1:3"):
        with pytest.raises(ValueError, match="no generating family"):
            family_for(model)
    for model in ("u1", "w1"):
        with pytest.raises(ValueError, match="unknown family range 'narrow'"):
            family_for(model, "narrow")



def _reference_splits(family, degrees, positions):
    """Every proper nonempty subset of ``positions`` as a bit mask; the
    family splits, ordered by left size, then by the left block's places
    in ``positions`` (the order of itertools.combinations)."""
    m = len(positions)
    splits = []
    for mask in range(1, 2 ** m - 1):
        places = [j for j in range(m) if mask >> j & 1]
        left = tuple(positions[j] for j in places)
        right = tuple(positions[j] for j in range(m) if not mask >> j & 1)
        if family.contains_bracket(
            sum(degrees[i] for i in left), sum(degrees[i] for i in right)
        ):
            splits.append((len(places), places, (left, right)))
    return [split for _, _, split in sorted(splits)]


@pytest.mark.parametrize(
    "family", [family_for("u1"), family_for("w1", "wide"), family_for("w1", "tight")],
    ids=["u1", "w1-wide", "w1-tight"],
)
def test_bracket_splits_match_brute_force(family):
    """The same splits in the same order as the reference, on all positions
    and on proper subsets of them in index order, as consequence_instances
    passes them."""
    rng = random.Random(f"splits/{family}")
    for _ in range(60):
        n = rng.randint(1, 6)
        degrees = tuple(rng.randint(-4, 4) for _ in range(n))
        subsets = [tuple(range(n))] + [
            tuple(sorted(rng.sample(range(n), k))) for k in range(n) for _ in range(2)
        ]
        for positions in subsets:
            got = list(_bracket_splits(family, degrees, positions))
            assert got == _reference_splits(family, degrees, positions), (degrees, positions)
    # A range object, as the span recursion passes it.
    degrees = (1, -1, 2, 0, 3)
    assert list(_bracket_splits(family, degrees, range(5))) == _reference_splits(
        family, degrees, tuple(range(5))
    )


def test_monomial_rule_reads_the_zero_components_of_the_model():
    # a truncation at degree 0 zeroes the degree -1 component that w1 keeps
    w1_plus = WittModel(GF2, min_degree=0)
    for degrees in [(-1, 2), (2, -1, 0), (1, -1, 2), (0, 2), (1, 2), (2, 1, 0)]:
        m = tuple(Var(i + 1, d) for i, d in enumerate(degrees))
        assert monomial_is_identity(m, w1_plus) == satisfies_multilinear(
            w1_plus, LiePoly.monomial(GF2, m)
        ), degrees
    assert monomial_is_identity(mono((1, -1), (2, 2)), w1_plus)
    assert not monomial_is_identity(mono((1, -1), (2, 2)), w1_model(GF2))


def test_family_members_as_polynomials():
    fam = w1_family("wide")
    f = fam.bracket_member(-1, 1, GF2)
    assert f.same_terms(LiePoly.monomial(GF2, mono((1, -1), (2, 1))))
    x = fam.single_member(-2, GF2)
    assert x.same_terms(LiePoly.variable(GF2, v(1, -2)))
    with pytest.raises(ValueError):
        fam.bracket_member(1, 2, GF2)
    with pytest.raises(ValueError):
        fam.single_member(-1, GF2)


# -- monomial criterion ---------------------------------------------------------


def test_monomial_identity_examples():
    u1 = u1_model(GF2)
    assert monomial_is_identity(mono((1, 1), (2, 3)), u1)
    assert not monomial_is_identity(mono((1, 1), (2, 2), (3, 4)), u1)
    assert not monomial_is_identity(mono((1, 0)), u1)


def test_monomial_identity_w1():
    w1 = w1_model(GF2)
    assert monomial_is_identity(mono((1, -2)), w1)
    assert monomial_is_identity(mono((1, -3), (2, 2)), w1)
    assert not monomial_is_identity(mono((1, -1), (2, 0)), w1)
    assert monomial_is_identity(mono((1, -1), (2, 1)), w1)


def test_monomial_rule_needs_characteristic_two():
    # the parity rule is wrong away from characteristic two, so it refuses
    gf3_model = u1_model(Field.gf(3))
    with pytest.raises(ValueError, match="characteristic two"):
        monomial_is_identity(mono((1, 1), (2, 3)), gf3_model)
    from wittid.models import ut3_model

    with pytest.raises(ValueError, match="u1/w1"):
        monomial_is_identity(mono((1, 0), (2, 2)), ut3_model(GF2, 0, 2))


def test_monomial_rule_matches_evaluation_small():
    models = [u1_model(GF2), w1_model(GF2)]
    for n in range(1, 5):
        for degrees in itertools.product(range(-2, 3), repeat=n):
            m = tuple(Var(i + 1, d) for i, d in enumerate(degrees))
            poly = LiePoly.monomial(GF2, m)
            for model in models:
                assert monomial_is_identity(m, model) == satisfies_multilinear(
                    model, poly
                ), (degrees, model.name)


# -- normal form ----------------------------------------------------------------


def test_normal_form_examples():
    assert monomial_normal_form(mono((1, 1), (3, 4), (2, 2))) == mono(
        (1, 1), (2, 2), (3, 4)
    )
    assert monomial_normal_form(mono((1, 1), (2, 3))) is None
    assert monomial_normal_form(mono((2, 0), (1, 1))) == mono((1, 1), (2, 0))


def test_normal_form_idempotent_and_sorted():
    m = mono((3, 2), (1, 1), (2, 0), (4, 0))
    normal = monomial_normal_form(m)
    assert normal == mono((1, 1), (2, 0), (4, 0), (3, 2))
    assert monomial_normal_form(normal) == normal
    # single variables are their own normal form
    assert monomial_normal_form(mono((1, 2))) == mono((1, 2))


def test_normal_form_congruent_modulo_consequences():
    u1 = u1_model(GF2)
    m = mono((1, 1), (3, 4), (2, 2))
    normal = monomial_normal_form(m)
    space = MultilinearSpace(set(m), GF2)
    cons = consequence_subspace(u1_family(), space)
    diff = LiePoly.monomial(GF2, m) + LiePoly.monomial(GF2, normal)
    assert cons.contains_vector(space.coordinates(diff))
    # both sides take the same values
    sub = {x: u1.basis_element(x.degree) for x in m}
    assert evaluate(LiePoly.monomial(GF2, m), sub, u1) == evaluate(
        LiePoly.monomial(GF2, normal), sub, u1
    )


def test_two_odd_variables_reduce_to_zero_and_lie_in_span():
    m = mono((1, 1), (2, 3), (3, 2))
    assert monomial_normal_form(m) is None
    space = MultilinearSpace(set(m), GF2)
    cons = consequence_subspace(u1_family(), space)
    assert cons.contains_vector(space.coordinates(m))


# -- identity subspaces -----------------------------------------------------------


def test_identity_subspace_examples():
    u1 = u1_model(GF2)
    full = identity_subspace(u1, MultilinearSpace.for_degrees([2, 4], GF2))
    assert full.dim == 1
    zero = identity_subspace(u1, MultilinearSpace.for_degrees([1, 2], GF2))
    assert zero.dim == 0
    space = MultilinearSpace.for_degrees([2, 4, 1], GF2)
    ident = identity_subspace(u1, space)
    assert ident.dim == 1
    expected = LiePoly.monomial(GF2, (v(3, 1), v(1, 2), v(2, 4))) + LiePoly.monomial(
        GF2, (v(3, 1), v(2, 4), v(1, 2))
    )
    assert ident.contains_vector(space.coordinates(expected))
    with pytest.raises(ValueError, match="model and space fields differ"):
        identity_subspace(u1_model(Field.gf(3)), space)


def test_identity_subspace_w1_empty_component_is_full():
    w1 = w1_model(GF2)
    space = MultilinearSpace.for_degrees([-3, 1], GF2)
    assert identity_subspace(w1, space).is_full()


def test_identity_subspace_kernel_dimension_split():
    # a single odd degree leaves a one-dimensional image, so the kernel
    # has codimension exactly one
    u1 = u1_model(GF2)
    space = MultilinearSpace.for_degrees([0, 2, 1], GF2)
    assert identity_subspace(u1, space).dim == space.dim - 1
    # no odd degree at all: everything evaluates to zero
    space = MultilinearSpace.for_degrees([0, 2, 2], GF2)
    assert identity_subspace(u1, space).is_full()


# -- consequence subspaces ---------------------------------------------------------


def test_consequence_examples():
    space = MultilinearSpace.for_degrees([2, 4], GF2)
    cons = consequence_subspace(u1_family(), space)
    assert cons.dim == 1

    space = MultilinearSpace.for_degrees([2, 4, 1], GF2)
    cons = consequence_subspace(u1_family(), space)
    assert cons.dim == 1
    jacobi = Pair(v(3, 1), Pair(v(1, 2), v(2, 4)))
    assert cons.contains_vector(space.coordinates(jacobi))

    space = MultilinearSpace.for_degrees([-1, -1], GF2)
    cons = consequence_subspace(w1_family("wide"), space)
    assert cons.dim == 1
    bracket = LiePoly.monomial(GF2, (v(1, -1), v(2, -1)))
    assert cons.contains_vector(space.coordinates(bracket))
    # the tight family still covers it through the degree -2 variable
    tight = consequence_subspace(w1_family("tight"), space)
    assert tight.dim == 1


def test_consequence_subspace_deterministic():
    space = MultilinearSpace.for_degrees([0, 1, 2], GF2)
    a = consequence_subspace(u1_family(), space)
    b = consequence_subspace(u1_family(), space)
    assert subspace_equal(a, b)
    assert a.rows() == b.rows()


def test_soundness_on_sampled_spaces():
    u1 = u1_model(GF2)
    w1 = w1_model(GF2)
    for degrees in [(0,), (-2, 1), (1, 1, 2), (-1, 0, 1), (0, 1, 2, 3), (-1, -1, 2)]:
        space = MultilinearSpace.for_degrees(list(degrees), GF2)
        assert subspace_contains(
            identity_subspace(u1, space), consequence_subspace(u1_family(), space)
        ), degrees
        assert subspace_contains(
            identity_subspace(w1, space),
            consequence_subspace(w1_family("wide"), space),
        ), degrees


def _oracle_consequence(family, space):
    """Span of every instance shape: inner blocks over all bracketings and
    the substituted generator wrapped by all multilinear trees, with the
    placeholder at any leaf position."""
    field = space.field
    vars_ = space.variables
    n = len(vars_)
    indices = tuple(range(n))
    span = SubspaceBasis.zero(field, space.dim)

    def wrap(core, rest):
        placeholder = Var(97, zdegree(core))
        rest_vars = [vars_[i] for i in rest]
        if not rest_vars:
            yield core
            return
        for outer in all_multilinear_trees([placeholder] + rest_vars):
            yield substitute_leaf(outer, placeholder, core)

    if family.has_singletons:
        for size in range(1, n + 1):
            for block in itertools.combinations(indices, size):
                if not family.contains_single(sum(vars_[i].degree for i in block)):
                    continue
                rest = tuple(i for i in indices if i not in block)
                for inner in all_multilinear_trees([vars_[i] for i in block]):
                    for tree in wrap(inner, rest):
                        span.insert(space.coordinates(tree))
    for size in range(2, n + 1):
        for chosen in itertools.combinations(indices, size):
            rest = tuple(i for i in indices if i not in set(chosen))
            for left_size in range(1, size):
                for left in itertools.combinations(chosen, left_size):
                    right = tuple(i for i in chosen if i not in set(left))
                    if not family.contains_bracket(
                        sum(vars_[i].degree for i in left),
                        sum(vars_[i].degree for i in right),
                    ):
                        continue
                    for tl in all_multilinear_trees([vars_[i] for i in left]):
                        for tr in all_multilinear_trees([vars_[i] for i in right]):
                            for tree in wrap(Pair(tl, tr), rest):
                                span.insert(space.coordinates(tree))
    return span


@pytest.mark.parametrize(
    "family,degrees",
    [
        (u1_family(), (0, 1, 2)),
        (u1_family(), (1, 1, 2)),
        (u1_family(), (-2, 0, 1)),
        (u1_family(), (0, 1, 1, 2)),
        (w1_family("wide"), (-1, -1, 2)),
        (w1_family("wide"), (-1, -1, -1)),
        (w1_family("tight"), (-1, 1, 2)),
    ],
)
def test_consequence_matches_exhaustive_tree_oracle(family, degrees):
    # the production enumeration restricts inner blocks to left-normed
    # basis monomials and wraps with the substituted generator leftmost;
    # the oracle does neither
    space = MultilinearSpace.for_degrees(list(degrees), GF2)
    assert subspace_equal(
        consequence_subspace(family, space), _oracle_consequence(family, space)
    )


def _gate_components():
    families = (u1_family(), w1_family("wide"), w1_family("tight"))
    gf3 = Field.gf(3)
    for family in families:
        for n in range(1, 6):
            for degrees in canonical_degree_tuples(n, 2):
                yield family, MultilinearSpace.for_degrees(degrees, GF2)
        for n in range(1, 5):
            for degrees in canonical_degree_tuples(n, 2):
                yield family, MultilinearSpace.for_degrees(degrees, gf3)
    rng = random.Random(5)
    for family in families:
        for degrees in rng.sample(list(canonical_degree_tuples(5, 2)), 6):
            yield family, MultilinearSpace.for_degrees(degrees, gf3)
    # n = 6 over GF(2): 120 columns, so every row is wider than a machine
    # word. One odd degree and none below -1 gives a proper identity
    # subspace that the span never fills, in every family.
    rng = random.Random(6)
    wide = list(canonical_degree_tuples(6, 2))
    single_odd = [d for d in wide if sum(x % 2 for x in d) == 1 and min(d) >= -1]
    for family in families:
        for degrees in rng.sample(wide, 2) + rng.sample(single_odd, 1):
            yield family, MultilinearSpace.for_degrees(degrees, GF2)
    # Indices that are not contiguous and are given unsorted, with
    # unsorted degrees: the spans are memoized by the degree tuple in
    # index order, which the canonical tuples above never tell apart
    # from memoizing by subset.
    rng = random.Random(7)
    for field in (GF2, gf3):
        for family in families:
            for _ in range(20):
                indices = rng.sample(range(1, 20), rng.randint(2, 5))
                yield family, MultilinearSpace(
                    [Var(i, rng.randint(-2, 2)) for i in indices], field
                )


def test_consequence_subspace_matches_instance_span():
    # the recursion over sub-components against the instance enumeration
    mismatches = []
    for family, space in _gate_components():
        if consequence_subspace(family, space) != instance_span(family, space):
            mismatches.append((family, space))
    assert mismatches == []


def test_consequence_instances_are_actual_consequences():
    # every enumerated instance evaluates to zero in the matching model
    u1 = u1_model(GF2)
    space = MultilinearSpace.for_degrees([0, 1, 2], GF2)
    trees = list(consequence_instances(u1_family(), space))
    assert trees
    ident = identity_subspace(u1, space)
    for tree in trees:
        assert ident.contains_vector(space.coordinates(tree))


@pytest.mark.parametrize("degrees", [(0, 0, 1, 2, 2), (0, 1, 2)])
def test_budget_exceeded(degrees):
    space = MultilinearSpace.for_degrees(list(degrees), GF2)
    with pytest.raises(BudgetExceeded):
        consequence_subspace(u1_family(), space, deadline=time.monotonic() - 1.0)


# -- span memo ------------------------------------------------------------------

MEMO_FAMILIES = {
    "u1": u1_family(), "w1-wide": w1_family("wide"), "w1-tight": w1_family("tight"),
}
MEMO_FIELDS = {"gf2": GF2, "gf3": Field.gf(3)}
memo_cases = pytest.mark.parametrize(
    "family, field",
    [(f, k) for f in MEMO_FAMILIES.values() for k in MEMO_FIELDS.values()],
    ids=[f"{a}-{b}" for a in MEMO_FAMILIES for b in MEMO_FIELDS],
)
# Extras past nmax and off the canonical range, so their sub-spans are
# not all swept before them.
MEMO_EXTRAS = ((1, 2, 2, 2, 2), (-2, -1, 0, 3), (0, 1, 1, 3, 4))


def _memo_sweep(field, nmax=4, dmax=2, extras=MEMO_EXTRAS):
    return [MultilinearSpace.for_degrees(d, field) for d in sweep_tuples(nmax, dmax, extras)]


def _span_of_calls(monkeypatch) -> list:
    """Record the degree tuple of every span computed from scratch."""
    calls = []
    original = SpanMemo._span_of

    def recording(self, degrees, deadline):
        calls.append(degrees)
        return original(self, degrees, deadline)

    monkeypatch.setattr(SpanMemo, "_span_of", recording)
    return calls


@memo_cases
@pytest.mark.parametrize("bounded", [True, False], ids=["bounded", "unbounded"])
def test_shared_memo_spans_equal_fresh_spans(family, field, bounded):
    spaces = _memo_sweep(field)
    memo = SpanMemo(family, field, largest=max(s.n for s in spaces) if bounded else None)
    for space in spaces:
        shared = consequence_subspace(family, space, memo=memo)
        assert shared == consequence_subspace(family, space), space.degrees


@memo_cases
def test_a_canonical_sweep_computes_each_span_once(monkeypatch, family, field):
    # Every sub-tuple of a sorted sweep tuple is swept before it.
    spaces = _memo_sweep(field, extras=())
    calls = _span_of_calls(monkeypatch)
    memo = SpanMemo(family, field, largest=4)
    for space in spaces:
        consequence_subspace(family, space, memo=memo)
    assert sorted(calls) == sorted(s.degrees for s in spaces)


def test_memo_refuses_another_family_or_field():
    space = MultilinearSpace.for_degrees((0, 1, 1), GF2)
    memo = SpanMemo(u1_family(), GF2)
    consequence_subspace(u1_family(), space, memo=memo)
    with pytest.raises(ValueError, match="span memo"):
        consequence_subspace(w1_family("wide"), space, memo=memo)
    with pytest.raises(ValueError, match="span memo"):
        consequence_subspace(
            u1_family(), MultilinearSpace.for_degrees((0, 1, 1), Field.gf(3)), memo=memo
        )
    wide_memo = SpanMemo(w1_family("wide"), GF2)
    with pytest.raises(ValueError, match="span memo"):
        consequence_subspace(w1_family("tight"), space, memo=wide_memo)


def test_memo_refuses_a_wider_space(monkeypatch):
    # A memo keeps no span of its largest size, so a wider space would
    # recompute those sub-spans: refused before any span is computed.
    memo = SpanMemo(u1_family(), GF2, largest=3)
    consequence_subspace(u1_family(), MultilinearSpace.for_degrees((0, 1, 1), GF2), memo=memo)
    calls = _span_of_calls(monkeypatch)
    wider = MultilinearSpace.for_degrees((0, 1, 1, 2), GF2)
    with pytest.raises(ValueError, match="span memo of at most 3 variables asked for 4"):
        consequence_subspace(u1_family(), wider, memo=memo)
    assert calls == []
    monkeypatch.undo()
    fresh = consequence_subspace(u1_family(), wider)
    assert fresh == consequence_subspace(u1_family(), wider, memo=SpanMemo(u1_family(), GF2, 4))


@pytest.mark.parametrize("field", list(MEMO_FIELDS.values()), ids=list(MEMO_FIELDS))
def test_budget_exceeded_leaves_no_partial_span(monkeypatch, field):
    # The extra (1, 2, 2, 2, 4) follows an n <= 3 sweep; its degree sum is
    # odd, so it has no cores and its 4-variable sub-spans enter the memo
    # during its call. Stopping the call at one deadline check after
    # another must leave only complete spans behind.
    family = u1_family()
    before = _memo_sweep(field, nmax=3, dmax=1, extras=())
    target = MultilinearSpace.for_degrees((1, 2, 2, 2, 4), field)
    after = MultilinearSpace.for_degrees((1, 2, 2, 2, 2), field)
    fresh = {s.degrees: consequence_subspace(family, s) for s in (target, after)}
    original = SpanMemo._check_deadline
    grew = 0
    stop_at = 1
    while True:
        memo = SpanMemo(family, field, largest=5)
        for space in before:
            consequence_subspace(family, space, memo=memo)
        known = set(memo.spans)
        checks = [0]

        def stopping(self, deadline, degrees):
            checks[0] += 1
            if checks[0] == stop_at:
                raise BudgetExceeded("stopped")
            original(self, deadline, degrees)

        monkeypatch.setattr(SpanMemo, "_check_deadline", stopping)
        try:
            consequence_subspace(family, target, memo=memo)
            finished = True
        except BudgetExceeded:
            finished = False
        monkeypatch.setattr(SpanMemo, "_check_deadline", original)
        if finished:
            break
        assert target.degrees not in memo.spans
        grew += bool(set(memo.spans) - known)
        for degrees, span in memo.spans.items():
            assert span == consequence_subspace(
                family, MultilinearSpace.for_degrees(degrees, field)
            ), degrees
        assert consequence_subspace(family, after, memo=memo) == fresh[after.degrees]
        assert consequence_subspace(family, target, memo=memo) == fresh[target.degrees]
        stop_at += max(1, stop_at // 4)
    assert stop_at > 10 and grew > 0


@memo_cases
def test_memo_keeps_to_its_memory_bound(monkeypatch, family, field):
    # Every span narrower than largest is kept, and none as wide, so one
    # run computes each span once; only the widest, the sweep's own, are
    # computed per call.
    spaces = _memo_sweep(field)
    largest = max(s.n for s in spaces)
    calls = _span_of_calls(monkeypatch)
    memo = SpanMemo(family, field, largest=largest)
    for space in spaces:
        consequence_subspace(family, space, memo=memo)
        assert memo.spans
        assert all(len(d) < largest for d in memo.spans)
    narrower = [d for d in calls if len(d) < largest]
    assert len(narrower) == len(set(narrower)) and set(narrower) == set(memo.spans)
    assert {len(d) for d in memo.spans} == set(range(1, largest))
    widest = sorted(d for d in calls if len(d) == largest)
    assert widest == sorted(s.degrees for s in spaces if s.n == largest)


def test_subspace_ops_examples():
    a = SubspaceBasis.from_vectors(GF2, 2, [(1, 0)])
    zero = SubspaceBasis.zero(GF2, 2)
    assert subspace_equal(a, a)
    assert subspace_contains(a, zero)
    assert not subspace_equal(a, zero)
    assert subspace_contains(a, zero) and not subspace_contains(zero, a)
