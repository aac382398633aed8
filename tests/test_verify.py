import concurrent.futures
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from conftest import hand_report
from wittid import cli, verify
from wittid.fields import Field
from wittid.freealg import LiePoly, MultilinearSpace, Var
from wittid.grammar import format_polynomial, parse_polynomial
from wittid.models import onedim_model, parse_model, satisfies_multilinear
from wittid.tideal import (
    consequence_instances, consequence_subspace, identity_subspace, subspace_contains,
)
from wittid.verify import (
    PROBE_TUPLES,
    REPORT_SCHEMA,
    SweepConfig,
    VerificationReport,
    canonical_degree_tuples,
    char_contrast,
    in_sweep,
    independence_check,
    leading_family_members,
    minimality_sweep,
    no_finite_basis_demo,
    orbit_size,
    revalidate_entry,
    summarize,
    sweep_tuples,
    variable_independence_check,
    verify_basis_theorem,
)

GF2 = Field.gf(2)


def test_canonical_tuples_and_orbits():
    tuples = list(canonical_degree_tuples(2, 1))
    assert tuples == [(-1, -1), (-1, 0), (-1, 1), (0, 0), (0, 1), (1, 1)]
    assert orbit_size((1, 1, 2)) == 3
    assert orbit_size((0, 0, 0)) == 1
    assert orbit_size((0, 1, 2)) == 6


def test_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(model="ut3:0:2")
    with pytest.raises(ValueError):
        SweepConfig(nmax=0)
    with pytest.raises(ValueError, match="workers"):
        SweepConfig(workers=0)
    for budget in (-1.0, -1e-9, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="budget"):
            SweepConfig(space_budget_s=budget)
    assert SweepConfig(space_budget_s=0.0).space_budget_s == 0.0
    config = SweepConfig(model="w1", family_range="tight")
    assert config.family().bracket_lower_bound == 0
    with pytest.raises(ValueError, match="unknown family range 'bogus'"):
        SweepConfig(model="w1", family_range="bogus")


def test_config_refuses_an_empty_extra_tuple(monkeypatch):
    # refused when the config is built, before any component is computed
    monkeypatch.setattr(verify, "identity_subspace", _no_span)
    for extras in ([()], [(1, 1), []]):
        with pytest.raises(ValueError, match="an extra degree tuple needs at least one degree"):
            SweepConfig(nmax=1, dmax=0, extra_degree_tuples=extras)


def test_config_refuses_an_unknown_field(monkeypatch):
    # refused when the config is built, before a process pool or any
    # component starts
    monkeypatch.setattr(verify, "identity_subspace", _no_span)
    for field in ("gf4", "gf1", "gfx", "reals"):
        with pytest.raises(ValueError, match="field"):
            SweepConfig(nmax=1, dmax=0, field=field, workers=2)


def _no_span(*args, **kwargs):
    raise AssertionError("a component was computed")


def test_sweep_size_counts_the_sweep_tuples():
    for nmax, dmax in itertools.product(range(1, 5), range(4)):
        for extras in ((), [(9,)], [(dmax, -dmax)] * 2 + [(dmax + 1,) * (nmax + 1)]):
            want = len(list(verify.sweep_tuples(nmax, dmax, extras)))
            assert verify.sweep_size(nmax, dmax, extras) == want, (nmax, dmax, extras)
    assert verify.sweep_size(6, 4) == 5004 and verify.sweep_size(8, 2) == 1286


def test_config_refuses_too_many_components(monkeypatch):
    # Refused when the config is built, before the sweep's tuples are listed.
    monkeypatch.setattr(verify, "identity_subspace", _no_span)
    monkeypatch.setattr(verify, "sweep_tuples", _no_span)
    assert verify.MAX_COMPONENTS == 10_000
    for nmax, dmax, extras, count in [
        (8, 40, (), "70,625,252,862"),
        (1, 5000, (), "10,001"),
        (1, 4999, [(0, 1), (-1, 2)], "10,001"),
    ]:
        with pytest.raises(ValueError, match=f"the sweep has {count} components; at most 10,000"):
            SweepConfig(nmax=nmax, dmax=dmax, extra_degree_tuples=extras)
    # The widest documented sweeps, and the cap itself, are accepted.
    for nmax, dmax, extras in [(6, 4, ()), (8, 3, ()), (1, 4999, [(0, 1), (1, 0), (1,)])]:
        assert SweepConfig(nmax=nmax, dmax=dmax, extra_degree_tuples=extras).dmax == dmax


@pytest.mark.parametrize(
    "budget, want",
    [("x", "not of type number or null"), (True, "not of type number or null"),
     ([1], "not of type number or null"), (-5, "finite number of seconds"),
     (-1e-9, "finite number of seconds"), (float("nan"), "finite number of seconds"),
     (float("inf"), "finite number of seconds")],
)
def test_from_json_refuses_bad_budgets(budget, want):
    data = verify_basis_theorem(SweepConfig(model="u1", nmax=1, dmax=0)).to_json_dict()
    data["config"]["space_budget_s"] = budget
    with pytest.raises(ValueError, match=want):
        VerificationReport.from_json(json.dumps(data))


def _json_paths(value, path=()):
    """Every path into a JSON value, containers included."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield from _json_paths(item, path + (key,))


def test_shape_check_agrees_with_jsonschema():
    # Every value of a report, in turn, set to 0, -1 or a value of a wrong
    # type: the plain-Python check, with _check_budget for the budget's
    # bound, refuses exactly what jsonschema refuses. Integral floats such
    # as 2.0 are left out: jsonschema counts them as integers, the plain
    # check does not.
    config = SweepConfig(model="u1", nmax=2, dmax=1, extra_degree_tuples=[(1, 1, 1)])
    report = verify_basis_theorem(config).to_json_dict()
    report["spaces"] = report["spaces"][:2]
    assert report["config"]["extra_degree_tuples"] == [[1, 1, 1]]
    # jsonschema.validate's own validator, built once.
    validator = jsonschema.validators.validator_for(REPORT_SCHEMA)(REPORT_SCHEMA)
    refused = {True: 0, False: 0}
    for path in itertools.islice(_json_paths(report), 1, None):
        for bad in (0, -1, 1.5, "1", True, None, [], {}):
            data = json.loads(json.dumps(report))
            holder = data
            for key in path[:-1]:
                holder = holder[key]
            holder[path[-1]] = bad
            want = not validator.is_valid(data)
            try:
                verify._check_shape(data, REPORT_SCHEMA, "report")
                verify._check_budget(data["config"].get("space_budget_s"), "budget")
                got = False
            except ValueError:
                got = True
            assert got == want, (path, bad)
            refused[want] += 1
    assert refused[True] > 200 and refused[False] > 50


@pytest.mark.parametrize("budget", [None, 0.0, 0, 2.5, 10**400])
def test_from_json_keeps_valid_budgets(budget):
    data = verify_basis_theorem(SweepConfig(model="u1", nmax=1, dmax=0)).to_json_dict()
    data["config"]["space_budget_s"] = budget
    report = VerificationReport.from_json(json.dumps(data))
    assert report.config["space_budget_s"] == budget


@pytest.mark.parametrize(
    "nmax, extras, widest",
    [(9, (), 9), (2, [(1,) * 9], 9), (3, [(0, 1), (-1,) * 10], 10)],
)
def test_size_cap_refuses_nine_variables(nmax, extras, widest):
    # Refused where the sweep is configured and where a report is loaded;
    # neither runs a component.
    want = f"component of {widest} variables; at most 8 are supported"
    with pytest.raises(ValueError, match=f"the sweep reaches a {want}"):
        SweepConfig(nmax=nmax, extra_degree_tuples=extras)
    with pytest.raises(ValueError, match=f"report.config reaches a {want}"):
        VerificationReport.from_json(hand_report(nmax, extras))


def test_size_cap_keeps_eight_variables():
    assert verify.MAX_VARIABLES == 8
    assert SweepConfig(nmax=8).nmax == 8
    assert SweepConfig(nmax=2, extra_degree_tuples=[[0] * 8]).extra_degree_tuples == ((0,) * 8,)
    assert VerificationReport.from_json(hand_report(8, [(0,) * 8])).config["nmax"] == 8


@pytest.mark.parametrize(
    "model, family_range, degrees, dims, complete",
    [("u1", "wide", (1, 2, 2, 2, 2, 2, 2), (719, 719), True),
     ("w1", "wide", (-1, 0, 0, 1, 2, 2, 2), (720, 720), True),
     ("w1", "tight", (-1, 0, 0, 0, 0, 1, 1), (720, 719), False)],
)
def test_space_entry_at_720_columns(model, family_range, degrees, dims, complete):
    # n = 7: the widest components the suite runs; w1-tight keeps one
    # identity outside its consequence span, and its witness revalidates.
    config = SweepConfig(
        model=model, family_range=family_range, nmax=1, dmax=0, extra_degree_tuples=[degrees]
    )
    (entry,) = verify._space_entries(config, [degrees])
    assert entry["dimP"] == 720
    assert (entry["dimIdentity"], entry["dimConsequence"]) == dims
    assert (entry["sound"], entry["complete"]) == (True, complete)
    assert ("witness" in entry) is not complete
    if not complete:
        assert revalidate_entry(entry, config.to_dict())
        assert not revalidate_entry({**entry, "witness": ""}, config.to_dict())


def _modules_added_by_import() -> set:
    """The modules that ``import wittid, wittid.cli`` adds to those a bare
    interpreter has loaded."""
    src = Path(verify.__file__).resolve().parent.parent
    probe = (
        "import sys; before = set(sys.modules); import wittid, wittid.cli; "
        "print('\\n'.join(set(sys.modules) - before))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    return set(out.split())


def test_import_loads_no_process_pool():
    # Only a sweep with workers > 1 needs multiprocessing.
    assert not {"multiprocessing", "concurrent.futures"} & _modules_added_by_import()


def test_import_loads_no_dataclasses_fractions_or_json():
    # Start-up cost: json is imported where a report is read or written,
    # fractions where a rational scalar is made.
    added = _modules_added_by_import()
    assert "wittid.cli" in added
    assert not {"dataclasses", "inspect", "fractions", "json"} & added


def test_summarize_counts_entries():
    entries = [
        {"sound": True, "complete": True},
        {"sound": False, "complete": True},
        {"sound": True, "complete": False},
        {"sound": None, "complete": None, "skipped": True},
    ]
    assert summarize(entries) == {"passed": 1, "failed": 2, "skipped": 1}
    report = verify_basis_theorem(SweepConfig(model="u1", nmax=2, dmax=1))
    assert report.summary == summarize(report.spaces)


def test_from_json_rejects_wrong_containers():
    data = verify_basis_theorem(SweepConfig(model="u1", nmax=1, dmax=0)).to_json_dict()
    data["spaces"] = {"0": data["spaces"][0]}
    with pytest.raises(ValueError, match="not a JSON array"):
        VerificationReport.from_json(json.dumps(data))
    with pytest.raises(ValueError, match="not a JSON object"):
        VerificationReport.from_json("[]")


def test_small_sweep_u1_passes():
    report = verify_basis_theorem(SweepConfig(model="u1", nmax=3, dmax=2))
    assert report.passed
    assert report.summary["failed"] == 0
    assert report.summary["skipped"] == 0
    assert report.summary["passed"] == len(report.spaces)
    entry = report.entry_for([2, 4])
    assert entry is None  # outside dmax
    entry = report.entry_for([1, 2])
    assert entry["dimIdentity"] == 0 and entry["dimConsequence"] == 0


def test_small_sweep_w1_passes_including_minus_one_pair():
    report = verify_basis_theorem(
        SweepConfig(model="w1", family_range="wide", nmax=3, dmax=2)
    )
    assert report.passed
    entry = report.entry_for([-1, -1])
    assert entry["dimIdentity"] == 1
    assert entry["dimConsequence"] == 1
    assert entry["sound"] and entry["complete"]


def test_gf3_sweep_reports_soundness_failure_with_witness():
    report = verify_basis_theorem(
        SweepConfig(model="u1", nmax=2, dmax=3, field="gf3")
    )
    assert not report.passed
    entry = report.entry_for([1, 3])
    assert entry["sound"] is False
    witness = parse_polynomial(entry["witness"], Field.gf(3))
    expected = LiePoly.monomial(Field.gf(3), (Var(1, 1), Var(2, 3)))
    assert witness == expected  # equal as Lie elements
    assert revalidate_entry(entry, report.config)


def test_witness_revalidation_rejects_fakes():
    report = verify_basis_theorem(
        SweepConfig(model="u1", nmax=2, dmax=3, field="gf3")
    )
    entry = dict(report.entry_for([1, 3]))
    entry["witness"] = "[x1^1, x2^3] + [x2^3, x1^1]"  # expands to zero mod 2 but not mod 3
    entry["witness"] = "[x2^3, x1^1]"
    assert revalidate_entry(entry, report.config)  # same line, still valid
    entry["sound"], entry["complete"] = True, False
    assert not revalidate_entry(entry, report.config)  # not an identity at all


def test_reports_are_deterministic_once_timings_dropped():
    config = SweepConfig(model="w1", family_range="tight", nmax=3, dmax=1)
    a = verify_basis_theorem(config).to_json(with_timings=False)
    b = verify_basis_theorem(config).to_json(with_timings=False)
    assert a == b


def test_report_schema_and_roundtrip():
    report = verify_basis_theorem(SweepConfig(model="u1", nmax=2, dmax=2))
    obj = report.to_json_dict()
    jsonschema.validate(obj, REPORT_SCHEMA)
    again = VerificationReport.from_json(report.to_json())
    assert again.spaces == report.spaces
    assert again.summary == report.summary
    assert again.passed == report.passed


def test_parallel_workers_match_sequential():
    # Several pool chunks, and an extra tuple past nmax whose sub-spans no
    # chunk has swept.
    sweep = dict(model="u1", nmax=4, dmax=3, extra_degree_tuples=[(2, 1, 2, 2, 2)])
    sequential = verify_basis_theorem(SweepConfig(**sweep))
    parallel = verify_basis_theorem(SweepConfig(**sweep, workers=2))
    assert len(sequential.spaces) > 2 * verify.POOL_CHUNK
    assert sequential.spaces[-1]["degrees"] == [1, 2, 2, 2, 2]
    assert sequential.spaces == parallel.spaces


def _recorded_memos(monkeypatch) -> tuple:
    """The span memos verify builds from now on, and the degree tuples
    whose spans they compute from scratch."""
    memos, computed = [], []

    class Recorded(verify.SpanMemo):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            memos.append(self)

        def _span_of(self, degrees, deadline):
            computed.append(degrees)
            return super()._span_of(degrees, deadline)

    monkeypatch.setattr(verify, "SpanMemo", Recorded)
    return memos, computed


@pytest.mark.parametrize("model, family_range, field", [
    ("u1", "wide", "gf2"), ("w1", "tight", "gf2"), ("u1", "wide", "gf3"),
])
def test_one_memo_per_run_within_its_bound(monkeypatch, model, family_range, field):
    memos, computed = _recorded_memos(monkeypatch)
    config = SweepConfig(
        model=model, family_range=family_range, nmax=4, dmax=2, field=field,
        extra_degree_tuples=[(1, 2, 2, 2, 2), (-2, 3)],
    )
    entries = verify_basis_theorem(config).spaces
    monkeypatch.undo()
    assert len(memos) == 1
    (memo,) = memos
    assert (memo.family, memo.field, memo.largest) == (config.family(), Field.from_spec(field), 5)
    # Every span narrower than 5 variables is kept, none of 5, so the run
    # computes each span once.
    assert {len(d) for d in memo.spans} == {1, 2, 3, 4}
    assert len(computed) == len(set(computed))
    assert set(computed) - set(memo.spans) == {(1, 2, 2, 2, 2)}
    fresh = [verify._space_entries(config, [tuple(e["degrees"])])[0] for e in entries]
    assert entries == fresh


@pytest.mark.parametrize("model, family_range, field", [
    ("u1", "wide", "gf2"), ("w1", "tight", "gf2"), ("w1", "wide", "gf2"), ("u1", "wide", "gf3"),
])
def test_completeness_from_dimensions_is_containment(model, family_range, field):
    # Once cons <= ident, equal dimensions decide completeness; failing
    # components of both kinds are in the sample.
    config = SweepConfig(model=model, family_range=family_range, field=field)
    family, k = config.family(), Field.from_spec(field)
    tuples = [d for n in range(1, 6) for d in canonical_degree_tuples(n, 3)]
    rng = random.Random(f"{model}-{family_range}-{field}")
    sample = rng.sample(tuples, 60) + [(-1, 0, 1, 1), (-1, 1), (-1, 3), (1, 2, 2, 2)]
    flags = set()
    for degrees in sample:
        (entry,) = verify._space_entries(config, [degrees])
        space = MultilinearSpace.for_degrees(degrees, k)
        ident = identity_subspace(parse_model(model, k), space)
        cons = consequence_subspace(family, space)
        assert entry["complete"] == subspace_contains(cons, ident), degrees
        flags.add((entry["sound"], entry["complete"]))
    assert (True, True) in flags
    if (model, family_range) == ("w1", "tight"):
        assert (True, False) in flags
    if field == "gf3":
        assert any(sound is False for sound, _ in flags)


def test_revalidation_shares_one_memo():
    report = verify_basis_theorem(SweepConfig(
        model="w1", family_range="tight", nmax=3, dmax=2, extra_degree_tuples=[(-1, 0, 1, 1)],
    ))
    memo = report.span_memo()
    assert memo.largest == 4
    assert all(revalidate_entry(e, report.config, memo) for e in report.spaces)
    assert {len(d) for d in memo.spans} == {1, 2, 3}
    # The memo is filled by recomputation only: a forged entry still fails.
    forged = {**report.spaces[-1], "dimConsequence": report.spaces[-1]["dimConsequence"] + 1}
    assert not revalidate_entry(forged, report.config, memo)
    other = verify_basis_theorem(SweepConfig(model="u1", nmax=3, dmax=2))
    with pytest.raises(ValueError, match="span memo"):
        revalidate_entry(other.spaces[-1], other.config, memo)


def _small_report(model="u1"):
    return verify_basis_theorem(SweepConfig(model=model, nmax=2, dmax=1)).to_json_dict()


def _off_family(data):
    data["config"]["family"] = "brackets of equal parity"


def _off_summary(data):
    data["summary"]["passed"] -= 1


def _recounted(edit):
    def edit_and_recount(data):
        edit(data["spaces"])
        data["summary"] = summarize(data["spaces"])
    return edit_and_recount


def _forged_dims(data):
    data["spaces"][4]["dimIdentity"] = data["spaces"][4]["dimConsequence"] = 7


def _off_sweep(data):
    data["spaces"] = [{
        "n": 7, "degrees": [1, 2, 2, 2, 2, 2, 2], "orbit": 7, "dimP": 720,
        "dimIdentity": 720, "dimConsequence": 720, "sound": True, "complete": True,
    }]


def _cut_and_renamed(data):
    data["spaces"] = data["spaces"][:1]
    data["config"]["family"] = "anything"


_W1_FAMILY = "brackets of equal parity with degrees >= -1, plus single variables of degree <= -2"


@pytest.mark.parametrize(
    "model, edit, problems, invalid",
    [("u1", None, [], []),
     ("w1", _off_family,
      ["FAMILY MISMATCH: the report names 'brackets of equal parity', "
       f"its model and range give {_W1_FAMILY!r}"], []),
     ("u1", _off_summary,
      ["SUMMARY MISMATCH: the entries count passed 9, failed 0, skipped 0"], []),
     ("u1", _recounted(lambda s: s.append(dict(s[-1]))),
      ["COVERAGE MISMATCH: at entry 9 the report has [1, 1] and the configured sweep has nothing"],
      []),
     ("u1", _recounted(lambda s: s.pop(1)),
      ["COVERAGE MISMATCH: at entry 1 the report has [1] and the configured sweep has [0]"], []),
     ("u1", _recounted(lambda s: s.insert(0, s.pop(1))),
      ["COVERAGE MISMATCH: at entry 0 the report has [0] and the configured sweep has [-1]"], []),
     ("u1", _forged_dims, [], [[-1, 0]]),
     ("u1", _off_sweep,
      ["SUMMARY MISMATCH: the entries count passed 1, failed 0, skipped 0",
       "COVERAGE MISMATCH: at entry 0 the report has [1, 2, 2, 2, 2, 2, 2] "
       "and the configured sweep has [-1]"], [[1, 2, 2, 2, 2, 2, 2]]),
     ("u1", _cut_and_renamed,
      ["FAMILY MISMATCH: the report names 'anything', "
       "its model and range give 'brackets of equal parity'",
       "SUMMARY MISMATCH: the entries count passed 1, failed 0, skipped 0",
       "COVERAGE MISMATCH: at entry 1 the report has nothing and the configured sweep has [0]"],
      [])],
)
def test_audit_finds_what_the_report_verb_prints(
    capsys, tmp_path, monkeypatch, model, edit, problems, invalid
):
    data = _small_report(model)
    if edit is not None:
        edit(data)
    text = json.dumps(data)
    report = VerificationReport.from_json(text)
    assert report.audit() == (problems, None)
    # an off-sweep entry is refused before anything is computed
    if edit is _off_sweep:
        monkeypatch.setattr(verify, "identity_subspace", _no_span)
    assert report.audit(revalidate=True) == (problems, invalid)
    path = tmp_path / "report.json"
    path.write_text(text)
    assert cli.main(["report", str(path), "--revalidate"]) == int(
        bool(problems or invalid) or not report.passed
    )
    revalidated = f"INVALID witnesses at {invalid}" if invalid else "witnesses revalidated"
    assert capsys.readouterr().out.splitlines()[2:] == problems + [revalidated]


def test_audit_builds_one_span_memo(monkeypatch):
    memos, used = [], set()

    class CountedMemo(verify.SpanMemo):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            memos.append(self)

    def recording(entry, config, memo=None):
        used.add(id(memo))
        return revalidate_entry(entry, config, memo)

    report = VerificationReport.from_json(json.dumps(_small_report("w1")))
    monkeypatch.setattr(verify, "SpanMemo", CountedMemo)
    monkeypatch.setattr(verify, "revalidate_entry", recording)
    assert report.audit() == ([], None) and memos == []
    assert report.audit(True) == ([], [])
    assert len(memos) == 1 and used == {id(memos[0])}


def test_pool_is_clamped_to_the_cores(monkeypatch):
    requested = []

    class InProcessPool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    # verify imports the pool class when a sweep asks for workers, so the
    # class is replaced where that import reads it.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
    report = verify_basis_theorem(SweepConfig(model="u1", nmax=2, dmax=1, workers=10_000))
    monkeypatch.undo()
    assert requested == [3]
    assert report.config["workers"] == 10_000
    assert report.spaces == verify_basis_theorem(SweepConfig(model="u1", nmax=2, dmax=1)).spaces


@pytest.mark.parametrize("cores", [1, None])
def test_one_core_runs_serially(monkeypatch, cores):
    # A pool of one process would cost its start-up and run nothing in
    # parallel, so a sweep on one core, or on an unknown count, builds none.
    class NoPool:
        def __init__(self, max_workers):
            raise AssertionError(f"a pool of {max_workers} was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cores)
    report = verify_basis_theorem(SweepConfig(model="u1", nmax=2, dmax=1, workers=2))
    monkeypatch.undo()
    assert report.config["workers"] == 2
    assert report.spaces == verify_basis_theorem(SweepConfig(model="u1", nmax=2, dmax=1)).spaces


def test_budget_flags_skipped_spaces():
    # With no time at all, exactly the components that have a consequence
    # instance are skipped: the deadline is checked before the first one.
    config = SweepConfig(model="u1", nmax=4, dmax=2, space_budget_s=0.0)
    report = verify_basis_theorem(config)
    assert report.summary["skipped"] > 0
    assert not report.passed
    for entry in report.spaces:
        space = MultilinearSpace.for_degrees(entry["degrees"], GF2)
        has_instance = next(consequence_instances(config.family(), space), None) is not None
        assert bool(entry.get("skipped")) == has_instance, entry["degrees"]
        if has_instance:
            assert entry["dimConsequence"] is None
        else:
            assert entry["dimConsequence"] == 0
    jsonschema.validate(report.to_json_dict(), REPORT_SCHEMA)



def test_skipped_entries_revalidate_unless_their_shape_is_forged():
    # A skipped entry is checked only against the n, dimP and orbit of its
    # degrees, which every entry must match.
    report = verify_basis_theorem(SweepConfig(model="u1", nmax=3, dmax=1, space_budget_s=0.0))
    skipped = [e for e in report.spaces if e.get("skipped")]
    assert skipped
    for entry in skipped:
        assert revalidate_entry(entry, report.config)
        for key in ("n", "dimP", "orbit"):
            assert not revalidate_entry({**entry, key: entry[key] + 1}, report.config)

def test_extra_degree_tuples_are_included_once():
    config = SweepConfig(
        model="w1", nmax=2, dmax=1, extra_degree_tuples=((-1, 3), (1, -1))
    )
    report = verify_basis_theorem(config)
    assert report.entry_for([-1, 3]) is not None
    assert sum(1 for e in report.spaces if e["degrees"] == [-1, 1]) == 1
    assert [tuple(e["degrees"]) for e in report.spaces] == list(
        sweep_tuples(2, 1, ((-1, 3), (1, -1)))
    )
    assert list(sweep_tuples(1, 1, ((3, -1), (1,), (-1, 3)))) == [(-1,), (0,), (1,), (-1, 3)]


@pytest.mark.parametrize(
    "nmax, dmax, extras",
    [(0, 1, ()), (2, 0, ((3, -1), (0,))), (2, 1, ((-1, 3), (1, -1), (2, 2, 2, 2))),
     (3, 2, ((0, 0, 0, 0, 5),)), (1, -1, ((1,),))],
)
def test_in_sweep_matches_sweep_tuples(nmax, dmax, extras):
    listed = set(sweep_tuples(nmax, dmax, extras))
    # in a range past dmax: every tuple of up to two degrees and every sorted
    # one of up to nmax + 2; and the extras, as given and reversed
    span = range(-abs(dmax) - 1, 6)
    candidates = {t for n in range(nmax + 3) for t in itertools.product(span, repeat=n)
                  if n <= 2 or t == tuple(sorted(t))}
    candidates |= {tuple(e) for e in extras} | {tuple(e)[::-1] for e in extras}
    assert listed <= candidates
    for degrees in candidates:
        assert in_sweep(degrees, nmax, dmax, extras) == (degrees in listed), degrees


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["u1_nmax6_dmax2", "w1_wide_nmax6_dmax2"])
def test_committed_n6_reports_revalidate(name):
    """Saved ``verify-basis --nmax 6 --dmax 2`` reports pin the identity and
    consequence dimensions; a seeded sample of their n=6 entries must
    survive recomputation. ``wittid report --revalidate`` checks them all."""
    report = VerificationReport.from_json((DATA / f"{name}.json").read_text())
    config = report.config
    assert report.passed and report.summary == {"passed": 461, "failed": 0, "skipped": 0}
    assert [tuple(e["degrees"]) for e in report.spaces] == list(
        sweep_tuples(config["nmax"], config["dmax"], config["extra_degree_tuples"])
    )
    assert report.audit() == ([], None)
    widest = [e for e in report.spaces if e["n"] == 6]
    for entry in random.Random(name).sample(widest, 12):
        assert revalidate_entry(entry, config), entry["degrees"]


# -- separation certificates ---------------------------------------------------


def test_independence_examples():
    for (r, s) in [(0, 2), (2, 2), (0, 0)]:
        result = independence_check(r, s, bound=6)
        assert result["ok"], (r, s, result["violations"])
    assert independence_check(0, 2)["collision_merged"]
    assert not independence_check(2, 2)["collision_merged"]


def test_independence_validation():
    with pytest.raises(ValueError):
        independence_check(2, 0)
    with pytest.raises(ValueError):
        independence_check(0, 1)
    with pytest.raises(ValueError):
        independence_check(-5, 5, bound=3)
    # only x^c with c <= -2 are members, and the bound must cover |d|
    for d in (-1, 0, 5):
        with pytest.raises(ValueError, match="not in the family"):
            variable_independence_check(d)
    with pytest.raises(ValueError, match="bound"):
        variable_independence_check(-3, bound=2)


def test_certificates_keep_their_json_key_order():
    # Each certificate is its JSON object, built once in output key order:
    # a pair, a single, a table row, a minimality row and a contrast row.
    assert list(independence_check(1, 3)) == [
        "member", "model", "bound", "fails_member", "checked_pairs", "violations",
        "collision_merged", "ok",
    ]
    assert list(variable_independence_check(-3)) == [
        "member", "model", "bound", "fails_member", "checked_pairs", "checked_singles",
        "violations", "ok",
    ]
    table = no_finite_basis_demo(2)
    assert list(table) == ["members", "rows", "ok"]
    assert list(table["rows"][0]) == [
        "member", "model", "collision_merged", "fails_member", "satisfies_rest", "violations",
    ]
    minimality = minimality_sweep("w1", member_bound=0, separation_bound=2, nmax=1, dmax=0)
    assert list(minimality) == ["model", "member_rows", "single_rows", "sweeps", "probes", "ok"]
    assert list(minimality["member_rows"][0]) == [
        "member", "model", "bound", "fails_member", "checked_pairs", "violations",
        "collision_merged", "ok", "single_violations",
    ]
    assert list(minimality["sweeps"]["wide"]) == ["config", "spaces", "summary", "timings"]
    contrast = char_contrast(3, bound=1)
    assert list(contrast) == ["p", "bound", "rows"]
    assert list(contrast["rows"][0]) == ["a", "b", "member", "holds"]


def test_variable_independence_examples():
    assert variable_independence_check(-2, bound=6)["ok"]
    assert variable_independence_check(-5, bound=6)["ok"]
    # the separating algebra for degree -2 satisfies the bracket at (0, 0)
    model = onedim_model(GF2, -2)
    f = LiePoly.monomial(GF2, (Var(1, 0), Var(2, 0)))
    assert satisfies_multilinear(model, f)


def test_leading_family_members_order():
    members = leading_family_members(6)
    assert members[0] == (0, 0)
    assert members[1:6] == [(-2, 0), (-1, -1), (-1, 1), (0, 2), (1, 1)]
    assert len(leading_family_members(15)) == 15


def test_no_finite_basis_demo():
    demo = no_finite_basis_demo(1)
    assert demo["ok"] and len(demo["rows"]) == 1
    demo = no_finite_basis_demo(10)
    assert demo["ok"] and len(demo["rows"]) == 10
    assert demo["members"] == [row["member"] for row in demo["rows"]]
    for row in demo["rows"]:
        assert row["fails_member"] and row["satisfies_rest"]
    with pytest.raises(ValueError):
        no_finite_basis_demo(0)


@pytest.mark.parametrize(
    "run",
    [
        lambda: independence_check(-1, 3, bound=5),
        lambda: variable_independence_check(-3, bound=4),
        lambda: no_finite_basis_demo(6),
        lambda: minimality_sweep("u1", member_bound=2, separation_bound=4),
        lambda: minimality_sweep("w1", member_bound=2, separation_bound=4, nmax=1, dmax=0),
        lambda: char_contrast(3, bound=4),
    ],
    ids=["pair", "single", "table", "minimality-u1", "minimality-w1", "contrast"],
)
def test_separation_checks_are_counted_in_closed_form(monkeypatch, run):
    """The first count each command checks against MAX_SEPARATION_CHECKS,
    before it lists a member, is the number of identity checks it then
    makes (a minimality sweep's single-variable certificates count again)."""
    counted, made = [], []
    check, inner = verify._check_separations, verify.satisfies_multilinear

    def counting_check(checks, where):
        counted.append(checks)
        check(checks, where)

    def counting(model, f):
        made.append(f)
        return inner(model, f)

    monkeypatch.setattr(verify, "_check_separations", counting_check)
    monkeypatch.setattr(verify, "satisfies_multilinear", counting)
    run()
    assert counted[0] == len(made)


# -- minimality -----------------------------------------------------------------


def test_minimality_u1():
    report = minimality_sweep("u1", member_bound=2, separation_bound=4)
    assert report["ok"]
    assert report["member_rows"]
    assert all(row["ok"] for row in report["member_rows"])
    assert not report["sweeps"]


def test_minimality_w1_probes():
    report = minimality_sweep(
        "w1", member_bound=2, separation_bound=4, nmax=2, dmax=1
    )
    assert set(report["sweeps"]) == {"wide", "tight"}
    for variant in ("wide", "tight"):
        probes = report["probes"][variant]
        assert [p["degrees"] for p in probes] == [list(t) for t in PROBE_TUPLES]
    wide_probe = report["probes"]["wide"][0]
    assert wide_probe["sound"] and wide_probe["complete"]
    tight_probe = report["probes"]["tight"][0]
    assert tight_probe["dimIdentity"] == 1
    # the tight family result at (-1, 1) is reported with a witness when
    # the spans differ; the witness must revalidate either way
    if not tight_probe["complete"]:
        assert "witness" in tight_probe
        assert revalidate_entry(tight_probe, report["sweeps"]["tight"]["config"])
    # the wide-only member [x1^-1, x2^-1] has no full separation:
    # its algebra violates a single-variable member
    row = next(r for r in report["member_rows"] if r["member"] == "[x1^-1, x2^-1]")
    assert row["single_violations"] == ["x1^-2"]
    assert not row["ok"]


def test_minimality_rejects_other_models():
    with pytest.raises(ValueError):
        minimality_sweep("onedim:-2")
    with pytest.raises(ValueError, match="nonnegative"):
        minimality_sweep("u1", member_bound=-1)


@pytest.mark.parametrize("separation_bound", [1, 0, -1])
def test_minimality_refuses_bounds_below_the_single_members(separation_bound):
    # below 2 no x^c, c <= -2, is in range, so no single member would be checked
    with pytest.raises(ValueError, match="separation bound"):
        minimality_sweep("w1", member_bound=0, separation_bound=separation_bound, nmax=1, dmax=0)


def _sweep_of(*entries):
    """A report of hand-written entries at the probe degrees, as
    verify_basis_theorem would return it."""
    spaces = [dict(entry, degrees=list(degrees)) for entry, degrees in zip(entries, PROBE_TUPLES)]
    return VerificationReport(config={}, spaces=spaces, summary=summarize(spaces))


PASSED = {"sound": True, "complete": True}
UNSOUND = {"sound": False, "complete": True}
INCOMPLETE = {"sound": True, "complete": False}


@pytest.mark.parametrize(
    "wide, tight, ok",
    [(PASSED, PASSED, True), (PASSED, UNSOUND, False), (UNSOUND, PASSED, False),
     (INCOMPLETE, PASSED, False), (PASSED, INCOMPLETE, True)],
    ids=["both-pass", "tight-unsound", "wide-unsound", "wide-fails", "tight-incomplete"],
)
def test_minimality_ok_reads_both_sweeps(monkeypatch, wide, tight, ok):
    """Every row of this minimality sweep is ok, so ``ok`` is the sweep
    half: no unsound entry in either sweep, and a passing wide sweep; a
    sound but incomplete tight sweep is the expected outcome."""
    sweeps = {"wide": _sweep_of(wide, PASSED), "tight": _sweep_of(PASSED, tight)}
    monkeypatch.setattr(verify, "verify_basis_theorem", lambda config: sweeps[config.family_range])
    report = minimality_sweep("w1", member_bound=0, separation_bound=2, nmax=1, dmax=0)
    assert all(row["ok"] for row in report["member_rows"] + report["single_rows"])
    assert report["probes"]["tight"][1]["degrees"] == [-1, 3]
    assert report["ok"] is ok


# -- characteristic contrast -------------------------------------------------------


def test_char_contrast_gf3():
    report = char_contrast(3, bound=3)
    verdicts = {(row["a"], row["b"]): row["holds"] for row in report["rows"]}
    assert verdicts[(1, 3)] is False
    assert verdicts[(1, 1)] is True
    assert verdicts[(0, 0)] is True
    with pytest.raises(ValueError):
        char_contrast(2)
    with pytest.raises(ValueError):
        char_contrast(4)
    with pytest.raises(ValueError, match="nonnegative"):
        char_contrast(3, bound=-1)


def _coordinates_witness(model, family, space, ident):
    """The soundness-witness search by certified coordinates: the first
    consequence instance whose coordinates the identity subspace misses."""
    for tree in consequence_instances(family, space):
        coords = space.coordinates(tree)
        if not ident.contains_vector(coords):
            return format_polynomial(space.poly_from_coords(coords))
    return None


@pytest.mark.parametrize("model, family_range", [("u1", "wide"), ("w1", "wide"), ("w1", "tight")])
def test_witness_by_evaluation_is_the_coordinates_witness(model, family_range):
    """Over GF(3), on the nmax=4, dmax=4 range plus seeded n = 5 extras, each
    unsound entry's witness is the first instance found by the coordinates
    search."""
    rng = random.Random(f"witness/{model}/{family_range}")
    extras = [tuple(sorted(rng.randint(-4, 4) for _ in range(5))) for _ in range(8)]
    config = SweepConfig(
        model=model, family_range=family_range, nmax=4, dmax=4, field="gf3",
        extra_degree_tuples=extras,
    )
    gf3 = Field.gf(3)
    spec = parse_model(model, gf3)
    family = config.family()
    unsound = 0
    for entry in verify_basis_theorem(config).spaces:
        if entry["sound"] is not False:
            continue
        unsound += 1
        space = MultilinearSpace.for_degrees(entry["degrees"], gf3)
        want = _coordinates_witness(spec, family, space, identity_subspace(spec, space))
        assert entry["witness"] == want, entry["degrees"]
    assert unsound >= 50
