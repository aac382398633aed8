import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from conftest import hand_report
from wittid import cli, tideal, verify
from wittid.cli import main
from wittid.verify import REPORT_SCHEMA, summarize


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_is_identity_exit_codes(capsys):
    code, out, _ = run(capsys, "is-identity", "--model", "u1", "[x1^2, x2^4]")
    assert code == 0
    assert "identity" in out
    code, out, _ = run(capsys, "is-identity", "--model", "u1", "[x1^1, x2^2]")
    assert code == 1
    assert "not an identity" in out


def test_is_identity_json(capsys):
    code, out, _ = run(
        capsys, "--format", "json", "is-identity", "--model", "u1", "[x1^1, x2^3]"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["is_identity"] is True
    assert obj["method"] == "monomial-rule"


def test_is_identity_gf3_uses_evaluation(capsys):
    # the parity shortcut is characteristic-two only
    code, out, _ = run(
        capsys,
        "--field",
        "gf3",
        "--format",
        "json",
        "is-identity",
        "--model",
        "u1",
        "[x1^1, x2^3]",
    )
    assert code == 1
    obj = json.loads(out)
    assert obj["is_identity"] is False and obj["method"] == "evaluation"


def test_is_identity_multilinear_polynomial(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "is-identity",
        "--model",
        "w1",
        "[x1^-1, x2^1] + [x2^1, x1^-1]",
    )
    assert code == 0
    assert json.loads(out)["method"] == "evaluation"


def test_is_identity_rejects_undecidable(capsys):
    code, _, err = run(
        capsys, "is-identity", "--model", "u1", "[x1^0, x2^1] + [x1^0, x1^0, x2^1]"
    )
    assert code == 2
    assert "multilinear" in err


def test_normal_form(capsys):
    code, out, _ = run(capsys, "normal-form", "[x1^1, x3^4, x2^2]")
    assert code == 0
    assert out.strip() == "[x1^1, x2^2, x3^4]"
    code, out, _ = run(capsys, "normal-form", "[x1^1, x2^3]")
    assert out.strip() == "0"


def test_evaluate_default_substitution(capsys):
    code, out, _ = run(capsys, "evaluate", "--model", "u1", "[x3^1, x1^2, x2^4]")
    assert code == 0
    assert out.strip() == "e7"
    code, out, _ = run(capsys, "evaluate", "--model", "u1", "[x1^2, x2^4, x3^1]")
    assert out.strip() == "0"


def test_evaluate_explicit_substitution(capsys):
    code, out, _ = run(
        capsys,
        "evaluate",
        "--model",
        "ut3:0:2",
        "--at",
        "x1=E12, x2=E23",
        "[x1^0, x2^2]",
    )
    assert code == 0
    assert out.strip() == "E13"



@pytest.mark.parametrize(
    "at, want",
    [("x1", "bad substitution item 'x1' (want x1=e2)"),
     ("y1=e2", "bad variable name 'y1'"),
     ("xa=e2", "bad variable name 'xa'"),
     ("x9=e2", "variable x9 does not occur in the polynomial"),
     ("x1=e7", "'e7' is not a basis vector of degree 1 in u1"),
     ("x1=e1", "substitution misses x2^2")],
)
def test_evaluate_refuses_a_bad_substitution(capsys, at, want):
    code, out, err = run(capsys, "evaluate", "--model", "u1", "--at", at, "[x1^1, x2^2]")
    assert code == 2
    assert out == ""
    assert want in err


def test_evaluate_refuses_a_variable_assigned_twice(capsys):
    # Two values for x1: neither may win in silence.
    code, out, err = run(
        capsys, "evaluate", "--model", "ut3:0:0", "--at", "x1=E12, x1=E23, x2=E23",
        "[x1^0, x2^0]",
    )
    assert code == 2 and out == ""
    assert "variable x1 is assigned twice" in err


def test_evaluate_substitution_allows_spaces(capsys):
    code, out, _ = run(
        capsys, "evaluate", "--model", "u1", "--at", "x1 = e1 , x2=e2", "[x1^1, x2^2]"
    )
    assert code == 0
    assert out.strip() == "e3"

def test_evaluate_needs_at_for_wide_components(capsys):
    code, _, err = run(capsys, "evaluate", "--model", "ut3:2:2", "[x1^2, x2^2]")
    assert code == 2
    assert "--at" in err


def test_verify_basis_json_and_exit(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "--out",
        str(out_path),
        "verify-basis",
        "--model",
        "u1",
        "--nmax",
        "3",
        "--dmax",
        "2",
    )
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, REPORT_SCHEMA)
    assert obj["summary"]["failed"] == 0
    saved = json.loads(out_path.read_text())
    assert saved["summary"] == obj["summary"]


def test_verify_basis_gf3_fails_without_crashing(capsys):
    code, out, _ = run(
        capsys,
        "--field",
        "gf3",
        "verify-basis",
        "--model",
        "u1",
        "--nmax",
        "2",
        "--dmax",
        "3",
    )
    assert code == 1
    assert "FAIL" in out


def test_report_verb_roundtrip(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    run(
        capsys,
        "--format",
        "json",
        "--out",
        str(out_path),
        "verify-basis",
        "--model",
        "w1",
        "--nmax",
        "2",
        "--dmax",
        "2",
    )
    code, out, _ = run(capsys, "report", str(out_path))
    assert code == 0
    assert "passed" in out
    code, out, _ = run(capsys, "report", str(out_path), "--revalidate")
    assert code == 0
    assert "revalidated" in out


def test_report_verb_revalidates_failures(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    run(
        capsys,
        "--field",
        "gf3",
        "--out",
        str(out_path),
        "verify-basis",
        "--model",
        "u1",
        "--nmax",
        "2",
        "--dmax",
        "3",
    )
    code, out, _ = run(capsys, "report", str(out_path), "--revalidate")
    assert code == 1  # the sweep failed, but the witnesses are valid
    assert "witnesses revalidated" in out


def test_independence_verbs(capsys):
    code, out, _ = run(capsys, "independence", "--r", "0", "--s", "2")
    assert code == 0
    code, out, _ = run(capsys, "independence", "--d", "-2")
    assert code == 0
    code, out, _ = run(capsys, "--format", "json", "independence", "--count", "3")
    assert code == 0
    obj = json.loads(out)
    assert len(obj["rows"]) == 3 and obj["ok"]
    code, _, err = run(capsys, "independence")
    assert code == 2


@pytest.mark.parametrize(
    "argv, given",
    [
        (["--r", "0", "--s", "2", "--d", "-3"], "--d --r --s"),
        (["--r", "0", "--d", "-3"], "--d --r"),
        (["--r", "1", "--count", "2"], "--count --r"),
        (["--s", "2", "--count", "2"], "--count --s"),
        (["--d", "-2", "--count", "2"], "--count --d"),
    ],
)
def test_independence_refuses_a_mix_of_options(capsys, argv, given):
    # Each names two certificates; running one would drop the other silently.
    code, out, err = run(capsys, "independence", *argv)
    assert code == 2 and out == ""
    want = f"independence takes --r and --s, or --d, or --count, not a mix: got {given}"
    assert err == f"wittid: {want}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["independence", "--d", "0"], "x^0 is not in the family"),
        (["independence", "--d", "5"], "x^5 is not in the family"),
        (["--format", "json", "independence", "--d", "-3", "--bound", "-1"], "bound"),
        (["contrast", "--p", "3", "--bound", "-2"], "bound"),
        (["minimality", "--model", "u1", "--bound", "-1"], "bound"),
        (
            ["--format", "json", "minimality", "--model", "w1", "--separation-bound", "1",
             "--bound", "0", "--nmax", "1", "--dmax", "0"],
            "separation bound",
        ),
        (["verify-basis", "--model", "u1", "--nmax", "2", "--dmax", "1", "--budget", "-1"], "budget"),
        (["verify-basis", "--model", "u1", "--nmax", "2", "--dmax", "1", "--budget", "nan"], "budget"),
        (["verify-basis", "--model", "u1", "--nmax", "2", "--dmax", "1", "--budget", "inf"], "budget"),
    ],
)
def test_vacuous_or_empty_ranges_exit_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("wittid: ") and message in err


def test_refused_budget_writes_no_report(capsys, tmp_path):
    # a NaN budget would reach the report as the non-JSON token NaN
    out_path = tmp_path / "r.json"
    code, out, err = run(
        capsys, "--out", str(out_path), "verify-basis", "--model", "u1",
        "--nmax", "2", "--dmax", "1", "--budget", "nan",
    )
    assert code == 2 and "budget" in err
    assert not out_path.exists()


def test_size_cap_writes_no_report(capsys, tmp_path, monkeypatch):
    # The sweep must be refused before it starts; if it were not, this
    # stand-in would fail the test instead of running a 9-variable sweep.
    def no_sweep(config):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(cli, "verify_basis_theorem", no_sweep)
    out_path = tmp_path / "r.json"
    code, out, err = run(
        capsys, "--out", str(out_path), "verify-basis", "--model", "u1",
        "--nmax", "9", "--dmax", "0",
    )
    assert code == 2 and out == ""
    assert "the sweep reaches a component of 9 variables; at most 8" in err
    assert not out_path.exists()


def test_an_absurd_sweep_exits_two(capsys, tmp_path, monkeypatch):
    # nmax 8, dmax 40 has about 7*10^10 components: refused before any is listed.
    def no_sweep(config):
        raise AssertionError("a sweep started")

    monkeypatch.setattr(cli, "verify_basis_theorem", no_sweep)
    out_path = tmp_path / "r.json"
    code, out, err = run(
        capsys, "--out", str(out_path), "verify-basis", "--nmax", "8", "--dmax", "40",
    )
    assert code == 2 and out == ""
    assert "the sweep has 70,625,252,862 components; at most 10,000 are supported" in err
    assert not out_path.exists()


@pytest.mark.parametrize(
    "argv, want",
    [
        (["independence", "--r", "0", "--s", "2", "--bound", "1000000000"],
         "the certificate makes 1,000,000,002,000,000,001 separation checks"),
        (["independence", "--d", "-2", "--bound", "1000000000"], "the certificate makes"),
        (["independence", "--count", "1000000000"], "the separation table makes"),
        (["minimality", "--model", "w1", "--bound", "1000000000",
          "--separation-bound", "1000000000"], "the minimality sweep makes"),
        (["contrast", "--p", "3", "--bound", "1000000000"], "the contrast makes"),
    ],
)
def test_absurd_separation_bounds_exit_two(capsys, monkeypatch, argv, want):
    # About 10^18 checks each: refused before any member is listed.
    def no_list(self, bound):
        raise AssertionError("members were listed")

    monkeypatch.setattr(tideal.BasisFamily, "brackets", no_list)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert want in err and "at most 100,000 are supported" in err


@pytest.mark.parametrize("nmax, extras", [(9, ()), (2, [(0, 1), (2,) * 9])])
def test_report_past_the_size_cap_exits_two(capsys, tmp_path, nmax, extras):
    path = tmp_path / "edited.json"
    path.write_text(hand_report(nmax, extras))
    code, out, err = run(capsys, "report", str(path), "--revalidate")
    assert code == 2 and out == ""
    assert "report.config reaches a component of 9 variables; at most 8" in err


def _no_span(*args, **kwargs):
    raise AssertionError("a component was computed")


def _report_with_entry(tmp_path, degrees, orbit, dim):
    """A hand-written u1 report, nmax 2 and dmax 0, whose one entry is a
    passing entry of the given degrees, which that sweep does not list."""
    data = json.loads(hand_report(2))
    data["spaces"].append({
        "n": len(degrees), "degrees": list(degrees), "orbit": orbit, "dimP": dim,
        "dimIdentity": dim, "dimConsequence": dim, "sound": True, "complete": True,
    })
    data["summary"]["passed"] = 1
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(data))
    return path


def test_report_refuses_to_revalidate_a_wide_entry(capsys, tmp_path, monkeypatch):
    # An entry outside the configured sweep is reported invalid without
    # being computed; revalidate_entry would refuse it by size as well.
    monkeypatch.setattr(verify, "identity_subspace", _no_span)
    path = _report_with_entry(tmp_path, [0] * 9, 1, 40320)
    code, out, _ = run(capsys, "report", str(path), "--revalidate")
    assert code == 1
    assert "COVERAGE MISMATCH" in out and f"INVALID witnesses at [{[0] * 9}]" in out


def test_report_does_not_compute_an_off_sweep_entry(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(verify, "identity_subspace", _no_span)
    degrees = [1, 2, 2, 2, 2, 2, 2]
    path = _report_with_entry(tmp_path, degrees, 7, 720)
    code, out, _ = run(capsys, "report", str(path), "--revalidate")
    assert code == 1
    assert "COVERAGE MISMATCH" in out and f"INVALID witnesses at [{degrees}]" in out


def test_minimality_verb(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "minimality",
        "--model",
        "w1",
        "--bound",
        "2",
        "--separation-bound",
        "4",
        "--nmax",
        "2",
        "--dmax",
        "1",
    )
    obj = json.loads(out)
    assert "probes" in obj and set(obj["probes"]) == {"wide", "tight"}


@pytest.mark.parametrize(
    "argv, want",
    [(["minimality", "--model", "u1", "--nmax", "99", "--dmax", "-5"],
      "need nmax >= 1 and dmax >= 0"),
     (["minimality", "--model", "w1", "--nmax", "9"], "reaches a component of 9 variables"),
     (["minimality", "--model", "u1", "--nmax", "4", "--dmax", "40"],
      "components; at most 10,000 are supported")],
    ids=["u1", "w1", "u1-components"],
)
def test_minimality_refuses_sweep_options_first(capsys, monkeypatch, argv, want):
    # Refused before the first separation check, for either model.
    def no_check(model, f):
        raise AssertionError("a separation check was made")

    monkeypatch.setattr(verify, "satisfies_multilinear", no_check)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert want in err


def test_contrast_verb(capsys):
    code, out, _ = run(capsys, "contrast", "--p", "3", "--bound", "3")
    assert code == 0
    assert "fails" in out and "holds" in out


@pytest.mark.parametrize("given", [[], ["--field", "gf3"]])
def test_contrast_accepts_its_own_field(capsys, given):
    code, out, err = run(capsys, *given, "contrast", "--p", "3", "--bound", "1")
    assert code == 0 and err == ""
    assert out.splitlines()[0] == "over gf3:"


@pytest.mark.parametrize(
    "argv",
    [
        ["--field", "gf5", "contrast", "--p", "3", "--bound", "1"],
        ["--field", "gf2", "contrast", "--p", "3", "--bound", "1"],
        ["contrast", "--p", "3", "--bound", "1", "--field", "rational"],
    ],
)
def test_contrast_refuses_another_field(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    named = argv[argv.index("--field") + 1]
    assert "gf3" in err and named in err


def _wittid(*argv) -> tuple:
    """The command line and environment that run wittid in a fresh
    interpreter on this checkout's source."""
    src = Path(cli.__file__).resolve().parent.parent
    return [sys.executable, "-m", "wittid.cli", *argv], {**os.environ, "PYTHONPATH": str(src)}


def test_huge_modulus_is_refused_at_once():
    # 2^61 - 1 is prime; trial division up to its square root would run
    # for minutes.
    command, env = _wittid("--field", f"gf{2**61 - 1}", "is-identity", "[x1^1, x2^3]")
    proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "2^31" in proc.stderr


def test_closed_stdout_is_not_a_usage_error():
    # The reader closes the pipe before wittid writes: no message, and an
    # exit code that is not the one of malformed input.
    command, env = _wittid("--field", "gf3", "verify-basis", "--nmax", "3", "--dmax", "1")
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert err == ""


def test_shared_flags_accepted_after_the_verb(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, out, _ = run(
        capsys,
        "verify-basis",
        "--model",
        "u1",
        "--nmax",
        "2",
        "--dmax",
        "1",
        "--format",
        "json",
        "--out",
        str(out_path),
    )
    assert code == 0
    assert json.loads(out)["summary"]["failed"] == 0
    assert out_path.exists()
    code, out, _ = run(capsys, "is-identity", "[x1^1, x2^3]", "--field", "gf3")
    assert code == 1  # evaluation over gf3, no parity shortcut


@pytest.mark.parametrize(
    "flag, first, last",
    [("--field", "gf3", "rational"), ("--format", "json", "text"),
     ("--out", "a.json", "b.json"), ("--seed", "3", "4")],
)
def test_shared_flags_before_and_after_the_verb(flag, first, last):
    parser = cli.build_parser()
    name = flag.lstrip("-")
    value = {"--seed": int}.get(flag, str)
    for argv, want in [
        ([flag, first, "report", "r.json"], first),
        (["report", "r.json", flag, last], last),
        ([flag, first, "report", "r.json", flag, last], last),
    ]:
        assert getattr(parser.parse_args(argv), name) == value(want), argv


def test_usage_errors_exit_two(capsys):
    code, _, err = run(capsys, "is-identity", "--model", "u1", "[x1^1, y^2]")
    assert code == 2
    assert "position" in err
    code, out, err = run(capsys, "is-identity", "x^2")
    assert code == 2 and out == ""
    assert err == "wittid: at position 1: expected an integer\n"
    code, _, err = run(capsys, "--field", "gf4", "is-identity", "[x1^1]")
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2


def test_seed_recorded_in_report(capsys):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "--seed",
        "7",
        "verify-basis",
        "--model",
        "u1",
        "--nmax",
        "1",
        "--dmax",
        "1",
    )
    assert json.loads(out)["config"]["seed"] == 7


def _saved_report(capsys, tmp_path, model="u1"):
    out_path = tmp_path / "report.json"
    run(
        capsys, "--out", str(out_path), "verify-basis", "--model", model,
        "--nmax", "2", "--dmax", "1",
    )
    return out_path, json.loads(out_path.read_text())


@pytest.mark.parametrize(
    "path",
    [("config",), ("spaces",), ("summary",), ("timings",), ("config", "field"),
     ("summary", "skipped"), ("spaces", 0, "degrees"), ("config", "nmax"),
     ("config", "extra_degree_tuples"), ("spaces", 0, "orbit"), ("config", "family")],
)
def test_report_with_missing_key_exits_two(capsys, tmp_path, path):
    out_path, data = _saved_report(capsys, tmp_path)
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    del holder[path[-1]]
    out_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "report", str(out_path), "--revalidate")
    assert code == 2
    assert out == ""
    assert f"lacks {path[-1]}" in err


# Each case sets its keys of the first entry, or of the config, to the
# value; the first key is the one refused. A sweep refuses the same
# nmax and dmax ("need nmax >= 1 and dmax >= 0"), the same workers
# ("need workers >= 1") and the same empty extra tuple ("an extra degree
# tuple needs at least one degree").
@pytest.mark.parametrize(
    "keys",
    [("n", "orbit", "dimP"), ("orbit",), ("dimP",),
     ("config.nmax", 0), ("config.nmax", -5), ("config.dmax", -3),
     ("config.extra_degree_tuples", [[1], []]), ("config.workers", -4),
     ("config.workers", 0)],
)
def test_report_below_a_schema_minimum_exits_two(capsys, tmp_path, keys):
    out_path, data = _saved_report(capsys, tmp_path)
    if keys[0].startswith("config."):
        (where, value), holder = keys, data["config"]
        keys = (where.split(".")[1],)
        schema = REPORT_SCHEMA["properties"]["config"]["properties"][keys[0]]
    else:
        where, value, holder = f"spaces[0].{keys[0]}", 0, data["spaces"][0]
        schema = REPORT_SCHEMA["properties"]["spaces"]["items"]["properties"][keys[0]]
    for key in keys:
        holder[key] = value
    out_path.write_text(json.dumps(data))
    with pytest.raises(jsonschema.ValidationError) as refused:
        jsonschema.validate(data, REPORT_SCHEMA)
    if "minimum" in schema:
        minimum = schema["minimum"]
        assert refused.value.message == f"{value} is less than the minimum of {minimum}"
        want = f"report.{where} is less than the minimum of {minimum}"
    else:
        # an array of arrays: its second member is the empty one
        assert refused.value.validator == "minItems" and refused.value.instance == []
        want = f"report.{where}[1] has fewer than 1 items"
    code, out, err = run(capsys, "report", str(out_path))
    assert code == 2
    assert out == ""
    assert want in err


@pytest.mark.parametrize(
    "argv",
    [["is-identity", "--model", "ut3:a:1", "x1^1"],
     ["evaluate", "--model", "onedim:x", "x1^1"]],
)
def test_non_integer_model_parameter_exits_two(capsys, argv):
    spec = argv[2]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"bad model spec {spec!r} (want u1|w1|ut3:<r>:<s>|onedim:<d>)" in err
    assert "invalid literal" not in err


def test_report_with_contradicting_summary_exits_one(capsys, tmp_path):
    out_path, data = _saved_report(capsys, tmp_path)
    assert data["summary"]["failed"] == 0
    data["summary"] = {"passed": len(data["spaces"]) - 1, "failed": 0, "skipped": 0}
    out_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "report", str(out_path))
    assert code == 1
    assert f"SUMMARY MISMATCH: the entries count passed {len(data['spaces'])}" in out


@pytest.mark.parametrize(
    "key, value, want",
    [("model", "ut3:1:3", "no generating family for model 'ut3:1:3'"),
     ("range", "narrow", "unknown family range 'narrow'")],
)
def test_report_without_a_family_exits_two(capsys, tmp_path, key, value, want):
    out_path, data = _saved_report(capsys, tmp_path, "w1")
    data["config"][key] = value
    out_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "report", str(out_path))
    assert code == 2
    assert out == ""
    assert want in err



@pytest.mark.parametrize(
    "value, want",
    [("gf4", "field modulus must be prime, got 4"), ("banana", "bad field spec 'banana'")],
)
@pytest.mark.parametrize("revalidate", [(), ("--revalidate",)], ids=["report", "revalidate"])
def test_report_over_a_non_field_exits_two(capsys, tmp_path, value, want, revalidate):
    out_path, data = _saved_report(capsys, tmp_path)
    data["config"]["field"] = value
    out_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "report", str(out_path), *revalidate)
    assert code == 2
    assert out == ""
    assert want in err

def test_report_with_another_family_exits_one(capsys, tmp_path):
    out_path, data = _saved_report(capsys, tmp_path, "w1")
    described = data["config"]["family"]
    data["config"]["family"] = "brackets of equal parity"
    out_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "report", str(out_path), "--revalidate")
    assert code == 1
    assert "witnesses revalidated" in out  # the entries themselves are sound
    assert (
        f"FAMILY MISMATCH: the report names 'brackets of equal parity', "
        f"its model and range give {described!r}"
    ) in out


def test_zero_denominator_exits_two(capsys):
    code, out, err = run(capsys, "--field", "rational", "is-identity", "1/0*[x1^1, x2^3]")
    assert code == 2
    assert out == "" and "zero denominator" in err


@pytest.mark.parametrize("field", ["gf3", "rational"])
def test_normal_form_refuses_other_characteristics(capsys, field):
    code, out, err = run(capsys, "--field", field, "normal-form", "[x1^1, x3^4, x2^2]")
    assert code == 2
    assert out == "" and "characteristic two" in err


def test_verify_basis_refuses_zero_workers(capsys):
    code, out, err = run(capsys, "verify-basis", "--nmax", "1", "--dmax", "0", "--workers", "0")
    assert code == 2
    assert out == "" and "workers" in err


def test_report_revalidate_refuses_forged_dims(capsys, tmp_path):
    out_path, data = _saved_report(capsys, tmp_path)
    entry = next(e for e in data["spaces"] if e["sound"] and e["complete"])
    entry["dimIdentity"] = entry["dimConsequence"] = 7
    out_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "report", str(out_path))
    assert code == 0  # the summary still agrees with the flags
    code, out, _ = run(capsys, "report", str(out_path), "--revalidate")
    assert code == 1
    assert f"INVALID witnesses at [{entry['degrees']}]" in out


@pytest.mark.parametrize("key, value", [("n", 9), ("dimP", 5), ("orbit", 3)])
def test_report_revalidate_refuses_forged_shape(capsys, tmp_path, key, value):
    out_path, data = _saved_report(capsys, tmp_path)
    entry = next(e for e in data["spaces"] if e["degrees"] == [-1, 1])
    assert entry[key] != value
    entry[key] = value
    out_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "report", str(out_path))
    assert code == 0  # only the revalidation recomputes the entry
    code, out, _ = run(capsys, "report", str(out_path), "--revalidate")
    assert code == 1
    assert "INVALID witnesses at [[-1, 1]]" in out


@pytest.mark.parametrize(
    "value, want",
    [("x", "is not of type number or null"), (True, "is not of type number or null"),
     (-5, "must be a finite number of seconds >= 0"),
     (float("nan"), "must be a finite number of seconds >= 0"),
     (float("-inf"), "must be a finite number of seconds >= 0")],
)
def test_report_with_bad_budget_exits_two(capsys, tmp_path, value, want):
    out_path, data = _saved_report(capsys, tmp_path)
    data["config"]["space_budget_s"] = value
    out_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "report", str(out_path), "--revalidate")
    assert code == 2
    assert out == ""
    assert f"report.config.space_budget_s {want}" in err


@pytest.mark.parametrize("value", [None, 0.0])
def test_report_keeps_null_and_zero_budgets(capsys, tmp_path, value):
    out_path, data = _saved_report(capsys, tmp_path)
    data["config"]["space_budget_s"] = value
    out_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "report", str(out_path), "--revalidate")
    assert code == 0
    assert "witnesses revalidated" in out


def _duplicate_last(spaces):
    spaces.append(dict(spaces[-1]))


def _drop_second(spaces):
    del spaces[1]


def _swap_first_two(spaces):
    spaces[0], spaces[1] = spaces[1], spaces[0]


@pytest.mark.parametrize(
    "edit, want",
    [(_duplicate_last, "at entry 9 the report has [1, 1] and the configured sweep has nothing"),
     (_drop_second, "at entry 1 the report has [1] and the configured sweep has [0]"),
     (_swap_first_two, "at entry 0 the report has [0] and the configured sweep has [-1]")],
)
def test_report_refuses_entries_that_miss_the_sweep(capsys, tmp_path, edit, want):
    out_path, data = _saved_report(capsys, tmp_path)
    edit(data["spaces"])
    data["summary"] = summarize(data["spaces"])
    out_path.write_text(json.dumps(data))
    code, out, _ = run(capsys, "report", str(out_path))
    assert code == 1
    assert f"COVERAGE MISMATCH: {want}" in out


@pytest.mark.parametrize(
    "path, value, want",
    [(("config", "field"), 3, "string"),
     (("spaces", 0, "dimIdentity"), "0", "integer or null"),
     (("spaces", 0, "degrees"), [1.5], "integer"),
     (("spaces", 0, "dimP"), True, "integer"),
     (("spaces", 0, "sound"), 1, "boolean or null"),
     (("config", "dmax"), "1", "integer"),
     (("config", "extra_degree_tuples"), [[1, "2"]], "integer"),
     (("config", "range"), ["wide"], "string or null"),
     (("config", "family"), 3, "string"),
     (("config", "workers"), "x", "integer"),
     (("config", "seed"), [1, 2], "integer or null")],
)
def test_report_with_wrong_scalar_type_exits_two(capsys, tmp_path, path, value, want):
    # config.range is read only for w1, so it is tested on a w1 report
    model = "w1" if path == ("config", "range") else "u1"
    out_path, data = _saved_report(capsys, tmp_path, model)
    holder = data
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    out_path.write_text(json.dumps(data))
    code, out, err = run(capsys, "report", str(out_path), "--revalidate")
    assert code == 2
    assert out == ""
    assert f"is not of type {want}" in err
