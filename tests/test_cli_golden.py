"""Golden gate for the command line: every verb on fixed arguments, in
both output formats, compared byte for byte with recorded stdout and
exit codes.

``data/cli_golden.json`` was recorded before the verifier's duplicated
machinery was collapsed into single implementations, and the refactor
had to leave it unchanged. JSON output is compared after dropping every
``timings`` object, the only wall-clock part of a report. Regenerate the
file (``python tests/test_cli_golden.py``) only for an intended change
of output, never to make a refactor pass.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from wittid.cli import main

DATA = Path(__file__).parent / "data" / "cli_golden.json"

# Saved reports that the ``report`` cases read; {name} in a case's argv
# is replaced by the path of that report.
REPORTS = {
    "u1": ["--seed", "7", "verify-basis", "--nmax", "3", "--dmax", "2"],
    "w1_tight": ["verify-basis", "--model", "w1", "--range", "tight", "--nmax", "3", "--dmax", "2"],
    "gf3": ["--field", "gf3", "verify-basis", "--nmax", "3", "--dmax", "1"],
}

CASES = {
    "is-identity-monomial": ["is-identity", "--model", "u1", "[x1^1, x2^3]"],
    "is-identity-not": ["is-identity", "--model", "u1", "[x1^1, x2^2]"],
    "is-identity-w1-single": ["is-identity", "--model", "w1", "x1^-3"],
    "is-identity-ut3": ["is-identity", "--model", "ut3:1:3", "[x1^1, x2^3]"],
    "is-identity-gf3": ["--field", "gf3", "is-identity", "[x1^1, x2^3]"],
    "is-identity-zero": ["is-identity", "0"],
    "is-identity-polynomial": [
        "is-identity", "--model", "w1", "[x1^-1, x2^1] + [x2^1, x1^-1]",
    ],
    "is-identity-undecidable": ["is-identity", "[x1^0, x2^1] + [x1^0, x1^0, x2^1]"],
    "syntax-error": ["is-identity", "[x1^1, x2"],
    "normal-form": ["normal-form", "[x1^1, x3^4, x2^2]"],
    "normal-form-zero": ["normal-form", "[x1^1, x2^3]"],
    "normal-form-long": ["normal-form", "[x2^2, x1^1, x3^0, x4^-2]"],
    "normal-form-sum": ["normal-form", "[x1^1, x2^2] + [x1^3, x2^2]"],
    "evaluate-default": ["evaluate", "--model", "u1", "[x3^1, x1^2, x2^4]"],
    "evaluate-at": [
        "evaluate", "--model", "ut3:0:2", "--at", "x1=E12, x2=E23", "[x1^0, x2^2]",
    ],
    "evaluate-rational": ["--field", "rational", "evaluate", "1/2*[x1^1, x2^3]"],
    "evaluate-no-default": ["evaluate", "--model", "ut3:2:2", "[x1^2, x2^2]"],
    "verify-basis-u1": REPORTS["u1"],
    "verify-basis-w1-tight": REPORTS["w1_tight"],
    "verify-basis-gf3": REPORTS["gf3"],
    "independence-pair": ["independence", "--r", "1", "--s", "3"],
    "independence-collision": ["independence", "--r", "-2", "--s", "0", "--bound", "4"],
    "independence-single": ["independence", "--d", "-3"],
    "independence-table": ["independence", "--count", "8"],
    "independence-usage": ["independence"],
    "minimality-u1": ["minimality", "--model", "u1", "--bound", "2", "--separation-bound", "4"],
    "minimality-w1": [
        "minimality", "--model", "w1", "--bound", "1", "--separation-bound", "3",
        "--nmax", "2", "--dmax", "1",
    ],
    "contrast": ["contrast", "--p", "3", "--bound", "3"],
    "report-u1": ["report", "{u1}"],
    "report-u1-revalidate": ["report", "{u1}", "--revalidate"],
    "report-w1-tight-revalidate": ["report", "{w1_tight}", "--revalidate"],
    "report-gf3-revalidate": ["report", "{gf3}", "--revalidate"],
}
FORMATS = ("text", "json")
VERBS = (
    "is-identity", "normal-form", "evaluate", "verify-basis",
    "independence", "minimality", "contrast", "report",
)


def _drop_timings(value):
    if isinstance(value, dict):
        return {k: _drop_timings(v) for k, v in value.items() if k != "timings"}
    if isinstance(value, list):
        return [_drop_timings(v) for v in value]
    return value


def run_cli(argv, fmt):
    """Exit code and stdout of one invocation; JSON stdout is re-dumped
    without its timings."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["--format", fmt, *argv])
    text = out.getvalue()
    if fmt == "json" and text:
        text = json.dumps(_drop_timings(json.loads(text)), indent=2) + "\n"
    return code, text


def write_reports(directory: Path) -> dict:
    paths = {}
    for name, argv in REPORTS.items():
        paths[name] = str(directory / f"{name}.json")
        run_cli(["--out", paths[name], *argv], "text")
    return paths


def record(paths: dict) -> dict:
    golden = {}
    for case, argv in CASES.items():
        filled = [arg.format(**paths) for arg in argv]
        for fmt in FORMATS:
            code, stdout = run_cli(filled, fmt)
            golden[f"{case}/{fmt}"] = {"code": code, "stdout": stdout}
    return golden


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return record(write_reports(tmp_path_factory.mktemp("reports")))


@pytest.fixture(scope="module")
def golden():
    return json.loads(DATA.read_text())


def test_golden_covers_every_verb(golden):
    verbs = {arg for argv in CASES.values() for arg in argv if arg in VERBS}
    assert verbs == set(VERBS)
    assert set(golden) == {f"{case}/{fmt}" for case in CASES for fmt in FORMATS}


@pytest.mark.parametrize("key", [f"{c}/{f}" for c in CASES for f in FORMATS])
def test_cli_output_matches_golden(key, observed, golden):
    assert observed[key] == golden[key]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        data = record(write_reports(Path(tmp)))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(data)} cases to {DATA}")
