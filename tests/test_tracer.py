"""Smoke test of ``perfbench/tracing.py`` against the current library: the
tracer wraps every entry point it names, its spans count the calls the
per-layer metrics are built from, and ``uninstall`` leaves the library as
it found it. A rename in the library fails here rather than zeroing a
metric of the benchmark."""

import importlib.util
from pathlib import Path

import pytest

import wittid
from wittid import cli, fields, freealg, grammar, linalg, models, tideal, verify
from wittid.verify import SweepConfig

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

_OWNERS = (wittid, fields, freealg, grammar, linalg, models, tideal, verify, cli,
           freealg.MultilinearSpace, linalg.SubspaceBasis)


def _attributes():
    return [dict(vars(owner)) for owner in _OWNERS]


@pytest.fixture
def tracer():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _calls(tracer, name):
    return sum(1 for span in tracer.spans if tracing.NAMES[span[0]] == name)


def test_install_wraps_every_named_entry_point(tracer):
    wrapped = {getattr(owner, attr) for owner, attr, _ in tracer._patches}
    assert all(hasattr(fn, "__wrapped__") for fn in wrapped)
    assert verify.revalidate_entry in wrapped and cli.main in wrapped


def test_report_revalidate_records_one_span_per_entry(tracer, tmp_path, capsys):
    report = verify.verify_basis_theorem(SweepConfig(model="u1", nmax=2, dmax=1))
    path = tmp_path / "report.json"
    path.write_text(report.to_json())
    assert cli.main(["report", str(path), "--revalidate"]) == 0
    assert "witnesses revalidated" in capsys.readouterr().out
    assert _calls(tracer, "cli.main") == 1
    assert _calls(tracer, "verify.revalidate_entry") == len(report.spaces) == 9


def test_sweep_records_identity_spans(tracer):
    report = verify.verify_basis_theorem(SweepConfig(model="w1", nmax=2, dmax=1))
    assert _calls(tracer, "verify.verify_basis_theorem") == 1
    assert _calls(tracer, "tideal.identity_subspace") == len(report.spaces) == 9
    assert _calls(tracer, "verify.component") == 9
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["verify.components"] == 9 and metrics["tideal.identity_s"] > 0


def test_uninstall_puts_every_original_back():
    before = _attributes()
    tracer = tracing.Tracer()
    tracer.install()
    assert _attributes() != before
    tracer.uninstall()
    assert _attributes() == before
    assert tracer._patches == []
