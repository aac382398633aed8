"""The verdicts of ``tools/bench_pairs.py``, on synthetic pairs: no
benchmark run and no process is started."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25}


def pairs_of(name, parent, change):
    return [
        {"parent": {"metrics": {name: {"value": p}}}, "change": {"metrics": {name: {"value": c}}}}
        for p, c in zip(parent, change)
    ]


def verdict(spec, parent, change):
    out = bench_pairs.summarize(pairs_of(spec["name"], parent, change), [spec])[spec["name"]]
    return out["within_bound"], out["unresolved"]


@pytest.mark.parametrize(
    "change, want",
    [([1.2] * 4, True), ([1.25] * 4, True), ([1.3] * 4, False), ([0.8] * 4, True),
     ([1.0, 1.4, 1.4, 1.4], False)],
)
def test_lower_is_better_bound(change, want):
    assert verdict(WALL, [1.0] * 4, change) == (want, False)


@pytest.mark.parametrize(
    "change, want", [([7.6] * 4, True), ([7.4] * 4, False), ([12.0] * 4, True)]
)
def test_higher_is_better_bound(change, want):
    assert verdict(RATE, [10.0] * 4, change) == (want, False)


def test_wide_parent_spread_is_unresolved_unless_every_change_run_is_better():
    parent = [1.0, 2.0, 1.0, 2.0]  # median 1.5, quartiles 1 and 2: IQR 1 > 0.25 * 1.5
    assert verdict(WALL, parent, [1.5] * 4) == (True, True)
    assert verdict(WALL, parent, [0.9, 0.5, 0.9, 0.5]) == (True, False)
    assert verdict(WALL, parent, [1.0] * 4) == (True, True)  # ties are not better
    assert verdict(RATE, parent, [2.5] * 4) == (True, False)


def test_summary_keeps_the_gain_rule():
    out = bench_pairs.summarize(pairs_of("wall_s", [1.0] * 10, [0.5] * 10), [WALL])["wall_s"]
    assert out["gain_shown"] and out["change_wins"] == 10
    assert out["bound"] == 0.25 and out["within_bound"] and not out["unresolved"]


def test_cpus_pin_every_run_and_are_recorded(monkeypatch, tmp_path, capsys):
    runs, pinned = [], []

    def fake_run(checkout, workload, seed, seconds, cpus=None):
        runs.append(cpus)
        metrics = ("wall_s", "setup_s", "peak_rss_mb")
        return {"correct": True, "metrics": {name: {"value": 1.0} for name in metrics}}

    monkeypatch.setattr(bench_pairs, "export_revision", lambda rev, into: "0" * 40)
    monkeypatch.setattr(bench_pairs, "copy_working_tree", lambda into: None)
    monkeypatch.setattr(bench_pairs, "git", lambda *argv: "")
    monkeypatch.setattr(bench_pairs, "run_side", fake_run)

    def pin(pid, cpus):
        pinned.append((pid, cpus))

    monkeypatch.setattr(bench_pairs.os, "sched_setaffinity", pin, raising=False)
    out = tmp_path / "pairs.json"
    argv = ["--parent", "HEAD", "--workload", "sweep-w1", "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv + ["--cpus", "1,0,1"]) == 0
    capsys.readouterr()
    assert runs == [[0, 1]] * 4
    assert bench_pairs.json.loads(out.read_text())["cpus"] == [0, 1]
    # The pin is made in the child, before it runs the benchmark.
    bench_pairs.pinned_to([0, 1])()
    assert pinned == [(0, [0, 1])]
    assert bench_pairs.pinned_to(None) is None
    assert bench_pairs.main(argv) == 0
    assert runs[4:] == [None] * 4 and bench_pairs.json.loads(out.read_text())["cpus"] is None


@pytest.mark.parametrize("text", ["", "a", "0,-1", "0,,1"])
def test_cpus_refuse_what_is_not_a_cpu_list(text):
    with pytest.raises(bench_pairs.argparse.ArgumentTypeError):
        bench_pairs.parse_cpus(text)
