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
