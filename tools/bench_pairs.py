"""Alternating parent/change pairs of one benchmark workload.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --parent REV --workload NAME [--pairs 10]
        [--seed N] [--cpus 0[,1...]] [--out bench/BENCH_x.json]

The parent revision is exported with ``git archive`` into a temporary
directory, and the working tree's files that git does not ignore are
copied beside it, so neither side starts with bytecode caches.
``perfbench/run.py --workload NAME`` then runs once on the parent and
once on the working tree per pair, one run at a time, with
``PYTHONDONTWRITEBYTECODE=1``; the side that runs first alternates from
pair to pair. Each run's last stdout line is its JSON result line.
With ``--cpus``, every run is pinned to the listed CPUs with
``os.sched_setaffinity`` before it starts (this acts on the tool's own
child processes only), so a one-core regime is reproducible.

The output JSON holds every result line, and per end-to-end metric of
``BENCHMARK.json`` each side's median and quartiles and the number of
pairs the change wins (ties count for neither side). A gain is shown
when the change wins at least nine tenths of the pairs and the medians
differ by more than the distance between the parent's quartiles.

Each metric also gets a no-regression verdict against its ``bound``, a
share of the parent's median: ``within_bound`` when the change's median
is no worse than the parent's by more than the bound, and ``unresolved``
when the parent's interquartile range is wider than the bound and not
every run of the change reads better than every run of the parent.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800


def git(*argv: str) -> str:
    return subprocess.run(
        ["git", *argv], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def export_revision(rev: str, into: Path) -> str:
    """Extract ``rev`` of this repository into ``into``; returns its hash."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = subprocess.run(
        ["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:  # Python before 3.10.12 has no extraction filters
            tar.extractall(into)
    return commit


def copy_working_tree(into: Path) -> None:
    """Copy the tracked and the untracked, not ignored, files of the
    working tree, so that neither side finds bytecode caches."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def parse_cpus(text: str) -> list:
    """``"0,1"`` -> ``[0, 1]``: distinct CPU numbers, sorted."""
    try:
        cpus = sorted({int(part) for part in text.split(",")})
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a list of CPU numbers: {text!r}") from None
    if cpus[0] < 0:
        raise argparse.ArgumentTypeError(f"a CPU number is negative: {text!r}")
    return cpus


def pinned_to(cpus):
    """The ``preexec_fn`` that pins a child process to ``cpus``; None
    when ``cpus`` is None."""
    if cpus is None:
        return None
    return lambda: os.sched_setaffinity(0, cpus)


def run_side(checkout: Path, workload: str, seed: int, seconds: float, cpus=None) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        preexec_fn=pinned_to(cpus),
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"no result line from {checkout} (exit {proc.returncode}): {proc.stderr[-2000:]}"
        ) from None
    result["exit_code"] = proc.returncode
    return result


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list, metrics: list) -> dict:
    """Per metric: both sides' spread, the change's wins, whether a gain
    is shown, and the no-regression verdict, by the rules above."""
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        losses = sum((c > p) if lower else (c < p) for p, c in zip(parent, change))
        before, after = spread(parent), spread(change)
        slack = spec["bound"] * abs(before["median"])
        worse_by = (after["median"] - before["median"]) * (1 if lower else -1)
        all_better = max(change) < min(parent) if lower else min(change) > max(parent)
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": before,
            "change": after,
            "change_wins": wins,
            "change_losses": losses,
            "pairs": len(pairs),
            "gain_shown": wins >= 0.9 * len(pairs)
            and abs(after["median"] - before["median"]) > before["iqr"]
            and (after["median"] < before["median"]) == lower,
            "bound": spec["bound"],
            "within_bound": worse_by <= slack,
            "unresolved": before["iqr"] > slack and not all_better,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--cpus", type=parse_cpus, default=None, help="pin every run to these CPUs, e.g. 0 or 0,1"
    )
    parser.add_argument("--out", type=Path, default=None, help="write the JSON here too")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        sides = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        commit = export_revision(args.parent, sides["parent"])
        copy_working_tree(sides["change"])
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_side(sides[side], args.workload, args.seed, seconds, args.cpus)
            print(
                f"pair {i + 1}/{args.pairs}: "
                + ", ".join(
                    f"{side} wall_s {pair[side]['metrics']['wall_s']['value']:.4f}"
                    for side in ("parent", "change")
                ),
                file=sys.stderr,
            )
            pairs.append(pair)

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "cpus": args.cpus,
        "parent": commit,
        "change": {
            "working_tree_of": git("rev-parse", "HEAD"),
            "uncommitted_changes": bool(git("status", "--porcelain")),
        },
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "all_correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
        "summary": summarize(pairs, benchmark["end_to_end"]),
        "pairs": pairs,
    }
    text = json.dumps(report, indent=2)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(text + "\n")
    print(text)
    return 0 if report["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
