"""wittid benchmark: time to verdict on four verifier workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

It imports wittid from ``src/`` of the same checkout.  ``--trace 0``
measures the end-to-end metrics with nothing wrapped; ``--trace 1`` is a
separate serial run that wraps the layers' entry points (see
``tracing.py``) and reports per-layer metrics.  Every episode's outputs
are checked against known answers; any disagreement prints the result
with ``"correct": false`` and exits 1.  The last line of stdout is one
JSON object; METRICS.md describes every metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOADS = ("sweep-u1", "sweep-w1", "normal-form", "contrast-gf3")
MIN_EPISODES = 5
MIN_TRACED = 2
SETUP_PER_EPISODE = 2
CALIB_STEPS = 3_000_000
# The machine speed of the reference: the calibration loop takes this
# long.  End-to-end times are reported at this speed (see scaled()).
CALIB_REF_S = 0.150

# Set-up as a user pays it, in a fresh interpreter: import wittid, build
# the field, model and family, and build the CLI parser.  Interpreter
# start-up itself is not counted.
SETUP_CODE = r"""
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import wittid
from wittid import cli
from wittid.fields import Field
from wittid.models import parse_model
from wittid.verify import SweepConfig
field = Field.from_spec(sys.argv[2])
model = parse_model(sys.argv[3], field)
family = SweepConfig(model=sys.argv[3], field=sys.argv[2]).family()
parser = cli.build_parser()
print(time.perf_counter() - start)
"""

# Counters that must repeat exactly from one traced episode to the next.
COUNTERS = (
    "freealg.coordinates_calls", "freealg.words_expanded", "tideal.instances",
    "tideal.rank_steps", "tideal.early_exits", "linalg.inserts",
    "verify.components", "verify.witnesses", "grammar.calls", "cli.calls", "trace.spans",
)

# Per-layer metrics that go into the result line.  All of them are
# measured on every workload.  The times of layers that only
# contrast-gf3 calls (grammar, cli, witness search, revalidation) read
# 0 elsewhere, so they are printed above the result line but left out
# of it; their call counts are in it.
PER_LAYER = (
    "freealg.coordinates_s", "freealg.coordinates_calls", "freealg.words_expanded",
    "freealg.self_s",
    "tideal.instances", "tideal.rank_steps", "tideal.useful_ratio", "tideal.early_exits",
    "tideal.enumerate_s", "tideal.identity_s", "tideal.self_s",
    "models.evaluate_s", "models.self_s",
    "linalg.insert_s", "linalg.inserts", "linalg.kernel_s", "linalg.contains_s",
    "linalg.self_s",
    "verify.components", "verify.component_p50_ms", "verify.component_p99_ms",
    "verify.witnesses", "grammar.calls", "cli.calls",
    "trace.wall_s", "trace.unattributed_s", "trace.overhead_s", "trace.spans",
    "machine.calib_s",
)


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks the machine, not wittid."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIB_STEPS):
        x += i & 7
    return time.perf_counter() - start


class Calibrated:
    """Calibration loops just before and just after a measured stretch.

    On a shared virtual machine the CPU speed can drift by tens of
    percent over minutes, in step for the calibration loop and for wittid.  An end-to-end time is
    therefore reported at the reference speed: the raw time multiplied by
    CALIB_REF_S over the mean of the two calibrations around it.  Raw
    times and calibrations are printed alongside.
    """

    def __enter__(self):
        self.before = calibrate()
        return self

    def __exit__(self, *exc):
        self.after = calibrate()
        self.calib_s = (self.before + self.after) / 2
        return False

    def scaled(self, seconds: float) -> float:
        return seconds * CALIB_REF_S / self.calib_s


def measure_setup(workload) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), workload.field_spec, workload.model],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def median_of(values) -> tuple:
    return statistics.median(values), len(values)


class Checker:
    """Collects known-answer outcomes and holds every episode's digest to
    the first one and to the digests recorded in expected.json."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.attempted = 0
        self.failures = []
        expected = json.loads((HERE / "expected.json").read_text())[workload.name]
        self.fixed_digest = expected["fixed_digest"]
        self.seed_digest = (
            expected["default_seed_digest"] if seed == expected["default_seed"] else None
        )
        self.digest = None

    def check(self, episode) -> None:
        verdict = self.workload.check(episode)
        self.attempted += verdict.attempted
        self.failures.extend(verdict.failures)
        if verdict.fixed_digest != self.fixed_digest:
            self.failures.append(f"seed-independent digest changed: {verdict.fixed_digest}")
        if self.seed_digest is not None and verdict.digest != self.seed_digest:
            self.failures.append(f"default-seed digest changed: {verdict.digest}")
        if self.digest is None:
            self.digest = verdict.digest
        elif verdict.digest != self.digest:
            self.failures.append("report digest differs between episodes")


def keep_going(start, seconds, count, minimum, durations) -> bool:
    """Start another episode while it is expected to end within the run."""
    if count < minimum:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def run_untraced(workload, checker, seconds) -> dict:
    # Set-up samples are taken next to every episode, inside the same
    # calibration bracket, so that both cover the same stretch of time.
    raw_setup, raw_walls, setup, walls, calib = [], [], [], [], []
    start = time.perf_counter()
    while keep_going(start, seconds, len(walls), MIN_EPISODES, raw_walls):
        with Calibrated() as bracket:
            samples = [measure_setup(workload) for _ in range(SETUP_PER_EPISODE)]
            episode = workload.episode()
        checker.check(episode)
        raw_setup.extend(samples)
        raw_walls.append(episode.wall_s)
        setup.extend(bracket.scaled(s) for s in samples)
        walls.append(bracket.scaled(episode.wall_s))
        calib.append(bracket.calib_s)
    print("  raw episode walls (s): " + " ".join(f"{w:.3f}" for w in raw_walls))
    print("  calibration (s): " + " ".join(f"{c:.4f}" for c in calib))
    print(
        f"  raw medians: wall {statistics.median(raw_walls):.4f} s, "
        f"set-up {statistics.median(raw_setup):.4f} s, "
        f"calibration {statistics.median(calib):.4f} s (reference {CALIB_REF_S} s)"
    )
    return {
        "wall_s": (*median_of(walls), "s"),
        "setup_s": (*median_of(setup), "s"),
        "peak_rss_mb": (peak_rss_mb(), 1, "MiB"),
    }


def run_traced(workload, checker, seconds, seed) -> dict:
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    untraced, traced, revalidate, calib, per_episode, component_ms = [], [], [], [], [], []
    start = time.perf_counter()
    while keep_going(
        start, seconds, len(traced), MIN_TRACED, [a + b for a, b in zip(untraced, traced)]
    ):
        with Calibrated() as bracket:
            episode = workload.episode(serial=True)
        calib.append(bracket.calib_s)
        checker.check(episode)
        untraced.append(episode.wall_s)
        if episode.revalidate_s is not None:
            revalidate.append(episode.revalidate_s)

        tracer.reset()
        tracer.install()
        try:
            episode = workload.episode(serial=True, tracer=tracer)
        finally:
            tracer.uninstall()
        checker.check(episode)
        traced.append(episode.wall_s)
        layers = layer_metrics(tracer.spans)
        component_ms.extend(layers.pop("_component_ms"))
        per_episode.append(layers)

    count = len(per_episode)
    metrics = {}
    for name in per_episode[0]:
        values = [layers[name] for layers in per_episode]
        if name in COUNTERS:
            if len(set(values)) != 1:
                checker.failures.append(f"counter {name} differs between traced episodes: {values}")
            metrics[name] = (values[0], count, "count")
        else:
            metrics[name] = (statistics.median(values), count, "s")
    first = per_episode[0]
    instances = first["tideal.instances"]
    metrics["tideal.useful_ratio"] = (
        first["tideal.rank_steps"] / instances if instances else 0.0, count, "ratio"
    )
    ms = sorted(component_ms)
    metrics["verify.component_p50_ms"] = (_percentile(ms, 0.50), len(ms), "ms")
    metrics["verify.component_p99_ms"] = (_percentile(ms, 0.99), len(ms), "ms")
    metrics["cli.report_revalidate_s"] = (
        statistics.median(revalidate) if revalidate else 0.0, len(revalidate), "s"
    )
    metrics["trace.overhead_s"] = (
        statistics.median(traced) - statistics.median(untraced), count, "s"
    )
    metrics["machine.calib_s"] = (*median_of(calib), "s")
    self_sum = sum(metrics[name][0] for name in metrics if name.endswith(".self_s"))
    print(
        f"  layer self times sum to {self_sum:.4f} s, unattributed "
        f"{metrics['trace.unattributed_s'][0]:.4f} s, traced wall {metrics['trace.wall_s'][0]:.4f} s"
    )
    tracer.dump(OUT / f"spans-{workload.name}-seed{seed}.json.gz")
    return metrics


def _percentile(sorted_values, q) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def run_one(name, seed, seconds, trace) -> int:
    if not (SRC / "wittid" / "__init__.py").is_file():
        print(f"perfbench: no wittid sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        workload = workloads.make(name, seed, workdir)
        checker = Checker(workload, seed)
        print(f"workload {name} seed {seed} trace {trace}: {workload.describe()}")
        if trace:
            metrics = run_traced(workload, checker, seconds, seed)
        else:
            metrics = run_untraced(workload, checker, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for metric, (value, samples, unit) in metrics.items():
        note = f" ({samples} samples)" if unit in ("s", "ms") else ""
        print(f"  {metric} = {value:.6g} {unit}{note}")
    failed = len(checker.failures)
    print(f"  fail_fraction = {failed}/{checker.attempted} components")
    for problem in checker.failures[:20]:
        print(f"  KNOWN-ANSWER FAILURE: {problem}")
    reported = PER_LAYER if trace else tuple(metrics)
    result = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        # A component can fail more than one check; count it once at most.
        "failed": min(failed, checker.attempted),
        "metrics": {
            metric: {"value": metrics[metric][0], "unit": metrics[metric][2]}
            for metric in reported
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(seed, seconds, trace) -> int:
    """Every workload in its own process, so set-up and peak RSS stay per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            code = code or 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
