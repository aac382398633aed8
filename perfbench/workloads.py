"""The benchmark's workloads, their seeded inputs and their known answers.

Every workload runs one *episode* at a time: a fixed part that is the
same for every seed, plus a part drawn from the seed.  ``episode()``
times only calls into wittid; the known-answer check runs afterwards in
``check()``, outside the timed region.  The known answers come from a
closed form, not from the program: the models ``u1`` (basis e_i, all i)
and ``w1`` (e_i, i >= -1) have one-dimensional components and
``[e_i, e_j] = (j - i) e_{i+j}``, so the evaluation map of a multilinear
component has rank 0 or 1, and it is 1 exactly when some left-normed
monomial has a nonzero product of structure constants.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import time
from dataclasses import dataclass, field
from math import factorial
from typing import Optional

import wittid
from wittid import cli, freealg, models, tideal, verify
from wittid.fields import Field

ENTRY_KEYS = (
    "n", "degrees", "orbit", "dimP", "dimIdentity", "dimConsequence",
    "sound", "complete", "witness", "skipped",
)
CONFIG_KEYS = (
    "model", "family", "range", "field", "nmax", "dmax", "space_budget_s",
    "extra_degree_tuples", "seed",
)
SUMMARY_KEYS = ("passed", "failed", "skipped")


@dataclass
class Episode:
    """Timings and program outputs of one episode."""

    wall_s: float
    revalidate_s: Optional[float] = None
    outputs: dict = field(default_factory=dict)


@dataclass
class Verdict:
    """Known-answer outcome of one episode."""

    attempted: int
    failures: list
    digest: str
    fixed_digest: str


# -- closed-form known answers -------------------------------------------------


def expected_rank(model: str, p: int, degrees) -> int:
    """Rank (0 or 1) of the evaluation map of the component into the model."""
    lowest = -1 if model == "w1" else None
    if lowest is not None and min(degrees) < lowest:
        return 0
    if len(degrees) == 1:
        return 1
    lead, rest = degrees[-1], degrees[:-1]
    for perm in itertools.permutations(rest):
        total, coeff = lead, 1
        for d in perm:
            coeff = coeff * (d - total) % p
            total += d
            if coeff == 0 or (lowest is not None and total < lowest):
                break
        else:
            return 1
    return 0


def orbit(degrees) -> int:
    count = factorial(len(degrees))
    for d in set(degrees):
        count //= factorial(degrees.count(d))
    return count


def canonical_tuples(nmax: int, dmax: int) -> list:
    return [
        list(t)
        for n in range(1, nmax + 1)
        for t in itertools.combinations_with_replacement(range(-dmax, dmax + 1), n)
    ]


def entry_failures(entry: dict, model: str, p: int) -> list:
    """Disagreements of one sweep entry with the closed form and with the
    report's own invariants."""
    degrees = entry["degrees"]
    n = len(degrees)
    dim_p = factorial(n - 1)
    rank = expected_rank(model, p, degrees)
    problems = []
    if entry.get("skipped"):
        problems.append("skipped")
    if entry["n"] != n or entry["dimP"] != dim_p or entry["orbit"] != orbit(degrees):
        problems.append("n, dimP or orbit")
    if entry["dimIdentity"] != dim_p - rank:
        problems.append(f"dimIdentity {entry['dimIdentity']} != {dim_p - rank}")
    sound, complete = entry["sound"], entry["complete"]
    if sound is None or complete is None:
        problems.append("missing verdict")
    elif p == 2:
        # The theorem: over GF(2) the family spans exactly the identities.
        if not (sound and complete) or entry["dimConsequence"] != dim_p - rank:
            problems.append("GF(2) component is not sound and complete")
    else:
        if sound and entry["dimConsequence"] > entry["dimIdentity"]:
            problems.append("sound but consequences exceed identities")
        if complete and entry["dimConsequence"] < entry["dimIdentity"]:
            problems.append("complete but identities exceed consequences")
        if sound and complete and entry["dimConsequence"] != entry["dimIdentity"]:
            problems.append("sound and complete with different dimensions")
    if ("witness" in entry) != (sound is False or complete is False):
        problems.append("witness present iff a flag is false")
    return [f"{model}/gf{p} {degrees}: {what}" for what in problems]


def report_failures(report: dict, tuples: list, model: str, p: int) -> list:
    problems = []
    spaces = report["spaces"]
    if [e["degrees"] for e in spaces] != tuples:
        problems.append(f"{model}: swept components differ from the requested ones")
    for entry in spaces:
        problems.extend(entry_failures(entry, model, p))
    recount = {
        "passed": sum(1 for e in spaces if e.get("sound") and e.get("complete")),
        "failed": sum(
            1 for e in spaces if e.get("sound") is False or e.get("complete") is False
        ),
        "skipped": sum(1 for e in spaces if e.get("skipped")),
    }
    if {k: report["summary"][k] for k in SUMMARY_KEYS} != recount:
        problems.append(f"{model}: summary {report['summary']} != recount {recount}")
    return problems


# -- digests -------------------------------------------------------------------


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _entries(spaces) -> list:
    return [{k: e[k] for k in ENTRY_KEYS if k in e} for e in spaces]


def report_payload(report: dict) -> dict:
    """The timings-free part of a report that a verdict depends on.
    ``workers`` is left out: it changes how a sweep runs, not its result."""
    return {
        "config": {k: report["config"].get(k) for k in CONFIG_KEYS},
        "spaces": _entries(report["spaces"]),
        "summary": {k: report["summary"][k] for k in SUMMARY_KEYS},
    }


# -- seeded inputs ---------------------------------------------------------------


def draw_tuples(rng: random.Random, n: int, values, odd_counts) -> list:
    """One sorted degree tuple per entry of ``odd_counts``, with that many
    odd degrees.  Over GF(2) the cost of a u1/w1 component depends on the
    parity pattern of its degrees, so fixing the odd counts keeps the
    episode's cost nearly the same from seed to seed."""
    out = []
    while len(out) < len(odd_counts):
        t = tuple(sorted(rng.choice(values) for _ in range(n)))
        if sum(d % 2 for d in t) == odd_counts[len(out)] and t not in out:
            out.append(t)
    return out


class _Timer:
    """Times a region; with a tracer, the region is the root span."""

    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.root = self.tracer.open("bench.episode") if self.tracer else None
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.start
        if self.tracer:
            self.tracer.close(self.root)
        return False


# -- workloads -------------------------------------------------------------------


class SweepWorkload:
    """``verify_basis_theorem`` over GF(2) on a canonical range plus one
    seeded n=6 component with a single odd degree: its span never fills,
    so every instance is enumerated (the n=6 frontier), while most
    components of the canonical range exit early on full rank."""

    field_spec = "gf2"

    def __init__(self, name, model, nmax, dmax, workers, extra_values, seed):
        self.name = name
        self.model = model
        self.nmax, self.dmax, self.workers = nmax, dmax, workers
        self.seed = seed
        rng = random.Random(f"{name}/{seed}")
        self.extras = draw_tuples(rng, 6, extra_values, (1,))
        self.fixed = canonical_tuples(nmax, dmax)
        self.tuples = self.fixed + [list(t) for t in self.extras]

    def describe(self) -> str:
        return (
            f"{self.model} sweep nmax={self.nmax} dmax={self.dmax} "
            f"workers={self.workers}, extra n=6 tuples {self.extras}"
        )

    def episode(self, serial=False, tracer=None) -> Episode:
        config = verify.SweepConfig(
            model=self.model,
            nmax=self.nmax,
            dmax=self.dmax,
            field=self.field_spec,
            workers=1 if serial else self.workers,
            extra_degree_tuples=self.extras,
            seed=self.seed,
        )
        with _Timer(tracer) as timer:
            report = verify.verify_basis_theorem(config)
        return Episode(timer.wall_s, outputs={"report": report.to_json_dict()})

    def check(self, episode: Episode) -> Verdict:
        report = episode.outputs["report"]
        problems = report_failures(report, self.tuples, self.model, 2)
        fixed = report["spaces"][: len(self.fixed)]
        return Verdict(
            attempted=len(report["spaces"]),
            failures=problems,
            digest=_sha(report_payload(report)),
            fixed_digest=_sha(_entries(fixed)),
        )


class NormalFormWorkload:
    """Criterion 7 of the acceptance suite from public calls, plus a check
    that each component's consequence span equals its identity subspace.
    It covers every degree multiset with one odd degree in {-3,-1,1,3}
    and the rest in {-2,0,2} for n <= 5, plus one seeded n=6 multiset of
    that kind.  All of them have one odd degree, so a multiset's cost
    depends on n alone and the seed does not change the episode's cost."""

    field_spec = "gf2"
    model = "u1"
    ODD = (-3, -1, 1, 3)
    EVEN = (-2, 0, 2)

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.fixed = [
            sorted((odd,) + evens)
            for n in range(1, 6)
            for odd in self.ODD
            for evens in itertools.combinations_with_replacement(self.EVEN, n - 1)
        ]
        rng = random.Random(f"{name}/{seed}")
        self.extras = [sorted((rng.choice(self.ODD),) + tuple(rng.choice(self.EVEN) for _ in range(5)))]
        self.multisets = self.fixed + self.extras
        self._expected = {}

    def describe(self) -> str:
        return f"normal forms for n <= 5 plus n=6 multiset {self.extras}"

    def episode(self, serial=False, tracer=None) -> Episode:
        gf2 = wittid.GF2
        u1 = models.u1_model(gf2)
        family = tideal.u1_family()
        LiePoly, Var = freealg.LiePoly, freealg.Var
        is_identity, normal_form = tideal.monomial_is_identity, tideal.monomial_normal_form
        rows = []
        zeroed = 0
        bad_zero = 0
        with _Timer(tracer) as timer:
            for n in range(1, 7):
                for degrees in itertools.product(range(-3, 4), repeat=min(n, 3)):
                    variables = tuple(Var(i + 1, d) for i, d in enumerate(degrees))
                    if is_identity(variables, u1):
                        zeroed += 1
                        bad_zero += normal_form(variables) is not None
            for multiset in self.multisets:
                comp = tracer.open_component("bench.component") if tracer else None
                space = freealg.MultilinearSpace.for_degrees(multiset, gf2)
                cons = tideal.consequence_subspace(family, space)
                # Congruence modulo the span is congruence modulo the
                # identities only where the two coincide (the theorem).
                bad = int(not tideal.subspace_equal(cons, tideal.identity_subspace(u1, space)))
                substitution = {x: u1.basis_element(x.degree) for x in space.variables}
                reduced = identities = 0
                for perm in itertools.permutations(space.variables):
                    if is_identity(perm, u1):
                        identities += 1
                        bad += normal_form(perm) is not None
                        continue
                    normal = normal_form(perm)
                    if normal is None or normal_form(normal) != normal:
                        bad += 1
                        continue
                    diff = LiePoly.monomial(gf2, perm) + LiePoly.monomial(gf2, normal)
                    if diff.terms and not cons.contains_vector(space.coordinates(diff)):
                        bad += 1
                    if models.evaluate(LiePoly.monomial(gf2, perm), substitution, u1) != models.evaluate(
                        LiePoly.monomial(gf2, normal), substitution, u1
                    ):
                        bad += 1
                    reduced += 1
                rows.append((multiset, cons.dim, reduced, identities, bad))
                if tracer:
                    tracer.close_component(comp)
        return Episode(
            timer.wall_s, outputs={"rows": rows, "zeroed": zeroed, "bad_zero": bad_zero}
        )

    def _expected_row(self, multiset):
        """(consequence dim, reduced, identities) from the closed form: a
        monomial is no identity exactly when its structure constants have
        a nonzero product, and the span equals the identities (codim 1)."""
        key = tuple(multiset)
        if key not in self._expected:
            nonzero = 0
            for perm in itertools.permutations(multiset):
                total, coeff = perm[0], 1
                for d in perm[1:]:
                    coeff = coeff * (d - total) % 2
                    total += d
                nonzero += coeff
            dim_p = factorial(len(multiset) - 1)
            rank = expected_rank("u1", 2, multiset)
            self._expected[key] = (dim_p - rank, nonzero, factorial(len(multiset)) - nonzero)
        return self._expected[key]

    def check(self, episode: Episode) -> Verdict:
        rows = episode.outputs["rows"]
        problems = []
        if episode.outputs["bad_zero"]:
            problems.append(f"{episode.outputs['bad_zero']} identities with a nonzero normal form")
        if [r[0] for r in rows] != self.multisets:
            problems.append("checked multisets differ from the requested ones")
        for multiset, dim, reduced, identities, bad in rows:
            want = self._expected_row(multiset)
            if bad or (dim, reduced, identities) != want:
                problems.append(
                    f"normal forms {multiset}: got dim/reduced/identities "
                    f"{(dim, reduced, identities)}, want {want}, {bad} bad"
                )
        fixed = [list(r[:4]) for r in rows[: len(self.fixed)]]
        return Verdict(
            attempted=len(rows),
            failures=problems,
            digest=_sha({"rows": [list(r[:4]) for r in rows], "zeroed": episode.outputs["zeroed"]}),
            fixed_digest=_sha({"rows": fixed, "zeroed": episode.outputs["zeroed"]}),
        )


class ContrastWorkload:
    """The characteristic contrast over GF(3), through the command line.

    ``wittid --field gf3 --seed S --out A verify-basis --model u1 --nmax 4
    --dmax 4`` runs in-process.  The CLI has no flag for extra components,
    so three seeded n=5 components with one odd degree go through
    ``verify_basis_theorem`` (criterion 8's nmax=2, dmax=3 range plus the
    extras) and are saved the way ``--out`` saves a report.  Both reports
    then go through ``wittid report PATH --revalidate``.
    """

    field_spec = "gf3"
    model = "u1"
    WITNESS = "[x1^1, x2^3]"

    def __init__(self, name, seed, workdir):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        rng = random.Random(f"{name}/{seed}")
        self.extras = draw_tuples(rng, 5, range(-4, 5), (1, 1, 1))
        self.cli_tuples = canonical_tuples(4, 4)
        self.lib_tuples = canonical_tuples(2, 3) + [list(t) for t in self.extras]

    def describe(self) -> str:
        return f"gf3 contrast nmax=4 dmax=4 via the CLI, extra n=5 tuples {self.extras}"

    def _cli(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def episode(self, serial=False, tracer=None) -> Episode:
        cli_path = os.path.join(self.workdir, "contrast-cli.json")
        lib_path = os.path.join(self.workdir, "contrast-lib.json")
        config = verify.SweepConfig(
            model="u1", nmax=2, dmax=3, field="gf3",
            extra_degree_tuples=self.extras, seed=self.seed,
        )
        with _Timer(tracer) as timer:
            sweep_code, _ = self._cli(
                ["--field", "gf3", "--seed", str(self.seed), "--out", cli_path,
                 "verify-basis", "--model", "u1", "--nmax", "4", "--dmax", "4"]
            )
            report = verify.verify_basis_theorem(config)
            with open(lib_path, "w") as handle:
                json.dump(report.to_json_dict(), handle, indent=2)
                handle.write("\n")
            revalidate_start = time.perf_counter()
            cli_check = self._cli(["--format", "json", "report", cli_path, "--revalidate"])
            lib_check = self._cli(["--format", "json", "report", lib_path, "--revalidate"])
        revalidate_s = time.perf_counter() - revalidate_start
        with open(cli_path) as handle:
            cli_report = json.load(handle)
        return Episode(
            timer.wall_s,
            revalidate_s=revalidate_s,
            outputs={
                "sweep_code": sweep_code,
                "cli_report": cli_report,
                "lib_report": report.to_json_dict(),
                "checks": [(code, json.loads(text)) for code, text in (cli_check, lib_check)],
            },
        )

    def check(self, episode: Episode) -> Verdict:
        out = episode.outputs
        cli_report, lib_report = out["cli_report"], out["lib_report"]
        problems = report_failures(cli_report, self.cli_tuples, "u1", 3)
        problems += report_failures(lib_report, self.lib_tuples, "u1", 3)
        if out["sweep_code"] != 1:
            problems.append(f"gf3 verify-basis exit code {out['sweep_code']}, want 1")
        gf3 = Field.from_spec("gf3")
        want = wittid.parse_polynomial(self.WITNESS, gf3)
        for label, report in (("cli", cli_report), ("library", lib_report)):
            entry = next((e for e in report["spaces"] if e["degrees"] == [1, 3]), None)
            if (
                entry is None
                or entry["sound"] is not False
                or "witness" not in entry
                or wittid.parse_polynomial(entry["witness"], gf3) != want
            ):
                problems.append(f"{label} report: (1,3) must fail soundness with witness {self.WITNESS}")
        for code, obj in out["checks"]:
            if code != 1 or obj.get("revalidated") is not True:
                problems.append(f"report --revalidate: exit {code}, revalidated {obj.get('revalidated')}")
        fixed_payload = report_payload(cli_report)
        fixed_payload["config"].pop("seed")
        return Verdict(
            attempted=len(cli_report["spaces"]) + len(lib_report["spaces"]),
            failures=problems,
            digest=_sha([report_payload(cli_report), report_payload(lib_report)]),
            fixed_digest=_sha(fixed_payload),
        )


WHY = {
    "sweep-u1": "u1 GF(2) sweep, serial: freealg coordinates dominate; n=6 extras with and without early exit",
    "sweep-w1": "w1 GF(2) sweep on the 2-worker process pool: cheap components, so pool start-up and overhead show",
    "normal-form": "criterion 7 normal forms: spans never fill, every instance is enumerated; LiePoly coordinates and evaluate",
    "contrast-gf3": "GF(3) contrast via the CLI: generic linalg/freealg paths, witnesses, grammar, report --revalidate",
}


def make(name: str, seed: int, workdir: str):
    if name == "sweep-u1":
        return SweepWorkload(name, "u1", 5, 2, 1, range(-4, 5), seed)
    if name == "sweep-w1":
        # Extras stay at degrees >= 0, where the w1 family's lower bound
        # never binds, so their cost is the same for every seed.
        return SweepWorkload(name, "w1", 5, 3, 2, range(0, 5), seed)
    if name == "normal-form":
        return NormalFormWorkload(name, seed)
    if name == "contrast-gf3":
        return ContrastWorkload(name, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
