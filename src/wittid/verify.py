"""Theorem-level verification harness.

Runs exhaustive desk-scale sweeps over multilinear components, comparing
the identity subspace of a model with the consequence subspace of a
generating family (soundness: consequences are identities; completeness:
identities are consequences), and produces machine-readable reports. A
sweep's configuration, :class:`SweepConfig`, is the JSON object its
report records, and one check refuses a bad one, new or saved, before
any component runs: its shape, budget, family, field, and more than
:data:`MAX_COMPONENTS` components or :data:`MAX_VARIABLES` variables. A
certificate command of more than :data:`MAX_SEPARATION_CHECKS`
separation checks is refused before any member is listed. Every sweep
has one span memo and one driver: the parent runs the canonical
components narrower than nmax, then the rest in contiguous shares, one
per process it may use, each child on a copy of the memo and the parent
on the last share; a serial sweep is the one-share run. The soundness
witness of an unsound component is the first consequence instance that
evaluation on the basis tuples does not send to zero
(:func:`~wittid.models.first_nonzero`); only that instance's
coordinates are computed.
Also provides separation certificates: graded algebras that violate one
family member while satisfying all the others, which is what rules out
any finite generating set. One private check evaluates every separation
(does the model violate the member, and which of the other listed members
does it violate). Each certificate, table, minimality sweep and contrast
is its JSON object, built once in output key order with its ``ok``
verdict where it has one.

Reports serialize to JSON with a stable field layout; identical
configurations produce byte-identical reports once the wall-clock
timings section is excluded. :meth:`VerificationReport.audit` is the one
consistency check of a saved report: family, summary, coverage and,
optionally, a recomputation of every entry. One listing of the configured
sweep gives coverage and membership: an entry off it is not recomputed.
"""

from __future__ import annotations

import itertools
import os
import time
from math import comb, factorial, inf
from typing import Optional, Sequence

from .fields import Field
from .freealg import LiePoly, MultilinearSpace, Var
from .grammar import format_polynomial, parse_polynomial
from .models import (
    first_nonzero,
    onedim_model,
    parse_model,
    satisfies_multilinear,
    u1_model,
    ut3_model,
)
from .tideal import (
    BasisFamily,
    BudgetExceeded,
    SpanMemo,
    consequence_instances,
    consequence_subspace,
    family_for,
    identity_subspace,
    subspace_contains,
)

REPORT_SCHEMA = {
    "type": "object",
    "required": ["config", "spaces", "summary", "timings"],
    "properties": {
        "config": {
            "type": "object",
            "required": ["model", "family", "field", "nmax", "dmax", "extra_degree_tuples"],
            "properties": {
                "model": {"type": "string"},
                "family": {"type": "string"},
                "field": {"type": "string"},
                "nmax": {"type": "integer", "minimum": 1},
                "dmax": {"type": "integer", "minimum": 0},
                "workers": {"type": "integer", "minimum": 1},
                "seed": {"type": ["integer", "null"]},
                "range": {"type": ["string", "null"]},
                "space_budget_s": {"type": ["number", "null"], "minimum": 0},
                "extra_degree_tuples": {
                    "type": "array",
                    "items": {"type": "array", "minItems": 1, "items": {"type": "integer"}},
                },
            },
        },
        "spaces": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "n", "degrees", "orbit", "dimP", "dimIdentity",
                    "dimConsequence", "sound", "complete",
                ],
                "properties": {
                    "n": {"type": "integer", "minimum": 1},
                    "degrees": {"type": "array", "items": {"type": "integer"}},
                    "orbit": {"type": "integer", "minimum": 1},
                    "dimP": {"type": "integer", "minimum": 1},
                    "dimIdentity": {"type": ["integer", "null"]},
                    "dimConsequence": {"type": ["integer", "null"]},
                    "sound": {"type": ["boolean", "null"]},
                    "complete": {"type": ["boolean", "null"]},
                    "witness": {"type": "string"},
                    "skipped": {"type": "boolean"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["passed", "failed", "skipped"],
            "properties": {
                "passed": {"type": "integer"},
                "failed": {"type": "integer"},
                "skipped": {"type": "integer"},
            },
        },
        "timings": {"type": "object"},
    },
}


class SweepConfig(dict):
    """Configuration of a basis-verification sweep: the JSON object its
    report records as ``config``, checked by :func:`_check_config` as a
    saved one is. ``model`` is "u1" or "w1"; ``family_range`` is the w1
    bracket range, "wide" (>= -1) or "tight" (>= 0), recorded as
    ``range`` (null for u1)."""

    def __init__(
        self,
        model: str = "u1",
        family_range: str = "wide",
        nmax: int = 4,
        dmax: int = 3,
        field: str = "gf2",
        workers: int = 1,
        space_budget_s: Optional[float] = None,
        extra_degree_tuples: tuple = (),
        seed: Optional[int] = None,
    ):
        super().__init__(
            model=model,
            # refuses a model without a family, and an unknown range for u1 too
            family=family_for(model, family_range).describe(),
            range=family_range if model == "w1" else None,
            field=field,
            nmax=nmax,
            dmax=dmax,
            workers=workers,
            space_budget_s=space_budget_s,
            extra_degree_tuples=[list(t) for t in extra_degree_tuples],
            seed=seed,
        )
        _check_config(self, "the sweep")

    def family(self) -> BasisFamily:
        return _family(self)


def _family(config: dict) -> BasisFamily:
    """The family of a configuration's model and range, or ValueError."""
    return family_for(config["model"], config.get("range"))


def _check_config(config: dict, where: str) -> None:
    """The one check of a configuration, new ("the sweep") or saved
    ("report.config"): its REPORT_SCHEMA shape, budget, size, family and
    field. A sweep it accepts writes a report whose config it accepts."""
    _check_shape(config, REPORT_SCHEMA["properties"]["config"], where)
    _check_budget(config.get("space_budget_s"), f"{where}.space_budget_s")
    _check_size(config["nmax"], config["dmax"], config["extra_degree_tuples"], where)
    _family(config)
    Field.from_spec(config["field"])


class VerificationReport:
    """Outcome of a sweep: one entry per canonical degree tuple. A loaded
    one is checked by :meth:`audit`; ``passed`` reads only the summary."""

    def __init__(self, config: dict, spaces: list, summary: dict, timings: Optional[dict] = None):
        self.config = config
        self.spaces = spaces
        self.summary = summary
        self.timings = {} if timings is None else timings

    @property
    def passed(self) -> bool:
        return self.summary["failed"] == 0 and self.summary["skipped"] == 0

    def entry_for(self, degrees: Sequence[int]) -> Optional[dict]:
        want = list(degrees)
        for entry in self.spaces:
            if entry["degrees"] == want:
                return entry
        return None

    def span_memo(self) -> SpanMemo:
        """One span memo for recomputing this report's entries in order
        with :func:`revalidate_entry`: the configured family and field,
        with no span kept as wide as the widest entry."""
        return SpanMemo(
            _family(self.config),
            Field.from_spec(self.config["field"]),
            largest=max((len(e["degrees"]) for e in self.spaces), default=None),
        )

    def audit(self, revalidate: bool = False) -> tuple:
        """``(problems, invalid)``. ``problems``: the lines of the family,
        summary and coverage checks that fail, in that order. ``invalid``:
        None, or with ``revalidate`` the degrees of the entries off the
        configured sweep, not computed, and of those :func:`revalidate_entry`
        refuses, all through one :meth:`span_memo`. One listing of the sweep
        serves coverage and membership."""
        problems = []
        config, family = self.config, _family(self.config).describe()
        if config["family"] != family:
            problems.append(
                f"FAMILY MISMATCH: the report names {config['family']!r}, "
                f"its model and range give {family!r}"
            )
        recount = summarize(self.spaces)
        if recount != self.summary:
            problems.append(
                "SUMMARY MISMATCH: the entries count "
                + ", ".join(f"{key} {value}" for key, value in recount.items())
            )
        expected = sweep_tuples(config["nmax"], config["dmax"], config["extra_degree_tuples"])
        listed = [tuple(entry["degrees"]) for entry in self.spaces]
        for i, (want, got) in enumerate(itertools.zip_longest(expected, listed)):
            if want != got:
                got, want = ("nothing" if d is None else list(d) for d in (got, want))
                problems.append(
                    f"COVERAGE MISMATCH: at entry {i} the report has {got} "
                    f"and the configured sweep has {want}"
                )
                break
        if not revalidate:
            return problems, None
        swept, memo = set(expected), self.span_memo()
        return problems, [
            e["degrees"] for e, degrees in zip(self.spaces, listed)
            if degrees not in swept or not revalidate_entry(e, config, memo)
        ]

    def to_json_dict(self, with_timings: bool = True) -> dict:
        out = {
            "config": self.config,
            "spaces": self.spaces,
            "summary": self.summary,
            "timings": self.timings if with_timings else {},
        }
        return out

    def to_json(self, with_timings: bool = True) -> str:
        import json

        return json.dumps(self.to_json_dict(with_timings), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        """Load a report; a malformed one raises ValueError, and so does
        one whose ``config`` :func:`_check_config` refuses, the check of a
        new sweep's configuration."""
        import json

        data = json.loads(text)
        _check_shape(data, REPORT_SCHEMA, "report")
        _check_config(data["config"], "report.config")
        return cls(
            config=data["config"],
            spaces=data["spaces"],
            summary=data["summary"],
            timings=data["timings"],
        )


# JSON Schema scalar type -> test; a JSON boolean is not an integer.
_SCALAR_TYPES = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "null": lambda v: v is None,
}


def _check_budget(budget, where: str) -> None:
    """Refuse a per-space budget that is negative or not finite (None
    means no budget)."""
    if budget is not None and not 0 <= budget < inf:
        raise ValueError(f"{where} must be a finite number of seconds >= 0")


#: The most variables a swept component may have. One u1 component on 8
#: variables (5,040 columns, 40,320 words per expansion) takes about 4 s
#: and 60 MiB on a 2-core machine; on 9 an expansion has 362,880 words.
MAX_VARIABLES = 8

#: The most components a sweep may have. The widest documented sweep,
#: u1 ``nmax=6, dmax=4``, has 5,004, and ``nmax=8`` at the default
#: ``dmax=3`` has 6,434; ``nmax=8, dmax=40`` would have about 7·10^10.
MAX_COMPONENTS = 10_000

#: The most separation checks (identity checks of one family member in one
#: model) that a certificate, table, minimality sweep or contrast may make.
#: ``minimality`` at its default bounds makes 784 (u1) or 796 (w1), and
#: ``independence --bound 200`` 40,401, which took 0.8 s and 45 MiB on a
#: 2-core machine.
MAX_SEPARATION_CHECKS = 100_000


def _check_size(nmax: int, dmax: int, extra_degree_tuples, where: str) -> None:
    """Refuse a sweep that reaches a component of more than
    :data:`MAX_VARIABLES` variables, through ``nmax`` or an extra tuple,
    or that has more than :data:`MAX_COMPONENTS` components."""
    widest = max([nmax, *map(len, extra_degree_tuples)])
    if widest > MAX_VARIABLES:
        raise ValueError(
            f"{where} reaches a component of {widest} variables; "
            f"at most {MAX_VARIABLES} are supported"
        )
    count = sweep_size(nmax, dmax, extra_degree_tuples)
    if count > MAX_COMPONENTS:
        raise ValueError(
            f"{where} has {count:,} components; at most {MAX_COMPONENTS:,} are supported"
        )


def _check_separations(checks: int, where: str) -> None:
    """Refuse more than :data:`MAX_SEPARATION_CHECKS` separation checks,
    counted in closed form before any member is listed."""
    if checks > MAX_SEPARATION_CHECKS:
        raise ValueError(
            f"{where} makes {checks:,} separation checks; "
            f"at most {MAX_SEPARATION_CHECKS:,} are supported"
        )


def _check_shape(value, schema: dict, where: str) -> None:
    """Types, required keys, integer minimums and array minimum lengths
    as REPORT_SCHEMA lays them out, checked in plain Python. The budget's
    bound is :func:`_check_budget`'s."""
    kind = schema.get("type")
    if kind == "object":
        if not isinstance(value, dict):
            raise ValueError(f"{where} is not a JSON object")
        missing = [key for key in schema.get("required", ()) if key not in value]
        if missing:
            raise ValueError(f"{where} lacks {', '.join(missing)}")
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _check_shape(value[key], sub, f"{where}.{key}")
    elif kind == "array":
        if not isinstance(value, list):
            raise ValueError(f"{where} is not a JSON array")
        if len(value) < schema.get("minItems", 0):
            raise ValueError(f"{where} has fewer than {schema['minItems']} items")
        for i, item in enumerate(value):
            _check_shape(item, schema.get("items", {}), f"{where}[{i}]")
    elif kind is not None:
        kinds = kind if isinstance(kind, list) else [kind]
        if not any(_SCALAR_TYPES[k](value) for k in kinds):
            raise ValueError(f"{where} is not of type {' or '.join(kinds)}")
        minimum = schema.get("minimum")
        if kind == "integer" and minimum is not None and value < minimum:
            raise ValueError(f"{where} is less than the minimum of {minimum}")


def canonical_degree_tuples(n: int, dmax: int):
    """Nondecreasing degree tuples with entries in [-dmax, dmax].

    Sweeping these only loses nothing: subspace dimensions and
    containments are invariant under relabeling variables of equal
    degree, and any tuple can be sorted by such a relabeling.
    """
    return itertools.combinations_with_replacement(range(-dmax, dmax + 1), n)


def _extra_tuples(nmax: int, dmax: int, extra_degree_tuples) -> list:
    """The tuples a sweep lists after its canonical ones: each extra tuple,
    sorted, unless it is canonical for some n = 1..nmax or listed earlier."""
    extras = dict.fromkeys(tuple(sorted(t)) for t in extra_degree_tuples)
    return [t for t in extras if not (0 < len(t) <= nmax and all(abs(d) <= dmax for d in t))]


def sweep_tuples(nmax: int, dmax: int, extra_degree_tuples=()) -> list:
    """The degree tuples a sweep covers, in sweep order: the canonical
    tuples for n = 1..nmax, then :func:`_extra_tuples`."""
    tuples = [t for n in range(1, nmax + 1) for t in canonical_degree_tuples(n, dmax)]
    return tuples + _extra_tuples(nmax, dmax, extra_degree_tuples)


def sweep_size(nmax: int, dmax: int, extra_degree_tuples=()) -> int:
    """The number of tuples :func:`sweep_tuples` lists, in closed form: the
    nondecreasing n-tuples from 2·dmax + 1 degrees number C(2·dmax + n, n)."""
    canonical = sum(comb(2 * dmax + n, n) for n in range(1, nmax + 1))
    return canonical + len(_extra_tuples(nmax, dmax, extra_degree_tuples))


def orbit_size(degrees: Sequence[int]) -> int:
    """Number of distinct reorderings of the degree tuple."""
    count = factorial(len(degrees))
    for d in set(degrees):
        count //= factorial(list(degrees).count(d))
    return count


def summarize(entries) -> dict:
    """Pass/fail/skip count of sweep entries."""
    return {
        "passed": sum(1 for e in entries if e.get("sound") and e.get("complete")),
        "failed": sum(
            1 for e in entries if e.get("sound") is False or e.get("complete") is False
        ),
        "skipped": sum(1 for e in entries if e.get("skipped")),
    }


def _space_entries(config: SweepConfig, tuples: Sequence[tuple], memo: SpanMemo) -> list:
    """The entries of a run of the sweep's degree tuples, in order. The
    model is resolved once over the memo's field, and the sweep's
    :class:`~wittid.tideal.SpanMemo` serves every component of the run."""
    model = parse_model(config["model"], memo.field)
    return [_entry(model, degrees, config["space_budget_s"], memo) for degrees in tuples]


def _entry(model, degrees, budget_s, memo: SpanMemo) -> dict:
    family = memo.family
    space = MultilinearSpace.for_degrees(degrees, model.field)
    entry = {
        "n": len(degrees),
        "degrees": list(degrees),
        "orbit": orbit_size(degrees),
        "dimP": space.dim,
        "dimIdentity": None,
        "dimConsequence": None,
        "sound": None,
        "complete": None,
    }
    ident = identity_subspace(model, space)
    entry["dimIdentity"] = ident.dim
    deadline = time.monotonic() + budget_s if budget_s is not None else None
    try:
        cons = consequence_subspace(family, space, deadline=deadline, memo=memo)
    except BudgetExceeded:
        entry["skipped"] = True
        return entry
    entry["dimConsequence"] = cons.dim
    sound = subspace_contains(ident, cons)
    # A sound span lies inside the identities, so it is all of them
    # exactly when the dimensions agree. The identities of a u1 or w1
    # component have codimension at most 1, so an unsound span, which
    # sticks out of them, contains them only if it is everything.
    complete = cons.dim == ident.dim if sound else cons.is_full()
    entry["sound"] = sound
    entry["complete"] = complete
    if not sound:
        # The identity subspace is the kernel of evaluation on the basis
        # tuples, so the first instance outside it is the first that some
        # basis tuple does not send to zero.
        tree = first_nonzero(model, space.variables, consequence_instances(family, space))
        entry["witness"] = format_polynomial(space.poly_from_coords(space.coordinates(tree)))
    elif not complete:
        row = cons.row_outside(ident)
        entry["witness"] = format_polynomial(space.poly_from_coords(row))
    return entry


def verify_basis_theorem(config: SweepConfig) -> VerificationReport:
    """Check consequence = identity on every component in range.

    Every canonical degree tuple with n <= nmax variables and degrees
    bounded by dmax is swept once; failures carry an explicit witness
    polynomial. Components whose consequence span computation exceeds the
    per-space budget are flagged as skipped rather than aborting the
    sweep. The sweep has one span memo and runs through :func:`_sweep_entries`,
    whose entries do not depend on how many processes share the work. The
    report keeps the requested ``workers``.
    """
    start = time.monotonic()
    tuples = sweep_tuples(config["nmax"], config["dmax"], config["extra_degree_tuples"])
    field = Field.from_spec(config["field"])
    memo = SpanMemo(_family(config), field, largest=max(map(len, tuples)))
    entries = _sweep_entries(config, tuples, memo)
    timings = {"total_s": round(time.monotonic() - start, 3)}
    return VerificationReport(
        config=dict(config), spaces=entries, summary=summarize(entries), timings=timings
    )


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity set where
    the platform has one, else the machine's core count, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_entries(config: SweepConfig, tuples: list, memo: SpanMemo) -> list:
    """:func:`_space_entries` of the whole sweep, on at most
    ``config["workers"]`` processes and no more than the CPUs this process
    may use. The parent first fills ``memo`` with the canonical
    components narrower than nmax, a prefix of the sweep that holds the
    sub-spans of the canonical nmax components. The rest, those nmax
    components and then the extras, is cut into that many contiguous
    shares of equal count, so an extra lands in whichever share the cut
    puts it. A sub-span that is not in the prefix (of an extra outside
    the canonical range or wider than nmax) is computed in the share that
    needs it. Each share but the last runs in a child process with a copy
    of the memo (inherited under fork, pickled otherwise), while the
    parent runs the last one. One share, a serial sweep, starts no
    process and imports no multiprocessing. A child's exception is raised
    again in the parent, and a child that exits without sending raises
    RuntimeError. Children still running when the sweep fails are
    terminated, and every child is joined."""
    narrow = sweep_size(config["nmax"] - 1, config["dmax"])
    entries = _space_entries(config, tuples[:narrow], memo)
    rest = tuples[narrow:]
    count = min(config["workers"], _usable_cpus(), len(rest))
    cuts = [len(rest) * i // count for i in range(count + 1)]
    shares = [rest[a:b] for a, b in zip(cuts, cuts[1:])]
    children = []
    finished = False
    try:
        for share in shares[:-1]:
            # Imported for the first child: a serial sweep never needs it.
            import multiprocessing

            context = multiprocessing.get_context()
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=_send_entries, args=(config, share, memo, send))
            child.start()
            send.close()
            children.append((child, receive))
        own = _space_entries(config, shares[-1], memo)
        for child, receive in children:
            try:
                result = receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"a sweep worker exited with code {child.exitcode} before sending its entries"
                ) from None
            if isinstance(result, BaseException):
                raise result
            entries.extend(result)
        finished = True
    finally:
        for child, receive in children:
            if not finished:
                child.terminate()
            child.join()
            receive.close()
    return entries + own


def _send_entries(config: SweepConfig, share: list, memo: SpanMemo, send) -> None:
    """A child's run of :func:`_sweep_entries`: send the share's
    entries, or the exception that computing them raised."""
    try:
        result = _space_entries(config, share, memo)
    except Exception as exc:
        result = exc
    send.send(result)
    send.close()


def revalidate_entry(entry: dict, config: dict, memo: Optional[SpanMemo] = None) -> bool:
    """Independently re-check one report entry.

    An entry of more than :data:`MAX_VARIABLES` variables is refused before
    anything is computed; one off the configured sweep is refused by
    :meth:`VerificationReport.audit`, which does not call this for it. Every
    entry must match the ``n``, ``dimP`` and ``orbit`` of its degrees; beyond
    that, a skipped entry revalidates if it has no witness. Every other entry
    must match a recomputation of its dimensions and of its soundness and
    completeness flags, and has a witness exactly when a flag is false. A
    completeness witness must then be an identity of the model that row
    reduction leaves outside the consequence span; a soundness witness must lie
    in the consequence span yet take a nonzero value in the model. A witness
    that is not a polynomial of the entry's component (unparsable, or in a
    variable or degree it does not have) is refused, not raised.

    The entries of one report may share ``memo``
    (:meth:`VerificationReport.span_memo`, as wide as the widest entry),
    which only recomputation fills.
    """
    degrees = entry["degrees"]
    if len(degrees) > MAX_VARIABLES:
        return False
    field = Field.from_spec(config["field"])
    space = MultilinearSpace.for_degrees(degrees, field)
    if (entry["n"], entry["dimP"], entry["orbit"]) != (
        len(degrees), space.dim, orbit_size(degrees)
    ):
        return False
    if entry.get("skipped"):
        return "witness" not in entry
    model = parse_model(config["model"], field)
    family = _family(config)
    ident = identity_subspace(model, space)
    cons = consequence_subspace(family, space, memo=memo)
    sound = subspace_contains(ident, cons)
    # Both containments, not the sweep's dimension test: an independent check.
    # The identities are checked in the span row by row, as their kernel
    # makes its rows.
    complete = subspace_contains(cons, ident)
    stored = (entry["dimIdentity"], entry["dimConsequence"], entry["sound"], entry["complete"])
    if stored != (ident.dim, cons.dim, sound, complete):
        return False
    if sound and complete:
        return "witness" not in entry
    witness_text = entry.get("witness")
    if not witness_text:
        return False
    try:
        witness = parse_polynomial(witness_text, field)
        coords = space.coordinates(witness)
    except ValueError:  # not a polynomial of this component
        return False
    if not sound:
        return cons.contains_vector(coords) and not satisfies_multilinear(model, witness)
    return (
        satisfies_multilinear(model, witness)
        and ident.contains_vector(coords)
        and not cons.contains_vector(coords)
    )


# -- separation certificates -------------------------------------------------


_U1 = family_for("u1")


def _separation(model, member: LiePoly, *others) -> tuple:
    """The one separation check: whether ``model`` violates ``member``,
    then, per list of other members, the text forms of those ``model``
    violates. A certificate is a model that violates its member and none
    of the others."""
    def violated(polys):
        return [format_polynomial(m) for m in polys if not satisfies_multilinear(model, m)]

    return (not satisfies_multilinear(model, member), *map(violated, others))


def _bracket_certificate(r: int, s: int, bound: int, field: Field, singles=()) -> tuple:
    """:func:`independence_check`'s certificate, and the text forms of the
    polynomials in ``singles`` that its UT(3) model violates. The model
    refuses ``r > s`` and mixed parity, before any member is listed."""
    if bound < max(abs(r), abs(s)):
        raise ValueError("bound must cover |r| and |s|")
    model = ut3_model(field, r, s)
    others = [_U1.bracket_member(u, v, field) for (u, v) in _U1.brackets(bound) if (u, v) != (r, s)]
    fails, bad, single_bad = _separation(model, _U1.bracket_member(r, s, field), others, singles)
    certificate = {
        "member": f"[x1^{r}, x2^{s}]",
        "model": model.name,
        "bound": bound,
        "fails_member": fails,
        "checked_pairs": len(others),
        "violations": bad,
        "collision_merged": model.collision_merged,
        "ok": fails and not bad,
    }
    return certificate, single_bad


def independence_check(r: int, s: int, bound: int = 6, field: Optional[Field] = None) -> dict:
    """The graded UT(3) algebra with E12 at degree r and E23 at degree s
    violates [x1^r, x2^s] while satisfying every other same-parity
    bracket with degrees bounded by ``bound``. The certificate is its JSON
    object, ``ok`` when the model violates the member and none of the others."""
    _check_separations(_U1.bracket_count(bound), "the certificate")
    return _bracket_certificate(r, s, bound, field or Field.gf(2))[0]


def variable_independence_check(d: int, bound: int = 6, field: Optional[Field] = None) -> dict:
    """The one-dimensional algebra concentrated in degree d violates x^d
    while satisfying every bracket member and every other x^c."""
    field = field or Field.gf(2)
    member = family_for("w1").single_member(d, field)
    if bound < abs(d):
        raise ValueError("bound must cover |d|")
    # The member, every bracket and the 2·bound other single variables.
    _check_separations(1 + _U1.bracket_count(bound) + 2 * bound, "the certificate")
    model = onedim_model(field, d)
    pairs = [_U1.bracket_member(u, v, field) for (u, v) in _U1.brackets(bound)]
    singles = [LiePoly.variable(field, Var(1, c)) for c in range(-bound, bound + 1) if c != d]
    fails, bad = _separation(model, member, pairs + singles)
    return {
        "member": f"x1^{d}",
        "model": model.name,
        "bound": bound,
        "fails_member": fails,
        "checked_pairs": len(pairs),
        "checked_singles": len(singles),
        "violations": bad,
        "ok": fails and not bad,
    }


def leading_family_members(count: int) -> list:
    """The first bracket members, ordered by |r| + |s|, then (r, s)."""
    # The members with |r| + |s| <= count lie within the bound count and
    # number at least count, so they include the first count members.
    return sorted(_U1.brackets(count), key=lambda m: (abs(m[0]) + abs(m[1]), m))[:count]


def no_finite_basis_demo(count: int, field: Optional[Field] = None) -> dict:
    """Pairwise-separation table for the first ``count`` bracket members:
    ``ok`` when each row's model violates exactly its own member among the
    listed ones, so no finite subset of the family generates the rest."""
    if count < 1:
        raise ValueError("count must be positive")
    _check_separations(count * count, "the separation table")
    field = field or Field.gf(2)
    members = leading_family_members(count)
    polys = [_U1.bracket_member(r, s, field) for (r, s) in members]
    rows = []
    for i, (r, s) in enumerate(members):
        model = ut3_model(field, r, s)
        fails, bad = _separation(model, polys[i], polys[:i] + polys[i + 1:])
        rows.append(
            {
                "member": f"[x1^{r}, x2^{s}]",
                "model": model.name,
                "collision_merged": model.collision_merged,
                "fails_member": fails,
                "satisfies_rest": not bad,
                "violations": bad,
            }
        )
    return {
        "members": [row["member"] for row in rows],
        "rows": rows,
        "ok": all(row["fails_member"] and row["satisfies_rest"] for row in rows),
    }


# -- minimality ----------------------------------------------------------------


PROBE_TUPLES = ((-1, 1), (-1, 3))


def minimality_sweep(
    model_name: str,
    member_bound: int = 3,
    separation_bound: int = 6,
    nmax: int = 3,
    dmax: int = 2,
    field_spec: str = "gf2",
) -> dict:
    """Removal evidence for every family member in range.

    Bracket members get UT(3) separation certificates; single-variable
    members get one-dimensional separations. For the polynomial case the
    sweep runs under both bracket ranges and records the probe
    components, where the tight range may span a proper subspace of the
    identities; those dimensions are reported, not asserted. ``ok`` needs
    every row ok, no unsound entry in either sweep, and a passing wide
    sweep. Bad bounds (a separation bound below the member bound too) and
    sweep options are refused, for either model, before any certificate.
    """
    if member_bound < 0:
        raise ValueError("member bound must be nonnegative")
    field = Field.from_spec(field_spec)
    family = family_for(model_name)
    if family.has_singletons and separation_bound < 2:
        raise ValueError(
            "separation bound must be at least 2 to reach the single-variable members x^c, c <= -2"
        )
    if separation_bound < member_bound:
        raise ValueError(
            f"separation bound must cover the member bound: --separation-bound "
            f"{separation_bound} is below --bound {member_bound}"
        )
    # Built, and so checked, for either model; only w1 runs them.
    configs = [
        SweepConfig(
            model="w1",
            family_range=variant,
            nmax=nmax,
            dmax=dmax,
            field=field_spec,
            extra_degree_tuples=PROBE_TUPLES,
        )
        for variant in ("wide", "tight")
    ]
    # Each bracket member's certificate checks it, every other bracket and
    # every single; each single's, itself, every bracket and 2·bound singles.
    brackets = _U1.bracket_count(separation_bound)
    single_count = max(0, separation_bound - 1) if family.has_singletons else 0
    _check_separations(
        family.bracket_count(member_bound) * (brackets + single_count)
        + single_count * (1 + brackets + 2 * separation_bound),
        "the minimality sweep",
    )
    singles = [
        c for c in range(-separation_bound, separation_bound + 1) if family.contains_single(c)
    ]
    single_polys = [family.single_member(c, field) for c in singles]
    member_rows = []
    for (r, s) in family.brackets(member_bound):
        row, single_bad = _bracket_certificate(r, s, separation_bound, field, single_polys)
        if family.has_singletons:
            row["ok"] = row["ok"] and not single_bad
            row["single_violations"] = single_bad
        member_rows.append(row)
    single_rows = [variable_independence_check(c, separation_bound, field) for c in singles]
    reports = {}
    if family.has_singletons:
        reports = {config["range"]: verify_basis_theorem(config) for config in configs}
    sound = all(e.get("sound") is not False for report in reports.values() for e in report.spaces)
    return {
        "model": model_name,
        "member_rows": member_rows,
        "single_rows": single_rows,
        "sweeps": {
            variant: report.to_json_dict(with_timings=False) for variant, report in reports.items()
        },
        "probes": {
            variant: [report.entry_for(degrees) for degrees in PROBE_TUPLES]
            for variant, report in reports.items()
        },
        "ok": all(row["ok"] for row in member_rows + single_rows)
        and sound
        and ("wide" not in reports or reports["wide"].passed),
    }


# -- characteristic contrast ---------------------------------------------------


def char_contrast(p: int, bound: int = 4) -> dict:
    """Which equal-parity brackets remain identities of the Laurent model
    over GF(p), p odd. Empirical: the verdicts are measured, not asserted;
    they demonstrate that the family is characteristic-dependent."""
    if p == 2 or p < 2:
        raise ValueError("contrast mode needs an odd prime")
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    _check_separations(_U1.bracket_count(bound), "the contrast")
    field = Field.gf(p)
    model = u1_model(field)
    rows = []
    for (a, b) in _U1.brackets(bound):
        holds = satisfies_multilinear(model, _U1.bracket_member(a, b, field))
        rows.append({"a": a, "b": b, "member": f"[x1^{a}, x2^{b}]", "holds": holds})
    return {"p": p, "bound": bound, "rows": rows}
