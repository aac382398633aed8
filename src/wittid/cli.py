"""Command-line front end.

Verbs::

    is-identity   decide whether a polynomial is a graded identity of a model
    normal-form   reduce a monomial to its normal form (characteristic two)
    evaluate      evaluate a polynomial under a substitution in a model
    verify-basis  sweep components comparing identities with consequences
    independence  separation certificate for one bracket member
    minimality    removal evidence for every family member in range
    contrast      which members survive over GF(p), p odd
    report        summarize (and optionally revalidate) a saved report

Exit codes: 0 pass/true, 1 fail/false, 2 usage error, 141 when the
reader of standard output closes it early (as a shell reports SIGPIPE).
"""

from __future__ import annotations

import argparse
import os
import sys

from .fields import Field
from .grammar import PolynomialSyntaxError, format_monomial, format_polynomial, parse_polynomial
from .models import GradedModel, WittModel, evaluate, parse_model, satisfies_multilinear
from .tideal import W1_RANGE_BOUNDS, monomial_is_identity, monomial_normal_form
from .verify import (
    SweepConfig,
    VerificationReport,
    char_contrast,
    independence_check,
    minimality_sweep,
    no_finite_basis_demo,
    variable_independence_check,
    verify_basis_theorem,
)


class UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    parser = argparse.ArgumentParser(
        prog="wittid",
        description="Exact computations with Z-graded Lie identities of Witt-type algebras.",
    )
    # Shared flags, accepted before and after the verb; after it wins, as
    # the verb's parser sets only the flags it is given.
    for flag, default, options in (
        # None: not given, so gf2 (contrast takes its field from --p).
        ("--field", None, {"help": "gf2|gf<p>|rational (default gf2)"}),
        ("--format", "text", {"choices": ("text", "json")}),
        ("--out", None, {"help": "write the JSON report to this path"}),
        ("--seed", None, {"type": int, "help": "seed recorded in reports"}),
    ):
        parser.add_argument(flag, default=default, **options)
        common.add_argument(flag, default=argparse.SUPPRESS, **options)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("is-identity", parents=[common], help="decide a graded identity")
    p.add_argument("--model", default="u1")
    p.add_argument("polynomial")

    p = sub.add_parser("normal-form", parents=[common], help="normal form of a monomial")
    p.add_argument("monomial")

    p = sub.add_parser("evaluate", parents=[common], help="evaluate under a substitution")
    p.add_argument("--model", default="u1")
    p.add_argument(
        "--at",
        default=None,
        help="substitution like 'x1=e2, x2=e4' (default: x_i^a -> the basis vector of degree a)",
    )
    p.add_argument("polynomial")

    p = sub.add_parser("verify-basis", parents=[common], help="identity = consequence sweep")
    p.add_argument("--model", default="u1", choices=("u1", "w1"))
    p.add_argument("--range", default="wide", choices=tuple(W1_RANGE_BOUNDS))
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--dmax", type=int, default=3)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--budget", type=float, default=None, help="per-space seconds")

    p = sub.add_parser("independence", parents=[common], help="separation certificates")
    p.add_argument("--r", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--d", type=int, help="single-variable member degree")
    p.add_argument("--bound", type=int, default=6)
    p.add_argument("--count", type=int, default=None, help="emit a table for the first COUNT members")

    p = sub.add_parser("minimality", parents=[common], help="removal evidence for family members")
    p.add_argument("--model", default="u1", choices=("u1", "w1"))
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--separation-bound", type=int, default=6)
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--dmax", type=int, default=2)

    p = sub.add_parser("contrast", parents=[common], help="survivors over GF(p), p odd")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--bound", type=int, default=4)

    p = sub.add_parser("report", parents=[common], help="summarize a saved report")
    p.add_argument("path")
    p.add_argument("--revalidate", action="store_true")

    return parser


def _emit(args, text_lines, json_obj) -> None:
    import json

    if args.format == "json":
        print(json.dumps(json_obj, indent=2))
    else:
        for line in text_lines:
            print(line)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(json_obj, handle, indent=2)
            handle.write("\n")


def _cmd_is_identity(args, field: Field) -> tuple:
    model = parse_model(args.model, field)
    poly = parse_polynomial(args.polynomial, field)
    if not poly.terms:
        verdict, method = True, "zero"
    elif (
        len(poly.terms) == 1
        and isinstance(model, WittModel)
        and field.characteristic == 2
    ):
        (mono,) = poly.terms
        verdict = monomial_is_identity(mono, model)
        method = "monomial-rule"
    elif poly.is_multilinear():
        verdict = satisfies_multilinear(model, poly)
        method = "evaluation"
    else:
        raise UsageError(
            "only monomials (u1/w1) or multilinear polynomials can be decided"
        )
    lines = [f"{'identity' if verdict else 'not an identity'} of {model.name} over {field}"]
    return (0 if verdict else 1), lines, {
        "command": "is-identity",
        "model": model.name,
        "field": str(field),
        "polynomial": format_polynomial(poly),
        "is_identity": verdict,
        "method": method,
    }


def _cmd_normal_form(args, field: Field) -> tuple:
    if field.characteristic != 2:
        raise UsageError(f"normal-form works in characteristic two, not over {field}")
    poly = parse_polynomial(args.monomial, field)
    if len(poly.terms) != 1:
        raise UsageError("normal-form expects a single monomial")
    (mono,) = poly.terms
    normal = monomial_normal_form(mono)
    text = "0" if normal is None else format_monomial(normal)
    return 0, [text], {
        "command": "normal-form",
        "monomial": format_monomial(mono),
        "normal_form": text,
    }


def _parse_substitution(text: str, poly, model: GradedModel) -> dict:
    by_index = {v.index: v for v in poly.variables()}
    out = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise UsageError(f"bad substitution item {chunk!r} (want x1=e2)")
        name, value = (part.strip() for part in chunk.split("=", 1))
        if not name.startswith("x"):
            raise UsageError(f"bad variable name {name!r}")
        try:
            index = int(name[1:])
        except ValueError:
            raise UsageError(f"bad variable name {name!r}") from None
        if index not in by_index:
            raise UsageError(f"variable {name} does not occur in the polynomial")
        var = by_index[index]
        if var in out:
            raise UsageError(f"variable {name} is assigned twice")
        slots = model.component_slots(var.degree)
        matches = [i for i, slot in enumerate(slots) if slot.lower() == value.lower()]
        if not matches:
            raise UsageError(
                f"{value!r} is not a basis vector of degree {var.degree} in {model.name}"
            )
        out[var] = model.basis_element(var.degree, matches[0])
    return out


def _cmd_evaluate(args, field: Field) -> tuple:
    model = parse_model(args.model, field)
    poly = parse_polynomial(args.polynomial, field)
    if args.at:
        substitution = _parse_substitution(args.at, poly, model)
        missing = sorted(v for v in poly.variables() if v not in substitution)
        if missing:
            raise UsageError(f"substitution misses {', '.join(str(v) for v in missing)}")
    else:
        substitution = {}
        for v in sorted(poly.variables()):
            if model.dim(v.degree) != 1:
                raise UsageError(
                    f"no default value for {v}: component of degree {v.degree} in "
                    f"{model.name} has dimension {model.dim(v.degree)}; use --at"
                )
            substitution[v] = model.basis_element(v.degree, 0)
    value = evaluate(poly, substitution, model)
    text = model.format_element(value)
    return 0, [text], {
        "command": "evaluate",
        "model": model.name,
        "field": str(field),
        "polynomial": format_polynomial(poly),
        "value": text,
        "is_zero": value.is_zero(),
    }


def _cmd_verify_basis(args, field: Field) -> tuple:
    config = SweepConfig(
        model=args.model,
        family_range=args.range,
        nmax=args.nmax,
        dmax=args.dmax,
        field=str(field),
        workers=args.workers,
        space_budget_s=args.budget,
        seed=args.seed,
    )
    report = verify_basis_theorem(config)
    s = report.summary
    lines = [
        f"model {args.model} over {field}: {len(report.spaces)} components",
        f"passed {s['passed']}, failed {s['failed']}, skipped {s['skipped']}",
    ]
    for entry in report.spaces:
        if entry.get("sound") is False or entry.get("complete") is False:
            lines.append(
                f"  FAIL degrees={entry['degrees']} sound={entry['sound']} "
                f"complete={entry['complete']} witness={entry.get('witness')}"
            )
    return (0 if report.passed else 1), lines, report.to_json_dict()


def _cmd_independence(args, field: Field) -> tuple:
    given = [f"--{name}" for name in ("count", "d", "r", "s") if getattr(args, name) is not None]
    # --r and --s name one certificate together; every other pair is a mix.
    if len(given) - ("--r" in given and "--s" in given) > 1:
        raise UsageError(
            "independence takes --r and --s, or --d, or --count, not a mix: "
            f"got {' '.join(given)}"
        )
    if args.count is not None:
        demo = no_finite_basis_demo(args.count, field=field)
        lines = [
            f"{row['member']}: model {row['model']} "
            f"{'separates' if row['fails_member'] and row['satisfies_rest'] else 'FAILS'}"
            for row in demo["rows"]
        ]
        return (0 if demo["ok"] else 1), lines, demo
    if args.d is not None:
        result = variable_independence_check(args.d, bound=args.bound, field=field)
        lines = [
            f"x1^{args.d}: fails in onedim:{args.d} = {result['fails_member']}, "
            f"other members satisfied = {not result['violations']}"
        ]
        return (0 if result["ok"] else 1), lines, result
    if args.r is None or args.s is None:
        raise UsageError("independence needs --r and --s, or --d, or --count")
    result = independence_check(args.r, args.s, bound=args.bound, field=field)
    lines = [
        f"[x1^{args.r}, x2^{args.s}]: fails in ut3:{args.r}:{args.s} = {result['fails_member']}, "
        f"other members satisfied = {not result['violations']} "
        f"({result['checked_pairs']} checked)"
    ]
    return (0 if result["ok"] else 1), lines, result


def _cmd_minimality(args, field: Field) -> tuple:
    report = minimality_sweep(
        args.model,
        member_bound=args.bound,
        separation_bound=args.separation_bound,
        nmax=args.nmax,
        dmax=args.dmax,
        field_spec=str(field),
    )
    lines = [f"model {args.model}: {len(report['member_rows'])} bracket members checked"]
    for row in report["member_rows"]:
        lines.append(f"  {row['member']}: {'ok' if row['ok'] else 'NOT SEPARATED'}")
    for variant, entries in report["probes"].items():
        for entry in entries:
            if entry is None:
                continue
            lines.append(
                f"  probe {variant} degrees={entry['degrees']}: "
                f"identity dim {entry['dimIdentity']}, consequence dim {entry['dimConsequence']}"
            )
    return (0 if report["ok"] else 1), lines, report


def _cmd_contrast(args, field: Field) -> tuple:
    if args.field is not None and str(field) != f"gf{args.p}":
        raise UsageError(f"contrast runs over gf{args.p} (--p {args.p}), not over {field} (--field)")
    report = char_contrast(args.p, bound=args.bound)
    lines = [f"over gf{args.p}:"]
    for row in report["rows"]:
        lines.append(f"  {row['member']}: {'holds' if row['holds'] else 'fails'}")
    return 0, lines, report


def _cmd_report(args, field: Field) -> tuple:
    with open(args.path) as handle:
        report = VerificationReport.from_json(handle.read())
    problems, invalid = report.audit(args.revalidate)
    s = report.summary
    lines = [
        f"report for {report.config['model']} over {report.config['field']}: "
        f"{len(report.spaces)} components",
        f"passed {s['passed']}, failed {s['failed']}, skipped {s['skipped']}",
        *problems,
    ]
    if invalid is not None:
        lines.append(f"INVALID witnesses at {invalid}" if invalid else "witnesses revalidated")
    obj = report.to_json_dict()
    obj["revalidated"] = None if invalid is None else not invalid
    return (0 if report.passed and not problems and not invalid else 1), lines, obj


#: verb -> handler; each takes (args, field) and returns (exit code,
#: text lines, JSON object).
COMMANDS = {
    "is-identity": _cmd_is_identity,
    "normal-form": _cmd_normal_form,
    "evaluate": _cmd_evaluate,
    "verify-basis": _cmd_verify_basis,
    "independence": _cmd_independence,
    "minimality": _cmd_minimality,
    "contrast": _cmd_contrast,
    "report": _cmd_report,
}


#: Exit code when standard output is closed by its reader: 128 + SIGPIPE.
EXIT_BROKEN_PIPE = 141


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        field = Field.from_spec(args.field or "gf2")
        code, lines, obj = COMMANDS[args.verb](args, field)
        _emit(args, lines, obj)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The Python docs' recipe: point stdout at devnull so that the
        # flush at exit does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (UsageError, PolynomialSyntaxError, ValueError, OSError) as exc:
        print(f"wittid: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
