"""Command-line interface: ``repro-lint``.

One front-end over both checkers: the geometric design-rule checker
(:mod:`repro.drc`) and the electrical static checker
(:mod:`repro.analysis.static_check`).  Each input file is extracted
once -- the DRC rides the extraction scanline as a strip consumer, so
lint costs a single pass per layout -- and the merged findings go out
as text, JSON, or SARIF, optionally filtered through a committed
baseline file.

Both checkers are driven by a technology deck (``--deck`` selects a
builtin name like ``nmos``/``cmos`` or a deck JSON file), and the deck
itself is a lintable artifact: ``--check-deck`` runs the deck
compiler's static validation pass and reports its findings through the
same writers, so CI can gate malformed process descriptions exactly
like malformed layouts.

Exit codes: 0 when no (unsuppressed) errors remain; otherwise the error
count, capped at 99; 120 for usage, parse, or internal failures.
"""

from __future__ import annotations

import argparse
import sys

from .analysis.static_check import ERC_RULE_HELP, static_check
from .cif import CifError, Layout, parse_file
from .cli import add_version_argument
from .core import extract_report
from .diagnostics import (
    CheckReport,
    Diagnostic,
    Severity,
    apply_baseline,
    format_text,
    load_baseline,
    write_baseline,
    write_json,
    write_sarif,
)
from .drc import ALL_RULES, DrcChecker, help_for
from .pipeline import attribute as attribute_sources
from .tech import (
    BUILTIN_DECKS,
    DECK_RULE_HELP,
    NMOS,
    DeckError,
    Technology,
    compile_deck,
    resolve_deck,
    validate_deck,
)

#: Exit code cap: large error counts must not collide with shell
#: signal/usage codes above 125.
MAX_ERROR_EXIT = 99
#: Exit code for parse or internal failures (distinct from any count).
INTERNAL_ERROR_EXIT = 120


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Design-rule and static checks over CIF layouts, "
        "in one scanline pass per file.",
    )
    add_version_argument(parser)
    parser.add_argument("files", nargs="*", help="input CIF files")
    parser.add_argument(
        "--deck",
        default="nmos",
        metavar="NAME|PATH",
        help="technology deck: a builtin name "
        f"({', '.join(sorted(BUILTIN_DECKS))}) or a deck JSON file; a "
        "file named like a builtin is reached as ./NAME (default nmos)",
    )
    parser.add_argument(
        "--check-deck",
        action="store_true",
        help="validate technology decks instead of linting layouts: "
        "checks the positional files as deck JSON (or, with no files, "
        "the --deck selection) and reports the findings",
    )
    parser.add_argument(
        "--lambda",
        dest="lambda_",
        type=int,
        default=None,
        metavar="CENTIMICRONS",
        help="process lambda in centimicrons, for a builtin deck or a "
        "deck file (default 250, or the file's own)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default text)",
    )
    parser.add_argument(
        "-o", "--output", help="report output file (default: stdout)"
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="suppress findings recorded in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="record the current findings as the baseline and exit 0",
    )
    parser.add_argument(
        "--no-drc",
        action="store_true",
        help="skip the geometric design-rule checks",
    )
    parser.add_argument(
        "--no-erc",
        action="store_true",
        help="skip the electrical static checks",
    )
    parser.add_argument(
        "--rules",
        metavar="ID[,ID...]",
        action="append",
        default=None,
        help="only report these rule ids (repeatable, comma-separated)",
    )
    parser.add_argument(
        "--vdd",
        action="append",
        default=None,
        metavar="NAME",
        help="extra VDD rail name (repeatable, case-insensitive)",
    )
    parser.add_argument(
        "--gnd",
        action="append",
        default=None,
        metavar="NAME",
        help="extra GND rail name (repeatable, case-insensitive)",
    )
    parser.add_argument(
        "--no-attribution",
        action="store_true",
        help="skip mapping findings back to CIF symbols",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the rule ids (DRC, ERC, and deck validation) and exit",
    )
    return parser


def all_rule_help(tech: "Technology | None" = None) -> dict[str, str]:
    """Rule-id help across DRC, ERC, and deck validation."""
    return {**help_for(tech), **ERC_RULE_HELP, **DECK_RULE_HELP}


def check_deck_reports(
    specs: "list[str]", lambda_: "int | None" = None
) -> "list[CheckReport]":
    """Run the deck validator over each spec; one report per deck.

    Resolution failures (unknown name, unreadable file, malformed JSON
    shape) surface as a single ``deck.parse`` ERROR so the caller still
    gets a report per input instead of an exception.
    """
    reports: list[CheckReport] = []
    for spec in specs:
        try:
            report = validate_deck(resolve_deck(spec, lambda_))
        except DeckError as exc:
            report = CheckReport(
                diagnostics=[
                    Diagnostic(
                        Severity.ERROR, "deck.parse", str(exc), tool="deck"
                    )
                ]
            )
        report.artifact = spec
        reports.append(report)
    return reports


def _rule_filter(specs: "list[str] | None") -> "frozenset[str] | None":
    if not specs:
        return None
    ids = set()
    for spec in specs:
        ids.update(part.strip() for part in spec.split(",") if part.strip())
    return frozenset(ids)


def lint_layout(
    layout: "Layout",
    *,
    tech: "Technology | None" = None,
    drc: bool = True,
    erc: bool = True,
    rule_ids: "frozenset[str] | None" = None,
    vdd_names: "tuple[str, ...] | None" = None,
    gnd_names: "tuple[str, ...] | None" = None,
    attribute: bool = True,
    artifact: "str | None" = None,
) -> CheckReport:
    """Lint a parsed layout: a single extraction pass feeds both checkers.

    ``tech`` carries the deck whose rule set, messages, and ERC policy
    apply; rail names left ``None`` resolve from the deck (the CLI's
    ``--vdd``/``--gnd`` extend rather than replace them).
    """
    tech = tech or NMOS()
    checker = (
        DrcChecker(
            tech,
            enabled=(
                frozenset(r for r in rule_ids if r in ALL_RULES)
                if rule_ids is not None
                else None
            ),
        )
        if drc
        else None
    )
    extraction = extract_report(
        layout, tech, strip_consumers=(checker,) if checker else ()
    )
    report = CheckReport(artifact=artifact)
    if checker is not None:
        drc_report = checker.report(artifact=artifact)
        if attribute:
            drc_report = attribute_sources(drc_report, layout)
        report.extend(drc_report)
    if erc:
        erc_report = static_check(
            extraction.circuit,
            tech=tech,
            vdd_names=vdd_names,
            gnd_names=gnd_names,
        )
        if rule_ids is not None:
            erc_report = CheckReport(
                diagnostics=[
                    d for d in erc_report.diagnostics if d.rule in rule_ids
                ]
            )
        report.extend(erc_report)
    return report.sorted()


def lint_file(
    path: str,
    *,
    lambda_: "int | None" = None,
    tech: "Technology | None" = None,
    drc: bool = True,
    erc: bool = True,
    rule_ids: "frozenset[str] | None" = None,
    vdd_names: "tuple[str, ...] | None" = None,
    gnd_names: "tuple[str, ...] | None" = None,
    attribute: bool = True,
) -> CheckReport:
    """Lint one CIF file (see :func:`lint_layout`)."""
    if tech is None:
        tech = NMOS() if lambda_ is None else NMOS(lambda_)
    return lint_layout(
        parse_file(path),
        tech=tech,
        drc=drc,
        erc=erc,
        rule_ids=rule_ids,
        vdd_names=vdd_names,
        gnd_names=gnd_names,
        attribute=attribute,
        artifact=path,
    )


def _emit(reports: "list[CheckReport]", args: argparse.Namespace,
          rule_help: "dict[str, str]") -> None:
    if args.format == "json":
        text = write_json(reports)
    elif args.format == "sarif":
        text = write_sarif(reports, rule_help=rule_help)
    else:
        text = "".join(format_text(r) for r in reports)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _compile(args: argparse.Namespace) -> "Technology | None":
    """The ``--deck`` compiled at ``--lambda``, or None once the reason
    it cannot be is on stderr."""
    try:
        return compile_deck(resolve_deck(args.deck, args.lambda_))
    except DeckError as exc:
        print(f"repro-lint: --deck {args.deck}: {exc}", file=sys.stderr)
        if exc.report is not None:
            print(
                "repro-lint: run with --check-deck for the full "
                "validation report",
                file=sys.stderr,
            )
        return None


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        tech = _compile(args)
        if tech is None:
            return INTERNAL_ERROR_EXIT
        for rule, help_text in sorted(all_rule_help(tech).items()):
            print(f"{rule}: {help_text}")
        return 0

    if args.check_deck:
        specs = list(args.files) or [args.deck]
        reports = check_deck_reports(specs, args.lambda_)
        _emit(reports, args, all_rule_help())
        errors = sum(len(r.errors) for r in reports)
        return min(errors, MAX_ERROR_EXIT)

    if not args.files:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no input files", file=sys.stderr)
        return INTERNAL_ERROR_EXIT

    tech = _compile(args)
    if tech is None:
        return INTERNAL_ERROR_EXIT

    rule_ids = _rule_filter(args.rules)
    vdd = tuple(tech.deck.erc.vdd_names) + tuple(args.vdd or ())
    gnd = tuple(tech.deck.erc.gnd_names) + tuple(args.gnd or ())

    reports: list[CheckReport] = []
    for path in args.files:
        try:
            reports.append(
                lint_file(
                    path,
                    tech=tech,
                    drc=not args.no_drc,
                    erc=not args.no_erc,
                    rule_ids=rule_ids,
                    vdd_names=vdd,
                    gnd_names=gnd,
                    attribute=not args.no_attribution,
                )
            )
        except (OSError, ValueError, CifError) as exc:
            print(f"repro-lint: {path}: {exc}", file=sys.stderr)
            return INTERNAL_ERROR_EXIT

    if args.write_baseline:
        write_baseline(args.write_baseline, reports)
        total = sum(len(r.diagnostics) for r in reports)
        print(
            f"repro-lint: wrote baseline of {total} finding(s) to "
            f"{args.write_baseline}",
            file=sys.stderr,
        )
        return 0

    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"repro-lint: {args.baseline}: {exc}", file=sys.stderr)
            return INTERNAL_ERROR_EXIT
        reports = [apply_baseline(r, baseline) for r in reports]

    _emit(reports, args, all_rule_help(tech))

    errors = sum(len(r.errors) for r in reports)
    return min(errors, MAX_ERROR_EXIT)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
