"""Command-line interface: ``repro-difftest``.

Normal mode fuzzes for real disagreements and exits non-zero if any are
found (the corpus then holds the minimized repros).  Self-test mode
(``--inject-fault``) arms a deliberately broken scanline rule and exits
zero only if the harness caught and shrank the manufactured bug -- the
harness testing itself.
"""

from __future__ import annotations

import argparse
import sys

from ..cli import add_version_argument
from ..tech import BUILTIN_DECKS, DeckError, compile_deck, resolve_deck
from .driver import run_difftest
from .faults import KNOWN_FAULTS
from .oracles import DEFAULT_ORACLES, ORACLES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-difftest",
        description="Differential fuzzing of the extraction oracles "
        "over seeded random layouts, with failure shrinking and a "
        "persisted repro corpus.",
    )
    add_version_argument(parser)
    parser.add_argument(
        "-n", "--iterations", type=int, default=100,
        help="number of generated layouts (default 100)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed; every iteration derives a stable sub-seed",
    )
    parser.add_argument(
        "--corpus", metavar="DIR", default="difftest-corpus",
        help="directory for minimized repros (default ./difftest-corpus)",
    )
    parser.add_argument(
        "--oracles", metavar="A,B,...",
        help="comma-separated oracle subset (default: all; see "
        "--list-oracles)",
    )
    parser.add_argument(
        "--lambda", dest="lambda_", type=int, default=None,
        metavar="CENTIMICRONS",
        help="process lambda, for a builtin deck or a deck file "
        "(default 250, or the file's own)",
    )
    parser.add_argument(
        "--deck", default="nmos", metavar="NAME|PATH",
        help="technology deck to fuzz under: a builtin name "
        f"({', '.join(sorted(BUILTIN_DECKS))}) or a deck JSON file (a "
        "file named like a builtin is reached as ./NAME); generated "
        "layouts are retargeted to the deck's layers and oracles "
        "without support for the deck are excluded (default nmos)",
    )
    parser.add_argument(
        "--max-failures", type=int, default=5,
        help="stop after this many distinct failures (default 5)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="persist failures without minimizing them",
    )
    parser.add_argument(
        "--inject-fault", choices=sorted(KNOWN_FAULTS),
        help="self-test: arm a deliberate scanline bug and require the "
        "harness to find and shrink it",
    )
    parser.add_argument(
        "--drc-self-test", action="store_true",
        help="self-test: plant each class of design-rule violation into "
        "clean host cells and require the DRC to catch and shrink it",
    )
    parser.add_argument(
        "--list-oracles", action="store_true",
        help="print the oracle registry and exit",
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress per-failure progress lines",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_oracles:
        for name, oracle in ORACLES.items():
            flags = []
            if not oracle.grid_exact:
                flags.append("grid-aligned layouts only")
            if oracle.sizes_exact:
                flags.append("exact sizes")
            suffix = f"  [{'; '.join(flags)}]" if flags else ""
            print(f"{name:10s} {oracle.description}{suffix}")
        return 0

    oracle_names = (
        tuple(part.strip() for part in args.oracles.split(",") if part.strip())
        if args.oracles
        else DEFAULT_ORACLES
    )
    try:
        tech = compile_deck(resolve_deck(args.deck, args.lambda_))
    except DeckError as exc:
        print(f"repro-difftest: --deck {args.deck}: {exc}", file=sys.stderr)
        return 2

    def progress(line: str) -> None:
        if not args.quiet:
            print(f"difftest: {line}", file=sys.stderr)

    if args.drc_self_test:
        from .drcplant import run_drc_self_test

        result = run_drc_self_test(
            tech, do_shrink=not args.no_shrink, progress=progress
        )
        missed = sorted(
            {p.rule for p in result.plants if not p.caught}
        )
        unshrunk = sorted(
            {p.rule for p in result.plants if p.caught and not p.ok}
        )
        if result.ok:
            print(
                f"difftest: DRC self-test PASSED -- "
                f"{len(result.plants)} plant(s) over "
                f"{len(result.clean_hosts)} clean host(s), every "
                f"violation class caught and shrunk",
                file=sys.stderr,
            )
            return 0
        if result.dirty_hosts:
            print(
                "difftest: DRC self-test FAILED -- host(s) not clean: "
                + ", ".join(result.dirty_hosts),
                file=sys.stderr,
            )
        if missed:
            print(
                "difftest: DRC self-test FAILED -- missed rule(s): "
                + ", ".join(missed),
                file=sys.stderr,
            )
        if unshrunk:
            print(
                "difftest: DRC self-test FAILED -- shrink lost rule(s): "
                + ", ".join(unshrunk),
                file=sys.stderr,
            )
        return 1

    result = run_difftest(
        iterations=args.iterations,
        seed=args.seed,
        oracle_names=oracle_names,
        tech=tech,
        corpus_dir=args.corpus,
        do_shrink=not args.no_shrink,
        max_failures=args.max_failures,
        fault=args.inject_fault,
        progress=progress,
    )

    print(f"difftest: oracles {', '.join(result.oracles)}", file=sys.stderr)
    print(
        f"difftest: {result.iterations} iterations, {result.agreed} agreed, "
        f"{len(result.failures)} failure(s), "
        f"{result.raster_skips} off-grid case(s) skipped the raster oracle",
        file=sys.stderr,
    )
    for failure in result.failures:
        where = f" -> {failure.path}" if failure.path else ""
        print(
            f"difftest: seed {failure.seed}: "
            f"{failure.mismatches[0].headline()}{where}",
            file=sys.stderr,
        )

    if args.inject_fault:
        if result.failures:
            smallest = min(
                failure.shrunk.after
                for failure in result.failures
                if failure.shrunk
            ) if any(f.shrunk for f in result.failures) else None
            print(
                "difftest: self-test PASSED -- the armed fault "
                f"{args.inject_fault!r} was caught"
                + (f" and shrunk to {smallest} primitives"
                   if smallest is not None else ""),
                file=sys.stderr,
            )
            return 0
        print(
            f"difftest: self-test FAILED -- fault {args.inject_fault!r} "
            f"went undetected in {result.iterations} iterations",
            file=sys.stderr,
        )
        return 1
    return 0 if result.ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
