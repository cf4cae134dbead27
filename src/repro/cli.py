"""Command-line interface: ``ace-extract``.

Mirrors how ACE was driven at CMU: point it at a CIF file, get a wirelist
on stdout (or to a file).  Options expose the paper's user-visible
features: geometry output per net/device, the hierarchical extractor,
extraction statistics, and the static checker.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import IO, Iterator

from .analysis import static_check
from .core.stripengine import ENGINE_CHOICES, EngineUnavailable
from .pipeline import JobOptions, run
from .tech import DeckError, compile_deck, resolve_deck


def package_version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib import metadata

        return metadata.version("repro")
    except Exception:
        from . import __version__

        return __version__


def add_version_argument(parser: argparse.ArgumentParser) -> None:
    """Give ``parser`` the uniform ``--version`` flag every CLI shares."""
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {package_version()}",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ace-extract",
        description="Flat edge-based (and hierarchical) NMOS circuit "
        "extraction from CIF layouts.",
    )
    add_version_argument(parser)
    parser.add_argument("cif", help="input CIF file")
    parser.add_argument(
        "-o", "--output", help="wirelist output file (default: stdout)"
    )
    parser.add_argument(
        "--hierarchical",
        action="store_true",
        help="use the hierarchical extractor (HEXT) and emit a "
        "hierarchical wirelist",
    )
    parser.add_argument(
        "--geometry",
        action="store_true",
        help="include per-net and per-device geometry in the wirelist "
        "(flat mode only; suppressed by default, as in the paper)",
    )
    parser.add_argument(
        "--stream",
        action="store_true",
        help="extract out-of-core: produce geometry in y-bands, retire "
        "finished nets/devices to a disk spill store, and emit the "
        "wirelist incrementally (flat mode only; output is "
        "byte-identical to the in-memory path)",
    )
    parser.add_argument(
        "--band-height",
        type=int,
        default=None,
        metavar="UNITS",
        help="streaming band height in layout units (default: one band, "
        "i.e. the in-memory schedule with streaming bookkeeping)",
    )
    parser.add_argument(
        "--spill",
        metavar="DIR",
        help="directory for streamed retired-state envelopes (default: "
        "<checkpoint>.spill, else a temporary directory)",
    )
    parser.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="write a resume checkpoint at every streaming band boundary",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="finish the streamed sweep recorded at --checkpoint if the "
        "checkpoint exists, replaying its committed bands in memory "
        "(same layout and options required); starts fresh otherwise",
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
        "--deck",
        default="nmos",
        metavar="NAME|PATH",
        help="technology deck: a builtin name (nmos, cmos) or a deck "
        "JSON file (default nmos)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default="auto",
        help="strip-batch engine for the scanline core: 'numpy' "
        "vectorizes per-strip work (requires the repro[fast] extra), "
        "'python' is the dependency-free reference, 'auto' picks numpy "
        "when importable (default).  Wirelists are byte-identical "
        "either way.",
    )
    parser.add_argument(
        "--cache",
        metavar="DIR",
        help="persistent fragment cache directory; repeated hierarchical "
        "runs skip extraction of unchanged windows",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print extraction statistics to stderr",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print where the run's time went to stderr: every stage "
        "(parse/extract/wirelist/lint) with its phases, and the "
        "unaccounted remainder",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="run the static checker and print diagnostics to stderr",
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="run the design-rule checker (sharing the extraction "
        "scanline in flat mode) and print diagnostics to stderr",
    )
    parser.add_argument(
        "--vdd",
        action="append",
        default=None,
        metavar="NAME",
        help="extra VDD rail name for --check (repeatable, "
        "case-insensitive)",
    )
    parser.add_argument(
        "--gnd",
        action="append",
        default=None,
        metavar="NAME",
        help="extra GND rail name for --check (repeatable, "
        "case-insensitive)",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="print an ASCII rendering of the artwork to stderr",
    )
    parser.add_argument(
        "--svg",
        metavar="PATH",
        help="write an SVG rendering of the artwork to PATH",
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        tech = compile_deck(resolve_deck(args.deck, args.lambda_))
    except DeckError as exc:
        print(f"error: --deck {args.deck}: {exc}", file=sys.stderr)
        return 2
    if args.stream and args.hierarchical:
        print(
            "error: --stream is flat-only; it cannot be combined with "
            "--hierarchical",
            file=sys.stderr,
        )
        return 2
    if args.stream and args.check:
        print(
            "error: --check needs the in-memory circuit; run it without "
            "--stream",
            file=sys.stderr,
        )
        return 2
    if args.stream and args.resume and args.checkpoint is None:
        print(
            "error: --resume continues the sweep recorded at --checkpoint; "
            "give the checkpoint path",
            file=sys.stderr,
        )
        return 2
    if not args.stream and (
        args.resume or args.checkpoint or args.band_height or args.spill
    ):
        print(
            "note: --band-height/--spill/--checkpoint/--resume only "
            "apply with --stream",
            file=sys.stderr,
        )
    if not args.hierarchical and args.cache is not None:
        print(
            "note: --cache stores unique-window fragments and only "
            "applies with --hierarchical",
            file=sys.stderr,
        )

    options = JobOptions(
        name=args.cif.rsplit("/", 1)[-1],
        hext=args.hierarchical,
        lint=args.lint,
        keep_geometry=args.geometry,
        stream=args.stream,
        band_height=args.band_height,
    )
    with open(args.cif) as handle:
        text = handle.read()
    try:
        with _output(args.output) as out:
            result = run(
                text,
                tech,
                options,
                engine=args.engine,
                out=out,
                cache=args.cache,
                spill_dir=args.spill,
                checkpoint=args.checkpoint,
                resume="auto" if args.resume else False,
            )
    except EngineUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.plot or args.svg:
        from .plot import ascii_plot, svg_plot

        if args.plot:
            print(ascii_plot(result.layout), file=sys.stderr)
        if args.svg:
            svg_plot(result.layout, args.svg)
    if args.profile:
        _print_profile(result.trace)
    if args.stats:
        _print_stats(args, result)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    failed = False
    if result.lint is not None:
        from .diagnostics import format_diagnostic

        for diag in result.lint.diagnostics:
            print(format_diagnostic(diag), file=sys.stderr)
        print(f"lint: {len(result.lint.errors)} error(s)", file=sys.stderr)
        failed = not result.lint.ok
    if args.check:
        assert result.circuit is not None  # --stream refuses --check
        erc = tech.deck.erc
        report = static_check(
            result.circuit,
            tech=tech,
            vdd_names=tuple(erc.vdd_names) + tuple(args.vdd or ()),
            gnd_names=tuple(erc.gnd_names) + tuple(args.gnd or ()),
        )
        for diag in report.diagnostics:
            print(f"{diag.severity.value}: [{diag.rule}] {diag.message}", file=sys.stderr)
        if not report.ok:
            failed = True
    return 1 if failed else 0


@contextmanager
def _output(path: "str | None") -> "Iterator[IO[str]]":
    """The wirelist's destination: ``path``, or stdout."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as handle:
            yield handle


def _print_profile(trace) -> None:
    """The ``--profile`` stderr table: every stage, its phases, and the
    unaccounted remainder, as seconds and shares of the run's wall."""
    wall = trace.wall
    print(f"ace profile: {wall:.4f}s wall", file=sys.stderr)
    for depth, name, seconds in trace.rows():
        share = 100.0 * seconds / wall if wall else 0.0
        label = "  " * depth + name
        print(f"  {label:<14} {seconds:8.4f}s {share:5.1f}%", file=sys.stderr)


def _print_stats(args, result) -> None:
    """The ``--stats`` stderr lines; the timing is the run's root wall."""
    stats = result.stats
    if args.hierarchical:
        print(
            f"hext: {stats.flat_calls} flat calls, "
            f"{stats.compose_calls} composes, "
            f"{stats.memo_hits} memo hits, "
            f"front-end {stats.frontend_seconds:.2f}s, "
            f"back-end {stats.backend_seconds:.2f}s",
            file=sys.stderr,
        )
        if args.cache is not None:
            print(
                f"hext: fragment cache {stats.cache_hits} hits, "
                f"{stats.cache_misses} misses "
                f"({stats.cache_invalid} invalid), "
                f"hit rate {100 * stats.cache_hit_rate:.0f}%",
                file=sys.stderr,
            )
    else:
        print(
            f"ace: {stats.boxes_in} boxes, {stats.stops} scanline stops, "
            f"mean active {stats.mean_active:.1f}, "
            f"peak active {stats.peak_active}",
            file=sys.stderr,
        )
        print(
            f"ace events: {stats.heap_pushes} heap pushes, "
            f"{stats.heap_pops} pops ({stats.lazy_discards} lazy), "
            f"{stats.expired} expired intervals, "
            f"max {stats.max_stop_overhead} scans/stop beyond removals",
            file=sys.stderr,
        )
    if args.stream:
        report = result.report
        resumed = " (resumed)" if report.resumed else ""
        print(
            f"stream: {report.bands} bands, band height "
            f"{args.band_height or 'whole-chip'}, "
            f"engine {report.engine}{resumed}",
            file=sys.stderr,
        )
    wall = result.trace.wall
    rate = result.devices / wall if wall else 0.0
    print(
        f"{result.devices} devices, {result.nets} nets in "
        f"{wall:.2f}s ({rate:.0f} devices/sec)",
        file=sys.stderr,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
