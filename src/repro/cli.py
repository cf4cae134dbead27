"""Command-line interface: ``ace-extract``.

Mirrors how ACE was driven at CMU: point it at a CIF file, get a wirelist
on stdout (or to a file).  Options expose the paper's user-visible
features: geometry output per net/device, the hierarchical extractor,
extraction statistics, and the static checker.
"""

from __future__ import annotations

import argparse
import sys
import time

from .analysis import static_check
from .cif import parse_file
from .core import extract_report
from .core.stripengine import ENGINE_CHOICES, EngineUnavailable
from .hext import hext_extract
from .hext.wirelist import to_hierarchical_wirelist
from .tech import NMOS
from .wirelist import to_wirelist, write_wirelist


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
        help="resume the streamed sweep recorded at --checkpoint if the "
        "checkpoint exists (same layout and options required); starts "
        "fresh otherwise",
    )
    parser.add_argument(
        "--lambda",
        dest="lambda_",
        type=int,
        default=None,
        metavar="CENTIMICRONS",
        help="process lambda in centimicrons (default 250)",
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
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="extract unique windows over N worker processes "
        "(hierarchical mode; 0 = one per CPU; default serial)",
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
        help="time the scanline host's phases (schedule/expire/insert/"
        "strip/finalize) and print the per-phase breakdown to stderr "
        "(flat and --stream modes)",
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
    if args.deck == "nmos":
        tech = NMOS(args.lambda_) if args.lambda_ else NMOS()
    else:
        from .lint import resolve_deck
        from .tech import DeckError, compile_deck

        try:
            tech = compile_deck(resolve_deck(args.deck, args.lambda_))
        except (DeckError, KeyError, OSError) as exc:
            message = exc.args[0] if exc.args else exc
            print(f"error: --deck {args.deck}: {message}", file=sys.stderr)
            return 2
    layout = parse_file(args.cif)
    name = args.cif.rsplit("/", 1)[-1]
    drc_checker = None
    if args.lint:
        from .drc import DrcChecker

        drc_checker = DrcChecker(tech)

    if args.plot or args.svg:
        from .plot import ascii_plot, svg_plot

        if args.plot:
            print(ascii_plot(layout), file=sys.stderr)
        if args.svg:
            svg_plot(layout, args.svg)

    started = time.perf_counter()
    try:
        return _run_extraction(args, tech, layout, name, drc_checker, started)
    except EngineUnavailable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _print_profile(stats) -> None:
    """The ``--profile`` stderr line: per-phase seconds plus shares."""
    profile = getattr(stats, "profile", None)
    if not profile:
        return
    total = sum(profile.values())
    parts = ", ".join(
        f"{phase} {seconds:.3f}s"
        f" ({100.0 * seconds / total:.0f}%)" if total else f"{phase} 0s"
        for phase, seconds in profile.items()
    )
    print(f"ace profile: {parts}", file=sys.stderr)


def _run_extraction(args, tech, layout, name, drc_checker, started) -> int:
    if args.stream:
        return _run_streaming(args, tech, layout, name, drc_checker, started)
    if args.resume or args.checkpoint or args.band_height or args.spill:
        print(
            "note: --band-height/--spill/--checkpoint/--resume only "
            "apply with --stream",
            file=sys.stderr,
        )
    if args.hierarchical:
        if args.profile:
            print(
                "note: --profile times the flat scanline host and does "
                "not apply with --hierarchical",
                file=sys.stderr,
            )
        result = hext_extract(
            layout, tech, jobs=args.jobs, cache=args.cache,
            engine=args.engine,
        )
        circuit = result.circuit
        wirelist = to_hierarchical_wirelist(result, name=name)
        if args.stats:
            stats = result.stats
            print(
                f"hext: {stats.flat_calls} flat calls, "
                f"{stats.compose_calls} composes, "
                f"{stats.memo_hits} memo hits, "
                f"front-end {stats.frontend_seconds:.2f}s, "
                f"back-end {stats.backend_seconds:.2f}s",
                file=sys.stderr,
            )
            if args.jobs is not None:
                print(
                    f"hext: {stats.jobs} jobs, in-worker extraction "
                    f"{stats.worker_seconds:.2f}s",
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
        if args.jobs is not None or args.cache is not None:
            print(
                "note: --jobs/--cache parallelize unique-window "
                "extraction and only apply with --hierarchical; the "
                "flat scanline is serial",
                file=sys.stderr,
            )
        report = extract_report(
            layout, tech, keep_geometry=args.geometry,
            jobs=args.jobs, cache=args.cache,
            strip_consumers=(drc_checker,) if drc_checker else (),
            engine=args.engine, profile=args.profile,
        )
        circuit = report.circuit
        if args.profile:
            _print_profile(report.stats)
        wirelist = to_wirelist(
            circuit, name=name, include_geometry=args.geometry, tech=tech
        )
        if args.stats:
            scan = report.stats
            print(
                f"ace: {scan.boxes_in} boxes, {scan.stops} scanline stops, "
                f"mean active {scan.mean_active:.1f}, "
                f"peak active {scan.peak_active}",
                file=sys.stderr,
            )
            print(
                f"ace events: {scan.heap_pushes} heap pushes, "
                f"{scan.heap_pops} pops ({scan.lazy_discards} lazy), "
                f"{scan.expired} expired intervals, "
                f"max {scan.max_stop_overhead} scans/stop beyond removals",
                file=sys.stderr,
            )
    elapsed = time.perf_counter() - started

    text = write_wirelist(wirelist)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)

    if args.stats:
        devices = circuit.device_count()
        rate = devices / elapsed if elapsed else 0.0
        print(
            f"{devices} devices, {circuit.net_count()} nets in "
            f"{elapsed:.2f}s ({rate:.0f} devices/sec)",
            file=sys.stderr,
        )
    for warning in circuit.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    failed = False
    if drc_checker is not None:
        from .diagnostics import SourceIndex, format_diagnostic

        if args.hierarchical:
            # The hierarchical extractor works window by window; the DRC
            # needs the whole-chip strip feed, so run one flat pass.
            extract_report(
                layout, tech, strip_consumers=(drc_checker,),
                engine=args.engine,
            )
        lint_report = drc_checker.report(artifact=name)
        if lint_report.diagnostics:
            lint_report = SourceIndex(layout).attribute(lint_report)
        for diag in lint_report.diagnostics:
            print(format_diagnostic(diag), file=sys.stderr)
        print(
            f"lint: {len(lint_report.errors)} error(s)", file=sys.stderr
        )
        if not lint_report.ok:
            failed = True

    if args.check:
        erc = tech.deck.erc
        report = static_check(
            circuit,
            tech=tech,
            vdd_names=tuple(erc.vdd_names) + tuple(args.vdd or ()),
            gnd_names=tuple(erc.gnd_names) + tuple(args.gnd or ()),
        )
        for diag in report.diagnostics:
            print(f"{diag.severity.value}: [{diag.rule}] {diag.message}", file=sys.stderr)
        if not report.ok:
            failed = True
    return 1 if failed else 0


def _run_streaming(args, tech, layout, name, drc_checker, started) -> int:
    """The --stream path: banded out-of-core extraction."""
    from .streaming import stream_extract

    if args.hierarchical:
        print(
            "error: --stream is flat-only; it cannot be combined with "
            "--hierarchical",
            file=sys.stderr,
        )
        return 2
    if args.check:
        print(
            "error: --check needs the in-memory circuit; run it without "
            "--stream",
            file=sys.stderr,
        )
        return 2
    if args.jobs is not None or args.cache is not None:
        print(
            "note: --jobs/--cache only apply with --hierarchical; the "
            "streamed scanline is serial",
            file=sys.stderr,
        )

    def run(out) -> "tuple[int, int, list[str]]":
        report = stream_extract(
            layout,
            tech,
            name=name,
            out=out,
            keep_geometry=args.geometry,
            engine=args.engine,
            band_height=args.band_height,
            spill_dir=args.spill,
            checkpoint=args.checkpoint,
            resume="auto" if args.resume else False,
            strip_consumers=(drc_checker,) if drc_checker else (),
            profile=args.profile,
        )
        if args.profile:
            _print_profile(report.stats)
        if args.stats:
            scan = report.stats
            print(
                f"ace: {scan.boxes_in} boxes, {scan.stops} scanline "
                f"stops, mean active {scan.mean_active:.1f}, "
                f"peak active {scan.peak_active}",
                file=sys.stderr,
            )
            print(
                f"ace events: {scan.heap_pushes} heap pushes, "
                f"{scan.heap_pops} pops ({scan.lazy_discards} lazy), "
                f"{scan.expired} expired intervals, "
                f"max {scan.max_stop_overhead} scans/stop beyond removals",
                file=sys.stderr,
            )
            resumed = " (resumed)" if report.resumed else ""
            print(
                f"stream: {report.bands} bands, band height "
                f"{args.band_height or 'whole-chip'}, "
                f"engine {report.engine}{resumed}",
                file=sys.stderr,
            )
        return report.devices, report.nets, report.warnings

    if args.output:
        with open(args.output, "w") as handle:
            devices, nets, warnings = run(handle)
    else:
        devices, nets, warnings = run(sys.stdout)

    if args.stats:
        elapsed = time.perf_counter() - started
        rate = devices / elapsed if elapsed else 0.0
        print(
            f"{devices} devices, {nets} nets in "
            f"{elapsed:.2f}s ({rate:.0f} devices/sec)",
            file=sys.stderr,
        )
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)

    failed = False
    if drc_checker is not None:
        from .diagnostics import SourceIndex, format_diagnostic

        lint_report = drc_checker.report(artifact=name)
        if lint_report.diagnostics:
            lint_report = SourceIndex(layout).attribute(lint_report)
        for diag in lint_report.diagnostics:
            print(format_diagnostic(diag), file=sys.stderr)
        print(f"lint: {len(lint_report.errors)} error(s)", file=sys.stderr)
        if not lint_report.ok:
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
