"""One extraction pipeline: CIF in, wirelist and lint report out.

:func:`run` is the stage sequence every entry point shares -- the
``ace-extract`` CLI, the extraction daemon's job body, the difftest
oracles and the scanline bench::

    parse -> extract (flat, hext or stream) -> wirelist -> lint

A streamed run writes its wirelist during the sweep, so it has no
separate ``wirelist`` stage.  Callers keep only what is their own: the
CLI maps its flags to :class:`JobOptions` and prints; the daemon
supplies cancellation (``consumers``, ``on_stage``), its warm
hierarchical extractor (``hext``) and band progress.

Timing is one record, :class:`Trace`: the root wall, the top-level
stages, the phases nested under each stage (the extractor's own phases
under ``extract``), and the explicit ``unaccounted`` remainder.
``--profile``, ``--stats``, the daemon's ``/metrics`` stage rows and the
paper's section 5 table all read it.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import IO, TYPE_CHECKING, Any, Callable, Iterator

from .cif import Layout, parse
from .core import extract_report
from .hext import hext_extract
from .hext.wirelist import to_hierarchical_wirelist
from .wirelist import to_wirelist, write_wirelist

if TYPE_CHECKING:
    from .core import Circuit
    from .diagnostics import CheckReport
    from .drc import DrcChecker
    from .hext import HextResult
    from .tech import Technology


class OptionsError(ValueError):
    """The submitted options payload is malformed."""


@dataclass(frozen=True)
class JobOptions:
    """Extraction options, mirroring the ``ace-extract`` surface.

    ``timeout`` steers *how* a job runs, never what it produces, so it
    is excluded from the result-cache key (:meth:`cache_facet`).
    ``stream`` and ``band_height`` are excluded for the same reason: the
    banded streaming pipeline (:mod:`repro.streaming`) is byte-identical
    to the in-memory path at every band plan, so a streamed job may
    serve -- and be served by -- a cached in-memory result.
    """

    name: str = "layout.cif"  #: DefPart name stamped into the wirelist
    lambda_: "int | None" = None
    deck: str = "nmos"  #: builtin technology deck name
    hext: bool = False
    lint: bool = False
    keep_geometry: bool = False
    timeout: "float | None" = None
    stream: bool = False  #: out-of-core banded streaming extraction
    band_height: "int | None" = None  #: band height in layout units

    _FIELDS = frozenset(
        {
            "name",
            "lambda",
            "deck",
            "hext",
            "lint",
            "keep_geometry",
            "timeout",
            "stream",
            "band_height",
        }
    )

    @classmethod
    def from_payload(cls, data: object) -> "JobOptions":
        """Validate and build options from a request's JSON object."""
        if data is None:
            return cls()
        if not isinstance(data, dict):
            raise OptionsError("options must be a JSON object")
        unknown = sorted(set(data) - cls._FIELDS)
        if unknown:
            raise OptionsError(f"unknown option(s): {', '.join(unknown)}")

        def _flag(key: str) -> bool:
            value = data.get(key, False)
            if not isinstance(value, bool):
                raise OptionsError(f"option {key!r} must be a boolean")
            return value

        def _int(key: str) -> "int | None":
            value = data.get(key)
            if value is None:
                return None
            if not isinstance(value, int) or isinstance(value, bool):
                raise OptionsError(f"option {key!r} must be an integer")
            if value < 0:
                raise OptionsError(f"option {key!r} must be >= 0")
            return value

        name = data.get("name", "layout.cif")
        if not isinstance(name, str) or not name:
            raise OptionsError("option 'name' must be a non-empty string")
        deck = data.get("deck", "nmos")
        if not isinstance(deck, str) or not deck:
            raise OptionsError("option 'deck' must be a non-empty string")
        from .tech import BUILTIN_DECKS

        if deck not in BUILTIN_DECKS:
            raise OptionsError(
                f"unknown deck {deck!r}; the daemon serves builtin decks "
                f"only: {', '.join(sorted(BUILTIN_DECKS))}"
            )
        timeout = data.get("timeout")
        if timeout is not None:
            if isinstance(timeout, bool) or not isinstance(
                timeout, (int, float)
            ):
                raise OptionsError("option 'timeout' must be a number")
            if timeout < 0:
                raise OptionsError("option 'timeout' must be >= 0")
            timeout = float(timeout)
        stream = _flag("stream")
        hext = _flag("hext")
        if stream and hext:
            raise OptionsError(
                "options 'stream' and 'hext' are mutually exclusive"
            )
        band_height = _int("band_height")
        if band_height is not None and band_height < 1:
            raise OptionsError("option 'band_height' must be >= 1")
        if band_height is not None and not stream:
            raise OptionsError("option 'band_height' requires 'stream'")
        return cls(
            name=name,
            lambda_=_int("lambda"),
            deck=deck,
            hext=hext,
            lint=_flag("lint"),
            keep_geometry=_flag("keep_geometry"),
            timeout=timeout,
            stream=stream,
            band_height=band_height,
        )

    def to_payload(self) -> dict:
        return {
            "name": self.name,
            "lambda": self.lambda_,
            "deck": self.deck,
            "hext": self.hext,
            "lint": self.lint,
            "keep_geometry": self.keep_geometry,
            "timeout": self.timeout,
            "stream": self.stream,
            "band_height": self.band_height,
        }

    def cache_facet(self) -> dict:
        """The subset of options that can change the result bytes."""
        return {
            "name": self.name,
            "lambda": self.lambda_,
            "deck": self.deck,
            "hext": self.hext,
            "lint": self.lint,
            "keep_geometry": self.keep_geometry,
        }


#: The paper's section 5 time buckets, in its order.
PAPER_PHASES = ("frontend", "insert", "devices", "output", "misc")


@dataclass
class Trace:
    """One run's timing record: stages in order, phases nested in them.

    ``wall`` is the root, :func:`run` from entry to return.  The stages
    plus :attr:`unaccounted` equal it, and each stage's ``phases`` add
    up to no more than the stage.
    """

    wall: float = 0.0
    stages: dict[str, float] = field(default_factory=dict)
    phases: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def unaccounted(self) -> float:
        return self.wall - sum(self.stages.values())

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        started = perf_counter()
        try:
            yield
        finally:
            self.stages[name] = perf_counter() - started

    def rows(self) -> "list[tuple[int, str, float]]":
        """``(depth, name, seconds)`` in print order, unaccounted last."""
        out = []
        for stage, seconds in self.stages.items():
            out.append((0, stage, seconds))
            out.extend((1, p, s) for p, s in self.phases.get(stage, {}).items())
        out.append((0, "unaccounted", self.unaccounted))
        return out

    def paper_shares(self) -> dict[str, float]:
        """The section 5 split (:data:`PAPER_PHASES`), in percent.

        Front-end is parsing, geometry-stream construction and fetching;
        insert is expiry, insertion and scheduling; devices is strip
        processing; output is finalize (or emission) plus the wirelist
        stage; misc is the rest.  Strip-engine ``setup`` (importing
        numpy, for one) is none of the paper's work and is left out.
        """
        extract = self.phases.get("extract", {})

        def total(*names: str) -> float:
            return sum(extract.get(name, 0.0) for name in names)

        buckets = {
            "frontend": self.stages.get("parse", 0.0)
            + total("frontend", "fetch"),
            "insert": total("expire", "insert", "schedule"),
            "devices": total("strip"),
            "output": total("finalize", "emit")
            + self.stages.get("wirelist", 0.0),
        }
        whole = self.wall - total("setup")
        buckets["misc"] = whole - sum(buckets.values())
        return {
            name: 100.0 * seconds / whole if whole else 0.0
            for name, seconds in buckets.items()
        }


@dataclass
class Result:
    """Everything one pipeline run produced."""

    layout: Layout
    #: the extractor's own report: an ExtractionReport, a StreamReport
    #: or a HextResult (counters, band plan, HEXT statistics)
    report: Any
    trace: Trace
    text: "str | None"  #: the wirelist, unless it went to ``out``
    devices: int
    nets: int
    warnings: "list[str]"
    circuit: "Circuit | None" = None  #: None for a streamed run
    lint: "CheckReport | None" = None  #: attributed DRC report

    @property
    def stats(self) -> Any:
        """The run's counters: ScanStats, or HextStats for hext."""
        return self.report.stats


def attribute(report: "CheckReport", layout: Layout) -> "CheckReport":
    """Point a DRC report's diagnostics at the CIF source that drew them."""
    if not report.diagnostics:
        return report
    from .diagnostics import SourceIndex

    return SourceIndex(layout).attribute(report)


def run(
    source: "str | Layout",
    tech: "Technology",
    options: "JobOptions | None" = None,
    *,
    engine: str = "auto",
    resolution: int = 50,
    out: "IO[str] | None" = None,
    cache: "str | None" = None,
    spill_dir: "str | None" = None,
    checkpoint: "str | None" = None,
    resume: "bool | str" = False,
    consumers: tuple = (),
    on_stage: "Callable[[str], None] | None" = None,
    hext: "Callable[[Layout], HextResult] | None" = None,
    progress: "Callable | None" = None,
) -> Result:
    """Run the stage sequence over ``source`` under ``options``.

    Args:
        engine, resolution: strip engine and fracture resolution.
        out: write the wirelist here instead of returning it as text;
            a streamed run writes straight through, band by band.
        cache: hext's persistent fragment cache directory.
        spill_dir, checkpoint, resume: streaming's spill and
            checkpoint/resume controls (:func:`repro.streaming.stream_extract`).
        consumers: extra strip consumers riding every scanline sweep.
        on_stage: called with each stage's name as it begins; raising
            aborts the run.
        hext: the hierarchical step, ``layout -> HextResult``; defaults
            to :func:`repro.hext.hext_extract`.
        progress: streaming's per-band callback.
    """
    options = options or JobOptions()
    trace = Trace()
    started = perf_counter()

    def enter(stage: str) -> None:
        if on_stage is not None:
            on_stage(stage)

    enter("parse")
    with trace.stage("parse"):
        layout = parse(source) if isinstance(source, str) else source

    enter("extract")
    with trace.stage("extract"):
        drc: "DrcChecker | None" = None
        if options.lint:
            from .drc import DrcChecker

            drc = DrcChecker(tech)
        sweep = consumers if drc is None else (*consumers, drc)
        report: Any
        text: "str | None" = None
        if options.stream:
            from .streaming import stream_extract

            report = stream_extract(
                layout,
                tech,
                name=options.name,
                out=out,
                keep_geometry=options.keep_geometry,
                resolution=resolution,
                engine=engine,
                band_height=options.band_height,
                spill_dir=spill_dir,
                checkpoint=checkpoint,
                resume=resume,
                strip_consumers=sweep,
                progress=progress,
            )
            text, phases = report.text, report.phases
        elif options.hext:
            if hext is None:
                report = hext_extract(
                    layout,
                    tech,
                    resolution=resolution,
                    cache=cache,
                    engine=engine,
                )
            else:
                report = hext(layout)
            report.circuit  # resolve the fragment tree within this stage
            stats = report.stats
            phases = {
                "frontend": stats.frontend_seconds,
                "setup": stats.setup_seconds,
                "execute": stats.flat_seconds,
                "compose": stats.compose_seconds,
                "resolve": stats.resolve_seconds,
            }
        else:
            report = extract_report(
                layout,
                tech,
                keep_geometry=options.keep_geometry,
                resolution=resolution,
                strip_consumers=sweep,
                engine=engine,
            )
            phases = report.phases
    trace.phases["extract"] = phases

    if not options.stream:
        enter("wirelist")
        with trace.stage("wirelist"):
            if options.hext:
                wirelist = to_hierarchical_wirelist(report, name=options.name)
            else:
                wirelist = to_wirelist(
                    report.circuit,
                    name=options.name,
                    include_geometry=options.keep_geometry,
                    tech=tech,
                )
            text = write_wirelist(wirelist)
            if out is not None:
                out.write(text)
                text = None

    lint: "CheckReport | None" = None
    if drc is not None:
        enter("lint")
        with trace.stage("lint"):
            if options.hext:
                # The hierarchical extractor works window by window; the
                # DRC needs the whole-chip strip feed, so one flat pass.
                extract_report(
                    layout,
                    tech,
                    resolution=resolution,
                    strip_consumers=(*consumers, drc),
                    engine=engine,
                )
            lint = attribute(drc.report(artifact=options.name), layout)

    circuit = None if options.stream else report.circuit
    if circuit is None:
        devices, nets, warnings = report.devices, report.nets, report.warnings
    else:
        devices, nets = circuit.device_count(), circuit.net_count()
        warnings = circuit.warnings
    trace.wall = perf_counter() - started
    return Result(
        layout=layout,
        report=report,
        trace=trace,
        text=text,
        devices=devices,
        nets=nets,
        warnings=list(warnings),
        circuit=circuit,
        lint=lint,
    )

