"""The public extraction API.

:func:`extract` is the whole of ACE: CIF text or a parsed layout in, a
:class:`~repro.core.netlist.Circuit` out.  :func:`extract_report` adds
the run's phase seconds and counters.  The modified ACE that HEXT runs
per primitive window is a :class:`~repro.core.scanline.ScanlineEngine`
given the window, closed by its ``finish_window``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from ..cif import Layout, parse
from ..frontend import GeometryStream
from ..tech import NMOS, Technology
from .netlist import Circuit
from .scanline import ScanlineEngine
from .stats import ScanStats


@dataclass
class ExtractionReport:
    """A circuit together with the run's phase seconds and counters.

    ``phases`` holds the geometry-stream construction (``frontend``),
    the host's construction with its strip-engine resolution
    (``setup``), and the host's lap-clock phases.
    """

    circuit: Circuit
    stats: ScanStats
    phases: dict[str, float] = field(default_factory=dict)
    frontend_stats: object = None
    options: dict = field(default_factory=dict)


def extract(
    source: "str | Layout",
    tech: Technology | None = None,
    *,
    keep_geometry: bool = False,
    engine: str = "auto",
) -> Circuit:
    """Extract the circuit from a CIF string or parsed layout.

    Args:
        source: CIF text, or an already parsed :class:`Layout`.
        tech: process rules; defaults to standard NMOS.
        keep_geometry: attach per-net artwork (needed for RC
            post-processing and geometry output; off by default, as in
            the paper's normal operation).
        engine: strip-engine back-end (``auto`` / ``python`` /
            ``numpy``); see docs/ENGINES.md.  Both back-ends produce
            byte-identical wirelists.

    Returns:
        The extracted :class:`Circuit`.
    """
    return extract_report(
        source,
        tech,
        keep_geometry=keep_geometry,
        engine=engine,
    ).circuit


def extract_report(
    source: "str | Layout",
    tech: Technology | None = None,
    *,
    keep_geometry: bool = False,
    strip_consumers: tuple = (),
    engine: str = "auto",
) -> ExtractionReport:
    """Like :func:`extract` but returns phase seconds and counters too.

    ``strip_consumers`` ride the same sweep
    (:class:`~repro.core.scanline.StripConsumer`); the design-rule
    checker attaches here so extraction and DRC share one pass.
    """
    tech = tech or NMOS()
    layout = parse(source) if isinstance(source, str) else source
    started = perf_counter()
    stream = GeometryStream(layout)
    streamed = perf_counter()
    scan = ScanlineEngine(
        tech,
        keep_geometry=keep_geometry,
        strip_consumers=strip_consumers,
        engine=engine,
    )
    ready = perf_counter()
    circuit = scan.run(stream)
    return ExtractionReport(
        circuit=circuit,
        stats=scan.stats,
        phases={
            "frontend": streamed - started,
            "setup": ready - streamed,
            **scan.clock.seconds,
        },
        frontend_stats=stream.stats,
        options={
            "keep_geometry": keep_geometry,
            "engine": scan.engine_name,
        },
    )

