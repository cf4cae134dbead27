"""Out-of-core banded streaming extraction with checkpoint/resume.

:func:`stream_extract` is the streaming twin of
:func:`repro.core.extractor.extract_report`: same circuit, byte-identical
wirelist, but the sweep runs band by band --

1. the :class:`~repro.frontend.bands.BandSource` pulls the geometry
   stream one y-band at a time (optionally on a producer thread);
2. :meth:`ScanlineEngine.advance` sweeps until the next natural stop
   would fall at or below the band floor (floors never force stops, so
   every counter and strip matches the in-memory run exactly);
3. nets and devices no longer reachable from above the scanline are
   retired: their folded payloads leave RAM for the
   :class:`~repro.streaming.spill.SpillStore`, and only their order
   keys (location + spill band) stay resident;
4. with a checkpoint path configured, the host's full suspension state
   is atomically written after the band's spill -- the checkpoint
   replace is the commit point, so a SIGKILL anywhere leaves a sweep
   that resumes to byte-identical output.

Resume rebuilds the parse/instantiate front-end, fast-forwards the
geometry stream past the stops the checkpoint already covers (the
stream is deterministic, so the replayed prefix leaves the stream in
the exact paused state, released labels included), restores the host,
and continues the band loop.

The memory contract (docs/STREAMING.md): peak residency is O(band) --
active intervals, heaps, pending continuations, the current band's
boxes, and per-live-net accumulators -- plus the O(nets) order-key maps
(a few ints per retired net/device), **not** O(chip geometry).  With
``keep_geometry`` a net's artwork stays resident until the net dies, so
a chip-spanning net degrades the bound to O(band + largest live net).
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field
from io import StringIO
from time import perf_counter
from typing import IO, Callable

from ..cif import Layout, parse
from ..core.scanline import ScanlineEngine
from ..core.stats import ScanStats
from ..frontend.bands import BandFeed, BandSource, plan_bands
from ..frontend.stream import GeometryStream
from ..tech import NMOS, Technology
from ..wirelist.model import primitives_for
from . import checkpoint as ckpt
from .emit import emit_wirelist
from .spill import SpillStore

#: Crash-injection hooks for the kill-and-resume harness: SIGKILL the
#: process after N bands have committed, either after the band's
#: checkpoint (default) or in the torn window between spill and
#: checkpoint (``ACE_STREAM_KILL_PHASE=spill``).
KILL_AFTER_ENV = "ACE_STREAM_KILL_AFTER_BANDS"
KILL_PHASE_ENV = "ACE_STREAM_KILL_PHASE"

#: called after each band: (bands_done, total_bands, stats)
ProgressFn = Callable[[int, int, ScanStats], None]


@dataclass
class StreamReport:
    """Outcome of one streaming extraction."""

    stats: ScanStats
    #: ``frontend``/``setup`` and the host's lap-clock phases as in
    #: :class:`~repro.core.extractor.ExtractionReport`, with the band
    #: bookkeeping (``spill``) and the emission (``emit``) in place of
    #: the in-memory ``finalize``
    phases: dict[str, float]
    frontend_stats: object
    warnings: list[str]
    nets: int
    devices: int
    bands: int
    band_plan: list
    engine: str
    resumed: bool
    options: dict = field(default_factory=dict)
    text: str | None = None  #: the wirelist, when no ``out`` was given


def stream_extract(
    source: "str | Layout",
    tech: "Technology | None" = None,
    *,
    name: str = "chip",
    out: "IO[str] | None" = None,
    keep_geometry: bool = False,
    resolution: int = 50,
    engine: str = "auto",
    band_height: "int | None" = None,
    boundaries: "list[int] | None" = None,
    spill_dir: "str | os.PathLike | None" = None,
    checkpoint: "str | os.PathLike | None" = None,
    resume: "bool | str" = False,
    prefetch: int = 1,
    strip_consumers: tuple = (),
    progress: "ProgressFn | None" = None,
) -> StreamReport:
    """Extract ``source`` band by band, writing the wirelist to ``out``.

    Args:
        band_height: uniform band height in layout units (None with no
            ``boundaries``: a single band, i.e. the in-memory schedule
            with streaming bookkeeping).
        boundaries: explicit band floor list (overrides band_height).
        spill_dir: directory for retired-state envelopes; defaults to
            ``<checkpoint>.spill`` next to the checkpoint, else a
            temporary directory that is removed after emission.
        checkpoint: path to write the resume checkpoint at every band
            boundary (and to read it from with ``resume=True``).
        resume: continue the sweep recorded at ``checkpoint`` instead
            of starting over; the layout and options must match.  The
            string ``"auto"`` resumes when a checkpoint file exists and
            starts fresh otherwise -- the right mode for a supervisor
            that relaunches after crashes, since a kill before the
            first checkpoint leaves nothing to resume.
        prefetch: bands the producer thread pulls ahead (0 = pull
            inline on the consumer thread).
        progress: callback after each band, for job-status reporting.
    """
    tech = tech or NMOS()
    if resume and checkpoint is None:
        raise ValueError("resume requires a checkpoint path")
    if resume == "auto":
        resume = bool(checkpoint is not None and os.path.exists(checkpoint))

    layout = parse(source) if isinstance(source, str) else source
    started = perf_counter()
    stream = GeometryStream(layout, resolution=resolution)
    streamed = perf_counter()
    scan = ScanlineEngine(
        tech,
        keep_geometry=keep_geometry,
        strip_consumers=strip_consumers,
        engine=engine,
    )
    ready = perf_counter()

    digest = ckpt.layout_digest(layout, resolution, tech.lambda_)
    options = {
        "keep_geometry": bool(keep_geometry),
        "resolution": int(resolution),
        "lambda": int(tech.lambda_),
        "engine": scan.engine_name,
    }
    run_key = ckpt.run_key(digest, options)

    tmp_spill = None
    if spill_dir is None:
        if checkpoint is not None:
            spill_dir = f"{checkpoint}.spill"
        else:
            import tempfile

            tmp_spill = tempfile.TemporaryDirectory(prefix="ace-spill-")
            spill_dir = tmp_spill.name
    spill = SpillStore(spill_dir, run_key)

    net_locs: dict[int, tuple[int, int]] = {}
    dev_locs: dict[int, "tuple[int, int] | None"] = {}
    net_bands: dict[int, int] = {}
    dev_bands: dict[int, int] = {}

    if resume:
        state = ckpt.load_checkpoint(checkpoint)
        ckpt.check_identity(state, digest, options, checkpoint)
        floors = [f if f is None else int(f) for f in state["floors"]]
        start_band = int(state["band"])
        net_locs = {r: (y, nx) for r, y, nx in state["net_locs"]}
        dev_locs = {
            r: tuple(loc) if loc else None for r, loc in state["dev_locs"]
        }
        net_bands = {r: b for r, b in state["net_bands"]}
        dev_bands = {r: b for r, b in state["dev_bands"]}
        scan.restore_state(state["host"])
        # Fast-forward the fresh stream past every stop the restored
        # sweep has consumed.  The final next_top() reproduces the peek
        # the sweep paused on, so cell-expansion state (and with it the
        # released-label prefix) is exactly the pause-time state.
        next_y = scan._y
        t = stream.next_top()
        while t is not None and (next_y is None or t > next_y):
            stream.fetch(t)
            t = stream.next_top()
    else:
        bbox = stream.chip_bbox
        floors = plan_bands(
            bbox.ymax if bbox else None,
            bbox.ymin if bbox else None,
            band_height=band_height,
            boundaries=boundaries,
        )
        start_band = 0

    bands = BandSource(stream, floors, start=start_band, prefetch=prefetch)
    feed = BandFeed(bands)

    try:
        spill_seconds = _run_bands(
            scan,
            feed,
            floors,
            start_band,
            spill=spill,
            checkpoint=checkpoint,
            digest=digest,
            options=options,
            net_locs=net_locs,
            dev_locs=dev_locs,
            net_bands=net_bands,
            dev_bands=dev_bands,
            progress=progress,
        )
    finally:
        bands.close()

    # Close the sweep the way ScanlineEngine.finish does, minus the
    # in-memory finalize: consumers flush, then emission streams the
    # spilled state back in canonical order.
    emit_started = perf_counter()
    for consumer in scan.strip_consumers:
        consumer.finish()

    sink: IO[str] = out if out is not None else StringIO()
    emitted = emit_wirelist(
        sink,
        name,
        nets=scan._nets,
        devs=scan._devs,
        net_locs=net_locs,
        dev_locs=dev_locs,
        net_bands=net_bands,
        dev_bands=dev_bands,
        spill=spill,
        kinds=(tech.device_name(False), tech.device_name(True)),
        primitives=primitives_for(tech),
        include_geometry=keep_geometry,
    )
    phases = {
        "frontend": streamed - started,
        "setup": ready - streamed,
        **scan.clock.seconds,
        "spill": spill_seconds,
        "emit": perf_counter() - emit_started,
    }
    del phases["finalize"]

    # Warning order matches the in-memory finalize: host warnings, then
    # malformed-device warnings in device order, then unattached labels.
    warnings = list(scan._warnings)
    warnings.extend(emitted.warnings)
    for label in [*scan._unattached, *scan._labels]:
        warnings.append(
            f"label {label.name!r} at ({label.x}, {label.y}) "
            f"matches no conducting geometry"
        )

    if tmp_spill is not None:
        tmp_spill.cleanup()

    return StreamReport(
        stats=scan.stats,
        phases=phases,
        frontend_stats=stream.stats,
        warnings=warnings,
        nets=emitted.nets,
        devices=emitted.devices,
        bands=len(floors),
        band_plan=floors,
        engine=scan.engine_name,
        resumed=resume,
        options={
            **options,
            "band_height": band_height,
            "boundaries": boundaries,
            "stream": True,
        },
        text=sink.getvalue() if out is None else None,
    )


def _run_bands(
    scan: ScanlineEngine,
    feed: BandFeed,
    floors: "list[int | None]",
    start_band: int,
    *,
    spill: SpillStore,
    checkpoint: "str | os.PathLike | None",
    digest: str,
    options: dict,
    net_locs: "dict[int, tuple[int, int]]",
    dev_locs: "dict[int, tuple[int, int] | None]",
    net_bands: "dict[int, int]",
    dev_bands: "dict[int, int]",
    progress: "ProgressFn | None",
) -> float:
    """The band loop: advance, retire, spill, checkpoint, repeat.

    Returns the seconds spent between sweeps (retire, spill, progress,
    checkpoint); the sweeps themselves are on the host's clock.
    """
    kill_after = int(os.environ.get(KILL_AFTER_ENV, 0) or 0)
    kill_phase = os.environ.get(KILL_PHASE_ENV, "checkpoint")
    committed = 0  # bands committed by THIS process
    spent = 0.0

    for band in range(start_band, len(floors)):
        more = scan.advance(feed, floors[band])
        started = perf_counter()
        if more:
            live_nets = scan.live_net_roots()
            eng_nets, live_devs = scan.strip_engine.live_roots()
            live_nets |= eng_nets
        else:
            # Exhausted: nothing above the scanline anymore, so the
            # engine's strip-above continuation state is dead too.
            live_nets, live_devs = set(), set()
        dead_locs, dead_recs = scan.strip_engine.retire(live_nets, live_devs)
        net_payload = scan.retire_net_payload(set(dead_locs))
        if net_payload or dead_recs:
            spill.put_band(band, net_payload, dead_recs)
        net_locs.update(dead_locs)
        for root in net_payload:
            net_bands[root] = band
        for root, rec in dead_recs.items():
            dev_locs[root] = rec["loc"]
            dev_bands[root] = band
        if progress is not None:
            progress(band + 1, len(floors), scan.stats)
        if not more:
            spent += perf_counter() - started
            break
        committed += 1
        if kill_after and committed >= kill_after and kill_phase == "spill":
            os.kill(os.getpid(), signal.SIGKILL)
        if checkpoint is not None:
            ckpt.save_checkpoint(
                checkpoint,
                {
                    "digest": digest,
                    "options": options,
                    "floors": floors,
                    "band": band + 1,
                    "net_locs": [
                        [r, y, nx] for r, (y, nx) in net_locs.items()
                    ],
                    "dev_locs": [
                        [r, list(loc) if loc else None]
                        for r, loc in dev_locs.items()
                    ],
                    "net_bands": [[r, b] for r, b in net_bands.items()],
                    "dev_bands": [[r, b] for r, b in dev_bands.items()],
                    "host": scan.snapshot_state(),
                },
            )
        if kill_after and committed >= kill_after and kill_phase != "spill":
            os.kill(os.getpid(), signal.SIGKILL)
        spent += perf_counter() - started
    return spent
