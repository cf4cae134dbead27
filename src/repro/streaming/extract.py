"""Out-of-core banded streaming extraction with checkpoint/resume.

:func:`stream_extract` is the streaming twin of
:func:`repro.core.extractor.extract_report`: same circuit, byte-identical
wirelist, but the sweep runs band by band --

1. :func:`~repro.frontend.bands.plan_bands` picks the band floors;
2. :meth:`ScanlineEngine.advance` reads the geometry stream itself and
   sweeps until the next natural stop would fall at or below the band
   floor (floors never force stops, so every counter and strip matches
   the in-memory run exactly);
3. nets and devices no longer reachable from above the scanline are
   retired: their folded payloads leave RAM for the
   :class:`~repro.streaming.spill.SpillStore`, and only their order
   keys stay resident (location + spill band per net root; root,
   location, band and row as int columns per device, in the strip
   engine's :class:`~repro.core.stripengine.RetiredDevices`);
4. with a checkpoint path configured, the number of committed bands is
   atomically written after the band's spill -- the checkpoint replace
   is the commit point, so a SIGKILL anywhere leaves a sweep that
   resumes to byte-identical output.

Resume is a replay.  The sweep is deterministic, so a resumed run
sweeps again from the top with the checkpoint's floors and retires
every band exactly as the first run did, which rebuilds the resident
order keys; only the spill writes and checkpoints of the bands already
committed are skipped, since their envelopes are on disk (and are
still validated when emission reads them).

The memory contract (docs/STREAMING.md): peak residency is O(band) --
active intervals, heaps, pending continuations, the current band's
boxes, and per-live-net accumulators -- plus the O(nets) order keys
(a few ints per retired net/device), **not** O(chip geometry).  With
``keep_geometry`` a net's artwork stays resident until the net dies, so
a chip-spanning net degrades the bound to O(band + largest live net).
"""

from __future__ import annotations

import os
import signal
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, field
from io import StringIO
from time import perf_counter
from typing import IO, Callable

from ..cif import Layout, parse
from ..core.netlist import skipped_warnings, unattached_warnings
from ..core.scanline import ScanlineEngine
from ..core.stats import ScanStats
from ..core.stripengine import RetiredDevices
from ..frontend.bands import plan_bands
from ..frontend.stream import GeometryStream
from ..parallel.serialize import technology_fingerprint
from ..tech import NMOS, Technology
from ..wirelist.model import primitives_for
from . import checkpoint as ckpt
from .emit import emit_wirelist
from .spill import SpillStore, remove_run

#: Crash-injection hooks for the kill-and-resume harness: SIGKILL the
#: process once it has committed N bands (replayed bands do not count),
#: either after the band's checkpoint (default) or in the torn window
#: between spill and checkpoint (``ACE_STREAM_KILL_PHASE=spill``).
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
    engine: str = "auto",
    band_height: "int | None" = None,
    boundaries: "list[int] | None" = None,
    spill_dir: "str | os.PathLike | None" = None,
    checkpoint: "str | os.PathLike | None" = None,
    resume: "bool | str" = False,
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
        resume: finish the sweep recorded at ``checkpoint`` instead of
            starting over: sweep again with its band plan, spilling and
            checkpointing only the bands it had not committed.  The
            layout, the deck and the options must match.  The
            string ``"auto"`` resumes when a checkpoint file exists and
            starts fresh otherwise -- the right mode for a supervisor
            that relaunches after crashes, since a kill before the
            first checkpoint leaves nothing to resume.
        progress: callback after each band, for job-status reporting.
    """
    tech = tech or NMOS()
    if resume and checkpoint is None:
        raise ValueError("resume requires a checkpoint path")
    if resume == "auto":
        resume = bool(checkpoint is not None and os.path.exists(checkpoint))

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

    digest = ckpt.layout_digest(layout, tech.lambda_)
    options = {
        "keep_geometry": bool(keep_geometry),
        "tech": technology_fingerprint(tech),
        "lambda": int(tech.lambda_),
        "engine": scan.engine_name,
    }
    if resume:
        state = ckpt.load_checkpoint(checkpoint)
        ckpt.check_identity(state, digest, options, checkpoint)
        floors = [f if f is None else int(f) for f in state["floors"]]
        committed = int(state["band"])
    else:
        bbox = stream.chip_bbox
        floors = plan_bands(
            bbox.ymax if bbox else None,
            bbox.ymin if bbox else None,
            band_height=band_height,
            boundaries=boundaries,
        )
        committed = 0

    if spill_dir is None and checkpoint is not None:
        spill_dir = f"{checkpoint}.spill"
    with ExitStack() as cleanup:
        if spill_dir is None:
            # Removed however the sweep ends: a cancelled daemon job
            # raises out of the band loop.
            spill_dir = cleanup.enter_context(
                tempfile.TemporaryDirectory(prefix="ace-spill-")
            )
        devices = scan.strip_engine.retired_devices()
        spill = SpillStore(
            spill_dir, ckpt.run_key(digest, options, floors), devices
        )
        # A fresh run over a checkpoint of another band plan supersedes
        # that plan's band files once its own first checkpoint lands.
        superseded = None
        if checkpoint is not None and not resume:
            superseded = ckpt.recorded_run_key(checkpoint)
            if superseded == spill.run_key:
                superseded = None
        net_locs: dict[int, tuple[int, int]] = {}
        net_bands: dict[int, int] = {}
        spill_seconds = _run_bands(
            scan,
            stream,
            floors,
            committed,
            spill=spill,
            checkpoint=checkpoint,
            superseded=superseded,
            identity={"digest": digest, "options": options},
            net_locs=net_locs,
            net_bands=net_bands,
            devices=devices,
            progress=progress,
        )

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
            net_locs=net_locs,
            net_bands=net_bands,
            devices=devices,
            spill=spill,
            kinds=tech.kinds,
            primitives=primitives_for(tech),
            include_geometry=keep_geometry,
        )
        emit_seconds = perf_counter() - emit_started

    phases = {
        "frontend": streamed - started,
        "setup": ready - streamed,
        **scan.clock.seconds,
        "spill": spill_seconds,
        "emit": emit_seconds,
    }
    del phases["finalize"]

    # Warning order matches the in-memory finalize: host warnings, then
    # malformed-device warnings in device order, then unattached labels.
    warnings = skipped_warnings(scan._skipped)
    warnings.extend(emitted.warnings)
    warnings.extend(unattached_warnings(scan._unattached))

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
    stream: GeometryStream,
    floors: "list[int | None]",
    committed: int,
    *,
    spill: SpillStore,
    checkpoint: "str | os.PathLike | None",
    superseded: "str | None",
    identity: dict,
    net_locs: "dict[int, tuple[int, int]]",
    net_bands: "dict[int, int]",
    devices: RetiredDevices,
    progress: "ProgressFn | None",
) -> float:
    """The band loop: advance, retire, spill, checkpoint, repeat.

    Bands below ``committed`` are replayed: retired like any other, so
    the order keys come back, but neither spilled nor checkpointed
    again.  The band files of the ``superseded`` run key are deleted
    from ``<checkpoint>.spill`` right after the first checkpoint
    replaces the one naming them; a ``spill_dir`` of the caller's may be
    shared and is left alone.  Returns the seconds spent between sweeps
    (retire, spill, progress, checkpoint); the sweeps themselves are on
    the host's clock.
    """
    kill_after = int(os.environ.get(KILL_AFTER_ENV, 0) or 0)
    kill_phase = os.environ.get(KILL_PHASE_ENV, "checkpoint")
    spent = 0.0

    for band, floor in enumerate(floors):
        more = scan.advance(stream, floor)
        started = perf_counter()
        if more:
            live_nets = scan.live_net_roots()
            eng_nets, live_devs = scan.strip_engine.live_roots()
            live_nets |= eng_nets
        else:
            # Exhausted: nothing above the scanline anymore, so the
            # engine's strip-above continuation state is dead too.
            live_nets, live_devs = set(), set()
        dead_locs, dead_devs = scan.strip_engine.retire(live_nets, live_devs)
        net_payload = scan.retire_net_payload(set(dead_locs))
        retired = len(devices)
        device_payload = devices.add(band, dead_devs)
        replay = band < committed
        if not replay and (net_payload or len(devices) > retired):
            spill.put_band(band, net_payload, device_payload)
        net_locs.update(dead_locs)
        for root in net_payload:
            net_bands[root] = band
        if progress is not None:
            progress(band + 1, len(floors), scan.stats)
        if more and not replay:
            # The band is on disk; the checkpoint commits it.
            kill = kill_after and band + 1 - committed >= kill_after
            if kill and kill_phase == "spill":
                os.kill(os.getpid(), signal.SIGKILL)
            if checkpoint is not None:
                ckpt.save_checkpoint(
                    checkpoint,
                    {**identity, "floors": floors, "band": band + 1},
                )
                if superseded is not None:
                    remove_run(f"{checkpoint}.spill", superseded)
                    superseded = None
            if kill and kill_phase != "spill":
                os.kill(os.getpid(), signal.SIGKILL)
        spent += perf_counter() - started
        if not more:
            break
    return spent
