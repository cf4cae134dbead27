"""The edge-based scanline back-end (section 3 of the paper).

A scanline moves from the top of the chip to the bottom, pausing only at
box top/bottom edges.  Between consecutive stops the layer state is
constant -- a *strip*.  Per layer, an *active list* of disjoint, sorted
x-intervals describes the strip; nets live in a union-find.

The implementation follows Figure 3-2 step for step:

  2.a  incoming geometry is sorted by x into per-layer newGeometry lists
       (here: delivered sorted by the stream, and a stop's rows entered
       by one call, in stream order);
  2.b  new boxes merge into the active lists; overlapping or abutting
       boxes on one layer union their nets; when merged boxes have
       unequal bottoms, the deeper remainder is split off into a pending
       buffer and re-enters when the scanline reaches its top;
  2.c  devices: per strip, channel = diffusion AND poly AND NOT buried;
       conducting diffusion = diffusion - channel; channels are tracked
       exactly like nets (a union-find of device ids) and accumulate
       area, gate nets, and terminal contact perimeter;
  2.d  next stop = max over upcoming box tops and active bottoms.

Event scheduling is heap-based so a stop costs work proportional to the
events at that stop, not to the number of active intervals.  Each layer
has a bottom-edge heap with one entry per distinct bottom, naming a
*bucket*: the ids of the rows scheduled with that bottom.  Every active
interval joins its bucket when created; an interval consumed by a merge
is only marked dead, and stays in its bucket until the bucket retires.
Step 2.d is then one heap peek per layer, and step "expire" retires the
one bucket per layer whose bottom is the current stop, skipping its dead
rows.  The counters still count intervals, not heap entries.  The
design notes and invariants live in docs/SCANLINE_PERF.md.

Active intervals live in per-layer *columnar* tables
(:class:`~repro.core.columnar.LayerTable`): persistent int64 columns
plus a live mask, updated incrementally as rows enter and expire.  The numpy
strip engine gathers a layer's live rows straight from the columns
(zero-copy buffer views) instead of re-materializing python lists every
strip.  The host hands every strip to the engine as it reaches it, one
:meth:`StripEngine.process_strip` call per strip, top to bottom.

In *window mode* (HEXT's modified ACE) the engine also records every
conducting span and channel span that touches the window boundary, and
:meth:`ScanlineEngine.finish_window` hands them to HEXT with the window's
folded records, unsized: those records become the window's fragment.

The per-strip *value* computation (step 2.c and the finalize folds) is
delegated to a pluggable :class:`~repro.core.stripengine.StripEngine`:
the pure-python reference back-end or, when numpy is importable, a
vectorized strip-batch back-end.  Both produce byte-identical wirelists;
docs/ENGINES.md documents the split and the parity contract.  A window
sweep or one that keeps geometry always runs on the reference engine:
numpy runs plain sweeps only.

The host times itself with one always-on lap clock (:attr:`clock`),
one clock read per phase boundary, billing the sweep to ``fetch`` /
``expire`` / ``insert`` / ``schedule`` / ``strip`` / ``finalize``
(:data:`PROFILE_PHASES`).  :mod:`repro.pipeline` nests these phases
under its ``extract`` stage.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from collections.abc import Sequence
from itertools import islice
from operator import itemgetter
from typing import TYPE_CHECKING, cast

from ..frontend.instantiate import PlacedLabel
from ..frontend.stream import GeometryStream, Row
from ..geometry import Box
from ..tech import Technology
from .assemble import (
    attach_net_payload,
    device_order,
    fold_locations,
    fold_records,
    named_rows,
    net_order,
    renumbered,
)
from .columnar import NO_NET, LayerTable
from .netlist import (
    BOTTOM,
    CHANNEL,
    LEFT,
    RIGHT,
    TOP,
    Circuit,
    DeviceRec,
    WindowResult,
    malformed_warnings,
    skipped_warnings,
    unattached_warnings,
)
from .stats import LapClock, ScanStats
from .stripengine import ENGINE_CHOICES, CondSource, create_strip_engine
from .unionfind import UnionFind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine_python import PythonStripEngine

#: The host lap clock's phases, in sweep order (``ScanlineEngine.clock``).
PROFILE_PHASES = ("fetch", "expire", "insert", "schedule", "strip", "finalize")

#: Deliberately broken scanline rules, set only by the differential
#: harness's fault-injection self-test (:mod:`repro.difftest.faults`).
#: Always empty in normal operation.  Each name disables exactly one
#: connectivity rule in the strip engines' strip processing (both
#: back-ends honour the same names) so the harness can prove it detects
#: and shrinks a real extractor bug.
FAULTS: frozenset[str] = frozenset()


class StripConsumer:
    """A second consumer of the scanline strip decomposition.

    The engine already pays for the per-layer active lists; a consumer
    rides the same sweep instead of re-sorting the geometry stream.
    :meth:`observe_strip` is called once per strip, top to bottom, with
    contiguous ``[y_lo, y_hi)`` bands, ``spans`` holding each tracked
    layer's disjoint sorted ``(x1, x2)`` intervals for the strip, and
    ``channels`` the strip's transistor-channel spans ``(x1, x2, net)``
    (diffusion AND poly AND NOT buried).  :meth:`finish` is called once
    after the sweep ends.  The design-rule checker
    (:class:`repro.drc.checker.DrcChecker`) is the canonical
    implementation.
    """

    def observe_strip(
        self,
        y_lo: int,
        y_hi: int,
        spans: dict[str, list[tuple[int, int]]],
        channels: list[tuple[int, int, int]],
    ) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def finish(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class ScanlineEngine:
    """One extraction run over a geometry stream."""

    def __init__(
        self,
        tech: Technology,
        *,
        keep_geometry: bool = False,
        window: Box | None = None,
        strip_consumers: "tuple[StripConsumer, ...]" = (),
        engine: str = "auto",
    ) -> None:
        self.tech = tech
        self.keep_geometry = keep_geometry
        self.window = window
        self.stats = ScanStats()
        self.strip_consumers = tuple(strip_consumers)
        #: wall seconds per host phase; never on ``stats``, which is
        #: compared across engines, band plans and resumed sweeps
        self.clock = LapClock(PROFILE_PHASES)

        self._metal = tech.metal
        self._poly = tech.poly
        self._diff = tech.diff
        self._contact = tech.contact
        self._implant = tech.marker
        self._buried = tech.buried
        #: layers whose active intervals carry net ids directly
        self._net_layers = tech.net_layers
        tracked = tech.tracked()
        #: per-layer columnar active-interval tables (docs/ENGINES.md)
        self._tables: dict[str, LayerTable] = {
            name: LayerTable() for name in tracked
        }
        #: per-layer bottom-edge event heaps: one ``-ybot`` entry per
        #: distinct bottom of the layer's rows, naming its bucket
        self._heaps: dict[str, list[int]] = {name: [] for name in tracked}
        #: per-layer buckets: bottom -> ids of the rows scheduled there
        self._buckets: dict[str, dict[int, list[int]]] = {
            name: {} for name in tracked
        }
        self._active_count = 0
        #: net-layer strip-above intervals retired during the current
        #: stop, by expiry or merge consumption, as ``(x1, x2, net)`` in
        #: ascending x1.  Together with the in-list intervals entered
        #: before the stop, these reconstruct the exact strip-above view
        #: the vertical-adjacency rule needs -- without snapshotting the
        #: full active lists every strip.
        self._prev_retired: dict[str, list[tuple[int, int, int]]] = {
            name: [] for name in self._net_layers
        }
        self._ignored = set(tech.ignored)
        #: what :meth:`_enter` unpacks once per run of same-layer rows:
        #: the table, its columns, its schedule, and its retired list
        #: (None on a layer that carries no net)
        self._lanes = {
            name: (
                t, t.order, t.keys, t.x1, t.x2, t.ybot, t.net, t.live,
                self._buckets[name], self._heaps[name],
                self._prev_retired.get(name),
            )
            for name, t in self._tables.items()
        }

        self._nets = UnionFind()
        self._devs = UnionFind()
        self._net_names: dict[int, list[str]] = {}
        self._net_geo: dict[int, list[tuple[str, Box]]] = {}

        self._pending: list[tuple[int, int, str, int, int, int, int | None]] = []
        self._pending_seq = 0
        self._labels: list[PlacedLabel] = []
        self._labels_taken = 0
        self._unattached: list[PlacedLabel] = []
        #: ``(face, layer, lo, hi, id)`` per strip span on a window face
        self._boundary: list[tuple[str, str, int, int, int]] = []
        #: unknown layers whose geometry was ignored, in sweep order
        self._skipped: list[str] = []

        #: suspension point for banded sweeps: the next stop to process
        #: (None once the event sources are exhausted) and whether the
        #: initial prime has happened.  :meth:`run` is exactly
        #: ``advance()`` to exhaustion followed by :meth:`finish`.
        self._y: int | None = None
        self._primed = False

        #: the pluggable step-2.c back-end; see docs/ENGINES.md.  Window
        #: and keep-geometry sweeps run on python whatever ``engine``
        #: names, without resolving it (so ``auto`` imports no numpy);
        #: an unknown name still fails in ``create_strip_engine``
        if (window is not None or keep_geometry) and engine in ENGINE_CHOICES:
            engine = "python"
        self.strip_engine = create_strip_engine(engine, self)
        self.engine_name = self.strip_engine.name

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------

    def run(self, stream: GeometryStream) -> Circuit:
        """Sweep the stream top to bottom and return the circuit."""
        self.advance(stream)
        return self.finish()

    def advance(self, stream: GeometryStream, y_limit: int | None = None) -> bool:
        """Sweep until the next stop would be at or below ``y_limit``.

        With ``y_limit=None`` the sweep runs to exhaustion.  Returns True
        while more stops remain (the sweep paused at the band boundary),
        False once every event source is drained.  The loop body is the
        exact in-memory sweep: band boundaries only ever *pause between
        natural stops*, never force one, so every counter in
        :class:`~repro.core.stats.ScanStats` and every strip handed to
        the engine is identical to an unbanded run.

        Each section of a stop ends with one lap of :attr:`clock`, so
        the phases tile the sweep: whatever a section does, bookkeeping
        included, is billed to it.
        """
        stats = self.stats
        lap = self.clock.lap
        self.clock.start()
        if not self._primed:
            y = stream.next_top()
            if self._pending:
                top = -self._pending[0][0]
                y = top if y is None else max(y, top)
            self._y = y
            self._primed = True
            lap("fetch")
        y = self._y

        strip_engine = self.strip_engine

        while y is not None:
            if y_limit is not None and y <= y_limit:
                break
            stats.stops += 1
            scanned_before = stats.intervals_scanned
            pops_before = stats.heap_pops
            self._expire(y)
            lap("expire")
            rows = stream.fetch(y)
            lap("fetch")
            stats.boxes_in += len(rows)
            self._enter(y, rows)
            lap("insert")
            y_next = self._next_stop(stream, y)
            overhead = (stats.intervals_scanned - scanned_before) - (
                stats.heap_pops - pops_before
            )
            if overhead > stats.max_stop_overhead:
                stats.max_stop_overhead = overhead
            lap("schedule")
            if y_next is None:
                y = None
                break
            total_active = self._active_count
            stats.observe_active(total_active)
            if total_active:
                stats.strips += 1
            strip_engine.process_strip(y_next, y, stream)
            lap("strip")
            y = y_next

        self._y = y
        if y is None:
            # The labels still queued lie below all geometry, with any
            # placed after the last strip (all of them, in a layout
            # without geometry, which has no strip to take them).
            self._take_labels(stream)
            self._unattached.extend(self._labels)
            self._labels = []
        return y is not None

    def finish(self) -> Circuit:
        """Close the sweep: flush consumers and fold the circuit."""
        self.clock.start()
        for consumer in self.strip_consumers:
            consumer.finish()
        circuit = self._finalize()
        self.clock.lap("finalize")
        return circuit

    def finish_window(self) -> WindowResult:
        """Close a window sweep: its fragment's records, unsized.

        The python engine's net locations and device records fold as in
        the flat finalize.  Nets are numbered from 0 in canonical order
        and the records :func:`~repro.core.assemble.renumbered` to
        match.  The boundary spans map to those numbers (channel spans
        to their device), and the pieces the strips cut a span into
        coalesce.  Devices with a channel span are the partials,
        numbered in device order, which channel spans then name.
        """
        self.clock.start()
        window = self.window
        assert window is not None
        # python: a window sweep runs on no other engine
        engine = cast("PythonStripEngine", self.strip_engine)
        nets, devs = self._nets, self._devs
        locations = fold_locations(engine._net_loc, nets.find)
        net_roots = net_order(locations)
        net_row = {root: row for row, root in enumerate(net_roots)}
        folded = fold_records(engine._dev, devs.find)
        dev_roots = device_order({r: rec.loc for r, rec in folded.items()})
        dev_row = {root: row for row, root in enumerate(dev_roots)}

        spans = []
        for face, layer, lo, hi, ident in self._boundary:
            if layer == CHANNEL:
                ident = dev_row[devs.find(ident)]
            else:
                ident = net_row[nets.find(ident)]
            spans.append((face, layer, lo, hi, ident))
        spans = _coalesced(spans)
        rows = sorted({span[4] for span in spans if span[1] == CHANNEL})
        partial_of = {row: i for i, row in enumerate(rows)}
        devices: list[DeviceRec] = []
        partials: list[DeviceRec] = []
        for row, root in enumerate(dev_roots):
            rec = folded[root]
            terms, gates = renumbered(rec, nets.find, net_row)
            (partials if row in partial_of else devices).append(
                DeviceRec(rec.area, terms, gates, rec.impl, rec.loc)
            )
        fixed = {
            LEFT: window.xmin, RIGHT: window.xmax,
            TOP: window.ymax, BOTTOM: window.ymin,
        }
        result = WindowResult(
            net_count=len(net_roots),
            net_names=named_rows(nets.fold(self._net_names), net_row),
            net_locs={row: locations[r] for row, r in enumerate(net_roots)},
            devices=devices,
            partials=partials,
            interface=[
                (face, layer, fixed[face], lo, hi,
                 partial_of[ident] if layer == CHANNEL else ident)
                for face, layer, lo, hi, ident in spans
            ],
            skipped=list(self._skipped),
            unattached=self._unattached,
        )
        self.clock.lap("finalize")
        return result

    # ------------------------------------------------------------------
    # banded sweeps: liveness and retirement
    # ------------------------------------------------------------------

    def live_net_roots(self) -> set[int]:
        """Net roots still reachable from host-side sweep state.

        A net absent from every active list and from the pending buffer
        (and from the engine's strip-above continuation state, which the
        engine reports separately) can never be unioned again: all future
        unions reach only nets visible to upcoming strips.  Its root is
        therefore final and safe to retire.  ``_prev_retired`` is
        deliberately excluded -- it is cleared by the next ``_expire``
        before anything reads it.
        """
        find = self._nets.find
        live: set[int] = set()
        for layer in self._net_layers:
            t = self._tables[layer]
            net = t.net
            for rid in t.order:
                live.add(find(net[rid]))
        for entry in self._pending:
            net_id = entry[6]
            if net_id is not None:
                live.add(find(net_id))
        return live

    def retire_net_payload(self, dead_roots: "set[int]") -> dict[int, dict]:
        """Remove and return name/geometry payloads of dead net roots.

        Per-root values concatenate in table insertion order -- exactly
        the restriction of the finalize-time ``UnionFind.fold`` to these
        roots, so spilled payloads byte-match the in-memory fold.  Live
        entries keep their raw-id keys untouched: re-keying them could
        reorder future appends relative to an uninterrupted run.
        """
        find = self._nets.find
        out: dict[int, dict] = {}
        if self._net_names:
            keep_names: dict[int, list[str]] = {}
            for ident, names in self._net_names.items():
                root = find(ident)
                if root in dead_roots:
                    rec = out.setdefault(root, {})
                    rec.setdefault("names", []).extend(names)
                else:
                    keep_names[ident] = names
            self._net_names = keep_names
        if self._net_geo:
            keep_geo: dict[int, list[tuple[str, Box]]] = {}
            for ident, entries in self._net_geo.items():
                root = find(ident)
                if root in dead_roots:
                    rec = out.setdefault(root, {})
                    rec.setdefault("geo", []).extend(entries)
                else:
                    keep_geo[ident] = entries
            self._net_geo = keep_geo
        return out

    def _next_stop(self, stream: GeometryStream, y: int) -> int | None:
        """Step 2.d as a heap peek: one stopping peek per layer with rows.

        The top bucket of a layer always holds a live row, so its bottom
        is the layer's next expiry: a merge that consumes a row either
        makes a row with the same bottom or leaves that bottom's
        remainder pending, and the remainder re-enters the bucket before
        the scanline passes the merged row (docs/SCANLINE_PERF.md).
        """
        best = stream.next_top()
        if self._pending:
            top = -self._pending[0][0]
            if best is None or top > best:
                best = top
        peeks = 0
        for heap in self._heaps.values():
            if heap:
                peeks += 1
                bot = -heap[0]
                if best is None or bot > best:
                    best = bot
        self.stats.intervals_scanned += peeks
        if best is None:
            return None
        if best >= y:  # pragma: no cover - sweep invariant
            raise AssertionError(f"scanline failed to advance: {best} >= {y}")
        return best

    # ------------------------------------------------------------------
    # active-list maintenance (steps 2.a / 2.b)
    # ------------------------------------------------------------------

    def _expire(self, y: int) -> None:
        """Retire the intervals whose bottom edge coincides with the scanline.

        They are one bucket per layer, the heap's top: its live rows are
        killed together, and the layer's ``order``/``keys`` are rebuilt
        in one pass when more than one row leaves (one bisect when one
        does).  Each expiry counts as one removal; a layer with rows left
        adds one stopping peek.  Net-layer expiries are recorded in
        ``_prev_retired`` for the stop's duration, feeding the
        vertical-adjacency rule in :meth:`_enter`.
        """
        for retired in self._prev_retired.values():
            if retired:
                retired.clear()
        expired = peeks = 0
        lanes = self._lanes
        for layer, heap in self._heaps.items():
            if not heap:
                continue
            (t, order, keys, tx1, tx2, _, tnet, live, buckets, heap,
             retired) = lanes[layer]
            if heap[0] == -y:
                heapq.heappop(heap)
                bucket = buckets.pop(y)
                # A surfacing bucket holds a live row (see _next_stop), so
                # a bucket of one row is one expiry.
                if len(bucket) > 1:
                    bucket = [rid for rid in bucket if live[rid]]
                for rid in bucket:
                    live[rid] = 0
                if len(bucket) == 1:
                    # Live intervals are disjoint, so x1 is unique:
                    # bisect lands exactly on the retiring interval.
                    rid = bucket[0]
                    i = bisect_left(keys, tx1[rid])
                    del order[i]
                    del keys[i]
                    if retired is not None:
                        retired.append((tx1[rid], tx2[rid], tnet[rid]))
                else:
                    order[:] = [rid for rid in order if live[rid]]
                    keys[:] = [tx1[rid] for rid in order]
                    if retired is not None:
                        retired += [
                            (tx1[rid], tx2[rid], tnet[rid]) for rid in bucket
                        ]
                        retired.sort()
                t.version += 1
                expired += len(bucket)
            if order:
                peeks += 1
        stats = self.stats
        if expired:
            stats.expired += expired
            stats.heap_pops += expired
            self._active_count -= expired
        stats.intervals_scanned += expired + peeks

    def _enter(self, y: int, rows: list[Row]) -> None:
        """Merge one stop's geometry into the active tables (steps 2.a/2.b).

        The continuations whose top is the scanline go first, in pending
        order, then the fetched rows in stream order.  Every row is
        merged as a per-box insertion would merge it, so net ids are
        allocated and unions made in exactly that order; what the rows
        share is the bookkeeping.  A run of same-layer rows unpacks its
        layer's table, columns and schedule once, the stop's net
        sightings reach the strip engine in one ``touch_nets`` call, and
        the counters are summed once.

        A fresh row on a net layer gets a new net and joins, by vertical
        adjacency, the nets of strip-above intervals it overlaps: those
        retired at this very stop (by expiry or merge consumption) and
        the in-table survivors entered before it.  Continuations carry
        their net and skip that rule, as their upper part was already
        entered.  A row that overlaps or abuts live intervals merges
        with them (step 2.b): the merged interval lives until the
        *earliest* bottom, and the deeper remainder of every taller piece
        re-enters from the pending buffer.  A consumed row is marked dead
        and left in its bucket, which skips it when it retires.
        """
        pending = self._pending
        conts = []
        while pending and pending[0][0] == -y:
            _, _, layer, x1, x2, ybot, net = heapq.heappop(pending)
            conts.append((layer, x1, ybot, x2, net))
        if not conts and not rows:  # a stop at bottom edges only
            return
        lanes = self._lanes
        nets = self._nets
        made = len(nets)
        make = nets.make
        union = nets.union
        keep_geometry = self.keep_geometry
        net_geo = self._net_geo
        heappush = heapq.heappush
        #: per layer, its first row id entered at this stop: rows below
        #: it belong to the strip above
        firsts: dict[str, int] = {}
        sightings: list[tuple[int, int, int]] = []
        seq = self._pending_seq
        merges = splits = consumed = skipped = 0
        batches: tuple[tuple[bool, Sequence[tuple]], ...] = (
            (False, conts),
            (True, rows),
        )
        net: int | None  # None on a layer that carries no net
        for fresh, batch in batches:
            current = None
            lane = None
            for row in batch:
                if fresh:
                    layer, x1, ybot, x2 = row
                    net = None
                else:
                    layer, x1, ybot, x2, net = row
                if layer != current:
                    current = layer
                    lane = lanes.get(layer)
                    if lane is None:
                        self._skip_layer(layer)
                        skipped += 1
                        continue
                    (t, order, keys, tx1, tx2, tybot, tnet, live, buckets,
                     heap, retired) = lane
                    first = firsts.get(layer)
                    if first is None:
                        first = firsts[layer] = len(tx1)
                    t.version += 1
                elif lane is None:
                    skipped += 1
                    continue

                # The run of intervals that overlap or abut [x1, x2].
                lo = bisect_left(keys, x1)
                if lo and tx2[order[lo - 1]] >= x1:
                    lo -= 1
                hi = bisect_right(keys, x2, lo)
                if retired is not None and fresh:
                    net = make()
                    if retired or lo < hi:
                        # Vertical adjacency, in ascending x1 as a full
                        # strip snapshot would order it.  Both sources are
                        # sorted and disjoint; the survivors it meets are
                        # among order[lo:hi].
                        cands = []
                        if retired:
                            j = bisect_left(retired, (x1,))
                            if j and retired[j - 1][1] > x1:
                                j -= 1
                            for px1, px2, pnet in islice(retired, j, None):
                                if px1 >= x2:
                                    break
                                if px2 > x1:
                                    cands.append((px1, pnet))
                        for rid in order[lo:hi]:
                            if rid < first and tx2[rid] > x1 and tx1[rid] < x2:
                                cands.append((tx1[rid], tnet[rid]))
                        if cands:
                            cands.sort()
                            for _, pnet in cands:
                                net = union(net, pnet)
                    sightings.append((net, y, -x1))
                    if keep_geometry:
                        net_geo.setdefault(net, []).append(
                            (layer, Box(x1, ybot, x2, y))
                        )

                rid = len(tx1)
                if lo == hi:
                    order.insert(lo, rid)
                    keys.insert(lo, x1)
                else:
                    merges += 1
                    pieces = order[lo:hi]
                    if tx1[pieces[0]] < x1:
                        x1 = tx1[pieces[0]]
                    if tx2[pieces[-1]] > x2:
                        x2 = tx2[pieces[-1]]
                    bot = ybot
                    for piece in pieces:
                        if tybot[piece] > bot:
                            bot = tybot[piece]
                        if net is not None:
                            net = union(net, tnet[piece])
                    for piece in pieces:
                        live[piece] = 0
                        if retired is not None and piece < first:
                            # A consumed strip-above interval stays visible
                            # to later same-stop vertical-adjacency checks.
                            insort(retired, (tx1[piece], tx2[piece], tnet[piece]))
                        if tybot[piece] < bot:
                            seq += 1
                            heappush(
                                pending,
                                (-bot, seq, layer, tx1[piece], tx2[piece],
                                 tybot[piece], net),
                            )
                            splits += 1
                    if ybot < bot:
                        # row is the entered box as it came, before the
                        # merge widened x1/x2
                        seq += 1
                        heappush(
                            pending, (-bot, seq, layer, row[1], row[3], ybot, net)
                        )
                        splits += 1
                        ybot = bot
                    consumed += hi - lo
                    order[lo:hi] = [rid]
                    keys[lo:hi] = [x1]
                tx1.append(x1)
                tx2.append(x2)
                tybot.append(ybot)
                tnet.append(NO_NET if net is None else net)
                live.append(1)
                # Schedule: one heap entry per distinct bottom.
                bucket = buckets.get(ybot)
                if bucket is None:
                    buckets[ybot] = [rid]
                    heappush(heap, -ybot)
                else:
                    bucket.append(rid)

        if sightings:
            self.strip_engine.touch_nets(sightings)
        scheduled = len(conts) + len(rows) - skipped
        self._active_count += scheduled - consumed
        stats = self.stats
        stats.nets_created += len(nets) - made
        stats.heap_pushes += scheduled
        if merges:
            self._pending_seq = seq
            stats.merges += merges
            stats.splits += splits
            # A consumed row leaves the schedule when it is consumed.
            stats.heap_pops += consumed
            stats.lazy_discards += consumed
            stats.intervals_scanned += consumed

    def _skip_layer(self, layer: str) -> None:
        """Note once that geometry on a layer no table tracks was seen."""
        if layer not in self._ignored and layer not in self._skipped:
            self._skipped.append(layer)

    # ------------------------------------------------------------------
    # strip consumers
    # ------------------------------------------------------------------

    def _feed_consumers(
        self,
        y_lo: int,
        y_hi: int,
        channels: list[tuple[int, int, int]],
    ) -> None:
        """Hand the strip's spans to every attached consumer."""
        spans: dict[str, list[tuple[int, int]]] = {}
        for layer, t in self._tables.items():
            x1, x2 = t.x1, t.x2
            spans[layer] = [(x1[rid], x2[rid]) for rid in t.order]
        for consumer in self.strip_consumers:
            consumer.observe_strip(y_lo, y_hi, spans, channels)

    # ------------------------------------------------------------------
    # labels
    # ------------------------------------------------------------------

    def _attach_labels(
        self,
        y_lo: int,
        y_hi: int,
        stream: GeometryStream,
        cond_source: CondSource,
    ) -> None:
        """Bind labels that fall inside the strip to their nets.

        ``cond_source`` lazily materializes the strip's conducting
        diffusion spans ``(x1, x2, net)``; batch engines only pay for
        the list when a label actually lands in the strip.
        """
        self._take_labels(stream)
        if not self._labels:
            return
        remaining: list[PlacedLabel] = []
        cond: list[tuple[int, int, int]] | None = None
        cond_starts: list[int] | None = None
        for label in self._labels:
            if label.y > y_hi:
                self._unattached.append(label)
            elif label.y < y_lo:
                remaining.append(label)
            else:
                if cond_starts is None or cond is None:
                    cond = cond_source()
                    cond_starts = [span[0] for span in cond]
                net = self._net_at_point(label, cond, cond_starts)
                if net is None:
                    self._unattached.append(label)
                else:
                    self._net_names.setdefault(net, []).append(label.name)
        self._labels = remaining

    def _take_labels(self, stream: GeometryStream) -> None:
        """Queue the labels the stream placed since the last call."""
        fresh = stream.labels()
        if len(fresh) > self._labels_taken:
            self._labels.extend(fresh[self._labels_taken :])
            self._labels_taken = len(fresh)

    def _net_at_point(
        self,
        label: PlacedLabel,
        cond: list[tuple[int, int, int]],
        cond_starts: list[int],
    ) -> int | None:
        layers: tuple[str, ...]
        if label.layer:
            layers = (label.layer,)
        else:
            layers = (self._metal, self._poly, self._diff)
        x = label.x
        for layer in layers:
            if layer == self._diff:
                i = bisect_right(cond_starts, x) - 1
                if i >= 0 and cond[i][1] >= x:
                    return cond[i][2]
            elif layer in self._net_layers:
                t = self._tables[layer]
                i = bisect_right(t.keys, x) - 1
                if i >= 0:
                    rid = t.order[i]
                    if t.x2[rid] >= x:
                        return t.net[rid]
        return None

    # ------------------------------------------------------------------
    # window boundary capture (HEXT's modified ACE)
    # ------------------------------------------------------------------

    def _capture_boundary(
        self,
        y_lo: int,
        y_hi: int,
        cond: list[tuple[int, int, int]],
        strip_channels: list[tuple[int, int, int]],
    ) -> None:
        window = self.window
        assert window is not None
        records = self._boundary
        wx1, wx2 = window.xmin, window.xmax

        # Active intervals are disjoint with strictly increasing x1 and
        # x2, so at most one interval per layer can start on the left
        # window edge (and one end on the right): bisect to the two
        # candidates instead of scanning the whole list every strip.
        for layer in self._net_layers:
            t = self._tables[layer]
            order = t.order
            if not order:
                continue
            keys = t.keys
            i = bisect_left(keys, wx1)
            if i < len(keys) and keys[i] == wx1:
                records.append(
                    (LEFT, layer, y_lo, y_hi, t.net[order[i]])
                )
            j = bisect_right(keys, wx2) - 1
            if j >= 0 and t.x2[order[j]] == wx2:
                records.append(
                    (RIGHT, layer, y_lo, y_hi, t.net[order[j]])
                )
        for x1, x2, net in cond:
            if x1 == wx1:
                records.append((LEFT, self._diff, y_lo, y_hi, net))
            if x2 == wx2:
                records.append((RIGHT, self._diff, y_lo, y_hi, net))
        for x1, x2, dev in strip_channels:
            if x1 == wx1:
                records.append((LEFT, CHANNEL, y_lo, y_hi, dev))
            if x2 == wx2:
                records.append((RIGHT, CHANNEL, y_lo, y_hi, dev))

        if y_hi == window.ymax:
            for layer in self._net_layers:
                t = self._tables[layer]
                for rid in t.order:
                    records.append(
                        (TOP, layer, t.x1[rid], t.x2[rid], t.net[rid])
                    )
            for x1, x2, net in cond:
                records.append((TOP, self._diff, x1, x2, net))
            for x1, x2, dev in strip_channels:
                records.append((TOP, CHANNEL, x1, x2, dev))
        if y_lo == window.ymin:
            for layer in self._net_layers:
                t = self._tables[layer]
                for rid in t.order:
                    records.append(
                        (BOTTOM, layer, t.x1[rid], t.x2[rid], t.net[rid])
                    )
            for x1, x2, net in cond:
                records.append((BOTTOM, self._diff, x1, x2, net))
            for x1, x2, dev in strip_channels:
                records.append((BOTTOM, CHANNEL, x1, x2, dev))

    # ------------------------------------------------------------------
    # finalize (step 3)
    # ------------------------------------------------------------------

    def _finalize(self) -> Circuit:
        nets = self._nets
        # The engine owns the location and device folds and hands back
        # canonical-order columns; names and kept net artwork are host
        # state, mapped onto rows by root.
        net_roots, net_cols, dev_cols = self.strip_engine.finalize(
            self.tech.kinds
        )
        geometry = self._net_geo if self.keep_geometry else {}
        if self._net_names or geometry:
            attach_net_payload(
                net_cols,
                {root: row for row, root in enumerate(net_roots)},
                nets.fold(self._net_names),
                nets.fold(geometry),
            )
        return Circuit(
            warnings=skipped_warnings(self._skipped)
            + malformed_warnings(dev_cols)
            + unattached_warnings(self._unattached),
            net_columns=net_cols,
            device_columns=dev_cols,
        )


# ----------------------------------------------------------------------
# span helpers (disjoint sorted span lists, single merged sweeps)
# ----------------------------------------------------------------------


def _intersect_intervals(
    spans: list[tuple[int, int, int]], intervals: list[tuple[int, int, int]]
) -> list[tuple[int, int, int]]:
    """Intersect two sorted span lists, keeping the second's nets."""
    out: list[tuple[int, int, int]] = []
    i = j = 0
    n_spans, n_intervals = len(spans), len(intervals)
    while i < n_spans and j < n_intervals:
        a = spans[i]
        b = intervals[j]
        lo = a[0] if a[0] > b[0] else b[0]
        hi = a[1] if a[1] < b[1] else b[1]
        if lo < hi:
            out.append((lo, hi, b[2]))
        if a[1] <= b[1]:
            i += 1
        else:
            j += 1
    return out


def _subtract_channels(
    segments: list[tuple[int, int, int]], holes: list[tuple[int, int, int]]
) -> list[tuple[int, int, int]]:
    """Channel segments minus hole spans, keeping each gate net."""
    out: list[tuple[int, int, int]] = []
    hj = 0
    n_holes = len(holes)
    for x1, x2, pnet in segments:
        pos = x1
        while hj < n_holes and holes[hj][1] <= pos:
            hj += 1
        j = hj
        while j < n_holes:
            hole = holes[j]
            if hole[0] >= x2:
                break
            if hole[0] > pos:
                out.append((pos, hole[0], pnet))
            if hole[1] > pos:
                pos = hole[1]
            if pos >= x2:
                break
            j += 1
        if pos < x2:
            out.append((pos, x2, pnet))
    return out


def _subtract_diff(
    spans: list[tuple[int, int, int]], holes: list[tuple[int, int, int]]
) -> list[tuple[int, int]]:
    """Diffusion spans minus channel spans; all inputs sorted."""
    out: list[tuple[int, int]] = []
    hj = 0
    n_holes = len(holes)
    for lo, hi, _ in spans:
        pos = lo
        while hj < n_holes and holes[hj][1] <= pos:
            hj += 1
        j = hj
        while j < n_holes:
            hlo, hhi = holes[j][0], holes[j][1]
            if hlo >= hi:
                break
            if hlo > pos:
                out.append((pos, hlo))
            if hhi > pos:
                pos = hhi
            if pos >= hi:
                break
            j += 1
        if pos < hi:
            out.append((pos, hi))
    return out


def _coalesced(
    spans: list[tuple[str, str, int, int, int]],
) -> list[tuple[str, str, int, int, int]]:
    """Join the ``(face, layer, lo, hi, id)`` boundary spans of
    successive strips that continue one another."""
    spans.sort(key=itemgetter(0, 1, 4, 2))
    out: list[tuple[str, str, int, int, int]] = []
    for span in spans:
        if out:
            face, layer, lo, hi, ident = out[-1]
            if (
                span[0] == face
                and span[1] == layer
                and span[4] == ident
                and span[2] <= hi
            ):
                if span[3] > hi:
                    out[-1] = (face, layer, lo, span[3], ident)
                continue
        out.append(span)
    return out
