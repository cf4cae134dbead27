"""The edge-based scanline back-end (section 3 of the paper).

A scanline moves from the top of the chip to the bottom, pausing only at
box top/bottom edges.  Between consecutive stops the layer state is
constant -- a *strip*.  Per layer, an *active list* of disjoint, sorted
x-intervals describes the strip; nets live in a union-find.

The implementation follows Figure 3-2 step for step:

  2.a  incoming geometry is sorted by x into per-layer newGeometry lists
       (here: delivered sorted by the stream, inserted one by one);
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
events at that stop, not to the number of active intervals: every active
interval is registered on a per-layer bottom-edge heap when created, and
an interval consumed by a merge is *lazily invalidated* -- its heap entry
stays behind, marked dead, and is discarded when it surfaces.  Step 2.d
is then a constant number of heap peeks and step "expire" pops exactly
the intervals whose bottom edge is the current stop.  The design notes
and invariants live in docs/SCANLINE_PERF.md.

Active intervals live in per-layer *columnar* tables
(:class:`~repro.core.columnar.LayerTable`): persistent int64 columns
plus a live mask, updated incrementally on insert/expire.  The numpy
strip engine gathers a layer's live rows straight from the columns
(zero-copy buffer views) instead of re-materializing python lists every
strip.  The host hands every strip to the engine as it reaches it, one
:meth:`StripEngine.process_strip` call per strip, top to bottom.

In *window mode* (HEXT's modified ACE) the engine also records every
conducting span and channel span that touches the window boundary; those
records become the window's interface.

The per-strip *value* computation (step 2.c and the finalize folds) is
delegated to a pluggable :class:`~repro.core.stripengine.StripEngine`:
the pure-python reference back-end or, when numpy is importable, a
vectorized strip-batch back-end.  Both produce byte-identical wirelists;
docs/ENGINES.md documents the split and the parity contract.

The host times itself with one always-on lap clock (:attr:`clock`),
one clock read per phase boundary, billing the sweep to ``fetch`` /
``expire`` / ``insert`` / ``schedule`` / ``strip`` / ``finalize``
(:data:`PROFILE_PHASES`).  :mod:`repro.pipeline` nests these phases
under its ``extract`` stage.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right

from ..frontend.instantiate import PlacedLabel
from ..frontend.stream import GeometryStream
from ..geometry import Box
from ..tech import Technology
from .assemble import attach_net_payload
from .columnar import NO_NET, LayerTable
from .netlist import (
    CHANNEL,
    BoundaryRecord,
    Circuit,
    Face,
    malformed_warnings,
)
from .stats import LapClock, ScanStats
from .stripengine import CondSource, create_strip_engine
from .unionfind import UnionFind

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
        #: per-layer bottom-edge event heaps of (-ybot, seq, row id)
        self._heaps: dict[str, list[tuple[int, int, int]]] = {
            name: [] for name in tracked
        }
        self._heap_seq = 0
        self._active_count = 0
        self._stop = 0  #: current stop ordinal (compared against born)
        #: net-layer strip-above intervals retired during the current
        #: stop, by expiry or merge consumption.  Together with in-list
        #: intervals born before the stop, these reconstruct the exact
        #: strip-above view the vertical-adjacency rule needs -- without
        #: snapshotting the full active lists every strip.
        self._prev_retired: dict[str, list[tuple[int, int, int]]] = {
            name: [] for name in self._net_layers
        }
        self._ignored = set(tech.ignored)

        self._nets = UnionFind()
        self._devs = UnionFind()
        self._net_names: dict[int, list[str]] = {}
        self._net_geo: dict[int, list[tuple[str, Box]]] = {}

        self._pending: list[tuple[int, int, str, int, int, int, int | None]] = []
        self._pending_seq = 0
        self._labels: list[PlacedLabel] = []
        self._labels_taken = 0
        self._unattached: list[PlacedLabel] = []
        self._boundary: list[tuple[Face, str, int, int, int]] = []
        self._warnings: list[str] = []
        self._unknown_layers: set[str] = set()

        #: suspension point for banded sweeps: the next stop to process
        #: (None once the event sources are exhausted) and whether the
        #: initial prime has happened.  :meth:`run` is exactly
        #: ``advance()`` to exhaustion followed by :meth:`finish`.
        self._y: int | None = None
        self._primed = False

        #: the pluggable step-2.c back-end; see docs/ENGINES.md
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
            self._stop += 1
            scanned_before = stats.intervals_scanned
            pops_before = stats.heap_pops
            self._expire(y)
            lap("expire")
            new_boxes = stream.fetch(y)
            lap("fetch")
            self._enter_continuations(y)
            for layer, box in new_boxes:
                stats.boxes_in += 1
                self._insert(
                    layer, box.xmin, box.xmax, box.ymin, None, True, box
                )
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
        return y is not None

    def finish(self) -> Circuit:
        """Close the sweep: flush consumers and fold the circuit."""
        self.clock.start()
        for consumer in self.strip_consumers:
            consumer.finish()
        circuit = self._finalize()
        self.clock.lap("finalize")
        return circuit

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
        """Step 2.d as a heap peek: O(#layers) plus lazy-dead cleanup."""
        stats = self.stats
        best = stream.next_top()
        if self._pending:
            top = -self._pending[0][0]
            if best is None or top > best:
                best = top
        for layer, heap in self._heaps.items():
            if not heap:
                continue
            live = self._tables[layer].live
            while heap:
                stats.intervals_scanned += 1
                neg_bot, _, rid = heap[0]
                if live[rid]:
                    bot = -neg_bot
                    if best is None or bot > best:
                        best = bot
                    break
                heapq.heappop(heap)
                stats.heap_pops += 1
                stats.lazy_discards += 1
        if best is None:
            return None
        if best >= y:  # pragma: no cover - sweep invariant
            raise AssertionError(f"scanline failed to advance: {best} >= {y}")
        return best

    # ------------------------------------------------------------------
    # active-list maintenance (steps 2.a / 2.b)
    # ------------------------------------------------------------------

    def _expire(self, y: int) -> None:
        """Pop the intervals whose bottom edge coincides with the scanline.

        Only heap entries that actually retire (expiring intervals plus
        lazily invalidated leftovers of earlier merges) are popped; one
        extra peek per non-empty layer detects that nothing more ends
        here.  Net-layer expiries are recorded in ``_prev_retired`` for
        the stop's duration, feeding the vertical-adjacency rule in
        :meth:`_insert`.
        """
        stats = self.stats
        retired = self._prev_retired
        for layer in retired:
            if retired[layer]:
                retired[layer] = []
        for layer, heap in self._heaps.items():
            if not heap:
                continue
            t = self._tables[layer]
            live = t.live
            retired_here = retired.get(layer)
            while heap:
                stats.intervals_scanned += 1
                neg_bot, _, rid = heap[0]
                if live[rid] and -neg_bot != y:
                    break
                heapq.heappop(heap)
                stats.heap_pops += 1
                if not live[rid]:
                    stats.lazy_discards += 1
                    continue
                stats.expired += 1
                t.kill(rid)
                # Live intervals are disjoint, so x1 is unique: bisect
                # lands exactly on the retiring interval.
                i = bisect_left(t.keys, t.x1[rid])
                del t.order[i]
                del t.keys[i]
                t.version += 1
                self._active_count -= 1
                if retired_here is not None:
                    retired_here.append((t.x1[rid], t.x2[rid], t.net[rid]))

    def _enter_continuations(self, y: int) -> None:
        """Re-insert buffered lower portions whose top is the scanline."""
        pending = self._pending
        while pending and -pending[0][0] == y:
            _, _, layer, x1, x2, ybot, net = heapq.heappop(pending)
            self._insert(layer, x1, x2, ybot, net, False, None)

    def _insert(
        self,
        layer: str,
        x1: int,
        x2: int,
        ybot: int,
        net: int | None,
        fresh: bool,
        box: Box | None,
    ) -> None:
        """Merge one box (or continuation) into a layer's active table.

        ``net`` is None for fresh geometry (a net is allocated on demand
        for net-carrying layers) and pre-bound for continuations.  ``box``
        is the original artwork box for geometry/location bookkeeping and
        None for continuations, whose upper part was already recorded.
        ``fresh`` geometry additionally joins, by vertical adjacency, the
        nets of strip-above intervals that retired at this very stop;
        adjacency to intervals that continue below is the ordinary merge.
        """
        t = self._tables.get(layer)
        if t is None:
            if layer not in self._ignored and layer not in self._unknown_layers:
                self._unknown_layers.add(layer)
                self._warnings.append(f"ignoring geometry on unknown layer {layer}")
            return
        keys = t.keys
        order = t.order
        carries_net = layer in self._net_layers

        if carries_net:
            if net is None:
                net = self._nets.make()
                self.stats.nets_created += 1
            if fresh:
                # Vertical adjacency: new geometry starting exactly where
                # the strip above ended joins the nets above it.  The
                # strip-above view is reconstructed from two event-bounded
                # sources: intervals retired during this stop (expiry or
                # merge consumption) and in-table survivors born before
                # this stop.  Union order follows ascending x1, exactly
                # as a full strip snapshot would.
                cands: list[tuple[int, int]] | None = None
                retired = self._prev_retired[layer]
                if retired:
                    cands = [
                        (px1, pnet)
                        for px1, px2, pnet in retired
                        if px2 > x1 and px1 < x2
                    ]
                tx1, tx2 = t.x1, t.x2
                tborn, tnet = t.born, t.net
                i = bisect_left(keys, x1)
                if i > 0 and tx2[order[i - 1]] > x1:
                    i -= 1
                n_live = len(order)
                born_limit = self._stop
                while i < n_live:
                    rid = order[i]
                    if tx1[rid] >= x2:
                        break
                    if tborn[rid] < born_limit and tx2[rid] > x1:
                        if cands is None:
                            cands = []
                        cands.append((tx1[rid], tnet[rid]))
                    i += 1
                if cands:
                    cands.sort()
                    for _, pnet in cands:
                        net = self._nets.union(net, pnet)
            if box is not None:
                self.strip_engine.touch_net(net, box.xmin, box.ymax)
                if self.keep_geometry:
                    self._net_geo.setdefault(net, []).append((layer, box))
        else:
            net = None

        # Locate the run of intervals that overlap or abut [x1, x2].
        lo = bisect_left(keys, x1)
        if lo > 0 and t.x2[order[lo - 1]] >= x1:
            lo -= 1
        hi = bisect_right(keys, x2, lo=lo)
        if lo == hi:
            rid = t.alloc(
                x1, x2, ybot, NO_NET if net is None else net, self._stop
            )
            order.insert(lo, rid)
            keys.insert(lo, x1)
            t.version += 1
            self._active_count += 1
            self._schedule(layer, rid, ybot)
            return

        # Merge the new box with the rows at order[lo:hi] (step 2.b).
        # The merged interval lives until the *earliest* bottom; the
        # deeper remainder of every taller piece re-enters from the
        # pending buffer.  The consumed pieces are lazily invalidated:
        # their heap entries stay queued, flagged dead, and are dropped
        # when they surface.
        self.stats.merges += 1
        pieces = order[lo:hi]
        tx1, tx2, tybot, tnet = t.x1, t.x2, t.ybot, t.net
        new_x1 = min(x1, tx1[pieces[0]])
        new_x2 = max(x2, tx2[pieces[-1]])
        max_bot = ybot
        for rid in pieces:
            if tybot[rid] > max_bot:
                max_bot = tybot[rid]
            if carries_net:
                net = self._nets.union(net, tnet[rid])
        stop = self._stop
        retired = self._prev_retired.get(layer) if carries_net else None
        for rid in pieces:
            t.kill(rid)
            if retired is not None and t.born[rid] < stop:
                # A consumed strip-above interval stays visible to later
                # same-stop vertical-adjacency checks.
                retired.append((tx1[rid], tx2[rid], tnet[rid]))
            if tybot[rid] < max_bot:
                self._push_pending(
                    layer, tx1[rid], tx2[rid], max_bot, tybot[rid], net
                )
        if ybot < max_bot:
            self._push_pending(layer, x1, x2, max_bot, ybot, net)
        merged = t.alloc(
            new_x1, new_x2, max_bot, NO_NET if net is None else net, stop
        )
        order[lo:hi] = [merged]
        keys[lo:hi] = [new_x1]
        t.version += 1
        self._active_count += 1 - len(pieces)
        self._schedule(layer, merged, max_bot)

    def _schedule(self, layer: str, rid: int, ybot: int) -> None:
        """Register a row's bottom edge on its layer's event heap."""
        self._heap_seq += 1
        heapq.heappush(self._heaps[layer], (-ybot, self._heap_seq, rid))
        self.stats.heap_pushes += 1

    def _push_pending(
        self, layer: str, x1: int, x2: int, top: int, ybot: int, net: int | None
    ) -> None:
        self.stats.splits += 1
        self._pending_seq += 1
        heapq.heappush(
            self._pending, (-top, self._pending_seq, layer, x1, x2, ybot, net)
        )

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
        fresh = stream.labels()
        if len(fresh) > self._labels_taken:
            self._labels.extend(fresh[self._labels_taken :])
            self._labels_taken = len(fresh)
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
                    (Face.LEFT, layer, y_lo, y_hi, t.net[order[i]])
                )
            j = bisect_right(keys, wx2) - 1
            if j >= 0 and t.x2[order[j]] == wx2:
                records.append(
                    (Face.RIGHT, layer, y_lo, y_hi, t.net[order[j]])
                )
        for x1, x2, net in cond:
            if x1 == wx1:
                records.append((Face.LEFT, self._diff, y_lo, y_hi, net))
            if x2 == wx2:
                records.append((Face.RIGHT, self._diff, y_lo, y_hi, net))
        for x1, x2, dev in strip_channels:
            if x1 == wx1:
                records.append((Face.LEFT, CHANNEL, y_lo, y_hi, dev))
            if x2 == wx2:
                records.append((Face.RIGHT, CHANNEL, y_lo, y_hi, dev))

        if y_hi == window.ymax:
            for layer in self._net_layers:
                t = self._tables[layer]
                for rid in t.order:
                    records.append(
                        (Face.TOP, layer, t.x1[rid], t.x2[rid], t.net[rid])
                    )
            for x1, x2, net in cond:
                records.append((Face.TOP, self._diff, x1, x2, net))
            for x1, x2, dev in strip_channels:
                records.append((Face.TOP, CHANNEL, x1, x2, dev))
        if y_lo == window.ymin:
            for layer in self._net_layers:
                t = self._tables[layer]
                for rid in t.order:
                    records.append(
                        (Face.BOTTOM, layer, t.x1[rid], t.x2[rid], t.net[rid])
                    )
            for x1, x2, net in cond:
                records.append((Face.BOTTOM, self._diff, x1, x2, net))
            for x1, x2, dev in strip_channels:
                records.append((Face.BOTTOM, CHANNEL, x1, x2, dev))

    # ------------------------------------------------------------------
    # finalize (step 3)
    # ------------------------------------------------------------------

    def _finalize(self) -> Circuit:
        nets = self._nets
        for label in self._labels:  # below all geometry
            self._unattached.append(label)
        self._labels = []

        # The engine owns the location and device folds and hands back
        # canonical-order columns; names, kept net artwork, and window
        # boundary records are host state, mapped onto rows by root.
        kinds = self.tech.kinds
        net_roots, net_cols, dev_roots, dev_cols = (
            self.strip_engine.finalize(kinds)
        )
        geometry = self._net_geo if self.keep_geometry else {}
        index_of: dict[int, int] = {}
        if self._net_names or geometry or self._boundary:
            index_of = dict(zip(net_roots, range(1, len(net_roots) + 1)))
            attach_net_payload(
                net_cols,
                index_of,
                nets.fold(self._net_names),
                nets.fold(geometry),
            )

        boundary = []
        if self._boundary:
            dev_find = self._devs.find
            row_of = {root: row for row, root in enumerate(dev_roots)}
            for face, layer, lo, hi, ident in self._boundary:
                if layer == CHANNEL:
                    mapped = row_of.get(dev_find(ident))
                    if mapped is not None:
                        dev_cols.boundary.add(mapped)
                else:
                    mapped = index_of.get(nets.find(ident))
                if mapped is not None:
                    boundary.append(
                        BoundaryRecord(face, layer, lo, hi, mapped)
                    )

        warnings = list(self._warnings)
        warnings.extend(malformed_warnings(dev_cols))
        for label in self._unattached:
            warnings.append(
                f"label {label.name!r} at ({label.x}, {label.y}) "
                f"matches no conducting geometry"
            )
        return Circuit(
            boundary=_coalesce_boundary(boundary),
            warnings=warnings,
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


def _coalesce_boundary(records: list[BoundaryRecord]) -> list[BoundaryRecord]:
    """Join per-strip boundary records that continue one another."""
    records.sort(key=lambda r: (r.face.value, r.layer, r.ident, r.lo))
    out: list[BoundaryRecord] = []
    for rec in records:
        prev = out[-1] if out else None
        if (
            prev is not None
            and prev.face == rec.face
            and prev.layer == rec.layer
            and prev.ident == rec.ident
            and prev.hi >= rec.lo
        ):
            if rec.hi > prev.hi:
                out[-1] = BoundaryRecord(
                    prev.face, prev.layer, prev.lo, rec.hi, prev.ident
                )
        else:
            out.append(rec)
    return out
