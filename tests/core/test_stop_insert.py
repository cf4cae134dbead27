"""Insertion by stop: the host enters a stop's rows with one call and
schedules one bucket per (layer, bottom), leaving exactly the state that
entering and scheduling each row on its own leaves.

:class:`PerRowHost` is that per-row host, kept here as the reference.
Every row is merged by its own ``_insert`` call and scheduled by its own
``_schedule`` call as a ``(-ybot, seq, row id)`` heap entry.  An entry
consumed by a merge stays queued and is discarded when it surfaces, and
the vertical-adjacency rule reads a per-row ``born`` stop stamp.  Both
hosts sweep the same layout in lockstep.  After every stop they must
hold the same live rows per layer, ``(x1, x2, ybot, find(net))`` in x
order, and the same pending buffer; at the end, the same counters and
the same wirelist and warnings, or for HEXT's window the same window
result (records, boundary spans, skipped layers and labels).
"""

from __future__ import annotations

import heapq
import random
import sys
from array import array
from bisect import bisect_left, bisect_right

import pytest

from repro.core import extract
from repro.core.columnar import NO_NET
from repro.core.scanline import ScanlineEngine
from repro.core.stripengine import numpy_available
from repro.difftest.generator import generate_layout, iteration_seed, retarget_case
from repro.frontend.stream import GeometryStream
from repro.geometry import Box
from repro.tech import CMOS, NMOS
from repro.wirelist import to_wirelist, write_wirelist
from repro.workloads import CHIP_SPECS, build_chip

ENGINES = ("python", "numpy") if numpy_available() else ("python",)

#: The modes a host runs in: plain, with net artwork, and HEXT's window.
MODES = ("plain", "geometry", "window")

SEED = 1983


class PerRowHost(ScanlineEngine):
    """The scanline host that enters and schedules one row at a time."""

    def __init__(self, tech, **options) -> None:
        super().__init__(tech, **options)
        #: per-layer heaps of (-ybot, seq, row id), one entry per row
        self._row_heaps: dict[str, list[tuple[int, int, int]]] = {
            name: [] for name in self._tables
        }
        #: per-layer stop stamp of each row
        self._born = {name: array("q") for name in self._tables}
        self._heap_seq = 0
        self._stop = 0

    def _next_stop(self, stream, y):
        stats = self.stats
        best = stream.next_top()
        if self._pending:
            top = -self._pending[0][0]
            if best is None or top > best:
                best = top
        for layer, heap in self._row_heaps.items():
            live = self._tables[layer].live
            while heap:
                stats.intervals_scanned += 1
                neg_bot, _, rid = heap[0]
                if live[rid]:
                    if best is None or -neg_bot > best:
                        best = -neg_bot
                    break
                heapq.heappop(heap)
                stats.heap_pops += 1
                stats.lazy_discards += 1
        return best

    def _expire(self, y):
        self._stop += 1
        stats = self.stats
        for retired in self._prev_retired.values():
            retired.clear()
        for layer, heap in self._row_heaps.items():
            t = self._tables[layer]
            retired_here = self._prev_retired.get(layer)
            while heap:
                stats.intervals_scanned += 1
                neg_bot, _, rid = heap[0]
                if t.live[rid] and -neg_bot != y:
                    break
                heapq.heappop(heap)
                stats.heap_pops += 1
                if not t.live[rid]:
                    stats.lazy_discards += 1
                    continue
                stats.expired += 1
                t.live[rid] = 0
                i = bisect_left(t.keys, t.x1[rid])
                del t.order[i]
                del t.keys[i]
                t.version += 1
                self._active_count -= 1
                if retired_here is not None:
                    retired_here.append((t.x1[rid], t.x2[rid], t.net[rid]))

    def _enter(self, y, rows):
        pending = self._pending
        while pending and -pending[0][0] == y:
            _, _, layer, x1, x2, ybot, net = heapq.heappop(pending)
            self._insert(layer, x1, x2, ybot, net, None)
        for layer, x1, ybot, x2 in rows:
            self._insert(layer, x1, x2, ybot, None, y)

    def _insert(self, layer, x1, x2, ybot, net, top):
        t = self._tables.get(layer)
        if t is None:
            self._skip_layer(layer)
            return
        keys, order, born = t.keys, t.order, self._born[layer]
        carries_net = layer in self._net_layers
        if carries_net:
            if net is None:
                net = self._nets.make()
                self.stats.nets_created += 1
            if top is not None:
                cands = [
                    (px1, pnet)
                    for px1, px2, pnet in self._prev_retired[layer]
                    if px2 > x1 and px1 < x2
                ]
                i = bisect_left(keys, x1)
                if i > 0 and t.x2[order[i - 1]] > x1:
                    i -= 1
                while i < len(order):
                    rid = order[i]
                    if t.x1[rid] >= x2:
                        break
                    if born[rid] < self._stop and t.x2[rid] > x1:
                        cands.append((t.x1[rid], t.net[rid]))
                    i += 1
                for _, pnet in sorted(cands):
                    net = self._nets.union(net, pnet)
                self.strip_engine.touch_nets([(net, top, -x1)])
                if self.keep_geometry:
                    self._net_geo.setdefault(net, []).append(
                        (layer, Box(x1, ybot, x2, top))
                    )
        else:
            net = None

        lo = bisect_left(keys, x1)
        if lo > 0 and t.x2[order[lo - 1]] >= x1:
            lo -= 1
        hi = bisect_right(keys, x2, lo=lo)
        if lo == hi:
            rid = self._alloc(layer, x1, x2, ybot, net)
            order.insert(lo, rid)
            keys.insert(lo, x1)
            t.version += 1
            self._active_count += 1
            self._schedule(layer, rid, ybot)
            return

        self.stats.merges += 1
        pieces = order[lo:hi]
        new_x1 = min(x1, t.x1[pieces[0]])
        new_x2 = max(x2, t.x2[pieces[-1]])
        max_bot = max([ybot] + [t.ybot[rid] for rid in pieces])
        if carries_net:
            for rid in pieces:
                net = self._nets.union(net, t.net[rid])
        for rid in pieces:
            t.live[rid] = 0
            if carries_net and born[rid] < self._stop:
                self._prev_retired[layer].append(
                    (t.x1[rid], t.x2[rid], t.net[rid])
                )
            if t.ybot[rid] < max_bot:
                self._push_pending(
                    layer, t.x1[rid], t.x2[rid], max_bot, t.ybot[rid], net
                )
        if ybot < max_bot:
            self._push_pending(layer, x1, x2, max_bot, ybot, net)
        merged = self._alloc(layer, new_x1, new_x2, max_bot, net)
        order[lo:hi] = [merged]
        keys[lo:hi] = [new_x1]
        t.version += 1
        self._active_count += 1 - len(pieces)
        self._schedule(layer, merged, max_bot)

    def _alloc(self, layer, x1, x2, ybot, net):
        t = self._tables[layer]
        rid = len(t.x1)
        t.x1.append(x1)
        t.x2.append(x2)
        t.ybot.append(ybot)
        t.net.append(NO_NET if net is None else net)
        t.live.append(1)
        self._born[layer].append(self._stop)
        return rid

    def _schedule(self, layer, rid, ybot):
        self._heap_seq += 1
        heapq.heappush(self._row_heaps[layer], (-ybot, self._heap_seq, rid))
        self.stats.heap_pushes += 1

    def _push_pending(self, layer, x1, x2, top, ybot, net):
        self.stats.splits += 1
        self._pending_seq += 1
        heapq.heappush(
            self._pending, (-top, self._pending_seq, layer, x1, x2, ybot, net)
        )


def sweep_state(host: ScanlineEngine):
    """Live rows per layer and the pending buffer, nets as roots."""
    find = host._nets.find

    def root(net):
        return net if net is None or net == NO_NET else find(net)

    tables = {}
    for layer, t in host._tables.items():
        assert t.keys == [t.x1[rid] for rid in t.order], layer
        if not isinstance(host, PerRowHost) and host._heaps[layer]:
            # The top bucket holds a live row, so its bottom is the
            # layer's next expiry with no dead bucket to drop first.
            top = -host._heaps[layer][0]
            assert any(t.live[rid] for rid in host._buckets[layer][top])
        tables[layer] = [
            (t.x1[rid], t.x2[rid], t.ybot[rid], root(t.net[rid]))
            for rid in t.order
        ]
    pending = sorted(
        (top, seq, layer, x1, x2, ybot, root(net))
        for top, seq, layer, x1, x2, ybot, net in host._pending
    )
    return tables, pending


def lockstep(layout, tech, engine: str, mode: str) -> int:
    """Sweep ``layout`` on both hosts, comparing them after every stop;
    returns the number of stops."""
    options: dict = {"engine": engine}
    if mode == "geometry":
        options["keep_geometry"] = True
    elif mode == "window":
        options["window"] = GeometryStream(layout).chip_bbox
    hosts = (ScanlineEngine(tech, **options), PerRowHost(tech, **options))
    streams = (GeometryStream(layout), GeometryStream(layout))
    for host, stream in zip(hosts, streams):
        host.advance(stream, sys.maxsize)  # prime only
    stops = 0
    while True:
        y = hosts[0]._y
        assert y == hosts[1]._y, f"stop {stops}"
        if y is None:
            break
        for host, stream in zip(hosts, streams):
            host.advance(stream, y - 1)
        stops += 1
        assert sweep_state(hosts[0]) == sweep_state(hosts[1]), f"stop {y}"
    if mode == "window":
        windows = [host.finish_window() for host in hosts]
        assert vars(hosts[0].stats) == vars(hosts[1].stats)
        assert windows[0] == windows[1]
        return stops
    circuits = [host.finish() for host in hosts]
    assert vars(hosts[0].stats) == vars(hosts[1].stats)
    assert circuits[0].warnings == circuits[1].warnings
    texts = [
        write_wirelist(to_wirelist(circuit, name="chip", tech=tech))
        for circuit in circuits
    ]
    assert texts[0] == texts[1]
    return stops


#: Fuzz cases per mode on the python engine; the numpy engine, which
#: shares the host, takes a quarter.  Plain sweeps take many: a
#: union-order slip that changes no net's membership shows only where
#: union-by-size breaks a tie, which few cases reach.
CASES = {"plain": 400, "geometry": 60, "window": 60}


def cases(engine: str, mode: str) -> range:
    return range(CASES[mode] if engine == "python" else CASES[mode] // 4)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", MODES)
def test_fuzzed_nmos_layouts(engine, mode):
    tech = NMOS()
    for index in cases(engine, mode):
        case = generate_layout(iteration_seed(SEED, index))
        assert lockstep(case.layout, tech, engine, mode), case.description


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", MODES)
def test_fuzzed_cmos_layouts(engine, mode):
    tech = CMOS()
    for index in cases(engine, mode)[::4]:
        case = retarget_case(generate_layout(iteration_seed(SEED, index)), tech)
        assert lockstep(case.layout, tech, engine, mode), case.description


def test_untracked_layers_are_skipped():
    """Rows on the ignored glass layer and on a layer no deck declares
    enter no table: both hosts skip them alike, warn once about the
    undeclared one, and schedule only the tracked rows."""
    tech = NMOS()
    for index in range(20):
        layout = generate_layout(iteration_seed(SEED, index)).layout
        rng = random.Random(index)
        lam = tech.lambda_
        for layer in ("NG", "XX", "NG", "XX"):
            x, y = rng.randrange(40) * lam, rng.randrange(40) * lam
            layout.top.add_box(layer, Box(x, y, x + 6 * lam, y + 4 * lam))
        lockstep(layout, tech, "python", "plain")
    assert "ignoring geometry on unknown layer XX" in extract(layout, tech).warnings


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("chip", [spec.name for spec in CHIP_SPECS])
def test_suite_chips(engine, chip):
    lockstep(build_chip(chip, 1 / 32), NMOS(), engine, "plain")


@pytest.mark.parametrize("mode", ("geometry", "window"))
def test_suite_chip_modes(mode):
    lockstep(build_chip("schip2", 1 / 32), NMOS(), ENGINES[-1], mode)


def test_the_suite_exercises_every_path():
    """The suite at 1/32 reaches the paths the comparison is meant to
    cover: merges of one piece and of several, continuation splits,
    buckets holding rows consumed by merges when they retire, and
    expiries of one row and of several."""
    seen = set()
    for spec in CHIP_SPECS:
        host = ScanlineEngine(NMOS(), engine="python")

        def expire(y, host=host, inner=host._expire):
            for layer, buckets in host._buckets.items():
                live = host._tables[layer].live
                states = [live[rid] for rid in buckets.get(y, ())]
                if states.count(1) == 1:
                    seen.add("one expiry")
                elif states.count(1) > 1:
                    seen.add("several expiries")
                if 0 in states:
                    seen.add("dead row in a retiring bucket")
            inner(y)

        host._expire = expire
        host.run(GeometryStream(build_chip(spec.name, 1 / 32)))
        stats = host.stats
        if stats.merges:
            seen.add("merge")
        if stats.lazy_discards > stats.merges:
            seen.add("merge of several")
        if stats.splits:
            seen.add("split")
    assert seen == {
        "merge",
        "merge of several",
        "split",
        "dead row in a retiring bucket",
        "one expiry",
        "several expiries",
    }
