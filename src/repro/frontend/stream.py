"""ACE's lazy front-end: a top-to-bottom sorted geometry stream.

The paper (section 4): *"the front-end does not expand everything to boxes
before sorting, but instead makes use of the hierarchy present in the CIF
specification of the chip, and recursively expands only those cells that
intersect the current scanline."*

The stream keeps a max-heap keyed on top-edge y.  Entries are either
*unexpanded symbol calls*, keyed by their transformed bounding-box top,
or *cursors* over expanded calls.  A call is expanded one level only
when the scanline reaches its bounding box, so cells entirely below the
scanline stay folded; the complete geometry of the chip is never
instantiated at once.

Expanding a call pushes one cursor for all of its own boxes, not one
entry per box.  Each cell's boxes are oriented once per orientation per
stream, into runs sorted by descending top (a stable sort, so boxes
sharing a top keep drawing order), and its calls share them; a cursor
is the call's offset, its current run and an iterator over the rest,
keyed by the current run's top.  :meth:`GeometryStream.fetch` hands
each cursor at ``y`` its whole run, in the order the cursors were
pushed, which is the order one heap entry per box would pop in.  The
top symbol is expanded once, so its runs are not kept: its cursor lets
go of each run as it hands it out, as a per-box heap lets go of a box.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterator
from dataclasses import dataclass

from ..cif.layout import TOP_SYMBOL, Layout
from ..geometry import Box, Transform
from .instantiate import PlacedLabel, expand_calls, symbol_bboxes

#: A box as the stream hands it out: ``(layer, xmin, ymin, xmax)``, its
#: top being the ``y`` it was fetched at.
Row = tuple[str, int, int, int]

#: The boxes of one symbol sharing a top: ``(-top, rows)``, the rows in
#: drawing order.
Run = tuple[int, list[Row]]

#: A symbol's boxes under one orientation: its runs by descending top.
Runs = list[Run]


@dataclass
class StreamStats:
    """Counters the complexity benchmarks read."""

    boxes_out: int = 0
    calls_expanded: int = 0
    #: most boxes held in open cursors plus calls queued, at any time
    peak_pending: int = 0


def _oriented_runs(
    boxes: list[tuple[str, Box]], orientation: Transform
) -> Runs:
    """``boxes`` under ``orientation`` (no offset), as runs."""
    if not orientation.is_identity:
        apply_box = orientation.apply_box
        boxes = [(layer, apply_box(box)) for layer, box in boxes]
    runs: Runs = []
    top = None
    # Stable: boxes sharing a top keep drawing order.
    for layer, box in sorted(boxes, key=lambda entry: -entry[1].ymax):
        if box.ymax != top:
            top = box.ymax
            rows: list[Row] = []
            runs.append((-top, rows))
        rows.append((layer, box.xmin, box.ymin, box.xmax))
    return runs


def _handed_out(runs: Runs) -> Iterator[Run]:
    """``runs`` in order, each dropped from the list as it is yielded."""
    runs.reverse()
    while runs:
        yield runs.pop()


class GeometryStream:
    """Streams geometry sorted by descending top edge.

    Usage mirrors the back-end loop of Figure 3-2::

        stream = GeometryStream(layout)
        while (y := stream.next_top()) is not None:
            rows = stream.fetch(y)   # all boxes whose top == y
    """

    def __init__(self, layout: Layout) -> None:
        self._layout = layout
        self._bboxes = symbol_bboxes(layout)
        self.stats = StreamStats()
        # Heap entries, compared on (-top, seq) only (seq is unique):
        # a call is (-top, seq, None, number, transform), a cursor
        # (-top, seq, rows of the current run, later runs, dx, dy).
        self._heap: list[tuple] = []
        self._seq = 0
        #: boxes held in open cursors plus calls queued
        self._pending = 0
        #: oriented runs per (cell, orientation), for this stream only:
        #: the difftest shrinker edits symbols in place between sweeps
        self._runs: dict[tuple[int, tuple[int, ...]], tuple[Runs, int]] = {}
        self._labels: list[PlacedLabel] = []
        self._push_call(TOP_SYMBOL, Transform.identity())

    # -- heap plumbing ---------------------------------------------------

    def _hold(self, count: int) -> None:
        self._pending += count
        if self._pending > self.stats.peak_pending:
            self.stats.peak_pending = self._pending

    def _push_call(self, number: int, transform: Transform) -> None:
        bbox = self._bboxes.get(number)
        if bbox is None:
            # Geometry-free subtree: nothing to sort, but it may still
            # carry labels, so expand it immediately (cost is trivial).
            self._expand(number, transform)
            return
        self._seq += 1
        top = transform.apply_box(bbox).ymax
        heapq.heappush(self._heap, (-top, self._seq, None, number, transform))
        self._hold(1)

    def _runs_of(
        self, number: int, transform: Transform
    ) -> tuple[Iterator[Run], int]:
        """The symbol's runs under the transform's orientation, and their
        box count.  A cell's are built once per orientation and kept for
        its other calls; the top symbol's are handed out once and go."""
        if number == TOP_SYMBOL:
            boxes = self._layout.top.fractured_boxes()
            return _handed_out(_oriented_runs(boxes, transform)), len(boxes)
        key = (number, transform.orientation)
        if key not in self._runs:
            boxes = self._layout.symbol(number).fractured_boxes()
            runs = _oriented_runs(boxes, Transform(*key[1]))
            self._runs[key] = (runs, len(boxes))
        runs, count = self._runs[key]
        return iter(runs), count

    def _expand(self, number: int, transform: Transform) -> None:
        """Expand a call one level: one cursor for its boxes, then its
        sub-calls."""
        self.stats.calls_expanded += 1
        runs, count = self._runs_of(number, transform)
        calls, labels = expand_calls(self._layout.symbol(number), transform)
        first = next(runs, None)
        if first is not None:
            self._seq += 1
            dy = transform.dy
            heapq.heappush(
                self._heap,
                (first[0] - dy, self._seq, first[1], runs, transform.dx, dy),
            )
            self._hold(count)
        for child, placed in calls:
            self._push_call(child, placed)
        # After the calls: a geometry-free child expands at once and
        # places its labels first.
        self._labels.extend(labels)

    def _settle(self) -> None:
        """Expand calls until the heap top is a cursor (or empty)."""
        heap = self._heap
        while heap and heap[0][2] is None:
            entry = heapq.heappop(heap)
            self._pending -= 1
            self._expand(entry[3], entry[4])

    # -- public API ----------------------------------------------------

    @property
    def chip_bbox(self) -> Box | None:
        """Bounding box of the whole chip (None for an empty layout)."""
        return self._bboxes.get(TOP_SYMBOL)

    def next_top(self) -> int | None:
        """Top-edge y of the next box, without consuming it."""
        self._settle()
        if not self._heap:
            return None
        return -self._heap[0][0]

    def fetch(self, y: int) -> list[Row]:
        """All boxes whose top edge is exactly ``y``, consumed in order,
        as ``(layer, xmin, ymin, xmax)`` rows."""
        out: list[Row] = []
        heap = self._heap
        while True:
            self._settle()
            if not heap or heap[0][0] != -y:
                break
            _, seq, rows, rest, dx, dy = heap[0]
            if dx or dy:
                out += [
                    (layer, x1 + dx, y1 + dy, x2 + dx)
                    for layer, x1, y1, x2 in rows
                ]
            else:
                out += rows
            self._pending -= len(rows)
            run = next(rest, None)
            if run is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, (run[0] - dy, seq, run[1], rest, dx, dy))
        self.stats.boxes_out += len(out)
        return out

    def labels(self) -> list[PlacedLabel]:
        """Labels placed so far.

        Labels are attached lazily as their enclosing cells expand; the
        extractor queries this after draining the stream, by which point
        every cell that contains geometry has been expanded.  Cells that
        contain *only* labels are expanded up front so nothing is lost.
        """
        self._settle()
        return list(self._labels)

    def drain(self) -> list[tuple[str, Box]]:
        """Consume the rest of the stream as ``(layer, Box)`` pairs
        (testing convenience)."""
        out: list[tuple[str, Box]] = []
        while (y := self.next_top()) is not None:
            out.extend(
                (layer, Box(x1, ybot, x2, y))
                for layer, x1, ybot, x2 in self.fetch(y)
            )
        return out
