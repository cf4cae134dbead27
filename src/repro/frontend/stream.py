"""ACE's lazy front-end: a top-to-bottom sorted geometry stream.

The paper (section 4): *"the front-end does not expand everything to boxes
before sorting, but instead makes use of the hierarchy present in the CIF
specification of the chip, and recursively expands only those cells that
intersect the current scanline."*

The stream keeps a max-heap keyed on top-edge y.  Entries are either
primitive boxes or *unexpanded symbol calls* keyed by their transformed
bounding-box top.  A call is expanded one level only when the scanline
reaches its bounding box, so cells entirely below the scanline stay
folded; the complete geometry of the chip is never instantiated at once.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..cif.layout import TOP_SYMBOL, Layout
from ..geometry import Box, Transform
from .instantiate import PlacedLabel, expand, symbol_bboxes

_BOX = 0
_CALL = 1


@dataclass
class StreamStats:
    """Counters the complexity benchmarks read."""

    boxes_out: int = 0
    calls_expanded: int = 0
    peak_pending: int = 0


class GeometryStream:
    """Streams ``(layer, Box)`` geometry sorted by descending top edge.

    Usage mirrors the back-end loop of Figure 3-2::

        stream = GeometryStream(layout)
        while (y := stream.next_top()) is not None:
            new_boxes = stream.fetch(y)   # all boxes whose top == y
    """

    def __init__(self, layout: Layout) -> None:
        self._layout = layout
        self._bboxes = symbol_bboxes(layout)
        self.stats = StreamStats()
        # Heap entries: (-top_y, seq, kind, payload); seq breaks ties
        # deterministically and keeps payloads out of comparisons.
        self._heap: list[tuple[int, int, int, object]] = []
        self._seq = 0
        self._labels: list[PlacedLabel] = []
        self._push_call(TOP_SYMBOL, Transform.identity())

    # -- heap plumbing ---------------------------------------------------

    def _push(self, top: int, kind: int, payload: object) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (-top, self._seq, kind, payload))
        if len(self._heap) > self.stats.peak_pending:
            self.stats.peak_pending = len(self._heap)

    def _push_call(self, number: int, transform: Transform) -> None:
        bbox = self._bboxes.get(number)
        if bbox is None:
            # Geometry-free subtree: nothing to sort, but it may still
            # carry labels, so expand it immediately (cost is trivial).
            self._expand(number, transform)
            return
        top = transform.apply_box(bbox).ymax
        self._push(top, _CALL, (number, transform))

    def _expand(self, number: int, transform: Transform) -> None:
        """Expand a call one level, pushing its boxes and sub-calls."""
        self.stats.calls_expanded += 1
        boxes, calls, labels = expand(self._layout.symbol(number), transform)
        for entry in boxes:
            self._push(entry[1].ymax, _BOX, entry)
        for child, placed in calls:
            self._push_call(child, placed)
        # After the calls: a geometry-free child expands at once and
        # places its labels first.
        self._labels.extend(labels)

    def _settle(self) -> None:
        """Expand calls until the heap top is a primitive box (or empty)."""
        while self._heap and self._heap[0][2] == _CALL:
            _, _, _, payload = heapq.heappop(self._heap)
            number, transform = payload  # type: ignore[misc]
            self._expand(number, transform)

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

    def fetch(self, y: int) -> list[tuple[str, Box]]:
        """All boxes whose top edge is exactly ``y``, consumed in order."""
        out: list[tuple[str, Box]] = []
        while True:
            self._settle()
            if not self._heap or -self._heap[0][0] != y:
                break
            _, _, _, payload = heapq.heappop(self._heap)
            out.append(payload)  # type: ignore[arg-type]
            self.stats.boxes_out += 1
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
        """Consume the rest of the stream (testing convenience)."""
        out: list[tuple[str, Box]] = []
        while (y := self.next_top()) is not None:
            out.extend(self.fetch(y))
        return out
