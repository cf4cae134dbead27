"""One cursor per call: the stream hands out a call's boxes from oriented
per-symbol runs, in exactly the order one heap entry per box would.

:class:`PerBoxStream` is that one-entry-per-box heap, kept here as the
reference: every placed box is pushed on its own, keyed by its top and
a push counter, and a call is expanded when it surfaces.  Fuzzed
hierarchies must come out of both streams stop for stop, row for row,
with the same expansion count and the same peak of pending entries.
"""

from __future__ import annotations

import heapq
import random

import pytest

from repro.cif import TOP_SYMBOL, Label, Layout
from repro.core import extract_report
from repro.frontend import GeometryStream, expand, symbol_bboxes
from repro.geometry import Box, Polygon, Transform
from repro.workloads import CHIP_SPECS, build_chip

#: The eight manhattan orientations.
ORIENTATIONS = [
    Transform(a, b, c, d)
    for a, b, c, d in (
        (1, 0, 0, 1),
        (0, 1, -1, 0),
        (-1, 0, 0, -1),
        (0, -1, 1, 0),
        (-1, 0, 0, 1),
        (1, 0, 0, -1),
        (0, 1, 1, 0),
        (0, -1, -1, 0),
    )
]


class PerBoxStream:
    """The stream with one heap entry per placed box."""

    def __init__(self, layout: Layout) -> None:
        self.layout = layout
        self.bboxes = symbol_bboxes(layout)
        self.heap: list = []
        self.seq = 0
        self.calls_expanded = 0
        self.peak_pending = 0
        self.placed_labels: list = []
        self.push_call(TOP_SYMBOL, Transform.identity())

    def push(self, top: int, entry: tuple) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (-top, self.seq, entry))
        self.peak_pending = max(self.peak_pending, len(self.heap))

    def push_call(self, number: int, transform: Transform) -> None:
        bbox = self.bboxes.get(number)
        if bbox is None:
            self.expand(number, transform)
        else:
            self.push(transform.apply_box(bbox).ymax, (number, transform))

    def expand(self, number: int, transform: Transform) -> None:
        self.calls_expanded += 1
        boxes, calls, labels = expand(self.layout.symbol(number), transform)
        for layer, box in boxes:
            self.push(box.ymax, (layer, box.xmin, box.ymin, box.xmax))
        for child, placed in calls:
            self.push_call(child, placed)
        self.placed_labels.extend(labels)

    def settle(self) -> None:
        while self.heap and len(self.heap[0][2]) == 2:
            self.expand(*heapq.heappop(self.heap)[2])

    def next_top(self) -> "int | None":
        self.settle()
        return -self.heap[0][0] if self.heap else None

    def fetch(self, y: int) -> list:
        out = []
        while True:
            self.settle()
            if not self.heap or -self.heap[0][0] != y:
                return out
            out.append(heapq.heappop(self.heap)[2])

    def labels(self) -> list:
        self.settle()
        return list(self.placed_labels)


def _random_box(rng: random.Random, span: int = 40) -> Box:
    x, y = rng.randrange(-span, span), rng.randrange(-span, span)
    return Box(x, y, x + rng.randrange(1, 12), y + rng.randrange(1, 12))


def random_hierarchy(seed: int) -> Layout:
    """Nested cells under all eight orientations, on a coarse grid so
    that the boxes of different calls share tops, with label-only cells,
    polygons (manhattan and diagonal) and wires."""
    rng = random.Random(seed)
    layout = Layout()
    layers = ("NM", "NP", "ND", "NC")
    numbers: list[int] = []
    for number in range(1, rng.randrange(3, 8)):
        cell = layout.define(number)
        if rng.random() < 0.2:
            # Label-only: expanded at once, never pushed.
            cell.add_label(Label(f"L{number}", rng.randrange(9), 0, "NM"))
        else:
            for _ in range(rng.randrange(0, 6)):
                cell.add_box(rng.choice(layers), _random_box(rng))
            if rng.random() < 0.4:
                x, y = rng.randrange(-20, 20), rng.randrange(-20, 20)
                h = rng.randrange(5, 40)
                points = (
                    ((x, y), (x + 30, y), (x, y + h))
                    if rng.random() < 0.5
                    else (
                        (x, y), (x + 30, y), (x + 30, y + 8),
                        (x + 9, y + 8), (x + 9, y + h), (x, y + h),
                    )
                )
                cell.add_polygon(rng.choice(layers), Polygon(points))
            if rng.random() < 0.3:
                x, y = rng.randrange(-20, 20), rng.randrange(-20, 20)
                cell.add_wire(
                    rng.choice(layers),
                    rng.choice((2, 4)),
                    ((x, y), (x + 20, y), (x + 20, y + 30), (x + 45, y + 55)),
                )
            if rng.random() < 0.5:
                cell.add_label(Label(f"N{number}", 0, 0, rng.choice(layers)))
        for _ in range(rng.randrange(0, 4) if numbers else 0):
            cell.add_call(rng.choice(numbers), _random_transform(rng))
        numbers.append(number)
    for _ in range(rng.randrange(1, 6)):
        layout.top.add_call(rng.choice(numbers), _random_transform(rng))
    # Two calls of one cell, 100 apart in x: their boxes share every top.
    bboxes = symbol_bboxes(layout)
    drawn = [n for n in numbers if bboxes[n] is not None]
    if drawn:
        twin, dy = rng.choice(drawn), rng.randrange(-50, 50, 10)
        layout.top.add_call(twin, Transform.translation(200, dy))
        layout.top.add_call(twin, Transform.translation(300, dy))
    for _ in range(rng.randrange(0, 3)):
        layout.top.add_box(rng.choice(layers), _random_box(rng, 80))
    return layout


def _random_transform(rng: random.Random) -> Transform:
    orientation = rng.choice(ORIENTATIONS)
    shift = Transform.translation(
        rng.randrange(-100, 100, 10), rng.randrange(-100, 100, 10)
    )
    return orientation.then(shift)


@pytest.mark.parametrize("seed", range(120))
def test_cursors_match_the_per_box_heap(seed):
    layout = random_hierarchy(seed)
    cursors, reference = GeometryStream(layout), PerBoxStream(layout)
    while True:
        y = cursors.next_top()
        assert y == reference.next_top()
        if y is None:
            break
        assert cursors.fetch(y) == reference.fetch(y)
        assert cursors.stats.calls_expanded == reference.calls_expanded
        assert cursors.stats.peak_pending == reference.peak_pending
    assert cursors.labels() == reference.labels()
    assert cursors.stats.calls_expanded == reference.calls_expanded
    assert cursors.stats.peak_pending == reference.peak_pending


def test_fuzzed_hierarchies_cover_the_cases():
    """The fuzzer above reaches every case it is meant to cover."""
    seen = set()
    for seed in range(120):
        layout = random_hierarchy(seed)
        symbols = list(layout.symbols.values())
        seen.update(
            call.transform.orientation
            for symbol in (layout.top, *symbols)
            for call in symbol.calls
        )
        if any(s.labels and not s.shape_count() for s in symbols):
            seen.add("label-only")
        if any(s.polygons for s in symbols):
            seen.add("polygon")
        if any(s.wires for s in symbols):
            seen.add("wire")
        stream = GeometryStream(layout)
        while (y := stream.next_top()) is not None:
            rows = stream.fetch(y)
            shifted = {(lay, x1 + 100, y1, x2 + 100) for lay, x1, y1, x2 in rows}
            if shifted.intersection(rows):
                seen.add("shared top")
    assert {t.orientation for t in ORIENTATIONS} <= seen
    assert {"label-only", "polygon", "wire", "shared top"} <= seen


def test_flat_sweep_transforms_calls_not_boxes(monkeypatch):
    """A flat sweep of the suite calls ``Transform.apply_box`` to key each
    pushed call by its bounding-box top, in :func:`symbol_bboxes`, and to
    orient each cell's boxes once per orientation, never once per placed
    box: well under one call per box out, where one heap entry per box
    took more than one."""
    applied = [0]
    apply_box = Transform.apply_box

    def counted(self, box):
        applied[0] += 1
        return apply_box(self, box)

    monkeypatch.setattr(Transform, "apply_box", counted)
    for spec in CHIP_SPECS:
        layout = build_chip(spec.name, 1 / 32)
        applied[0] = 0
        report = extract_report(layout, engine="python")
        assert applied[0] < report.frontend_stats.boxes_out / 2, spec.name
