"""Each shape is fractured once, by every reader of the layout together.

Fracturing is a pure function of a shape, so :meth:`Symbol.fractured_boxes`
memoizes it by the shape's value.  A symbol called many times, read by
every consumer of the front-end in turn, still runs the fracture kernel
once per polygon and once per wire.
"""

from __future__ import annotations

from collections import Counter

import pytest

import repro.cif.layout as cif_layout
from repro.cif import Layout
from repro.core import extract
from repro.diagnostics import SourceIndex
from repro.frontend import GeometryStream, instantiate
from repro.geometry import Box, Polygon, Transform
from repro.hext import hext_extract
from repro.hext.windows import WindowPlanner
from repro.streaming import stream_extract

CALLS = 8


def _cell_row() -> Layout:
    """One polygon and one diagonal wire in a cell called 8 times."""
    layout = Layout()
    cell = layout.define(1)
    cell.add_polygon("NM", Polygon(((0, 0), (1337, 0), (0, 1013))))
    cell.add_wire("NP", 200, ((100, 1500), (877, 2277)))
    for i in range(CALLS):
        layout.top.add_call(1, Transform.translation(i * 4000, 0))
    return layout


@pytest.fixture
def kernel_runs(monkeypatch):
    """Count the fracture kernel's runs, by kernel, from an empty memo
    (the memo lives as long as the process, so earlier tests fill it)."""
    cif_layout._polygon_boxes.cache_clear()
    cif_layout._wire_boxes.cache_clear()
    runs: Counter = Counter()
    for name in ("fracture_polygon", "fracture_wire"):
        kernel = getattr(cif_layout, name)

        def counted(*args, _kernel=kernel, _name=name, **kwargs):
            runs[_name] += 1
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(cif_layout, name, counted)
    return runs


def test_every_reader_shares_one_fracture_per_shape(kernel_runs):
    layout = _cell_row()
    circuit = extract(layout)
    height = GeometryStream(layout).chip_bbox.height
    streamed = stream_extract(layout, band_height=max(1, height // 3))
    hext_extract(layout)
    boxes, _ = instantiate(layout)
    SourceIndex(layout).locate("NM", (0, 0, 1, 1))
    assert kernel_runs == {"fracture_polygon": 1, "fracture_wire": 1}
    assert streamed.nets == len(circuit.nets)
    # Every call placed the same pieces.
    pieces = len(layout.symbol(1).fractured_boxes())
    assert pieces > 2
    assert len(boxes) == CALLS * pieces


def test_expansion_is_the_same_everywhere():
    """The stream, the window planner and instantiate place the same
    boxes for each call."""
    layout = _cell_row()
    boxes, _ = instantiate(layout)
    assert Counter(GeometryStream(layout).drain()) == Counter(boxes)
    planner = WindowPlanner(layout)
    top = planner.top_content()
    planned = []
    for number, transform in top.instances:
        geometry, calls, _ = planner.expand_one(number, transform)
        assert not calls
        planned.extend(geometry)
    assert Counter(planned) == Counter(boxes)


def test_fracture_memo_follows_edits():
    """The memo is keyed by shape value, so editing a symbol's shape
    lists (as the difftest shrinker does) never serves stale boxes."""
    layout = _cell_row()
    cell = layout.symbol(1)
    before = cell.fractured_boxes()
    del cell.polygons[:]
    after = cell.fractured_boxes()
    assert {layer for layer, _ in before} == {"NM", "NP"}
    assert {layer for layer, _ in after} == {"NP"}
    cell.add_box("ND", Box(0, 0, 10, 10))
    assert cell.fractured_boxes()[0] == ("ND", Box(0, 0, 10, 10))
