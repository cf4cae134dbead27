"""Unit tests for banded streaming's front half.

:func:`plan_bands` picks the floors; the scanline host then reads the
raw :class:`GeometryStream` itself and pauses at each floor.  The
contract under test: pausing at any floor list leaves the stream
traffic the host issues -- every ``next_top``, ``fetch`` and
``labels()`` call, in order -- identical to one unbanded sweep, because
byte-identical wirelists are downstream of exactly that equivalence.
"""

from __future__ import annotations

import pytest

from repro.core.scanline import ScanlineEngine
from repro.frontend import GeometryStream
from repro.frontend.bands import plan_bands
from repro.tech import NMOS
from tests.golden.cases import GOLDEN_CASES

from .harness import chip_height


class RecordingStream:
    """A geometry stream that records the traffic the host issues."""

    def __init__(self, layout) -> None:
        self._stream = GeometryStream(layout)
        self.chip_bbox = self._stream.chip_bbox
        self.trace: list = []

    def next_top(self):
        t = self._stream.next_top()
        self.trace.append(("peek", t))
        return t

    def fetch(self, y):
        boxes = self._stream.fetch(y)
        self.trace.append(("fetch", y, len(boxes)))
        return boxes

    def labels(self):
        labels = self._stream.labels()
        self.trace.append(("labels", [lb.name for lb in labels]))
        return labels


def sweep_trace(layout, **plan_kwargs) -> list:
    """Sweep band by band, as stream_extract does; return the traffic."""
    stream = RecordingStream(layout)
    bbox = stream.chip_bbox
    floors = plan_bands(
        bbox.ymax if bbox else None,
        bbox.ymin if bbox else None,
        **plan_kwargs,
    )
    scan = ScanlineEngine(NMOS(), engine="python")
    for floor in floors:
        if not scan.advance(stream, floor):
            break
    return stream.trace


class TestPlanBands:
    def test_no_height_is_single_band(self):
        assert plan_bands(100, 0) == [None]

    def test_uniform_floors_descend_to_bottom(self):
        assert plan_bands(100, 0, band_height=30) == [70, 40, 10, None]

    def test_exact_division_has_no_empty_tail(self):
        # A floor at the chip bottom would make an empty final band;
        # the planner stops strictly above it.
        assert plan_bands(90, 0, band_height=30) == [60, 30, None]

    def test_explicit_boundaries_sorted_and_deduped(self):
        assert plan_bands(None, None, boundaries=[10, 40, 10]) == [
            40,
            10,
            None,
        ]

    def test_nonpositive_height_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            plan_bands(100, 0, band_height=0)

    def test_empty_chip_is_single_band(self):
        assert plan_bands(None, None, band_height=10) == [None]


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_feed_trace_matches_raw_stream(case):
    layout = GOLDEN_CASES[case]()
    raw = sweep_trace(layout)
    height = chip_height(layout)
    for plan in ({"band_height": max(1, height // 7)}, {"band_height": 1}):
        banded = sweep_trace(layout, **plan)
        assert banded == raw, f"{case}: trace diverged under plan {plan}"
