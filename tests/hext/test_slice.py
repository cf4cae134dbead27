"""Window slicing: the cell-owner index against all-windows clipping.

``WindowPlanner._slice`` clips each box only against the sub-windows
owning the grid cells it overlaps.  :func:`reference_slice` is the
slicing it replaced, which clips every box against every sub-window
and gives each label to the first sub-window containing it; the two
must make the same sub-windows, in the same order, with the same
geometry and labels in the same order.
"""

from __future__ import annotations

import random
from bisect import bisect_left

import pytest

from repro.frontend.instantiate import PlacedLabel
from repro.geometry import Box, Transform
from repro.hext import Content, HextStats, WindowPlanner, plan_windows
from repro.workloads import build_chip
from repro.workloads.chips import CHIP_SPECS


def reference_slice(region, placed, geometry, labels) -> list[Content]:
    """Slice by clipping every box against every sub-window."""
    windows = [
        Content(bbox, instances=[(number, transform)])
        for bbox, number, transform in placed
    ]
    xs = sorted(
        {region.xmin, region.xmax}
        | {b.xmin for b, _, _ in placed}
        | {b.xmax for b, _, _ in placed}
    )
    ys = sorted(
        {region.ymin, region.ymax}
        | {b.ymin for b, _, _ in placed}
        | {b.ymax for b, _, _ in placed}
    )
    covered = set()
    for box, _, _ in placed:
        for i in range(bisect_left(xs, box.xmin), bisect_left(xs, box.xmax)):
            for j in range(bisect_left(ys, box.ymin), bisect_left(ys, box.ymax)):
                covered.add((i, j))
    for i, (x1, x2) in enumerate(zip(xs, xs[1:])):
        for j, (y1, y2) in enumerate(zip(ys, ys[1:])):
            if (i, j) not in covered:
                windows.append(Content(Box(x1, y1, x2, y2)))
    for layer, box in geometry:
        for window in windows:
            clipped = box.clipped(window.region)
            if clipped is not None:
                window.geometry.append((layer, clipped))
    for label in labels:
        for window in windows:
            if window.region.contains_point(label.x, label.y):
                window.labels.append(label)
                break
    return [w for w in windows if not w.is_empty()]


class ReferencePlanner(WindowPlanner):
    _slice = staticmethod(reference_slice)


def _fuzzed_window(rng: random.Random):
    """A window's slicing inputs drawn on a coarse grid, so instance
    boxes abut, and boxes and labels land on cut lines and corners."""
    step = rng.choice((5, 10))
    ticks = [step * k for k in range(11)]
    region = Box(0, 0, ticks[-1], ticks[-1])

    def span(lo=0, hi=len(ticks) - 1):
        a, b = sorted(rng.sample(range(lo, hi + 1), 2))
        return ticks[a], ticks[b]

    placed = []
    for number in range(rng.randrange(6)):
        (x1, x2), (y1, y2) = span(), span()
        box = Box(x1, y1, x2, y2)
        if not any(box.overlaps(other) for other, _, _ in placed):
            placed.append((box, number, Transform.translation(x1, y1)))

    def coord():
        # On a cut line half the time, between cuts otherwise.
        value = rng.choice(ticks)
        return value if rng.random() < 0.5 else value + rng.randrange(1, step)

    geometry = []
    for _ in range(rng.randrange(12)):
        if rng.random() < 0.3:
            # Spans several cells, sometimes past the region.
            (x1, x2), (y1, y2) = span(), span()
            x1 -= rng.choice((0, 0, step))
            y2 += rng.choice((0, 0, step))
        else:
            x1, y1 = coord(), coord()
            x2 = x1 + rng.randrange(1, 3 * step)
            y2 = y1 + rng.randrange(1, 3 * step)
        geometry.append((rng.choice(("ND", "NP", "NM")), Box(x1, y1, x2, y2)))

    labels = [
        PlacedLabel(f"n{k}", coord() - rng.choice((0, 0, 0, 2 * step)), coord())
        for k in range(rng.randrange(5))
    ]
    return region, placed, geometry, labels


def test_index_matches_all_windows_clipping():
    for seed in range(300):
        window = _fuzzed_window(random.Random(seed))
        assert WindowPlanner._slice(*window) == reference_slice(*window), seed


def test_shared_edges_corners_and_spans():
    """Abutting instance boxes, a box over three filler cells, a box on
    a cut line, and labels on a corner shared by four sub-windows."""
    region = Box(0, 0, 30, 20)
    placed = [
        (Box(0, 0, 10, 10), 1, Transform.identity()),
        (Box(10, 0, 20, 10), 2, Transform.translation(10, 0)),
    ]
    geometry = [
        ("NM", Box(0, 10, 30, 20)),  # the whole top row of fillers
        ("ND", Box(5, 5, 25, 15)),  # both instances and three fillers
        ("NP", Box(20, 0, 30, 10)),  # exactly one filler, edges on cuts
    ]
    labels = [PlacedLabel("corner", 10, 10), PlacedLabel("edge", 30, 5)]
    windows = WindowPlanner._slice(region, placed, geometry, labels)
    assert windows == reference_slice(region, placed, geometry, labels)
    assert [w.region for w in windows] == [
        Box(0, 0, 10, 10),
        Box(10, 0, 20, 10),
        Box(0, 10, 10, 20),
        Box(10, 10, 20, 20),
        Box(20, 0, 30, 10),
        Box(20, 10, 30, 20),
    ]
    assert [len(w.geometry) for w in windows] == [1, 1, 2, 2, 2, 2]
    # The corner belongs to four windows; the first made takes it.
    assert [lb.name for lb in windows[0].labels] == ["corner"]
    assert [lb.name for lb in windows[4].labels] == ["edge"]


@pytest.mark.parametrize("chip", [spec.name for spec in CHIP_SPECS])
def test_suite_plans_match_at_1_32(chip):
    layout = build_chip(chip, 1 / 32)
    plans = []
    for kind in (WindowPlanner, ReferencePlanner):
        planner = kind(layout)
        plans.append(plan_windows(planner, planner.top_content(), HextStats()))
    fast, reference = plans
    assert fast.top_key == reference.top_key
    assert list(fast.primitives.items()) == list(reference.primitives.items())
    assert fast.composites == reference.composites
    assert fast.hits == reference.hits
