"""Fracturing polygons and wires into axis-aligned boxes.

The paper (section 3): *"Before being output, non-manhattan geometry is
split into a number of small aligned boxes that approximate the original
object."*  Manhattan polygons fracture exactly; polygons with diagonal
edges are approximated by slab sampling at :data:`FRACTURE_RESOLUTION`,
half a lambda, so the approximation error stays inside the design-rule
grid.  The kernels take the resolution as a parameter so their own tests
can vary it; every caller above them uses the constant.
"""

from __future__ import annotations

from .box import Box
from .polygon import Polygon

#: Slab height and diagonal step, in layout units, of every fracture.
FRACTURE_RESOLUTION = 50


def fracture_polygon(
    polygon: Polygon, resolution: int = FRACTURE_RESOLUTION
) -> list[Box]:
    """Split ``polygon`` into axis-aligned boxes.

    Manhattan polygons produce an exact, disjoint decomposition.
    Non-manhattan polygons are sliced into horizontal slabs no taller than
    ``resolution`` and each slab's cross-section (sampled at mid height,
    even-odd rule) becomes one box per interval, with x snapped outward to
    the nearest integers.

    Returns boxes sorted by (ymin, xmin).
    """
    if resolution <= 0:
        raise ValueError("resolution must be positive")
    manhattan = polygon.is_manhattan()

    ys = sorted({y for _, y in polygon.vertices})
    cuts: list[int] = []
    for y0, y1 in zip(ys, ys[1:]):
        cuts.append(y0)
        if not manhattan:
            # Subdivide tall slabs so diagonal edges are tracked closely.
            span = y1 - y0
            steps = span // resolution
            cuts.extend(y0 + resolution * k for k in range(1, steps + 1) if y0 + resolution * k < y1)
    cuts.append(ys[-1])
    cuts = sorted(set(cuts))

    boxes: list[Box] = []
    for y0, y1 in zip(cuts, cuts[1:]):
        mid = (y0 + y1) / 2
        xs = polygon.crossings_at(mid)
        if len(xs) % 2:
            raise ValueError(
                f"self-intersecting or malformed polygon: odd crossing "
                f"count at y={mid}"
            )
        for xa, xb in zip(xs[0::2], xs[1::2]):
            # Snap to integers; round-half-out keeps the approximation
            # symmetric about the original edge.
            ixa, ixb = round(xa), round(xb)
            if ixa < ixb:
                boxes.append(Box(ixa, y0, ixb, y1))
    return _coalesce_vertical(boxes)


def _coalesce_vertical(boxes: list[Box]) -> list[Box]:
    """Merge vertically stacked boxes with identical x extents.

    Slab decomposition of a manhattan polygon cuts at *every* vertex y, so
    rectangles spanning several slabs come out sliced; re-joining them
    keeps the box count near the minimum, which matters because the
    extractor's cost is counted in boxes.
    """
    boxes = sorted(boxes, key=lambda b: (b.xmin, b.xmax, b.ymin))
    merged: list[Box] = []
    for box in boxes:
        if (
            merged
            and merged[-1].xmin == box.xmin
            and merged[-1].xmax == box.xmax
            and merged[-1].ymax == box.ymin
        ):
            merged[-1] = Box(box.xmin, merged[-1].ymin, box.xmax, box.ymax)
        else:
            merged.append(box)
    merged.sort(key=lambda b: (b.ymin, b.xmin))
    return merged


def fracture_wire(
    points: "list[tuple[int, int]]",
    width: int,
    resolution: int = FRACTURE_RESOLUTION,
) -> list[Box]:
    """Fracture a CIF ``W`` wire into boxes.

    A wire is a path with square ends extended by half its width, the
    Mead-Conway convention.  Axis-parallel segments become single boxes;
    diagonal segments are fractured through the polygon path at
    ``resolution``.
    """
    if width <= 0:
        raise ValueError("wire width must be positive")
    if (width % 2) != 0:
        raise ValueError("odd wire width cannot center on the integer grid")
    if len(points) == 0:
        raise ValueError("wire needs at least one point")
    half = width // 2
    if len(points) == 1:
        (x, y) = points[0]
        return [Box(x - half, y - half, x + half, y + half)]

    boxes: list[Box] = []
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        if x1 == x2 and y1 == y2:
            continue
        if y1 == y2:
            xa, xb = (x1, x2) if x1 < x2 else (x2, x1)
            boxes.append(Box(xa - half, y1 - half, xb + half, y1 + half))
        elif x1 == x2:
            ya, yb = (y1, y2) if y1 < y2 else (y2, y1)
            boxes.append(Box(x1 - half, ya - half, x1 + half, yb + half))
        else:
            boxes.extend(
                _fracture_diagonal_segment(x1, y1, x2, y2, half, resolution)
            )
    return boxes


def _fracture_diagonal_segment(
    x1: int, y1: int, x2: int, y2: int, half: int, resolution: int
) -> list[Box]:
    """Approximate a diagonal wire segment by a staircase of boxes."""
    length = max(abs(x2 - x1), abs(y2 - y1))
    steps = max(1, length // max(1, resolution))
    boxes: list[Box] = []
    for k in range(steps + 1):
        cx = round(x1 + (x2 - x1) * k / steps)
        cy = round(y1 + (y2 - y1) * k / steps)
        boxes.append(Box(cx - half, cy - half, cx + half, cy + half))
    return boxes
