"""HEXT's front-end: window contents, expansion, and subdivision.

The front-end "performs three basic operations: recognize redundant
windows, divide a window into a set of non-overlapping sub-windows, and
determine how to connect each sub-window to its neighbors."  This module
implements the middle one plus the canonicalization that powers the
first; composition order (the third) is a sort in the extractor.

Subdivision follows section 3 of the HEXT paper:

1. a window containing only geometry is primitive -- send to the back-end;
2. expand all symbol instances one level;
3. wherever expanded instance bounding boxes overlap, apply the disjoint
   transformation (Newell-Fitzpatrick): expand the offenders further until
   all instance boxes are disjoint;
4. slice the window, using the instance boxes for guidance: each instance
   box becomes a sub-window, and the leftover area is cut into cells
   along the box edges; top-level geometry is clipped into whichever
   sub-window covers it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..cif.layout import TOP_SYMBOL, Layout
from ..frontend.instantiate import PlacedLabel, symbol_bboxes
from ..geometry import Box, Transform


@dataclass
class Content:
    """What one window contains, in chip (parent) coordinates."""

    region: Box
    geometry: list[tuple[str, Box]] = field(default_factory=list)
    instances: list[tuple[int, Transform]] = field(default_factory=list)
    labels: list[PlacedLabel] = field(default_factory=list)

    def is_primitive(self) -> bool:
        return not self.instances

    def is_empty(self) -> bool:
        return not self.geometry and not self.instances and not self.labels


class WindowPlanner:
    """Shared expansion machinery bound to one layout."""

    def __init__(self, layout: Layout, resolution: int = 50) -> None:
        self.layout = layout
        self.resolution = resolution
        self.bboxes = symbol_bboxes(layout, resolution)
        self._fractured: dict[int, list[tuple[str, Box]]] = {}
        self._fingerprints = _symbol_fingerprints(layout, resolution)

    def key(self, content: Content):
        """Content key with structural (cross-layout-stable) symbol ids.

        Symbol numbers are local to one Layout; keying instances by a
        structural fingerprint of their full expansion lets a persistent
        memo (the incremental extractor) be shared safely across layouts
        -- and recognizes structurally identical symbols within one.
        """
        return content_key(content, self._fingerprints)

    # -- expansion -------------------------------------------------------

    def _local_boxes(self, number: int) -> list[tuple[str, Box]]:
        cached = self._fractured.get(number)
        if cached is None:
            cached = self.layout.symbol(number).fractured_boxes(self.resolution)
            self._fractured[number] = cached
        return cached

    def expand_one(
        self, number: int, transform: Transform
    ) -> tuple[
        list[tuple[str, Box]],
        list[tuple[int, Transform]],
        list[PlacedLabel],
    ]:
        """Replace one instance by its constituent parts."""
        symbol = self.layout.symbol(number)
        geometry = [
            (layer, transform.apply_box(box))
            for layer, box in self._local_boxes(number)
        ]
        instances = [
            (call.symbol, call.transform.then(transform))
            for call in symbol.calls
        ]
        labels = []
        for lb in symbol.labels:
            x, y = transform.apply_point(lb.x, lb.y)
            labels.append(PlacedLabel(lb.name, x, y, lb.layer))
        return geometry, instances, labels

    def placed_bbox(self, number: int, transform: Transform) -> Box | None:
        bbox = self.bboxes.get(number)
        return transform.apply_box(bbox) if bbox is not None else None

    def top_content(self) -> Content:
        """The whole chip as the initial window."""
        geometry, instances, labels = self.expand_one(
            TOP_SYMBOL, Transform.identity()
        )
        corners = [box for _, box in geometry]
        for number, transform in instances:
            placed = self.placed_bbox(number, transform)
            if placed is not None:
                corners.append(placed)
        if corners:
            region = Box(
                min(b.xmin for b in corners),
                min(b.ymin for b in corners),
                max(b.xmax for b in corners),
                max(b.ymax for b in corners),
            )
        else:
            region = Box(0, 0, 1, 1)
        return Content(region, geometry, instances, labels)

    # -- subdivision -------------------------------------------------------

    def subdivide(self, content: Content) -> list[Content]:
        """Split a non-primitive window into disjoint sub-windows.

        Step 2's "expand one level" applies when the window *is* a single
        symbol instance (the recursion's common case): the instance is
        replaced by its constituent parts, repeatedly if the symbol wraps
        a single call.  A window already holding several instances slices
        directly along their bounding boxes -- expanding those too would
        flatten whole rows into per-cell windows and hand the composer
        quadratic work, exactly what the window tree exists to avoid.
        """
        geometry = list(content.geometry)
        labels = list(content.labels)
        instances = list(content.instances)
        while len(instances) == 1:
            number, transform = instances[0]
            sub_geo, sub_inst, sub_labels = self.expand_one(number, transform)
            geometry.extend(sub_geo)
            labels.extend(sub_labels)
            instances = sub_inst

        # Step 3: disjoint transformation.
        instances, extra = self._make_disjoint(instances)
        geometry.extend(extra[0])
        labels.extend(extra[1])

        placed = []
        for number, transform in instances:
            bbox = self.placed_bbox(number, transform)
            if bbox is not None:
                placed.append((bbox, number, transform))

        # Step 4: slice.
        return self._slice(content.region, placed, geometry, labels)

    def _make_disjoint(
        self, instances: list[tuple[int, Transform]]
    ) -> tuple[
        list[tuple[int, Transform]],
        tuple[list[tuple[str, Box]], list[PlacedLabel]],
    ]:
        """Expand instances until all placed bounding boxes are disjoint."""
        geometry: list[tuple[str, Box]] = []
        labels: list[PlacedLabel] = []
        work = list(instances)
        while True:
            boxed = []
            for idx, (number, transform) in enumerate(work):
                bbox = self.placed_bbox(number, transform)
                if bbox is not None:
                    boxed.append((bbox, idx))
            offenders = _overlapping_indices(boxed)
            if not offenders:
                return work, (geometry, labels)
            next_work: list[tuple[int, Transform]] = []
            for idx, (number, transform) in enumerate(work):
                if idx in offenders:
                    sub_geo, sub_inst, sub_labels = self.expand_one(
                        number, transform
                    )
                    geometry.extend(sub_geo)
                    labels.extend(sub_labels)
                    next_work.extend(sub_inst)
                else:
                    next_work.append((number, transform))
            work = next_work

    def _slice(
        self,
        region: Box,
        placed: list[tuple[Box, int, Transform]],
        geometry: list[tuple[str, Box]],
        labels: list[PlacedLabel],
    ) -> list[Content]:
        windows: list[Content] = [
            Content(bbox, instances=[(number, transform)])
            for bbox, number, transform in placed
        ]
        # Filler cells along the instance-box cut lines.  Cells covered
        # by an instance box are marked directly from the boxes (cuts
        # come from box edges, so every box covers whole cells).
        from bisect import bisect_left

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
        covered: set[tuple[int, int]] = set()
        for box, _, _ in placed:
            i0 = bisect_left(xs, box.xmin)
            i1 = bisect_left(xs, box.xmax)
            j0 = bisect_left(ys, box.ymin)
            j1 = bisect_left(ys, box.ymax)
            for i in range(i0, i1):
                for j in range(j0, j1):
                    covered.add((i, j))
        for i, (x1, x2) in enumerate(zip(xs, xs[1:])):
            for j, (y1, y2) in enumerate(zip(ys, ys[1:])):
                if (i, j) not in covered:
                    windows.append(Content(Box(x1, y1, x2, y2)))

        # Clip geometry into windows.
        for layer, box in geometry:
            for window in windows:
                clipped = box.clipped(window.region)
                if clipped is not None:
                    window.geometry.append((layer, clipped))

        # Assign each label to the first window containing it.
        for label in labels:
            for window in windows:
                if window.region.contains_point(label.x, label.y):
                    window.labels.append(label)
                    break

        return [w for w in windows if not w.is_empty()]


def _overlapping_indices(boxed: list[tuple[Box, int]]) -> set[int]:
    """Indices of instances whose bounding boxes overlap another's."""
    offenders: set[int] = set()
    order = sorted(boxed, key=lambda item: item[0].xmin)
    for i, (bi, idx_i) in enumerate(order):
        for bj, idx_j in order[i + 1 :]:
            if bj.xmin >= bi.xmax:
                break
            if bi.overlaps(bj):
                offenders.add(idx_i)
                offenders.add(idx_j)
    return offenders


# ----------------------------------------------------------------------
# canonicalization (redundant-window recognition)
# ----------------------------------------------------------------------


def relative_artwork(content: Content) -> "tuple[list[tuple], list[tuple]]":
    """A window's boxes and labels, window-relative and sorted.

    The one canonical form of a window's artwork: the memo key and the
    persistent cache key hash it, and extraction reads it, so windows
    with equal keys extract to identical fragments whatever order their
    artwork was drawn in.  Rows are ``(layer, x1, y1, x2, y2)`` and
    ``(name, x, y, layer or "")``.
    """
    ox, oy = content.region.xmin, content.region.ymin
    geometry = sorted(
        (layer, b.xmin - ox, b.ymin - oy, b.xmax - ox, b.ymax - oy)
        for layer, b in content.geometry
    )
    labels = sorted(
        (lb.name, lb.x - ox, lb.y - oy, lb.layer or "")
        for lb in content.labels
    )
    return geometry, labels


def content_key(
    content: Content, fingerprints: "dict[int, str] | None" = None
):
    """A placement-independent key identifying the window's content.

    Two windows with equal keys contain identical artwork (same size,
    same geometry, instances and labels relative to their lower-left
    corner) and therefore share one extracted fragment.  When
    ``fingerprints`` is given, instances are keyed by their structural
    fingerprint instead of the layout-local symbol number, which makes
    keys stable across distinct :class:`Layout` objects.
    """
    ox, oy = content.region.xmin, content.region.ymin
    geometry, labels = relative_artwork(content)
    instances = tuple(
        sorted(
            (
                fingerprints[number] if fingerprints else number,
                t.orientation,
                t.dx - ox,
                t.dy - oy,
            )
            for number, t in content.instances
        )
    )
    return (
        content.region.width,
        content.region.height,
        tuple(geometry),
        instances,
        tuple(labels),
    )


def _symbol_fingerprints(layout: Layout, resolution: int) -> dict[int, str]:
    """Structural fingerprint per symbol: a digest of its expansion.

    Computed bottom-up over the (acyclic) call graph; two symbols -- in
    the same or different layouts -- get equal fingerprints exactly when
    their fully expanded artwork and labels are identical.
    """
    result: dict[int, str] = {}

    def fingerprint(number: int) -> str:
        cached = result.get(number)
        if cached is not None:
            return cached
        symbol = layout.symbol(number)
        hasher = hashlib.sha256()
        for layer, box in sorted(
            symbol.fractured_boxes(resolution),
            key=lambda item: (item[0], item[1].xmin, item[1].ymin,
                              item[1].xmax, item[1].ymax),
        ):
            hasher.update(
                f"B{layer}:{box.xmin},{box.ymin},{box.xmax},{box.ymax};".encode()
            )
        for label in sorted(
            symbol.labels, key=lambda lb: (lb.name, lb.x, lb.y, lb.layer or "")
        ):
            hasher.update(
                f"L{label.name}:{label.x},{label.y},{label.layer or ''};".encode()
            )
        for call in sorted(
            symbol.calls,
            key=lambda c: (c.transform.dx, c.transform.dy, c.symbol),
        ):
            t = call.transform
            hasher.update(
                f"C{fingerprint(call.symbol)}:{t.orientation},"
                f"{t.dx},{t.dy};".encode()
            )
        digest = hasher.hexdigest()
        result[number] = digest
        return digest

    fingerprint(TOP_SYMBOL)
    for number in layout.symbols:
        fingerprint(number)
    return result
