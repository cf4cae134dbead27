"""The expansion step, and eager instantiation built on it.

:func:`expand` is the one place a symbol call becomes placed artwork:
its boxes (polygons and wires fractured) under the call's transform, its
child calls with their transforms composed, and its labels.  HEXT's
window planner expands one call at a time through it, and
:func:`instantiate` walks every call through it at once.  ACE itself
avoids that (see :mod:`repro.frontend.stream`); the flat list is what
the raster and region-merge baselines, the workload statistics, the
source attribution of diagnostics, and the tests consume.  The lazy
stream takes only the hierarchy half, :func:`expand_calls`, and places
a call's boxes from per-symbol oriented runs instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..cif.layout import TOP_SYMBOL, Layout, Symbol
from ..geometry import Box, Transform


@dataclass(frozen=True, slots=True)
class PlacedLabel:
    """A net-name label instantiated into chip coordinates."""

    name: str
    x: int
    y: int
    layer: str | None = None


def expand_calls(
    symbol: Symbol, transform: Transform
) -> tuple[list[tuple[int, Transform]], list[PlacedLabel]]:
    """The hierarchy half of :func:`expand`: ``(calls, labels)``, the
    child calls with composed transforms and the labels placed, in
    drawing order.  The lazy stream places a call's boxes itself."""
    calls = [
        (call.symbol, call.transform.then(transform)) for call in symbol.calls
    ]
    if transform.is_identity:
        labels = [
            PlacedLabel(lb.name, lb.x, lb.y, lb.layer) for lb in symbol.labels
        ]
    else:
        apply_point = transform.apply_point
        labels = [
            PlacedLabel(lb.name, *apply_point(lb.x, lb.y), lb.layer)
            for lb in symbol.labels
        ]
    return calls, labels


def expand(
    symbol: Symbol, transform: Transform
) -> tuple[
    list[tuple[str, Box]],
    list[tuple[int, Transform]],
    list[PlacedLabel],
]:
    """One call of ``symbol`` under ``transform``, one level deep.

    Returns ``(boxes, calls, labels)``: the symbol's own boxes placed,
    its child calls as ``(symbol number, composed transform)``, and its
    labels placed, each in the symbol's drawing order.
    """
    calls, labels = expand_calls(symbol, transform)
    boxes = symbol.fractured_boxes()
    if not transform.is_identity:
        apply_box = transform.apply_box
        boxes = [(layer, apply_box(box)) for layer, box in boxes]
    return boxes, calls, labels


def _expansions(
    layout: Layout,
) -> Iterator[
    tuple[int, tuple[int, ...], list[tuple[str, Box]], list[PlacedLabel]]
]:
    """Every call in ``layout``, depth first from the top, expanded.

    Yields ``(symbol, path, boxes, labels)``, where ``path`` is the call
    chain of symbol numbers from the top down to ``symbol``.
    """
    work = [(TOP_SYMBOL, Transform.identity(), (TOP_SYMBOL,))]
    while work:
        number, transform, path = work.pop()
        boxes, calls, labels = expand(layout.symbol(number), transform)
        yield number, path, boxes, labels
        work.extend(
            (child, placed, path + (child,))
            for child, placed in reversed(calls)
        )


def instantiate(
    layout: Layout,
) -> tuple[list[tuple[str, Box]], list[PlacedLabel]]:
    """Fully instantiate ``layout``.

    Returns ``(boxes, labels)`` where ``boxes`` is every primitive box in
    chip coordinates (polygons and wires fractured).
    """
    boxes: list[tuple[str, Box]] = []
    labels: list[PlacedLabel] = []
    for _, _, placed, placed_labels in _expansions(layout):
        boxes.extend(placed)
        labels.extend(placed_labels)
    return boxes, labels


def instantiate_with_origins(
    layout: Layout,
) -> list[tuple[str, Box, int, tuple[int, ...]]]:
    """Fully instantiate ``layout``, keeping each box's source symbol.

    Returns ``(layer, box, symbol, path)`` per primitive box, where
    ``symbol`` is the number of the symbol whose body contains the
    artwork (``TOP_SYMBOL`` for top-level geometry) and ``path`` is the
    call chain of symbol numbers from the top down to ``symbol``.  The
    diagnostics layer uses this to attribute a design-rule violation to
    the symbol call that produced the offending geometry.
    """
    return [
        (layer, box, number, path)
        for number, path, placed, _ in _expansions(layout)
        for layer, box in placed
    ]


def symbol_bboxes(layout: Layout) -> dict[int, Box | None]:
    """Bounding box of each symbol's full expansion, in local coordinates.

    ``None`` marks empty symbols.  Computed bottom-up over the (acyclic)
    call graph; this is the piece of global knowledge the lazy front-end
    needs in order to defer expanding calls that lie below the scanline.
    """
    result: dict[int, Box | None] = {}

    def bbox_of(number: int) -> Box | None:
        if number in result:
            return result[number]
        symbol = layout.symbol(number)
        corners: list[Box] = [box for _, box in symbol.fractured_boxes()]
        for call in symbol.calls:
            inner = bbox_of(call.symbol)
            if inner is not None:
                corners.append(call.transform.apply_box(inner))
        box: Box | None
        if corners:
            box = Box(
                min(b.xmin for b in corners),
                min(b.ymin for b in corners),
                max(b.xmax for b in corners),
                max(b.ymax for b in corners),
            )
        else:
            box = None
        result[number] = box
        return box

    bbox_of(TOP_SYMBOL)
    for number in layout.symbols:
        bbox_of(number)
    return result
