"""The in-memory layout database built by the CIF parser.

A :class:`Layout` holds a set of :class:`Symbol` definitions plus a
distinguished *top* symbol collecting the commands that appear outside any
``DS``/``DF`` pair.  Geometry is stored as parsed (boxes kept as boxes,
polygons and wires unfractured); shapes carry their CIF layer name.
:meth:`Symbol.fractured_boxes` is the one place a shape becomes boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..geometry import Box, Polygon, Transform, fracture_polygon, fracture_wire
from .errors import CifSemanticError

#: Symbol number used internally for top-level (outside-DS) content.
TOP_SYMBOL = -1

#: Fractured shapes one process keeps; the least recently used go first.
_MEMO_SHAPES = 4096


@lru_cache(maxsize=_MEMO_SHAPES)
def _polygon_boxes(polygon: Polygon) -> tuple[Box, ...]:
    return tuple(fracture_polygon(polygon))


@lru_cache(maxsize=_MEMO_SHAPES)
def _wire_boxes(
    width: int, points: "tuple[tuple[int, int], ...]"
) -> tuple[Box, ...]:
    return tuple(fracture_wire(list(points), width))


@dataclass(frozen=True, slots=True)
class Call:
    """An instance of another symbol under a transform."""

    symbol: int
    transform: Transform


@dataclass(frozen=True, slots=True)
class Label:
    """A ``94 name x y [layer]`` annotation naming the net at a point."""

    name: str
    x: int
    y: int
    layer: str | None = None


@dataclass
class Symbol:
    """One CIF symbol: geometry per layer, calls, and labels."""

    number: int
    name: str | None = None
    boxes: list[tuple[str, Box]] = field(default_factory=list)
    polygons: list[tuple[str, Polygon]] = field(default_factory=list)
    wires: list[tuple[str, int, tuple[tuple[int, int], ...]]] = field(
        default_factory=list
    )
    calls: list[Call] = field(default_factory=list)
    labels: list[Label] = field(default_factory=list)

    def add_box(self, layer: str, box: Box) -> None:
        self.boxes.append((layer, box))

    def add_polygon(self, layer: str, polygon: Polygon) -> None:
        self.polygons.append((layer, polygon))

    def add_wire(
        self, layer: str, width: int, points: "tuple[tuple[int, int], ...]"
    ) -> None:
        self.wires.append((layer, width, points))

    def add_call(self, symbol: int, transform: Transform) -> None:
        self.calls.append(Call(symbol, transform))

    def add_label(self, label: Label) -> None:
        self.labels.append(label)

    def is_leaf(self) -> bool:
        """True when the symbol contains no calls (geometry only)."""
        return not self.calls

    def shape_count(self) -> int:
        return len(self.boxes) + len(self.polygons) + len(self.wires)

    def fractured_boxes(self) -> list[tuple[str, Box]]:
        """All geometry in this symbol reduced to boxes (local coords).

        Boxes come first, then each polygon's and each wire's pieces.
        Fracturing is a pure function of a shape, so it is memoized by
        the shape's value: a shape is fractured once however many calls
        place it and however many passes read the layout, and editing
        the shape lists (the difftest shrinker deletes slices of them)
        can never serve stale boxes.
        """
        out = list(self.boxes)
        for layer, polygon in self.polygons:
            out.extend((layer, b) for b in _polygon_boxes(polygon))
        for layer, width, points in self.wires:
            out.extend((layer, b) for b in _wire_boxes(width, tuple(points)))
        return out


@dataclass
class Layout:
    """A parsed CIF design: symbol table plus top-level content."""

    symbols: dict[int, Symbol] = field(default_factory=dict)
    top: Symbol = field(default_factory=lambda: Symbol(TOP_SYMBOL))

    def define(self, number: int) -> Symbol:
        if number in self.symbols:
            raise CifSemanticError(f"symbol {number} defined twice")
        symbol = Symbol(number)
        self.symbols[number] = symbol
        return symbol

    def symbol(self, number: int) -> Symbol:
        if number == TOP_SYMBOL:
            return self.top
        try:
            return self.symbols[number]
        except KeyError:
            raise CifSemanticError(f"call of undefined symbol {number}") from None

    def validate(self) -> None:
        """Check that all calls resolve and the call graph is acyclic."""
        state: dict[int, int] = {}  # 0 visiting, 1 done

        def visit(number: int) -> None:
            mark = state.get(number)
            if mark == 1:
                return
            if mark == 0:
                raise CifSemanticError(f"recursive symbol call at {number}")
            state[number] = 0
            for call in self.symbol(number).calls:
                if call.symbol != TOP_SYMBOL and call.symbol not in self.symbols:
                    raise CifSemanticError(
                        f"symbol {number} calls undefined symbol {call.symbol}"
                    )
                visit(call.symbol)
            state[number] = 1

        visit(TOP_SYMBOL)

    def total_shapes(self) -> int:
        """Shape count over all definitions (not instances)."""
        return self.top.shape_count() + sum(
            s.shape_count() for s in self.symbols.values()
        )
