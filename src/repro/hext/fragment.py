"""Circuit fragments: the unit of HEXT's window memoization.

A :class:`Fragment` is the extracted result of one *unique* window,
expressed in window-relative coordinates so it can be instantiated at any
placement.  Following the paper, a composed fragment "does not copy the
contents of its component windows, but simply stores pointers to them"
(children plus net-equivalence pairs); only the interface is copied.

Net id convention: a fragment owns local net ids ``0..net_count``.  For a
composed fragment these are exactly the first child's ids followed by the
second child's ids shifted by the first's ``net_count`` -- the paper's
``NetOffset``.  No renumbering ever happens during composition, which is
what keeps compose cost proportional to the boundary, not the contents.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..geometry import Box

#: Interface record layers: conducting mask layers plus the channel
#: pseudo-layer (partial transistors).
CHANNEL = "__channel__"

# Faces, matching repro.core.netlist.Face values.
LEFT, RIGHT, TOP, BOTTOM = "L", "R", "T", "B"

_OPPOSITE = {LEFT: RIGHT, RIGHT: LEFT, TOP: BOTTOM, BOTTOM: TOP}


def opposite_face(face: str) -> str:
    return _OPPOSITE[face]


@dataclass(frozen=True, slots=True)
class IfaceRec:
    """One conducting (or channel) span on a window boundary.

    ``fixed`` is the boundary line coordinate: x for LEFT/RIGHT faces,
    y for TOP/BOTTOM.  ``lo``/``hi`` span the other axis.  ``ident`` is a
    local net id, or a local partial-device id when ``layer`` is CHANNEL.
    """

    face: str
    layer: str
    fixed: int
    lo: int
    hi: int
    ident: int

    def shifted(self, dx: int, dy: int) -> "IfaceRec":
        if dx == 0 and dy == 0:
            return self
        if self.face in (LEFT, RIGHT):
            return IfaceRec(
                self.face, self.layer, self.fixed + dx, self.lo + dy,
                self.hi + dy, self.ident,
            )
        return IfaceRec(
            self.face, self.layer, self.fixed + dy, self.lo + dx,
            self.hi + dx, self.ident,
        )


@dataclass
class DeviceRec:
    """A transistor record, sizing-ready (mirrors the scanline's state).

    ``terms`` maps local net id to contact perimeter; ``gates`` holds
    local net ids of poly over the channel.
    """

    area: int
    terms: dict[int, int]
    gates: set[int]
    impl: bool
    loc: tuple[int, int] | None  # (ymax, -xmin) ordering key, like core

    def shifted(self, dx: int, dy: int, net_offset: int) -> "DeviceRec":
        if dx == 0 and dy == 0 and net_offset == 0:
            return DeviceRec(
                area=self.area,
                terms=dict(self.terms),
                gates=set(self.gates),
                impl=self.impl,
                loc=self.loc,
            )
        return DeviceRec(
            area=self.area,
            terms={net + net_offset: p for net, p in self.terms.items()},
            gates={net + net_offset for net in self.gates},
            impl=self.impl,
            loc=(self.loc[0] + dy, self.loc[1] - dx) if self.loc else None,
        )

    def merged_with(self, other: "DeviceRec") -> "DeviceRec":
        terms = dict(self.terms)
        for net, perimeter in other.terms.items():
            terms[net] = terms.get(net, 0) + perimeter
        loc = self.loc
        if other.loc is not None and (loc is None or other.loc > loc):
            loc = other.loc
        return DeviceRec(
            area=self.area + other.area,
            terms=terms,
            gates=self.gates | other.gates,
            impl=self.impl or other.impl,
            loc=loc,
        )


@dataclass(frozen=True, slots=True)
class ChildRef:
    """A placed, net-offset reference to a child fragment."""

    fragment: "Fragment"
    dx: int
    dy: int
    net_offset: int


@dataclass
class Fragment:
    """Extraction result of one unique window, window-relative.

    Attributes:
        region: rectangles tiling the window area (origin-anchored).
        net_count: size of the local net id space.
        children: composed sub-fragments (empty for primitive windows).
        equivalences: local net id pairs unified at this level.
        net_names: user names introduced at this level (primitive only).
        net_locs: net id -> (ymax, -xmin) keys (primitive only).
        devices: transistors completed at this level.
        partials: device records whose channels still touch the boundary,
            indexed by local partial id (dense).
        interface: surviving boundary records.
    """

    region: tuple[Box, ...]
    net_count: int
    children: tuple[ChildRef, ...] = ()
    equivalences: tuple[tuple[int, int], ...] = ()
    net_names: dict[int, list[str]] = field(default_factory=dict)
    net_locs: dict[int, tuple[int, int]] = field(default_factory=dict)
    devices: tuple[DeviceRec, ...] = ()
    partials: tuple[DeviceRec, ...] = ()
    interface: tuple[IfaceRec, ...] = ()

    def bbox(self) -> Box:
        return Box(
            min(r.xmin for r in self.region),
            min(r.ymin for r in self.region),
            max(r.xmax for r in self.region),
            max(r.ymax for r in self.region),
        )


@dataclass(frozen=True, slots=True)
class Placed:
    """A fragment placed at an offset in some parent coordinate space."""

    fragment: Fragment
    dx: int
    dy: int

    def region_rects(self) -> list[Box]:
        if self.dx == 0 and self.dy == 0:
            return list(self.fragment.region)
        return [r.translated(self.dx, self.dy) for r in self.fragment.region]

    def interface_records(self) -> list[IfaceRec]:
        if self.dx == 0 and self.dy == 0:
            return list(self.fragment.interface)
        return [rec.shifted(self.dx, self.dy) for rec in self.fragment.interface]
