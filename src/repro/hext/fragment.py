"""Circuit fragments: the unit of HEXT's window memoization.

A :class:`Fragment` is the extracted result of one *unique* window,
expressed in window-relative coordinates so it can be instantiated at any
placement.  Following the paper, a composed fragment "does not copy the
contents of its component windows, but simply stores pointers to them"
(children plus net-equivalence pairs); of the interface, only the lines
where the two windows meet are rebuilt.

Net id convention: a fragment owns local net ids ``0..net_count``.  For a
composed fragment these are exactly the first child's ids followed by the
second child's ids shifted by the first's ``net_count`` -- the paper's
``NetOffset``.  No renumbering ever happens during composition, which is
what keeps compose cost proportional to the boundary, not the contents.

The interface is stored once, as a line index (:class:`LineIndex`): one
tuple of records per boundary line, so Compose reaches the lines two
windows share by key and leaves every other line as it is.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field, replace
from operator import attrgetter

from ..core.netlist import BOTTOM, CHANNEL, LEFT, RIGHT, TOP, DeviceRec
from ..frontend.instantiate import PlacedLabel
from ..geometry import Box

# Interface records lie on conducting mask layers or on CHANNEL, where
# they name partial transistors (DeviceRecs, indexed by partial id).

_OPPOSITE = {LEFT: RIGHT, RIGHT: LEFT, TOP: BOTTOM, BOTTOM: TOP}


def opposite_face(face: str) -> str:
    return _OPPOSITE[face]


@dataclass(frozen=True, slots=True)
class IfaceRec:
    """One conducting (or channel) span on a window boundary.

    ``fixed`` is the boundary line coordinate: x for LEFT/RIGHT faces,
    y for TOP/BOTTOM.  ``lo``/``hi`` span the other axis.  ``ident`` is a
    local net id, or a local partial-device id when ``layer`` is CHANNEL.
    ``rank`` is the span's place in the window's flat boundary list (see
    :class:`LineIndex`); the pieces of a split span share it.
    """

    face: str
    layer: str
    fixed: int
    lo: int
    hi: int
    ident: int
    rank: int = field(default=0, compare=False)


_LO = attrgetter("lo")
_RANK_LO = attrgetter("rank", "lo")


@dataclass(frozen=True, slots=True)
class LineIndex:
    """A window's interface, one tuple of records per boundary line.

    ``lines`` maps ``(face, fixed, layer)`` to that line's records,
    ascending by ``lo``; spans on one line are pairwise disjoint.

    Records also keep the order of the window's *flat* boundary list,
    which decides the order Compose records equivalences in: a primitive
    window ranks its records in extraction order, and a composed window
    ranks its second child's records after all of its first child's
    (every rank is below ``end``).  The flat list is records sorted by
    ``(rank, lo)``; :meth:`in_order` gives the lines in order of first
    appearance in it.
    """

    lines: dict = field(default_factory=dict)
    end: int = 0

    @classmethod
    def of(cls, records: Iterable[IfaceRec]) -> "LineIndex":
        """Index records given in flat boundary order."""
        lines: dict = {}
        rank = -1
        for rank, rec in enumerate(records):
            if rec.rank != rank:
                rec = replace(rec, rank=rank)
            lines.setdefault((rec.face, rec.fixed, rec.layer), []).append(rec)
        return cls(
            {key: tuple(sorted(line, key=_LO)) for key, line in lines.items()},
            rank + 1,
        )

    def records(self) -> tuple[IfaceRec, ...]:
        """The flat boundary list."""
        return tuple(
            sorted(
                (rec for line in self.lines.values() for rec in line),
                key=_RANK_LO,
            )
        )

    def in_order(self) -> list:
        """``(key, line)`` pairs in order of first appearance."""
        return sorted(
            self.lines.items(), key=lambda item: min(r.rank for r in item[1])
        )

    def placed(
        self, dx: int, dy: int, net_offset: int = 0, rank_offset: int = 0
    ) -> "LineIndex":
        """This interface moved by ``(dx, dy)``.

        Conducting idents gain ``net_offset`` and every rank gains
        ``rank_offset``; channel idents are left alone.
        """
        if not (dx or dy or net_offset or rank_offset):
            return self
        lines = {}
        for (face, fixed, layer), line in self.lines.items():
            df, ds = (dx, dy) if face in (LEFT, RIGHT) else (dy, dx)
            net = 0 if layer == CHANNEL else net_offset
            at = fixed + df
            lines[(face, at, layer)] = tuple(
                IfaceRec(
                    face, layer, at, r.lo + ds, r.hi + ds, r.ident + net,
                    r.rank + rank_offset,
                )
                for r in line
            )
        return LineIndex(lines, self.end + rank_offset)


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
        index: surviving boundary records, by line.
        skipped: unknown layers whose geometry the window sweep ignored
            (primitive only).
        unattached: labels the window sweep bound to no net (primitive
            only).
    """

    region: tuple[Box, ...]
    net_count: int
    children: tuple[ChildRef, ...] = ()
    equivalences: tuple[tuple[int, int], ...] = ()
    net_names: dict[int, list[str]] = field(default_factory=dict)
    net_locs: dict[int, tuple[int, int]] = field(default_factory=dict)
    devices: tuple[DeviceRec, ...] = ()
    partials: tuple[DeviceRec, ...] = ()
    index: LineIndex = field(default_factory=LineIndex)
    skipped: tuple[str, ...] = ()
    unattached: tuple[PlacedLabel, ...] = ()

    @property
    def interface(self) -> tuple[IfaceRec, ...]:
        """The surviving boundary records as one flat, read-only list."""
        return self.index.records()

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
