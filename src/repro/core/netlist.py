"""Extraction result model: nets, devices, and the circuit they form.

This is the back-end's output *before* wirelist formatting: canonical
integer net indices and device records with computed sizes.  A window
sweep (HEXT's modified ACE) ends in a :class:`WindowResult` instead: the
records of a fragment, unsized, with the boundary spans compose reads.

Before sizing, every record-based extractor (the python strip engine,
both baselines, HEXT's windows, compose and resolve) accumulates a
transistor as one :class:`DeviceRec`, which spill rows and the fragment
cache store through one codec (:func:`device_payload`,
:func:`device_from_payload`).

Extractors hand the result over as parallel columns in canonical order
(:class:`NetColumns`, :class:`DeviceColumns`).  The flat wirelist
writer and the counts read the columns directly; :class:`Net`/
:class:`Device` objects are a view built on first access for consumers
that want them (the simulator, analysis, the comparator).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from ..geometry import Box
from .sizing import SizedDevice

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..frontend.instantiate import PlacedLabel

#: Pseudo-layer name used for transistor channels in boundary records and
#: geometry tables.  Not a mask layer; chosen to be impossible as CIF.
CHANNEL = "__channel__"

#: Window boundary faces, named from inside the window, as HEXT's
#: fragments and their payloads spell them.
LEFT, RIGHT, TOP, BOTTOM = FACES = ("L", "R", "T", "B")


@dataclass(slots=True)
class DeviceRec:
    """A transistor channel before sizing, tracked "exactly like a net".

    ``terms`` maps net id to contact perimeter and ``gates`` holds the
    net ids of poly over the channel; ``loc`` is the ``(ymax, -xmin)``
    ordering key of its topmost-leftmost span, ``impl`` the depletion
    flag and ``geo`` the kept channel boxes.  Net ids are whatever the
    holder numbers nets by: union-find ids in a sweep, local ids in a
    HEXT fragment.
    """

    area: int = 0
    terms: dict[int, int] = field(default_factory=dict)
    gates: set[int] = field(default_factory=set)
    impl: bool = False
    loc: "tuple[int, int] | None" = None
    geo: list[Box] = field(default_factory=list)

    def add_terminal(self, net: int, length: int) -> None:
        """Add ``length`` of contact perimeter with ``net``."""
        terms = self.terms
        terms[net] = terms.get(net, 0) + length

    def touch(self, loc: "tuple[int, int]") -> None:
        """Keep the topmost-leftmost (largest) ordering key."""
        if self.loc is None or loc > self.loc:
            self.loc = loc

    def absorb(self, other: "DeviceRec") -> None:
        """Merge ``other`` into this record (the fold of two channels)."""
        self.area += other.area
        self.gates |= other.gates
        terms = self.terms
        for net, length in other.terms.items():
            terms[net] = terms.get(net, 0) + length
        if other.loc is not None:
            self.touch(other.loc)
        self.impl = self.impl or other.impl
        if other.geo:
            self.geo.extend(other.geo)

    def shifted(self, dx: int, dy: int, net_offset: int) -> "DeviceRec":
        """A copy moved by ``(dx, dy)``, its net ids raised by
        ``net_offset``; never this record, which may be shared."""
        loc = self.loc
        if net_offset:
            terms = {net + net_offset: p for net, p in self.terms.items()}
            gates = {net + net_offset for net in self.gates}
        else:
            terms, gates = dict(self.terms), set(self.gates)
        return DeviceRec(
            self.area, terms, gates, self.impl,
            None if loc is None else (loc[0] + dy, loc[1] - dx),
            [b.translated(dx, dy) for b in self.geo] if self.geo else [],
        )

    def merged_with(self, other: "DeviceRec") -> "DeviceRec":
        """A new record holding both; neither input changes."""
        merged = self.shifted(0, 0, 0)
        merged.absorb(other)
        return merged


def checked_int(value) -> int:
    """``value`` when it is a plain int (bools are not); else ValueError."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected int, got {value!r}")
    return value


def checked_id(value, limit: int) -> int:
    """An int id in ``range(limit)``; else ValueError."""
    ident = checked_int(value)
    if not 0 <= ident < limit:
        raise ValueError(f"id {ident} out of range (limit {limit})")
    return ident


def device_payload(rec: DeviceRec) -> dict:
    """A record as JSON-able lists and ints; ``geo`` only when kept."""
    payload = {
        "area": rec.area,
        "terms": sorted([net, per] for net, per in rec.terms.items()),
        "gates": sorted(rec.gates),
        "impl": bool(rec.impl),
        "loc": None if rec.loc is None else list(rec.loc),
    }
    if rec.geo:
        payload["geo"] = [[b.xmin, b.ymin, b.xmax, b.ymax] for b in rec.geo]
    return payload


def device_from_payload(item: dict, net_count: "int | None" = None) -> DeviceRec:
    """The record :func:`device_payload` wrote.

    With ``net_count``, every net id must lie in ``range(net_count)``.
    Malformed input raises ValueError, TypeError or KeyError.
    """

    def net(value) -> int:
        if net_count is None:
            return checked_int(value)
        return checked_id(value, net_count)

    loc = item["loc"]
    return DeviceRec(
        checked_int(item["area"]),
        {net(ident): checked_int(per) for ident, per in item["terms"]},
        {net(ident) for ident in item["gates"]},
        bool(item["impl"]),
        None if loc is None else (checked_int(loc[0]), checked_int(loc[1])),
        [Box(*map(checked_int, box)) for box in item.get("geo", ())],
    )


@dataclass(slots=True)
class Net:
    """An electrically connected region with no intervening transistor."""

    index: int
    names: list[str] = field(default_factory=list)
    location: tuple[int, int] | None = None
    geometry: list[tuple[str, Box]] = field(default_factory=list)

    @property
    def label(self) -> str:
        """Display name: the first user name, else N<index>."""
        return self.names[0] if self.names else f"N{self.index}"


@dataclass(slots=True)
class Device:
    """A transistor (or, when malformed, a transistor-like channel).

    ``width`` is the mean of the source and drain contact-edge lengths and
    ``length`` is channel area / width, exactly as in section 3 of the
    paper.  ``terminals`` maps net index to total contact perimeter.  HEXT
    never builds these: its fragments keep unsized ``DeviceRec``s.
    """

    index: int
    kind: str  # "nEnh" or "nDep"
    gate: int | None
    source: int | None
    drain: int | None
    length: float
    width: float
    area: int
    location: tuple[int, int] | None
    terminals: dict[int, int] = field(default_factory=dict)
    gates: list[int] = field(default_factory=list)
    geometry: list[Box] = field(default_factory=list)
    depletion: bool = False

    @property
    def is_malformed(self) -> bool:
        """True when the device is not a clean 3-terminal transistor."""
        return (
            self.gate is None
            or self.source is None
            or self.drain is None
            or len(self.gates) > 1
        )


@dataclass(slots=True)
class NetColumns:
    """Nets as parallel columns in canonical order (topmost, then leftmost).

    Row ``i`` is net ``N{start + i + 1}`` at location ``(x[i], y[i])``.
    ``names`` (deduplicated user names) and ``geometry`` (kept artwork)
    are sparse, keyed by row.  ``start`` counts the rows before this
    chunk when streamed emission writes a long list in pieces.
    """

    x: list = field(default_factory=list)
    y: list = field(default_factory=list)
    names: dict[int, list[str]] = field(default_factory=dict)
    geometry: dict[int, list[tuple[str, Box]]] = field(default_factory=dict)
    start: int = 0

    def __len__(self) -> int:
        return len(self.x)


@dataclass(slots=True)
class DeviceColumns:
    """Devices as parallel columns in canonical order.

    Row ``i`` is device ``D{start + i}``, a part named
    ``kinds[depletion[i]]``.  ``gate``/``source``/``drain`` hold 1-based
    net indices, 0 for none; ``x``/``y`` are None for a device without a
    location.  Terminals and gate nets are CSR-packed: row ``i``'s
    terminals are ``term_net[term_ptr[i]:term_ptr[i + 1]]`` with contact
    perimeters in ``term_len``, and its ascending gate nets slice
    ``gate_net`` by ``gate_ptr``.  ``geometry`` maps rows to kept
    channel boxes.
    """

    kinds: tuple[str, str] = ("nEnh", "nDep")
    depletion: list = field(default_factory=list)
    gate: list = field(default_factory=list)
    source: list = field(default_factory=list)
    drain: list = field(default_factory=list)
    length: list = field(default_factory=list)
    width: list = field(default_factory=list)
    x: list = field(default_factory=list)
    y: list = field(default_factory=list)
    area: list = field(default_factory=list)
    term_ptr: list = field(default_factory=lambda: [0])
    term_net: list = field(default_factory=list)
    term_len: list = field(default_factory=list)
    gate_ptr: list = field(default_factory=lambda: [0])
    gate_net: list = field(default_factory=list)
    geometry: dict[int, list[Box]] = field(default_factory=dict)
    start: int = 0

    def __len__(self) -> int:
        return len(self.depletion)

    def append(
        self,
        depletion: bool,
        gate: "int | None",
        sized: SizedDevice,
        location: "tuple[int, int] | None",
        area: int,
        terminals: "dict[int, int]",
        gates: "list[int]",
    ) -> None:
        """Add one row; ``sized`` carries source, drain, length, width."""
        self.depletion.append(depletion)
        self.gate.append(gate or 0)
        self.source.append(sized.source or 0)
        self.drain.append(sized.drain or 0)
        self.length.append(sized.length)
        self.width.append(sized.width)
        self.x.append(None if location is None else location[0])
        self.y.append(None if location is None else location[1])
        self.area.append(area)
        self.term_net.extend(terminals)
        self.term_len.extend(terminals.values())
        self.term_ptr.append(len(self.term_net))
        self.gate_net.extend(gates)
        self.gate_ptr.append(len(self.gate_net))

    def location(self, row: int) -> "tuple[int, int] | None":
        return None if self.x[row] is None else (self.x[row], self.y[row])

    def device(self, row: int) -> Device:
        """Row ``row`` as a :class:`Device` object."""
        lo, hi = self.term_ptr[row], self.term_ptr[row + 1]
        dep = self.depletion[row]
        return Device(
            self.start + row, self.kinds[dep], self.gate[row] or None,
            self.source[row] or None, self.drain[row] or None,
            self.length[row], self.width[row], self.area[row],
            self.location(row),
            dict(zip(self.term_net[lo:hi], self.term_len[lo:hi])),
            self.gate_net[self.gate_ptr[row]:self.gate_ptr[row + 1]],
            self.geometry.get(row, []), dep,
        )


@dataclass(slots=True)
class WindowResult:
    """What a window sweep hands HEXT: one fragment's records, unsized.

    Nets are numbered from 0 in canonical order; ``net_names`` and
    ``net_locs`` (``(ymax, -xmin)`` keys) are keyed by that number.
    ``devices`` are the complete transistors and ``partials`` those
    whose channel touches the window boundary, each in device order,
    their nets so numbered.  ``interface`` holds the coalesced
    ``(face, layer, fixed, lo, hi, ident)`` spans on the window
    boundary, in the order compose ranks them: ``fixed`` is the
    boundary line's coordinate and ``ident`` a net number, or on
    :data:`CHANNEL` a partial's index.  ``skipped`` names the unknown
    layers the sweep ignored and ``unattached`` holds the labels it
    bound to no net, as the flat finalize reports them.
    """

    net_count: int
    net_names: dict[int, list[str]]
    net_locs: dict[int, tuple[int, int]]
    devices: list[DeviceRec]
    partials: list[DeviceRec]
    interface: list[tuple[str, str, int, int, int, int]]
    skipped: list[str]
    unattached: "list[PlacedLabel]"


def skipped_warnings(layers: Iterable[str]) -> list[str]:
    """One warning per unknown layer whose geometry a sweep ignored."""
    return [f"ignoring geometry on unknown layer {layer}" for layer in layers]


def unattached_warnings(labels: "Iterable[PlacedLabel]") -> list[str]:
    """One warning per label that names no conducting geometry."""
    return [
        f"label {label.name!r} at ({label.x}, {label.y}) "
        f"matches no conducting geometry"
        for label in labels
    ]


def malformed_warnings(devices: DeviceColumns) -> list[str]:
    """One warning per device that is not a clean 3-terminal transistor.

    A device without a drain has fewer than two terminals, so C-level
    list scans settle the common all-clean case.
    """
    gp, tp = devices.gate_ptr, devices.term_ptr
    if 0 not in devices.drain and gp == list(range(len(devices) + 1)):
        return []
    return [
        f"malformed transistor at {devices.location(row)}: "
        f"{gp[row + 1] - gp[row]} gate nets, "
        f"{tp[row + 1] - tp[row]} terminals"
        for row, drain in enumerate(devices.drain)
        if gp[row + 1] - gp[row] != 1 or not drain
    ]


class Circuit:
    """A complete extraction result.

    ``warnings`` collects non-fatal extraction oddities (unknown layers,
    malformed devices, unattached labels).

    Extractors build circuits from columns (``net_columns`` /
    ``device_columns``); ``nets`` and ``devices`` are object views built
    on first access.
    """

    def __init__(
        self,
        warnings: "list[str] | None" = None,
        *,
        net_columns: "NetColumns | None" = None,
        device_columns: "DeviceColumns | None" = None,
    ) -> None:
        self.warnings = [] if warnings is None else warnings
        self.net_columns = NetColumns() if net_columns is None else net_columns
        self.device_columns = (
            DeviceColumns() if device_columns is None else device_columns
        )

    @cached_property
    def nets(self) -> list[Net]:
        cols = self.net_columns
        return [
            Net(
                row + 1,
                list(cols.names.get(row, ())),
                None if x is None else (x, y),
                cols.geometry.get(row, []),
            )
            for row, (x, y) in enumerate(zip(cols.x, cols.y))
        ]

    @cached_property
    def devices(self) -> list[Device]:
        cols = self.device_columns
        return [cols.device(row) for row in range(len(cols))]

    def net_by_name(self, name: str) -> Net:
        for net in self.nets:
            if name in net.names:
                return net
        raise KeyError(f"no net named {name!r}")

    def net_count(self) -> int:
        return len(self.net_columns)

    def device_count(self) -> int:
        return len(self.device_columns)

    def stats_line(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.device_count()} devices, {self.net_count()} nets"
