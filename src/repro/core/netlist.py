"""Extraction result model: nets, devices, and the circuit they form.

This is the back-end's output *before* wirelist formatting: canonical
integer net indices, device records with computed sizes, and (in window
mode) the boundary records HEXT's compose step consumes.

Extractors hand the result over as parallel columns in canonical order
(:class:`NetColumns`, :class:`DeviceColumns`).  The flat wirelist
writer, the counts, and HEXT's fragment adapter read the columns
directly; :class:`Net`/:class:`Device` objects are a view built on first
access for consumers that want them (the simulator, analysis, the
comparator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from ..geometry import Box
from .sizing import SizedDevice

#: Pseudo-layer name used for transistor channels in boundary records and
#: geometry tables.  Not a mask layer; chosen to be impossible as CIF.
CHANNEL = "__channel__"


class Face(str, Enum):
    """Window boundary faces, named from inside the window."""

    LEFT = "L"
    RIGHT = "R"
    TOP = "T"
    BOTTOM = "B"


@dataclass(frozen=True, slots=True)
class BoundaryRecord:
    """One conducting span (or channel span) touching a window face.

    ``lo``/``hi`` are a y-range for LEFT/RIGHT faces and an x-range for
    TOP/BOTTOM faces.  ``ident`` is a net index for conducting layers and
    a device index for :data:`CHANNEL` records.
    """

    face: Face
    layer: str
    lo: int
    hi: int
    ident: int

    @property
    def length(self) -> int:
        return self.hi - self.lo


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
    paper.  ``terminals`` maps net index to total contact perimeter, kept
    so HEXT can re-derive sizes after merging partial devices.
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
    touches_boundary: bool = False
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
    ``gate_net`` by ``gate_ptr``.  ``boundary`` holds the rows whose
    channel touches a window boundary; ``geometry`` maps rows to kept
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
    boundary: set = field(default_factory=set)
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
            self.geometry.get(row, []), row in self.boundary, dep,
        )


def malformed_warnings(devices: DeviceColumns) -> list[str]:
    """One warning per device that is not a clean 3-terminal transistor.

    Partial devices on a window boundary are skipped.  A device without
    a drain has fewer than two terminals, so C-level list scans settle
    the common all-clean case.
    """
    gp, tp = devices.gate_ptr, devices.term_ptr
    if 0 not in devices.drain and gp == list(range(len(devices) + 1)):
        return []
    return [
        f"malformed transistor at {devices.location(row)}: "
        f"{gp[row + 1] - gp[row]} gate nets, "
        f"{tp[row + 1] - tp[row]} terminals"
        for row, drain in enumerate(devices.drain)
        if (gp[row + 1] - gp[row] != 1 or not drain)
        and row not in devices.boundary
    ]


class Circuit:
    """A complete extraction result.

    ``boundary`` is empty for whole-chip extraction and carries the window
    interface records in HEXT's window mode.  ``warnings`` collects
    non-fatal extraction oddities (unattached labels, floating devices).

    Extractors build circuits from columns (``net_columns`` /
    ``device_columns``); ``nets`` and ``devices`` are object views built
    on first access.  A circuit built from object lists derives its
    columns the same lazy way.
    """

    def __init__(
        self,
        nets: "list[Net] | None" = None,
        devices: "list[Device] | None" = None,
        boundary: "list[BoundaryRecord] | None" = None,
        warnings: "list[str] | None" = None,
        *,
        net_columns: "NetColumns | None" = None,
        device_columns: "DeviceColumns | None" = None,
    ) -> None:
        self.boundary = [] if boundary is None else boundary
        self.warnings = [] if warnings is None else warnings
        # Whatever is given pre-fills its cached property; the other
        # representation is derived from it on first access.
        given = {
            "nets": nets,
            "devices": devices,
            "net_columns": net_columns,
            "device_columns": device_columns,
        }
        self.__dict__.update((k, v) for k, v in given.items() if v is not None)

    @cached_property
    def net_columns(self) -> NetColumns:
        cols = NetColumns()
        for row, net in enumerate(self.__dict__.get("nets", ())):
            x, y = net.location or (None, None)
            cols.x.append(x)
            cols.y.append(y)
            if net.names:
                cols.names[row] = list(net.names)
            if net.geometry:
                cols.geometry[row] = net.geometry
        return cols

    @cached_property
    def device_columns(self) -> DeviceColumns:
        devices = self.__dict__.get("devices", ())
        kinds = {d.depletion: d.kind for d in devices}
        cols = DeviceColumns((kinds.get(False, "nEnh"), kinds.get(True, "nDep")))
        for row, d in enumerate(devices):
            sized = SizedDevice(d.source, d.drain, d.width, d.length)
            cols.append(
                d.depletion, d.gate, sized, d.location, d.area, d.terminals,
                d.gates,
            )
            if d.touches_boundary:
                cols.boundary.add(row)
            if d.geometry:
                cols.geometry[row] = d.geometry
        return cols

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
