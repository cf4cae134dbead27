"""Emit wirelists in the CMU LISP-like syntax, and build them from
extraction results.

:func:`to_wirelist` wraps a :class:`~repro.core.netlist.Circuit` as the
flat single-DefPart form of Figure 3-4; :func:`write_wirelist` renders
any :class:`Wirelist` (flat or hierarchical) as text.

Flat text is formatted straight from circuit columns by
:func:`write_flat`, one ``%`` format per row mapped over zipped columns;
only rows that need something the common template lacks (a missing
terminal or location, user names, kept geometry) go through the per-row
helpers :func:`device_text` and :func:`net_text`, which the hierarchical
DefParts use for every row.  The in-memory path writes one chunk of
columns; streamed emission feeds chunks of spilled rows to the same
writer.
"""

from __future__ import annotations

from io import StringIO
from typing import Callable, Iterable

from ..core.netlist import Circuit, DeviceColumns, NetColumns
from ..geometry import Box
from ..tech import Technology
from .model import DefPart, Wirelist, primitives_for


class FlatWirelist(Wirelist):
    """A flat wirelist still held as its circuit's columns.

    :func:`write_wirelist` formats it directly from the columns; the
    :class:`DefPart` model is parsed back from that text only if
    something asks for ``defparts``.
    """

    def __init__(
        self,
        circuit: Circuit,
        name: str,
        include_geometry: bool,
        primitives: dict,
    ) -> None:
        self.name = self.top = name
        self.primitives = primitives
        self.circuit = circuit
        self.include_geometry = include_geometry
        self._defparts: "list[DefPart] | None" = None

    @property
    def defparts(self) -> "list[DefPart]":  # type: ignore[override]
        if self._defparts is None:
            from .parser import parse_wirelist

            parsed = parse_wirelist(write_wirelist(self))
            self._defparts = [p for p in parsed.defparts if p.name == self.name]
        return self._defparts


def to_wirelist(
    circuit: Circuit,
    name: str = "chip",
    include_geometry: bool = True,
    tech: "Technology | None" = None,
) -> Wirelist:
    """Build the flat wirelist for an extracted circuit.

    Net names follow the paper: the canonical name is ``N<index>`` with
    user-defined names listed as aliases.  Geometry (channel and net CIF
    strings) is included when the circuit was extracted with
    ``keep_geometry`` and ``include_geometry`` is left on.  The prolog
    declares ``tech``'s device types (NMOS by default).
    """
    return FlatWirelist(circuit, name, include_geometry, primitives_for(tech))


def geometry_to_cif(
    geometry: "list[tuple[str, Box]]", channel_layer: bool = False
) -> str:
    """Render a geometry list as the inline CIF strings the format uses.

    The paper prints ``L NX`` for channel geometry (a pseudo-layer) and
    the real mask layer otherwise.
    """
    chunks: list[str] = []
    for layer, box in geometry:
        name = "NX" if channel_layer else layer
        cx2, cy2 = box.xmin + box.xmax, box.ymin + box.ymax
        # Box centers landing on half coordinates are doubled per CIF
        # convention; our lambda grids keep them integral in practice.
        chunks.append(
            f"L {name}; B L{box.width} W{box.height} "
            f"C{cx2 // 2} {cy2 // 2};"
        )
    return " ".join(chunks)


def write_wirelist(wirelist: Wirelist) -> str:
    """Render a wirelist as text in the CMU format."""
    if isinstance(wirelist, FlatWirelist):
        parts: list[str] = []
        circuit = wirelist.circuit
        write_flat(
            parts.append, wirelist.name, wirelist.primitives,
            [circuit.device_columns], [circuit.net_columns],
            wirelist.include_geometry,
        )
        return "".join(parts)
    out = StringIO()
    out.write(_prolog(wirelist.name, wirelist.primitives))
    for part in wirelist.defparts:
        if len(wirelist.defparts) == 1 and part.name == wirelist.name:
            _write_body(out, part, indent=" ")
        else:
            out.write(f" (DefPart {part.name}\n")
            out.write(f"  (Exports {' '.join(part.exports)} )\n")
            _write_body(out, part, indent="  ")
            out.write(" )\n")
    if wirelist.top is not None and len(wirelist.defparts) > 1:
        out.write(f" (Part {wirelist.top} (Name Top))\n")
    out.write(")\n")
    return out.getvalue()


def write_flat(
    write: Callable[[str], object],
    name: str,
    primitives: dict,
    devices: "Iterable[DeviceColumns]",
    nets: "Iterable[NetColumns]",
    include_geometry: bool = False,
) -> None:
    """Write a flat wirelist from chunks of columns, in row order.

    ``devices`` and ``nets`` may be generators: each chunk is formatted
    and handed to ``write`` before the next one is drawn, so a streamed
    caller holds one chunk at a time.
    """
    write(_prolog(name, primitives))
    for chunk in devices:
        write(_device_rows(chunk, include_geometry))
    count = 0
    for chunk in nets:
        write(_net_rows(chunk, include_geometry))
        count += len(chunk)
    write(f" (Local {' '.join(map('N{}'.format, range(1, count + 1)))} )\n)\n")


def _prolog(name: str, primitives: dict) -> str:
    lines = [f'(DefPart "{name}"\n']
    for kind, exports in primitives.items():
        lines.append(f" (DefPart {kind} (Export {' '.join(exports)}))\n")
    return "".join(lines)


def device_text(
    indent: str,
    kind: str,
    inst_name: str,
    location: "tuple[int, int] | None",
    gate: "str | None",
    source: "str | None",
    drain: "str | None",
    length: "float | None",
    width: "float | None",
    channel_cif: "str | None" = None,
) -> str:
    """One ``(Part ...)`` transistor instance."""
    text = f"{indent}(Part {kind} (InstName {inst_name})"
    if location:
        text += f" (Location {location[0]} {location[1]})"
    text += (
        f"\n{indent} (T Gate {gate or 'NONE'})"
        f" (T Source {source or 'NONE'})"
        f" (T Drain {drain or 'NONE'})\n"
    )
    if length is not None and width is not None:
        text += (
            f"{indent} (Channel (Length {_num(length)}) "
            f"(Width {_num(width)})"
        )
        if channel_cif:
            text += f'\n{indent}  ( CIF " {channel_cif} ")'
        text += ")"
    return text + ")\n"


def net_text(
    indent: str,
    names: "list[str]",
    location: "tuple[int, int] | None",
    cif: "str | None" = None,
) -> str:
    """One ``(Net ...)`` declaration."""
    text = f"{indent}(Net {' '.join(names)}"
    if location:
        text += f" (Location {location[0]} {location[1]})"
    if cif:
        text += f'\n{indent} ( CIF " {cif} ")'
    return text + ")\n"


#: The common flat rows -- every terminal present, located, no artwork --
#: which :func:`device_text`/:func:`net_text` would render identically.
_DEVICE_ROW = (
    " (Part %s (InstName D%s) (Location %s %s)\n"
    "  (T Gate N%s) (T Source N%s) (T Drain N%s)\n"
    "  (Channel (Length %s) (Width %s)))\n"
)
_NET_ROW = " (Net N%s (Location %s %s))\n"


def _net_name(index: int) -> "str | None":
    return f"N{index}" if index else None


def _device_rows(cols: DeviceColumns, include_geometry: bool) -> str:
    start = cols.start
    nums = {v: _num(v) for v in {*cols.length, *cols.width}}
    rows = list(
        map(
            _DEVICE_ROW.__mod__,
            zip(
                map(cols.kinds.__getitem__, cols.depletion),
                range(start, start + len(cols)),
                cols.x,
                cols.y,
                cols.gate,
                cols.source,
                cols.drain,
                map(nums.__getitem__, cols.length),
                map(nums.__getitem__, cols.width),
            ),
        )
    )
    # Rows the template gets wrong, found by C-level scans first.
    odd = set(cols.geometry) if include_geometry else set()
    if 0 in cols.gate or 0 in cols.source or 0 in cols.drain:
        terms = zip(cols.gate, cols.source, cols.drain)
        odd.update(i for i, t in enumerate(terms) if 0 in t)
    if None in cols.x:
        odd.update(i for i, x in enumerate(cols.x) if x is None)
    for i in odd:
        geometry = cols.geometry.get(i) if include_geometry else None
        rows[i] = device_text(
            " ",
            cols.kinds[cols.depletion[i]],
            f"D{start + i}",
            cols.location(i),
            _net_name(cols.gate[i]),
            _net_name(cols.source[i]),
            _net_name(cols.drain[i]),
            cols.length[i],
            cols.width[i],
            geometry_to_cif([("__channel__", b) for b in geometry], True)
            if geometry
            else None,
        )
    return "".join(rows)


def _net_rows(cols: NetColumns, include_geometry: bool) -> str:
    first = cols.start + 1
    rows = list(
        map(
            _NET_ROW.__mod__,
            zip(range(first, first + len(cols)), cols.x, cols.y),
        )
    )
    odd = set(cols.names)
    if include_geometry:
        odd.update(cols.geometry)
    if None in cols.x:
        odd.update(i for i, x in enumerate(cols.x) if x is None)
    for i in odd:
        geometry = cols.geometry.get(i) if include_geometry else None
        rows[i] = net_text(
            " ",
            [f"N{first + i}", *cols.names.get(i, ())],
            None if cols.x[i] is None else (cols.x[i], cols.y[i]),
            geometry_to_cif(geometry) if geometry else None,
        )
    return "".join(rows)


def _write_body(out: StringIO, part: DefPart, indent: str) -> None:
    for d in part.devices:
        out.write(
            device_text(
                indent, d.kind, d.inst_name, d.location, d.gate, d.source,
                d.drain, d.length, d.width, d.channel_cif,
            )
        )
    for sub in part.subparts:
        out.write(f"{indent}(Part {sub.part} (Name {sub.inst_name})")
        if sub.loc_offset:
            out.write(f" (LocOffset {sub.loc_offset[0]} {sub.loc_offset[1]})")
        out.write(")\n")
        for child, parent in sub.net_map.items():
            out.write(f"{indent}(Net {sub.inst_name}/{child} {parent})\n")
    for decl in part.nets:
        out.write(net_text(indent, decl.names, decl.location, decl.cif))
    out.write(f"{indent}(Local {' '.join(part.locals_)} )\n")


def _num(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.2f}"
