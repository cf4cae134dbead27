"""Incremental wirelist emission from retired (spilled) sweep state.

The in-memory pipeline folds the whole circuit into columns and hands
them to the flat writer (:func:`repro.wirelist.writer.write_flat`).  A
streamed sweep never holds the whole circuit: at the end of the sweep
everything has been retired, and what remains in RAM are the order
keys (net root -> location and spill band; the retired devices' int
columns) plus the union-finds.  This module walks them in canonical
wirelist order and turns every :data:`CHUNK` rows into the same columns
the in-memory finalize builds, for the same writer.  Device rows are
paged in and folded by the retiring engine's format
(:meth:`~repro.core.stripengine.RetiredDevices.chunks`), through the
same fold that engine's finalize uses.  Byte identity with
``write_wirelist(to_wirelist(circuit, ...))`` follows from sharing both
the fold and the writer; the band-equivalence harness enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterator

from ..core.assemble import net_columns, net_order
from ..core.netlist import DeviceColumns, NetColumns, malformed_warnings
from ..core.stripengine import RetiredDevices
from ..core.unionfind import UnionFind
from ..wirelist.writer import write_flat
from .spill import SpillStore

#: rows per column chunk: emission holds one chunk at a time
CHUNK = 1024
#: rows per chunk when artwork is written: each such row's text is
#: O(its geometry), so chunks shrink to keep the buffer O(band)
GEOMETRY_CHUNK = 16


@dataclass
class EmitResult:
    """What emission learned while writing."""

    nets: int = 0
    devices: int = 0
    #: malformed-transistor warnings, in device order
    warnings: list = field(default_factory=list)


def emit_wirelist(
    out: "IO[str]",
    name: str,
    *,
    nets: UnionFind,
    net_locs: "dict[int, tuple[int, int]]",
    net_bands: "dict[int, int]",
    devices: RetiredDevices,
    spill: SpillStore,
    kinds: "tuple[str, str]",
    include_geometry: bool,
    primitives: dict,
) -> EmitResult:
    """Write the flat wirelist for a fully retired sweep.

    ``net_locs`` holds every retired net root's folded location
    ``(ymax, -xmin)`` and ``net_bands`` the spill band holding a root's
    names and artwork (roots with neither have no spill entry at all);
    ``devices`` holds every retired device's order key.
    """
    roots = net_order(net_locs)
    result = EmitResult(nets=len(roots), devices=len(devices))
    step = GEOMETRY_CHUNK if include_geometry else CHUNK

    def device_chunks() -> Iterator[DeviceColumns]:
        for chunk in devices.chunks(step, spill.device_rows, nets, roots, kinds):
            result.warnings.extend(malformed_warnings(chunk))
            yield chunk

    def net_chunks() -> Iterator[NetColumns]:
        for lo in range(0, len(roots), step):
            part = roots[lo:lo + step]
            chunk = net_columns(part, net_locs, start=lo)
            for row, root in enumerate(part):
                band = net_bands.get(root)
                payload = None if band is None else spill.net_payload(band, root)
                if payload and payload["names"]:
                    chunk.names[row] = list(dict.fromkeys(payload["names"]))
                if payload and payload["geo"]:
                    chunk.geometry[row] = payload["geo"]
            yield chunk

    write_flat(
        out.write, name, primitives, device_chunks(), net_chunks(),
        include_geometry,
    )
    return result
