"""Incremental wirelist emission from retired (spilled) sweep state.

The in-memory pipeline folds the whole circuit into columns and hands
them to the flat writer (:func:`repro.wirelist.writer.write_flat`).  A
streamed sweep never holds the whole circuit: at the end of the sweep
everything has been retired, and what remains in RAM are the order-key
maps (net/device root -> location and spill band) plus the union-finds.
This module walks those maps in canonical wirelist order, pages each
root's payload in from the :class:`~repro.streaming.spill.SpillStore`,
and turns every :data:`CHUNK` rows into the same columns the in-memory
finalize builds -- through the same record fold
(:func:`repro.core.assemble.device_columns`) -- for the same writer.
Byte identity with ``write_wirelist(to_wirelist(circuit, ...))`` follows
from sharing both; the band-equivalence harness enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterator

from ..core.assemble import device_columns, device_order, net_columns, net_order
from ..core.netlist import DeviceColumns, NetColumns, malformed_warnings
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
    devs: UnionFind,
    net_locs: "dict[int, tuple[int, int]]",
    dev_locs: "dict[int, tuple[int, int] | None]",
    net_bands: "dict[int, int]",
    dev_bands: "dict[int, int]",
    spill: SpillStore,
    kinds: "tuple[str, str]",
    include_geometry: bool,
    primitives: "dict | None" = None,
) -> EmitResult:
    """Write the flat wirelist for a fully retired sweep.

    ``net_locs``/``dev_locs`` hold every retired root's folded location
    ``(ymax, -xmin)``; ``net_bands``/``dev_bands`` say which spill band
    holds a root's heavy payload (roots with no names and no kept
    geometry have no spill entry at all).
    """
    roots = net_order(net_locs)
    index_of = {root: i + 1 for i, root in enumerate(roots)}
    dev_roots = device_order(dev_locs)
    result = EmitResult(nets=len(roots), devices=len(dev_roots))
    step = GEOMETRY_CHUNK if include_geometry else CHUNK

    def device_chunks() -> Iterator[DeviceColumns]:
        dev_find = devs.find
        for lo in range(0, len(dev_roots), step):
            # Terminal and gate ids were frozen at retire time, possibly
            # before their nets stopped merging; the fold resolves them
            # through the final union-find, as the in-memory finalize does.
            records = [
                spill.device_record(dev_bands[root], dev_find(root))
                for root in dev_roots[lo:lo + step]
            ]
            chunk = device_columns(records, nets.find, index_of, kinds, lo)
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
