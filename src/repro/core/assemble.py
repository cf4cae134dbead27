"""Shared final assembly of circuit columns from extraction working state.

All the extractors (ACE's scanline, the raster baseline, the region
baseline, HEXT's resolve) and the streamed emitter accumulate the same
working state: net/device union-finds, per-id net locations and one
:class:`~repro.core.netlist.DeviceRec` per device id (the numpy engine
keeps the same state as int columns, and folds it itself).  This
module folds that state into canonical-order
:class:`~repro.core.netlist.NetColumns` /
:class:`~repro.core.netlist.DeviceColumns`, so net numbering, device
ordering, and sizing conventions are identical everywhere -- a
precondition for the netlist-equivalence tests and for byte-identical
wirelists.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable

from .netlist import (
    Circuit,
    DeviceColumns,
    DeviceRec,
    NetColumns,
    malformed_warnings,
    unattached_warnings,
)
from .sizing import size_device
from .unionfind import UnionFind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..frontend.instantiate import PlacedLabel


def fold_locations(
    table: "dict[int, tuple[int, int]]", find: Callable[[int], int]
) -> "dict[int, tuple[int, int]]":
    """Max-fold ``(ymax, -xmin)`` location keys by root."""
    locations: dict[int, tuple[int, int]] = {}
    for ident, loc in table.items():
        root = find(ident)
        current = locations.get(root)
        if current is None or loc > current:
            locations[root] = loc
    return locations


def net_order(locations: "dict[int, tuple[int, int]]") -> list[int]:
    """Canonical net order: topmost, then leftmost, then root id."""
    return sorted(
        locations, key=lambda r: (-locations[r][0], -locations[r][1], r)
    )


def net_columns(
    roots: "list[int]",
    locations: "dict[int, tuple[int, int]]",
    start: int = 0,
) -> NetColumns:
    """Location columns for ``roots`` (already in canonical order)."""
    keys = [locations[r] for r in roots]
    return NetColumns(
        [-nx for _, nx in keys], [y for y, _ in keys], start=start
    )


def attach_net_payload(
    nets: NetColumns,
    index_of: "dict[int, int]",
    names: "dict[int, list[str]]",
    geometry: "dict[int, list]",
) -> None:
    """Set the sparse name/artwork columns from root-keyed folds.

    Names are keyed in row order, the order consumers iterate them in.
    """
    named = [
        (index_of[root] - 1, raw)
        for root, raw in names.items()
        if raw and root in index_of
    ]
    for row, raw in sorted(named):
        nets.names[row] = list(dict.fromkeys(raw))
    for root, geo in geometry.items():
        if geo and root in index_of:
            nets.geometry[index_of[root] - 1] = geo


def fold_records(
    records: "dict[int, DeviceRec]", find: Callable[[int], int]
) -> "dict[int, DeviceRec]":
    """Re-key device records by root, absorbing in table order.

    The first record seen for a root becomes its fold and absorbs the
    rest in place, so the table's records are the caller's to give up.
    """
    folded: dict[int, DeviceRec] = {}
    for ident, rec in records.items():
        root = find(ident)
        into = folded.get(root)
        if into is None:
            folded[root] = rec
        elif into is not rec:
            into.absorb(rec)
    return folded


def device_order(locs: "dict[int, tuple[int, int] | None]") -> list[int]:
    """Canonical device order: topmost, then leftmost, then root id."""
    return sorted(
        locs,
        key=lambda r: ((-locs[r][0], -locs[r][1]) if locs[r] else (0, 0), r),
    )


def device_columns(
    records: "Iterable[DeviceRec]",
    find: Callable[[int], int],
    index_of: "dict[int, int]",
    kinds: "tuple[str, str]",
    start: int = 0,
) -> DeviceColumns:
    """Size folded device records (in canonical order) into columns.

    Terminal and gate net ids resolve through ``find`` (the final
    union-find) and ``index_of`` (root -> 1-based net index); ids of
    nets that are not in the wirelist drop out.
    """
    cols = DeviceColumns(kinds=kinds, start=start)
    for row, rec in enumerate(records):
        terms: dict[int, int] = {}
        for net, length in rec.terms.items():
            idx = index_of.get(find(net))
            if idx is not None:
                terms[idx] = terms.get(idx, 0) + length
        gates = sorted(
            {index_of[g] for g in map(find, rec.gates) if g in index_of}
        )
        loc = rec.loc
        cols.append(
            rec.impl, gates[0] if gates else None,
            size_device(rec.area, terms),
            (-loc[1], loc[0]) if loc else None, rec.area, terms, gates,
        )
        if rec.geo:
            cols.geometry[row] = list(rec.geo)
    return cols


def fold_columns(
    net_loc: "dict[int, tuple[int, int]]",
    dev_rec: "dict[int, DeviceRec]",
    net_find: Callable[[int], int],
    dev_find: Callable[[int], int],
    kinds: "tuple[str, str]",
) -> "tuple[list[int], NetColumns, list[int], DeviceColumns]":
    """Fold per-id working state into canonical-order columns.

    Returns what :meth:`~repro.core.stripengine.StripEngine.finalize`
    returns: net roots with location columns and device roots with
    sized device columns.  ``net_loc`` maps net id to ``(ymax, -xmin)``
    of its topmost-leftmost geometry; ``dev_rec`` maps device id to its
    :class:`~repro.core.netlist.DeviceRec`, whose net ids resolve
    through ``net_find``.
    """
    locations = fold_locations(net_loc, net_find)
    net_roots = net_order(locations)
    index_of = {root: i + 1 for i, root in enumerate(net_roots)}
    folded = fold_records(dev_rec, dev_find)
    dev_roots = device_order({r: rec.loc for r, rec in folded.items()})
    devices = device_columns(
        [folded[r] for r in dev_roots], net_find, index_of, kinds
    )
    return net_roots, net_columns(net_roots, locations), dev_roots, devices


def assemble_circuit(
    tech,
    nets: UnionFind,
    devs: UnionFind,
    net_loc: "dict[int, tuple[int, int]]",
    net_names: "dict[int, list[str]]",
    dev_rec: "dict[int, DeviceRec]",
    unattached: "Iterable[PlacedLabel]",
) -> Circuit:
    """Fold working state (see :func:`fold_columns`) into a Circuit.

    The warnings are the flat finalize's: malformed devices in device
    order, then the ``unattached`` labels.
    """
    roots, net_cols, _, dev_cols = fold_columns(
        net_loc, dev_rec, nets.find, devs.find,
        tech.kinds,
    )
    attach_net_payload(
        net_cols,
        {root: i + 1 for i, root in enumerate(roots)},
        nets.fold(net_names),
        {},
    )
    return Circuit(
        warnings=malformed_warnings(dev_cols) + unattached_warnings(unattached),
        net_columns=net_cols,
        device_columns=dev_cols,
    )
