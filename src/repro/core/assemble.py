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
wirelists.  A window sweep folds with the same functions, and numbers
its records' nets with the same :func:`renumbered`, but sizes nothing.
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


def named_rows(
    names: "dict[int, list[str]]", row_of: "dict[int, int]"
) -> "dict[int, list[str]]":
    """A root-keyed name fold keyed by row (``row_of``), each list
    deduplicated, in row order: the order consumers iterate them in."""
    named = [
        (row_of[root], raw)
        for root, raw in names.items()
        if raw and root in row_of
    ]
    return {row: list(dict.fromkeys(raw)) for row, raw in sorted(named)}


def attach_net_payload(
    nets: NetColumns,
    row_of: "dict[int, int]",
    names: "dict[int, list[str]]",
    geometry: "dict[int, list]",
) -> None:
    """Set the sparse name/artwork columns from root-keyed folds;
    ``row_of`` maps a root to its 0-based row."""
    nets.names.update(named_rows(names, row_of))
    for root, geo in geometry.items():
        if geo and root in row_of:
            nets.geometry[row_of[root]] = geo


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


def renumbered(
    rec: DeviceRec, find: Callable[[int], int], index_of: "dict[int, int]"
) -> "tuple[dict[int, int], set[int]]":
    """A record's terminals and gate nets under ``index_of``'s numbers.

    Net ids resolve through ``find`` (the final union-find) to roots,
    and ``index_of`` numbers the roots; ids of nets it does not number
    drop out, and terminals on one net add up.
    """
    terms: dict[int, int] = {}
    for net, length in rec.terms.items():
        idx = index_of.get(find(net))
        if idx is not None:
            terms[idx] = terms.get(idx, 0) + length
    return terms, {index_of[g] for g in map(find, rec.gates) if g in index_of}


def device_columns(
    records: "Iterable[DeviceRec]",
    find: Callable[[int], int],
    index_of: "dict[int, int]",
    kinds: "tuple[str, str]",
    start: int = 0,
) -> DeviceColumns:
    """Size folded device records (in canonical order) into columns.

    Terminal and gate nets are :func:`renumbered` to ``index_of``'s
    1-based net indices.
    """
    cols = DeviceColumns(kinds=kinds, start=start)
    for row, rec in enumerate(records):
        terms, gate_set = renumbered(rec, find, index_of)
        gates = sorted(gate_set)
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
) -> "tuple[list[int], NetColumns, DeviceColumns]":
    """Fold per-id working state into canonical-order columns.

    Returns what :meth:`~repro.core.stripengine.StripEngine.finalize`
    returns: net roots with location columns, and sized device columns.
    ``net_loc`` maps net id to ``(ymax, -xmin)``
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
    return net_roots, net_columns(net_roots, locations), devices


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
    roots, net_cols, dev_cols = fold_columns(
        net_loc, dev_rec, nets.find, devs.find,
        tech.kinds,
    )
    attach_net_payload(
        net_cols,
        {root: row for row, root in enumerate(roots)},
        nets.fold(net_names),
        {},
    )
    return Circuit(
        warnings=malformed_warnings(dev_cols) + unattached_warnings(unattached),
        net_columns=net_cols,
        device_columns=dev_cols,
    )
