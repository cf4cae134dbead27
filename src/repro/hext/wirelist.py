"""Hierarchical wirelist output for HEXT results (Figure 2-2).

Each unique fragment becomes one ``DefPart Window<k>``; composed windows
instantiate their children with net maps (the explicit form of the
paper's ``NetOffset`` convention) and record boundary equivalences as
``(Net a b)`` declarations.  Flattening the result reproduces exactly the
circuit :func:`repro.hext.extractor.resolve` computes -- the test suite
checks this through the netlist comparator.
"""

from __future__ import annotations

from ..core.sizing import size_device
from ..tech import Technology
from ..wirelist.model import (
    DefPart,
    DeviceInstance,
    NetDecl,
    SubpartInstance,
    Wirelist,
    primitives_for,
)
from .extractor import HextResult
from .fragment import DeviceRec, Fragment


def to_hierarchical_wirelist(
    result: HextResult, name: str = "chip"
) -> Wirelist:
    """Build the hierarchical wirelist for a HEXT extraction."""
    tech = result.tech
    order = _topological(result.fragment)  # parents strictly before children

    # Propagate referenced-net sets down the DAG: a fragment must export
    # whatever any parent's equivalences, completed devices, or own
    # exports reach into it.
    exports: dict[int, set[int]] = {id(frag): set() for frag in order}
    needed: dict[int, set[int]] = {}
    for frag in order:
        refs = set(exports[id(frag)])
        refs.update(_level_referenced(frag, frag is result.fragment))
        needed[id(frag)] = refs
        for child in frag.children:
            size = child.fragment.net_count
            exports[id(child.fragment)].update(
                i - child.net_offset
                for i in refs
                if child.net_offset <= i < child.net_offset + size
            )

    names = {
        id(frag): f"Window{index}"
        for index, frag in enumerate(reversed(order), start=1)
    }
    parts = [
        _defpart(
            frag,
            names,
            sorted(exports[id(frag)]),
            needed[id(frag)],
            tech,
            include_partials=frag is result.fragment,
        )
        for frag in reversed(order)
    ]
    return Wirelist(
        name=name,
        defparts=parts,
        top=names[id(result.fragment)],
        primitives=primitives_for(tech),
    )


def _level_referenced(frag: Fragment, is_top: bool) -> set[int]:
    """Net ids referenced by this fragment's own level."""
    refs: set[int] = set()
    for a, b in frag.equivalences:
        refs.add(a)
        refs.add(b)
    recs: tuple[DeviceRec, ...] = frag.devices
    if is_top:
        recs = recs + frag.partials
    for rec in recs:
        refs.update(rec.terms)
        refs.update(rec.gates)
    for ident in frag.net_names:
        refs.add(ident)
    return refs


def _topological(root: Fragment) -> list[Fragment]:
    """Unique fragments with every parent before any of its children.

    The reverse of a depth-first postorder, children in composition
    order.  The search keeps an explicit stack: compose chains are as
    deep as the window tree is tall, which can exceed Python's
    recursion limit on big chips.
    """
    postorder: list[Fragment] = []
    visited = {id(root)}
    stack = [(root, iter(root.children))]
    while stack:
        frag, children = stack[-1]
        for child in children:
            sub = child.fragment
            if id(sub) not in visited:
                visited.add(id(sub))
                stack.append((sub, iter(sub.children)))
                break
        else:
            stack.pop()
            postorder.append(frag)
    postorder.reverse()
    return postorder


def _defpart(
    frag: Fragment,
    names: dict[int, str],
    export_ids: list[int],
    referenced: set[int],
    tech: Technology,
    include_partials: bool,
) -> DefPart:
    part = DefPart(name=names[id(frag)])
    part.exports = [f"N{i}" for i in export_ids]

    for inst, child in enumerate(frag.children):
        size = child.fragment.net_count
        child_ids = sorted(
            i - child.net_offset
            for i in referenced
            if child.net_offset <= i < child.net_offset + size
        )
        part.subparts.append(
            SubpartInstance(
                part=names[id(child.fragment)],
                inst_name=f"P{inst + 1}",
                loc_offset=(child.dx, child.dy),
                net_map={
                    f"N{i}": f"N{i + child.net_offset}" for i in child_ids
                },
            )
        )

    for a, b in frag.equivalences:
        part.nets.append(NetDecl(names=[f"N{a}", f"N{b}"]))
    for ident, name_list in frag.net_names.items():
        part.nets.append(NetDecl(names=[f"N{ident}", *name_list]))

    device_recs: list[DeviceRec] = list(frag.devices)
    if include_partials:
        device_recs.extend(frag.partials)
    for i, rec in enumerate(device_recs):
        part.devices.append(_device_instance(rec, i, tech))

    part.locals_ = [f"N{i}" for i in sorted(referenced - set(export_ids))]
    return part


def _device_instance(
    rec: DeviceRec, index: int, tech: Technology
) -> DeviceInstance:
    sized = size_device(rec.area, dict(rec.terms))
    gate = min(rec.gates) if rec.gates else None
    loc = (-rec.loc[1], rec.loc[0]) if rec.loc is not None else None
    return DeviceInstance(
        kind=tech.device_name(rec.impl),
        inst_name=f"D{index}",
        gate=f"N{gate}" if gate is not None else None,
        source=f"N{sized.source}" if sized.source is not None else None,
        drain=f"N{sized.drain}" if sized.drain is not None else None,
        location=loc,
        length=sized.length,
        width=sized.width,
    )
