"""Region-merge flat extractor (the "Cifplot" baseline).

Cifplot (Fitzpatrick 1981) analyzed circuits directly from CIF layouts at
Berkeley; in the paper's Table 5-2 it is the slowest of the three
extractors and gives up beyond ~10k devices.  This baseline reproduces
that algorithm class: fully instantiate the artwork, build whole-chip
*regions* by geometric merging (union-find over box-to-box touch tests,
pruned only by an x-sorted sweep), cut transistor channels out of the
diffusion regions, and read the netlist off the region adjacencies.

Everything is computed on whole-chip box sets -- no scanline, no strips --
which is what makes it simple, memory-hungry, and slow, as the paper
reports.
"""

from __future__ import annotations

from ..cif import Layout
from ..core.assemble import assemble_circuit
from ..core.netlist import Circuit, DeviceRec
from ..core.unionfind import UnionFind
from ..frontend import instantiate
from ..geometry import Box, normalize_region, subtract_region
from ..tech import NMOS, Technology


def extract_polyflat(layout: Layout, tech: Technology | None = None) -> Circuit:
    """Extract ``layout`` by whole-chip region merging."""
    tech = tech or NMOS()
    boxes, labels = instantiate(layout)

    diff = tech.diff
    poly = tech.poly
    metal = tech.metal
    contact = tech.contact
    implant = tech.marker
    buried = tech.buried

    by_layer: dict[str, list[Box]] = {
        name: [] for name in (metal, poly, diff, contact, implant, buried)
    }
    for layer, box in boxes:
        if layer in by_layer:
            by_layer[layer].append(box)

    # Channels: every diffusion-poly overlap, minus buried regions.
    # Normalized so overlapping artwork cannot double-count channel area
    # or terminal perimeter.
    channel_boxes: list[Box] = []
    for dbox in by_layer[diff]:
        for pbox in by_layer[poly]:
            overlap = dbox.intersection(pbox)
            if overlap is not None:
                channel_boxes.extend(
                    subtract_region([overlap], by_layer[buried])
                )
    channel_boxes = normalize_region(channel_boxes)

    # Conducting diffusion: diffusion minus channel regions.
    cond_boxes = subtract_region(by_layer[diff], channel_boxes)

    conducting = {
        metal: by_layer[metal],
        poly: by_layer[poly],
        diff: cond_boxes,
    }

    # Connected components per conducting layer.
    nets = UnionFind()
    net_of: dict[tuple[str, int], int] = {}
    for name, stack in conducting.items():
        components = _components(stack)
        for i in range(len(stack)):
            net_of[(name, i)] = -1  # placeholder
        roots: dict[int, int] = {}
        for i, comp in enumerate(components):
            net = roots.get(comp)
            if net is None:
                net = nets.make()
                roots[comp] = net
            net_of[(name, i)] = net

    # Device components over channel boxes.
    devs = UnionFind()
    channel_comp = _components(channel_boxes)
    dev_of: dict[int, int] = {}
    comp_dev: dict[int, int] = {}
    for i, comp in enumerate(channel_comp):
        dev = comp_dev.get(comp)
        if dev is None:
            dev = devs.make()
            comp_dev[comp] = dev
        dev_of[i] = dev

    dev_rec = {dev: DeviceRec() for dev in comp_dev.values()}
    for i, cbox in enumerate(channel_boxes):
        rec = dev_rec[dev_of[i]]
        rec.area += cbox.area
        rec.geo.append(cbox)
        rec.touch((cbox.ymax, -cbox.xmin))
        for j, pbox in enumerate(by_layer[poly]):
            if cbox.overlaps(pbox):
                rec.gates.add(net_of[(poly, j)])
        for ibox in by_layer[implant]:
            if cbox.overlaps(ibox):
                rec.impl = True
        # Terminals: shared edges with conducting diffusion.
        for j, dbox in enumerate(cond_boxes):
            length = _shared_edge(cbox, dbox)
            if length > 0:
                rec.add_terminal(nets.find(net_of[(diff, j)]), length)

    # Contact cuts and buried contacts.  A cut ties two conductors only
    # where they overlap each other inside the cut (pointwise rule).
    for cut in by_layer[contact]:
        present = [
            (clipped, net_of[(name, i)])
            for name in (metal, poly, diff)
            for i, box in enumerate(conducting[name])
            if (clipped := cut.intersection(box)) is not None
        ]
        for i, (abox, anet) in enumerate(present):
            for bbox2, bnet in present[i + 1 :]:
                if abox.overlaps(bbox2):
                    nets.union(anet, bnet)
    for bbox_ in by_layer[buried]:
        poly_here = [
            (clipped, net_of[(poly, i)])
            for i, box in enumerate(by_layer[poly])
            if (clipped := bbox_.intersection(box)) is not None
        ]
        diff_here = [
            (clipped, net_of[(diff, i)])
            for i, box in enumerate(cond_boxes)
            if (clipped := bbox_.intersection(box)) is not None
        ]
        for pbox, pnet in poly_here:
            for dbox, dnet in diff_here:
                if pbox.overlaps(dbox):
                    nets.union(pnet, dnet)

    # Locations and labels.
    net_loc: dict[int, tuple[int, int]] = {}
    for name, stack in conducting.items():
        for i, box in enumerate(stack):
            net = net_of[(name, i)]
            loc = (box.ymax, -box.xmin)
            if net not in net_loc or loc > net_loc[net]:
                net_loc[net] = loc
    net_names: dict[int, list[str]] = {}
    unattached = []
    for label in labels:
        order = (label.layer,) if label.layer else (metal, poly, diff)
        net = None
        for name in order:
            for i, box in enumerate(conducting.get(name, [])):
                if box.contains_point(label.x, label.y):
                    net = net_of[(name, i)]
                    break
            if net is not None:
                break
        if net is None:
            unattached.append(label)
        else:
            net_names.setdefault(net, []).append(label.name)

    return assemble_circuit(
        tech, nets, devs, net_loc, net_names, dev_rec, unattached
    )


def _components(boxes: list[Box]) -> list[int]:
    """Connected-component label per box (touch = overlap or edge abut).

    The sweep sorts by xmin and compares each box against the ones whose
    x-interval can still reach it -- the pruning Cifplot-era tools used.
    Worst case remains quadratic, which is the point of this baseline.
    """
    order = sorted(range(len(boxes)), key=lambda i: boxes[i].xmin)
    uf = UnionFind()
    for _ in boxes:
        uf.make()
    for pos, i in enumerate(order):
        bi = boxes[i]
        for j in order[pos + 1 :]:
            bj = boxes[j]
            if bj.xmin > bi.xmax:
                break
            if bi.touches(bj):
                uf.union(i, j)
    return [uf.find(i) for i in range(len(boxes))]


def _shared_edge(a: Box, b: Box) -> int:
    """Length of the shared boundary between two non-overlapping boxes."""
    x_overlap = min(a.xmax, b.xmax) - max(a.xmin, b.xmin)
    y_overlap = min(a.ymax, b.ymax) - max(a.ymin, b.ymin)
    if x_overlap == 0 and y_overlap > 0:
        return y_overlap
    if y_overlap == 0 and x_overlap > 0:
        return x_overlap
    return 0

