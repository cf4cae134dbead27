"""The pure-python strip engine: the paper's sweeps as reference code.

This is the always-available :class:`~repro.core.stripengine.StripEngine`
back-end.  The logic is the scanline's original per-interval strip
processing, unchanged -- single merged sweeps over sorted span lists,
union-find calls made interval by interval in x order.  The numpy engine
(:mod:`repro.core.engine_numpy`) replays exactly this order in batch
form; when the two disagree, *this* file is the specification.  HEXT's
window sweeps and every sweep that keeps geometry run only here.
"""

from __future__ import annotations

from typing import Callable, Iterator

from ..frontend.stream import GeometryStream
from ..geometry import Box
from .assemble import (
    device_columns,
    fold_columns,
    fold_locations,
    fold_records,
)
from .netlist import (
    DeviceColumns,
    DeviceRec,
    NetColumns,
    device_from_payload,
    device_payload,
)

from . import scanline as _scan
from .scanline import (
    _intersect_intervals,
    _subtract_channels,
    _subtract_diff,
)
from .stripengine import RetiredDevices, StripEngine
from .unionfind import UnionFind


class PythonStripEngine(StripEngine):
    """Per-strip device/net computation as plain-python sweeps."""

    name = "python"

    def __init__(self, host) -> None:
        super().__init__(host)
        self._prev_diff: list[tuple[int, int, int]] = []
        self._prev_channels: list[tuple[int, int, int]] = []
        self._net_loc: dict[int, tuple[int, int]] = {}  # id -> (ymax, -xmin)
        self._dev: dict[int, DeviceRec] = {}  # device id -> record

    # ------------------------------------------------------------------
    # strip processing (step 2.c)
    # ------------------------------------------------------------------

    def process_strip(
        self, y_lo: int, y_hi: int, stream: GeometryStream
    ) -> None:
        h = self.host
        height = y_hi - y_lo
        nets = h._nets
        find = nets.find
        prev_diff = self._prev_diff
        prev_channels = self._prev_channels

        nd = h._tables[h._diff].spans()
        np_ = h._tables[h._poly].spans()
        nb = h._tables[h._buried].spans()
        ni = h._tables[h._implant].spans()

        # Channels: diffusion AND poly AND NOT buried, remembering the
        # poly interval that forms each gate.
        channels: list[tuple[int, int, int]] = []  # (x1, x2, poly net id)
        buried_holes = [] if "channel-under-buried" in _scan.FAULTS else nb
        if nd and np_:
            channels = _intersect_intervals(nd, np_)
            if buried_holes:
                channels = _subtract_channels(channels, buried_holes)

        # Conducting diffusion: diffusion minus channels.
        if channels:
            cond_bare = _subtract_diff(nd, channels)
        else:
            cond_bare = [(x1, x2) for x1, x2, _ in nd]

        # Assign diffusion nets by vertical adjacency to the strip above;
        # both lists are sorted, so one merged sweep suffices.
        cond: list[tuple[int, int, int]] = []
        n_prev_diff = len(prev_diff)
        net_loc = self._net_loc
        pj = 0
        for x1, x2 in cond_bare:
            while pj < n_prev_diff and prev_diff[pj][1] <= x1:
                pj += 1
            net = None
            k = pj
            while k < n_prev_diff:
                entry = prev_diff[k]
                if entry[0] >= x2:
                    break
                net = entry[2] if net is None else nets.union(net, entry[2])
                k += 1
            if net is None:
                net = nets.make()
                h.stats.nets_created += 1
            # touch the net inline: this runs once per span per strip
            loc = (y_hi, -x1)
            current = net_loc.get(net)
            if current is None or loc > current:
                net_loc[net] = loc
            if h.keep_geometry:
                h._net_geo.setdefault(net, []).append(
                    (h._diff, Box(x1, y_lo, x2, y_hi))
                )
            cond.append((x1, x2, net))

        # Devices: channel spans inherit device identity from above, the
        # implant flag comes from a parallel sweep over the implant list.
        strip_channels: list[tuple[int, int, int]] = []
        n_prev_channels = len(prev_channels)
        n_implant = len(ni)
        cj = ij = 0
        for x1, x2, poly_net in channels:
            while cj < n_prev_channels and prev_channels[cj][1] <= x1:
                cj += 1
            dev = None
            k = cj
            while k < n_prev_channels:
                entry = prev_channels[k]
                if entry[0] >= x2:
                    break
                dev = entry[2] if dev is None else h._devs.union(dev, entry[2])
                k += 1
            if dev is None:
                dev = h._devs.make()
                h.stats.devices_created += 1
                self._dev[dev] = DeviceRec()
            rec = self._dev[h._devs.find(dev)]
            rec.area += (x2 - x1) * height
            rec.gates.add(find(poly_net))
            if h.keep_geometry:
                rec.geo.append(Box(x1, y_lo, x2, y_hi))
            rec.touch((y_hi, -x1))
            while ij < n_implant and ni[ij][1] <= x1:
                ij += 1
            if ij < n_implant and ni[ij][0] < x2:
                rec.impl = True
            strip_channels.append((x1, x2, dev))

        # Terminal contacts.
        if strip_channels:
            if cond:
                # horizontal: conducting diffusion abutting a channel
                # sideways.  Channels and conducting spans partition the
                # diffusion, so abutting pairs are neighbours in the
                # merged x-order -- one zipper walk finds them all.
                self._horizontal_terminals(strip_channels, cond, height)
            # vertical: channel below conducting diffusion of the strip above
            dj = 0
            for cx1, cx2, dev in strip_channels:
                while dj < n_prev_diff and prev_diff[dj][1] <= cx1:
                    dj += 1
                k = dj
                while k < n_prev_diff:
                    px1, px2, pnet = prev_diff[k]
                    if px1 >= cx2:
                        break
                    overlap = min(cx2, px2) - max(cx1, px1)
                    if overlap > 0:
                        self._add_terminal(dev, pnet, overlap)
                    k += 1
        if prev_channels and cond:
            # vertical: conducting diffusion below a channel of the strip above
            pk = 0
            for dx1, dx2, dnet in cond:
                while pk < n_prev_channels and prev_channels[pk][1] <= dx1:
                    pk += 1
                k = pk
                while k < n_prev_channels:
                    px1, px2, pdev = prev_channels[k]
                    if px1 >= dx2:
                        break
                    overlap = min(dx2, px2) - max(dx1, px1)
                    if overlap > 0:
                        self._add_terminal(pdev, dnet, overlap)
                    k += 1

        # Contact cuts union conducting nets wherever the layers overlap
        # both each other and the cut (pointwise, not per cut span).  The
        # cuts are disjoint and sorted, so each conducting list is walked
        # once across all cuts.
        nc = h._tables[h._contact].spans()
        if nc:
            metal = h._tables[h._metal].spans()
            n_metal, n_poly, n_cond = len(metal), len(np_), len(cond)
            mi = pi = di = 0
            for cut in nc:
                cx1, cx2 = cut[0], cut[1]
                present: list[tuple[int, int, int]] = []
                while mi < n_metal and metal[mi][1] <= cx1:
                    mi += 1
                k = mi
                while k < n_metal:
                    iv = metal[k]
                    if iv[0] >= cx2:
                        break
                    present.append(
                        (max(iv[0], cx1), min(iv[1], cx2), iv[2])
                    )
                    k += 1
                while pi < n_poly and np_[pi][1] <= cx1:
                    pi += 1
                k = pi
                while k < n_poly:
                    iv = np_[k]
                    if iv[0] >= cx2:
                        break
                    present.append(
                        (max(iv[0], cx1), min(iv[1], cx2), iv[2])
                    )
                    k += 1
                while di < n_cond and cond[di][1] <= cx1:
                    di += 1
                k = di
                while k < n_cond:
                    dx1, dx2, dnet = cond[k]
                    if dx1 >= cx2:
                        break
                    present.append((max(dx1, cx1), min(dx2, cx2), dnet))
                    k += 1
                present.sort()
                for i, (a1, a2, anet) in enumerate(present):
                    for b1, b2, bnet in present[i + 1 :]:
                        if b1 >= a2:
                            break
                        nets.union(anet, bnet)

        # Buried contacts union poly and diffusion where all three meet;
        # again a single monotone sweep over each sorted list.
        if nb and cond and "buried-skip" not in _scan.FAULTS:
            n_poly, n_cond = len(np_), len(cond)
            bp = bd = 0
            for biv in nb:
                bx1, bx2 = biv[0], biv[1]
                while bp < n_poly and np_[bp][1] <= bx1:
                    bp += 1
                k = bp
                while k < n_poly:
                    iv = np_[k]
                    if iv[0] >= bx2:
                        break
                    px1, px2 = max(iv[0], bx1), min(iv[1], bx2)
                    if px1 < px2:
                        while bd < n_cond and cond[bd][1] <= px1:
                            bd += 1
                        dk = bd
                        while dk < n_cond:
                            dx1, dx2, dnet = cond[dk]
                            if dx1 >= px2:
                                break
                            nets.union(iv[2], dnet)
                            dk += 1
                    k += 1

        h._attach_labels(y_lo, y_hi, stream, lambda: cond)

        if h.window is not None:
            h._capture_boundary(y_lo, y_hi, cond, strip_channels)

        if h.strip_consumers:
            h._feed_consumers(y_lo, y_hi, channels)

        self._prev_diff = cond
        self._prev_channels = strip_channels

    def _horizontal_terminals(
        self,
        strip_channels: list[tuple[int, int, int]],
        cond: list[tuple[int, int, int]],
        height: int,
    ) -> None:
        """Record channel/diffusion side contacts via one zipper walk."""
        i = j = 0
        n_ch, n_co = len(strip_channels), len(cond)
        prev_is_channel = False
        prev_end = None
        prev_ident = None
        while i < n_ch or j < n_co:
            if j >= n_co or (i < n_ch and strip_channels[i][0] < cond[j][0]):
                span, is_channel = strip_channels[i], True
                i += 1
            else:
                span, is_channel = cond[j], False
                j += 1
            if prev_end == span[0] and prev_is_channel != is_channel:
                if is_channel:
                    self._add_terminal(span[2], prev_ident, height)
                else:
                    self._add_terminal(prev_ident, span[2], height)
            prev_is_channel, prev_end, prev_ident = is_channel, span[1], span[2]

    def _add_terminal(self, dev: int, net: int, length: int) -> None:
        h = self.host
        self._dev[h._devs.find(dev)].add_terminal(h._nets.find(net), length)

    def touch_nets(self, sightings: "list[tuple[int, int, int]]") -> None:
        net_loc = self._net_loc
        for net, ymax, nxmin in sightings:
            loc = (ymax, nxmin)
            current = net_loc.get(net)
            if current is None or loc > current:
                net_loc[net] = loc

    # ------------------------------------------------------------------
    # finalize folds (step 3)
    # ------------------------------------------------------------------

    def finalize(
        self, kinds: "tuple[str, str]"
    ) -> "tuple[list[int], NetColumns, DeviceColumns]":
        h = self.host
        return fold_columns(
            self._net_loc, self._dev, h._nets.find, h._devs.find, kinds
        )

    # ------------------------------------------------------------------
    # banded streaming hooks (docs/STREAMING.md)
    # ------------------------------------------------------------------

    def live_roots(self) -> "tuple[set[int], set[int]]":
        h = self.host
        find = h._nets.find
        dev_find = h._devs.find
        return (
            {find(net) for _, _, net in self._prev_diff},
            {dev_find(dev) for _, _, dev in self._prev_channels},
        )

    def retire(
        self, live_nets: "set[int]", live_devs: "set[int]"
    ) -> "tuple[dict[int, tuple[int, int]], dict[int, DeviceRec]]":
        """Dead device roots fold into one :class:`DeviceRec` each."""
        h = self.host
        find = h._nets.find
        dev_find = h._devs.find

        # Net locations: a pure max fold, so live entries can be
        # compacted to one entry per root -- this is what keeps the
        # location table O(live nets) instead of O(nets seen).
        dead_locs: dict[int, tuple[int, int]] = {}
        keep_locs: dict[int, tuple[int, int]] = {}
        for root, loc in fold_locations(self._net_loc, find).items():
            (keep_locs if root in live_nets else dead_locs)[root] = loc
        self._net_loc = keep_locs

        # Device records: dead roots fold in table insertion order (the
        # finalize fold restricted to them); live records stay keyed by
        # their raw ids so future lookups and geometry append order are
        # untouched.
        keep_devs: dict[int, DeviceRec] = {}
        dead: dict[int, DeviceRec] = {}
        for ident, rec in self._dev.items():
            live = dev_find(ident) in live_devs
            (keep_devs if live else dead)[ident] = rec
        self._dev = keep_devs
        return dead_locs, fold_records(dead, dev_find)

    def retired_devices(self) -> "RecordDevices":
        return RecordDevices()


class RecordDevices(RetiredDevices):
    """The reference engine's retired devices: one record per spill row.

    A band's payload is the list of its dead roots' folded records, in
    the order :meth:`PythonStripEngine.retire` returned them, each
    written by :func:`~repro.core.netlist.device_payload`, the codec
    HEXT's fragment cache uses.  Gate and terminal net ids are whatever
    the engine held at retire time -- possibly non-root for nets that
    were still live then -- and emission resolves them through the
    final union-find in :func:`~repro.core.assemble.device_columns`,
    the fold the flat finalize uses.
    """

    def add(self, band: int, batch: "dict[int, DeviceRec]") -> list:
        locs = [rec.loc or (0, 0) for rec in batch.values()]
        self._index(
            band, list(batch), [y for y, _ in locs], [nx for _, nx in locs]
        )
        return [device_payload(rec) for rec in batch.values()]

    def check(self, payload) -> None:
        if not isinstance(payload, list):
            raise ValueError("band devices are not a record list")

    def decode(self, payload: list) -> "list[DeviceRec]":
        return [device_from_payload(item) for item in payload]

    def chunks(
        self,
        step: int,
        band_rows: "Callable[[int], list[DeviceRec]]",
        nets: UnionFind,
        net_roots: "list[int]",
        kinds: "tuple[str, str]",
    ) -> "Iterator[DeviceColumns]":
        index_of = {root: i + 1 for i, root in enumerate(net_roots)}
        root, y, nx, band, row = self.root, self.y, self.nx, self.band, self.row
        order = sorted(range(len(root)), key=lambda i: (-y[i], -nx[i], root[i]))
        for lo in range(0, len(order), step):
            records = [
                band_rows(band[i])[row[i]] for i in order[lo:lo + step]
            ]
            yield device_columns(records, nets.find, index_of, kinds, lo)
