"""The vectorized strip-batch engine (the ``repro[fast]`` back-end).

Strategy: per strip, each tracked layer's active intervals are
materialized once as flat ``(x1[], x2[], net[])`` int64 arrays (cached
against the host's per-layer mutation counters, so an unchanged layer is
converted exactly once, not once per strip).  All *geometry* -- channel
intersection, buried subtraction, terminal pairing, implant flags -- is
then computed as batch ``searchsorted``/gather passes over those arrays.

Byte parity with :mod:`repro.core.engine_python` is achieved *by
construction*, not by normalization afterwards:

* every ``UnionFind.make``/``union`` call is issued in exactly the order
  the python engine would issue it.  Fresh span allocation batches via
  :meth:`UnionFind.extend` (identical ids: fresh singletons never
  interact with same-strip unions, and union-by-size reads only the two
  involved roots, so decoupling makes from unions cannot change any
  outcome).  The rare multi-overlap bindings and the contact/buried
  union cascades are replayed as short python loops in sweep order.
* per-device attributes (area, gates, terminals, location, implant) are
  accumulated *columnar* with raw ids and folded by final union-find
  root at finalize.  Deferred resolution is exact because
  ``find_final(x) == find_final(find_t(x))`` and every fold is an
  order-independent reduction (sum, max, OR, set-union).
* the finalize folds themselves (net/device canonical order, terminal
  sums, two-terminal sizing) are vectorized ``lexsort``/``reduceat``
  passes producing the same keys the python engine sorts by, with
  results converted back to native python scalars so downstream float
  formatting is bit-identical.

The host runs HEXT's window sweeps and every sweep that keeps geometry
on the python engine, so this one never captures a window boundary or
keeps artwork.  See docs/ENGINES.md for the full contract.
"""

from __future__ import annotations

import operator
from itertools import chain
from typing import Callable, Iterator

import numpy as np

from ..frontend.stream import GeometryStream
from .netlist import DeviceColumns, NetColumns
from .sizing import size_device

from . import scanline as _scan
from .stripengine import RetiredDevices, StripEngine
from .unionfind import UnionFind

_EMPTY = np.empty(0, dtype=np.int64)


def _sort3(
    p: "np.ndarray", a: "np.ndarray", b: "np.ndarray"
) -> "np.ndarray":
    """Row order ascending by ``(p, a, b)`` -- ``np.lexsort((b, a, p))``.

    When the three value ranges pack into one int64 (virtually always:
    ids and coordinates are far below 2**62 combined), a single-key
    argsort replaces the three stable merge passes of lexsort.  Ties are
    only ever identical rows, so the unstable sort folds identically.
    """
    if p.shape[0] == 0:
        return _EMPTY
    p0 = int(p.min())
    a0, a1 = int(a.min()), int(a.max())
    b0, b1 = int(b.min()), int(b.max())
    sa = a1 - a0 + 1
    sb = b1 - b0 + 1
    if (int(p.max()) - p0 + 1) * sa * sb <= 1 << 62:
        return np.argsort((p - p0) * (sa * sb) + (a - a0) * sb + (b - b0))
    return np.lexsort((b, a, p))


def _resolve_parents(parent: "np.ndarray") -> "np.ndarray":
    """Collapse a raw union-find parent table to roots (vectorized)."""
    while True:
        grand = parent[parent]
        if np.array_equal(grand, parent):
            return parent
        parent = grand


def _flat_targets(
    starts: "np.ndarray", counts: "np.ndarray", total: int
) -> "np.ndarray":
    """Concatenate ``range(starts[i], starts[i] + counts[i])`` for all i."""
    offsets = np.cumsum(counts) - counts
    return (
        np.arange(total, dtype=np.int64)
        - np.repeat(offsets, counts)
        + np.repeat(starts, counts)
    )


def _pair_enum(
    lo: "np.ndarray", hi: "np.ndarray"
) -> "tuple[np.ndarray, np.ndarray]":
    """Flat (source index, target index) pairs for per-span windows.

    The all-singleton case -- every span overlapping exactly one target,
    the steady state of a dense mesh -- skips the repeat/cumsum pipeline
    entirely.
    """
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return _EMPTY, _EMPTY
    n = counts.shape[0]
    if total == n and int(counts.max()) == 1:
        return np.arange(n, dtype=np.int64), lo
    src = np.repeat(np.arange(n, dtype=np.int64), counts)
    tgt = _flat_targets(lo, counts, total)
    return src, tgt


def _overlap_windows(
    x1: "np.ndarray", x2: "np.ndarray", o_x1: "np.ndarray", o_x2: "np.ndarray"
) -> "tuple[np.ndarray, np.ndarray]":
    """Per span ``[x1, x2)``: the index window of strictly overlapping
    spans in the disjoint sorted list ``(o_x1, o_x2)``.

    Strict overlap of ``[a1, a2)`` and ``[b1, b2)`` is ``b2 > a1 and
    b1 < a2``; on disjoint sorted spans both bounds are binary searches.
    """
    lo = np.searchsorted(o_x2, x1, side="right")
    hi = np.searchsorted(o_x1, x2, side="left")
    return lo, np.maximum(hi, lo)


def _subtract_spans(
    s_x1: "np.ndarray",
    s_x2: "np.ndarray",
    h_x1: "np.ndarray",
    h_x2: "np.ndarray",
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Segments minus holes; returns (x1, x2, source segment index).

    Output pieces are in the same order the python engine's merged
    subtraction sweeps emit them: per segment, left to right.
    """
    n_seg = s_x1.shape[0]
    if h_x1.shape[0] == 0:
        return s_x1, s_x2, np.arange(n_seg, dtype=np.int64)
    lo, hi = _overlap_windows(s_x1, s_x2, h_x1, h_x2)
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return s_x1, s_x2, np.arange(n_seg, dtype=np.int64)
    if total == n_seg and int(counts.max()) == 1:
        # One hole per segment and every hole covers its segment whole:
        # the dense-mesh steady state (poly strips where every diffusion
        # span is all channel).  Nothing survives the subtraction.
        cov = (h_x1[lo] <= s_x1) & (h_x2[lo] >= s_x2)
        if cov.all():
            return _EMPTY, _EMPTY, _EMPTY
    h_tgt = _flat_targets(lo, counts, total)
    # Each segment yields counts+1 candidate pieces: (seg_x1 or a hole's
    # x2) up to (the next hole's x1 or seg_x2); empty pieces filter out.
    pieces = counts + 1
    piece_off = np.cumsum(pieces) - pieces
    size = total + n_seg
    starts = np.empty(size, dtype=np.int64)
    ends = np.empty(size, dtype=np.int64)
    starts[piece_off] = s_x1
    ends[piece_off + counts] = s_x2
    seg_idx = np.repeat(np.arange(n_seg, dtype=np.int64), counts)
    local = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    hole_pos = piece_off[seg_idx] + 1 + local
    starts[hole_pos] = h_x2[h_tgt]
    ends[hole_pos - 1] = h_x1[h_tgt]
    piece_seg = np.repeat(np.arange(n_seg, dtype=np.int64), pieces)
    keep = starts < ends
    return starts[keep], ends[keep], piece_seg[keep]


def _concat(chunks: list) -> "list[np.ndarray]":
    """Column-wise concatenation of a list of equal-width array tuples."""
    return [np.concatenate(column) for column in zip(*chunks)]


def _group_max(
    roots: "np.ndarray", ys: "np.ndarray", nxs: "np.ndarray"
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Per root, its largest ``(y, nx)`` key -- the python engine's
    tuple-max; roots ascending."""
    order = _sort3(roots, ys, nxs)
    r_s, y_s, nx_s = roots[order], ys[order], nxs[order]
    last = np.append(np.nonzero(np.diff(r_s))[0], r_s.shape[0] - 1)
    return r_s[last], y_s[last], nx_s[last]


def _canonical(
    roots: "np.ndarray", ys: "np.ndarray", nxs: "np.ndarray"
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Location-folded rows in canonical order: topmost, then leftmost,
    then root id.

    When no root repeats -- a union-free sweep, where the touch filter
    leaves one row per root -- the fold is the identity and the sort by
    root is skipped.
    """
    if roots.shape[0] and int(np.bincount(roots).max()) > 1:
        roots, ys, nxs = _group_max(roots, ys, nxs)
    out = _sort3(-ys, -nxs, roots)
    return roots[out], ys[out], nxs[out]


def _csr(
    group: "np.ndarray", roots: "np.ndarray", n: int
) -> "tuple[np.ndarray, np.ndarray]":
    """CSR pointers and gather rows for root-grouped entries.

    ``group`` holds each entry's device root, ascending; ``roots`` is
    the device order.  Returns ``ptr`` (one offset per device plus one)
    and the entry rows that list each device's entries in that order.
    """
    counts = np.bincount(group, minlength=n)
    first = (np.cumsum(counts) - counts)[roots]
    count = counts[roots]
    ptr = np.zeros(roots.shape[0] + 1, dtype=np.int64)
    np.cumsum(count, out=ptr[1:])
    rows = np.repeat(first - ptr[:-1], count) + np.arange(
        ptr[-1], dtype=np.int64
    )
    return ptr, rows


#: a spill band's per-row device columns, and each CSR pointer column
#: with the value columns it indexes
_ROW_COLUMNS = ("area", "impl")
_CSR_COLUMNS = {
    "term_ptr": ("term_net", "term_len"),
    "gate_ptr": ("gate_net",),
}


def _unique_pairs(
    group: "np.ndarray", value: "np.ndarray", mult: int
) -> "tuple[np.ndarray, np.ndarray]":
    """The distinct ``(group, value)`` pairs, ascending; values lie in
    ``[0, mult)``."""
    keys = group * mult + value
    if keys.shape[0] > 1 and bool(np.all(keys[1:] > keys[:-1])):
        pass  # already strictly increasing: sorted and duplicate-free
    elif keys.shape[0]:
        keys = np.sort(keys)
        keep = np.empty(keys.shape[0], dtype=bool)
        keep[0] = True
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
        keys = keys[keep]
    return keys // mult, keys % mult


def _sum_pairs(
    group: "np.ndarray", value: "np.ndarray", weight: "np.ndarray", mult: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Per distinct ``(group, value)`` pair, ascending, its summed
    ``weight``; values lie in ``[0, mult)``."""
    if group.shape[0] == 0:
        return _EMPTY, _EMPTY, _EMPTY
    keys = group * mult + value
    order = np.argsort(keys, kind="stable")
    k_s = keys[order]
    starts = np.concatenate(([0], np.nonzero(np.diff(k_s))[0] + 1))
    sums = np.add.reduceat(weight[order], starts)
    k_u = k_s[starts]
    return k_u // mult, k_u % mult, sums


def _net_index(nparent: "np.ndarray", roots: "np.ndarray") -> "np.ndarray":
    """Each net id's 1-based wirelist index: its resolved root's place
    in ``roots`` (canonical order), 0 for a root not there."""
    index = np.zeros(max(nparent.shape[0], 1), dtype=np.int64)
    index[roots] = np.arange(1, roots.shape[0] + 1, dtype=np.int64)
    return index[nparent]


def _fold_devices(
    kinds: "tuple[str, str]",
    keys: "np.ndarray",
    n_keys: int,
    area: "np.ndarray",
    impl: "np.ndarray",
    loc_y: "np.ndarray",
    loc_nx: "np.ndarray",
    terms: "tuple[np.ndarray, np.ndarray, np.ndarray]",
    gates: "tuple[np.ndarray, np.ndarray]",
    n_nets: int,
    start: int = 0,
) -> DeviceColumns:
    """Sized device columns, one row per entry of ``keys``.

    ``keys`` names each row's device by a key in ``[0, n_keys)``;
    ``area``, the implant flag ``impl`` and the ``(ymax, -xmin)``
    location ``loc_y``/``loc_nx`` are already in row order.  ``terms``
    holds ``(key, net, perimeter)`` contact entries and ``gates``
    ``(key, net)`` entries, nets as 1-based wirelist indices up to
    ``n_nets`` and 0 for a net outside the wirelist, which drops out.
    Terminals sum per (device, net) and gate nets are made unique, both
    ascending by net -- the python engine's record fold -- and
    two-terminal devices are sized in one vectorized pass; any other
    terminal count goes through :func:`size_device`.  The flat finalize
    and streamed emission both fold through here.
    """
    mult = n_nets + 2
    t_key, t_net, t_len = terms
    known = t_net > 0
    t_dev, t_idx, t_sum = _sum_pairs(
        t_key[known], t_net[known], t_len[known], mult
    )
    g_key, g_net = gates
    known = g_net > 0
    g_dev, g_idx = _unique_pairs(g_key[known], g_net[known], mult)

    # CSR in row order: both grouped arrays are sorted by key, so a
    # bincount plus exclusive prefix sum gives each key's slice,
    # gathered into row order in one fancy index.
    t_ptr, t_rows = _csr(t_dev, keys, n_keys)
    g_ptr, g_rows = _csr(g_dev, keys, n_keys)
    term_net, term_len = t_idx[t_rows], t_sum[t_rows]
    gate_net = g_idx[g_rows]
    t_count = np.diff(t_ptr)
    g_count = np.diff(g_ptr)

    # vectorized two-terminal sizing (the overwhelming common case);
    # other terminal counts are re-sized per row below.
    n_out = keys.shape[0]
    if term_net.shape[0]:
        guard = term_net.shape[0] - 1
        i0 = np.minimum(t_ptr[:-1], guard)
        i1 = np.minimum(t_ptr[:-1] + 1, guard)
        n1, p1 = term_net[i0], term_len[i0]
        n2, p2 = term_net[i1], term_len[i1]
        swap = p1 < p2  # grouped ascending by net index: n1 < n2
        source = np.where(swap, n2, n1)
        drain = np.where(swap, n1, n2)
        width = (p1 + p2) / 2.0
        length = np.divide(
            area,
            width,
            out=np.zeros(n_out, dtype=np.float64),
            where=width > 0,
        )
    else:
        source = drain = np.zeros(n_out, dtype=np.int64)
        width = length = np.zeros(n_out, dtype=np.float64)
    if gate_net.shape[0]:
        gate = np.where(
            g_count > 0,
            gate_net[np.minimum(g_ptr[:-1], gate_net.shape[0] - 1)],
            0,
        )
    else:
        gate = np.zeros(n_out, dtype=np.int64)

    devices = DeviceColumns(
        kinds,
        impl.tolist(),
        gate.tolist(),
        source.tolist(),
        drain.tolist(),
        length.tolist(),
        width.tolist(),
        np.negative(loc_nx).tolist(),
        loc_y.tolist(),
        area.tolist(),
        t_ptr.tolist(),
        term_net.tolist(),
        term_len.tolist(),
        g_ptr.tolist(),
        gate_net.tolist(),
        start=start,
    )
    # rows outside the two-terminal template
    for row in np.nonzero(t_count != 2)[0].tolist():
        sized = size_device(devices.area[row], devices.device(row).terminals)
        devices.source[row] = sized.source or 0
        devices.drain[row] = sized.drain or 0
        devices.length[row] = sized.length
        devices.width[row] = sized.width
    return devices


class NumpyStripEngine(StripEngine):
    """Step 2.c and the finalize folds as numpy batch passes."""

    name = "numpy"

    def __init__(self, host) -> None:
        super().__init__(host)
        #: layer -> (host version, (x1[], x2[], net[]) arrays)
        self._cache: dict[str, tuple[int, tuple]] = {}
        # previous strip state, as flat arrays
        self._pv_dx1 = self._pv_dx2 = self._pv_dnet = _EMPTY
        self._pv_cx1 = self._pv_cx2 = self._pv_cdev = _EMPTY
        # columnar accumulators: net location touches
        self._tn_scalar: list[tuple[int, int, int]] = []  # (id, y, -x)
        self._tn_chunks: list[tuple] = []  # (ids[], y[], -x[])
        self._touched = np.zeros(0, dtype=bool)  # ids already best-touched
        # columnar accumulators: device attributes, raw ids throughout
        self._area_chunks: list[tuple] = []  # (dev[], area[])
        self._gate_chunks: list[tuple] = []  # (dev[], poly net[])
        self._loc_chunks: list[tuple] = []  # (dev[], y[], -x[])
        self._impl_chunks: list = []  # dev[]
        self._term_chunks: list[tuple] = []  # (dev[], net[], length[])

    # ------------------------------------------------------------------
    # layer materialization
    # ------------------------------------------------------------------

    def _layer(self, layer: str) -> tuple:
        """The layer's live intervals as ``(x1[], x2[], net[])``.

        One C-level gather from the host's columnar buffers per change:
        the result is cached against the table's version counter, and
        column cells are immutable after allocation (merges allocate new
        rows and bump the version), so a cached view stays exact.  The
        ``np.frombuffer`` views are transient -- fancy indexing copies
        the live subset out, releasing the ``array('q')`` buffer before
        the host appends to it again.
        """
        t = self.host._tables[layer]
        version = t.version
        cached = self._cache.get(layer)
        if cached is not None and cached[0] == version:
            return cached[1]
        if t.order:
            idx = np.array(t.order, dtype=np.int64)
            x1 = np.frombuffer(t.x1, dtype=np.int64)[idx]
            x2 = np.frombuffer(t.x2, dtype=np.int64)[idx]
            if layer in self.host._net_layers:
                net = np.frombuffer(t.net, dtype=np.int64)[idx]
            else:
                net = _EMPTY
            arrays = (x1, x2, net)
        else:
            arrays = (_EMPTY, _EMPTY, _EMPTY)
        self._cache[layer] = (version, arrays)
        return arrays

    # ------------------------------------------------------------------
    # strip processing (step 2.c)
    # ------------------------------------------------------------------

    def process_strip(
        self, y_lo: int, y_hi: int, stream: GeometryStream
    ) -> None:
        h = self.host
        height = y_hi - y_lo
        faults = _scan.FAULTS

        dx1, dx2, _ = self._layer(h._diff)
        px1, px2, pnet = self._layer(h._poly)

        # Channels: diffusion AND poly AND NOT buried, remembering the
        # poly span that forms each gate.  Pair enumeration per diffusion
        # span in ascending (diff, poly) order matches the reference
        # engine's merged sweep output order.
        ch_x1 = ch_x2 = ch_net = _EMPTY
        if dx1.shape[0] and px1.shape[0]:
            lo, hi = _overlap_windows(dx1, dx2, px1, px2)
            d_src, p_tgt = _pair_enum(lo, hi)
            if d_src.shape[0]:
                ch_x1 = np.maximum(dx1[d_src], px1[p_tgt])
                ch_x2 = np.minimum(dx2[d_src], px2[p_tgt])
                ch_net = pnet[p_tgt]
                if "channel-under-buried" not in faults:
                    bx1, bx2, _ = self._layer(h._buried)
                    if bx1.shape[0]:
                        ch_x1, ch_x2, src = _subtract_spans(
                            ch_x1, ch_x2, bx1, bx2
                        )
                        ch_net = ch_net[src]

        # Conducting diffusion: diffusion minus channels.
        if ch_x1.shape[0]:
            cond_x1, cond_x2, _ = _subtract_spans(dx1, dx2, ch_x1, ch_x2)
        else:
            cond_x1, cond_x2 = dx1, dx2

        # Bind conducting spans to nets by vertical adjacency, channels
        # to device ids -- batch for the fresh/single-overlap common
        # case.
        cond_net = self._bind(
            cond_x1, cond_x2, self._pv_dx1, self._pv_dx2, self._pv_dnet,
            h._nets, "nets_created",
        )
        ch_dev = self._bind(
            ch_x1, ch_x2, self._pv_cx1, self._pv_cx2, self._pv_cdev,
            h._devs, "devices_created",
        )
        if cond_net.shape[0]:
            # Strips sweep strictly downward, so once an id has been
            # touched its later (lower-y) touches can never win the
            # per-root location max -- drop them at the source to keep
            # the finalize lexsort input near the net count instead of
            # nets x strips.
            touched = self._touched
            n_nets = len(h._nets)
            if touched.shape[0] < n_nets:
                grown = np.zeros(
                    max(n_nets, touched.shape[0] * 2), dtype=bool
                )
                grown[: touched.shape[0]] = touched
                self._touched = touched = grown
            fresh = ~touched[cond_net]
            if fresh.all():
                touched[cond_net] = True
                self._tn_chunks.append(
                    (
                        cond_net,
                        np.full(cond_net.shape[0], y_hi, dtype=np.int64),
                        -cond_x1,
                    )
                )
            elif fresh.any():
                ids = cond_net[fresh]
                touched[ids] = True
                self._tn_chunks.append(
                    (
                        ids,
                        np.full(ids.shape[0], y_hi, dtype=np.int64),
                        -cond_x1[fresh],
                    )
                )

        n_ch = ch_dev.shape[0]
        n_cond = cond_net.shape[0]

        # Device attribute columns for this strip's channel spans.
        if n_ch:
            self._area_chunks.append((ch_dev, (ch_x2 - ch_x1) * height))
            self._gate_chunks.append((ch_dev, ch_net))
            self._loc_chunks.append(
                (
                    ch_dev,
                    np.full(n_ch, y_hi, dtype=np.int64),
                    -ch_x1,
                )
            )
            ix1, ix2, _ = self._layer(h._implant)
            if ix1.shape[0]:
                ilo, ihi = _overlap_windows(ch_x1, ch_x2, ix1, ix2)
                flagged = ihi > ilo
                if flagged.any():
                    self._impl_chunks.append(ch_dev[flagged])

        # Terminal contacts.
        if n_ch:
            if n_cond:
                # horizontal: channels and conducting spans partition
                # the diffusion, so an abutting pair shares an endpoint
                # exactly -- two exact-match searches replace the zipper.
                last = n_cond - 1
                pos = np.minimum(
                    np.searchsorted(cond_x2, ch_x1), last
                )
                m = cond_x2[pos] == ch_x1
                if m.any():
                    self._term_chunks.append(
                        (
                            ch_dev[m],
                            cond_net[pos[m]],
                            np.full(int(m.sum()), height, dtype=np.int64),
                        )
                    )
                pos = np.minimum(
                    np.searchsorted(cond_x1, ch_x2), last
                )
                m = cond_x1[pos] == ch_x2
                if m.any():
                    self._term_chunks.append(
                        (
                            ch_dev[m],
                            cond_net[pos[m]],
                            np.full(int(m.sum()), height, dtype=np.int64),
                        )
                    )
            # vertical: channel below conducting diffusion of the strip above
            if self._pv_dx1.shape[0]:
                lo, hi = _overlap_windows(
                    ch_x1, ch_x2, self._pv_dx1, self._pv_dx2
                )
                src, tgt = _pair_enum(lo, hi)
                if src.shape[0]:
                    overlap = np.minimum(
                        ch_x2[src], self._pv_dx2[tgt]
                    ) - np.maximum(ch_x1[src], self._pv_dx1[tgt])
                    self._term_chunks.append(
                        (ch_dev[src], self._pv_dnet[tgt], overlap)
                    )
        if self._pv_cx1.shape[0] and n_cond:
            # vertical: conducting diffusion below a channel of the strip above
            lo, hi = _overlap_windows(
                cond_x1, cond_x2, self._pv_cx1, self._pv_cx2
            )
            src, tgt = _pair_enum(lo, hi)
            if src.shape[0]:
                overlap = np.minimum(
                    cond_x2[src], self._pv_cx2[tgt]
                ) - np.maximum(cond_x1[src], self._pv_cx1[tgt])
                self._term_chunks.append(
                    (self._pv_cdev[tgt], cond_net[src], overlap)
                )

        # Contact cuts: batch-clip every (cut x conducting layer) overlap
        # into per-cut entry lists, then replay the reference engine's
        # sorted pairwise union cascade per cut.
        if h._tables[h._contact].order:
            self._contact_unions(cond_x1, cond_x2, cond_net)

        # Buried contacts: poly x buried x conducting triple overlaps,
        # unions replayed in (buried, poly, cond) sweep order.
        if (
            h._tables[h._buried].order
            and n_cond
            and px1.shape[0]
            and "buried-skip" not in faults
        ):
            bx1, bx2, _ = self._layer(h._buried)
            lo, hi = _overlap_windows(bx1, bx2, px1, px2)
            b_src, p_tgt = _pair_enum(lo, hi)
            if b_src.shape[0]:
                q1 = np.maximum(px1[p_tgt], bx1[b_src])
                q2 = np.minimum(px2[p_tgt], bx2[b_src])
                q_net = pnet[p_tgt]
                lo2, hi2 = _overlap_windows(q1, q2, cond_x1, cond_x2)
                src2, tgt2 = _pair_enum(lo2, hi2)
                if src2.shape[0]:
                    union = h._nets.union
                    for a, b in zip(
                        q_net[src2].tolist(), cond_net[tgt2].tolist()
                    ):
                        union(a, b)

        h._attach_labels(
            y_lo,
            y_hi,
            stream,
            lambda: list(
                zip(cond_x1.tolist(), cond_x2.tolist(), cond_net.tolist())
            ),
        )

        if h.strip_consumers:
            h._feed_consumers(
                y_lo,
                y_hi,
                list(zip(ch_x1.tolist(), ch_x2.tolist(), ch_net.tolist())),
            )

        self._pv_dx1, self._pv_dx2, self._pv_dnet = cond_x1, cond_x2, cond_net
        self._pv_cx1, self._pv_cx2, self._pv_cdev = ch_x1, ch_x2, ch_dev

    # ------------------------------------------------------------------
    # net / device binding
    # ------------------------------------------------------------------

    def _bind(
        self,
        x1: "np.ndarray",
        x2: "np.ndarray",
        pv_x1: "np.ndarray",
        pv_x2: "np.ndarray",
        pv_id: "np.ndarray",
        uf,
        counter: str,
    ) -> "np.ndarray":
        """Assign each span the id inherited from strip-above overlaps.

        Fresh spans (no overlap) batch-allocate via ``extend`` -- the
        ids equal what interleaved ``make`` calls would return, because
        unions never involve same-strip fresh singletons.  Multi-overlap
        spans replay their union chains in ascending span order.
        """
        n = x1.shape[0]
        if n == 0:
            return _EMPTY
        h = self.host
        if pv_x1.shape[0] == 0:
            base = uf.extend(n)
            setattr(h.stats, counter, getattr(h.stats, counter) + n)
            return np.arange(base, base + n, dtype=np.int64)
        lo, hi = _overlap_windows(x1, x2, pv_x1, pv_x2)
        fresh = hi <= lo
        out = np.empty(n, dtype=np.int64)
        n_fresh = int(fresh.sum())
        if n_fresh:
            base = uf.extend(n_fresh)
            setattr(h.stats, counter, getattr(h.stats, counter) + n_fresh)
            out[fresh] = base - 1 + np.cumsum(fresh, dtype=np.int64)[fresh]
        if n_fresh < n:
            bound = np.nonzero(~fresh)[0]
            lo_l = lo[bound].tolist()
            hi_l = hi[bound].tolist()
            pv = pv_id.tolist()
            union = uf.union
            values = []
            for a, b in zip(lo_l, hi_l):
                ident = pv[a]
                for j in range(a + 1, b):
                    ident = union(ident, pv[j])
                values.append(ident)
            out[bound] = values
        return out

    # ------------------------------------------------------------------
    # contact cuts
    # ------------------------------------------------------------------

    def _contact_unions(
        self,
        cond_x1: "np.ndarray",
        cond_x2: "np.ndarray",
        cond_net: "np.ndarray",
    ) -> None:
        h = self.host
        cx1, cx2, _ = self._layer(h._contact)
        n_cuts = cx1.shape[0]
        entries = []
        mx1, mx2, mnet = self._layer(h._metal)
        px1, px2, pnet = self._layer(h._poly)
        for lx1, lx2, lnet in (
            (mx1, mx2, mnet),
            (px1, px2, pnet),
            (cond_x1, cond_x2, cond_net),
        ):
            if lx1.shape[0] == 0:
                continue
            lo, hi = _overlap_windows(cx1, cx2, lx1, lx2)
            counts = hi - lo
            total = int(counts.sum())
            if not total:
                continue
            cut_idx = np.repeat(np.arange(n_cuts), counts)
            tgt = _flat_targets(lo, counts, total)
            entries.append(
                (
                    cut_idx,
                    np.maximum(lx1[tgt], cx1[cut_idx]),
                    np.minimum(lx2[tgt], cx2[cut_idx]),
                    lnet[tgt],
                )
            )
        if not entries:
            return
        cut_i = np.concatenate([e[0] for e in entries])
        a1 = np.concatenate([e[1] for e in entries])
        a2 = np.concatenate([e[2] for e in entries])
        an = np.concatenate([e[3] for e in entries])
        # Per cut, the reference engine sorts its present-entry tuples
        # (x1, x2, net) and unions pairs until x-overlap stops; the
        # lexsort reproduces that sort, the loop replays the cascade.
        order = np.lexsort((an, a2, a1, cut_i))
        ci = cut_i[order].tolist()
        s1 = a1[order].tolist()
        s2 = a2[order].tolist()
        sn = an[order].tolist()
        union = h._nets.union
        m = len(ci)
        i = 0
        while i < m:
            cut = ci[i]
            j = i + 1
            while j < m and ci[j] == cut:
                j += 1
            for a in range(i, j):
                end = s2[a]
                for b in range(a + 1, j):
                    if s1[b] >= end:
                        break
                    union(sn[a], sn[b])
            i = j

    # ------------------------------------------------------------------
    # net location accumulation
    # ------------------------------------------------------------------

    def touch_nets(self, sightings: "list[tuple[int, int, int]]") -> None:
        self._tn_scalar += sightings

    # ------------------------------------------------------------------
    # finalize folds (step 3)
    # ------------------------------------------------------------------

    def finalize(
        self, kinds: "tuple[str, str]"
    ) -> "tuple[list[int], NetColumns, DeviceColumns]":
        h = self.host
        nparent, order_roots, nets = self._net_columns()
        n_dev = len(h._devs)
        if n_dev == 0:
            return order_roots.tolist(), nets, DeviceColumns(kinds)
        dparent = _resolve_parents(
            np.array(h._devs.parent_snapshot(), dtype=np.int64)
        )

        # location fold -> canonical device order
        l_ids, l_y, l_nx = _concat(self._loc_chunks)
        dev_roots, loc_y, loc_nx = _canonical(dparent[l_ids], l_y, l_nx)

        # area / implant folds (raw ids -> final roots).  bincount sums
        # in float64, which is exact for these magnitudes (areas are far
        # below 2**53), so the int64 round-trip loses nothing.
        a_ids, a_vals = _concat(self._area_chunks)
        areas = np.bincount(
            dparent[a_ids], weights=a_vals, minlength=n_dev
        ).astype(np.int64)
        impl = np.zeros(n_dev, dtype=bool)
        for ids in self._impl_chunks:
            impl[dparent[ids]] = True

        net_of = _net_index(nparent, order_roots)
        if self._term_chunks:
            td, tn, tl = _concat(self._term_chunks)
            terms = (dparent[td], net_of[tn], tl)
        else:
            terms = (_EMPTY, _EMPTY, _EMPTY)
        if self._gate_chunks:
            gd, gn = _concat(self._gate_chunks)
            gates = (dparent[gd], net_of[gn])
        else:
            gates = (_EMPTY, _EMPTY)
        devices = _fold_devices(
            kinds, dev_roots, n_dev, areas[dev_roots], impl[dev_roots],
            loc_y, loc_nx, terms, gates, order_roots.shape[0],
        )
        return order_roots.tolist(), nets, devices

    def _net_columns(self) -> "tuple[np.ndarray, np.ndarray, NetColumns]":
        """Resolved net parents, net roots in canonical order, and their
        location columns."""
        parent = np.array(self.host._nets.parent_snapshot(), dtype=np.int64)
        if parent.shape[0]:
            parent = _resolve_parents(parent)
        chunks = self._touch_chunks()
        if not chunks or parent.shape[0] == 0:
            return parent, _EMPTY, NetColumns()
        ids, ys, nxs = _concat(chunks)
        roots, ys, nxs = _canonical(parent[ids], ys, nxs)
        return parent, roots, NetColumns(np.negative(nxs).tolist(), ys.tolist())

    def _touch_chunks(self) -> list:
        """Net location touches: the engine's chunks plus the host's
        scalar sightings as one more chunk."""
        chunks = list(self._tn_chunks)
        if self._tn_scalar:
            # fromiter over the flattened tuples takes about half the
            # time of np.array, which inspects each tuple as a sequence.
            count = 3 * len(self._tn_scalar)
            flat = np.fromiter(
                chain.from_iterable(self._tn_scalar), np.int64, count
            )
            chunks.append((flat[0::3], flat[1::3], flat[2::3]))
        return chunks

    # ------------------------------------------------------------------
    # banded streaming hooks (docs/STREAMING.md)
    # ------------------------------------------------------------------

    def live_roots(self) -> "tuple[set[int], set[int]]":
        h = self.host
        find = h._nets.find
        dev_find = h._devs.find
        return (
            {find(n) for n in self._pv_dnet.tolist()},
            {dev_find(d) for d in self._pv_cdev.tolist()},
        )

    def retire(
        self, live_nets: "set[int]", live_devs: "set[int]"
    ) -> "tuple[dict[int, tuple[int, int]], dict[str, np.ndarray]]":
        """Dead device roots fold into one row each of a band's columns
        (see :class:`ColumnDevices`)."""
        h = self.host
        n_nets = len(h._nets)
        n_devs = len(h._devs)
        nparent = (
            _resolve_parents(
                np.array(h._nets.parent_snapshot(), dtype=np.int64)
            )
            if n_nets
            else _EMPTY
        )
        dparent = (
            _resolve_parents(
                np.array(h._devs.parent_snapshot(), dtype=np.int64)
            )
            if n_devs
            else _EMPTY
        )
        net_live = np.zeros(max(n_nets, 1), dtype=bool)
        if live_nets:
            net_live[
                np.fromiter(live_nets, np.int64, len(live_nets))
            ] = True
        dev_live = np.zeros(max(n_devs, 1), dtype=bool)
        if live_devs:
            dev_live[
                np.fromiter(live_devs, np.int64, len(live_devs))
            ] = True

        # Net locations: resolve and group-max every accumulated touch
        # row by root (deferred folds are order-independent maxima), then
        # split by liveness.  Live rows collapse to one row per root --
        # valid because max-of-max is the same max -- which is what keeps
        # the accumulators O(live) between bands.
        dead_locs: dict[int, tuple[int, int]] = {}
        chunks = self._touch_chunks()
        self._tn_scalar = []
        self._tn_chunks = []
        if chunks:
            ids, ys, nxs = _concat(chunks)
            g_root, g_y, g_nx = _group_max(nparent[ids], ys, nxs)
            alive = net_live[g_root]
            dead = ~alive
            for r, y, nx in zip(
                g_root[dead].tolist(),
                g_y[dead].tolist(),
                g_nx[dead].tolist(),
            ):
                dead_locs[r] = (y, nx)
            if alive.any():
                self._tn_chunks = [
                    (g_root[alive], g_y[alive], g_nx[alive])
                ]

        # Device attribute columns: rows of dead roots fold into one
        # spill row per root; rows of live roots stay raw (their
        # final-root resolution is unaffected by when it happens).
        def dead_rows(chunks: list) -> "tuple[np.ndarray, list, list]":
            """Split a chunk list by its rows' device-root liveness: the
            dead rows' roots and other columns, and the live rows as one
            compacted chunk (none when every row is dead)."""
            ids, *cols = _concat(chunks)
            roots = dparent[ids]
            alive = dev_live[roots]
            kept = [(ids[alive], *(c[alive] for c in cols))] if alive.any() else []
            dead = ~alive
            return roots[dead], [c[dead] for c in cols], kept

        # Every channel span adds a location row, so the dead location
        # rows name every dead device: their roots, ascending, are the
        # band's spill rows, and ``at`` maps a root to its row.
        root = loc_y = loc_nx = _EMPTY
        if self._loc_chunks:
            roots, (ys, nxs), self._loc_chunks = dead_rows(self._loc_chunks)
            if roots.shape[0]:
                root, loc_y, loc_nx = _group_max(roots, ys, nxs)
        n = root.shape[0]
        rows = np.arange(n, dtype=np.int64)

        def at(roots: "np.ndarray") -> "np.ndarray":
            return np.searchsorted(root, roots)

        area = np.zeros(n, dtype=np.int64)
        if self._area_chunks:
            roots, (vals,), self._area_chunks = dead_rows(self._area_chunks)
            area = np.bincount(
                at(roots), weights=vals, minlength=n
            ).astype(np.int64)
        impl = np.zeros(n, dtype=np.int64)
        if self._impl_chunks:
            roots, _, kept = dead_rows([(ids,) for ids in self._impl_chunks])
            impl[at(roots)] = 1
            self._impl_chunks = [ids for (ids,) in kept]
        # Terminal and gate nets are keyed by their retire-time roots.
        mult = n_nets + 1
        t_row = t_net = t_len = _EMPTY
        if self._term_chunks:
            roots, (tnets, lens), self._term_chunks = dead_rows(
                self._term_chunks
            )
            t_row, t_net, t_len = _sum_pairs(
                at(roots), nparent[tnets], lens, mult
            )
        g_row = g_net = _EMPTY
        if self._gate_chunks:
            roots, (gnets,), self._gate_chunks = dead_rows(self._gate_chunks)
            g_row, g_net = _unique_pairs(at(roots), nparent[gnets], mult)
        batch = {
            "root": root,
            "y": loc_y,
            "nx": loc_nx,
            "area": area,
            "impl": impl,
            "term_ptr": _csr(t_row, rows, n)[0],
            "term_net": t_net,
            "term_len": t_len,
            "gate_ptr": _csr(g_row, rows, n)[0],
            "gate_net": g_net,
        }
        return dead_locs, batch

    def retired_devices(self) -> "ColumnDevices":
        return ColumnDevices()

def _gather(
    cols: "dict[str, np.ndarray]", ptr_name: str, rows: "np.ndarray",
    at: "np.ndarray",
) -> "tuple[np.ndarray, ...]":
    """The CSR entries of band ``rows``: each entry's chunk position
    (from ``at``, aligned with ``rows``), then its value columns."""
    ptr = cols[ptr_name]
    first = ptr[rows]
    count = ptr[rows + 1] - first
    idx = _flat_targets(first, count, int(count.sum()))
    return (
        np.repeat(at, count),
        *(cols[name][idx] for name in _CSR_COLUMNS[ptr_name]),
    )


class ColumnDevices(RetiredDevices):
    """The numpy engine's retired devices: int columns per spill band.

    One row per dead device root, ascending by root: ``area``, the
    implant flag ``impl``, CSR terminals (``term_ptr`` into
    ``term_net``/``term_len``, summed per retire-time net root), CSR
    gate nets (``gate_ptr`` into ``gate_net``, unique retire-time
    roots).  No column carries artwork: a sweep that keeps it runs on
    the python engine.  The location lives only in the order keys.
    Emission gathers each chunk's rows from their bands, resolves their
    nets through the final union-find, and folds them with
    :func:`_fold_devices`, the flat finalize's fold.
    """

    def add(self, band: int, batch: "dict[str, np.ndarray]") -> dict:
        self._index(
            band,
            batch["root"].tolist(),
            batch["y"].tolist(),
            batch["nx"].tolist(),
        )
        return {
            name: col.tolist()
            for name, col in batch.items()
            if name not in ("root", "y", "nx")
        }

    def check(self, payload) -> None:
        if not isinstance(payload, dict):
            raise ValueError("band devices are not columns")
        for name in (
            *_ROW_COLUMNS,
            *_CSR_COLUMNS,
            *chain.from_iterable(_CSR_COLUMNS.values()),
        ):
            if not isinstance(payload.get(name), list):
                raise ValueError(f"device column {name} is missing")
        n = len(payload["area"])
        if len(payload["impl"]) != n:
            raise ValueError("device columns area and impl differ in length")
        for ptr_name, values in _CSR_COLUMNS.items():
            ptr = payload[ptr_name]
            if (
                len(ptr) != n + 1
                or ptr[0] != 0
                or {len(payload[v]) for v in values} != {ptr[-1]}
                or not all(map(operator.le, ptr, ptr[1:]))
            ):
                raise ValueError(
                    f"device column {ptr_name} does not index "
                    f"{', '.join(values)}"
                )

    def decode(self, payload: dict) -> "dict[str, np.ndarray]":
        return {
            name: np.array(col, dtype=np.int64)
            for name, col in payload.items()
        }

    def chunks(
        self,
        step: int,
        band_rows: "Callable[[int], dict[str, np.ndarray]]",
        nets: UnionFind,
        net_roots: "list[int]",
        kinds: "tuple[str, str]",
    ) -> "Iterator[DeviceColumns]":
        if not len(self):
            return
        root, y, nx, band, row = (
            np.array(getattr(self, name), dtype=np.int64)
            for name in self.KEYS
        )
        order = np.lexsort((root, -nx, -y))
        nparent = np.array(nets.parent_snapshot(), dtype=np.int64)
        net_of = _net_index(
            _resolve_parents(nparent), np.array(net_roots, dtype=np.int64)
        )
        for lo in range(0, order.shape[0], step):
            part = order[lo:lo + step]
            m = part.shape[0]
            chunk_bands, chunk_rows = band[part], row[part]
            # Gather the chunk's rows band by band; every CSR entry
            # carries its row's position in the chunk.
            area = np.empty(m, dtype=np.int64)
            impl = np.empty(m, dtype=bool)
            terms, gates = [], []
            for b in np.unique(chunk_bands).tolist():
                at = np.nonzero(chunk_bands == b)[0]
                cols = band_rows(b)
                rows = chunk_rows[at]
                area[at] = cols["area"][rows]
                impl[at] = cols["impl"][rows] != 0
                terms.append(_gather(cols, "term_ptr", rows, at))
                gates.append(_gather(cols, "gate_ptr", rows, at))
            t_pos, t_net, t_len = _concat(terms)
            g_pos, g_net = _concat(gates)
            yield _fold_devices(
                kinds, np.arange(m, dtype=np.int64), m, area, impl,
                y[part], nx[part], (t_pos, net_of[t_net], t_len),
                (g_pos, net_of[g_net]), len(net_roots), lo,
            )
