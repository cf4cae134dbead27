"""The Compose routine: merging two adjacent windows.

Following section 3 of the HEXT paper:

1. find all pairs of touching boundary segments from the two windows;
2. for each pair, step through the interface-segment lists for
   corresponding layers and establish signal equivalences;
3. compute the interface for the new window.

Matching spans on conducting layers union their nets; matching channel
spans union their partial transistors; a channel span facing a
conducting-diffusion span adds terminal contact perimeter to the partial
(the cross-window source/drain case).  Partials left with no channel
span on the new boundary are "output as completed transistors".

Compose never copies child circuit contents -- it stores child pointers,
a net-offset, and the equivalence pairs -- and its cost is proportional
to the seam where the two windows meet, not to the boundary the first
window has accumulated.  Each interface is a line index
(:class:`~repro.hext.fragment.LineIndex`).  The second window's lines are
shifted into place, and each is matched by bisecting into the first
window's facing line, limited to the second line's extent.  Survival is
recomputed only on the lines the other window's region can cover, and
there only on the bisected sub-range that region reaches; every other
line passes to the result as the same tuple of the same records.  This is
what the paper asks of Compose when it finds composing is 72% of the back
end (Table 5-2), and what keeps the ideal-case cost O(sqrt N) (Table
4-1).  Coordinates are whatever parent space the two :class:`Placed`
inputs share; the result lives in that same space.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from operator import attrgetter

from ..core.unionfind import UnionFind
from ..geometry import Box, normalize_region
from ..tech import Technology
from .fragment import (
    BOTTOM,
    CHANNEL,
    ChildRef,
    DeviceRec,
    Fragment,
    IfaceRec,
    LEFT,
    LineIndex,
    Placed,
    RIGHT,
    TOP,
    opposite_face,
)

_LO = attrgetter("lo")
_HI = attrgetter("hi")


def compose(a: Placed, b: Placed, tech: Technology) -> Fragment:
    """Merge two placed fragments; result is in the same coordinates."""
    diff_layer = tech.diff
    na = a.fragment.net_count
    nb = b.fragment.net_count

    # Both interfaces in parent coordinates.  Conducting idents from b
    # are offset by na (the wirelist format's NetOffset); channel idents
    # stay raw and are tagged by side through the +pa convention below.
    # b's ranks follow all of a's, as its records follow a's in the flat
    # boundary list.  a is the accumulated window and usually sits at
    # the origin, so its lines are normally used as they are.
    index_a = a.fragment.index.placed(a.dx, a.dy)
    index_b = b.fragment.index.placed(b.dx, b.dy, na, index_a.end)
    lines_a = index_a.lines

    equivalences: list[tuple[int, int]] = []
    pa = len(a.fragment.partials)
    pb = len(b.fragment.partials)
    devs = UnionFind()
    devs.extend(pa + pb)
    # Cross-boundary terminal contacts, as terminal-only records keyed by
    # *raw* partial id; they are folded through the union-find only after
    # all unions are known.
    extra_terms: dict[int, DeviceRec] = defaultdict(DeviceRec)

    def on_same_layer(ra: IfaceRec, rb: IfaceRec, overlap: int) -> None:
        if ra.layer == CHANNEL:
            devs.union(ra.ident, pa + rb.ident)
        else:
            equivalences.append((ra.ident, rb.ident))

    def a_channel_b_diff(ra: IfaceRec, rb: IfaceRec, overlap: int) -> None:
        extra_terms[ra.ident].add_terminal(rb.ident, overlap)

    def a_diff_b_channel(ra: IfaceRec, rb: IfaceRec, overlap: int) -> None:
        extra_terms[pa + rb.ident].add_terminal(ra.ident, overlap)

    # Steps 1+2: match touching spans.  Each of b's lines meets at most
    # a's facing line on the same layer (plus diffusion against channel);
    # per-layer spans on one line are disjoint and sorted, so each
    # pairing is a linear interval join -- the "step through the
    # interface-segment lists for corresponding layers" of section 3.
    # b's lines are walked in order of first appearance in its flat
    # boundary list, which fixes the order of the equivalences.
    for (face, fixed, layer), group_b in index_b.in_order():
        far = opposite_face(face)
        group_a = lines_a.get((far, fixed, layer))
        if group_a:
            _interval_join(group_a, group_b, on_same_layer)
        if layer == diff_layer:
            chan_a = lines_a.get((far, fixed, CHANNEL))
            if chan_a:
                _interval_join(chan_a, group_b, a_channel_b_diff)
        elif layer == CHANNEL:
            diff_a = lines_a.get((far, fixed, diff_layer))
            if diff_a:
                _interval_join(diff_a, group_b, a_diff_b_channel)

    # Step 3: the new interface = surviving spans of both windows.  A
    # side's records were already filtered against its own region by the
    # composes that built it, so each side is probed only against the
    # *other* side's rectangles.
    rects_a = a.region_rects()
    rects_b = b.region_rects()
    region = normalize_region(rects_a + rects_b)
    lines_a = _surviving(lines_a, rects_b)
    lines_b = _surviving(index_b.lines, rects_a)

    completed: list[DeviceRec] = []
    partials: list[DeviceRec] = []
    if pa or pb:
        completed, partials = _settle_partials(
            a, b, na, devs, extra_terms, lines_a, lines_b
        )

    for key, line in lines_b.items():
        mine = lines_a.get(key)
        lines_a[key] = line if mine is None else _merge_line(mine, line)

    return Fragment(
        region=tuple(region),
        net_count=na + nb,
        children=(
            ChildRef(a.fragment, a.dx, a.dy, 0),
            ChildRef(b.fragment, b.dx, b.dy, na),
        ),
        equivalences=tuple(equivalences),
        devices=tuple(completed),
        partials=tuple(partials),
        index=LineIndex(lines_a, index_b.end),
    )


def _settle_partials(
    a: Placed,
    b: Placed,
    na: int,
    devs: UnionFind,
    extra_terms: dict[int, DeviceRec],
    lines_a: dict,
    lines_b: dict,
) -> tuple[list[DeviceRec], list[DeviceRec]]:
    """Merge partial transistors and renumber the surviving ones.

    Returns ``(completed, partials)``: merged partials with no channel
    span left on the new boundary complete here.  The channel lines of
    ``lines_a`` and ``lines_b`` (raw partial ids) are rewritten in place
    to the new dense partial ids; a's records are replaced only where
    their id changes.
    """
    pa = len(a.fragment.partials)
    if a.dx or a.dy:
        recs = [rec.shifted(a.dx, a.dy, 0) for rec in a.fragment.partials]
    else:
        recs = list(a.fragment.partials)  # shared, so never mutated
    recs += [rec.shifted(b.dx, b.dy, na) for rec in b.fragment.partials]
    merged: dict[int, DeviceRec] = {}
    for pid, rec in enumerate(recs):
        root = devs.find(pid)
        if root in merged:
            merged[root] = merged[root].merged_with(rec)
        else:
            merged[root] = rec
    copied: set[int] = set()
    for pid, extra in extra_terms.items():
        root = devs.find(pid)
        rec = merged[root]
        if root not in copied:
            copied.add(root)
            rec = merged[root] = rec.shifted(0, 0, 0)
        rec.absorb(extra)

    sides = ((lines_a, 0), (lines_b, pa))
    boundary_roots = {
        devs.find(rec.ident + offset)
        for lines, offset in sides
        for key, line in lines.items()
        if key[2] == CHANNEL
        for rec in line
    }
    completed: list[DeviceRec] = []
    partials: list[DeviceRec] = []
    new_pid: dict[int, int] = {}
    for root, rec in merged.items():
        if root in boundary_roots:
            new_pid[root] = len(partials)
            partials.append(rec)
        else:
            completed.append(rec)

    for lines, offset in sides:
        renumber = {
            pid: new_pid[devs.find(pid + offset)]
            for key, line in lines.items()
            if key[2] == CHANNEL
            for pid in {rec.ident for rec in line}
        }
        if all(pid == new for pid, new in renumber.items()):
            continue
        for key, line in lines.items():
            if key[2] == CHANNEL:
                lines[key] = tuple(
                    rec
                    if renumber[rec.ident] == rec.ident
                    else IfaceRec(
                        rec.face, rec.layer, rec.fixed, rec.lo, rec.hi,
                        renumber[rec.ident], rec.rank,
                    )
                    for rec in line
                )
    return completed, partials


def _interval_join(group_a: tuple, group_b: tuple, fn) -> None:
    """Visit overlapping (a, b) record pairs of two sorted span lines.

    The walk over ``group_a`` -- possibly a long accumulated line --
    starts at its first span ending past ``group_b``'s start (a bisect)
    and ends with ``group_b``.
    """
    i = bisect_right(group_a, group_b[0].lo, key=_HI)
    j = 0
    na, nb = len(group_a), len(group_b)
    while i < na and j < nb:
        ra, rb = group_a[i], group_b[j]
        overlap = min(ra.hi, rb.hi) - max(ra.lo, rb.lo)
        if overlap > 0:
            fn(ra, rb, overlap)
        if ra.hi <= rb.hi:
            i += 1
        else:
            j += 1


def _bbox(rects: list[Box]) -> Box:
    return Box(
        min(r.xmin for r in rects),
        min(r.ymin for r in rects),
        max(r.xmax for r in rects),
        max(r.ymax for r in rects),
    )


def _surviving(lines: dict, far: list[Box]) -> dict:
    """``lines`` minus the spans whose far side ``far`` now covers.

    A record stops being boundary wherever the region covers the far
    side of its line.  Only lines within ``far``'s bounding box are
    probed, and on each only the records the cover can reach (found by
    bisection); a line nothing covers is kept as the same tuple, and a
    record nothing covers as the same object.  Returns a new dict.
    """
    bbox = _bbox(far)
    out = {}
    for key, line in lines.items():
        face, fixed = key[0], key[1]
        if face in (LEFT, RIGHT):
            near = bbox.xmin <= fixed <= bbox.xmax and (
                line[0].lo < bbox.ymax and line[-1].hi > bbox.ymin
            )
        else:
            near = bbox.ymin <= fixed <= bbox.ymax and (
                line[0].lo < bbox.xmax and line[-1].hi > bbox.xmin
            )
        if near:
            cover = _cover(face, fixed, far)
            if cover:
                line = _subtract(line, cover)
                if not line:
                    continue
        out[key] = line
    return out


def _cover(face: str, fixed: int, region: list[Box]) -> list[tuple[int, int]]:
    """Merged spans of ``region`` on the far side of a boundary line.

    The far side is probed with half-open interval tests, so rectangles
    spanning across the line are handled too.
    """
    if face == RIGHT:
        spans = [(r.ymin, r.ymax) for r in region if r.xmin <= fixed < r.xmax]
    elif face == LEFT:
        spans = [(r.ymin, r.ymax) for r in region if r.xmin < fixed <= r.xmax]
    elif face == TOP:
        spans = [(r.xmin, r.xmax) for r in region if r.ymin <= fixed < r.ymax]
    elif face == BOTTOM:
        spans = [(r.xmin, r.xmax) for r in region if r.ymin < fixed <= r.ymax]
    else:
        spans = []
    spans.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in spans:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _subtract(line: tuple, cover: list[tuple[int, int]]) -> tuple:
    """The spans of ``line`` outside ``cover`` (both sorted, disjoint)."""
    start = bisect_right(line, cover[0][0], key=_HI)
    stop = bisect_left(line, cover[-1][1], key=_LO)
    kept: list[IfaceRec] = []
    changed = False
    k = 0
    for rec in line[start:stop]:
        lo, hi = rec.lo, rec.hi
        while cover[k][1] <= lo:
            k += 1
        if cover[k][0] >= hi:
            kept.append(rec)
            continue
        changed = True
        pos = lo
        for c_lo, c_hi in cover[k:]:
            if c_lo >= hi:
                break
            if c_lo > pos:
                kept.append(
                    IfaceRec(
                        rec.face, rec.layer, rec.fixed, pos, c_lo, rec.ident,
                        rec.rank,
                    )
                )
            pos = max(pos, c_hi)
            if pos >= hi:
                break
        if pos < hi:
            kept.append(
                IfaceRec(
                    rec.face, rec.layer, rec.fixed, pos, hi, rec.ident, rec.rank
                )
            )
    if not changed:
        return line
    return line[:start] + tuple(kept) + line[stop:]


def _merge_line(first: tuple, second: tuple) -> tuple:
    """Two disjoint sorted span lines on one boundary line, as one."""
    if first[-1].hi <= second[0].lo:
        return first + second
    if second[-1].hi <= first[0].lo:
        return second + first
    return tuple(sorted(first + second, key=_LO))
