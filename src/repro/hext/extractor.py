"""HEXT: the hierarchical circuit extractor.

Driver for the three-step process of section 2, restructured as an
explicit *plan-then-execute* pipeline:

1. **Plan** (:func:`plan_windows`): walk the window tree front-end only —
   find all distinct non-overlapping windows, with the memo table
   recognizing redundant ones — and record a :class:`WindowPlan`: the set
   of unique *primitive* windows plus, for every unique composite window,
   the ordered list of child window keys and placements.
2. **Execute** (:func:`execute_plan`): extract each unique primitive
   window with the modified flat extractor, or fetch its fragment from
   the persistent fragment cache (:mod:`repro.parallel`) when one is
   given.
3. **Compose** (:func:`compose_plan`): combine windows bottom-to-top,
   left-to-right with Compose, walking the plan's key DAG.

The result is a :class:`Fragment` tree mirroring the hierarchical
wirelist; :func:`resolve` expands it (cost linear in devices, as the
paper notes for flattening) into the same :class:`Circuit` model flat ACE
produces, so the two extractors can be checked for netlist equivalence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..cif import Layout, parse
from ..cif.layout import Label
from ..core.assemble import assemble_circuit
from ..core.netlist import Circuit, skipped_warnings
from ..core.scanline import ScanlineEngine
from ..core.stripengine import load_strip_engine
from ..core.unionfind import UnionFind
from ..frontend import GeometryStream
from ..frontend.instantiate import PlacedLabel
from ..geometry import Box
from ..tech import NMOS, Technology
from .compose import compose
from .fragment import (
    ChildRef,
    DeviceRec,
    Fragment,
    IfaceRec,
    LineIndex,
    Placed,
)
from .windows import Content, WindowPlanner, relative_artwork


@dataclass
class HextStats:
    """Counters and timers for Tables 5-1 and 5-2.

    The cache fields stay at zero unless :func:`execute_plan` is given
    a persistent fragment cache.
    """

    flat_calls: int = 0  #: calls to the (modified) flat extractor
    compose_calls: int = 0
    memo_hits: int = 0
    windows_seen: int = 0  #: windows considered (including memo hits)
    unique_windows: int = 0
    frontend_seconds: float = 0.0  #: subdivision + canonicalization
    #: loading the strip engine before the first window; none of the
    #: paper's work, so it is kept out of the back-end and total times
    setup_seconds: float = 0.0
    flat_seconds: float = 0.0
    compose_seconds: float = 0.0
    resolve_seconds: float = 0.0
    cache_hits: int = 0  #: fragments served from the persistent cache
    cache_misses: int = 0
    cache_invalid: int = 0  #: corrupt/stale cache entries rejected

    @property
    def backend_seconds(self) -> float:
        return self.flat_seconds + self.compose_seconds

    @property
    def total_seconds(self) -> float:
        return self.frontend_seconds + self.backend_seconds + self.resolve_seconds

    @property
    def compose_share(self) -> float:
        """Fraction of back-end time spent composing (Table 5-2)."""
        backend = self.backend_seconds
        return self.compose_seconds / backend if backend else 0.0

    @property
    def cache_hit_rate(self) -> float:
        """Fragment-cache hit fraction over this run's unique primitives."""
        looked_up = self.cache_hits + self.cache_misses
        return self.cache_hits / looked_up if looked_up else 0.0


@dataclass
class HextResult:
    """Fragment tree plus statistics; circuit is resolved on demand."""

    fragment: Fragment
    origin: tuple[int, int]
    stats: HextStats
    tech: Technology
    _circuit: Circuit | None = field(default=None, repr=False)

    @property
    def circuit(self) -> Circuit:
        if self._circuit is None:
            start = time.perf_counter()
            self._circuit = resolve(self.fragment, self.origin, self.tech)
            self.stats.resolve_seconds += time.perf_counter() - start
        return self._circuit


# ----------------------------------------------------------------------
# step 1: plan
# ----------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CompositePlan:
    """One unique composite window: its size and placed child keys.

    ``children`` holds ``(key, dx, dy)`` triples in composition order
    (bottom to top, then left to right); offsets are relative to the
    window's own lower-left corner.
    """

    width: int
    height: int
    children: tuple[tuple[object, int, int], ...]


@dataclass
class WindowPlan:
    """Everything the back-end needs, with the front-end fully done.

    Attributes:
        top_key: key of the whole-chip window.
        primitives: unique geometry-only windows, key -> :class:`Content`
            (insertion order is discovery order, which makes execution
            deterministic).
        composites: unique subdivided windows, key -> :class:`CompositePlan`.
        hits: redundant-visit count per already-seen key (memo hits).
    """

    top_key: object
    primitives: dict = field(default_factory=dict)
    composites: dict = field(default_factory=dict)
    hits: dict = field(default_factory=dict)

    def used_keys(self) -> set:
        """Every window key this plan's extraction touches."""
        return set(self.primitives) | set(self.composites) | set(self.hits)


def plan_windows(
    planner: WindowPlanner,
    top: Content,
    stats: HextStats,
    *,
    seen: "set | None" = None,
) -> WindowPlan:
    """Walk the window tree, recording unique windows and the compose DAG.

    ``seen`` pre-populates the redundancy check: keys already present are
    treated as memo hits and not descended into.  The incremental
    extractor passes its persistent memo's keys here, so an unchanged
    subtree costs one key computation.
    """
    start = time.perf_counter()
    known: set = set(seen) if seen else set()
    plan = WindowPlan(top_key=None)

    def visit(content: Content):
        stats.windows_seen += 1
        key = planner.key(content)
        if key in known:
            stats.memo_hits += 1
            plan.hits[key] = plan.hits.get(key, 0) + 1
            return key
        known.add(key)
        stats.unique_windows += 1
        if content.is_primitive():
            plan.primitives[key] = content
            return key
        subwindows = planner.subdivide(content)
        # Composition order: lower-left corner, bottom to top then left
        # to right (section 3).
        subwindows.sort(key=lambda w: (w.region.ymin, w.region.xmin))
        ox, oy = content.region.xmin, content.region.ymin
        children = tuple(
            (visit(sub), sub.region.xmin - ox, sub.region.ymin - oy)
            for sub in subwindows
        )
        plan.composites[key] = CompositePlan(
            content.region.width, content.region.height, children
        )
        return key

    plan.top_key = visit(top)
    stats.frontend_seconds += time.perf_counter() - start
    return plan


# ----------------------------------------------------------------------
# step 2: execute
# ----------------------------------------------------------------------


def extract_primitive(content: Content, tech: Technology) -> Fragment:
    """Run the modified flat extractor over a geometry-only window.

    The window's artwork goes in as :func:`relative_artwork` gives it:
    relative to its lower-left corner and sorted, the form the memo key
    and the persistent cache key hash.  Canonical net order breaks
    location ties by insertion order, so this is what makes the fragment
    a function of its key: windows drawn in different orders extract
    identically.  A window sweep runs on the python strip engine, and
    its :meth:`~repro.core.scanline.ScanlineEngine.finish_window` result
    is the fragment's content.
    """
    window = Box(0, 0, content.region.width, content.region.height)
    geometry, labels = relative_artwork(content)
    layout = Layout()
    for layer, x1, y1, x2, y2 in geometry:
        layout.top.add_box(layer, Box(x1, y1, x2, y2))
    for name, x, y, layer in labels:
        layout.top.add_label(Label(name, x, y, layer or None))
    scan = ScanlineEngine(tech, window=window)
    scan.advance(GeometryStream(layout))
    result = scan.finish_window()
    return Fragment(
        region=(window,),
        net_count=result.net_count,
        net_names=result.net_names,
        net_locs=result.net_locs,
        devices=tuple(result.devices),
        partials=tuple(result.partials),
        index=LineIndex.of(
            IfaceRec(*span, rank) for rank, span in enumerate(result.interface)
        ),
        skipped=tuple(result.skipped),
        unattached=tuple(result.unattached),
    )


def execute_plan(
    plan: WindowPlan,
    tech: Technology,
    stats: HextStats,
    *,
    cache: "str | None" = None,
    memo: "dict | None" = None,
) -> dict:
    """Extract every unique primitive window in the plan.

    Returns (and fills) ``memo``: key -> :class:`Fragment`.  Keys already
    present in ``memo`` (the incremental extractor's persistent table)
    are never re-extracted.  With ``cache``, the directory of a
    persistent :class:`~repro.parallel.cache.FragmentCache`, each window
    is looked up there first, and each fragment extracted here is
    stored for the next run.  Extraction runs in plan order, so where a
    fragment comes from can never change the composed circuit.

    Every window runs on the python strip engine; it is loaded before
    the first window, and the load is billed to ``stats.setup_seconds``.
    """
    memo = {} if memo is None else memo
    store = None
    if cache is not None:
        from ..parallel import FragmentCache, window_cache_key

        store = FragmentCache(cache)
    started = time.perf_counter()
    setup: "float | None" = None  # seconds loading the engine, once loaded
    for key, content in plan.primitives.items():
        if key in memo:
            continue
        if store is not None:
            cache_key = window_cache_key(content, tech)
            cached = store.get(cache_key)
            if cached is not None:
                memo[key] = cached
                continue
        if setup is None:
            loading = time.perf_counter()
            load_strip_engine("python")
            setup = time.perf_counter() - loading
            stats.setup_seconds += setup
        fragment = extract_primitive(content, tech)
        memo[key] = fragment
        stats.flat_calls += 1
        if store is not None:
            store.put(cache_key, fragment)
    stats.flat_seconds += time.perf_counter() - started - (setup or 0.0)
    if store is not None:
        stats.cache_hits += store.stats.hits
        stats.cache_misses += store.stats.misses + store.stats.invalid
        stats.cache_invalid += store.stats.invalid
    return memo


# ----------------------------------------------------------------------
# step 3: compose
# ----------------------------------------------------------------------


def compose_plan(
    plan: WindowPlan, memo: dict, tech: Technology, stats: HextStats
) -> Fragment:
    """Combine extracted fragments along the plan's key DAG, serially.

    Composite fragments are memoized into ``memo`` as they are built, so
    a key reached through several parents is composed once.
    """

    def build(key) -> Fragment:
        fragment = memo.get(key)
        if fragment is not None:
            return fragment
        node: CompositePlan = plan.composites[key]
        placed = [
            Placed(build(child_key), dx, dy)
            for child_key, dx, dy in node.children
        ]
        if not placed:
            fragment = _empty_fragment(node.width, node.height)
        else:
            acc = placed[0]
            for nxt in placed[1:]:
                start = time.perf_counter()
                merged = compose(acc, nxt, tech)
                stats.compose_seconds += time.perf_counter() - start
                stats.compose_calls += 1
                acc = Placed(merged, 0, 0)
            if acc.dx or acc.dy:
                # Single sub-window: re-anchor it to this window's origin
                # by wrapping (content differs, so no mutation).
                fragment = _wrap_fragment(acc)
            else:
                fragment = acc.fragment
        memo[key] = fragment
        return fragment

    return build(plan.top_key)


def hext_extract(
    source: "str | Layout",
    tech: Technology | None = None,
    *,
    cache: "str | None" = None,
) -> HextResult:
    """Hierarchically extract a CIF string or parsed layout.

    Args:
        source: CIF text, or an already parsed :class:`Layout`.
        tech: process rules; defaults to standard NMOS.
        cache: directory of the persistent fragment cache; repeated runs
            over unchanged windows skip extraction entirely.

    The three phases run plan -> execute -> compose, on one thread, and
    every primitive window runs on the python strip engine.  A
    warm-cache run writes the same wirelist as a cold one: the plan, and
    with it the composition order, is the same, and a cached fragment
    is byte for byte the one extraction would produce.
    """
    result, _ = _extract_with_plan(source, tech or NMOS(), cache=cache)
    return result


def _extract_with_plan(
    source: "str | Layout",
    tech: Technology,
    *,
    cache: "str | None",
    memo: "dict | None" = None,
) -> "tuple[HextResult, WindowPlan]":
    """Plan, execute and compose: the one HEXT driver.

    :func:`hext_extract` and
    :meth:`~repro.hext.incremental.IncrementalExtractor.extract` both
    run through here.  ``memo`` is a window table that outlives the
    call (the incremental extractor's): its keys count as seen while
    planning, and every fragment built here is added to it.  Returns
    the plan too, for callers that account for reuse.
    """
    layout = parse(source) if isinstance(source, str) else source
    stats = HextStats()
    planner_start = time.perf_counter()
    planner = WindowPlanner(layout)
    top = planner.top_content()
    stats.frontend_seconds += time.perf_counter() - planner_start
    plan = plan_windows(planner, top, stats, seen=set(memo) if memo else None)
    memo = execute_plan(plan, tech, stats, cache=cache, memo=memo)
    fragment = compose_plan(plan, memo, tech, stats)
    result = HextResult(
        fragment=fragment,
        origin=(top.region.xmin, top.region.ymin),
        stats=stats,
        tech=tech,
    )
    return result, plan


def _empty_fragment(width: int, height: int) -> Fragment:
    return Fragment(region=(Box(0, 0, width, height),), net_count=0)


def _wrap_fragment(placed: Placed) -> Fragment:
    return Fragment(
        region=tuple(placed.region_rects()),
        net_count=placed.fragment.net_count,
        children=(ChildRef(placed.fragment, placed.dx, placed.dy, 0),),
        index=placed.fragment.index.placed(placed.dx, placed.dy),
        partials=tuple(
            rec.shifted(placed.dx, placed.dy, 0)
            for rec in placed.fragment.partials
        ),
    )


def resolve(
    fragment: Fragment, origin: tuple[int, int], tech: Technology
) -> Circuit:
    """Expand a fragment tree into a flat Circuit (linear in devices).

    The warnings are the flat finalize's: each unknown layer a window
    skipped, once; the malformed transistors; and each unattached label
    of a window, once per placement.
    """
    nets = UnionFind()
    for _ in range(fragment.net_count):
        nets.make()
    net_loc: dict[int, tuple[int, int]] = {}
    net_names: dict[int, list[str]] = {}
    devs = UnionFind()
    dev_rec: dict[int, DeviceRec] = {}
    skipped: dict[str, None] = {}
    unattached: list[PlacedLabel] = []

    stack: list[tuple[Fragment, int, int, int]] = [
        (fragment, 0, origin[0], origin[1])
    ]
    while stack:
        frag, base, ox, oy = stack.pop()
        for a, b in frag.equivalences:
            nets.union(base + a, base + b)
        for ident, names in frag.net_names.items():
            net_names.setdefault(base + ident, []).extend(names)
        for ident, (ymax, neg_xmin) in frag.net_locs.items():
            key = (ymax + oy, neg_xmin - ox)
            current = net_loc.get(base + ident)
            if current is None or key > current:
                net_loc[base + ident] = key
        for rec in frag.devices:
            dev_rec[devs.make()] = rec.shifted(ox, oy, base)
        if frag.skipped:
            skipped.update(dict.fromkeys(frag.skipped))
        if frag.unattached:
            unattached.extend(
                PlacedLabel(label.name, label.x + ox, label.y + oy, label.layer)
                for label in frag.unattached
            )
        for child in frag.children:
            stack.append(
                (child.fragment, base + child.net_offset, ox + child.dx, oy + child.dy)
            )
    # Channels still on the chip boundary are legitimate devices.
    for rec in fragment.partials:
        dev_rec[devs.make()] = rec.shifted(origin[0], origin[1], 0)

    circuit = assemble_circuit(
        tech, nets, devs, net_loc, net_names, dev_rec, unattached
    )
    circuit.warnings[:0] = skipped_warnings(skipped)
    return circuit
