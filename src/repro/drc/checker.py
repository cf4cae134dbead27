"""The streaming design-rule checker.

:class:`DrcChecker` is a :class:`~repro.core.scanline.StripConsumer`:
it rides the extractor's one sorted sweep and sees each strip's
per-layer active spans exactly once, top to bottom.  Every rule is
phrased against that stream:

* **width / spacing (x)** -- direct span arithmetic inside each strip.
* **width / spacing (y)** -- vertical runs are tracked by inheriting a
  "top" per span across strips; a run that dies short of its minimum
  height is flagged, and dead pieces go to a distance-pruned graveyard
  that newborn spans below are checked against.
* **gate extension** -- horizontal overhang is read off the strip's
  poly/diffusion spans at each channel edge; vertical overhang uses a
  bounded history of recent strips (birth edges look up) and a pending
  queue that later strips consume (death edges look down).  Buried
  windows need no special case: poly and diffusion are both present
  through a buried hole, so the overhang test passes there by
  construction.
* **enclosure / coverage** -- contact cuts against metal, buried
  windows against diffusion, and implanted channels against the
  implant mask are per-strip coverage subtractions; the implant rule
  additionally demands the margin above births and below deaths.

Per-strip flag boxes are merged into connected regions at the end so a
tall violation reports once, not once per strip.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from ..core.scanline import StripConsumer
from ..diagnostics import CheckReport, Diagnostic, Severity
from ..tech import ABSENT_LAYER, NMOS, Technology
from .rules import (
    RULE_BURIED_ENCLOSURE,
    RULE_CONTACT_ENCLOSURE,
    RULE_GATE_EXTENSION,
    RULE_IMPLANT_COVERAGE,
    RULE_SPACING,
    RULE_WIDTH,
)
from .spans import (
    intersect_spans,
    overlaps_any,
    span_containing,
    subtract_spans,
    union_spans,
)

Span = tuple[int, int]
FlagBox = tuple[int, int, int, int]

#: Above this many raw flag boxes per (rule, layer, message) group the
#: exact connected-region merge (quadratic in group size) is replaced by
#: one bounding-box diagnostic.  Real violations produce a handful of
#: boxes; only pathological generated layouts get near the cap.
_MERGE_CAP = 4000


@dataclass
class _Pending:
    """A downward requirement: ``base`` x-ranges below ``y_edge`` must be
    covered by at least one of the ``ok`` layers for ``total`` more
    vertical centimicrons."""

    rule: str
    layer: str
    message: str
    y_edge: int
    total: int
    need: int
    ok: dict[str, list[Span]]
    base: list[Span]


@dataclass
class _LayerState:
    """Cross-strip state for one checked layer."""

    prev: list[Span] = field(default_factory=list)
    tops: list[int] = field(default_factory=list)
    #: buried only: whether the run has overlapped poly anywhere yet.
    live: list[bool] = field(default_factory=list)
    #: dead pieces (x1, x2, y_death) awaiting the spacing-y check.
    grave: list[tuple[int, int, int]] = field(default_factory=list)


class DrcChecker(StripConsumer):
    """Streaming lambda-rule checker over the scanline strip feed."""

    def __init__(
        self,
        tech: Technology | None = None,
        *,
        enabled: "frozenset[str] | None" = None,
    ) -> None:
        tech = self.tech = tech or NMOS()
        self.enabled = enabled  # None = every deck-enabled rule
        #: rules this checker actually flags: the deck's enabled set,
        #: optionally narrowed by the caller's ``enabled`` filter.
        deck_rules = frozenset(tech.deck.drc.rules)
        self._active = (
            deck_rules if enabled is None else deck_rules & enabled
        )

        self._poly = tech.poly
        self._diff = tech.diff
        self._metal = tech.metal
        self._contact = tech.contact
        self._implant = tech.marker
        self._buried = tech.buried
        #: all layers under width/spacing bookkeeping, fixed order.
        self._layers: tuple[str, ...] = tuple(
            name
            for name in dict.fromkeys(
                (
                    self._diff,
                    self._poly,
                    self._metal,
                    self._contact,
                    self._buried,
                    self._implant,
                )
            )
            if name != ABSENT_LAYER
        )
        self._state: dict[str, _LayerState] = {
            name: _LayerState() for name in self._layers
        }

        # The deck's dimensions are in lambda; the sweep's in layout units.
        r = tech.deck.drc
        lam = tech.lambda_
        self._width = {
            name: r.min_width.get(name, 0) * lam for name in self._layers
        }
        self._spacing = {
            name: r.min_spacing.get(name, 0) * lam for name in self._layers
        }
        self._ext = r.gate_extension * lam
        self._cmargin = r.contact_margin * lam
        self._bmargin = r.buried_margin * lam
        self._imargin = r.marker_margin * lam
        #: how far above a birth edge the history must reach.
        self._lookback = max(self._ext, self._imargin)

        self._msg_width = {
            name: (
                f"{name} region narrower than the "
                f"{r.min_width.get(name, 0)} lambda minimum width"
            )
            for name in self._layers
        }
        self._msg_spacing = {
            name: (
                f"{name} regions closer than the "
                f"{r.min_spacing.get(name, 0)} lambda minimum spacing"
            )
            for name in self._layers
        }
        # Rule message text comes from the deck, so each technology
        # words its own diagnostics.  Validation demands the templates
        # of every enabled rule; a disabled rule's never reaches a
        # report.
        templates = tech.deck.drc.messages

        def template(key: str, n: int) -> str:
            return templates.get(key, "").format(n=n)

        self._msg_gate = template("gate-extension", r.gate_extension)
        self._msg_contact = template("contact-enclosure", r.contact_margin)
        self._msg_buried_cover = template("buried-cover", r.buried_margin)
        self._msg_buried_poly = template("buried-overlap", 0)
        self._msg_implant = template("marker-coverage", r.marker_margin)

        self._chip_top: "int | None" = None
        self._last_y_lo = 0
        self._prev_channels: list[Span] = []
        self._prev_impl_channels: list[Span] = []
        #: recent strips (y_lo, y_hi, spans), newest last, pruned to the
        #: lookback window; feeds the upward (birth-edge) checks.
        self._history: "deque[tuple[int, int, dict[str, list[Span]]]]" = deque()
        self._pending: list[_Pending] = []
        #: raw flag boxes keyed by (rule, layer, message).
        self._flags: dict[tuple[str, str, str], list[FlagBox]] = {}
        self._finished = False

    # ------------------------------------------------------------------
    # StripConsumer interface
    # ------------------------------------------------------------------

    def observe_strip(
        self,
        y_lo: int,
        y_hi: int,
        spans: dict[str, list[Span]],
        channels: list[tuple[int, int, int]],
    ) -> None:
        if self._chip_top is None:
            self._chip_top = y_hi
        self._last_y_lo = y_lo

        while self._history and self._history[0][0] >= y_hi + self._lookback:
            self._history.popleft()

        chan = [(x1, x2) for x1, x2, _net in channels]
        for name in self._layers:
            self._layer_strip(name, spans.get(name) or [], y_lo, y_hi, spans)
        self._coverage_strip(y_lo, y_hi, spans, chan)
        self._gate_strip(y_lo, y_hi, spans, chan)

        impl_chan = [
            piece
            for piece in chan
            if overlaps_any(spans.get(self._implant) or [], *piece)
        ]
        self._channel_edges(y_lo, y_hi, spans, chan, impl_chan)
        self._advance_pending(y_lo, y_hi, spans)

        self._prev_channels = chan
        self._prev_impl_channels = impl_chan
        self._history.append((y_lo, y_hi, spans))

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        if self._chip_top is None:
            return
        y = self._last_y_lo
        for name in self._layers:
            state = self._state[name]
            w = self._width[name]
            for j, (x1, x2) in enumerate(state.prev):
                if w and state.tops[j] - y < w:
                    self._flag(
                        RULE_WIDTH,
                        name,
                        self._msg_width[name],
                        (x1, y, x2, state.tops[j]),
                    )
                if name == self._buried and not state.live[j]:
                    self._flag(
                        RULE_BURIED_ENCLOSURE,
                        name,
                        self._msg_buried_poly,
                        (x1, y, x2, state.tops[j]),
                    )
        # Channels still alive at the bottom edge die there with no
        # geometry left below to satisfy their extension requirements.
        self._queue_channel_deaths(y, self._prev_channels, self._prev_impl_channels)
        for p in self._pending:
            for x1, x2 in p.base:
                self._flag(
                    p.rule, p.layer, p.message, (x1, p.y_edge - p.total, x2, p.y_edge)
                )
        self._pending = []

    # ------------------------------------------------------------------
    # per-layer width / spacing / run tracking
    # ------------------------------------------------------------------

    def _layer_strip(
        self,
        name: str,
        cur: list[Span],
        y_lo: int,
        y_hi: int,
        spans: dict[str, list[Span]],
    ) -> None:
        state = self._state[name]
        w = self._width[name]
        s = self._spacing[name]

        if w:
            for x1, x2 in cur:
                if x2 - x1 < w:
                    self._flag(
                        RULE_WIDTH, name, self._msg_width[name], (x1, y_lo, x2, y_hi)
                    )
        if s:
            for i in range(1, len(cur)):
                gap = cur[i][0] - cur[i - 1][1]
                if 0 < gap < s:
                    self._flag(
                        RULE_SPACING,
                        name,
                        self._msg_spacing[name],
                        (cur[i - 1][1], y_lo, cur[i][0], y_hi),
                    )

        prev, prev_tops = state.prev, state.tops
        is_buried = name == self._buried
        poly = spans.get(self._poly) or [] if is_buried else []

        # Inherit run tops (and buried poly-overlap flags) from the strip
        # above via positive x-overlap; note which prev spans survive.
        new_tops: list[int] = []
        new_live: list[bool] = []
        survived = [False] * len(prev)
        i = 0
        for x1, x2 in cur:
            top = y_hi
            alive = False
            while i < len(prev) and prev[i][1] <= x1:
                i += 1
            j = i
            while j < len(prev) and prev[j][0] < x2:
                survived[j] = True
                if prev_tops[j] > top:
                    top = prev_tops[j]
                if is_buried and state.live[j]:
                    alive = True
                j += 1
            if is_buried and not alive:
                alive = overlaps_any(poly, x1, x2)
            new_tops.append(top)
            new_live.append(alive)

        # Fully-dead runs: minimum-height check, buried poly liveness.
        for j, hit in enumerate(survived):
            if hit:
                continue
            px1, px2 = prev[j]
            if w and prev_tops[j] - y_hi < w:
                self._flag(
                    RULE_WIDTH,
                    name,
                    self._msg_width[name],
                    (px1, y_hi, px2, prev_tops[j]),
                )
            if is_buried and not state.live[j]:
                self._flag(
                    RULE_BURIED_ENCLOSURE,
                    name,
                    self._msg_buried_poly,
                    (px1, y_hi, px2, prev_tops[j]),
                )

        if s:
            # Newborn pieces against the graveyard of pieces that died
            # strictly above: a vertical gap smaller than the spacing.
            born = subtract_spans(cur, prev)
            if born and state.grave:
                for b1, b2 in born:
                    for g1, g2, yd in state.grave:
                        if yd > y_hi and yd - y_hi < s and g1 < b2 and g2 > b1:
                            self._flag(
                                RULE_SPACING,
                                name,
                                self._msg_spacing[name],
                                (max(b1, g1), y_hi, min(b2, g2), yd),
                            )
            dead = subtract_spans(prev, cur)
            if dead:
                state.grave.extend((d1, d2, y_hi) for d1, d2 in dead)
            if state.grave:
                state.grave = [g for g in state.grave if g[2] - y_lo < s]

        state.prev = cur
        state.tops = new_tops
        state.live = new_live

    # ------------------------------------------------------------------
    # coverage rules
    # ------------------------------------------------------------------

    def _coverage_strip(
        self,
        y_lo: int,
        y_hi: int,
        spans: dict[str, list[Span]],
        chan: list[Span],
    ) -> None:
        cuts = spans.get(self._contact) or []
        if cuts:
            metal = _shrink(spans.get(self._metal) or [], self._cmargin)
            for x1, x2 in subtract_spans(cuts, metal):
                self._flag(
                    RULE_CONTACT_ENCLOSURE,
                    self._contact,
                    self._msg_contact,
                    (x1, y_lo, x2, y_hi),
                )
        buried = spans.get(self._buried) or []
        if buried:
            diff = _shrink(spans.get(self._diff) or [], self._bmargin)
            for x1, x2 in subtract_spans(buried, diff):
                self._flag(
                    RULE_BURIED_ENCLOSURE,
                    self._buried,
                    self._msg_buried_cover,
                    (x1, y_lo, x2, y_hi),
                )
        if chan:
            implant = spans.get(self._implant) or []
            m = self._imargin
            for c1, c2 in chan:
                if not overlaps_any(implant, c1, c2):
                    continue
                for x1, x2 in subtract_spans([(c1 - m, c2 + m)], implant):
                    self._flag(
                        RULE_IMPLANT_COVERAGE,
                        self._implant,
                        self._msg_implant,
                        (x1, y_lo, x2, y_hi),
                    )

    # ------------------------------------------------------------------
    # gate extension
    # ------------------------------------------------------------------

    def _gate_strip(
        self,
        y_lo: int,
        y_hi: int,
        spans: dict[str, list[Span]],
        chan: list[Span],
    ) -> None:
        if not chan:
            return
        ext = self._ext
        poly = spans.get(self._poly) or []
        diff = spans.get(self._diff) or []
        for c1, c2 in chan:
            ok = False
            p = span_containing(poly, c1)
            if p is not None and c1 - p[0] >= ext:
                ok = True
            else:
                d = span_containing(diff, c1)
                ok = d is not None and c1 - d[0] >= ext
            if not ok:
                self._flag(
                    RULE_GATE_EXTENSION,
                    self._poly,
                    self._msg_gate,
                    (c1 - ext, y_lo, c1, y_hi),
                )
            ok = False
            p = span_containing(poly, c2 - 1)
            if p is not None and p[1] - c2 >= ext:
                ok = True
            else:
                d = span_containing(diff, c2 - 1)
                ok = d is not None and d[1] - c2 >= ext
            if not ok:
                self._flag(
                    RULE_GATE_EXTENSION,
                    self._poly,
                    self._msg_gate,
                    (c2, y_lo, c2 + ext, y_hi),
                )

    def _channel_edges(
        self,
        y_lo: int,
        y_hi: int,
        spans: dict[str, list[Span]],
        chan: list[Span],
        impl_chan: list[Span],
    ) -> None:
        """Vertical gate-extension and implant-margin checks.

        Birth edges (channel appears at ``y_hi``) look *up* through the
        strip history; death edges (channel present above, gone here)
        queue a pending requirement that this and following strips
        consume downward.
        """
        ext = self._ext
        born = subtract_spans(chan, self._prev_channels)
        for b1, b2 in born:
            covered = union_spans(
                self._covered_above(self._poly, [(b1, b2)], y_hi, ext),
                self._covered_above(self._diff, [(b1, b2)], y_hi, ext),
            )
            for x1, x2 in subtract_spans([(b1, b2)], covered):
                self._flag(
                    RULE_GATE_EXTENSION,
                    self._poly,
                    self._msg_gate,
                    (x1, y_hi, x2, y_hi + ext),
                )
        m = self._imargin
        born_impl = subtract_spans(impl_chan, self._prev_impl_channels)
        for b1, b2 in born_impl:
            req = (b1 - m, b2 + m)
            covered = self._covered_above(self._implant, [req], y_hi, m)
            for x1, x2 in subtract_spans([req], covered):
                self._flag(
                    RULE_IMPLANT_COVERAGE,
                    self._implant,
                    self._msg_implant,
                    (x1, y_hi, x2, y_hi + m),
                )
        dead = subtract_spans(self._prev_channels, chan)
        dead_impl = subtract_spans(self._prev_impl_channels, impl_chan)
        if dead or dead_impl:
            self._queue_channel_deaths(y_hi, dead, dead_impl)

    def _queue_channel_deaths(
        self, y_edge: int, dead: list[Span], dead_impl: list[Span]
    ) -> None:
        ext = self._ext
        for d1, d2 in dead:
            self._pending.append(
                _Pending(
                    rule=RULE_GATE_EXTENSION,
                    layer=self._poly,
                    message=self._msg_gate,
                    y_edge=y_edge,
                    total=ext,
                    need=ext,
                    ok={self._poly: [(d1, d2)], self._diff: [(d1, d2)]},
                    base=[(d1, d2)],
                )
            )
        m = self._imargin
        for d1, d2 in dead_impl:
            req = [(d1 - m, d2 + m)]
            self._pending.append(
                _Pending(
                    rule=RULE_IMPLANT_COVERAGE,
                    layer=self._implant,
                    message=self._msg_implant,
                    y_edge=y_edge,
                    total=m,
                    need=m,
                    ok={self._implant: list(req)},
                    base=list(req),
                )
            )

    def _covered_above(
        self, layer: str, base: list[Span], y_edge: int, dist: int
    ) -> list[Span]:
        """Portions of ``base`` covered by ``layer`` throughout the
        window ``(y_edge, y_edge + dist)`` above the current strip."""
        top = self._chip_top
        if top is None or y_edge + dist > top:
            return []
        covered = base
        for h_lo, h_hi, h_spans in self._history:
            if h_hi <= y_edge or h_lo >= y_edge + dist:
                continue
            covered = intersect_spans(covered, h_spans.get(layer) or [])
            if not covered:
                break
        return covered

    def _advance_pending(
        self, y_lo: int, y_hi: int, spans: dict[str, list[Span]]
    ) -> None:
        if not self._pending:
            return
        height = y_hi - y_lo
        keep: list[_Pending] = []
        for p in self._pending:
            covered: list[Span] = []
            for lname in p.ok:
                p.ok[lname] = intersect_spans(p.ok[lname], spans.get(lname) or [])
                covered = union_spans(covered, p.ok[lname])
            bad = subtract_spans(p.base, covered)
            for x1, x2 in bad:
                self._flag(
                    p.rule, p.layer, p.message, (x1, p.y_edge - p.total, x2, p.y_edge)
                )
            p.base = intersect_spans(p.base, covered)
            p.need -= height
            if p.base and p.need > 0:
                keep.append(p)
        self._pending = keep

    # ------------------------------------------------------------------
    # flag collection and reporting
    # ------------------------------------------------------------------

    def _flag(self, rule: str, layer: str, message: str, box: FlagBox) -> None:
        if rule not in self._active:
            return
        self._flags.setdefault((rule, layer, message), []).append(box)

    def report(self, artifact: "str | None" = None) -> CheckReport:
        """Merge flag boxes into regions and emit one diagnostic each."""
        self.finish()
        diagnostics: list[Diagnostic] = []
        for (rule, layer, message), boxes in self._flags.items():
            for box in _merge_regions(boxes):
                diagnostics.append(
                    Diagnostic(
                        Severity.ERROR,
                        rule,
                        message,
                        tool="drc",
                        layer=layer,
                        box=box,
                    )
                )
        return CheckReport(diagnostics=diagnostics, artifact=artifact).sorted()


def _shrink(spans: list[Span], margin: int) -> list[Span]:
    if not margin:
        return spans
    return [(x1 + margin, x2 - margin) for x1, x2 in spans if x2 - margin > x1 + margin]


def _touches(a: FlagBox, b: FlagBox) -> bool:
    return a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]


def _merge_regions(boxes: list[FlagBox]) -> list[FlagBox]:
    """Bounding boxes of the touch-connected components of ``boxes``."""
    if len(boxes) > _MERGE_CAP:
        return [
            (
                min(b[0] for b in boxes),
                min(b[1] for b in boxes),
                max(b[2] for b in boxes),
                max(b[3] for b in boxes),
            )
        ]
    parent = list(range(len(boxes)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            ri, rj = find(i), find(j)
            if ri != rj and _touches(boxes[i], boxes[j]):
                parent[rj] = ri
    regions: dict[int, FlagBox] = {}
    for i, box in enumerate(boxes):
        root = find(i)
        cur = regions.get(root)
        if cur is None:
            regions[root] = box
        else:
            regions[root] = (
                min(cur[0], box[0]),
                min(cur[1], box[1]),
                max(cur[2], box[2]),
                max(cur[3], box[3]),
            )
    return sorted(regions.values())
