"""Seeded, technology-rule-aware random layout generation.

The generator does not draw uniform noise: it composes *motifs* that
exercise the extraction rules the oracles implement -- transistor
crossings, contact cuts, buried gate-source ties, depletion implants --
plus the near-miss geometry where extractors historically disagree:
edges that exactly abut, boxes meeting at a zero-overlap corner,
off-grid (sub-lambda) coordinates, and top-level straps that cross
instance boundaries so transistors straddle HEXT windows.

Everything is derived from one integer seed, so any failure is
reproducible from its seed alone; layouts additionally round-trip
through the CIF writer, which is how repros are persisted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..cif import Label, Layout
from ..frontend import instantiate
from ..geometry import Box, Polygon, Transform
from ..tech import ABSENT_LAYER, DEFAULT_LAMBDA, Technology
from ..workloads import random_squares

#: Leaf-cell frame edge in lambda (cells are placed at this pitch).
FRAME = 12

#: Conducting layers a label may anchor to.
_LABEL_LAYERS = ("NM", "NP", "ND")

#: Label-name pool; repeats are fine (two rails may share a user name).
_NAMES = ("VDD", "GND", "IN", "OUT", "A", "B", "PHI1", "BL")

#: Sub-lambda coordinate offsets (centimicrons) used for off-grid cases.
_OFFGRID = (30, 50, 70, 110, 130)


@dataclass(frozen=True)
class GenProfile:
    """Knobs for the generator; the defaults are the fuzzing profile."""

    max_cells: int = 2
    min_motifs: int = 2
    max_motifs: int = 5
    grid: int = 3  # instance placement grid is grid x grid
    max_instances: int = 5
    p_hierarchy: float = 0.75
    p_nested: float = 0.4  # wrap the instances in an extra level
    p_polygon: float = 0.25
    p_wire: float = 0.2
    p_offgrid: float = 0.15
    p_label: float = 0.6
    p_squares: float = 0.2  # splice a seeded random_squares block
    max_straps: int = 3
    #: motif -> weight; see the ``_motif_*`` builders below.
    motif_weights: tuple = (
        ("plain", 3),
        ("transistor", 4),
        ("load", 3),
        ("contact", 2),
        ("abut", 2),
        ("corner", 1),
    )


DEFAULT_PROFILE = GenProfile()

#: Profile biased toward buried-contact motifs; the fault-injection
#: self-test uses it so every iteration can trip the armed fault.
FAULT_HUNT_PROFILE = GenProfile(
    p_hierarchy=0.5,
    p_squares=0.0,
    motif_weights=(
        ("plain", 1),
        ("transistor", 2),
        ("load", 5),
        ("contact", 1),
        ("abut", 1),
        ("corner", 1),
    ),
)


@dataclass(frozen=True)
class GeneratedCase:
    """One fuzz case: the layout plus what the driver needs to know."""

    seed: int
    layout: Layout
    #: all coordinates are multiples of the technology lambda; the
    #: fixed-grid raster oracle is only trustworthy when this holds.
    grid_aligned: bool
    description: str


#: The eight manhattan orientations (same set HEXT memoizes under).
_ORIENTATIONS = (
    Transform.identity(),
    Transform.mirror_x(),
    Transform.mirror_y(),
    Transform.rotation(0, 1),
    Transform.rotation(-1, 0),
    Transform.rotation(0, -1),
    Transform.mirror_x().then(Transform.rotation(0, 1)),
    Transform.mirror_y().then(Transform.rotation(0, 1)),
)


def generate_layout(
    seed: int,
    lambda_: int = DEFAULT_LAMBDA,
    profile: GenProfile = DEFAULT_PROFILE,
) -> GeneratedCase:
    """Build the layout for ``seed``; equal seeds give equal layouts."""
    rng = random.Random(seed)
    layout = Layout()
    notes: list[str] = []
    s = lambda_  # lambda units -> centimicrons

    def clamp_box(layer: str, x1: int, y1: int, x2: int, y2: int) -> "tuple[str, Box] | None":
        x1, x2 = max(0, min(x1, x2)), min(FRAME, max(x1, x2))
        y1, y2 = max(0, min(y1, y2)), min(FRAME, max(y1, y2))
        if x1 >= x2 or y1 >= y2:
            return None
        return layer, Box(x1 * s, y1 * s, x2 * s, y2 * s)

    def fill_symbol(symbol) -> None:
        motifs = rng.randint(profile.min_motifs, profile.max_motifs)
        names = [m for m, w in profile.motif_weights for _ in range(w)]
        for _ in range(motifs):
            motif = rng.choice(names)
            for placed in _MOTIFS[motif](rng):
                clamped = clamp_box(*placed)
                if clamped is not None:
                    symbol.add_box(*clamped)
            notes.append(motif)
        if rng.random() < profile.p_polygon:
            symbol.add_polygon(*_l_polygon(rng, s))
            notes.append("polygon")
        if rng.random() < profile.p_wire:
            symbol.add_wire(*_wire(rng, s))
            notes.append("wire")

    hierarchical = rng.random() < profile.p_hierarchy
    span = profile.grid * FRAME  # top-level canvas edge in lambda
    if hierarchical:
        cells = [
            layout.define(i + 1)
            for i in range(rng.randint(1, profile.max_cells))
        ]
        for cell in cells:
            fill_symbol(cell)
        slots = [
            (gx, gy)
            for gx in range(profile.grid)
            for gy in range(profile.grid)
        ]
        rng.shuffle(slots)
        parent = layout.top
        if rng.random() < profile.p_nested:
            parent = layout.define(100)
            copies = rng.randint(1, 2)
            for k in range(copies):
                layout.top.add_call(
                    100, Transform.translation(0, k * (span + FRAME) * s)
                )
            notes.append(f"nested x{copies}")
        half = FRAME * s // 2
        for gx, gy in slots[: rng.randint(1, profile.max_instances)]:
            cell = rng.choice(cells)
            orientation = rng.choice(_ORIENTATIONS)
            placed = (
                Transform.translation(-half, -half)
                .then(orientation)
                .then(
                    Transform.translation(
                        half + gx * FRAME * s, half + gy * FRAME * s
                    )
                )
            )
            parent.add_call(cell.number, placed)
        notes.append(f"cells={len(cells)}")
    else:
        fill_symbol(layout.top)

    # Top-level straps: long boxes crossing instance (window) boundaries,
    # so channels and nets straddle HEXT windows; near-miss variants abut
    # frame edges exactly or land off the lambda grid.
    grid_aligned = True
    for _ in range(rng.randint(0, profile.max_straps)):
        layer = rng.choice(("NM", "NP", "ND"))
        if rng.random() < 0.5:  # horizontal
            y = rng.randrange(0, span - 2)
            box = Box(0, y * s, span * s, (y + 2) * s)
        else:
            x = rng.randrange(0, span - 2)
            box = Box(x * s, 0, (x + 2) * s, span * s)
        if rng.random() < profile.p_offgrid:
            dx, dy = rng.choice(_OFFGRID), rng.choice(_OFFGRID)
            box = box.translated(dx, dy)
            grid_aligned = False
            notes.append("offgrid")
        layout.top.add_box(layer, box)
        notes.append(f"strap:{layer}")

    # Optionally splice a seeded Bentley-Haken-Hon random-squares block
    # beside the canvas (exercises the workload seed plumbing end to end).
    if rng.random() < profile.p_squares:
        n = rng.randint(2, 6)
        block = random_squares(n, seed=rng.randrange(1 << 30), lambda_=lambda_)
        shift = (span + 4) * s
        for layer, box in block.top.boxes:
            layout.top.add_box(layer, box.translated(shift, 0))
        notes.append(f"squares={n}")

    # Labels anchor the netlist comparison; place them at the centers of
    # top-level boxes, but only where the point sits strictly off every
    # geometry edge in the whole flattened artwork.  A point exactly on a
    # region boundary (say, the edge between a channel and its drain) has
    # underspecified attachment -- the oracles legitimately differ there,
    # so the fuzzer must not manufacture that ambiguity (DIFFTESTING.md).
    candidates = [
        (layer, box)
        for layer, box in layout.top.boxes
        if layer in _LABEL_LAYERS
    ]
    rng.shuffle(candidates)
    placed_boxes = [box for _, box in instantiate(layout)[0]]
    for layer, box in candidates[:2]:
        if rng.random() < profile.p_label:
            cx = (box.xmin + box.xmax) // 2
            cy = (box.ymin + box.ymax) // 2
            if _on_any_edge(cx, cy, placed_boxes):
                continue
            layout.top.add_label(Label(rng.choice(_NAMES), cx, cy, layer))
            notes.append("label")

    layout.validate()
    return GeneratedCase(
        seed=seed,
        layout=layout,
        grid_aligned=grid_aligned,
        description=" ".join(notes) or "empty",
    )


# ----------------------------------------------------------------------
# motifs: each returns (layer, x1, y1, x2, y2) tuples in lambda, local
# to a FRAME x FRAME cell frame (the caller clamps and scales)
# ----------------------------------------------------------------------


def _motif_plain(rng: random.Random):
    layer = rng.choice(("NM", "NP", "ND", "NI"))
    x, y = rng.randint(0, 9), rng.randint(0, 9)
    return [(layer, x, y, x + rng.randint(2, 6), y + rng.randint(2, 6))]


def _motif_transistor(rng: random.Random):
    """A poly line crossing a diffusion strip; sometimes depletion."""
    x, y = rng.randint(1, 8), rng.randint(0, 3)
    ym = y + rng.randint(2, 4)
    out = [
        ("ND", x, y, x + 2, y + 8),
        ("NP", x - 3, ym, x + 5, ym + 2),
    ]
    if rng.random() < 0.3:
        out.append(("NI", x - 1, ym - 1, x + 3, ym + 3))
    return out


def _motif_load(rng: random.Random):
    """A depletion-load-style buried gate-source tie.

    The gate poly abuts a poly tab that a buried contact ties to the
    diffusion spine: with the ``buried-skip`` fault the tie opens, and
    with ``channel-under-buried`` the tab grows a phantom channel --
    this motif is what makes both faults observable.
    """
    x, y = rng.randint(2, 8), rng.randint(0, 1)
    return [
        ("ND", x, y, x + 2, y + 10),
        ("NP", x - 2, y + 4, x + 4, y + 6),
        ("NP", x, y + 6, x + 2, y + 9),
        ("NB", x, y + 6, x + 2, y + 9),
    ]


def _motif_contact(rng: random.Random):
    """Metal over poly or diffusion with a cut inside the overlap."""
    base = rng.choice(("NP", "ND"))
    x, y = rng.randint(0, 7), rng.randint(0, 7)
    return [
        (base, x, y, x + 4, y + 2),
        ("NM", x + 1, y - 1, x + 5, y + 3),
        ("NC", x + 1, y, x + 3, y + 2),
    ]


def _motif_abut(rng: random.Random):
    """Two boxes sharing an edge exactly (must conduct, once)."""
    layer = rng.choice(("NM", "NP", "ND"))
    x, y = rng.randint(0, 5), rng.randint(0, 8)
    return [
        (layer, x, y, x + 3, y + 2),
        (layer, x + 3, y, x + 6, y + 2),
    ]


def _motif_corner(rng: random.Random):
    """Two boxes meeting only at a corner (must NOT conduct)."""
    layer = rng.choice(("NM", "NP", "ND"))
    x, y = rng.randint(0, 6), rng.randint(0, 6)
    return [
        (layer, x, y, x + 3, y + 3),
        (layer, x + 3, y + 3, x + 6, y + 6),
    ]


_MOTIFS = {
    "plain": _motif_plain,
    "transistor": _motif_transistor,
    "load": _motif_load,
    "contact": _motif_contact,
    "abut": _motif_abut,
    "corner": _motif_corner,
}


def _l_polygon(rng: random.Random, s: int):
    """A manhattan L on the lambda grid (fractures exactly)."""
    layer = rng.choice(("NM", "NP", "ND"))
    x, y = rng.randint(0, 4) * s, rng.randint(0, 4) * s
    a, b = rng.randint(2, 4) * s, rng.randint(2, 4) * s
    return layer, Polygon.from_points(
        [
            (x, y),
            (x + a + b, y),
            (x + a + b, y + a),
            (x + a, y + a),
            (x + a, y + a + b),
            (x, y + a + b),
        ]
    )


def _wire(rng: random.Random, s: int):
    """An even-width manhattan wire with 2-3 points."""
    layer = rng.choice(("NM", "NP", "ND"))
    x, y = rng.randint(1, 5) * s, rng.randint(1, 5) * s
    points = [(x, y), (x + rng.randint(2, 6) * s, y)]
    if rng.random() < 0.5:
        points.append((points[-1][0], y + rng.randint(2, 6) * s))
    return layer, 2 * s, tuple(points)


def _on_any_edge(x: int, y: int, boxes: "list[Box]") -> bool:
    """True if the point lies on the boundary of any box.

    Every derived-region edge (channel boundaries, subtraction cuts) is a
    subset of some source box's edge, so avoiding all box edges keeps a
    label point strictly interior or strictly exterior to every region
    any oracle computes.
    """
    for box in boxes:
        if (
            x in (box.xmin, box.xmax) and box.ymin <= y <= box.ymax
        ) or (
            y in (box.ymin, box.ymax) and box.xmin <= x <= box.xmax
        ):
            return True
    return False


def iteration_seed(seed: int, index: int) -> int:
    """The per-iteration sub-seed: stable, well spread, positive."""
    return (seed * 1_000_003 + index * 7_919 + 0x5F0F) & 0x7FFFFFFF


# ----------------------------------------------------------------------
# deck retargeting
# ----------------------------------------------------------------------

#: The canonical layer names the motifs draw in (the NMOS deck's).
CANONICAL_LAYERS = ("NM", "NP", "ND", "NC", "NI", "NB", "NG")


def deck_layer_map(tech: Technology) -> "dict[str, str | None]":
    """Canonical generator layers -> the target deck's role layers.

    The motifs are written against the NMOS layer names; a deck with
    different names (or without some role -- e.g. no buried windows)
    gets the same geometry with each canonical layer rewritten to the
    layer holding that role in the deck.  ``None`` means the role does
    not exist and its geometry is dropped.
    """

    def role(name: str) -> "str | None":
        return None if name == ABSENT_LAYER else name

    return {
        "NM": tech.metal,
        "NP": tech.poly,
        "ND": tech.diff,
        "NC": tech.contact,
        "NI": role(tech.marker),
        "NB": role(tech.buried),
        "NG": None,
    }


def remap_layout(layout: Layout, mapping: "dict[str, str | None]") -> Layout:
    """A copy of ``layout`` with every layer rewritten through ``mapping``.

    Geometry on a layer mapped to ``None`` is dropped; layers absent
    from the mapping pass through unchanged.  Symbol numbers, calls,
    transforms, and label positions are preserved, so the remapped
    layout exercises the same hierarchy and the same coordinates.
    """
    out = Layout()

    def fill(src, dst) -> None:
        for layer, box in src.boxes:
            target = mapping.get(layer, layer)
            if target is not None:
                dst.add_box(target, box)
        for layer, polygon in src.polygons:
            target = mapping.get(layer, layer)
            if target is not None:
                dst.add_polygon(target, polygon)
        for layer, width, points in src.wires:
            target = mapping.get(layer, layer)
            if target is not None:
                dst.add_wire(target, width, points)
        for call in src.calls:
            dst.add_call(call.symbol, call.transform)
        for label in src.labels:
            target = (
                mapping.get(label.layer, label.layer)
                if label.layer is not None
                else None
            )
            if label.layer is not None and target is None:
                continue  # anchored to a dropped layer
            dst.add_label(
                Label(label.name, label.x, label.y, target)
            )

    for number, symbol in layout.symbols.items():
        fill(symbol, out.define(number))
    fill(layout.top, out.top)
    out.validate()
    return out


def retarget_case(case: GeneratedCase, tech) -> GeneratedCase:
    """``case`` rewritten for ``tech``'s deck (identity for NMOS names).

    The rng stream is untouched -- retargeting is a pure post-pass --
    so seed N under any deck is the same geometry, just dressed in that
    deck's layers.
    """
    mapping = deck_layer_map(tech)
    identity = ("NM", "NP", "ND", "NC", "NI", "NB")
    if all(mapping.get(name) == name for name in identity):
        return case
    return GeneratedCase(
        seed=case.seed,
        layout=remap_layout(case.layout, mapping),
        grid_aligned=case.grid_aligned,
        description=case.description,
    )
