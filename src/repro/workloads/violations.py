"""Deliberately rule-violating layout snippets.

Each snippet is the minimal geometry that triggers exactly one DRC rule
(and nothing else), expressed in lambda units.  They feed three
consumers: the ``drc_violations`` golden fixture, the DRC unit tests,
and the fault-planting self-test in :mod:`repro.difftest.drcplant`,
which drops a snippet into a known-clean host layout and demands the
checker catch it.
"""

from __future__ import annotations

from ..cif import Layout
from ..drc.rules import (
    RULE_BURIED_ENCLOSURE,
    RULE_CONTACT_ENCLOSURE,
    RULE_GATE_EXTENSION,
    RULE_IMPLANT_COVERAGE,
    RULE_SPACING,
    RULE_WIDTH,
)
from ..tech import DEFAULT_LAMBDA, NMOS
from .builder import LayoutBuilder

#: rule id -> boxes ``(layer, x1, y1, x2, y2)`` in lambda units.  Every
#: snippet violates exactly its own rule; widths, spacings and overhangs
#: of the surrounding geometry are kept legal.
VIOLATION_SNIPPETS: dict[str, tuple[tuple[str, int, int, int, int], ...]] = {
    # 1-lambda poly wire (minimum is 2).
    RULE_WIDTH: (("NP", 0, 0, 1, 6),),
    # Two diffusion wires 2 lambda apart (minimum is 3).
    RULE_SPACING: (
        ("ND", 0, 0, 2, 6),
        ("ND", 4, 0, 6, 6),
    ),
    # Poly gate flush with the right channel edge: no overhang.
    RULE_GATE_EXTENSION: (
        ("ND", 0, 0, 2, 6),
        ("NP", -2, 2, 2, 4),
    ),
    # Contact cut hanging one lambda outside its metal.
    RULE_CONTACT_ENCLOSURE: (
        ("NC", 0, 0, 2, 2),
        ("NM", 1, -1, 4, 3),
    ),
    # Buried window hanging one lambda outside its diffusion.
    RULE_BURIED_ENCLOSURE: (
        ("NB", 0, 0, 2, 3),
        ("ND", 1, 0, 3, 3),
        ("NP", 0, 0, 2, 3),
    ),
    # Implant covering only part of a depletion channel's margin.
    RULE_IMPLANT_COVERAGE: (
        ("ND", 0, 0, 2, 8),
        ("NP", -2, 3, 4, 5),
        ("NI", 0, 2, 4, 6),
    ),
}

#: Horizontal pitch (lambda) between planted snippets -- wide enough
#: that no same-layer spacing rule fires between neighbours.
SNIPPET_PITCH = 12


def violation_snippets_for(
    tech=None,
) -> "dict[str, tuple[tuple[str, int, int, int, int], ...]]":
    """The planted-violation table for ``tech``'s deck.

    The canonical snippets are written in the NMOS layer names; for
    another deck each snippet is rewritten through the deck's layer
    roles (diffusion, gate, metal, cut, marker, buried window) and
    restricted to the rules the deck enables (NMOS by default).  A
    snippet touching a role the deck lacks (e.g. buried windows under
    CMOS) is dropped -- its rule cannot fire there.
    """
    from ..difftest.generator import deck_layer_map

    tech = tech or NMOS()
    mapping = deck_layer_map(tech)
    enabled = set(tech.deck.drc.rules)
    table: dict[str, tuple] = {}
    for rule, boxes in VIOLATION_SNIPPETS.items():
        if rule not in enabled:
            continue
        mapped = []
        for layer, x1, y1, x2, y2 in boxes:
            target = mapping[layer]
            if target is None:
                mapped = None
                break
            mapped.append((target, x1, y1, x2, y2))
        if mapped is not None:
            table[rule] = tuple(mapped)
    return table


def snippet_rules() -> tuple[str, ...]:
    """The planted rule ids, in fixture placement order."""
    return tuple(VIOLATION_SNIPPETS)


def plant_snippet(
    builder: LayoutBuilder, rule: str, dx: int = 0, dy: int = 0
) -> None:
    """Add one violation snippet to the builder's top symbol."""
    top = builder.top
    for layer, x1, y1, x2, y2 in VIOLATION_SNIPPETS[rule]:
        top.box(layer, x1 + dx, y1 + dy, x2 + dx, y2 + dy)


def drc_violations(lambda_: int = DEFAULT_LAMBDA) -> Layout:
    """A fixture layout planting every DRC violation class once.

    Snippets sit on a common baseline at :data:`SNIPPET_PITCH` so each
    stays isolated; the resulting report must contain exactly one
    diagnostic per rule id in :data:`VIOLATION_SNIPPETS`.
    """
    b = LayoutBuilder(lambda_)
    for i, rule in enumerate(VIOLATION_SNIPPETS):
        plant_snippet(b, rule, dx=i * SNIPPET_PITCH)
    return b.done()
