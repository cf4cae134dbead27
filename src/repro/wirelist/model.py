"""Data model for the CMU hierarchical wirelist format.

The format (Frank, Ebeling & Sproull, CMU VLSI document V085) represents
circuits as *parts* and *nets* with a LISP-like syntax.  A flat ACE
wirelist is a single ``DefPart`` containing primitive transistor parts
and net declarations (Figure 3-4 of the paper); a HEXT wirelist nests
window ``DefPart``s that instantiate one another and equate nets across
their boundaries (Figure 2-2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Export lists of the primitive NMOS transistor parts (the default
#: wirelist prolog; deck-compiled technologies may declare others).
PRIMITIVE_PARTS = {
    "nEnh": ("Source", "Gate", "Drain"),
    "nDep": ("Source", "Gate", "Drain"),
}

#: Every primitive part name the parser recognizes, across all decks.
KNOWN_PRIMITIVES = {
    **PRIMITIVE_PARTS,
    "pEnh": ("Source", "Gate", "Drain"),
}


def primitives_for(tech: object = None) -> dict:
    """The primitive-part prolog a technology's wirelists declare.

    Deck-compiled technologies declare one part per device type, in
    deck order; deckless (or ``None``) technologies keep the historical
    NMOS prolog.
    """
    deck = getattr(tech, "deck", None)
    if deck is None:
        return PRIMITIVE_PARTS
    return {
        rule.name: ("Source", "Gate", "Drain")
        for rule in deck.device_types
    }


@dataclass
class DeviceInstance:
    """A primitive transistor instance inside a DefPart."""

    kind: str  # "nEnh" | "nDep"
    inst_name: str  # D0, D1, ...
    gate: str | None
    source: str | None
    drain: str | None
    location: tuple[int, int] | None = None
    length: float | None = None
    width: float | None = None
    channel_cif: str | None = None


@dataclass
class SubpartInstance:
    """An instance of another DefPart (HEXT window composition)."""

    part: str
    inst_name: str
    net_map: dict[str, str] = field(default_factory=dict)  # child -> parent
    loc_offset: tuple[int, int] | None = None


@dataclass
class NetDecl:
    """A ``(Net name alias... (Location x y) (CIF "..."))`` declaration.

    ``names`` holds the canonical name first, then aliases; a two-name
    declaration with no attributes is a pure equivalence, as used in the
    hierarchical format.
    """

    names: list[str]
    location: tuple[int, int] | None = None
    cif: str | None = None

    @property
    def canonical(self) -> str:
        return self.names[0]


@dataclass
class DefPart:
    """One circuit fragment definition."""

    name: str
    exports: list[str] = field(default_factory=list)
    devices: list[DeviceInstance] = field(default_factory=list)
    subparts: list[SubpartInstance] = field(default_factory=list)
    nets: list[NetDecl] = field(default_factory=list)
    locals_: list[str] = field(default_factory=list)


@dataclass
class Wirelist:
    """A complete wirelist: DefParts in definition order plus a top part.

    ``top`` names the DefPart instantiated as the chip (the trailing
    ``(Part Window3 (Name Top))`` of Figure 2-2); for flat wirelists it is
    simply the single DefPart.
    """

    name: str
    defparts: list[DefPart] = field(default_factory=list)
    top: str | None = None
    #: primitive-part prolog; None means the NMOS PRIMITIVE_PARTS.
    primitives: dict | None = None

    def defpart(self, name: str) -> DefPart:
        for part in self.defparts:
            if part.name == name:
                return part
        raise KeyError(f"no DefPart named {name!r}")

    @property
    def top_part(self) -> DefPart:
        if self.top is not None:
            return self.defpart(self.top)
        if not self.defparts:
            raise ValueError("empty wirelist")
        return self.defparts[-1]
