"""Data model for the CMU hierarchical wirelist format.

The format (Frank, Ebeling & Sproull, CMU VLSI document V085) represents
circuits as *parts* and *nets* with a LISP-like syntax.  A flat ACE
wirelist is a single ``DefPart`` containing primitive transistor parts
and net declarations (Figure 3-4 of the paper); a HEXT wirelist nests
window ``DefPart``s that instantiate one another and equate nets across
their boundaries (Figure 2-2).

A wirelist opens with a prolog declaring its primitive transistor parts,
one ``(DefPart <type> (Export Source Gate Drain))`` per device type of
the technology deck it was extracted under; the parser reads them back
from there, so a wirelist is self-describing whatever its deck calls
its devices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..tech import NMOS, Technology


def primitives_for(tech: "Technology | None" = None) -> dict:
    """The primitive-part prolog ``tech``'s wirelists declare (NMOS by
    default): one part per device type, in deck order."""
    return {
        rule.name: ("Source", "Gate", "Drain")
        for rule in (tech or NMOS()).deck.device_types
    }


@dataclass
class DeviceInstance:
    """A primitive transistor instance inside a DefPart."""

    kind: str  # a primitive part name, e.g. "nEnh"
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
    #: primitive-part prolog: part name -> export names
    primitives: dict = field(default_factory=primitives_for)

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
