"""Circuit summary statistics.

The kind of numbers Table 5-1 reports per chip (device counts, boxes),
plus distributional summaries useful when validating that a synthetic
workload matches the character of the paper's chips.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from ..cif import Layout
from ..core.netlist import Circuit
from ..frontend import instantiate
from ..tech import NMOS, Technology


@dataclass(frozen=True)
class CircuitStats:
    """Headline numbers for one extracted circuit."""

    devices: int
    enhancement: int
    depletion: int
    nets: int
    named_nets: int
    terminals_per_net_mean: float
    malformed: int

    def as_row(self) -> dict:
        return {
            "devices": self.devices,
            "enhancement": self.enhancement,
            "depletion": self.depletion,
            "nets": self.nets,
            "named_nets": self.named_nets,
            "malformed": self.malformed,
        }


def circuit_stats(
    circuit: Circuit, *, tech: "Technology | None" = None
) -> CircuitStats:
    """Headline numbers; ``tech``'s deck (NMOS by default) says which
    device types are enhancement and which depletion."""
    depletion = {
        rule.name: rule.depletion for rule in (tech or NMOS()).deck.device_types
    }
    kinds = Counter(depletion.get(d.kind) for d in circuit.devices)
    fanin: Counter = Counter()
    for device in circuit.devices:
        for net in (device.gate, device.source, device.drain):
            if net is not None:
                fanin[net] += 1
    used = len(fanin)
    return CircuitStats(
        devices=len(circuit.devices),
        enhancement=kinds[False],
        depletion=kinds[True],
        nets=len(circuit.nets),
        named_nets=sum(1 for n in circuit.nets if n.names),
        terminals_per_net_mean=(
            sum(fanin.values()) / used if used else 0.0
        ),
        malformed=sum(1 for d in circuit.devices if d.is_malformed),
    )


@dataclass(frozen=True)
class LayoutStats:
    """Artwork-side numbers: the paper's '# of Boxes' column."""

    boxes: int
    boxes_by_layer: dict
    width: int
    height: int

    @property
    def boxes_thousands(self) -> float:
        return self.boxes / 1000.0


def layout_stats(layout: Layout) -> LayoutStats:
    boxes, _ = instantiate(layout)
    by_layer: Counter = Counter(layer for layer, _ in boxes)
    if boxes:
        xmin = min(b.xmin for _, b in boxes)
        ymin = min(b.ymin for _, b in boxes)
        xmax = max(b.xmax for _, b in boxes)
        ymax = max(b.ymax for _, b in boxes)
    else:
        xmin = ymin = xmax = ymax = 0
    return LayoutStats(
        boxes=len(boxes),
        boxes_by_layer=dict(by_layer),
        width=xmax - xmin,
        height=ymax - ymin,
    )
