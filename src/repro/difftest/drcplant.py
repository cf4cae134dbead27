"""DRC fault planting: the checker testing itself.

The fuzzing harness proves the *extractor* catches armed scanline bugs
(:mod:`repro.difftest.faults`); this module gives the design-rule
checker the same treatment.  Each violation snippet from
:mod:`repro.workloads.violations` is dropped just outside the bounding
box of a known-clean host cell; the self-test demands that

1. the host alone lints clean (no false positives),
2. the planted layout reports the snippet's rule id, and
3. the shrinker can minimize the planted layout while the rule keeps
   firing -- so a reported violation always comes with a small repro.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..cif import Layout
from ..drc import run_drc
from ..frontend import instantiate
from ..geometry import Box
from ..tech import NMOS, Technology
from ..workloads import (
    cmos_inverter,
    cmos_nand2,
    inverter,
    nand2,
    single_transistor,
)
from ..workloads.violations import VIOLATION_SNIPPETS, violation_snippets_for
from .generator import deck_layer_map, remap_layout
from .shrink import ShrinkResult, shrink

#: Clear distance (lambda) between a host's artwork and the planted
#: snippet -- beyond every spacing rule, so host and snippet never
#: interact.
PLANT_CLEARANCE = 8

#: name -> known-clean host layout factory.
DEFAULT_HOSTS: dict[str, Callable[[int], Layout]] = {
    "inverter": inverter,
    "nand2": nand2,
    "single_transistor": single_transistor,
}

#: deck name -> known-clean hosts drawn in that deck's layers.
DECK_HOSTS: dict[str, dict[str, Callable[[int], Layout]]] = {
    "nmos": DEFAULT_HOSTS,
    "cmos": {
        "cmos_inverter": cmos_inverter,
        "cmos_nand2": cmos_nand2,
    },
}


def hosts_for(tech: Technology) -> "dict[str, Callable[[int], Layout]]":
    """The known-clean host cells drawn in ``tech``'s deck layers.

    A deck without hosts of its own gets the NMOS hosts with each layer
    rewritten to the layer holding its role in that deck.
    """
    hosts = DECK_HOSTS.get(tech.name)
    if hosts is not None:
        return hosts
    mapping = deck_layer_map(tech)
    return {
        name: lambda lambda_, draw=draw: remap_layout(draw(lambda_), mapping)
        for name, draw in DEFAULT_HOSTS.items()
    }


@dataclass
class PlantResult:
    """Outcome of planting one rule's snippet into one host."""

    rule: str
    host: str
    caught: bool
    shrunk: "ShrinkResult | None" = None
    shrunk_still_fails: bool = False

    @property
    def ok(self) -> bool:
        if not self.caught:
            return False
        return self.shrunk is None or self.shrunk_still_fails


@dataclass
class SelfTestResult:
    clean_hosts: list[str]
    dirty_hosts: list[str]
    plants: list[PlantResult]

    @property
    def ok(self) -> bool:
        return not self.dirty_hosts and all(p.ok for p in self.plants)


def plant_violation(
    layout: Layout,
    rule: str,
    lambda_: int,
    snippets: "dict[str, tuple] | None" = None,
) -> Layout:
    """``layout`` plus ``rule``'s snippet placed clear of its artwork."""
    boxes, _labels = instantiate(layout)
    xmax = max((box.xmax for _layer, box in boxes), default=0)
    ymin = min((box.ymin for _layer, box in boxes), default=0)
    snippet = (snippets or VIOLATION_SNIPPETS)[rule]
    min_x = min(x1 for _layer, x1, _y1, _x2, _y2 in snippet)
    dx = xmax + (PLANT_CLEARANCE - min_x) * lambda_
    dy = ymin
    for layer, x1, y1, x2, y2 in snippet:
        layout.top.add_box(
            layer,
            Box(
                dx + x1 * lambda_,
                dy + y1 * lambda_,
                dx + x2 * lambda_,
                dy + y2 * lambda_,
            ),
        )
    return layout


def run_drc_self_test(
    tech: Technology | None = None,
    *,
    hosts: "dict[str, Callable[[int], Layout]] | None" = None,
    do_shrink: bool = True,
    max_probes: int = 200,
    progress: "Callable[[str], None] | None" = None,
) -> SelfTestResult:
    """Plant every violation class into every host and check detection.

    Hosts and snippets follow ``tech``'s deck: the planted geometry is
    rewritten into the deck's layer names and restricted to the rules
    the deck enables, and the clean host cells are the ones drawn in
    that deck (:func:`hosts_for`).
    """
    tech = tech or NMOS()
    hosts = hosts if hosts is not None else hosts_for(tech)
    snippets = violation_snippets_for(tech)
    say = progress or (lambda line: None)

    def fired(layout: Layout, rule: str) -> bool:
        report = run_drc(layout, tech, attribute=False)
        return any(d.rule == rule for d in report.diagnostics)

    clean: list[str] = []
    dirty: list[str] = []
    for name, factory in hosts.items():
        report = run_drc(factory(tech.lambda_), tech, attribute=False)
        if report.diagnostics:
            dirty.append(name)
            say(f"host {name} is NOT clean: {report.rule_ids()}")
        else:
            clean.append(name)

    plants: list[PlantResult] = []
    for rule in snippets:
        for name in clean:
            layout = plant_violation(
                hosts[name](tech.lambda_), rule, tech.lambda_, snippets
            )
            result = PlantResult(rule=rule, host=name, caught=fired(layout, rule))
            if not result.caught:
                say(f"{rule} planted in {name}: MISSED")
            elif do_shrink:
                result.shrunk = shrink(
                    layout,
                    lambda candidate: fired(candidate, rule),
                    max_probes=max_probes,
                )
                result.shrunk_still_fails = fired(result.shrunk.layout, rule)
                say(
                    f"{rule} planted in {name}: caught, shrunk "
                    f"{result.shrunk.before} -> {result.shrunk.after} "
                    f"primitives"
                )
            else:
                say(f"{rule} planted in {name}: caught")
            plants.append(result)
    return SelfTestResult(clean_hosts=clean, dirty_hosts=dirty, plants=plants)
