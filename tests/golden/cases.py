"""The canonical layouts whose extracted wirelists are pinned as goldens.

Each case is a zero-argument factory returning a :class:`Layout`; the
snapshot for case ``name`` lives next to this module as
``name.wirelist``, and for a hierarchical case as ``name.hext`` (the
HEXT wirelist, ``(Net a b)`` lines and all).  Regenerate all snapshots
with::

    PYTHONPATH=src python tools/regen_golden.py

and review the diff like any other code change -- a golden churn without
an intentional extractor change is a regression.
"""

from __future__ import annotations

from repro.cif import Layout
from repro.core import extract
from repro.diagnostics import format_text
from repro.difftest.generator import generate_layout
from repro.lint import lint_layout
from repro.pipeline import JobOptions, run
from repro.tech import CMOS, NMOS, Technology
from repro.wirelist import to_wirelist, write_wirelist
from repro.workloads.builder import LayoutBuilder
from repro.workloads.cells import (
    INVERTER_SIZE,
    build_chain_inverter_cell,
    build_inverter_cell,
    inverter,
    nand2,
)
from repro.workloads.chips import build_chip
from repro.workloads.cmos import (
    cmos_inverter,
    cmos_nand2,
    pseudo_nmos_inverter,
)
from repro.workloads.violations import drc_violations

TECH = NMOS()
CMOS_TECH = CMOS()


def butting_contact() -> Layout:
    """A driver whose gate is fed through a butting contact.

    The contact cut sits over metal, poly, AND diffusion at once, so all
    three nets union (tech rule: a contact unions every conducting layer
    under it).  The poly then gates a second diffusion strip -- the
    wirelist must show IN driving the gate even though the label sits on
    the metal arm.
    """
    b = LayoutBuilder(TECH.lambda_)
    # The butting pair: poly from the left, diffusion from the right,
    # meeting edge-to-edge under one 2x4 cut covered by metal.
    b.top.box("NP", 0, 4, 8, 6)
    b.top.box("ND", 8, 3, 14, 7)
    b.top.box("NC", 6, 3, 10, 7)
    b.top.box("NM", 5, 2, 11, 8)
    # The same poly runs on to gate a transistor on a second strip.
    b.top.box("NP", 0, 6, 2, 16)
    b.top.box("NP", 0, 16, 10, 18)
    b.top.box("ND", 6, 12, 8, 22)
    b.top.label("IN", 7, 5, "NM")
    b.top.label("S", 7, 13, "ND")
    b.top.label("D", 7, 21, "ND")
    return b.done()


def buried_contact() -> Layout:
    """A depletion load tied gate-to-source through a buried contact.

    This is the inverter's upper half in isolation: the buried window
    unions poly and diffusion (and suppresses the channel under itself),
    leaving exactly one nDep whose gate and OUT-side terminal share a
    net.
    """
    b = LayoutBuilder(TECH.lambda_)
    b.top.box("ND", 0, 0, 2, 20)
    b.top.box("NP", 0, 4, 2, 7)  # poly tab into the buried window
    b.top.box("NB", 0, 4, 2, 7)
    b.top.box("NP", -1, 7, 3, 15)  # the depletion gate
    b.top.box("NI", -2, 6, 4, 16)
    b.top.label("OUT", 1, 2, "ND")
    b.top.label("VDD", 1, 18, "ND")
    return b.done()


def hier_pair() -> Layout:
    """A two-level hierarchy: a row cell calling a leaf inverter twice.

    Level 1 is the chain inverter leaf; level 2 is a row symbol placing
    two of them at abutment pitch; the top calls the row.  Exercises
    call-through-call flattening and net stitching across cell edges.
    """
    b = LayoutBuilder(TECH.lambda_)
    leaf = build_chain_inverter_cell(b)
    row = b.new_symbol()
    row.call(leaf, 0, 0)
    row.call(leaf, 10, 0)
    b.top.call(row, 0, 0)
    b.top.label("IN", 1, 10, "NM")
    b.top.label("OUT", 18, 10, "NM")
    b.top.label("VDD", 5, 24, "NM")
    b.top.label("GND", 5, 2, "NM")
    return b.done()


def four_inverters() -> Layout:
    """HEXT Figure 2-1: a 2x2 array of one inverter cell, built as pairs."""
    b = LayoutBuilder()
    cell = build_inverter_cell(b)
    pair = b.new_symbol()
    pair.call(cell, 0, 0)
    pair.call(cell, INVERTER_SIZE[0], 0)
    quad = b.new_symbol()
    quad.call(pair, 0, 0)
    quad.call(pair, 0, INVERTER_SIZE[1] + 2)
    b.top.call(quad, 0, 0)
    return b.done()


def testram() -> Layout:
    """The suite's testram chip at 1/32: an array HEXT composes row by row."""
    return build_chip("testram", 1 / 32)


def difftest_seed34() -> Layout:
    """A fuzzed layout whose transistors straddle window edges.

    Its composes merge partial transistors across the seam and complete
    them there, the part of Compose the regular chips never reach.
    """
    return generate_layout(34).layout


#: name -> layout factory; sorted emission order keeps regen diffs stable.
GOLDEN_CASES: "dict[str, callable]" = {
    "inverter": inverter,
    "nand2": nand2,
    "butting_contact": butting_contact,
    "buried_contact": buried_contact,
    "hier_pair": hier_pair,
    "cmos_inverter": cmos_inverter,
    "cmos_nand2": cmos_nand2,
    "pseudo_nmos": pseudo_nmos_inverter,
}

#: Hierarchical snapshot cases, pinned as ``<case>.hext``: the byte
#: order of every ``(Net a b)`` line is Compose's equivalence order.
HEXT_CASES: "dict[str, callable]" = {
    "hier_pair": hier_pair,
    "four_inverters": four_inverters,
    "testram": testram,
    "difftest_seed34": difftest_seed34,
}

#: Cases extracted under a non-default deck; everything else is NMOS.
CASE_TECH: "dict[str, Technology]" = {
    "cmos_inverter": CMOS_TECH,
    "cmos_nand2": CMOS_TECH,
    "pseudo_nmos": CMOS_TECH,
}


def tech_for(name: str) -> Technology:
    """The technology a golden case extracts under."""
    return CASE_TECH.get(name, TECH)

#: Lint-report snapshot cases: every wirelist golden (all of which must
#: stay DRC-clean) plus the deliberately violating fixture, whose report
#: must list exactly its planted rule ids.
LINT_CASES: "dict[str, callable]" = {
    **GOLDEN_CASES,
    "drc_violations": drc_violations,
}


def render_case(name: str, engine: str = "auto") -> str:
    """The wirelist text a snapshot pins: extract + flat CMU format.

    The snapshot keeps geometry, so it runs on the python strip engine
    whatever ``engine`` asks for; the engines' parity without geometry
    is tests/core/test_engines.py's.
    """
    layout = GOLDEN_CASES[name]()
    tech = tech_for(name)
    circuit = extract(layout, tech, keep_geometry=True, engine=engine)
    return write_wirelist(to_wirelist(circuit, name=name, tech=tech))


def render_hext_case(name: str, engine: str = "auto") -> str:
    """The hierarchical wirelist text a ``<case>.hext`` snapshot pins.

    ``engine`` is the run's strip-engine request (``ace-extract
    --engine``); HEXT's windows run on the python strip engine whatever
    it names, so every request must render the same bytes.
    """
    options = JobOptions(name=name, hext=True)
    return run(HEXT_CASES[name](), tech_for(name), options, engine=engine).text


def render_lint_case(name: str) -> str:
    """The ``repro-lint`` text report a ``<case>.lint`` snapshot pins."""
    layout = LINT_CASES[name]()
    return format_text(
        lint_layout(layout, tech=tech_for(name), artifact=name)
    )
