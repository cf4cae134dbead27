"""A wirelist declares its own primitive parts, and the parser reads them.

The prolog's ``(DefPart <type> (Export Source Gate Drain))`` lines name
the device types of the deck the wirelist was extracted under, so the
text parses back to its devices whatever the deck calls them, and
writing the parsed wirelist again gives back the same prolog.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.pipeline import JobOptions, run
from repro.tech import compile_deck, nmos_deck
from repro.tech.deck import DeviceTypeRule
from repro.wirelist import flatten, parse_wirelist, write_wirelist
from repro.workloads import inverter

GOLDEN_DIR = Path(__file__).parents[1] / "golden"
GOLDENS = sorted(GOLDEN_DIR.glob("*.wirelist")) + sorted(
    GOLDEN_DIR.glob("*.hext")
)


@pytest.mark.parametrize("path", GOLDENS, ids=lambda path: path.name)
def test_golden_round_trips_byte_for_byte(path):
    text = path.read_text()
    assert write_wirelist(parse_wirelist(text)) == text


@pytest.mark.parametrize("hext", [False, True], ids=["flat", "hext"])
def test_renamed_device_types_parse_back(hext):
    tech = compile_deck(
        dataclasses.replace(
            nmos_deck(),
            name="renamed-devices",
            device_types=(
                DeviceTypeRule("NFET", marker=None),
                DeviceTypeRule("NLOAD", marker="NI", depletion=True),
            ),
        )
    )
    text = run(inverter(), tech, JobOptions(name="inv", hext=hext)).text
    parsed = parse_wirelist(text)
    assert parsed.primitives == {
        "NFET": ("Source", "Gate", "Drain"),
        "NLOAD": ("Source", "Gate", "Drain"),
    }
    kinds = sorted(d.kind for d in flatten(parsed).devices)
    assert kinds == ["NFET", "NLOAD"]
    assert write_wirelist(parsed) == text
