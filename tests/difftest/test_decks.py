"""Deck-aware fuzzing: retargeting, oracle gating, CMOS agreement, and
a renamed NMOS process through every extraction and checking path."""

import dataclasses
import json

import pytest

from repro.analysis import circuit_stats, static_check
from repro.cif.writer import write as write_cif
from repro.core import extract
from repro.core.stripengine import numpy_available
from repro.difftest import generate_layout, run_difftest
from repro.difftest.drcplant import hosts_for, run_drc_self_test
from repro.difftest.driver import _deck_capable
from repro.difftest.generator import (
    CANONICAL_LAYERS,
    deck_layer_map,
    remap_layout,
    retarget_case,
)
from repro.difftest.oracles import ORACLES, select_oracles
from repro.drc import run_drc
from repro.pipeline import JobOptions, run
from repro.sim import HIGH, LOW, SwitchSimulator
from repro.tech import CMOS, NMOS, compile_deck, deck_to_dict, nmos_deck
from repro.tech.deck import BuriedRule, ChannelRule, ContactRule
from repro.wirelist import flatten, parse_wirelist
from repro.workloads import inverter
from repro.workloads.violations import violation_snippets_for
from tests.streaming.harness import chip_height

TECH = NMOS()
CMOS_TECH = CMOS()


class TestRetargeting:
    def test_nmos_retarget_is_identity(self):
        case = generate_layout(7, TECH.lambda_)
        assert retarget_case(case, TECH) is case

    def test_cmos_retarget_moves_every_layer(self):
        case = generate_layout(7, TECH.lambda_)
        retargeted = retarget_case(case, CMOS_TECH)
        assert retargeted is not case
        text = write_cif(retargeted.layout)
        for layer in CANONICAL_LAYERS:
            assert f"L {layer};" not in text

    def test_cmos_layer_map_covers_roles(self):
        mapping = deck_layer_map(CMOS_TECH)
        assert mapping["NM"] == "CM"
        assert mapping["NP"] == "CP"
        assert mapping["ND"] == "CD"
        assert mapping["NC"] == "CC"
        assert mapping["NI"] == "CW"
        assert mapping["NB"] is None  # CMOS has no buried windows

    def test_remapped_layout_extracts_under_cmos(self):
        case = generate_layout(11, TECH.lambda_)
        remapped = remap_layout(case.layout, deck_layer_map(CMOS_TECH))
        circuit = extract(remapped, CMOS_TECH)
        kinds = {device.kind for device in circuit.devices}
        assert kinds <= {"pEnh", "nEnh"}


class TestDeckGating:
    def test_all_oracles_support_cmos(self):
        capable, skips = _deck_capable(
            select_oracles(tuple(ORACLES)), CMOS_TECH
        )
        assert skips == 0
        assert len(capable) == len(ORACLES)

    def test_unknown_deck_gates_named_oracles(self):
        class FakeDeck:
            name = "sos"

        class FakeTech:
            deck = FakeDeck()

        capable, skips = _deck_capable(
            select_oracles(tuple(ORACLES)), FakeTech()
        )
        assert skips == sum(1 for o in ORACLES.values() if o.decks)
        assert {o.name for o in capable} == {
            name for name, o in ORACLES.items() if o.decks is None
        }

    def test_gating_below_two_oracles_raises(self):
        class FakeDeck:
            name = "sos"

        class FakeTech:
            deck = FakeDeck()

        with pytest.raises(ValueError, match="capable oracle"):
            _deck_capable(select_oracles(("raster", "polyflat")), FakeTech())


class TestCmosRuns:
    def test_oracles_agree_under_cmos(self, tmp_path):
        result = run_difftest(
            iterations=10,
            seed=313,
            oracle_names=("ace", "ace-stream", "raster", "polyflat"),
            tech=CMOS_TECH,
            corpus_dir=str(tmp_path / "corpus"),
        )
        assert result.ok, [f.mismatches[0].headline() for f in result.failures]
        assert result.iterations == 10
        assert result.deck_skips == 0


# ----------------------------------------------------------------------
# a renamed process through every path
# ----------------------------------------------------------------------

#: NMOS layer -> its name in the renamed deck, and back.
RENAMED_LAYERS = {
    "NM": "XM", "NP": "XP", "ND": "XD", "NC": "XC",
    "NI": "XI", "NB": "XB", "NG": "XG",
}
NMOS_LAYER = {new: old for old, new in RENAMED_LAYERS.items()}
#: NMOS part name -> its name in the renamed deck.
RENAMED_PARTS = {"nEnh": "NFET", "nDep": "NLOAD"}


def renamed_nmos_deck():
    """NMOS with every layer and both device types renamed."""
    deck = nmos_deck()
    layer = RENAMED_LAYERS.__getitem__
    return dataclasses.replace(
        deck,
        name="nmos-renamed",
        layers=tuple(
            dataclasses.replace(spec, name=layer(spec.name))
            for spec in deck.layers
        ),
        channel=ChannelRule(
            diffusion=layer(deck.channel.diffusion),
            gate=layer(deck.channel.gate),
            blocker=layer(deck.channel.blocker),
        ),
        device_types=tuple(
            dataclasses.replace(
                rule,
                name=RENAMED_PARTS[rule.name],
                marker=rule.marker and layer(rule.marker),
            )
            for rule in deck.device_types
        ),
        contact=ContactRule(
            cut=layer(deck.contact.cut),
            connects=tuple(map(layer, deck.contact.connects)),
        ),
        buried=BuriedRule(window=layer(deck.buried.window)),
        ignored=tuple(map(layer, deck.ignored)),
        drc=dataclasses.replace(
            deck.drc,
            min_width={layer(k): v for k, v in deck.drc.min_width.items()},
            min_spacing={
                layer(k): v for k, v in deck.drc.min_spacing.items()
            },
        ),
    )


RENAMED_TECH = compile_deck(renamed_nmos_deck())
ENGINES = ["python"] + (["numpy"] if numpy_available() else [])


def _renamed_parts(text: str) -> str:
    for old, new in RENAMED_PARTS.items():
        text = text.replace(f"Part {old} ", f"Part {new} ")
    return text


def _nmos_layers(diag):
    """A renamed-deck diagnostic in NMOS layer names."""
    message = diag.message
    for new, old in NMOS_LAYER.items():
        message = message.replace(new, old)
    layer = NMOS_LAYER.get(diag.layer, diag.layer)
    return dataclasses.replace(diag, layer=layer, message=message)


@pytest.fixture(scope="module")
def renamed_cases():
    """A dozen generated cases, drawn for NMOS and for the renamed deck."""
    cases = []
    for seed in range(12):
        layout = generate_layout(seed, TECH.lambda_).layout
        cases.append(
            (
                remap_layout(layout, deck_layer_map(TECH)),
                remap_layout(layout, deck_layer_map(RENAMED_TECH)),
            )
        )
    return cases


class TestRenamedProcess:
    def test_renamed_deck_renames_everything(self):
        deck = renamed_nmos_deck()
        names = {spec.name for spec in deck.layers}
        assert names == set(NMOS_LAYER)
        assert RENAMED_TECH.kinds == ("NFET", "NLOAD")
        text = json.dumps(deck_to_dict(deck))
        assert not any(f'"{old}"' in text for old in RENAMED_LAYERS)

    def test_every_extraction_path_follows_the_deck(self, renamed_cases):
        for nmos_layout, renamed_layout in renamed_cases:
            expected = run(nmos_layout, TECH, JobOptions(name="case")).text
            expected = _renamed_parts(expected)
            circuit = extract(renamed_layout, RENAMED_TECH)
            height = chip_height(renamed_layout)
            runs = {
                **{
                    engine: JobOptions(name="case")
                    for engine in ENGINES
                },
                "stream/3": JobOptions(
                    name="case", stream=True,
                    band_height=max(1, height // 3),
                ),
                "stream/7": JobOptions(
                    name="case", stream=True,
                    band_height=max(1, height // 7),
                ),
            }
            for label, options in runs.items():
                engine = label if label in ENGINES else "auto"
                text = run(
                    renamed_layout, RENAMED_TECH, options, engine=engine
                ).text
                assert text == expected, label
            hier = run(
                renamed_layout, RENAMED_TECH,
                JobOptions(name="case", hext=True),
            ).text
            nmos_hier = run(
                nmos_layout, TECH, JobOptions(name="case", hext=True)
            ).text
            assert hier == _renamed_parts(nmos_hier)
            for text in (expected, hier):
                parsed = flatten(parse_wirelist(text))
                assert len(parsed.devices) == len(circuit.devices)
                assert {d.kind for d in parsed.devices} <= {"NFET", "NLOAD"}

    def test_checkers_follow_the_deck(self, renamed_cases):
        for nmos_layout, renamed_layout in renamed_cases:
            drc = run_drc(renamed_layout, RENAMED_TECH).diagnostics
            assert [_nmos_layers(d) for d in drc] == (
                run_drc(nmos_layout, TECH).diagnostics
            )
            erc = static_check(
                extract(renamed_layout, RENAMED_TECH), tech=RENAMED_TECH
            )
            assert erc.diagnostics == (
                static_check(extract(nmos_layout, TECH)).diagnostics
            )

    def test_deckless_oracles_agree(self, tmp_path):
        names = tuple(n for n, o in ORACLES.items() if o.decks is None)
        result = run_difftest(
            iterations=10,
            seed=1983,
            oracle_names=names,
            tech=RENAMED_TECH,
            corpus_dir=str(tmp_path / "corpus"),
        )
        assert result.ok, [f.mismatches[0].headline() for f in result.failures]
        assert result.iterations == 10
        assert result.deck_skips == 0

    def test_drc_self_test_hosts_follow_the_deck(self):
        hosts = hosts_for(RENAMED_TECH)
        devices = {
            name: len(extract(draw(RENAMED_TECH.lambda_), RENAMED_TECH).devices)
            for name, draw in hosts.items()
        }
        assert devices == {"inverter": 2, "nand2": 3, "single_transistor": 1}
        result = run_drc_self_test(RENAMED_TECH, do_shrink=False)
        assert result.clean_hosts == list(hosts)
        assert len(result.plants) == len(hosts) * len(
            violation_snippets_for(RENAMED_TECH)
        )
        assert all(plant.caught for plant in result.plants)

    def test_device_roles_follow_the_deck(self):
        renamed = remap_layout(inverter(), deck_layer_map(RENAMED_TECH))
        circuit = extract(renamed, RENAMED_TECH)
        nmos = extract(inverter(), TECH)
        for tech, extracted in ((RENAMED_TECH, circuit), (None, nmos)):
            stats = circuit_stats(extracted, tech=tech)
            assert (stats.enhancement, stats.depletion) == (1, 1)
            sim = SwitchSimulator(extracted, tech=tech)
            sim.set_input("IN", LOW)
            assert sim.simulate().of("OUT") == HIGH
            sim.set_input("IN", HIGH)
            assert sim.simulate().of("OUT") == LOW
