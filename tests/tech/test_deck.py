"""The deck compiler's static validation pass.

One test per validation rule id, each planting exactly the defect the
rule exists to catch, plus the positive pins: every shipped deck file
is its builtin deck, validates clean, compiles, and round-trips
through its JSON form.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.parallel.serialize import technology_fingerprint
from repro.tech import (
    BUILTIN_DECKS,
    CMOS,
    DECK_RULE_HELP,
    DEFAULT_LAMBDA,
    NMOS,
    DeckError,
    cmos_deck,
    compile_deck,
    deck_by_name,
    deck_from_dict,
    deck_to_dict,
    load_deck_file,
    nmos_deck,
    validate_deck,
)
from repro.tech.deck import (
    DeviceTypeRule,
    DrcDeck,
    ErcDeck,
    LayerSpec,
)

DECKS_DIR = Path(__file__).parents[2] / "src" / "repro" / "tech" / "decks"


def rules_of(deck) -> set:
    """The distinct validation rule ids a deck trips."""
    return set(validate_deck(deck).rule_ids())


class TestShippedDecks:
    @pytest.mark.parametrize("factory", [nmos_deck, cmos_deck])
    def test_validates_clean(self, factory):
        report = validate_deck(factory())
        assert report.diagnostics == []

    @pytest.mark.parametrize("factory", [nmos_deck, cmos_deck])
    def test_round_trips_through_dict(self, factory):
        deck = factory()
        assert deck_from_dict(deck_to_dict(deck)) == deck

    @pytest.mark.parametrize("name", ["nmos", "cmos"])
    def test_json_file_pins_builtin(self, name):
        """A builtin name and its shipped file load the same deck."""
        deck = load_deck_file(str(DECKS_DIR / f"{name}.json"))
        assert deck == deck_by_name(name)

    @pytest.mark.parametrize(
        "path", sorted(DECKS_DIR.glob("*.json")), ids=lambda p: p.stem
    )
    def test_shipped_file_is_its_builtin(self, path):
        deck = load_deck_file(str(path))
        assert path.stem in BUILTIN_DECKS
        assert deck.name == path.stem
        assert deck.lambda_ == DEFAULT_LAMBDA
        assert validate_deck(deck).diagnostics == []

    def test_builtin_names_are_the_shipped_files(self):
        assert BUILTIN_DECKS == {p.stem for p in DECKS_DIR.glob("*.json")}
        assert {"nmos", "cmos"} <= BUILTIN_DECKS

    def test_each_call_builds_a_fresh_deck(self):
        edited = nmos_deck()
        edited.drc.min_width["ND"] = 99
        edited.drc.messages.clear()
        fresh = nmos_deck()
        assert fresh.drc.min_width["ND"] == 2
        assert "gate-extension" in fresh.drc.messages

    @pytest.mark.parametrize(
        "factory, lambda_, digest",
        [
            (NMOS, 250, "0bfae8e73602923485beed4c4c15605e"
             "4cdeb17a1e16672cc873c06fb0bbaa4f"),
            (NMOS, 400, "001dceeffc2e92b006b1e36acc8afcd5"
             "26fc92f1c5d92a2577790e94c554ce7b"),
            (CMOS, 250, "ce711c554327d86f1c911d43ed0c0c52"
             "e4f9f6604dc67fcf0d67fb405601d375"),
            (CMOS, 400, "f366648bb2fd482a524a0a677b49539b"
             "b072d363666f6ed4c8f5e8a9686c572c"),
        ],
    )
    def test_fingerprint_is_pinned(self, factory, lambda_, digest):
        # --cache directories and streaming checkpoints key on it.
        assert technology_fingerprint(factory(lambda_)) == digest

    def test_compiled_cmos_device_names(self):
        tech = CMOS()
        assert tech.device_name(False) == "pEnh"
        assert tech.device_name(True) == "nEnh"


class TestValidationRules:
    """Each planted defect trips its rule id (and a malformed deck
    never compiles)."""

    def test_duplicate_layer(self):
        deck = nmos_deck()
        deck = dataclasses.replace(deck, layers=(*deck.layers, deck.layers[0]))
        assert "deck.duplicate-layer" in rules_of(deck)

    def test_reserved_layer_name(self):
        deck = nmos_deck()
        bogus = LayerSpec("--none--", "reserved", conducting=False)
        deck = dataclasses.replace(deck, layers=(*deck.layers, bogus))
        assert "deck.duplicate-layer" in rules_of(deck)

    def test_unknown_layer(self):
        deck = nmos_deck()
        deck = dataclasses.replace(deck, ignored=("ZZ",))
        assert "deck.unknown-layer" in rules_of(deck)

    def test_nonconducting_device_layer(self):
        deck = nmos_deck()
        contact = dataclasses.replace(
            deck.contact, connects=(*deck.contact.connects, "NI")
        )
        deck = dataclasses.replace(deck, contact=contact)
        assert "deck.nonconducting-device" in rules_of(deck)

    def test_conducting_marker(self):
        deck = nmos_deck()
        types = tuple(
            dataclasses.replace(r, marker="NM") if r.marker else r
            for r in deck.device_types
        )
        deck = dataclasses.replace(deck, device_types=types)
        assert "deck.conducting-marker" in rules_of(deck)

    def test_undeclared_rule_layer(self):
        deck = nmos_deck()
        drc = dataclasses.replace(
            deck.drc, min_width={**deck.drc.min_width, "QQ": 2}
        )
        deck = dataclasses.replace(deck, drc=drc)
        assert "deck.undeclared-rule-layer" in rules_of(deck)

    def test_duplicate_device(self):
        deck = nmos_deck()
        clone = DeviceTypeRule("nDep", marker="NG", depletion=True)
        deck = dataclasses.replace(
            deck, device_types=(*deck.device_types, clone)
        )
        assert "deck.duplicate-device" in rules_of(deck)

    def test_bad_polarity(self):
        deck = nmos_deck()
        types = tuple(
            dataclasses.replace(r, polarity="x") for r in deck.device_types
        )
        deck = dataclasses.replace(deck, device_types=types)
        assert "deck.duplicate-device" in rules_of(deck)

    def test_no_default_device(self):
        deck = nmos_deck()
        marked = tuple(r for r in deck.device_types if r.marker is not None)
        deck = dataclasses.replace(deck, device_types=marked)
        assert "deck.no-default-device" in rules_of(deck)

    def test_bad_channel_same_layer(self):
        deck = nmos_deck()
        channel = dataclasses.replace(deck.channel, gate="ND")
        deck = dataclasses.replace(deck, channel=channel)
        assert "deck.bad-channel" in rules_of(deck)

    def test_bad_channel_blocker_without_buried(self):
        deck = nmos_deck()
        deck = dataclasses.replace(deck, buried=None)
        assert "deck.bad-channel" in rules_of(deck)

    def test_rule_collision(self):
        deck = nmos_deck()
        drc = dataclasses.replace(
            deck.drc, rules=(*deck.drc.rules, "drc.width")
        )
        deck = dataclasses.replace(deck, drc=drc)
        assert "deck.rule-collision" in rules_of(deck)

    def test_uncheckable_rule_unknown_id(self):
        deck = nmos_deck()
        drc = dataclasses.replace(
            deck.drc,
            rules=(*deck.drc.rules, "drc.antenna"),
            help={**deck.drc.help, "drc.antenna": "charge collection"},
        )
        deck = dataclasses.replace(deck, drc=drc)
        assert "deck.uncheckable-rule" in rules_of(deck)

    def test_uncheckable_rule_missing_marker(self):
        deck = cmos_deck()
        types = tuple(
            r for r in deck.device_types if r.marker is None
        )
        deck = dataclasses.replace(deck, device_types=types)
        assert "deck.uncheckable-rule" in rules_of(deck)

    def test_missing_help(self):
        deck = nmos_deck()
        drc = dataclasses.replace(
            deck.drc, rules=(*deck.drc.rules, "drc.antenna")
        )
        deck = dataclasses.replace(deck, drc=drc)
        assert "deck.missing-help" in rules_of(deck)

    def test_missing_message(self):
        deck = nmos_deck()
        messages = dict(deck.drc.messages)
        del messages["gate-extension"]
        drc = dataclasses.replace(deck.drc, messages=messages)
        deck = dataclasses.replace(deck, drc=drc)
        assert "deck.missing-message" in rules_of(deck)

    def test_bad_erc_style(self):
        deck = nmos_deck()
        deck = dataclasses.replace(
            deck, erc=dataclasses.replace(deck.erc, style="magic")
        )
        assert "deck.bad-erc" in rules_of(deck)

    def test_bad_erc_ratio(self):
        deck = nmos_deck()
        deck = dataclasses.replace(
            deck, erc=dataclasses.replace(deck.erc, min_ratio=0.0)
        )
        assert "deck.bad-erc" in rules_of(deck)

    def test_bad_erc_empty_rails(self):
        deck = nmos_deck()
        deck = dataclasses.replace(
            deck, erc=dataclasses.replace(deck.erc, vdd_names=())
        )
        assert "deck.bad-erc" in rules_of(deck)

    @pytest.mark.parametrize("lambda_", [0, -250])
    def test_bad_lambda(self, lambda_):
        # Width and spacing minima scale with lambda, so below 1 they
        # vanish and the DRC stops reporting those errors.
        deck = nmos_deck(lambda_)
        assert rules_of(deck) == {"deck.bad-lambda"}
        with pytest.raises(DeckError):
            compile_deck(deck)

    def test_lambda_one_is_valid(self):
        assert rules_of(nmos_deck(1)) == set()

    def test_every_rule_id_is_documented(self):
        """No validator finding may carry an id outside the catalog."""
        planted = [
            dataclasses.replace(
                nmos_deck(), erc=ErcDeck(style="nope", min_ratio=-1)
            ),
            dataclasses.replace(nmos_deck(), ignored=("ZZ",)),
            dataclasses.replace(nmos_deck(), drc=DrcDeck(rules=("x",))),
        ]
        for deck in planted:
            assert rules_of(deck) <= set(DECK_RULE_HELP)

    def test_malformed_deck_never_compiles(self):
        deck = dataclasses.replace(nmos_deck(), ignored=("ZZ",))
        with pytest.raises(DeckError) as info:
            compile_deck(deck)
        assert info.value.report is not None
        assert "deck.unknown-layer" in info.value.report.rule_ids()


class TestDeckFiles:
    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        with pytest.raises(DeckError):
            load_deck_file(str(path))

    def test_load_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"name": "x"}))
        with pytest.raises(DeckError):
            load_deck_file(str(path))

    def test_unknown_builtin_name(self):
        with pytest.raises(KeyError):
            deck_by_name("bipolar")

    def test_absent_optional_keys_take_the_dataclass_defaults(
        self, tmp_path
    ):
        # cmos.json sets a marker margin of 2 and a complementary ERC:
        # without those keys the file loads to the dataclass defaults.
        data = json.loads((DECKS_DIR / "cmos.json").read_text())
        for key in (
            "gate_extension", "contact_margin", "buried_margin",
            "marker_margin", "help",
        ):
            del data["drc"][key]
        data["erc"] = {}
        for rule in data["device_types"]:
            del rule["polarity"], rule["depletion"]
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(data))
        deck = load_deck_file(str(path))
        drc = cmos_deck().drc
        assert deck.drc == DrcDeck(
            rules=drc.rules,
            min_width=drc.min_width,
            min_spacing=drc.min_spacing,
            messages=drc.messages,
        )
        assert deck.drc.marker_margin == 1
        assert deck.erc == ErcDeck()
        default = DeviceTypeRule("x", marker=None)
        for rule in deck.device_types:
            assert (rule.polarity, rule.depletion) == (
                default.polarity,
                default.depletion,
            )


class TestRails:
    """``ErcDeck.find_rails``: the one rail match the ERC and the
    switch-level simulator share."""

    NETS = {0: ["vdd"], 1: ["Gnd!", "OUT"], 2: ["IN"], 3: ["PWR", "gnd"]}

    def test_deck_names_any_case(self):
        assert ErcDeck().find_rails(self.NETS) == ({0}, {1, 3})

    def test_given_names_replace_the_decks(self):
        erc = ErcDeck()
        assert erc.find_rails(self.NETS, ("pwr",)) == ({3}, {1, 3})
        assert erc.find_rails(self.NETS, (), ()) == (set(), set())
