"""Technology parametrization: compiled roles and custom processes."""

import dataclasses

from repro import extract
from repro.cif import Layout
from repro.geometry import Box
from repro.tech import ABSENT_LAYER, CMOS, NMOS, compile_deck, nmos_deck
from repro.tech.deck import (
    BuriedRule,
    ChannelRule,
    ContactRule,
    DeviceTypeRule,
    DrcDeck,
    LayerSpec,
)


class TestTechnology:
    def test_default_nmos(self):
        tech = NMOS()
        assert tech.lambda_ == 250
        assert tech.device_name(False) == "nEnh"
        assert tech.device_name(True) == "nDep"

    def test_roles_resolved_from_deck(self):
        tech = NMOS()
        assert (tech.metal, tech.poly, tech.diff) == ("NM", "NP", "ND")
        assert (tech.contact, tech.marker, tech.buried) == ("NC", "NI", "NB")
        assert tech.blocker == "NB"
        assert tech.net_layers == {"NM", "NP"}
        assert tech.ignored == {"NG"}
        assert "NG" not in tech.tracked()

    def test_absent_roles(self):
        tech = CMOS()
        assert tech.buried == tech.blocker == ABSENT_LAYER
        assert tech.marker == "CW"

    def test_custom_layer_names_extract(self):
        # A renamed process: the extractor must follow the deck, not
        # hard-coded CIF names.
        deck = nmos_deck()
        custom = compile_deck(
            dataclasses.replace(
                deck,
                name="custom",
                layers=(
                    LayerSpec("M1", "metal", True),
                    LayerSpec("PO", "poly", True),
                    LayerSpec("DF", "diffusion", True),
                    LayerSpec("CO", "contact", False),
                    LayerSpec("IM", "implant", False),
                    LayerSpec("BC", "buried", False),
                    LayerSpec("OV", "overglass", False),
                ),
                channel=ChannelRule(diffusion="DF", gate="PO", blocker="BC"),
                device_types=(
                    DeviceTypeRule("nEnh", marker=None),
                    DeviceTypeRule("nDep", marker="IM", depletion=True),
                ),
                contact=ContactRule(cut="CO", connects=("M1", "PO", "DF")),
                buried=BuriedRule(window="BC"),
                ignored=("OV",),
                drc=DrcDeck(),
            )
        )
        layout = Layout()
        layout.top.add_box("DF", Box(10, 0, 14, 30))
        layout.top.add_box("PO", Box(0, 10, 24, 14))
        layout.top.add_box("IM", Box(8, 8, 16, 16))
        circuit = extract(layout, custom)
        (device,) = circuit.devices
        assert device.kind == "nDep"
        assert len(circuit.nets) == 3

    def test_custom_device_names(self):
        deck = nmos_deck()
        custom = compile_deck(
            dataclasses.replace(
                deck,
                name="renamed-devices",
                device_types=(
                    DeviceTypeRule("NFET", marker=None),
                    DeviceTypeRule("NLOAD", marker="NI", depletion=True),
                ),
            )
        )
        layout = Layout()
        layout.top.add_box("ND", Box(10, 0, 14, 30))
        layout.top.add_box("NP", Box(0, 10, 24, 14))
        circuit = extract(layout, custom)
        assert circuit.devices[0].kind == "NFET"
