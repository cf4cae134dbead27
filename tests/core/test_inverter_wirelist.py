"""Reproduction of Figures 3-3 / 3-4: the inverter and its wirelist."""

import pytest

from repro import extract
from repro.wirelist import parse_wirelist, to_wirelist, write_wirelist


@pytest.fixture(scope="module")
def circuit(inverter_layout):
    return extract(inverter_layout, keep_geometry=True)


class TestCircuitShape:
    def test_two_devices_four_nets(self, circuit):
        assert len(circuit.devices) == 2
        assert len(circuit.nets) == 4

    def test_net_names(self, circuit):
        names = {n.names[0] for n in circuit.nets if n.names}
        assert names == {"VDD", "GND", "IN", "OUT"}

    def test_one_enhancement_one_depletion(self, circuit):
        kinds = sorted(d.kind for d in circuit.devices)
        assert kinds == ["nDep", "nEnh"]

    def test_pulldown_connectivity(self, circuit):
        enh = next(d for d in circuit.devices if d.kind == "nEnh")
        by_index = {n.index: n for n in circuit.nets}
        assert "IN" in by_index[enh.gate].names
        terminal_names = {
            by_index[enh.source].names[0],
            by_index[enh.drain].names[0],
        }
        assert terminal_names == {"OUT", "GND"}

    def test_pullup_connectivity(self, circuit):
        dep = next(d for d in circuit.devices if d.kind == "nDep")
        by_index = {n.index: n for n in circuit.nets}
        # The load's gate is tied to the output through the buried contact.
        assert "OUT" in by_index[dep.gate].names
        terminal_names = {
            by_index[dep.source].names[0],
            by_index[dep.drain].names[0],
        }
        assert terminal_names == {"VDD", "OUT"}

    def test_sizes(self, circuit):
        enh = next(d for d in circuit.devices if d.kind == "nEnh")
        dep = next(d for d in circuit.devices if d.kind == "nDep")
        # 2x2 lambda pulldown, 2x8 lambda depletion load (lambda = 250).
        assert (enh.length, enh.width) == (500, 500)
        assert (dep.length, dep.width) == (2000, 500)

    def test_ratio_is_4(self, circuit):
        enh = next(d for d in circuit.devices if d.kind == "nEnh")
        dep = next(d for d in circuit.devices if d.kind == "nDep")
        z_up = dep.length / dep.width
        z_down = enh.length / enh.width
        assert z_up / z_down == 4.0


class TestWirelistText:
    def test_format_matches_figure_3_4(self, circuit):
        text = write_wirelist(to_wirelist(circuit, name="inverter.cif"))
        assert text.startswith('(DefPart "inverter.cif"')
        assert "(DefPart nEnh (Export Source Gate Drain))" in text
        assert "(DefPart nDep (Export Source Gate Drain))" in text
        assert "(Part nEnh (InstName" in text
        assert "(Part nDep (InstName" in text
        assert "(Channel (Length" in text
        assert "(Net N1 VDD" in text
        assert "(Local N1 N2 N3 N4 )" in text

    def test_geometry_emitted_as_cif(self, circuit):
        text = write_wirelist(to_wirelist(circuit, name="inv"))
        assert "L NX; B" in text  # channel geometry pseudo-layer
        assert "L NM; B" in text  # net geometry

    def test_geometry_can_be_suppressed(self, circuit):
        text = write_wirelist(
            to_wirelist(circuit, name="inv", include_geometry=False)
        )
        assert "CIF" not in text

    def test_flat_model_is_parsed_from_the_text(self, circuit):
        wirelist = to_wirelist(circuit, name="inv")
        (part,) = wirelist.defparts
        assert part.name == "inv" and wirelist.top_part is part
        assert len(part.devices) == 2 and len(part.nets) == 4

    def test_roundtrip_parse(self, circuit):
        text = write_wirelist(to_wirelist(circuit, name="inv"))
        back = parse_wirelist(text)
        part = back.top_part
        assert len(part.devices) == 2
        assert {d.kind for d in part.devices} == {"nEnh", "nDep"}
        lengths = sorted(d.length for d in part.devices)
        assert lengths == [500, 2000]
