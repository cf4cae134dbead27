"""Switch-level simulator: gates, chains, and pathological circuits."""

import dataclasses

import pytest

from repro import extract
from repro.sim import HIGH, LOW, UNKNOWN, SwitchSimulator
from repro.tech import compile_deck, nmos_deck
from repro.wirelist import FlatCircuit, FlatDevice
from repro.workloads import inverter, inverter_rows, nand2


def _flat(devices, names):
    flat = FlatCircuit()
    flat.devices = [FlatDevice(*d) for d in devices]
    flat.net_names = {k: list(v) for k, v in names.items()}
    flat.net_count = 10
    return flat


class TestInverter:
    @pytest.fixture(scope="class")
    def sim(self):
        return SwitchSimulator(extract(inverter()))

    def test_truth_table(self, sim):
        sim.set_input("IN", LOW)
        assert sim.simulate().of("OUT") == HIGH
        sim.set_input("IN", HIGH)
        assert sim.simulate().of("OUT") == LOW

    def test_unknown_propagates(self, sim):
        sim.set_input("IN", UNKNOWN)
        assert sim.simulate().of("OUT") == UNKNOWN

    def test_rails_fixed(self, sim):
        sim.set_input("IN", LOW)
        result = sim.simulate()
        assert result.of("VDD") == HIGH
        assert result.of("GND") == LOW

    def test_floating_input_gives_unknown(self, sim):
        sim.release_input("IN")
        result = sim.simulate()
        assert result.of("OUT") == UNKNOWN

    def test_bad_value_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.set_input("IN", 2)

    def test_unknown_net_rejected(self, sim):
        with pytest.raises(KeyError):
            sim.set_input("NOPE", LOW)


class TestNand:
    @pytest.fixture(scope="class")
    def sim(self):
        return SwitchSimulator(extract(nand2()))

    @pytest.mark.parametrize(
        "a,b,out", [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    )
    def test_truth_table(self, sim, a, b, out):
        sim.set_input("A", a)
        sim.set_input("B", b)
        assert sim.simulate().of("OUT") == out

    def test_series_x(self, sim):
        # A=0 forces OUT=1 regardless of B.
        sim.set_input("A", LOW)
        sim.set_input("B", UNKNOWN)
        assert sim.simulate().of("OUT") == HIGH
        # A=1, B=X leaves OUT unknown.
        sim.set_input("A", HIGH)
        assert sim.simulate().of("OUT") == UNKNOWN


class TestChains:
    @pytest.mark.parametrize("stages", [2, 3, 4, 5])
    def test_parity(self, stages):
        sim = SwitchSimulator(extract(inverter_rows(1, stages)))
        for value in (LOW, HIGH):
            sim.set_input("IN0", value)
            expected = value if stages % 2 == 0 else 1 - value
            result = sim.simulate()
            assert result.settled
            assert result.of("OUT0") == expected

    def test_settling_takes_stages(self):
        sim = SwitchSimulator(extract(inverter_rows(1, 6)))
        sim.set_input("IN0", LOW)
        result = sim.simulate()
        assert result.settled
        assert result.iterations >= 3  # values ripple stage by stage


class TestFlatNetlists:
    def test_pass_transistor(self):
        # Input -> pass gate -> output; gate controls transparency.
        flat = _flat(
            [("nEnh", 2, 0, 1)],
            {0: ["IN"], 1: ["OUT"], 2: ["EN"]},
        )
        sim = SwitchSimulator(flat)
        sim.set_input("IN", HIGH)
        sim.set_input("EN", HIGH)
        assert sim.simulate().of("OUT") == HIGH
        sim.set_input("EN", LOW)
        assert sim.simulate().of("OUT") == UNKNOWN  # isolated, no charge model

    def test_driven_conflict_is_unknown(self):
        flat = _flat(
            [("nEnh", 2, 0, 1)],
            {0: ["A"], 1: ["B"], 2: ["EN"]},
        )
        sim = SwitchSimulator(flat)
        sim.set_input("A", HIGH)
        sim.set_input("B", LOW)
        sim.set_input("EN", HIGH)
        result = sim.simulate()
        assert result.of("A") == UNKNOWN
        assert result.of("B") == UNKNOWN

    def test_ratioed_pulldown_beats_load(self):
        # Classic inverter from a netlist: depletion load + pulldown.
        flat = _flat(
            [
                ("nDep", 1, 0, 1),  # gate=OUT source=VDD drain=OUT
                ("nEnh", 2, 1, 3),
            ],
            {0: ["VDD"], 1: ["OUT"], 2: ["IN"], 3: ["GND"]},
        )
        sim = SwitchSimulator(flat)
        sim.set_input("IN", HIGH)
        assert sim.simulate().of("OUT") == LOW  # driven 0 beats weak 1

    def test_ring_oscillator_reports_unstable(self):
        # Three inverters in a loop: no stable state.
        devices = []
        for i in range(3):
            inp = 2 * i + 1
            out = (2 * ((i + 1) % 3)) + 1
            devices.append(("nDep", out, 0, out))
            devices.append(("nEnh", inp, out, 9))
        flat = _flat(devices, {0: ["VDD"], 9: ["GND"], 1: ["N1"]})
        sim = SwitchSimulator(flat)
        result = sim.simulate()
        assert not result.settled or result.of("N1") == UNKNOWN
        assert result.of("N1") == UNKNOWN

    def test_latched_pair_is_stable_with_x(self):
        # Cross-coupled inverters with no inputs: both states possible,
        # the simulator must answer X rather than pick one.
        devices = [
            ("nDep", 1, 0, 1),
            ("nEnh", 2, 1, 9),
            ("nDep", 2, 0, 2),
            ("nEnh", 1, 2, 9),
        ]
        flat = _flat(devices, {0: ["VDD"], 9: ["GND"], 1: ["Q"], 2: ["QB"]})
        sim = SwitchSimulator(flat)
        result = sim.simulate()
        assert result.of("Q") == UNKNOWN
        assert result.of("QB") == UNKNOWN


class TestRails:
    """The rails are the deck's ERC rails, matched as the ERC matches
    them: case-insensitively."""

    @staticmethod
    def _renamed_rails():
        deck = nmos_deck()
        erc = dataclasses.replace(
            deck.erc, vdd_names=("PWR",), gnd_names=("GND0",)
        )
        return compile_deck(dataclasses.replace(deck, erc=erc))

    @staticmethod
    def _relabelled_inverter(vdd, gnd):
        layout = inverter()
        names = {"VDD": vdd, "GND": gnd}
        for symbol in (layout.top, *layout.symbols.values()):
            symbol.labels[:] = [
                dataclasses.replace(lb, name=names.get(lb.name, lb.name))
                for lb in symbol.labels
            ]
        return layout

    @pytest.mark.parametrize("vdd, gnd", [("PWR", "GND0"), ("pwr", "Gnd0")])
    def test_renamed_deck_rails(self, vdd, gnd):
        tech = self._renamed_rails()
        circuit = extract(self._relabelled_inverter(vdd, gnd), tech)
        sim = SwitchSimulator(circuit, tech=tech)
        sim.set_input("IN", LOW)
        assert sim.simulate().of("OUT") == HIGH
        sim.set_input("IN", HIGH)
        assert sim.simulate().of("OUT") == LOW

    def test_nmos_rails_in_any_case(self):
        flat = _flat(
            [("nDep", 1, 0, 1), ("nEnh", 2, 1, 3)],
            {0: ["Vdd"], 1: ["OUT"], 2: ["IN"], 3: ["Vss"]},
        )
        sim = SwitchSimulator(flat)
        sim.set_input("IN", LOW)
        assert sim.simulate().of("OUT") == HIGH
        sim.set_input("IN", HIGH)
        assert sim.simulate().of("OUT") == LOW
