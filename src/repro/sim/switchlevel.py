"""Switch-level simulation of extracted NMOS circuits.

Section 1 of the paper places the extractor at the head of a tool chain:
"Logic simulators help validate the logical correctness" of the
extracted wirelist.  This module is that next tool: a unit-delay
switch-level simulator in the MOSSIM style (Bryant 1980) specialized to
ratioed NMOS.

Model:

* node values are ``0``, ``1`` or ``X`` at two strengths: *driven*
  (rails, user inputs, and anything reached from them through ON
  enhancement switches) and *weak* (depletion pullups);
* an enhancement transistor conducts when its gate is 1, blocks at 0,
  and conducts "maybe" at X;
* a depletion device whose gate is tied through to one of its own
  terminals (the standard load) is an always-on weak conductor;
* ratioed resolution: a driven 0 beats a weak 1 (that is what the 4:1
  ratio is *for*), and conflicting driven values resolve to X;
* X-gated switches are handled pessimistically: the circuit is solved
  with them open and closed, and nodes whose value differs become X.

The simulator iterates to a fixpoint of gate values; a circuit that
never settles (e.g. a ring oscillator) reports its unstable nodes as X.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.netlist import Circuit
from ..core.unionfind import UnionFind
from ..tech import NMOS, Technology
from ..wirelist.flatten import FlatCircuit, circuit_to_flat

#: Node values.
LOW, HIGH, UNKNOWN = 0, 1, "X"


@dataclass(frozen=True, slots=True)
class _Switch:
    """One conducting edge: terminals a-b, gated by ``gate``.

    ``always_on`` marks depletion loads; their gate is ignored.
    """

    a: int
    b: int
    gate: int | None
    always_on: bool


@dataclass
class SimulationResult:
    """Settled node values by net id, with name lookup."""

    values: dict[int, object]
    names: dict[int, list[str]]
    settled: bool
    iterations: int
    unstable: set[int] = field(default_factory=set)

    def of(self, name: str) -> object:
        for net, names in self.names.items():
            if name in names:
                return self.values.get(net, UNKNOWN)
        raise KeyError(f"no net named {name!r}")


class SwitchSimulator:
    """Simulate an extracted circuit (or flat netlist) at switch level."""

    def __init__(
        self,
        circuit: "Circuit | FlatCircuit",
        *,
        tech: "Technology | None" = None,
        vdd_names: "tuple[str, ...] | None" = None,
        gnd_names: "tuple[str, ...] | None" = None,
        charge_retention: bool = False,
    ) -> None:
        #: With charge retention on, a node left with no driven or weak
        #: path keeps the value it last held -- the dynamic-node model
        #: that makes pass-transistor latches and one-transistor DRAM
        #: cells (the testram workload's world) simulate correctly.
        self.charge_retention = charge_retention
        self._charge: dict[int, object] = {}
        flat = (
            circuit
            if isinstance(circuit, FlatCircuit)
            else circuit_to_flat(circuit)
        )
        self._names = dict(flat.net_names)
        deck = (tech or NMOS()).deck
        #: the deck's depletion types (NMOS by default): load candidates
        loads = {rule.name for rule in deck.device_types if rule.depletion}
        # Rails as the ERC finds them.
        self._vdd, self._gnd = deck.erc.find_rails(
            flat.net_names, vdd_names, gnd_names
        )
        self._switches: list[_Switch] = []
        self._nodes: set[int] = set()
        for device in flat.devices:
            if device.source is None or device.drain is None:
                continue  # malformed devices conduct nothing useful
            for net in (device.source, device.drain, device.gate):
                if net is not None:
                    self._nodes.add(net)
            is_load = device.kind in loads and (
                device.gate in (device.source, device.drain)
                or {device.source, device.drain} & self._vdd
            )
            self._switches.append(
                _Switch(
                    a=device.source,
                    b=device.drain,
                    gate=device.gate,
                    always_on=is_load,
                )
            )
        self._nodes |= self._vdd | self._gnd
        # Named nets participate even when no transistor touches them
        # (e.g. an unused input rail): they can still be driven and read.
        self._nodes.update(self._names)
        self._inputs: dict[int, object] = {}

    # -- driving inputs --------------------------------------------------

    def node_of(self, name: str) -> int:
        for net, names in self._names.items():
            if name in names:
                return net
        raise KeyError(f"no net named {name!r}")

    def set_input(self, name: str, value: object) -> None:
        if value not in (LOW, HIGH, UNKNOWN):
            raise ValueError(f"input value must be 0, 1 or 'X', got {value!r}")
        self._inputs[self.node_of(name)] = value

    def release_input(self, name: str) -> None:
        self._inputs.pop(self.node_of(name), None)

    # -- solving ---------------------------------------------------------

    def simulate(self, max_iterations: int = 200) -> SimulationResult:
        """Iterate switch states to a fixpoint and return node values."""
        values: dict[int, object] = {n: UNKNOWN for n in self._nodes}
        history: list[dict[int, object]] = []
        for iteration in range(1, max_iterations + 1):
            new_values = self._evaluate(values)
            if new_values == values:
                if self.charge_retention:
                    self._charge = dict(new_values)
                return SimulationResult(
                    values=new_values,
                    names=self._names,
                    settled=True,
                    iterations=iteration,
                )
            if any(new_values == h for h in history):
                # Oscillation: everything that still changes becomes X.
                unstable = {
                    n
                    for n in self._nodes
                    if any(h[n] != new_values[n] for h in history)
                }
                for n in unstable:
                    new_values[n] = UNKNOWN
                final = self._evaluate(new_values)
                return SimulationResult(
                    values=final,
                    names=self._names,
                    settled=False,
                    iterations=iteration,
                    unstable=unstable,
                )
            history.append(values)
            values = new_values
        return SimulationResult(
            values=values,
            names=self._names,
            settled=False,
            iterations=max_iterations,
            unstable=set(),
        )

    # -- one evaluation pass ------------------------------------------------

    def _evaluate(self, gates: dict[int, object]) -> dict[int, object]:
        """Node values given the current gate values.

        X-gated switches are resolved pessimistically by solving with
        them open and with them closed.
        """
        certain = self._solve(gates, x_gates_on=False)
        if any(
            not sw.always_on
            and sw.gate is not None
            and gates.get(sw.gate, UNKNOWN) == UNKNOWN
            for sw in self._switches
        ):
            optimistic = self._solve(gates, x_gates_on=True)
            return {
                n: certain[n] if certain[n] == optimistic[n] else UNKNOWN
                for n in self._nodes
            }
        return certain

    def _solve(
        self, gates: dict[int, object], x_gates_on: bool
    ) -> dict[int, object]:
        def conducting(sw: _Switch) -> bool:
            if sw.always_on:
                return True
            state = gates.get(sw.gate, UNKNOWN)
            if state == HIGH:
                return True
            if state == UNKNOWN:
                return x_gates_on
            return False

        # Phase 1: driven values flow through ON *enhancement* switches.
        strong = UnionFind()
        ids = {n: strong.make() for n in self._nodes}
        for sw in self._switches:
            if not sw.always_on and conducting(sw):
                strong.union(ids[sw.a], ids[sw.b])
        component_value: dict[int, object] = {}

        def drive(node: int, value: object) -> None:
            root = strong.find(ids[node])
            current = component_value.get(root)
            if current is None:
                component_value[root] = value
            elif current != value:
                component_value[root] = UNKNOWN

        for node in self._gnd:
            drive(node, LOW)
        for node in self._vdd:
            drive(node, HIGH)
        for node, value in self._inputs.items():
            drive(node, value)

        values: dict[int, object] = {}
        driven: set[int] = set()
        for node in self._nodes:
            root = strong.find(ids[node])
            if root in component_value:
                values[node] = component_value[root]
                driven.add(node)

        # Phase 2: weak pullups act on nodes not strongly driven; weak
        # values also spread through ON switches among undriven nodes
        # (ratioed NMOS: any strong path wins over the load).
        weak = UnionFind()
        wids = {n: weak.make() for n in self._nodes if n not in driven}
        pulled: dict[int, object] = {}

        def weak_drive(node: int, value: object) -> None:
            root = weak.find(wids[node])
            current = pulled.get(root)
            if current is None:
                pulled[root] = value
            elif current != value:
                pulled[root] = UNKNOWN

        for sw in self._switches:
            if not conducting(sw):
                continue
            if sw.a in wids and sw.b in wids:
                weak.union(wids[sw.a], wids[sw.b])
        for sw in self._switches:
            if not sw.always_on:
                continue
            # The load sources from VDD (driven side); the other
            # terminal gets the weak 1.
            for source, sink in ((sw.a, sw.b), (sw.b, sw.a)):
                if source in driven and sink in wids:
                    weak_drive(sink, values[source])

        # Floating components: retained charge (if enabled) or X.  All
        # nodes sharing the isolated component must agree on the stored
        # value, else the merged charge is unknown.
        floating_value: dict[int, object] = {}
        if self.charge_retention:
            for node in self._nodes:
                if node in driven:
                    continue
                root = weak.find(wids[node])
                if root in pulled:
                    continue
                stored = self._charge.get(node, UNKNOWN)
                current = floating_value.get(root)
                if current is None:
                    floating_value[root] = stored
                elif current != stored:
                    floating_value[root] = UNKNOWN

        for node in self._nodes:
            if node in driven:
                continue
            root = weak.find(wids[node])
            if root in pulled:
                values[node] = pulled[root]
            else:
                values[node] = floating_value.get(root, UNKNOWN)
        return values
