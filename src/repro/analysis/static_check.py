"""Static checking of extracted circuits.

Section 1 of the paper lists the downstream tools a wirelist feeds; the
static checker "performs ratio checks, detects malformed transistors, and
checks for signals that are stuck at logical 0 or 1".  This module is
that checker, operating directly on the extractor's Circuit model.

The checker is device-type-table driven: the technology deck declares
each device type's polarity and depletion flag, and its ERC policy
selects the logic style --

``ratio``
    NMOS depletion loads; for a ratioed inverter driven by a full
    level, the pullup impedance over the *series pulldown path's* must
    be at least ``min_ratio`` (Mead & Conway's k >= 4 for restoring
    logic).  Series chains between an output and GND are traced and
    their z summed, not approximated by the direct driver set.

``complementary``
    CMOS; there are no loads to ratio-check.  Instead every node driven
    by both p and n devices must have a full p path to VDD and a full
    n path to GND (``complementary-pair``), and always-on ratioed
    structures -- a p gate tied to GND or an n gate tied to VDD -- are
    flagged as ``pseudo-nmos``.

Diagnostics carry the owning device's layout location as a degenerate
box, so SARIF consumers can navigate ERC findings like DRC ones, and
``floating-gate`` downgrades to INFO when the undriven net carries a
user-defined CIF name (chip inputs look identical to stuck nodes from
inside the layout).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.netlist import Circuit, Device, Net
from ..diagnostics import CheckReport, Diagnostic, Severity
from ..tech import NMOS, Technology

__all__ = [
    "CheckReport",
    "Diagnostic",
    "Severity",
    "ERC_RULE_HELP",
    "static_check",
]

#: One-line help per ERC rule id, merged into ``--list-rules`` and the
#: SARIF rule metadata alongside the DRC catalog.
ERC_RULE_HELP: dict[str, str] = {
    "malformed-no-gate": "device has a channel but no gate net",
    "malformed-terminals": "device does not have two diffusion terminals",
    "extra-terminals": "device touches more than two diffusion nets",
    "multi-gate": "device channel crossed by several distinct gate nets",
    "rail-short": "one net carries both VDD and GND names",
    "no-vdd": "no net is named VDD",
    "no-gnd": "no net is named GND",
    "shorted-device": "both device terminals sit on the same rail",
    "ratio": "pullup/pulldown impedance ratio below the minimum",
    "floating-gate": (
        "gate net not driven by any source/drain or rail "
        "(stuck or chip input)"
    ),
    "pseudo-nmos": (
        "always-on device: gate tied to the opposing rail in a "
        "complementary technology"
    ),
    "complementary-pair": (
        "node driven by p and n devices lacks a full pull-up or "
        "pull-down path"
    ),
}

#: Longest series chain the ratio tracer follows, in devices.
_MAX_CHAIN = 6
#: Most distinct pulldown paths examined per output net.
_MAX_PATHS = 32


@dataclass(frozen=True)
class _DeviceType:
    """Electrical view of one device kind (from the deck's type table)."""

    polarity: str
    depletion: bool


def _type_of(
    types: "dict[str, _DeviceType]", device: Device
) -> _DeviceType:
    known = types.get(device.kind)
    if known is not None:
        return known
    # Unknown kind (hand-built circuits): trust the device's own flag.
    return _DeviceType("n", device.depletion)


def _device_box(device: Device) -> "tuple[int, int, int, int] | None":
    """The device's location as a degenerate box, for SARIF navigation."""
    if device.location is None:
        return None
    x, y = device.location
    return (x, y, x, y)


def static_check(
    circuit: Circuit,
    *,
    tech: "Technology | None" = None,
    vdd_names: "tuple[str, ...] | None" = None,
    gnd_names: "tuple[str, ...] | None" = None,
    min_ratio: "float | None" = None,
) -> CheckReport:
    """Run every check over ``circuit``.

    ``tech`` (NMOS by default) supplies the deck whose ERC policy
    (style, rail spellings, minimum ratio) and device-type table drive
    the checks; explicit ``vdd_names`` / ``gnd_names`` / ``min_ratio``
    override the policy (the CLI exposes them as ``--vdd`` / ``--gnd``).
    Rail-name matching is case-insensitive.
    """
    deck = (tech or NMOS()).deck
    erc = deck.erc
    if vdd_names is None:
        vdd_names = tuple(erc.vdd_names)
    if gnd_names is None:
        gnd_names = tuple(erc.gnd_names)
    if min_ratio is None:
        min_ratio = erc.min_ratio
    types = {
        rule.name: _DeviceType(rule.polarity, rule.depletion)
        for rule in deck.device_types
    }

    report = CheckReport()
    vdd, gnd = _find_rails(circuit, vdd_names, gnd_names)
    _check_malformed(circuit, report)
    _check_rails(circuit, report, vdd, gnd)
    if erc.style == "complementary":
        _check_complementary(circuit, report, types, vdd, gnd)
    else:
        _check_ratios(circuit, report, types, vdd, gnd, min_ratio)
    _check_floating(circuit, report, vdd, gnd)
    return report


def _find_rails(
    circuit: Circuit,
    vdd_names: "tuple[str, ...]",
    gnd_names: "tuple[str, ...]",
) -> "tuple[set[int], set[int]]":
    vdd_set = {name.casefold() for name in vdd_names}
    gnd_set = {name.casefold() for name in gnd_names}
    vdd: set[int] = set()
    gnd: set[int] = set()
    for net in circuit.nets:
        folded = {name.casefold() for name in net.names}
        if folded & vdd_set:
            vdd.add(net.index)
        if folded & gnd_set:
            gnd.add(net.index)
    return vdd, gnd


def _check_malformed(circuit: Circuit, report: CheckReport) -> None:
    for device in circuit.devices:
        box = _device_box(device)
        if device.gate is None:
            report.diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    "malformed-no-gate",
                    f"device D{device.index} has a channel but no gate net",
                    device=device.index,
                    box=box,
                )
            )
        if device.source is None or device.drain is None:
            report.diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    "malformed-terminals",
                    f"device D{device.index} has "
                    f"{len(device.terminals)} diffusion terminal(s); "
                    f"a transistor needs two",
                    device=device.index,
                    box=box,
                )
            )
        elif len(device.terminals) > 2:
            report.diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    "extra-terminals",
                    f"device D{device.index} touches "
                    f"{len(device.terminals)} diffusion nets",
                    device=device.index,
                    box=box,
                )
            )
        if len(device.gates) > 1:
            report.diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    "multi-gate",
                    f"device D{device.index} channel is crossed by "
                    f"{len(device.gates)} distinct poly nets",
                    device=device.index,
                    box=box,
                )
            )


def _check_rails(
    circuit: Circuit, report: CheckReport, vdd: "set[int]", gnd: "set[int]"
) -> None:
    if vdd & gnd:
        report.diagnostics.append(
            Diagnostic(
                Severity.ERROR,
                "rail-short",
                "a net carries both VDD and GND names: power short",
                net=next(iter(vdd & gnd)),
            )
        )
    if not vdd:
        report.diagnostics.append(
            Diagnostic(
                Severity.WARNING, "no-vdd", "no net is named VDD"
            )
        )
    if not gnd:
        report.diagnostics.append(
            Diagnostic(
                Severity.WARNING, "no-gnd", "no net is named GND"
            )
        )
    for device in circuit.devices:
        sd = {device.source, device.drain}
        if device.source is not None and device.source == device.drain:
            continue  # gate-tied loads legitimately repeat a net
        if sd <= vdd or sd <= gnd:
            report.diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    "shorted-device",
                    f"device D{device.index} has both terminals on the "
                    f"same rail",
                    device=device.index,
                    box=_device_box(device),
                )
            )


# ----------------------------------------------------------------------
# ratio style (NMOS)
# ----------------------------------------------------------------------


def _pullups(
    circuit: Circuit,
    types: "dict[str, _DeviceType]",
    vdd: "set[int]",
) -> "dict[int, Device]":
    """Depletion loads by the output net they pull up."""
    pullups: dict[int, Device] = {}
    for device in circuit.devices:
        if device.source is None or device.drain is None:
            continue
        terminals = {device.source, device.drain}
        if _type_of(types, device).depletion and terminals & vdd:
            output = next(iter(terminals - vdd), None)
            if output is not None:
                pullups[output] = device
    return pullups


def _pulldown_paths(
    circuit: Circuit,
    types: "dict[str, _DeviceType]",
    output: int,
    vdd: "set[int]",
    gnd: "set[int]",
) -> "list[list[Device]]":
    """Series chains of enhancement devices from ``output`` to GND.

    Depth-first over the diffusion graph, devices tried in index order
    so single-device paths keep the historical report order; bounded by
    :data:`_MAX_CHAIN` devices per path and :data:`_MAX_PATHS` paths.
    """
    by_net: dict[int, list[Device]] = {}
    for device in circuit.devices:
        if device.source is None or device.drain is None:
            continue
        if device.source == device.drain:
            continue
        if _type_of(types, device).depletion:
            continue
        by_net.setdefault(device.source, []).append(device)
        by_net.setdefault(device.drain, []).append(device)

    paths: list[list[Device]] = []

    def walk(net: int, chain: "list[Device]", seen: "set[int]") -> None:
        if len(paths) >= _MAX_PATHS or len(chain) >= _MAX_CHAIN:
            return
        for device in by_net.get(net, ()):
            if device.index in seen:
                continue
            far = device.drain if device.source == net else device.source
            if far is None or far in vdd:
                continue
            next_chain = chain + [device]
            if far in gnd:
                paths.append(next_chain)
                if len(paths) >= _MAX_PATHS:
                    return
                continue
            if far == output:
                continue
            walk(far, next_chain, seen | {device.index})

    walk(output, [], set())
    return paths


def _chain_label(chain: "list[Device]") -> str:
    return "+".join(f"D{device.index}" for device in chain)


def _check_ratios(
    circuit: Circuit,
    report: CheckReport,
    types: "dict[str, _DeviceType]",
    vdd: "set[int]",
    gnd: "set[int]",
    min_ratio: float,
) -> None:
    if not vdd or not gnd:
        return
    pullups = _pullups(circuit, types, vdd)
    for output, load in pullups.items():
        if output in gnd or not load.width or not load.length:
            continue
        z_up = load.length / load.width
        for chain in _pulldown_paths(circuit, types, output, vdd, gnd):
            if any(not d.width or not d.length for d in chain):
                continue
            z_down = sum(d.length / d.width for d in chain)
            ratio = z_up / z_down if z_down else float("inf")
            if ratio < min_ratio:
                report.diagnostics.append(
                    Diagnostic(
                        Severity.WARNING,
                        "ratio",
                        f"net N{output}: pullup/pulldown impedance ratio "
                        f"{ratio:.2f} below {min_ratio:g} "
                        f"(D{load.index} over {_chain_label(chain)})",
                        device=chain[0].index,
                        net=output,
                        box=_device_box(chain[0]),
                    )
                )


# ----------------------------------------------------------------------
# complementary style (CMOS)
# ----------------------------------------------------------------------


def _reaches_rail(
    start: int,
    rail: "set[int]",
    by_net: "dict[int, list[Device]]",
) -> bool:
    """Whether ``start`` reaches a rail net through the given network."""
    seen = {start}
    stack = [start]
    while stack:
        net = stack.pop()
        for device in by_net.get(net, ()):
            far = device.drain if device.source == net else device.source
            if far is None or far in seen:
                continue
            if far in rail:
                return True
            seen.add(far)
            stack.append(far)
    return False


def _check_complementary(
    circuit: Circuit,
    report: CheckReport,
    types: "dict[str, _DeviceType]",
    vdd: "set[int]",
    gnd: "set[int]",
) -> None:
    if not vdd or not gnd:
        return
    p_by_net: dict[int, list[Device]] = {}
    n_by_net: dict[int, list[Device]] = {}
    for device in circuit.devices:
        if device.source is None or device.drain is None:
            continue
        polarity = _type_of(types, device).polarity
        table = p_by_net if polarity == "p" else n_by_net
        if device.source != device.drain:
            table.setdefault(device.source, []).append(device)
            table.setdefault(device.drain, []).append(device)

        # Always-on ratioed structures: a p gate on GND (or an n gate
        # on VDD) never turns off -- the pseudo-NMOS idiom this deck's
        # style forbids.
        gate = device.gate
        if gate is None:
            continue
        if (polarity == "p" and gate in gnd) or (
            polarity == "n" and gate in vdd
        ):
            rail = "GND" if gate in gnd else "VDD"
            report.diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    "pseudo-nmos",
                    f"device D{device.index} ({device.kind}) gate is "
                    f"tied to {rail}: always-on ratioed load in a "
                    f"complementary technology",
                    device=device.index,
                    net=gate,
                    box=_device_box(device),
                )
            )

    rails = vdd | gnd
    for net in circuit.nets:
        index = net.index
        if index in rails:
            continue
        if index not in p_by_net or index not in n_by_net:
            continue
        missing: list[str] = []
        if not _reaches_rail(index, vdd, p_by_net):
            missing.append("p pull-up path to VDD")
        if not _reaches_rail(index, gnd, n_by_net):
            missing.append("n pull-down path to GND")
        if missing:
            report.diagnostics.append(
                Diagnostic(
                    Severity.WARNING,
                    "complementary-pair",
                    f"net N{index} is driven by p and n devices but "
                    f"has no {' or '.join(missing)}",
                    net=index,
                    box=(
                        (*net.location, *net.location)
                        if net.location is not None
                        else None
                    ),
                )
            )


# ----------------------------------------------------------------------
# floating gates
# ----------------------------------------------------------------------


def _check_floating(
    circuit: Circuit, report: CheckReport, vdd: "set[int]", gnd: "set[int]"
) -> None:
    """Gates driven by nets no transistor can ever drive are stuck.

    A net carrying a user-defined CIF name is presumed to be chip I/O
    (the name is how the designer exports it), so the finding drops to
    INFO; anonymous undriven gates stay warnings.
    """
    drivable: set[int] = set(vdd) | set(gnd)
    for device in circuit.devices:
        for terminal in (device.source, device.drain):
            if terminal is not None:
                drivable.add(terminal)
    named: dict[int, Net] = {net.index: net for net in circuit.nets}
    for device in circuit.devices:
        if device.gate is not None and device.gate not in drivable:
            net = named.get(device.gate)
            is_named = bool(net is not None and net.names)
            report.diagnostics.append(
                Diagnostic(
                    Severity.INFO if is_named else Severity.WARNING,
                    "floating-gate",
                    f"device D{device.index} gate net N{device.gate} is "
                    f"not driven by any source/drain or rail (stuck or "
                    f"chip input)",
                    device=device.index,
                    net=device.gate,
                    box=_device_box(device),
                )
            )
