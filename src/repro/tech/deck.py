"""Declarative technology decks: process rules as data, not code.

A :class:`TechnologyDeck` is the serializable description of one
process technology -- the layer set, the channel-formation rule, the
device-type marker rules, the contact/buried union rules, the DRC
lambda deck, and the ERC policy.  Decks are *compiled* into the runtime
:class:`Technology` by :func:`compile_deck`, the only code that builds
one, which first runs :func:`validate_deck`: a static
analysis pass over the deck itself that rejects malformed decks
(unknown or duplicate layers, device rules on non-conducting layers,
width entries for undeclared layers, rule-id collisions, uncheckable
rules, missing help or message text) before any geometry is ever read.

Validation findings are ordinary :class:`~repro.diagnostics.Diagnostic`
records (``tool="deck"``), so ``repro-lint --check-deck`` reports them
through the same text/JSON/SARIF writers as every other checker.

A :class:`Technology` is the deck plus the layer roles and wirelist
part names resolved from it once, at compile time; the scanline host,
both strip engines, the DRC checker and the baselines read those roles,
and everything else (DRC dimensions and messages, ERC policy, the
device-type table) straight from the deck.

The built-in decks live in :mod:`repro.tech.nmos` (Mead & Conway NMOS)
and :mod:`repro.tech.cmos` (p-well CMOS); their canonical JSON forms are
shipped under ``src/repro/tech/decks/`` and pinned by tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "ABSENT_LAYER",
    "BuriedRule",
    "ChannelRule",
    "ContactRule",
    "DECK_RULE_HELP",
    "DeckError",
    "DeviceTypeRule",
    "DrcDeck",
    "ErcDeck",
    "LayerSpec",
    "Technology",
    "TechnologyDeck",
    "compile_deck",
    "deck_from_dict",
    "deck_to_dict",
    "load_deck_file",
    "validate_deck",
]

#: Placeholder CIF name for a layer role a deck does not use (for
#: example CMOS has no buried contact).  The scanline still keys a
#: (permanently empty) table under it; no real CIF layer may use it.
ABSENT_LAYER = "--none--"

# ----------------------------------------------------------------------
# schema
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LayerSpec:
    """One mask layer: CIF name, role description, conduction flag."""

    name: str
    description: str
    conducting: bool


@dataclass(frozen=True)
class ChannelRule:
    """Channel formation: ``diffusion AND gate AND NOT blocker``."""

    diffusion: str
    gate: str
    blocker: "str | None" = None


@dataclass(frozen=True)
class DeviceTypeRule:
    """Maps a marker layer over the channel to a device part name.

    Exactly one rule per deck has ``marker=None`` (the default type a
    bare channel becomes); every other rule names a non-conducting
    marker layer whose presence over the channel selects that type.
    ``polarity`` ("n" or "p") and ``depletion`` feed the electrical
    checker's device-type table.
    """

    name: str
    marker: "str | None"
    polarity: str = "n"
    depletion: bool = False


@dataclass(frozen=True)
class ContactRule:
    """A cut on ``cut`` unions the nets of every ``connects`` layer
    present under it."""

    cut: str
    connects: tuple[str, ...]


@dataclass(frozen=True)
class BuriedRule:
    """A buried window unions the channel's gate and diffusion nets
    (and, via the channel blocker, suppresses the channel)."""

    window: str


@dataclass(frozen=True)
class DrcDeck:
    """The lambda-rule section: which rules run and their parameters.

    ``rules`` lists the enabled rule ids (from the global catalog in
    :mod:`repro.drc.rules`); ``min_width`` / ``min_spacing`` are lambda
    values keyed by declared layer name; ``messages`` holds the exact
    diagnostic text per message key (``{n}`` expands to the lambda
    count), and ``help`` may add help text for deck-specific rule ids.
    """

    rules: tuple[str, ...] = ()
    min_width: dict[str, int] = field(default_factory=dict)
    min_spacing: dict[str, int] = field(default_factory=dict)
    gate_extension: int = 1
    contact_margin: int = 0
    buried_margin: int = 0
    marker_margin: int = 1
    messages: dict[str, str] = field(default_factory=dict)
    help: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ErcDeck:
    """The electrical-check policy: rail spellings plus the logic
    style -- ``ratio`` (NMOS depletion loads, Mead & Conway k) or
    ``complementary`` (CMOS pull-up/pull-down pairing)."""

    style: str = "ratio"
    min_ratio: float = 4.0
    vdd_names: tuple[str, ...] = ("VDD", "VDD!")
    gnd_names: tuple[str, ...] = ("GND", "GND!", "VSS", "GROUND")


@dataclass(frozen=True)
class TechnologyDeck:
    """The full declarative technology description."""

    name: str
    lambda_: int
    layers: tuple[LayerSpec, ...]
    channel: ChannelRule
    device_types: tuple[DeviceTypeRule, ...]
    contact: ContactRule
    buried: "BuriedRule | None" = None
    ignored: tuple[str, ...] = ()
    drc: DrcDeck = field(default_factory=DrcDeck)
    erc: ErcDeck = field(default_factory=ErcDeck)

    # -- convenience lookups (valid decks only) -------------------------

    def layer(self, name: str) -> "LayerSpec | None":
        for spec in self.layers:
            if spec.name == name:
                return spec
        return None

    def conducting_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.layers if s.conducting)

    def routing_names(self) -> tuple[str, ...]:
        """Conducting layers that are neither the diffusion nor the gate."""
        special = {self.channel.diffusion, self.channel.gate}
        return tuple(
            n for n in self.conducting_names() if n not in special
        )

    def default_device(self) -> DeviceTypeRule:
        for rule in self.device_types:
            if rule.marker is None:
                return rule
        raise ValueError(f"deck {self.name!r} has no default device type")

    def marked_device(self) -> "DeviceTypeRule | None":
        for rule in self.device_types:
            if rule.marker is not None:
                return rule
        return None

    def device_type(self, kind: str) -> "DeviceTypeRule | None":
        for rule in self.device_types:
            if rule.name == kind:
                return rule
        return None


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------

#: Stable ids of the deck-validation rules, with their help text --
#: surfaced by ``repro-lint --list-rules`` and as SARIF rule metadata.
DECK_RULE_HELP: dict[str, str] = {
    "deck.bad-lambda": "lambda is below 1 centimicron",
    "deck.duplicate-layer": "two layer declarations share one CIF name",
    "deck.unknown-layer": "a rule references an undeclared layer",
    "deck.nonconducting-device": (
        "a channel or contact rule references a non-conducting layer"
    ),
    "deck.conducting-marker": (
        "a marker, blocker, cut, or window layer is declared conducting"
    ),
    "deck.undeclared-rule-layer": (
        "a width/spacing entry names an undeclared layer"
    ),
    "deck.duplicate-device": (
        "two device types share a name or a marker layer"
    ),
    "deck.no-default-device": (
        "not exactly one device type with no marker (the bare-channel "
        "default)"
    ),
    "deck.bad-channel": (
        "the channel rule is degenerate or leaves no single routing layer"
    ),
    "deck.rule-collision": "a rule id is enabled more than once",
    "deck.uncheckable-rule": (
        "an enabled rule has no checker or is missing its required layers"
    ),
    "deck.missing-help": "an enabled rule id has no help text",
    "deck.missing-message": (
        "an enabled rule has no diagnostic message template"
    ),
    "deck.bad-erc": "the ERC policy is malformed",
}

#: Message-template keys each DRC rule id requires, when enabled.
_RULE_MESSAGE_KEYS: dict[str, tuple[str, ...]] = {
    "drc.gate-extension": ("gate-extension",),
    "drc.contact-enclosure": ("contact-enclosure",),
    "drc.buried-enclosure": ("buried-cover", "buried-overlap"),
    "drc.implant-coverage": ("marker-coverage",),
}

_ERC_STYLES = ("ratio", "complementary")


def validate_deck(deck: TechnologyDeck) -> "Any":
    """Statically check ``deck``; returns a diagnostics CheckReport.

    Every finding is an ERROR carrying one of the :data:`DECK_RULE_HELP`
    rule ids; an empty report means the deck compiles.
    """
    from ..diagnostics import CheckReport, Diagnostic, Severity

    findings: list[Diagnostic] = []

    def flag(rule: str, message: str, layer: "str | None" = None) -> None:
        findings.append(
            Diagnostic(Severity.ERROR, rule, message, tool="deck", layer=layer)
        )

    # Every rule dimension is a multiple of lambda: below 1 the width
    # and spacing minima vanish or go negative and never fire.
    if deck.lambda_ < 1:
        flag(
            "deck.bad-lambda",
            f"lambda must be at least 1 centimicron, not {deck.lambda_!r}",
        )

    declared: dict[str, LayerSpec] = {}
    for spec in deck.layers:
        if spec.name in declared:
            flag(
                "deck.duplicate-layer",
                f"layer {spec.name!r} is declared twice",
                layer=spec.name,
            )
        else:
            declared[spec.name] = spec
        if spec.name == ABSENT_LAYER:
            flag(
                "deck.duplicate-layer",
                f"layer name {ABSENT_LAYER!r} is reserved",
                layer=spec.name,
            )

    def known(name: "str | None", where: str) -> bool:
        if name is None:
            return False
        if name not in declared:
            flag(
                "deck.unknown-layer",
                f"{where} references undeclared layer {name!r}",
                layer=name,
            )
            return False
        return True

    def conducting(name: str, where: str) -> None:
        if known(name, where) and not declared[name].conducting:
            flag(
                "deck.nonconducting-device",
                f"{where} layer {name!r} must be conducting",
                layer=name,
            )

    def insulating(name: "str | None", where: str) -> None:
        if name is None:
            return
        if known(name, where) and declared[name].conducting:
            flag(
                "deck.conducting-marker",
                f"{where} layer {name!r} must not be conducting",
                layer=name,
            )

    # Channel rule: two distinct conducting layers, optional blocker.
    conducting(deck.channel.diffusion, "channel diffusion")
    conducting(deck.channel.gate, "channel gate")
    insulating(deck.channel.blocker, "channel blocker")
    if deck.channel.diffusion == deck.channel.gate:
        flag(
            "deck.bad-channel",
            "channel diffusion and gate are the same layer "
            f"({deck.channel.diffusion!r})",
        )
    else:
        routing = tuple(
            n
            for n in deck.routing_names()
            if n in declared
        )
        if len(routing) != 1:
            flag(
                "deck.bad-channel",
                "the scanline needs exactly one conducting routing layer "
                f"besides the channel pair; deck declares {len(routing)}",
            )

    if deck.channel.blocker is not None:
        window = deck.buried.window if deck.buried else None
        if window != deck.channel.blocker:
            flag(
                "deck.bad-channel",
                "the channel blocker must be the buried window layer "
                "(the scanline implements blocking through the buried "
                "table)",
                layer=deck.channel.blocker,
            )

    # Device types: unique names/markers, exactly one default.
    seen_names: set[str] = set()
    seen_markers: set[str] = set()
    defaults = 0
    for rule in deck.device_types:
        if rule.name in seen_names:
            flag(
                "deck.duplicate-device",
                f"device type {rule.name!r} is declared twice",
            )
        seen_names.add(rule.name)
        if rule.marker is None:
            defaults += 1
        else:
            insulating(rule.marker, f"device type {rule.name!r} marker")
            if rule.marker in seen_markers:
                flag(
                    "deck.duplicate-device",
                    f"marker {rule.marker!r} selects two device types",
                    layer=rule.marker,
                )
            seen_markers.add(rule.marker)
        if rule.polarity not in ("n", "p"):
            flag(
                "deck.duplicate-device",
                f"device type {rule.name!r} polarity must be 'n' or 'p', "
                f"not {rule.polarity!r}",
            )
    if defaults != 1:
        flag(
            "deck.no-default-device",
            f"decks need exactly one marker-less device type; "
            f"found {defaults}",
        )
    if not deck.device_types:
        pass  # already flagged by the defaults count

    # Contact and buried rules.
    insulating(deck.contact.cut, "contact cut")
    if not deck.contact.connects:
        flag(
            "deck.nonconducting-device",
            "contact rule connects no layers",
            layer=deck.contact.cut,
        )
    for name in deck.contact.connects:
        conducting(name, "contact connects")
    if deck.buried is not None:
        insulating(deck.buried.window, "buried window")
    for name in deck.ignored:
        known(name, "ignored list")

    # DRC dimensional entries must name declared layers.
    for table, label in (
        (deck.drc.min_width, "min_width"),
        (deck.drc.min_spacing, "min_spacing"),
    ):
        for name in table:
            if name not in declared:
                flag(
                    "deck.undeclared-rule-layer",
                    f"{label} entry for undeclared layer {name!r}",
                    layer=name,
                )

    # Enabled rules: known to the checker, unique, helped, messaged,
    # and actually checkable with this deck's layer roles.
    from ..drc.rules import ALL_RULES, RULE_HELP

    help_index = {**RULE_HELP, **deck.drc.help}
    seen_rules: set[str] = set()
    for rule_id in deck.drc.rules:
        if rule_id in seen_rules:
            flag(
                "deck.rule-collision",
                f"rule {rule_id!r} is enabled more than once",
            )
            continue
        seen_rules.add(rule_id)
        if rule_id not in help_index:
            flag(
                "deck.missing-help",
                f"enabled rule {rule_id!r} has no help text",
            )
        if rule_id not in ALL_RULES:
            flag(
                "deck.uncheckable-rule",
                f"rule {rule_id!r} has no checker implementation",
            )
            continue
        if rule_id == "drc.buried-enclosure" and deck.buried is None:
            flag(
                "deck.uncheckable-rule",
                "drc.buried-enclosure is enabled but the deck has no "
                "buried rule",
            )
        if rule_id == "drc.implant-coverage" and deck.marked_device() is None:
            flag(
                "deck.uncheckable-rule",
                "drc.implant-coverage is enabled but no device type "
                "declares a marker layer",
            )
        for key in _RULE_MESSAGE_KEYS.get(rule_id, ()):
            if key not in deck.drc.messages:
                flag(
                    "deck.missing-message",
                    f"rule {rule_id!r} needs message template {key!r}",
                )

    # ERC policy.
    if deck.erc.style not in _ERC_STYLES:
        flag(
            "deck.bad-erc",
            f"unknown ERC style {deck.erc.style!r} "
            f"(expected one of {', '.join(_ERC_STYLES)})",
        )
    if deck.erc.style == "ratio" and deck.erc.min_ratio <= 0:
        flag(
            "deck.bad-erc",
            f"ratio style needs a positive min_ratio, not "
            f"{deck.erc.min_ratio!r}",
        )
    if not deck.erc.vdd_names or not deck.erc.gnd_names:
        flag("deck.bad-erc", "rail name lists must not be empty")

    report = CheckReport(diagnostics=findings, artifact=deck.name)
    return report.sorted()


class DeckError(ValueError):
    """A deck failed validation (or could not be parsed).

    ``report`` carries the individual diagnostics when validation ran.
    """

    def __init__(self, message: str, report: "Any" = None) -> None:
        super().__init__(message)
        self.report = report


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Technology:
    """A compiled deck: the layer roles and part names it resolves to.

    Built only by :func:`compile_deck`, which fills every field from
    ``deck`` once.  A role the deck does not use (CMOS has no buried
    window and no channel blocker) holds :data:`ABSENT_LAYER`.
    """

    deck: TechnologyDeck
    metal: str
    poly: str
    diff: str
    contact: str
    marker: str
    blocker: str
    buried: str
    #: layers whose active intervals carry net ids directly
    net_layers: frozenset[str]
    ignored: frozenset[str]
    #: wirelist part names of a bare channel and a marked one
    kinds: tuple[str, str]

    @property
    def name(self) -> str:
        return self.deck.name

    @property
    def lambda_(self) -> int:
        return self.deck.lambda_

    def tracked(self) -> set[str]:
        """The layers the scanline keeps active-interval tables for."""
        return {
            self.metal,
            self.poly,
            self.diff,
            self.contact,
            self.marker,
            self.blocker,
            self.buried,
        }

    def device_name(self, marked: bool) -> str:
        return self.kinds[marked]


def compile_deck(deck: TechnologyDeck) -> Technology:
    """Validate ``deck`` and resolve its layer roles into a Technology.

    Raises :class:`DeckError` (carrying the validation report) when the
    deck is malformed.
    """
    report = validate_deck(deck)
    if report.errors:
        lines = "; ".join(d.message for d in report.errors[:4])
        raise DeckError(
            f"technology deck {deck.name!r} failed validation "
            f"({len(report.errors)} finding(s)): {lines}",
            report=report,
        )

    routing = deck.routing_names()
    marked = deck.marked_device()
    default = deck.default_device()
    return Technology(
        deck=deck,
        metal=routing[0],
        poly=deck.channel.gate,
        diff=deck.channel.diffusion,
        contact=deck.contact.cut,
        marker=(marked.marker if marked else None) or ABSENT_LAYER,
        blocker=deck.channel.blocker or ABSENT_LAYER,
        buried=deck.buried.window if deck.buried else ABSENT_LAYER,
        net_layers=frozenset((*routing, deck.channel.gate)),
        ignored=frozenset(deck.ignored),
        kinds=(default.name, (marked or default).name),
    )


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

_SCHEMA_VERSION = 1


def deck_to_dict(deck: TechnologyDeck) -> dict:
    """The canonical JSON-compatible form of ``deck``."""
    return {
        "schema": _SCHEMA_VERSION,
        "name": deck.name,
        "lambda": deck.lambda_,
        "layers": [
            {
                "name": s.name,
                "description": s.description,
                "conducting": s.conducting,
            }
            for s in deck.layers
        ],
        "channel": {
            "diffusion": deck.channel.diffusion,
            "gate": deck.channel.gate,
            "blocker": deck.channel.blocker,
        },
        "device_types": [
            {
                "name": r.name,
                "marker": r.marker,
                "polarity": r.polarity,
                "depletion": r.depletion,
            }
            for r in deck.device_types
        ],
        "contact": {
            "cut": deck.contact.cut,
            "connects": list(deck.contact.connects),
        },
        "buried": (
            {"window": deck.buried.window} if deck.buried else None
        ),
        "ignored": list(deck.ignored),
        "drc": {
            "rules": list(deck.drc.rules),
            "min_width": dict(deck.drc.min_width),
            "min_spacing": dict(deck.drc.min_spacing),
            "gate_extension": deck.drc.gate_extension,
            "contact_margin": deck.drc.contact_margin,
            "buried_margin": deck.drc.buried_margin,
            "marker_margin": deck.drc.marker_margin,
            "messages": dict(deck.drc.messages),
            "help": dict(deck.drc.help),
        },
        "erc": {
            "style": deck.erc.style,
            "min_ratio": deck.erc.min_ratio,
            "vdd_names": list(deck.erc.vdd_names),
            "gnd_names": list(deck.erc.gnd_names),
        },
    }


def deck_from_dict(data: dict) -> TechnologyDeck:
    """Parse the :func:`deck_to_dict` form; raises DeckError on shape
    errors (content errors are the validator's job)."""
    try:
        schema = data.get("schema", _SCHEMA_VERSION)
        if schema != _SCHEMA_VERSION:
            raise DeckError(f"unsupported deck schema version {schema!r}")
        drc = data.get("drc", {})
        erc = data.get("erc", {})
        buried = data.get("buried")
        return TechnologyDeck(
            name=str(data["name"]),
            lambda_=int(data["lambda"]),
            layers=tuple(
                LayerSpec(
                    name=str(s["name"]),
                    description=str(s.get("description", "")),
                    conducting=bool(s["conducting"]),
                )
                for s in data["layers"]
            ),
            channel=ChannelRule(
                diffusion=str(data["channel"]["diffusion"]),
                gate=str(data["channel"]["gate"]),
                blocker=(
                    None
                    if data["channel"].get("blocker") is None
                    else str(data["channel"]["blocker"])
                ),
            ),
            device_types=tuple(
                DeviceTypeRule(
                    name=str(r["name"]),
                    marker=(
                        None
                        if r.get("marker") is None
                        else str(r["marker"])
                    ),
                    polarity=str(r.get("polarity", "n")),
                    depletion=bool(r.get("depletion", False)),
                )
                for r in data["device_types"]
            ),
            contact=ContactRule(
                cut=str(data["contact"]["cut"]),
                connects=tuple(
                    str(n) for n in data["contact"]["connects"]
                ),
            ),
            buried=(
                BuriedRule(window=str(buried["window"])) if buried else None
            ),
            ignored=tuple(str(n) for n in data.get("ignored", ())),
            drc=DrcDeck(
                rules=tuple(str(r) for r in drc.get("rules", ())),
                min_width={
                    str(k): int(v)
                    for k, v in drc.get("min_width", {}).items()
                },
                min_spacing={
                    str(k): int(v)
                    for k, v in drc.get("min_spacing", {}).items()
                },
                gate_extension=int(drc.get("gate_extension", 1)),
                contact_margin=int(drc.get("contact_margin", 0)),
                buried_margin=int(drc.get("buried_margin", 0)),
                marker_margin=int(drc.get("marker_margin", 1)),
                messages={
                    str(k): str(v)
                    for k, v in drc.get("messages", {}).items()
                },
                help={
                    str(k): str(v)
                    for k, v in drc.get("help", {}).items()
                },
            ),
            erc=ErcDeck(
                style=str(erc.get("style", "ratio")),
                min_ratio=float(erc.get("min_ratio", 4.0)),
                vdd_names=tuple(
                    str(n) for n in erc.get("vdd_names", ("VDD", "VDD!"))
                ),
                gnd_names=tuple(
                    str(n)
                    for n in erc.get(
                        "gnd_names", ("GND", "GND!", "VSS", "GROUND")
                    )
                ),
            ),
        )
    except DeckError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise DeckError(f"malformed technology deck: {exc!r}") from exc


def load_deck_file(path: str) -> TechnologyDeck:
    """Load a deck from a JSON file (shape-checked, not yet validated)."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except json.JSONDecodeError as exc:
        raise DeckError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DeckError(f"{path}: a deck file must hold a JSON object")
    return deck_from_dict(data)
