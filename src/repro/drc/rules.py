"""The lambda-rule catalog: rule ids, their help, and the dimensions.

Each technology deck enables a subset of the rule ids below and declares
their lambda dimensions in its DRC section (the NMOS values are Mead &
Conway's composition rules, chapter 2, with the deviations listed in
``docs/STATIC_ANALYSIS.md``); :func:`rules_for` reads them off a
compiled :class:`~repro.tech.Technology`.

Rule identifiers are stable strings -- they key golden snapshots,
baseline suppression files, and SARIF rule metadata, so changing one is
a breaking change to every consumer.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..tech import NMOS, Technology

# Stable rule identifiers.
RULE_WIDTH = "drc.width"
RULE_SPACING = "drc.spacing"
RULE_GATE_EXTENSION = "drc.gate-extension"
RULE_CONTACT_ENCLOSURE = "drc.contact-enclosure"
RULE_BURIED_ENCLOSURE = "drc.buried-enclosure"
RULE_IMPLANT_COVERAGE = "drc.implant-coverage"

ALL_RULES: tuple[str, ...] = (
    RULE_WIDTH,
    RULE_SPACING,
    RULE_GATE_EXTENSION,
    RULE_CONTACT_ENCLOSURE,
    RULE_BURIED_ENCLOSURE,
    RULE_IMPLANT_COVERAGE,
)

#: One-line help per rule, surfaced by ``repro-lint --list-rules`` and
#: embedded as SARIF rule descriptions.
RULE_HELP: dict[str, str] = {
    RULE_WIDTH: "region narrower than the layer's minimum width",
    RULE_SPACING: "same-layer regions closer than the minimum spacing",
    RULE_GATE_EXTENSION: (
        "poly or diffusion does not extend past the channel edge"
    ),
    RULE_CONTACT_ENCLOSURE: "contact cut not covered by metal",
    RULE_BURIED_ENCLOSURE: (
        "buried window not covered by diffusion, or never overlapping poly"
    ),
    RULE_IMPLANT_COVERAGE: (
        "depletion implant does not cover its channel with margin"
    ),
}


@dataclass(frozen=True)
class LambdaRules:
    """Minimum dimensions in lambda units, as a deck's DRC section
    declares them (see :func:`rules_for`).

    ``min_width`` / ``min_spacing`` are keyed by CIF layer name; layers
    absent from a map are simply not checked for that rule.
    """

    lambda_: int
    min_width: dict[str, int]
    min_spacing: dict[str, int]
    #: Poly (or diffusion) overhang required beyond a channel edge.
    gate_extension: int
    #: Extra metal required around a contact cut (0 = full coverage).
    contact_margin: int
    #: Extra diffusion required around a buried window (0 = coverage).
    buried_margin: int
    #: Marker overhang required around a marked channel.
    implant_margin: int

    def width_cm(self, layer: str) -> int:
        """Minimum width for ``layer`` in centimicrons (0 = unchecked)."""
        return self.min_width.get(layer, 0) * self.lambda_

    def spacing_cm(self, layer: str) -> int:
        """Minimum spacing for ``layer`` in centimicrons (0 = unchecked)."""
        return self.min_spacing.get(layer, 0) * self.lambda_

    @property
    def gate_extension_cm(self) -> int:
        return self.gate_extension * self.lambda_

    @property
    def contact_margin_cm(self) -> int:
        return self.contact_margin * self.lambda_

    @property
    def buried_margin_cm(self) -> int:
        return self.buried_margin * self.lambda_

    @property
    def implant_margin_cm(self) -> int:
        return self.implant_margin * self.lambda_


def rules_for(tech: Technology) -> LambdaRules:
    """The LambdaRules ``tech``'s deck declares, at its lambda."""
    drc = tech.deck.drc
    return LambdaRules(
        lambda_=tech.lambda_,
        min_width=dict(drc.min_width),
        min_spacing=dict(drc.min_spacing),
        gate_extension=drc.gate_extension,
        contact_margin=drc.contact_margin,
        buried_margin=drc.buried_margin,
        implant_margin=drc.marker_margin,
    )


def help_for(tech: "Technology | None" = None) -> dict[str, str]:
    """Rule help for ``--list-rules`` and SARIF: the global catalog,
    overlaid with the deck's own help entries (NMOS by default)."""
    return {**RULE_HELP, **(tech or NMOS()).deck.drc.help}
