"""The lambda-rule catalog: rule ids and their help.

Each technology deck enables a subset of the rule ids below and declares
their lambda dimensions in its DRC section (the NMOS values are Mead &
Conway's composition rules, chapter 2, with the deviations listed in
``docs/STATIC_ANALYSIS.md``); :class:`~repro.drc.checker.DrcChecker`
reads them off the compiled :class:`~repro.tech.Technology`'s deck.

Rule identifiers are stable strings -- they key golden snapshots,
baseline suppression files, and SARIF rule metadata, so changing one is
a breaking change to every consumer.
"""

from __future__ import annotations

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


def help_for(tech: "Technology | None" = None) -> dict[str, str]:
    """Rule help for ``--list-rules`` and SARIF: the global catalog,
    overlaid with the deck's own help entries (NMOS by default)."""
    return {**RULE_HELP, **(tech or NMOS()).deck.drc.help}
