"""Streaming design-rule checking, driven by the technology deck.

The DRC is a second consumer of the extractor's scanline strip
decomposition (:class:`~repro.core.scanline.StripConsumer`): attach a
:class:`DrcChecker` to :func:`~repro.core.extractor.extract_report` and
circuit extraction and rule checking share one sorted sweep over the
geometry.  :func:`run_drc` is the convenience wrapper for callers that
only want the report.
"""

from __future__ import annotations

from ..cif import Layout, parse
from ..core.extractor import extract_report
from ..diagnostics import CheckReport, SourceIndex
from ..tech import NMOS, Technology
from .checker import DrcChecker
from .rules import (
    ALL_RULES,
    RULE_BURIED_ENCLOSURE,
    RULE_CONTACT_ENCLOSURE,
    RULE_GATE_EXTENSION,
    RULE_HELP,
    RULE_IMPLANT_COVERAGE,
    RULE_SPACING,
    RULE_WIDTH,
    help_for,
)

__all__ = [
    "ALL_RULES",
    "RULE_BURIED_ENCLOSURE",
    "RULE_CONTACT_ENCLOSURE",
    "RULE_GATE_EXTENSION",
    "RULE_HELP",
    "RULE_IMPLANT_COVERAGE",
    "RULE_SPACING",
    "RULE_WIDTH",
    "DrcChecker",
    "help_for",
    "run_drc",
]


def run_drc(
    source: "str | Layout",
    tech: Technology | None = None,
    *,
    enabled: "frozenset[str] | None" = None,
    attribute: bool = True,
    artifact: "str | None" = None,
) -> CheckReport:
    """Design-rule check a layout in one scanline pass.

    Args:
        source: CIF text or a parsed :class:`Layout`.
        tech: process rules, the rule dimensions among them (the deck's
            DRC section); defaults to standard NMOS.
        enabled: restrict checking to these rule ids (None = all).
        attribute: map violations back to the CIF symbols whose
            expansion produced the artwork.
        artifact: name recorded on the report (typically the file path).

    Returns:
        A sorted :class:`CheckReport` of ``tool="drc"`` diagnostics.
    """
    tech = tech or NMOS()
    layout = parse(source) if isinstance(source, str) else source
    checker = DrcChecker(tech, enabled=enabled)
    extract_report(layout, tech, strip_consumers=(checker,))
    report = checker.report(artifact=artifact)
    if attribute and report.diagnostics:
        report = SourceIndex(layout).attribute(report)
    return report
