"""The NMOS process rules ACE extracts against.

ACE deliberately embeds no circuit *model* (capacitance, resistance), but
it does embed the NMOS *topology* rules:

* **Channel formation** -- diffusion AND poly AND NOT buried is a
  transistor channel; the channel interrupts conduction on the diffusion
  layer (section 3: the four "interacting layers" are diffusion, poly,
  buried and implant).
* **Device type** -- implant over the channel makes a depletion device,
  otherwise enhancement.
* **Contacts** -- a contact cut unions the nets of every conducting layer
  present under it (metal-poly or metal-diffusion in practice; a butting
  contact unions all three).
* **Buried contacts** -- buried over poly AND diffusion unions the poly
  and diffusion nets (and, by the channel rule, suppresses the channel).

These rules are *data*: :func:`nmos_deck` is the declarative
:class:`~repro.tech.deck.TechnologyDeck`, and :func:`NMOS` compiles it
into the :class:`~repro.tech.deck.Technology` every extractor, checker
and writer reads.  The lambda value only matters to the DRC, the raster
baseline (grid pitch) and the workload generators; ACE itself is
grid-free.
"""

from __future__ import annotations

from .deck import (
    BuriedRule,
    ChannelRule,
    ContactRule,
    DeviceTypeRule,
    DrcDeck,
    ErcDeck,
    LayerSpec,
    Technology,
    TechnologyDeck,
    compile_deck,
)

#: Default lambda in CIF centimicrons (2.5 micron process, Mead-Conway).
DEFAULT_LAMBDA = 250


def nmos_deck(lambda_: int = DEFAULT_LAMBDA) -> TechnologyDeck:
    """The Mead & Conway NMOS deck, as declarative data.

    Layer order, device names, lambda values and diagnostic message
    text are all pinned by the goldens.
    """
    return TechnologyDeck(
        name="nmos",
        lambda_=lambda_,
        layers=(
            LayerSpec("NM", "metal", conducting=True),
            LayerSpec("NP", "polysilicon", conducting=True),
            LayerSpec("ND", "diffusion", conducting=True),
            LayerSpec("NC", "contact cut", conducting=False),
            LayerSpec("NI", "depletion implant", conducting=False),
            LayerSpec("NB", "buried contact", conducting=False),
            LayerSpec("NG", "overglass opening", conducting=False),
        ),
        channel=ChannelRule(diffusion="ND", gate="NP", blocker="NB"),
        device_types=(
            DeviceTypeRule("nEnh", marker=None, polarity="n"),
            DeviceTypeRule(
                "nDep", marker="NI", polarity="n", depletion=True
            ),
        ),
        contact=ContactRule(cut="NC", connects=("NM", "NP", "ND")),
        buried=BuriedRule(window="NB"),
        ignored=("NG",),
        drc=DrcDeck(
            rules=(
                "drc.width",
                "drc.spacing",
                "drc.gate-extension",
                "drc.contact-enclosure",
                "drc.buried-enclosure",
                "drc.implant-coverage",
            ),
            min_width={
                "ND": 2,
                "NP": 2,
                "NM": 3,
                "NC": 2,
                "NB": 2,
                "NI": 2,
            },
            min_spacing={
                "ND": 3,
                "NP": 2,
                "NM": 1,
                "NC": 1,
                "NB": 2,
                "NI": 2,
            },
            gate_extension=1,
            contact_margin=0,
            buried_margin=0,
            marker_margin=1,
            messages={
                "gate-extension": (
                    "channel edge lacks the {n} lambda poly or "
                    "diffusion extension"
                ),
                "contact-enclosure": (
                    "contact cut not fully covered by metal"
                ),
                "buried-cover": (
                    "buried window not fully covered by diffusion"
                ),
                "buried-overlap": "buried window never overlaps poly",
                "marker-coverage": (
                    "depletion channel not covered by implant with a "
                    "{n} lambda margin"
                ),
            },
        ),
        erc=ErcDeck(
            style="ratio",
            min_ratio=4.0,
            vdd_names=("VDD", "VDD!"),
            gnd_names=("GND", "GND!", "VSS", "GROUND"),
        ),
    )


def NMOS(lambda_: int = DEFAULT_LAMBDA) -> Technology:
    """The standard NMOS technology at the given lambda."""
    return compile_deck(nmos_deck(lambda_))
