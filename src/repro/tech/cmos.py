"""A p-well CMOS technology deck.

The deck machinery was designed so CMOS is *data*, not new extractor
code: the channel rule is still diffusion AND gate, there is simply no
buried contact (so no channel blocker), and the device-type marker rule
reuses the implant machinery -- the p-well layer ``CW`` plays the role
the depletion implant plays in NMOS.  A channel inside the well is an
n-channel enhancement device (``nEnh``); a channel outside it is
p-channel (``pEnh``).  There are no depletion loads, so the electrical
checker runs in ``complementary`` style: every driven output needs both
a pull-up path to VDD through p devices and a pull-down path to GND
through n devices, and ratioed (pseudo-NMOS) structures are flagged
instead of ratio-checked.

Layer names follow the CIF convention of a ``C`` prefix: ``CM`` metal,
``CP`` poly, ``CD`` diffusion, ``CC`` contact cut, ``CW`` p-well,
``CG`` overglass.
"""

from __future__ import annotations

from .deck import (
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
from .nmos import DEFAULT_LAMBDA


def cmos_deck(lambda_: int = DEFAULT_LAMBDA) -> TechnologyDeck:
    """The p-well CMOS deck, as declarative data."""
    return TechnologyDeck(
        name="cmos",
        lambda_=lambda_,
        layers=(
            LayerSpec("CM", "metal", conducting=True),
            LayerSpec("CP", "polysilicon", conducting=True),
            LayerSpec("CD", "diffusion", conducting=True),
            LayerSpec("CC", "contact cut", conducting=False),
            LayerSpec("CW", "p-well", conducting=False),
            LayerSpec("CG", "overglass opening", conducting=False),
        ),
        channel=ChannelRule(diffusion="CD", gate="CP", blocker=None),
        device_types=(
            DeviceTypeRule("pEnh", marker=None, polarity="p"),
            DeviceTypeRule("nEnh", marker="CW", polarity="n"),
        ),
        contact=ContactRule(cut="CC", connects=("CM", "CP", "CD")),
        buried=None,
        ignored=("CG",),
        drc=DrcDeck(
            rules=(
                "drc.width",
                "drc.spacing",
                "drc.gate-extension",
                "drc.contact-enclosure",
                "drc.implant-coverage",
            ),
            min_width={
                "CD": 2,
                "CP": 2,
                "CM": 3,
                "CC": 2,
                "CW": 4,
            },
            min_spacing={
                "CD": 3,
                "CP": 2,
                "CM": 1,
                "CC": 1,
                "CW": 4,
            },
            gate_extension=1,
            contact_margin=0,
            buried_margin=0,
            marker_margin=2,
            messages={
                "gate-extension": (
                    "channel edge lacks the {n} lambda poly or "
                    "diffusion extension"
                ),
                "contact-enclosure": (
                    "contact cut not fully covered by metal"
                ),
                "marker-coverage": (
                    "n-channel device not covered by the p-well with "
                    "a {n} lambda margin"
                ),
            },
        ),
        erc=ErcDeck(
            style="complementary",
            min_ratio=4.0,
            vdd_names=("VDD", "VDD!"),
            gnd_names=("GND", "GND!", "VSS", "GROUND"),
        ),
    )


def CMOS(lambda_: int = DEFAULT_LAMBDA) -> Technology:
    """The p-well CMOS technology at the given lambda."""
    return compile_deck(cmos_deck(lambda_))
