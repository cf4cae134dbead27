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
``CG`` overglass.  The deck is the shipped file ``decks/cmos.json``.
"""

from __future__ import annotations

from .deck import (
    DEFAULT_LAMBDA,
    Technology,
    TechnologyDeck,
    compile_deck,
    deck_by_name,
)


def cmos_deck(lambda_: int = DEFAULT_LAMBDA) -> TechnologyDeck:
    """The p-well CMOS deck at ``lambda_``."""
    return deck_by_name("cmos", lambda_)


def CMOS(lambda_: int = DEFAULT_LAMBDA) -> Technology:
    """The p-well CMOS technology at the given lambda."""
    return compile_deck(cmos_deck(lambda_))
