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

These rules are *data*: the deck is the shipped file ``decks/nmos.json``,
:func:`nmos_deck` reads it, and :func:`NMOS` compiles it into the
:class:`~repro.tech.deck.Technology` every extractor, checker and writer
reads.  Its layer order, device names, lambda values and diagnostic
message text are all pinned by the goldens.  The lambda value only
matters to the DRC, the raster baseline (grid pitch) and the workload
generators; ACE itself is grid-free.
"""

from __future__ import annotations

from .deck import (
    DEFAULT_LAMBDA,
    Technology,
    TechnologyDeck,
    compile_deck,
    deck_by_name,
)


def nmos_deck(lambda_: int = DEFAULT_LAMBDA) -> TechnologyDeck:
    """The Mead & Conway NMOS deck at ``lambda_``."""
    return deck_by_name("nmos", lambda_)


def NMOS(lambda_: int = DEFAULT_LAMBDA) -> Technology:
    """The standard NMOS technology at the given lambda."""
    return compile_deck(nmos_deck(lambda_))
