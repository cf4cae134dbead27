"""Technology descriptions: decks and their compiled form.

The builtin decks are the JSON files under ``decks/``; a file's stem is
its builtin name, so adding one needs only its file.
"""

import dataclasses
import os

from .cmos import CMOS, cmos_deck
from .deck import (
    ABSENT_LAYER,
    BUILTIN_DECKS,
    DECK_RULE_HELP,
    DEFAULT_LAMBDA,
    DeckError,
    Technology,
    TechnologyDeck,
    compile_deck,
    deck_by_name,
    deck_from_dict,
    deck_to_dict,
    load_deck_file,
    validate_deck,
)
from .nmos import NMOS, nmos_deck


def technology_by_name(
    name: str, lambda_: int = DEFAULT_LAMBDA
) -> Technology:
    """Compile a builtin deck by name into a Technology."""
    return compile_deck(deck_by_name(name, lambda_))


def resolve_deck(spec: str, lambda_: "int | None" = None) -> TechnologyDeck:
    """The ``--deck`` selection of every CLI: a builtin name or a file.

    A builtin name always means the shipped deck, even where the working
    directory holds a file or directory of that name (reach that as
    ``./NAME``).  Anything else that looks like a path (exists on disk,
    ends in ``.json``, or contains a separator) is loaded as a deck
    file.  ``lambda_`` replaces the deck's own lambda either way (None
    keeps the file's, or the builtin default); :func:`compile_deck` then
    validates the deck at that lambda.  Every failure -- unknown name,
    unreadable or unparsable file -- raises :class:`DeckError`.
    """
    looks_like_path = (
        os.path.exists(spec)
        or spec.endswith(".json")
        or os.sep in spec
        or "/" in spec
    )
    try:
        if spec in BUILTIN_DECKS or not looks_like_path:
            return deck_by_name(
                spec, DEFAULT_LAMBDA if lambda_ is None else lambda_
            )
        deck = load_deck_file(spec)
    except KeyError as exc:
        raise DeckError(exc.args[0]) from None
    except OSError as exc:
        raise DeckError(f"{spec}: {exc.strerror or exc}") from exc
    if lambda_ is None:
        return deck
    return dataclasses.replace(deck, lambda_=lambda_)


__all__ = [
    "ABSENT_LAYER",
    "BUILTIN_DECKS",
    "CMOS",
    "DECK_RULE_HELP",
    "DEFAULT_LAMBDA",
    "DeckError",
    "NMOS",
    "Technology",
    "TechnologyDeck",
    "cmos_deck",
    "compile_deck",
    "deck_by_name",
    "deck_from_dict",
    "deck_to_dict",
    "load_deck_file",
    "nmos_deck",
    "resolve_deck",
    "technology_by_name",
    "validate_deck",
]
