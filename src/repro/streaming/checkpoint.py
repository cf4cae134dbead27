"""Checkpoint files for banded streaming sweeps.

A checkpoint records how far a sweep got, not the sweep itself:

* an identity block (layout digest + extraction options, the deck's
  fingerprint among them) so a resume against the wrong layout, deck or
  options fails loudly instead of emitting garbage;
* the band plan (its floors);
* ``band``, the number of bands committed so far.

The sweep is deterministic, so a resume replays it: it sweeps again
from the top with the recorded floors, retiring every band as the first
run did, which rebuilds the order keys in RAM, and writes no spill file
and no checkpoint for the bands below ``band``, whose payloads are
already in the :class:`~repro.streaming.spill.SpillStore`.  The file
therefore stays a few hundred bytes, whatever the band it was written
at.

The sweep always writes a band's spill file *before* its checkpoint.  A
crash between the two re-processes the band on resume and overwrites
the spill file with identical bytes, so the commit point is the
checkpoint replace.

The file itself reuses the cache-envelope discipline: a checksummed JSON
envelope written via temp file + ``os.replace``.  A SIGKILL at any
moment leaves the previous checkpoint or the new one, never a torn
file.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from ..cif import Layout, write as write_cif
from ..parallel.serialize import canonical_json, envelope_text

#: Bump to invalidate every older checkpoint on load.  Format 4: the
#: options name the technology deck.  Format 5: the python engine's
#: spill rows are :func:`~repro.core.netlist.device_payload` records
#: (``SpillStore.format_version`` 3), so a format-4 sweep's band files
#: cannot be read back.
CHECKPOINT_FORMAT = 5


class CheckpointError(RuntimeError):
    """A checkpoint cannot be used to resume this invocation."""


def layout_digest(layout: Layout, lambda_: int) -> str:
    """Identity of one extraction input: artwork + scale.

    The digest hashes the layout's canonical CIF text, so the same
    artwork parsed from differently formatted sources still matches.
    """
    body = f"{lambda_}|{write_cif(layout)}"
    return hashlib.sha256(body.encode()).hexdigest()


def run_key(digest: str, options: dict, floors: list) -> str:
    """Spill-store key prefix for one (layout, options, band plan) sweep.

    The floors are part of the key: band ``k`` of one plan holds other
    devices than band ``k`` of another, so two plans of one layout
    sharing a spill directory must never share a band file.
    """
    body = canonical_json(
        {"digest": digest, "options": options, "floors": floors}
    )
    return hashlib.sha256(body.encode()).hexdigest()[:16]


def recorded_run_key(path: "str | os.PathLike") -> "str | None":
    """The run key of the sweep the checkpoint at ``path`` records, or
    None when there is no usable checkpoint there."""
    try:
        state = load_checkpoint(path)
        return run_key(state["digest"], state["options"], state["floors"])
    except (CheckpointError, KeyError):
        return None


def save_checkpoint(path: "str | os.PathLike", state: dict) -> None:
    """Atomically replace ``path`` with a checksummed envelope."""
    body = canonical_json(state)
    text = envelope_text(
        {
            "format": CHECKPOINT_FORMAT,
            "checksum": hashlib.sha256(body.encode()).hexdigest(),
        },
        "state",
        body,
    )
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


def load_checkpoint(path: "str | os.PathLike") -> dict:
    """Load and verify a checkpoint, raising :class:`CheckpointError`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            envelope = json.load(handle)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(envelope, dict):
        raise CheckpointError(f"malformed checkpoint {path}")
    if envelope.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(
            f"checkpoint {path} has format {envelope.get('format')!r}, "
            f"expected {CHECKPOINT_FORMAT}; it was written by an "
            f"incompatible version and cannot be resumed"
        )
    state = envelope.get("state")
    if not isinstance(state, dict):
        raise CheckpointError(f"checkpoint {path} is missing its state")
    checksum = hashlib.sha256(canonical_json(state).encode()).hexdigest()
    if envelope.get("checksum") != checksum:
        raise CheckpointError(
            f"checkpoint {path} failed its checksum; the file is corrupt"
        )
    return state


def check_identity(state: dict, digest: str, options: dict, path) -> None:
    """Refuse to resume against a different layout or different options
    (another deck among them)."""
    if state.get("digest") != digest:
        raise CheckpointError(
            f"checkpoint {path} was written for a different layout "
            f"(digest {state.get('digest')!r}, expected {digest!r})"
        )
    if state.get("options") != options:
        raise CheckpointError(
            f"checkpoint {path} was written with different extraction "
            f"options ({state.get('options')!r}, expected {options!r}); "
            f"resume with the original options or start a fresh sweep"
        )
