"""Versioned serialization for windows and primitive fragments.

Two payload shapes, both plain JSON-able dicts:

* a **window payload** is the canonical form of a primitive window's
  content — size plus sorted window-relative geometry and labels.  Its
  hash (together with the technology fingerprint, fracture resolution
  and format version) is the persistent cache key;
* a **fragment payload** is a primitive :class:`~repro.hext.fragment.Fragment`
  flattened to lists and ints.  Only primitive fragments (no children)
  serialize: composed fragments are cheap to rebuild and share child
  pointers, which a file format cannot preserve.

``FORMAT_VERSION`` participates in every cache key and envelope, so a
format change simply orphans old entries instead of misreading them.
Deserialization validates structure eagerly and raises
:class:`SerializationError` on anything malformed — the cache treats
that the same as a checksum mismatch: discard and re-extract.
"""

from __future__ import annotations

import hashlib
import json

from ..core.netlist import (
    CHANNEL,
    FACES,
    checked_id,
    checked_int,
    device_from_payload,
    device_payload,
)
from ..frontend.instantiate import PlacedLabel
from ..geometry import FRACTURE_RESOLUTION, Box
from ..hext.fragment import Fragment, IfaceRec, LineIndex
from ..hext.windows import Content, relative_artwork
from ..tech import Technology, deck_to_dict

#: Bump when the fragment payload or cache key derivation changes shape,
#: or when extraction changes what a key's fragment holds.  Version 2:
#: primitive windows are extracted in their canonical artwork order.
#: Version 3: a fragment keeps its window's skipped layers and
#: unattached labels.
FORMAT_VERSION = 3


class SerializationError(ValueError):
    """A payload is structurally invalid for the current format."""


def canonical_json(payload: dict) -> str:
    """Deterministic JSON: sorted keys, no whitespace."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def envelope_text(header: dict, field: str, body: str) -> str:
    """JSON text of ``header`` plus ``field`` holding the JSON ``body``.

    ``body`` is already serialized (the canonical text the checksum
    covers), so the payload is encoded once, by the C encoder behind
    ``json.dumps``, rather than again by ``json.dump``'s pure-python
    streaming encoder.  ``header`` must not be empty.
    """
    return f"{json.dumps(header)[:-1]}, {json.dumps(field)}: {body}}}"


def technology_fingerprint(tech: Technology) -> str:
    """Digest of every process rule that can influence extraction.

    A ``Technology`` is compiled from its deck alone, so the deck's
    canonical JSON is deterministic and complete.
    """
    body = canonical_json(deck_to_dict(tech.deck))
    return hashlib.sha256(body.encode()).hexdigest()


# ----------------------------------------------------------------------
# window payloads (cache keys)
# ----------------------------------------------------------------------


def content_payload(content: Content) -> dict:
    """Canonical window-relative payload of a primitive window."""
    if not content.is_primitive():
        raise SerializationError(
            "only primitive (geometry-only) windows serialize"
        )
    geometry, labels = relative_artwork(content)
    return {
        "format": FORMAT_VERSION,
        "width": content.region.width,
        "height": content.region.height,
        "geometry": [list(row) for row in geometry],
        "labels": [list(row) for row in labels],
    }


def window_cache_key(content: Content, tech: Technology) -> str:
    """Persistent cache key: content hash of window + process + format.

    Everything the extraction result depends on is hashed: the window's
    normalized artwork, the technology rules, the fracture resolution and
    the payload format version.  Placement is *not* part of the key —
    fragments are window-relative — which is exactly the memoization
    property the cache extends across runs.  The resolution is a
    constant, hashed so that keys written before it was fixed still
    match.
    """
    body = canonical_json(
        {
            "format": FORMAT_VERSION,
            "tech": technology_fingerprint(tech),
            "resolution": FRACTURE_RESOLUTION,
            "window": content_payload(content),
        }
    )
    return hashlib.sha256(body.encode()).hexdigest()


# ----------------------------------------------------------------------
# fragment payloads (cache values)
# ----------------------------------------------------------------------


def fragment_payload(fragment: Fragment) -> dict:
    """Flatten a primitive fragment to a JSON-able dict."""
    if fragment.children:
        raise SerializationError("composed fragments do not serialize")
    return {
        "format": FORMAT_VERSION,
        "region": [[b.xmin, b.ymin, b.xmax, b.ymax] for b in fragment.region],
        "net_count": fragment.net_count,
        "equivalences": [list(pair) for pair in fragment.equivalences],
        # Sorted by net id; name order within a net is meaningful (it is
        # discovery order) and preserved.
        "net_names": sorted(
            [ident, list(names)]
            for ident, names in fragment.net_names.items()
        ),
        "net_locs": sorted(
            [ident, loc[0], loc[1]]
            for ident, loc in fragment.net_locs.items()
        ),
        "devices": [device_payload(rec) for rec in fragment.devices],
        "partials": [device_payload(rec) for rec in fragment.partials],
        "interface": [
            [rec.face, rec.layer, rec.fixed, rec.lo, rec.hi, rec.ident]
            for rec in fragment.interface
        ],
        "skipped": list(fragment.skipped),
        "unattached": [
            [label.name, label.x, label.y, label.layer or ""]
            for label in fragment.unattached
        ],
    }


def fragment_from_payload(payload: dict) -> Fragment:
    """Rebuild a primitive fragment, validating structure throughout."""
    try:
        if payload["format"] != FORMAT_VERSION:
            raise SerializationError(
                f"format {payload['format']!r} != {FORMAT_VERSION}"
            )
        net_count = checked_int(payload["net_count"])
        region = tuple(
            Box(*map(checked_int, box)) for box in payload["region"]
        )
        if not region:
            raise SerializationError("fragment has no region")
        equivalences = tuple(
            (checked_id(a, net_count), checked_id(b, net_count))
            for a, b in payload["equivalences"]
        )
        net_names = {
            checked_id(ident, net_count): [str(n) for n in names]
            for ident, names in payload["net_names"]
        }
        net_locs = {
            checked_id(ident, net_count): (checked_int(a), checked_int(b))
            for ident, a, b in payload["net_locs"]
        }
        devices = tuple(
            device_from_payload(item, net_count)
            for item in payload["devices"]
        )
        partials = tuple(
            device_from_payload(item, net_count)
            for item in payload["partials"]
        )
        index = LineIndex.of(
            _iface_from_payload(item, rank, net_count, len(partials))
            for rank, item in enumerate(payload["interface"])
        )
        skipped = tuple(_checked_str(layer) for layer in payload["skipped"])
        unattached = tuple(
            PlacedLabel(
                _checked_str(name), checked_int(x), checked_int(y),
                _checked_str(layer) or None,
            )
            for name, x, y, layer in payload["unattached"]
        )
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SerializationError(f"bad fragment payload: {exc}") from exc
    return Fragment(
        region=region,
        net_count=net_count,
        equivalences=equivalences,
        net_names=net_names,
        net_locs=net_locs,
        devices=devices,
        partials=partials,
        index=index,
        skipped=skipped,
        unattached=unattached,
    )


def _checked_str(value) -> str:
    if not isinstance(value, str):
        raise SerializationError(f"expected str, got {value!r}")
    return value


def _iface_from_payload(
    item: list, rank: int, net_count: int, partials: int
) -> IfaceRec:
    face, layer, fixed, lo, hi, ident = item
    if face not in FACES:
        raise SerializationError(f"bad interface face {face!r}")
    limit = partials if layer == CHANNEL else net_count
    return IfaceRec(
        str(face), str(layer), checked_int(fixed), checked_int(lo),
        checked_int(hi), checked_id(ident, limit), rank,
    )
