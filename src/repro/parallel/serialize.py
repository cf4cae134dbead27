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

from ..geometry import Box
from ..hext.fragment import CHANNEL, DeviceRec, Fragment, IfaceRec, LineIndex
from ..hext.windows import Content, relative_artwork
from ..tech import Technology, deck_to_dict

#: Bump when the fragment payload or cache key derivation changes shape,
#: or when extraction changes what a key's fragment holds.  Version 2:
#: primitive windows are extracted in their canonical artwork order.
FORMAT_VERSION = 2

_FACES = frozenset("LRTB")


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


def window_cache_key(
    content: Content, tech: Technology, resolution: int
) -> str:
    """Persistent cache key: content hash of window + process + format.

    Everything the extraction result depends on is hashed: the window's
    normalized artwork, the technology rules, the fracture resolution and
    the payload format version.  Placement is *not* part of the key —
    fragments are window-relative — which is exactly the memoization
    property the cache extends across runs.
    """
    body = canonical_json(
        {
            "format": FORMAT_VERSION,
            "tech": technology_fingerprint(tech),
            "resolution": resolution,
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
        "devices": [_device_payload(rec) for rec in fragment.devices],
        "partials": [_device_payload(rec) for rec in fragment.partials],
        "interface": [
            [rec.face, rec.layer, rec.fixed, rec.lo, rec.hi, rec.ident]
            for rec in fragment.interface
        ],
    }


def fragment_from_payload(payload: dict) -> Fragment:
    """Rebuild a primitive fragment, validating structure throughout."""
    try:
        if payload["format"] != FORMAT_VERSION:
            raise SerializationError(
                f"format {payload['format']!r} != {FORMAT_VERSION}"
            )
        net_count = _as_int(payload["net_count"])
        region = tuple(
            Box(_as_int(x1), _as_int(y1), _as_int(x2), _as_int(y2))
            for x1, y1, x2, y2 in payload["region"]
        )
        if not region:
            raise SerializationError("fragment has no region")
        equivalences = tuple(
            (_net_id(a, net_count), _net_id(b, net_count))
            for a, b in payload["equivalences"]
        )
        net_names = {
            _net_id(ident, net_count): [str(n) for n in names]
            for ident, names in payload["net_names"]
        }
        net_locs = {
            _net_id(ident, net_count): (_as_int(a), _as_int(b))
            for ident, a, b in payload["net_locs"]
        }
        devices = tuple(
            _device_from_payload(item, net_count)
            for item in payload["devices"]
        )
        partials = tuple(
            _device_from_payload(item, net_count)
            for item in payload["partials"]
        )
        index = LineIndex.of(
            _iface_from_payload(item, rank, net_count, len(partials))
            for rank, item in enumerate(payload["interface"])
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
    )


def _device_payload(rec: DeviceRec) -> dict:
    return {
        "area": rec.area,
        "terms": sorted([net, per] for net, per in rec.terms.items()),
        "gates": sorted(rec.gates),
        "impl": rec.impl,
        "loc": list(rec.loc) if rec.loc is not None else None,
    }


def _device_from_payload(item: dict, net_count: int) -> DeviceRec:
    loc = item["loc"]
    return DeviceRec(
        area=_as_int(item["area"]),
        terms={
            _net_id(net, net_count): _as_int(per)
            for net, per in item["terms"]
        },
        gates={_net_id(net, net_count) for net in item["gates"]},
        impl=bool(item["impl"]),
        loc=(_as_int(loc[0]), _as_int(loc[1])) if loc is not None else None,
    )


def _iface_from_payload(
    item: list, rank: int, net_count: int, partials: int
) -> IfaceRec:
    face, layer, fixed, lo, hi, ident = item
    if face not in _FACES:
        raise SerializationError(f"bad interface face {face!r}")
    limit = partials if layer == CHANNEL else net_count
    if not 0 <= _as_int(ident) < limit:
        raise SerializationError(
            f"interface ident {ident} out of range for {layer!r}"
        )
    return IfaceRec(
        str(face), str(layer), _as_int(fixed), _as_int(lo), _as_int(hi),
        _as_int(ident), rank,
    )


def _as_int(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SerializationError(f"expected int, got {value!r}")
    return value


def _net_id(value, net_count: int) -> int:
    ident = _as_int(value)
    if not 0 <= ident < net_count:
        raise SerializationError(
            f"net id {ident} out of range (net_count={net_count})"
        )
    return ident
