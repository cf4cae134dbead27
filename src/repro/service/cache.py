"""The content-addressed result cache: (payload digest, options) -> result.

Two layers:

* a bounded in-memory LRU for the hot set (a daemon serving repeated
  submissions of the same layout answers from here without touching
  disk), and
* optionally, a :class:`~repro.parallel.cache.JsonEnvelopeStore` on
  disk, reusing the fragment cache's trust-nothing envelope discipline
  (format version, key echo, payload checksum, atomic replace), so
  results survive daemon restarts and a corrupted entry is re-extracted
  rather than served.

The key deliberately excludes ``timeout``, ``stream`` and
``band_height``: how a result was computed cannot change its bytes (a
streamed sweep writes the in-memory path's wirelist at every band
plan), so a streamed submission hits a result cached by an in-memory
one.  Everything that *can* change the bytes — payload digest, wirelist
name, lambda, deck, flat/hierarchical, lint, geometry — is in
:meth:`repro.service.jobs.JobOptions.cache_facet`.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict

from ..parallel.cache import JsonEnvelopeStore
from ..parallel.serialize import SerializationError, canonical_json
from .jobs import JobOptions

#: Bump to orphan every previously stored result envelope.  Version 2:
#: a hierarchical result's ``warnings`` carry the malformed-transistor
#: warnings the flat finalize reports.  Version 3: and its unknown-layer
#: and unattached-label warnings.
RESULT_FORMAT_VERSION = 3


def payload_digest(cif_text: str) -> str:
    """Content digest of a submitted CIF payload."""
    return hashlib.sha256(cif_text.encode("utf-8")).hexdigest()


def result_cache_key(digest: str, options: JobOptions) -> str:
    """The cache key for one (payload, options) submission."""
    body = canonical_json(
        {
            "format": RESULT_FORMAT_VERSION,
            "payload": digest,
            "options": options.cache_facet(),
        }
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class ResultStore(JsonEnvelopeStore):
    """On-disk half of the result cache."""

    format_version = RESULT_FORMAT_VERSION
    payload_field = "result"

    def validate_payload(self, payload: dict) -> None:
        if not isinstance(payload.get("wirelist"), str):
            raise SerializationError("result payload missing wirelist text")
        if not isinstance(payload.get("diagnostics"), list):
            raise SerializationError("result payload missing diagnostics")


class ResultCache:
    """Memory-over-disk result cache with one combined stats view.

    The disk half is a :class:`JsonEnvelopeStore`, so results survive
    a restart: a memory miss falls through to disk.  Several daemons
    may share one directory (atomic replace and lock-free reads make
    concurrent access safe).  ``max_entries`` / ``max_bytes`` /
    ``ttl_seconds`` bound the store (LRU-by-mtime eviction, idle
    expiry) — see ``repro.parallel.cache``.
    """

    def __init__(
        self,
        root: "str | os.PathLike | None" = None,
        *,
        memory_entries: int = 256,
        max_entries: "int | None" = None,
        max_bytes: "int | None" = None,
        ttl_seconds: "float | None" = None,
    ) -> None:
        self.memory_entries = memory_entries
        self._memory: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        self._disk = (
            ResultStore(
                root,
                max_entries=max_entries,
                max_bytes=max_bytes,
                ttl_seconds=ttl_seconds,
            )
            if root is not None
            else None
        )
        self.hits = 0
        self.misses = 0
        self.stores = 0

    def get(self, key: str) -> "dict | None":
        with self._lock:
            cached = self._memory.get(key)
            if cached is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                return cached
        if self._disk is not None:
            payload = self._disk.get_payload(key)
            if payload is not None:
                with self._lock:
                    self._remember(key, payload)
                    self.hits += 1
                return payload
        with self._lock:
            self.misses += 1
        return None

    def put(self, key: str, result: dict) -> None:
        with self._lock:
            self._remember(key, result)
            self.stores += 1
        if self._disk is not None:
            self._disk.put_payload(key, result)

    def _remember(self, key: str, result: dict) -> None:
        self._memory[key] = result
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    def stats_snapshot(self) -> dict:
        with self._lock:
            snapshot = {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "memory_entries": len(self._memory),
                "persistent": self._disk is not None,
            }
        if self._disk is not None:
            snapshot["disk"] = {
                "hits": self._disk.stats.hits,
                "misses": self._disk.stats.misses,
                "invalid": self._disk.stats.invalid,
                "stores": self._disk.stats.stores,
                "expired": self._disk.stats.expired,
                "evicted": self._disk.stats.evicted,
            }
        return snapshot
