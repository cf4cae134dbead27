"""Persistent content-addressed JSON stores, and the fragment cache.

One file per key, under a two-level fan-out directory::

    <root>/<key[:2]>/<key>.json

Each file is a small envelope around an arbitrary JSON payload::

    {"format": 1, "key": "<sha256>", "checksum": "<sha256 of payload>",
     "payload": {...}}

Trust nothing read back: an entry is served only when the envelope's
format version matches, its recorded key matches the file's name, the
checksum matches the canonical JSON of the payload, *and* the payload
survives structural validation.  Any failure counts as ``invalid``, the
file is deleted, and the entry is recomputed — a corrupted or stale
store can cost time, never correctness.

Writes go through a temp file and ``os.replace`` so a crashed run leaves
either the old entry or the new one, never a torn file.

The store is safe to share between processes: several extraction
daemons can read and write one directory concurrently, as can several
``ace-extract --cache`` runs.  Reads are lock-free: a
reader either sees a complete old entry or a complete new one (atomic
replace), and a file deleted out from under a reader is just a miss.
Budgets make the shared store self-limiting: ``max_entries`` /
``max_bytes`` evict the least-recently-used entries (recency is the
file mtime, refreshed on every hit), and ``ttl_seconds`` expires
entries left unread that long: the TTL reads the same mtime, so it
counts idle time, and an entry hit at least once per TTL never expires.
Entries are content-addressed and never go stale, so an idle timeout
is the useful policy.  Eviction races between processes are benign — an
unlink that loses the race is a no-op.

:class:`JsonEnvelopeStore` is the generic layer (the extraction service
builds its result cache on it); :class:`FragmentCache` specializes it to
primitive HEXT fragments, which is why fragment envelopes carry the
payload under the historical ``"fragment"`` field.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from ..hext.fragment import Fragment
from .serialize import (
    FORMAT_VERSION,
    SerializationError,
    canonical_json,
    envelope_text,
    fragment_from_payload,
    fragment_payload,
)


@dataclass
class CacheStats:
    """Lookup accounting for one cache instance."""

    hits: int = 0
    misses: int = 0
    invalid: int = 0  #: entries rejected (corrupt, stale, or malformed)
    stores: int = 0
    expired: int = 0  #: entries dropped because their TTL passed
    evicted: int = 0  #: entries dropped to stay inside the budgets

    @property
    def hit_rate(self) -> float:
        looked_up = self.hits + self.misses
        return self.hits / looked_up if looked_up else 0.0


class JsonEnvelopeStore:
    """Content-addressed store of JSON payloads across runs.

    Subclasses pin the envelope ``format_version`` (bump it to shed every
    older entry on the next lookup), may rename the payload field for
    compatibility (``payload_field``), and hook structural validation via
    :meth:`validate_payload`.
    """

    format_version: int = 1
    payload_field: str = "payload"

    def __init__(
        self,
        root: "str | os.PathLike",
        *,
        max_entries: "int | None" = None,
        max_bytes: "int | None" = None,
        ttl_seconds: "float | None" = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0, got {ttl_seconds}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.ttl_seconds = ttl_seconds
        self.stats = CacheStats()

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def validate_payload(self, payload: dict) -> None:
        """Reject malformed payloads by raising SerializationError."""

    def get_payload(self, key: str) -> "dict | None":
        """The validated payload for ``key``, or None (miss or rejected)."""
        path = self.path_for(key)
        try:
            if self.ttl_seconds is not None:
                age = time.time() - path.stat().st_mtime
                if age > self.ttl_seconds:
                    self.stats.expired += 1
                    self.stats.misses += 1
                    try:
                        os.remove(path)
                    except OSError:
                        pass
                    return None
            with open(path, "r", encoding="utf-8") as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return self._reject(path)
        try:
            payload = self._validate(key, envelope)
        except SerializationError:
            return self._reject(path)
        self.stats.hits += 1
        # Refresh recency so LRU eviction (here or in a sibling process
        # sharing the directory) spares the hot set.  Best effort: a
        # concurrent eviction racing the touch is just a future miss.
        try:
            os.utime(path)
        except OSError:
            pass
        return payload

    def put_payload(self, key: str, payload: dict) -> None:
        """Store a JSON payload under ``key`` (atomic replace)."""
        body = canonical_json(payload)
        text = envelope_text(
            {
                "format": self.format_version,
                "key": key,
                "checksum": hashlib.sha256(body.encode()).hexdigest(),
            },
            self.payload_field,
            body,
        )
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
        self.stats.stores += 1
        if self.max_entries is not None or self.max_bytes is not None:
            self.enforce_budget(keep=key)

    def _validate(self, key: str, envelope: dict) -> dict:
        if not isinstance(envelope, dict):
            raise SerializationError("envelope is not an object")
        if envelope.get("format") != self.format_version:
            raise SerializationError(
                f"stale cache format {envelope.get('format')!r}"
            )
        if envelope.get("key") != key:
            raise SerializationError("envelope key does not match file name")
        payload = envelope.get(self.payload_field)
        if not isinstance(payload, dict):
            raise SerializationError("missing payload")
        checksum = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
        if envelope.get("checksum") != checksum:
            raise SerializationError("payload checksum mismatch")
        self.validate_payload(payload)
        return payload

    def _reject(self, path: Path) -> None:
        self.stats.invalid += 1
        try:
            os.remove(path)
        except OSError:
            pass
        return None

    # -- maintenance -----------------------------------------------------

    def entries(self) -> "Iterator[tuple[str, Path, os.stat_result]]":
        """Every live ``(key, path, stat)``, racing deletions tolerated."""
        for path in self.root.glob("??/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue  # evicted by a sibling process mid-scan
            yield path.stem, path, stat

    def enforce_budget(self, *, keep: "str | None" = None) -> int:
        """Expire by TTL and evict LRU-first down to the budgets.

        Returns the number of entries removed.  ``keep`` shields one key
        (the entry just written) from eviction even if budgets are so
        tight it would otherwise be the victim.  Runs after every put
        when a budget is set; safe to call concurrently from several
        processes — losing an unlink race simply means a sibling evicted
        the entry first.
        """
        ranked = sorted(self.entries(), key=lambda e: e[2].st_mtime)
        removed = 0
        survivors: "list[tuple[str, Path, os.stat_result]]" = []
        now = time.time()
        for key, path, stat in ranked:
            if (
                self.ttl_seconds is not None
                and now - stat.st_mtime > self.ttl_seconds
                and key != keep
            ):
                if self._evict(path):
                    self.stats.expired += 1
                    removed += 1
                continue
            survivors.append((key, path, stat))
        alive = len(survivors)
        total_bytes = sum(stat.st_size for _, _, stat in survivors)

        def over_budget() -> bool:
            if self.max_entries is not None and alive > self.max_entries:
                return True
            return self.max_bytes is not None and total_bytes > self.max_bytes

        for key, path, stat in survivors:  # oldest mtime first
            if not over_budget():
                break
            if key == keep:
                continue  # never evict the entry just written
            if self._evict(path):
                self.stats.evicted += 1
                removed += 1
            alive -= 1
            total_bytes -= stat.st_size
        return removed

    @staticmethod
    def _evict(path: Path) -> bool:
        try:
            os.remove(path)
            return True
        except OSError:
            return False

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("??/*.json"):
            try:
                os.remove(path)
                removed += 1
            except OSError:
                pass
        return removed


class FragmentCache(JsonEnvelopeStore):
    """Content-addressed store of primitive fragments across runs."""

    format_version = FORMAT_VERSION
    payload_field = "fragment"

    def validate_payload(self, payload: dict) -> None:
        fragment_from_payload(payload)

    def get(self, key: str) -> "Fragment | None":
        """The cached fragment for ``key``, or None (miss or rejected)."""
        payload = self.get_payload(key)
        if payload is None:
            return None
        return fragment_from_payload(payload)

    def put(self, key: str, fragment: Fragment, payload: "dict | None" = None) -> None:
        """Store a primitive fragment under ``key`` (atomic replace)."""
        payload = fragment_payload(fragment) if payload is None else payload
        self.put_payload(key, payload)
