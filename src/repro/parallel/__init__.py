"""The persistent fragment cache for HEXT's execute phase.

HEXT's memo table extracts each unique window once per run; the
fragment cache extends that across runs.  :mod:`repro.parallel.cache`
persists extracted primitive fragments on disk, keyed by a content hash
of the window's normalized geometry plus the technology and fracture
resolution, so repeated runs over unchanged windows (the
design-iteration workflow) skip extraction entirely.

Fragments move through the versioned serialization format in
:mod:`repro.parallel.serialize`.  A primitive window is extracted from
the same canonical, window-relative form its key hashes, so a cached
fragment is byte for byte the fragment extraction would produce, and
cold and warm runs write the same wirelist.

The package keeps its historical name; nothing in it runs concurrently.
"""

from .cache import CacheStats, FragmentCache, JsonEnvelopeStore
from .serialize import (
    FORMAT_VERSION,
    SerializationError,
    content_payload,
    fragment_from_payload,
    fragment_payload,
    technology_fingerprint,
    window_cache_key,
)

__all__ = [
    "CacheStats",
    "FORMAT_VERSION",
    "FragmentCache",
    "JsonEnvelopeStore",
    "SerializationError",
    "content_payload",
    "fragment_from_payload",
    "fragment_payload",
    "technology_fingerprint",
    "window_cache_key",
]
