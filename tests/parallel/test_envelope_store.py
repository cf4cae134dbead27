"""JsonEnvelopeStore budgets: eviction, TTL, and cross-process safety.

The daemon's disk result store is this class, and several daemons
may point it at one directory, so the properties under test here are
load-bearing for it: LRU eviction must spare the hot set, TTL must
expire idle entries (a hit restarts the clock), a just-written entry
must never be its own eviction victim, and two processes hammering one
directory must never observe a torn read (atomic ``os.replace`` +
full-envelope checksums).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.parallel.cache import JsonEnvelopeStore

REPO = Path(__file__).resolve().parents[2]


def key_for(i):
    return f"{i:02d}" + "ab" * 31  # 64 hex-ish chars, distinct prefixes


def payload_for(i, pad=0):
    return {"value": i, "pad": "x" * pad}


class TestBudgetValidation:
    def test_rejects_nonsense_budgets(self, tmp_path):
        with pytest.raises(ValueError):
            JsonEnvelopeStore(tmp_path, max_entries=0)
        with pytest.raises(ValueError):
            JsonEnvelopeStore(tmp_path, max_bytes=0)
        with pytest.raises(ValueError):
            JsonEnvelopeStore(tmp_path, ttl_seconds=0)

    def test_unbudgeted_store_never_evicts(self, tmp_path):
        store = JsonEnvelopeStore(tmp_path)
        for i in range(20):
            store.put_payload(key_for(i), payload_for(i))
        assert len(store) == 20
        assert store.stats.evicted == 0


class TestMaxEntries:
    def test_lru_eviction_keeps_newest(self, tmp_path):
        store = JsonEnvelopeStore(tmp_path, max_entries=3)
        for i in range(6):
            store.put_payload(key_for(i), payload_for(i))
            time.sleep(0.01)  # distinct mtimes
        assert len(store) == 3
        assert store.stats.evicted == 3
        for i in range(3):
            assert store.get_payload(key_for(i)) is None
        for i in range(3, 6):
            assert store.get_payload(key_for(i)) == payload_for(i)

    def test_hit_refreshes_recency(self, tmp_path):
        store = JsonEnvelopeStore(tmp_path, max_entries=2)
        store.put_payload(key_for(0), payload_for(0))
        time.sleep(0.01)
        store.put_payload(key_for(1), payload_for(1))
        time.sleep(0.01)
        # Touch key 0: it becomes the most recent of the two.
        assert store.get_payload(key_for(0)) == payload_for(0)
        time.sleep(0.01)
        store.put_payload(key_for(2), payload_for(2))
        # Key 1 (now the LRU) was evicted; the touched key 0 survives.
        assert store.get_payload(key_for(0)) == payload_for(0)
        assert store.get_payload(key_for(1)) is None

    def test_just_written_entry_is_never_the_victim(self, tmp_path):
        store = JsonEnvelopeStore(tmp_path, max_entries=1)
        for i in range(4):
            store.put_payload(key_for(i), payload_for(i))
            # The entry that was just put must always be readable,
            # even with the tightest possible budget.
            assert store.get_payload(key_for(i)) == payload_for(i)
        assert len(store) == 1


class TestMaxBytes:
    def test_size_budget_evicts_oldest_first(self, tmp_path):
        store = JsonEnvelopeStore(tmp_path)
        store.put_payload(key_for(0), payload_for(0, pad=2000))
        size = store.path_for(key_for(0)).stat().st_size
        budget = int(size * 2.5)  # room for two entries, not three
        store = JsonEnvelopeStore(tmp_path, max_bytes=budget)
        time.sleep(0.01)
        store.put_payload(key_for(1), payload_for(1, pad=2000))
        time.sleep(0.01)
        store.put_payload(key_for(2), payload_for(2, pad=2000))
        assert len(store) == 2
        assert store.get_payload(key_for(0)) is None
        assert store.get_payload(key_for(2)) == payload_for(2, pad=2000)


class TestTtl:
    def test_expired_entry_reads_as_miss_and_is_deleted(self, tmp_path):
        store = JsonEnvelopeStore(tmp_path, ttl_seconds=30.0)
        store.put_payload(key_for(0), payload_for(0))
        path = store.path_for(key_for(0))
        # Age the file far past the TTL.
        old = time.time() - 3600
        os.utime(path, (old, old))
        assert store.get_payload(key_for(0)) is None
        assert store.stats.expired == 1
        assert not path.exists()

    def test_hit_restarts_the_idle_clock(self, tmp_path):
        # The TTL counts idle time: a hit refreshes the mtime it reads.
        store = JsonEnvelopeStore(tmp_path, ttl_seconds=30.0)
        store.put_payload(key_for(0), payload_for(0))
        path = store.path_for(key_for(0))
        old = time.time() - 20
        os.utime(path, (old, old))
        assert store.get_payload(key_for(0)) == payload_for(0)
        assert time.time() - path.stat().st_mtime < 10
        assert store.stats.expired == 0

    def test_fresh_entry_survives_ttl(self, tmp_path):
        store = JsonEnvelopeStore(tmp_path, ttl_seconds=3600.0)
        store.put_payload(key_for(0), payload_for(0))
        assert store.get_payload(key_for(0)) == payload_for(0)

    def test_enforce_budget_sweeps_expired(self, tmp_path):
        store = JsonEnvelopeStore(tmp_path, ttl_seconds=30.0)
        for i in range(4):
            store.put_payload(key_for(i), payload_for(i))
        old = time.time() - 3600
        for i in range(2):
            os.utime(store.path_for(key_for(i)), (old, old))
        removed = store.enforce_budget()
        assert removed == 2
        assert len(store) == 2


class TestMaintenanceViews:
    def test_entries_tolerates_concurrent_deletion(self, tmp_path):
        store = JsonEnvelopeStore(tmp_path)
        for i in range(3):
            store.put_payload(key_for(i), payload_for(i))
        iterator = store.entries()
        first = next(iterator)
        # Delete the remaining files mid-iteration: no crash, and stat
        # failures are skipped rather than raised.
        store.clear()
        rest = list(iterator)
        assert first is not None
        assert all(isinstance(k, str) for k, _, _ in rest)


WRITER = r"""
import sys, time
sys.path.insert(0, sys.argv[1])
from repro.parallel.cache import JsonEnvelopeStore

store = JsonEnvelopeStore(sys.argv[2], max_entries=24)
deadline = time.monotonic() + float(sys.argv[4])
seq = 0
start = int(sys.argv[3])
while time.monotonic() < deadline:
    i = start + (seq % 32)
    key = f"{i:02d}" + "ab" * 31
    store.put_payload(key, {"value": i, "pad": "x" * 512})
    seq += 1
print(seq)
"""

READER = r"""
import sys, time
sys.path.insert(0, sys.argv[1])
from repro.parallel.cache import JsonEnvelopeStore

store = JsonEnvelopeStore(sys.argv[2], max_entries=24)
deadline = time.monotonic() + float(sys.argv[3])
reads = 0
while time.monotonic() < deadline:
    for i in range(64):
        key = f"{i:02d}" + "ab" * 31
        payload = store.get_payload(key)
        if payload is not None:
            # A torn or cross-contaminated read would fail here: the
            # envelope checksum guarantees value/pad arrived together.
            assert payload["value"] == i, (i, payload)
            assert payload["pad"] == "x" * 512
            reads += 1
print(reads, store.stats.invalid)
"""


def test_two_process_stress_no_torn_reads(tmp_path):
    """Two writers + one reader on one directory: every observed entry
    is complete and self-consistent, and nothing ever reads as invalid
    (atomic replace means there is no torn intermediate state)."""
    src = str(REPO / "src")
    store_dir = str(tmp_path / "shared")
    seconds = "2.0"
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", WRITER, src, store_dir, str(start), seconds],
            stdout=subprocess.PIPE,
            text=True,
        )
        for start in (0, 32)
    ]
    reader = subprocess.Popen(
        [sys.executable, "-c", READER, src, store_dir, seconds],
        stdout=subprocess.PIPE,
        text=True,
    )
    wrote = 0
    for proc in writers:
        out, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, out
        wrote += int(out.split()[0])
    out, _ = reader.communicate(timeout=60)
    assert reader.returncode == 0, out
    reads, invalid = (int(x) for x in out.split())
    assert wrote > 0
    assert reads > 0, "reader never observed a single entry"
    assert invalid == 0, f"{invalid} reads saw a torn/corrupt envelope"
    # Both writers enforced the same budget; the directory respects it.
    survivors = len(JsonEnvelopeStore(store_dir, max_entries=24))
    assert survivors <= 24


def test_corrupt_envelope_is_rejected_and_deleted(tmp_path):
    store = JsonEnvelopeStore(tmp_path)
    store.put_payload(key_for(0), payload_for(0))
    path = store.path_for(key_for(0))
    envelope = json.loads(path.read_text())
    envelope["payload"]["value"] = 999  # checksum now lies
    path.write_text(json.dumps(envelope))
    assert store.get_payload(key_for(0)) is None
    assert store.stats.invalid == 1
    assert not path.exists()


def test_stored_payload_text_is_the_canonical_body(tmp_path):
    from repro.parallel.serialize import canonical_json

    store = JsonEnvelopeStore(tmp_path)
    payload = {"zeta": [3, 1, 2], "alpha": {"b": 1, "a": "x"}, "n": None}
    store.put_payload(key_for(0), payload)
    text = store.path_for(key_for(0)).read_text()
    # The checksummed body is written verbatim, not re-encoded.
    assert text.endswith(f'"payload": {canonical_json(payload)}}}')
    assert json.loads(text)["payload"] == payload
    assert store.get_payload(key_for(0)) == payload
