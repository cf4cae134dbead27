"""Result-cache keying and the memory-over-disk store."""

import json

from repro.service.cache import ResultCache, payload_digest, result_cache_key
from repro.service.jobs import JobOptions


def _options(**payload) -> JobOptions:
    return JobOptions.from_payload(payload or None)


def _result(text: str = "(DefPart ...)") -> dict:
    return {"wirelist": text, "diagnostics": []}


class TestKeying:
    def test_payload_digest_is_content_addressed(self):
        assert payload_digest("(C);") == payload_digest("(C);")
        assert payload_digest("(C);") != payload_digest("(C); ")
        assert len(payload_digest("")) == 64

    def test_execution_knobs_do_not_change_the_key(self):
        digest = payload_digest("(C);")
        serial = result_cache_key(digest, _options(name="a.cif"))
        bounded = result_cache_key(
            digest, _options(name="a.cif", timeout=5)
        )
        assert serial == bounded

    def test_result_affecting_options_change_the_key(self):
        digest = payload_digest("(C);")
        base = result_cache_key(digest, _options())
        for payload in (
            {"name": "other.cif"},
            {"lambda": 300},
            {"hext": True},
            {"lint": True},
            {"keep_geometry": True},
        ):
            assert result_cache_key(digest, _options(**payload)) != base

    def test_different_payloads_never_collide(self):
        options = _options()
        assert result_cache_key(
            payload_digest("(C);"), options
        ) != result_cache_key(payload_digest("(E);"), options)


class TestMemoryLayer:
    def test_hit_miss_store_accounting(self):
        cache = ResultCache()
        key = "k" * 64
        assert cache.get(key) is None
        cache.put(key, _result())
        assert cache.get(key)["wirelist"] == "(DefPart ...)"
        snap = cache.stats_snapshot()
        assert snap == {
            "hits": 1,
            "misses": 1,
            "stores": 1,
            "memory_entries": 1,
            "persistent": False,
        }

    def test_lru_eviction(self):
        cache = ResultCache(memory_entries=2)
        cache.put("a" * 64, _result("A"))
        cache.put("b" * 64, _result("B"))
        cache.get("a" * 64)  # refresh A: B is now least recent
        cache.put("c" * 64, _result("C"))
        assert cache.get("a" * 64) is not None
        assert cache.get("c" * 64) is not None
        assert cache.get("b" * 64) is None  # evicted


class TestDiskLayer:
    def test_survives_a_new_instance(self, tmp_path):
        key = "f" * 64
        first = ResultCache(tmp_path / "results")
        first.put(key, _result("persisted"))

        second = ResultCache(tmp_path / "results")
        assert second.get(key)["wirelist"] == "persisted"
        # The disk hit was promoted into memory: no disk read next time.
        disk_hits = second._disk.stats.hits
        assert second.get(key)["wirelist"] == "persisted"
        assert second._disk.stats.hits == disk_hits

    def test_corrupted_entry_is_a_miss(self, tmp_path):
        key = "e" * 64
        cache = ResultCache(tmp_path / "results")
        cache.put(key, _result())
        path = cache._disk.path_for(key)
        envelope = json.loads(path.read_text())
        envelope["result"]["wirelist"] = "tampered"
        path.write_text(json.dumps(envelope))

        fresh = ResultCache(tmp_path / "results")
        assert fresh.get(key) is None  # checksum mismatch: rejected
        assert fresh._disk.stats.invalid == 1

    def test_garbage_file_is_a_miss(self, tmp_path):
        key = "d" * 64
        cache = ResultCache(tmp_path / "results")
        cache.put(key, _result())
        cache._disk.path_for(key).write_text("not json {")

        fresh = ResultCache(tmp_path / "results")
        assert fresh.get(key) is None
        assert fresh._disk.stats.invalid == 1
