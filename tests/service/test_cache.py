"""Result cache: LRU bounds, clearing, counters."""

from __future__ import annotations

import pytest

from repro.service.cache import ResultCache


class TestBasics:
    def test_get_put_roundtrip(self):
        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", {"answer": 42})
        assert cache.get("k") == {"answer": 42}
        assert "k" in cache
        assert len(cache) == 1

    def test_put_replaces(self):
        cache = ResultCache()
        cache.put("k", {"v": 1})
        cache.put("k", {"v": 2})
        assert cache.get("k") == {"v": 2}
        assert len(cache) == 1

    def test_entries_are_stored_text(self):
        """What put was given and what get returns alias nothing kept."""
        cache = ResultCache()
        payload = {"v": [1]}
        cache.put("k", payload)
        payload["v"].append(2)
        cache.get("k")["v"].append(3)
        assert cache.get("k") == {"v": [1]}
        assert cache.stats().bytes == len('{"v":[1]}')

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
        with pytest.raises(ValueError):
            ResultCache(max_bytes=0)


class TestLRU:
    def test_entry_bound_evicts_least_recent(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        cache.get("a")            # refresh a: b is now LRU
        cache.put("c", {"v": 3})
        assert cache.get("a") is not None
        assert cache.get("b") is None
        assert cache.get("c") is not None
        assert cache.stats().evictions == 1

    def test_byte_bound_evicts(self):
        cache = ResultCache(max_entries=100, max_bytes=25)
        payload = {"v": "xx"}     # stored as '{"v":"xx"}', 10 bytes
        cache.put("a", payload)
        cache.put("b", payload)
        cache.put("c", payload)   # 30 bytes > 25: "a" goes
        assert cache.get("a") is None
        assert cache.get("b") is not None
        assert cache.stats().bytes == 20

    def test_oversized_payload_never_sticks(self):
        cache = ResultCache(max_bytes=50)
        cache.put("big", {"v": "x" * 92})   # 100 bytes encoded
        assert cache.get("big") is None
        assert len(cache) == 0

    def test_contains_does_not_touch_lru_or_counters(self):
        cache = ResultCache(max_entries=2)
        cache.put("a", {})
        cache.put("b", {})
        assert "a" in cache       # must NOT refresh "a"
        cache.put("c", {})        # evicts "a" (still LRU)
        assert cache.get("a") is None
        stats = cache.stats()
        assert stats.hits == 0 and stats.misses == 1


class TestStats:
    def test_hit_rate(self):
        cache = ResultCache()
        cache.put("k", {})
        cache.get("k")
        cache.get("k")
        cache.get("missing")
        stats = cache.stats()
        assert stats.hits == 2 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.as_dict()["hit_rate"] == pytest.approx(2 / 3)

    def test_explicit_invalidate_and_clear(self):
        cache = ResultCache()
        cache.put("a", {})
        cache.put("b", {})
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.clear() == 0
        assert cache.stats().invalidations == 2
        assert cache.stats().bytes == 0
