"""Content-addressed LRU result cache for solved placements.

The broker caches only proven answers (optimal or infeasible), and
those are pure functions of the request content digest
(:meth:`SolveRequest.cache_key`): a changed network is a new key, so
no entry can go stale.  The cache is a plain digest -> response-payload
map with two bounded resources:

* **entries** -- hard cap on the number of cached results (LRU);
* **bytes**   -- hard cap on the summed lengths of the stored payloads,
  so a few giant placements cannot squeeze out everything else.

Each payload is stored as its compact JSON encoding, not as the object
graph it was built from: a placement's text is several times smaller
than its dicts and lists, the byte bound counts exactly what is kept,
and every hit decodes a fresh copy no caller can alias.

The cache lives in memory only: a restarted daemon starts empty.
:meth:`clear` (the wire's ``invalidate``) drops every entry.

All operations are thread-safe and O(1) amortized; counters for
hits/misses/evictions/invalidations feed the service metrics registry.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["CacheStats", "ResultCache"]


@dataclass
class CacheStats:
    """Copy of the cache counters at one instant."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    entries: int = 0
    bytes: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries": self.entries,
            "bytes": self.bytes,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """digest -> result payload, LRU over entries and bytes.

    A payload is kept as its compact JSON text, whose length is what
    the byte bound counts; :meth:`get` decodes it.
    """

    def __init__(
        self,
        max_entries: int = 256,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, str]" = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0

    # ------------------------------------------------------------------
    # Core map operations
    # ------------------------------------------------------------------

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """A fresh decode of the cached payload, or ``None`` (counted as
        hit or miss)."""
        with self._lock:
            text = self._entries.get(digest)
            if text is None:
                self._misses += 1
                return None
            self._entries.move_to_end(digest)
            self._hits += 1
        return json.loads(text)

    def put(self, digest: str, payload: Dict[str, Any]) -> None:
        """Insert/replace; evicts LRU entries past either bound."""
        text = json.dumps(payload, separators=(",", ":"))
        with self._lock:
            old = self._entries.pop(digest, None)
            if old is not None:
                self._bytes -= len(old)
            self._entries[digest] = text
            self._bytes += len(text)
            while len(self._entries) > self.max_entries:
                self._evict_lru()
            if self.max_bytes is not None:
                # A payload bigger than the whole budget can never be
                # cached; the loop below would otherwise evict
                # everything *and* the new entry, which it does --
                # leaving the cache empty but correct.
                while self._bytes > self.max_bytes and self._entries:
                    self._evict_lru()

    def clear(self) -> int:
        """Drop every entry; returns how many there were."""
        with self._lock:
            dropped = len(self._entries)
            self._invalidations += dropped
            self._entries.clear()
            self._bytes = 0
            return dropped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        """Membership without touching LRU order or counters."""
        with self._lock:
            return digest in self._entries

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidations=self._invalidations,
                entries=len(self._entries),
                bytes=self._bytes,
            )

    # ------------------------------------------------------------------
    # Internals (callers hold the lock)
    # ------------------------------------------------------------------

    def _evict_lru(self) -> None:
        _digest, text = self._entries.popitem(last=False)
        self._bytes -= len(text)
        self._evictions += 1
