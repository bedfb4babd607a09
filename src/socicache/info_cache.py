"""Per-peer "current" cache: fixed-validity entries evicted least recently
used first.

The cache is a plain dict whose insertion order is the recency order:
a hit pops its entry and re-inserts it at the end, so the LRU victim is
the first key.  An entry is the tick its key was inserted at; no output
reads more of a cached reply, so the cache holds no content.
"""
from __future__ import annotations

from .model import SimTime, StorageKey


class CurrentCache:
    """Bounded map of key -> insertion tick with per-entry time-to-live and
    LRU replacement.  ``lookup`` returns the tick on a hit (tick 0 is one).

    The recency order is the dict's insertion order: most recently used
    entries sit at the end, the LRU victim at the front.
    """

    __slots__ = ("capacity", "ttl", "entries")

    def __init__(self, capacity: int, ttl: SimTime):
        self.capacity = capacity
        self.ttl = ttl
        self.entries: dict[StorageKey, SimTime] = {}

    def lookup(self, key: StorageKey, now: SimTime) -> SimTime | None:
        entries = self.entries
        inserted_at = entries.pop(key, None)
        if inserted_at is None:
            return None
        if now - inserted_at >= self.ttl:
            # Validity is exclusive: an entry of age == ttl is expired;
            # expired entries stay dropped and count as misses.
            return None
        entries[key] = inserted_at
        return inserted_at

    def insert(self, key: StorageKey, now: SimTime) -> StorageKey | None:
        """Store ``key`` at tick ``now``, returning the evicted key if
        capacity was hit.  Re-inserting a present key replaces it (fresh
        validity, most-recent position); the size does not grow, so it
        never evicts."""
        entries = self.entries
        entries.pop(key, None)
        entries[key] = now
        if len(entries) > self.capacity:
            victim = next(iter(entries))
            del entries[victim]
            return victim
        return None
