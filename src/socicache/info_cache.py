"""Per-peer "current" cache: fixed-validity entries evicted least recently
used first.

The cache is a plain dict whose insertion order is the recency order:
a hit pops its entry and re-inserts it at the end, so the LRU victim is
the first key.  Entries are plain ``(content, inserted_at)`` tuples.
"""
from __future__ import annotations

from .model import ContentObject, SimTime, StorageKey


class CurrentCache:
    """Bounded cache with per-entry time-to-live and LRU replacement.

    The recency order is the dict's insertion order: most recently used
    entries sit at the end, the LRU victim at the front.
    """

    __slots__ = ("capacity", "ttl", "entries")

    def __init__(self, capacity: int, ttl: SimTime):
        self.capacity = capacity
        self.ttl = ttl
        self.entries: dict[StorageKey, tuple[ContentObject, SimTime]] = {}

    def lookup(self, key: StorageKey, now: SimTime) -> ContentObject | None:
        entries = self.entries
        entry = entries.pop(key, None)
        if entry is None:
            return None
        if now - entry[1] >= self.ttl:
            # Validity is exclusive: an entry of age == ttl is expired;
            # expired entries stay dropped and count as misses.
            return None
        entries[key] = entry
        return entry[0]

    def insert(self, content: ContentObject, now: SimTime) -> StorageKey | None:
        """Store content, returning the evicted key if capacity was hit.

        Re-inserting a present key replaces it (fresh validity,
        most-recent position); the size does not grow, so it never evicts.
        """
        key = content.key
        entries = self.entries
        entries.pop(key, None)
        entries[key] = (content, now)
        if len(entries) > self.capacity:
            victim = next(iter(entries))
            del entries[victim]
            return victim
        return None
