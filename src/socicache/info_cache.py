"""Per-peer "current" cache: fixed-validity entries evicted least recently
used first, plus the tier names a lookup can be answered from."""
from __future__ import annotations

import enum
from collections import OrderedDict
from typing import NamedTuple

from .model import ContentObject, SimTime, StorageKey


class CacheEntry(NamedTuple):
    content: ContentObject
    inserted_at: SimTime


class LookupSource(enum.Enum):
    SOCIAL_CACHE = "social_cache"
    CURRENT_CACHE = "current_cache"
    OVERLAY = "overlay"


class CurrentCache:
    """Bounded cache with per-entry time-to-live and LRU replacement.

    The recency order lives in the OrderedDict itself: most recently used
    entries sit at the end, the LRU victim at the front.
    """

    __slots__ = ("capacity", "ttl", "entries")

    def __init__(self, capacity: int = 1000, ttl: SimTime = 60_000):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if ttl < 1:
            raise ValueError("ttl must be positive")
        self.capacity = capacity
        self.ttl = ttl
        self.entries: OrderedDict[StorageKey, CacheEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, key: StorageKey, now: SimTime) -> ContentObject | None:
        entry = self.entries.get(key)
        if entry is None:
            return None
        if now - entry.inserted_at >= self.ttl:
            # Validity is exclusive: an entry of age == ttl is expired;
            # expired entries are dropped on access and count as misses.
            del self.entries[key]
            return None
        self.entries.move_to_end(key)
        return entry.content

    def insert(self, content: ContentObject, now: SimTime) -> StorageKey | None:
        """Store content, returning the evicted key if capacity was hit.

        Re-inserting a present key replaces it in place (fresh validity,
        most-recent position) and never evicts.
        """
        key = content.key
        if key in self.entries:
            self.entries[key] = CacheEntry(content, now)
            self.entries.move_to_end(key)
            return None
        self.entries[key] = CacheEntry(content, now)
        if len(self.entries) > self.capacity:
            victim, _ = self.entries.popitem(last=False)
            return victim
        return None
