"""Run counters, sampled metrics and CSV export.

The headline number is the cache hit ratio: replies served from any cache
tier over all answered replies.  A ratio with a zero denominator is
*undefined* (``None``) and exported as an empty cell, never as 0.
"""
from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, fields
from operator import add, itemgetter
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .model import SimTime


def hit_ratio(cache_replies: int, total_replies: int) -> float | None:
    """Fraction of replies answered from cache; None when nothing was
    answered."""
    if total_replies <= 0:
        return None
    return cache_replies / total_replies


def responses_per_item(cache_replies: int, items: int) -> float | None:
    """Cache replies per cached item; None for an empty cache."""
    if items <= 0:
        return None
    return cache_replies / items


@dataclass(slots=True)
class Counters:
    """The counters of one run, and the only place they are defined: the
    simulation builds one and every layer bumps its fields directly."""

    social_hits: int = 0
    current_hits: int = 0
    overlay_replies: int = 0
    total_requests: int = 0
    subscriptions_sent: int = 0
    unsubscriptions_sent: int = 0
    bootstrap_dumps: int = 0
    dispatcher_messages: int = 0
    dht_lookups: int = 0
    dht_puts: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def cache_replies(self) -> int:
        return self.social_hits + self.current_hits

    @property
    def answered(self) -> int:
        return self.cache_replies + self.overlay_replies

    @property
    def unanswered(self) -> int:
        return self.total_requests - self.answered

    def validate(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"counter {f.name} is negative")
        if self.answered > self.total_requests:
            raise ValueError("answered replies exceed total requests")
        # A request that no cache answers asks the overlay exactly once.
        missed = self.total_requests - self.cache_replies
        if self.dht_lookups != missed:
            raise ValueError(f"overlay lookups {self.dht_lookups} != requests missed by "
                             f"every cache {missed}")


def cache_hit_ratio(counters: Counters) -> float | None:
    """Hit ratio over the internally consistent total (sum of the three
    answer sources)."""
    return hit_ratio(counters.cache_replies, counters.answered)


METRICS_COLUMNS = (
    "t_ticks",
    "social_hits",
    "current_hits",
    "overlay_replies",
    "total_requests",
    "hit_ratio",
    "social_cache_items",
    "current_cache_items",
    "muc_size_mean",
    "subscriptions_sent",
    "unsubscriptions_sent",
    "bootstrap_dumps",
    "dispatcher_messages",
    "dht_lookups",
    "dht_puts",
    "bytes_read",
    "bytes_written",
)

# ``hit_ratio`` can be undefined, so a ledger derives it when read.
_STORED_COLUMNS = tuple(name for name in METRICS_COLUMNS[1:] if name != "hit_ratio")
_stored_values = itemgetter(*_STORED_COLUMNS)

class MetricsLedger:
    """The sampled metrics of one run: the simulation records one row per
    sampling step.  A column is a typed array: 8 bytes a value, no object."""

    def __init__(self) -> None:
        self.series: dict[str, array] = {  # aligned with ``sample_times``
            name: array("d" if name == "muc_size_mean" else "q") for name in _STORED_COLUMNS}
        self.sample_times = array("q")

    def record_sample(self, now: SimTime, values: Mapping[str, object]) -> None:
        """Append one full row.  A missing column raises ``KeyError`` naming
        it, and a refused row leaves the ledger unchanged."""
        row = _stored_values(values)
        if len(values) != len(row):
            raise KeyError(f"unknown metric columns: {sorted(set(values) - set(self.series))}")
        if self.sample_times and now <= self.sample_times[-1]:
            raise ValueError("sample times must strictly increase")
        self.sample_times.append(now)
        for column, value in zip(self.series.values(), row):
            column.append(value)

    def rows(self) -> Iterator[tuple]:
        """The rows in ``METRICS_COLUMNS`` order; a row's ``hit_ratio`` is
        the float ``cache_hit_ratio`` gave at its sample."""
        s = self.series
        ratios = (hit_ratio(cache, cache + overlay) for cache, overlay
                  in zip(map(add, s["social_hits"], s["current_hits"]), s["overlay_replies"]))
        return zip(self.sample_times, *[ratios if name == "hit_ratio" else s[name]
                                        for name in METRICS_COLUMNS[1:]])

    def export_csv(self, path) -> None:
        export_rows_csv(path, METRICS_COLUMNS, self.rows())


def write_rows(handle: IO[str], columns: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """The one CSV writer: a header, then one line per row of values in
    column order.  None is an empty cell and a float has six decimals, so
    equal runs export equal bytes; anything else is ``str(value)``."""
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(["" if v is None else f"{v:.6f}" if type(v) is float else str(v)
                      for v in row] for row in rows)


def export_rows_csv(path, columns: Sequence[str], rows: Iterable[Sequence[object]]) -> None:
    """``write_rows`` into a new UTF-8 file at ``path``."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        write_rows(handle, columns, rows)
