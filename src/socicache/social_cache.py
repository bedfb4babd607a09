"""Social cache: interaction tracking, subscription selection and push-based
update dissemination.

Each peer tracks its outgoing interactions in a most-used-contacts (MUC)
list, ranks the tracked users with one of three strategies (random, trend,
social score) and maintains a bounded set of update channels.  Subscribed
peers push content changes, so the two-layer store here stays consistent
without overlay lookups.  Ranking math:

* tie strength   -- weighted interaction volume with one user, normalised by
  the total number of tracked events,
* medium interaction length -- average gap between successive events with a
  user relative to the time since the first event,
* social score   -- ``alpha * tie_strength + beta * medium_interaction_length``.
"""
from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence

from .metrics import MetricsLedger
from .model import ContentObject, InteractionKind, SimTime, StorageKey, UserId
from .overlay import MessageKind

DUNBAR_MUC_LIMIT = 150
DEFAULT_CHANNEL_LIMIT = 15


class UnknownUserError(KeyError):
    """Score requested for a user that is not tracked."""


class InvalidWeightsError(ValueError):
    """Social-score weights that cannot rank anything (alpha + beta == 0)."""


class CapExceededError(ValueError):
    """Operation would push a bounded structure past its limit."""


class Strategy(enum.Enum):
    RANDOM = "random"
    TREND = "trend"
    SOCIAL_SCORE = "social_score"


class SelectionTrigger(enum.Enum):
    TIME_BASED = "time"
    LOOKUP_COUNT_BASED = "lookup_count"


def default_interaction_weights() -> dict[InteractionKind, float]:
    return {kind: 1.0 for kind in InteractionKind}


@dataclass
class StrategyConfig:
    """Tunables for subscription selection.

    ``n`` bounds the parallel update channels, ``m`` is the tracked-lookup
    count that fires selection under the lookup-count trigger, and
    ``update_interval`` paces the time-based trigger.
    """

    kind: Strategy = Strategy.SOCIAL_SCORE
    alpha: float = 0.9
    beta: float = 0.1
    interaction_weights: dict[InteractionKind, float] = field(
        default_factory=default_interaction_weights
    )
    n: int = DEFAULT_CHANNEL_LIMIT
    m: int = 150
    update_interval: SimTime = 50_000
    trigger: SelectionTrigger = SelectionTrigger.TIME_BASED
    rng_seed: int | None = None

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError("channel limit n must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise InvalidWeightsError("alpha and beta must be non-negative")
        if self.kind is Strategy.SOCIAL_SCORE and self.alpha + self.beta <= 0:
            raise InvalidWeightsError("alpha + beta must be positive for social score")
        if self.trigger is SelectionTrigger.LOOKUP_COUNT_BASED and not self.n < self.m:
            raise ValueError("lookup-count trigger requires n < m")
        if any(w < 0 for w in self.interaction_weights.values()):
            raise ValueError("interaction weights must be non-negative")
        if self.update_interval < 1:
            raise ValueError("update_interval must be positive")


class MucEntry:
    """Per-user interaction aggregates: event and lookup counts, weighted
    event volume, first and last event time."""

    __slots__ = ("user", "event_count", "lookup_count", "weighted", "first_at", "last_at")

    def __init__(self, user: UserId):
        self.user = user
        self.event_count = 0
        self.lookup_count = 0
        self.weighted = 0.0
        self.first_at: SimTime = 0
        self.last_at: SimTime = 0

    def append(self, kind: InteractionKind, at: SimTime, weight: float) -> None:
        if not self.event_count:
            self.first_at = at
        self.last_at = at
        self.event_count += 1
        if kind is InteractionKind.LOOKUP:
            self.lookup_count += 1
        self.weighted += weight


class MucList:
    """Bounded registry of tracked interactions, keyed by user.

    Weights are fixed per run, so each entry sums its weighted volume as
    events arrive; kinds missing from ``weights`` weigh 1.0.
    """

    def __init__(
        self,
        max_users: int = DUNBAR_MUC_LIMIT,
        weights: dict[InteractionKind, float] | None = None,
    ):
        if max_users < 1:
            raise ValueError("max_users must be positive")
        self.max_users = max_users
        self.weights = weights if weights is not None else {}
        self.entries: dict[UserId, MucEntry] = {}
        self.total_events = 0

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, user: UserId) -> bool:
        return user in self.entries

    def record(self, user: UserId, kind: InteractionKind, at: SimTime) -> None:
        entry = self.entries.get(user)
        if entry is None:
            if len(self.entries) >= self.max_users:
                raise CapExceededError("MUC list full; evict before recording")
            entry = MucEntry(user)
            self.entries[user] = entry
        entry.append(kind, at, self.weights.get(kind, 1.0))
        self.total_events += 1

    def remove(self, user: UserId) -> None:
        entry = self.entries.pop(user, None)
        if entry is not None:
            self.total_events -= entry.event_count

    def clear(self) -> None:
        self.entries.clear()
        self.total_events = 0

    def tie_strength(self, user: UserId) -> float:
        """Weighted event volume for one user over the total event count."""
        entry = self.entries.get(user)
        if entry is None:
            raise UnknownUserError(user)
        return entry.weighted / self.total_events

    def medium_interaction_length(self, user: UserId, now: SimTime) -> float:
        """Average gap between successive events, normalised by the time
        since the first event.

        The gap sum telescopes, so only the first/last timestamps and the
        event count are needed.  Degenerate histories (a single event, or a
        first event at the current instant) score 0.
        """
        entry = self.entries.get(user)
        if entry is None:
            raise UnknownUserError(user)
        count = entry.event_count
        if count < 2:
            return 0.0
        elapsed = now - entry.first_at
        if elapsed <= 0:
            return 0.0
        mean_gap = (entry.last_at - entry.first_at) / max(count - 2, 1)
        return mean_gap / elapsed


@dataclass(frozen=True, slots=True)
class SubscriptionDiff:
    to_subscribe: tuple[UserId, ...]
    to_unsubscribe: tuple[UserId, ...]

    @property
    def empty(self) -> bool:
        return not self.to_subscribe and not self.to_unsubscribe


class SubscriptionSet:
    """Insertion-ordered set of subscribed channels, capped at ``limit``."""

    def __init__(self, owner: UserId, limit: int = DEFAULT_CHANNEL_LIMIT):
        self.owner = owner
        self.limit = limit
        self._channels: dict[UserId, None] = {}

    def __len__(self) -> int:
        return len(self._channels)

    def __contains__(self, user: UserId) -> bool:
        return user in self._channels

    def __iter__(self) -> Iterator[UserId]:
        return iter(self._channels)

    def at(self, index: int) -> UserId:
        for i, user in enumerate(self._channels):
            if i == index:
                return user
        raise IndexError(index)

    def add(self, user: UserId) -> None:
        if user == self.owner:
            raise ValueError("a peer never subscribes to itself")
        if user in self._channels:
            return
        if len(self._channels) >= self.limit:
            raise CapExceededError(f"channel limit {self.limit} reached")
        self._channels[user] = None

    def remove(self, user: UserId) -> None:
        self._channels.pop(user, None)


class ReceiverList:
    """Users subscribed to this peer's update channel."""

    def __init__(self) -> None:
        self._subscribers: dict[UserId, None] = {}

    def __len__(self) -> int:
        return len(self._subscribers)

    def __contains__(self, user: UserId) -> bool:
        return user in self._subscribers

    def __iter__(self) -> Iterator[UserId]:
        return iter(self._subscribers)

    def add(self, user: UserId) -> bool:
        if user in self._subscribers:
            return False
        self._subscribers[user] = None
        return True

    def discard(self, user: UserId) -> None:
        self._subscribers.pop(user, None)


class SocialStore:
    """Two-layer cache: subscribed user -> storage key -> latest object."""

    def __init__(self) -> None:
        self.by_user: dict[UserId, dict[StorageKey, ContentObject]] = {}
        self.item_count = 0

    def store(self, user: UserId, content: ContentObject) -> None:
        section = self.by_user.setdefault(user, {})
        if content.key not in section:
            self.item_count += 1
        section[content.key] = content

    def get(self, user: UserId, key: StorageKey) -> ContentObject | None:
        section = self.by_user.get(user)
        if section is None:
            return None
        return section.get(key)

    def purge_user(self, user: UserId) -> None:
        section = self.by_user.pop(user, None)
        if section is not None:
            self.item_count -= len(section)

    def users(self) -> Iterator[UserId]:
        return iter(self.by_user)


class OwnContentStore:
    """Latest version of every item this peer itself published."""

    def __init__(self, owner: UserId):
        self.owner = owner
        self.items: dict[StorageKey, ContentObject] = {}

    def put(self, content: ContentObject) -> None:
        if content.author != self.owner:
            raise ValueError(f"{content.author!r} is not {self.owner!r}")
        self.items[content.key] = content

    def get(self, key: StorageKey) -> ContentObject | None:
        return self.items.get(key)

    def __len__(self) -> int:
        return len(self.items)


# Signature of the outbound message hook: (kind, recipient, payload, now).
SendFn = Callable[[MessageKind, UserId, Any, SimTime], None]


class SocialCache:
    """Per-peer social caching engine.

    Wired to the rest of the stack through a single ``send`` callable; the
    owning peer routes incoming envelopes to the ``on_*`` handlers.
    """

    def __init__(
        self,
        owner: UserId,
        cfg: StrategyConfig,
        send: SendFn,
        ledger: MetricsLedger | None = None,
        *,
        bootstrapping: bool = True,
        muc_capacity: int = DUNBAR_MUC_LIMIT,
        rng: random.Random | None = None,
    ):
        cfg.validate()
        self.owner = owner
        self.cfg = cfg
        self.send = send
        self.ledger = ledger if ledger is not None else MetricsLedger()
        self.bootstrapping = bootstrapping
        self.muc = MucList(muc_capacity, cfg.interaction_weights)
        self.channels = SubscriptionSet(owner, cfg.n)
        self.receivers = ReceiverList()
        self.store = SocialStore()
        self.own = OwnContentStore(owner)
        if rng is None:
            seed = cfg.rng_seed if cfg.rng_seed is not None else 0
            rng = random.Random(f"{seed}/random-strategy/{owner}")
        self.rng = rng
        self._lookups_since_selection = 0

    # -- scoring ---------------------------------------------------------

    def social_score(self, user: UserId, now: SimTime) -> float:
        if self.cfg.alpha + self.cfg.beta <= 0:
            raise InvalidWeightsError("alpha + beta must be positive")
        if user not in self.muc:
            raise UnknownUserError(user)
        tie = self.muc.tie_strength(user)
        spacing = self.muc.medium_interaction_length(user, now)
        return self.cfg.alpha * tie + self.cfg.beta * spacing

    def rank_users(self, now: SimTime) -> list[UserId]:
        """Tracked users, best first.

        Trend ranks by lookup count, social score by the combined score; the
        random strategy has no ranking of its own and falls back to lookup
        counts (used only for MUC eviction).  Ties break by ascending user
        name so rankings are reproducible.

        The social score is ``social_score`` inlined over every entry, with
        the same float operations in the same order, so both agree exactly.
        """
        entries = self.muc.entries
        if self.cfg.kind is Strategy.SOCIAL_SCORE:
            alpha, beta = self.cfg.alpha, self.cfg.beta
            if alpha + beta <= 0:
                raise InvalidWeightsError("alpha + beta must be positive")
            total = self.muc.total_events
            scored = []
            for user, entry in entries.items():
                count = entry.event_count
                spacing = 0.0
                if count >= 2:
                    first = entry.first_at
                    elapsed = now - first
                    if elapsed > 0:
                        gap = (entry.last_at - first) / (count - 2 if count > 2 else 1)
                        spacing = gap / elapsed
                scored.append((-(alpha * (entry.weighted / total) + beta * spacing), user))
        else:
            scored = [(-float(e.lookup_count), u) for u, e in entries.items()]
        scored.sort()
        return [user for _, user in scored]

    # -- tracking and per-lookup strategy actions -------------------------

    def track(self, user: UserId, kind: InteractionKind, now: SimTime) -> None:
        """Record an interaction; lookups additionally drive subscriptions."""
        if user == self.owner:
            raise ValueError("own interactions are not tracked")
        if user not in self.muc and len(self.muc) >= self.muc.max_users:
            self.muc.remove(self.rank_users(now)[-1])
        self.muc.record(user, kind, now)
        if kind is not InteractionKind.LOOKUP:
            return
        if self.cfg.kind is Strategy.RANDOM:
            if user not in self.channels:
                self._random_replace(user, now)
        elif user not in self.channels and len(self.channels) < self.cfg.n:
            self._subscribe(user, now)
        if self.cfg.trigger is SelectionTrigger.LOOKUP_COUNT_BASED:
            self._lookups_since_selection += 1
            if self._lookups_since_selection >= self.cfg.m:
                self._lookups_since_selection = 0
                self.apply_diff(self.run_selection(now), now)

    def _random_replace(self, user: UserId, now: SimTime) -> None:
        """Subscribe a newly seen user, randomly displacing a channel when
        full; the displaced user is also dropped from the MUC list."""
        if len(self.channels) < self.cfg.n:
            self._subscribe(user, now)
            return
        victim = self.channels.at(self.rng.randrange(len(self.channels)))
        self._unsubscribe(victim, now)
        self.muc.remove(victim)
        self._subscribe(user, now)

    # -- interval selection ------------------------------------------------

    def run_selection(self, now: SimTime) -> SubscriptionDiff:
        """Pick the next channel set and diff it against the current one.

        Trend clears the MUC list afterwards; social score keeps it.  The
        random strategy acts per lookup instead and returns an empty diff.
        """
        if self.cfg.kind is Strategy.RANDOM:
            return SubscriptionDiff((), ())
        selected = self.rank_users(now)[: self.cfg.n]
        chosen = set(selected)
        current = set(self.channels)
        to_subscribe = tuple(u for u in selected if u not in current)
        to_unsubscribe = tuple(u for u in self.channels if u not in chosen)
        if self.cfg.kind is Strategy.TREND:
            self.muc.clear()
        return SubscriptionDiff(to_subscribe, to_unsubscribe)

    def apply_diff(self, diff: SubscriptionDiff, now: SimTime) -> None:
        """Send the subscription changes; rejected whole if it would exceed
        the channel cap."""
        dropped = sum(1 for u in diff.to_unsubscribe if u in self.channels)
        added = sum(1 for u in diff.to_subscribe if u not in self.channels)
        if len(self.channels) - dropped + added > self.cfg.n:
            raise CapExceededError("diff would exceed the channel limit")
        for user in diff.to_unsubscribe:
            if user in self.channels:
                self._unsubscribe(user, now)
        for user in diff.to_subscribe:
            if user not in self.channels:
                self._subscribe(user, now)

    def on_update_interval(self, now: SimTime) -> None:
        if self.cfg.trigger is SelectionTrigger.TIME_BASED:
            self.apply_diff(self.run_selection(now), now)

    def _subscribe(self, user: UserId, now: SimTime) -> None:
        self.channels.add(user)
        self.ledger.subscriptions_sent += 1
        self.send(MessageKind.SUBSCRIBE, user, None, now)

    def _unsubscribe(self, user: UserId, now: SimTime) -> None:
        """Drop a channel and purge its cached items immediately, keeping
        the store's user set a subset of the channel set."""
        self.channels.remove(user)
        self.store.purge_user(user)
        self.ledger.unsubscriptions_sent += 1
        self.send(MessageKind.UNSUBSCRIBE, user, None, now)

    # -- inbound message handling -----------------------------------------

    def on_subscribe_received(self, subscriber: UserId, now: SimTime) -> None:
        """Register a subscriber; each new subscription is answered with a
        dump of the own-content store when bootstrapping is on."""
        if subscriber == self.owner:
            raise ValueError("cannot subscribe to self")
        if not self.receivers.add(subscriber):
            return
        if self.bootstrapping:
            snapshot = tuple(self.own.items.values())
            self.ledger.bootstrap_dumps += 1
            self.send(MessageKind.BOOTSTRAP_DUMP, subscriber, snapshot, now)

    def on_unsubscribe_received(self, subscriber: UserId) -> None:
        self.receivers.discard(subscriber)

    def on_social_update(self, sender: UserId, content: ContentObject) -> bool:
        """Store a pushed update, overwriting older content for the same key.
        Updates from non-subscribed users are ignored."""
        if sender not in self.channels:
            return False
        self.store.store(sender, content)
        return True

    def on_bootstrap(self, sender: UserId, items: Sequence[ContentObject]) -> int:
        """Insert a bootstrap dump; never clobbers newer pushed versions."""
        if sender not in self.channels:
            return 0
        accepted = 0
        for content in items:
            existing = self.store.get(sender, content.key)
            if existing is None or content.version >= existing.version:
                self.store.store(sender, content)
                accepted += 1
        return accepted

    # -- content ------------------------------------------------------------

    def publish(self, content: ContentObject, now: SimTime) -> None:
        """Keep own content locally and push an update to every subscriber."""
        self.own.put(content)
        for subscriber in self.receivers:
            self.send(MessageKind.SOCIAL_UPDATE, subscriber, content, now)

    def lookup(self, key: StorageKey) -> ContentObject | None:
        """Own-content store first, then the subscription store."""
        if key.owner == self.owner:
            return self.own.get(key)
        return self.store.get(key.owner, key)
