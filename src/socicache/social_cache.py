"""Social cache: interaction tracking, subscription selection and push-based
update dissemination.

Each peer tracks its outgoing interactions in a most-used-contacts (MUC)
list, ranks the tracked users with one of three strategies (random, trend,
social score) and maintains a bounded set of update channels.  Subscribed
peers push content changes, so the two-layer store here stays consistent
without overlay lookups.  The social score is ``alpha * tie strength + beta *
medium interaction length`` (``SocialCache.social_score``).
"""
from __future__ import annotations

import enum
import math
import random
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple

from .metrics import Counters
from .model import (ConfigError, ContentObject, InteractionKind, SimTime, StorageKey, UserId,
                    typecode)
from .overlay import MessageEnvelope, MessageKind

DUNBAR_MUC_LIMIT = 150
DEFAULT_CHANNEL_LIMIT = 15

# Relative widening of every float bound in the selection certificate
# (``SocialCache._certify``).  It is far above the rounding error of the few
# float operations behind a score, so a skipped round is sound in floating
# point, not only in real numbers.
_STABLE_MARGIN = 1e-9


def _tick(crossing: float) -> float:
    """The first whole tick at or after ``crossing``."""
    return crossing if crossing == math.inf else math.ceil(crossing)


# What own content and a channel's section are: versions indexed by slot, 0
# where none is held.  A ``bytearray`` until a version past 255 arrives.
Versions = bytearray | array


def _widened(section: Versions, slot: int, version: int) -> array:
    """A copy of ``section`` in the narrowest array that holds ``version``,
    stored at ``slot``: the store that ``section`` itself refused."""
    wide = array(typecode(version), iter(section))  # not a bytearray's raw bytes
    wide[slot] = version
    return wide


class _Certificate(NamedTuple):
    """What ``run_selection`` re-checks each user tracked since against, with
    the cache's fixed weights; ``SocialCache._certify`` reads it off a sorted
    ranking."""

    cap: int  # the largest total event count covered
    until: float  # the first tick not covered
    above: float  # a tracked channel's falling score must exceed this
    below: float  # a tracked unchosen score, widened, must not exceed this
    tracked: set[UserId]  # the users tracked since, which ``track`` adds


class CapExceededError(ValueError):
    """Operation would push a bounded structure past its limit."""


class Strategy(enum.Enum):
    RANDOM = "random"
    TREND = "trend"
    SOCIAL_SCORE = "social_score"


class SelectionTrigger(enum.Enum):
    TIME_BASED = "time"
    LOOKUP_COUNT_BASED = "lookup_count"


# Enum members read per event, message or round, bound once: on CPython 3.11
# ``Enum.MEMBER`` costs more than ten times a module global.
_LOOKUP, _LOOKUP_COUNT_BASED = InteractionKind.LOOKUP, SelectionTrigger.LOOKUP_COUNT_BASED
_RANDOM, _TREND, _SOCIAL_SCORE = Strategy.RANDOM, Strategy.TREND, Strategy.SOCIAL_SCORE
_SUBSCRIBE, _UNSUBSCRIBE = MessageKind.SUBSCRIBE, MessageKind.UNSUBSCRIBE
_SOCIAL_UPDATE, _BOOTSTRAP_DUMP = MessageKind.SOCIAL_UPDATE, MessageKind.BOOTSTRAP_DUMP


@dataclass(frozen=True)
class StrategyConfig:
    """Tunables for subscription selection.

    ``n`` bounds the parallel update channels, ``m`` is the tracked-lookup
    count that fires selection under the lookup-count trigger, and
    ``update_interval`` paces the time-based trigger.  Tie strength weighs
    a tracked lookup ``lookup_weight`` and a friend request
    ``friend_request_weight``.  Frozen, as caches read it for a whole run:
    change it with ``dataclasses.replace``.
    """

    kind: Strategy = Strategy.SOCIAL_SCORE
    alpha: float = 0.9
    beta: float = 0.1
    lookup_weight: float = 1.0
    friend_request_weight: float = 1.0
    n: int = DEFAULT_CHANNEL_LIMIT
    m: int = 150
    update_interval: SimTime = 50_000
    trigger: SelectionTrigger = SelectionTrigger.TIME_BASED

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigError("channel limit n must be positive", ("n",))
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("alpha and beta must be non-negative", ("alpha", "beta"))
        if self.kind is Strategy.SOCIAL_SCORE and self.alpha + self.beta <= 0:
            raise ConfigError("alpha + beta must be positive for social score",
                              ("kind", "alpha", "beta"))
        if self.trigger is SelectionTrigger.LOOKUP_COUNT_BASED and not self.n < self.m:
            raise ConfigError("lookup-count trigger requires n < m", ("trigger", "n", "m"))
        if self.lookup_weight < 0 or self.friend_request_weight < 0:
            raise ConfigError("interaction weights must be non-negative",
                              ("lookup_weight", "friend_request_weight"))
        if self.update_interval < 1:
            raise ConfigError("update_interval must be positive", ("update_interval",))


class MucEntry:
    """Per-user interaction aggregates: event and lookup counts, weighted
    event volume, and first and last event time.  The mean gap between
    successive events is derived from them where a score is computed
    (``SocialCache._score_keys``), not stored.
    """

    __slots__ = ("event_count", "lookup_count", "weighted", "first_at", "last_at")

    def __init__(self, first_at: SimTime = 0):
        self.event_count = 0
        self.lookup_count = 0
        self.weighted = 0.0
        self.first_at = first_at
        self.last_at: SimTime = 0


class MucList(dict):
    """Bounded registry of tracked interactions: user -> ``MucEntry``.

    ``total_events`` is the sum of every entry's ``event_count``;
    ``SocialCache.track`` adds to it, ``remove`` and ``clear`` take away."""

    __slots__ = ("max_users", "total_events")

    def __init__(self, max_users: int = DUNBAR_MUC_LIMIT):
        super().__init__()
        self.max_users = max_users
        self.total_events = 0

    def remove(self, user: UserId) -> None:
        entry = self.pop(user, None)
        if entry is not None:
            self.total_events -= entry.event_count

    def clear(self) -> None:
        super().clear()
        self.total_events = 0


class SubscriptionDiff(NamedTuple):
    to_subscribe: tuple[UserId, ...]
    to_unsubscribe: tuple[UserId, ...]


# The diff of every selection that changes nothing; the value is immutable.
NO_CHANGE = SubscriptionDiff((), ())


class SocialCache:
    """Per-peer social caching engine.

    Wired to the rest of the stack through a single ``dispatch(env,
    recipient)`` callable.  Each send builds one envelope and dispatches it
    to its recipients: one for subscription traffic, every receiver for a
    publish.  The owning peer routes incoming envelopes to the ``on_*``
    handlers.  ``channels`` maps each subscribed user, in subscription
    order and at most ``cfg.n``, to its section: the latest pushed or dumped
    version number of each of that user's items, empty until the first dump
    or update arrives.  Only ``_subscribe`` and ``_unsubscribe`` add or
    drop a channel, called from ``track`` and ``run_selection``, and each
    sends its message at once.  So u holds v as a channel exactly when v
    lists u in ``receivers``, and the ``on_*`` handlers assume that pairing:
    a message that breaks it raises ``KeyError``, except a repeated
    subscribe, whose second non-empty dump ``verify_consistency`` reports as
    a double count (``verify_subscription_symmetry`` checks the pairing).
    ``own`` holds the latest version number of every item the peer itself
    published, and ``store_items`` counts the items of every section.  The
    overlay keeps the ``ContentObject`` records; these stores keep only
    their versions (``Versions``), indexed by a key's slot, its index in its
    owner's publish order, recorded in the run's shared ``slot_of`` map.
    Versions start at 1, so 0 marks a slot not held: only a section that
    began without a dump holds 0, at the slots it skipped.  A store past a
    container's width swaps in a wider copy (``_widened``).

    A selection round asks ``stable_until`` whether it can change anything.
    ``cfg`` is frozen and validated here, so no weight changes under a score
    or a certificate; ``Simulation`` builds each peer's cache.
    """

    __slots__ = ("owner", "cfg", "dispatch", "counters", "slot_of", "bootstrapping", "muc",
                 "channels", "receivers", "store_items", "own", "_rng",
                 "_lookups_since_selection", "stable_until", "_cert")

    def __init__(
        self,
        owner: UserId,
        cfg: StrategyConfig,
        dispatch: Callable[[MessageEnvelope, UserId], None],
        counters: Counters,
        slot_of: dict[StorageKey, int],
        *,
        bootstrapping: bool = True,
        muc_capacity: int = DUNBAR_MUC_LIMIT,
        seed: int = 0,
    ):
        cfg.validate()
        self.owner = owner
        self.cfg = cfg
        self.dispatch = dispatch
        self.counters = counters
        self.slot_of = slot_of
        self.bootstrapping = bootstrapping
        self.muc = MucList(muc_capacity)
        self.channels: dict[UserId, Versions] = {}
        # Users subscribed to this peer's update channel, in subscription order.
        self.receivers: dict[UserId, None] = {}
        self.store_items = 0
        self.own: Versions = bytearray()
        # The random strategy's generator, seeded by the scenario ``seed``;
        # only that strategy draws.
        self._rng = random.Random(f"{seed}/strategy/{owner}") if cfg.kind is _RANDOM else None
        self._lookups_since_selection = 0
        # The first tick at which ``run_selection`` may change anything,
        # provided nothing is tracked until then; ``math.inf`` if never.  A
        # selection round skips the peer before it.  Set here (never: empty
        # MUC list and channels), by ``track`` (due now, 0) and by
        # ``run_selection``, which ``track`` also runs under the lookup-count
        # trigger.
        self.stable_until: float = math.inf
        # The certificate ``_certify`` made (see ``run_selection``), None
        # while there is none.
        self._cert: _Certificate | None = None

    # -- scoring ---------------------------------------------------------

    def social_score(self, user: UserId, now: SimTime) -> float:
        """``alpha * tie + beta * spacing`` of a tracked user (``KeyError``
        if untracked), under every strategy: ``_score_keys`` of the user
        alone."""
        return -self._score_keys([(user, self.muc[user])], now)[0][0]

    def rank_users(self, now: SimTime) -> list[UserId]:
        """Tracked users, best first.

        Trend ranks by lookup count, social score by the combined score; the
        random strategy has no ranking of its own and falls back to lookup
        counts (used only for MUC eviction).  Ties break by ascending user
        name so rankings are reproducible.
        """
        return [key[1] for key in sorted(self._keys(self.muc.items(), now))]

    def _keys(self, tracked: Iterable[tuple[UserId, MucEntry]], now: SimTime) -> list[tuple]:
        """The ranking key of each (user, entry) pair of ``tracked``, best
        lowest: ``_score_keys`` for social score and ``(-lookup count,
        user)`` otherwise.  Names are unique, so ``(-score, user)`` decides
        every comparison and is a total order: ranking a subset keeps the
        subset's order in the full ranking."""
        if self.cfg.kind is not _SOCIAL_SCORE:
            return [(-float(e.lookup_count), u) for u, e in tracked]
        return self._score_keys(tracked, now)

    def _score_keys(self, tracked: Iterable[tuple[UserId, MucEntry]],
                    now: SimTime) -> list[tuple]:
        """``(-score, user, entry, spacing, gap)`` of each (user, entry) pair
        of ``tracked``; ``_certify`` reads the last three.  The score is
        ``alpha * tie + beta * spacing``.  The tie strength is the user's
        weighted event volume over the total event count.  The medium
        interaction length ``spacing`` is the mean gap between the user's
        events, ``last_at - first_at`` over the event count minus two (at
        least 1), over the time since the first one; a single event, or a
        first event now, gives 0.  ``run_selection``'s re-check repeats it.
        """
        alpha, beta = self.cfg.alpha, self.cfg.beta
        total = self.muc.total_events
        keys = []
        for user, entry in tracked:
            count = entry.event_count
            gap = (entry.last_at - entry.first_at) / (count - 2 if count > 2 else 1)
            elapsed = now - entry.first_at
            spacing = gap / elapsed if elapsed > 0 else 0.0
            score = alpha * (entry.weighted / total) + beta * spacing
            keys.append((-score, user, entry, spacing, gap))
        return keys

    # -- tracking and per-lookup strategy actions -------------------------

    def track(self, user: UserId, kind: InteractionKind, now: SimTime) -> None:
        """Record an interaction in the MUC list, in this frame as it runs per
        tracked event: a new user first evicts the lowest-ranked user from a
        full list.  A looked-up user that is not a channel is subscribed on
        first sight while fewer than ``n`` channels are held, under every
        strategy.  Full channels are left to ``run_selection``, except that
        random subscribes the user in place of a channel it draws at random,
        which also leaves the MUC list.  ``Peer`` never tracks its own user."""
        self.stable_until = 0
        cert = self._cert
        if cert is not None:
            cert.tracked.add(user)
        muc = self.muc
        entry = muc.get(user)
        if entry is None:
            if len(muc) >= muc.max_users:
                muc.remove(max(self._keys(muc.items(), now))[1])
                self._cert = None
            entry = muc[user] = MucEntry(now)
        entry.last_at = now
        entry.event_count += 1
        muc.total_events += 1
        cfg = self.cfg
        if kind is not _LOOKUP:
            entry.weighted += cfg.friend_request_weight
            return
        entry.weighted += cfg.lookup_weight
        entry.lookup_count += 1
        channels = self.channels
        if user not in channels:
            if len(channels) < cfg.n:
                self._subscribe(user)
            elif cfg.kind is _RANDOM:
                victim = list(channels)[self._rng.randrange(len(channels))]
                self._unsubscribe(victim)
                muc.remove(victim)
                self._subscribe(user)
        if cfg.trigger is _LOOKUP_COUNT_BASED:
            self._lookups_since_selection += 1
            if self._lookups_since_selection >= cfg.m:
                self._lookups_since_selection = 0
                self.run_selection(now)

    # -- interval selection ------------------------------------------------

    def run_selection(self, now: SimTime) -> SubscriptionDiff:
        """Pick the next channel set, send the changes to it and return
        them as a diff: first every unsubscribe, then every subscribe in
        ``to_subscribe`` order, each answered by a bootstrap dump when the
        sender bootstraps.

        The top ``n`` ranked users are selected, so a MUC list of at most
        ``n`` users is selected whole and only its unsubscribed users need
        ranking, for the order of ``to_subscribe``.  Trend clears the MUC
        list afterwards; social score keeps it.  The random strategy acts
        per lookup instead and changes nothing here.

        A selection of more than ``n`` users scores every tracked user once
        (``_keys``), sorts the keys and takes the first ``n``; a social-score
        one also reads the next certificate off that ranking (``_certify``).
        Before that, a social-score round re-checks only the users tracked
        since the last certificate: while they pass, the channels are still
        the top ``n`` and nothing is ranked.

        Sets the ``stable_until`` tick: never after a social-score
        selection of every tracked user or a trend round over an empty MUC
        list; ``_certify``'s tick after a social-score ranking, and the
        certificate's earliest crossing after a re-check that passes; now
        after a trend round that cleared a non-empty list, because the next
        round unsubscribes every channel.
        """
        cfg = self.cfg
        kind = cfg.kind
        if kind is _RANDOM:
            return NO_CHANGE
        muc = self.muc
        channels = self.channels
        cert = self._cert
        if cert is not None:
            cap, until, above, below, tracked = cert
            alpha, beta = cfg.alpha, cfg.beta
            total = muc.total_events
            if total <= cap and now < until:
                for user in tracked:
                    entry = muc[user]
                    count = entry.event_count
                    gap = (entry.last_at - entry.first_at) / (count - 2 if count > 2 else 1)
                    elapsed = now - entry.first_at
                    floor = alpha * (entry.weighted / total)
                    score = floor + beta * (gap / elapsed if elapsed > 0 else 0.0)
                    if user in channels:
                        if not gap or score <= above:
                            break
                        if floor < above:
                            crossing = entry.first_at + beta * gap / (above - floor)
                            if crossing < until:
                                until = math.ceil(crossing)
                    elif score + score * _STABLE_MARGIN > below:
                        break
                else:
                    self.stable_until = until
                    return NO_CHANGE
        self._cert = None
        self.stable_until = math.inf
        if len(muc) <= cfg.n:
            chosen = muc
            new = [(u, e) for u, e in muc.items() if u not in channels]
            to_subscribe = (tuple([key[1] for key in sorted(self._keys(new, now))])
                            if new else ())
            kept = len(muc) - len(new)
        else:
            ranking = sorted(self._keys(muc.items(), now))
            chosen = [key[1] for key in ranking[: cfg.n]]
            if kind is _SOCIAL_SCORE:
                self._certify(ranking, now)
            to_subscribe = tuple([u for u in chosen if u not in channels])
            kept = len(chosen) - len(to_subscribe)
        to_unsubscribe: tuple[UserId, ...] = ()
        if kept < len(channels):
            to_unsubscribe = tuple([u for u in channels if u not in chosen])
        if kind is _TREND and muc:
            muc.clear()
            self.stable_until = 0
        if not (to_subscribe or to_unsubscribe):
            return NO_CHANGE
        for user in to_unsubscribe:
            self._unsubscribe(user)
        for user in to_subscribe:
            self._subscribe(user)
        return SubscriptionDiff(to_subscribe, to_unsubscribe)

    def _certify(self, ranking: list[tuple], now: SimTime) -> None:
        """Set ``stable_until`` and, when it can, the certificate that
        ``run_selection`` re-checks after later tracks, for the sorted
        social-score ``ranking`` of ``_keys`` over the whole MUC list at
        ``now``.  Its first ``n`` users are chosen, and ``ranking[n]`` holds
        the best unchosen score.  Every score at ``(now, T)`` is read off its
        key; only the chord end at the cap below is evaluated, from the
        key's spacing.

        Until a track, the total event count ``T`` stays fixed and no score
        rises, so no unchosen user passes a constant chosen score (``gap ==
        0``).  ``stable_until`` is the first whole tick at which a chosen
        falling score (``gap > 0``) can reach the best unchosen score at
        ``T`` widened by ``_STABLE_MARGIN``, ``M'``: ``first_at + beta * gap
        / (M' - alpha * w / T)``.  It is ``now`` (no window) when that best
        score is 0 or a chosen score is within the margin of it.

        Scaled by ``T``, a score is ``alpha * w + beta * T * gap / (t -
        first_at)``: a track changes only the tracked user's terms and
        ``T``, and at a fixed tick a score is a line in ``x = 1 / T``.  So
        every unchosen user that is not tracked stays below the chord
        through the best unchosen scores at ``T`` and at the cap ``T +
        max(4, T // 32)``, and a chosen falling score above both widened
        ends stays above it until the earlier of its crossing ticks at ``T``
        and at the cap.  A constant score ``alpha * w / T`` is a line
        through the origin, and equal weights tie at every ``T`` in name
        order.  So a certificate also needs the lowest constant chosen
        weight a margin above the highest constant unchosen one, or equal to
        it with every other constant weight a margin away, and its score at
        the cap a margin above every falling unchosen score there.  A
        falling score's intercept ``beta * spacing`` is not negative, so the
        constant score then stays above it at every total from ``T`` to it.

        The certificate covers ticks before the earliest crossing and totals
        up to the cap.  A user tracked since must pass a direct check at the
        current ``(t, T)``: a channel needs a falling score above the widened
        best unchosen score at ``T``, which bounds the chord; an unchosen
        user a score whose widening is at most every chosen score over the
        range.
        """
        self.stable_until = now
        cfg = self.cfg
        n = cfg.n
        best = -ranking[n][0]
        if best <= 0:
            return
        alpha, beta = cfg.alpha, cfg.beta
        total = self.muc.total_events
        cap = total + max(4, total // 32)
        moving = []  # (entry, gap) of each chosen user with a falling score
        # Lowest constant chosen weight and the next weight up.
        low = low_next = math.inf
        for _, _, entry, _, gap in ranking[:n]:
            weighted = entry.weighted
            if gap:
                moving.append((entry, gap))
            elif weighted < low:
                low, low_next = weighted, low
            elif low < weighted < low_next:
                low_next = weighted
        # Best falling unchosen score at the cap, highest constant unchosen
        # weight and the next weight down.  No score or weight is
        # negative, so 0 stands for none.
        top_at_cap = high = high_next = 0.0
        for _, _, entry, spacing, gap in ranking[n:]:
            weighted = entry.weighted
            if gap:
                at_cap = alpha * (weighted / cap) + beta * spacing
                if at_cap > top_at_cap:
                    top_at_cap = at_cap
            elif weighted > high:
                high, high_next = weighted, high
            elif high > weighted > high_next:
                high_next = weighted
        margin = _STABLE_MARGIN
        above = best + best * margin
        best_at_cap = max(top_at_cap, alpha * (high / cap))
        above_at_cap = best_at_cap + best_at_cap * margin
        until = until_at_cap = math.inf
        for entry, gap in moving:
            floor = alpha * (entry.weighted / total)
            if floor < above:
                crossing = entry.first_at + beta * gap / (above - floor)
                if crossing < until:
                    until = crossing
            floor = alpha * (entry.weighted / cap)
            if floor < above_at_cap:
                crossing = entry.first_at + beta * gap / (above_at_cap - floor)
                if crossing < until_at_cap:
                    until_at_cap = crossing
        until = _tick(until)
        if until <= now:
            return
        self.stable_until = until
        until = min(until, _tick(until_at_cap))
        if until <= now:
            return
        below = above_at_cap
        if low < math.inf:  # constant channels
            if not (low > high + high * margin or (
                    low == high and low_next > high + high * margin
                    and high_next + high_next * margin < low)):
                return
            if alpha * (low / cap) <= top_at_cap + top_at_cap * margin:
                return
            below = min(below, alpha * (low / cap))
        self._cert = _Certificate(cap, until, above, below, set())

    def _subscribe(self, user: UserId) -> None:
        """Add a channel that is not one yet and send the subscribe."""
        channels = self.channels
        if len(channels) >= self.cfg.n:
            raise CapExceededError(f"channel limit {self.cfg.n} reached")
        channels[user] = bytearray()
        self.counters.subscriptions_sent += 1
        self.dispatch(MessageEnvelope(self.owner, _SUBSCRIBE, None), user)

    def _unsubscribe(self, user: UserId) -> None:
        """Drop a channel together with its section, so its cached items
        are purged at once."""
        section = self.channels.pop(user)
        self.store_items -= len(section) - section.count(0)
        self.counters.unsubscriptions_sent += 1
        self.dispatch(MessageEnvelope(self.owner, _UNSUBSCRIBE, None), user)

    # -- inbound message handling -----------------------------------------

    def on_subscribe_received(self, subscriber: UserId) -> None:
        """Register a new receiver and answer with a dump of the own-content
        store when bootstrapping is on."""
        self.receivers[subscriber] = None
        if self.bootstrapping:
            self.counters.bootstrap_dumps += 1
            self.dispatch(MessageEnvelope(self.owner, _BOOTSTRAP_DUMP, self.own[:]), subscriber)

    def on_unsubscribe_received(self, subscriber: UserId) -> None:
        """Drop a receiver; ``KeyError`` if ``subscriber`` is not one."""
        del self.receivers[subscriber]

    def on_social_update(self, sender: UserId, content: ContentObject) -> bool:
        """Store a pushed update's version at its key's slot in the sender's
        section, overwriting the older version of the same key, and pad a
        section that lacks the slots below it with 0: a section starts empty
        (``_subscribe``).  Returns ``True``; ``KeyError`` from a non-channel."""
        section = self.channels[sender]
        slot = self.slot_of[content.key]
        if slot >= len(section):
            section.extend(bytes(slot + 1 - len(section)))
        if not section[slot]:
            self.store_items += 1
        try:
            section[slot] = content.version
        except (ValueError, OverflowError):  # past the section's width
            self.channels[sender] = _widened(section, slot, content.version)
        return True

    def on_bootstrap(self, sender: UserId, items: Versions) -> int:
        """Store a bootstrap dump (a fresh copy of the sender's ``own``) whole
        as the sender's section; returns the number of items stored.  A dump
        answers this peer's own ``_subscribe`` to a user that was not a
        channel, and a section leaves with its channel (``_unsubscribe``), so
        the dump replaces the empty section ``_subscribe`` stored
        (``test_dumps_land_in_an_empty_section``).  ``KeyError`` from a
        non-channel."""
        if sender not in self.channels:
            raise KeyError(sender)
        self.channels[sender] = items
        self.store_items += len(items)
        return len(items)

    # -- content ------------------------------------------------------------

    def publish(self, content: ContentObject) -> None:
        """Keep the version of own content locally, at its key's slot (a new
        key takes the next one), and push the content as an update to every
        subscriber: one envelope, dispatched once per receiver.  The content
        is the owner's: ``Peer.add_content`` refuses another user's key."""
        key = content.key
        own = self.own
        slot = self.slot_of.setdefault(key, len(own))
        if slot == len(own):
            own.append(0)
        try:
            own[slot] = content.version
        except (ValueError, OverflowError):  # past own's width
            self.own = _widened(own, slot, content.version)
        if self.receivers:
            env = MessageEnvelope(self.owner, _SOCIAL_UPDATE, content)
            dispatch = self.dispatch
            for subscriber in self.receivers:
                dispatch(env, subscriber)

    def lookup(self, key: StorageKey) -> int | None:
        """The version held of ``key``, own content first, then the owner's
        channel section; ``None``, never 0, if none is held."""
        owner = key.owner
        section = self.own if owner == self.owner else self.channels.get(owner)
        if section is None:
            return None
        slot = self.slot_of.get(key)
        return None if slot is None or slot >= len(section) else section[slot] or None
