"""Independent reference implementations used to cross-check production code.

These deliberately avoid the production data structures: the cache oracle
scans lists, the scoring oracles recompute from raw event lists.
"""
from __future__ import annotations

import math
import random
import tempfile
from bisect import bisect_left
from itertools import accumulate
from pathlib import Path

from socicache.model import InteractionKind, UserId
from socicache.social_cache import (
    _STABLE_MARGIN,
    CapExceededError,
    MucEntry,
    Strategy,
)
from socicache.workload import (
    FRIENDREQ,
    LOOKUP,
    POST,
    TICKS_PER_SECOND,
    ScenarioConfig,
    Trace,
    TraceEvent,
    build_friend_graph,
    load_trace,
    peer_names,
)


class ReferenceLruTtlCache:
    """Brute-force LRU+TTL cache: recency as an explicit list, linear scans."""

    def __init__(self, capacity: int, ttl: int):
        self.capacity = capacity
        self.ttl = ttl
        self.items: list[tuple[object, object, int]] = []  # (key, value, inserted_at), LRU first

    def _find(self, key):
        for i, (k, _, _) in enumerate(self.items):
            if k == key:
                return i
        return -1

    def lookup(self, key, now):
        i = self._find(key)
        if i < 0:
            return None
        k, value, inserted_at = self.items[i]
        if now - inserted_at >= self.ttl:
            del self.items[i]
            return None
        del self.items[i]
        self.items.append((k, value, inserted_at))
        return value

    def insert(self, key, value, now):
        """Returns the evicted key, if any."""
        i = self._find(key)
        if i >= 0:
            del self.items[i]
            self.items.append((key, value, now))
            return None
        self.items.append((key, value, now))
        if len(self.items) > self.capacity:
            victim, _, _ = self.items.pop(0)
            return victim
        return None


def direct_medium_interaction_length(timestamps: list[int], now: int) -> float:
    """Literal evaluation of the normalised mean-gap score: each gap divided
    by the gap-count-minus-one term, summed, over the elapsed span."""
    count = len(timestamps)
    if count < 2:
        return 0.0
    elapsed = now - timestamps[0]
    if elapsed <= 0:
        return 0.0
    divisor = max(count - 2, 1)
    total = 0.0
    for i in range(1, count):
        total += (timestamps[i] - timestamps[i - 1]) / divisor
    return total / elapsed


def weight_map(cfg) -> dict[InteractionKind, float]:
    """The kind -> weight map of a ``StrategyConfig``'s two weight fields,
    as the oracles below take it."""
    return {InteractionKind.LOOKUP: cfg.lookup_weight,
            InteractionKind.FRIEND_REQUEST: cfg.friend_request_weight}


def direct_tie_strength(events_by_user: dict[str, list[InteractionKind]],
                        user: str, weights: dict[InteractionKind, float]) -> float:
    total = sum(len(evs) for evs in events_by_user.values())
    if total == 0:
        return 0.0
    return sum(weights.get(kind, 1.0) for kind in events_by_user[user]) / total


def brute_force_top_n(scores: dict[str, float], n: int) -> list[str]:
    """Highest score first, ties by ascending name; used against both
    strategies' rankings."""
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [user for user, _ in ordered[:n]]


def reference_record(muc, user: UserId, kind: InteractionKind, at: int,
                     weights: dict[InteractionKind, float] | None = None) -> None:
    """The MUC bookkeeping of one event in two steps, the list's and the
    entry's, apart from ``SocialCache.track``, which does both in one
    frame.  Kinds missing from ``weights`` weigh 1.0.  A full list refuses
    a new user: evicting is the caller's."""
    entry = muc.get(user)
    if entry is None:
        if len(muc) >= muc.max_users:
            raise CapExceededError("MUC list full; evict before recording")
        entry = MucEntry()
        muc[user] = entry
    _reference_append(entry, kind, at, (weights or {}).get(kind, 1.0))
    muc.total_events += 1


def _reference_append(entry, kind: InteractionKind, at: int, weight: float) -> None:
    count = entry.event_count + 1
    if count == 1:
        entry.first_at = at
    entry.last_at = at
    entry.event_count = count
    if kind is InteractionKind.LOOKUP:
        entry.lookup_count += 1
    entry.weighted += weight


def reference_score(entry, total: int, now: int, alpha: float, beta: float) -> float:
    """The social score of a tracked user from its raw ``MucEntry`` fields
    and ``total`` events in the MUC list: ``alpha`` times the weighted share
    of the events, plus ``beta`` times the mean gap between the user's
    events over the time since the first (0 for a single event or a first
    event now).  The float operations are those of
    ``SocialCache._score_keys``, in the same order, so the two agree
    exactly."""
    spacing = 0.0
    elapsed = now - entry.first_at
    if entry.event_count >= 2 and elapsed > 0:
        spacing = _reference_gap(entry) / elapsed
    tie = entry.weighted / total
    return alpha * tie + beta * spacing


def _reference_gap(entry) -> float:
    return (entry.last_at - entry.first_at) / max(entry.event_count - 2, 1)


def reference_run_selection(cache, now: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Interval selection by ranking every tracked user: score each entry
    with ``reference_score``, sort by ``(-score, user)``, take the top ``n``
    and diff them against the channels.  Trend clears the MUC list
    afterwards.  Returns the ``(to_subscribe, to_unsubscribe)`` tuples;
    applies nothing."""
    cfg = cache.cfg
    if cfg.kind is Strategy.RANDOM:
        return (), ()
    entries = cache.muc
    if cfg.kind is Strategy.SOCIAL_SCORE:
        total = entries.total_events
        keys = [(-reference_score(entry, total, now, cfg.alpha, cfg.beta), user)
                for user, entry in entries.items()]
    else:
        keys = [(-float(entry.lookup_count), user) for user, entry in entries.items()]
    selected = [user for _, user in sorted(keys)][: cfg.n]
    to_subscribe = tuple(user for user in selected if user not in cache.channels)
    to_unsubscribe = tuple(user for user in cache.channels if user not in selected)
    if cfg.kind is Strategy.TREND:
        cache.muc.clear()
    return to_subscribe, to_unsubscribe


def _widened(score: float) -> float:
    return score + score * _STABLE_MARGIN


def _tick(crossing: float) -> float:
    return crossing if crossing == math.inf else math.ceil(crossing)


def _crossing(cfg, entry, total: int, ceiling: float) -> float:
    """The tick at which the falling score of ``entry`` at ``total`` events
    reaches ``ceiling``; inf if its constant part is at least that."""
    floor = cfg.alpha * (entry.weighted / total)
    if floor >= ceiling:
        return math.inf
    return entry.first_at + cfg.beta * _reference_gap(entry) / (ceiling - floor)


class ReferenceCertificate:
    """``SocialCache.stable_until`` after each applied social-score round
    of one cache, recomputed from ``reference_score`` calls and sorts.

    Call ``after_round`` after every applied round of the cache that selects
    from more than ``n`` users, in order; the MUC list must never evict.
    A round that ranks sets the tick at which a chosen falling score first
    reaches the widened best unchosen score at the current total (now if
    that score is 0).  The certificate is kept as plain facts: the tick,
    totals, chosen set and event counts of the round that made it, and the
    thresholds taken from the scores at that round.  A later round keeps it
    while the totals stay at most the cap, the tick stays below its end and
    every user tracked since (event count changed, or new) passes;
    otherwise the state after the round makes a new one.
    """

    def __init__(self):
        self.cert = None

    def after_round(self, cache, now: int) -> float:
        if self.cert is not None:
            until = self._recheck(cache, now)
            if until is not None:
                return until
        return self._make(cache, now)

    def _recheck(self, cache, now):
        cert, cfg, muc = self.cert, cache.cfg, cache.muc
        assert len(muc) < muc.max_users
        if muc.total_events > cert["cap"] or now >= cert["until"]:
            return None
        until = cert["until"]
        for user, entry in muc.items():
            if cert["counts"].get(user) == entry.event_count:
                continue
            score = reference_score(entry, muc.total_events, now, cfg.alpha, cfg.beta)
            if user not in cert["chosen"]:
                if _widened(score) > cert["below"]:
                    return None
            elif entry.last_at == entry.first_at or score <= cert["above"]:
                return None
            else:
                until = min(until, _tick(_crossing(cfg, entry, muc.total_events, cert["above"])))
        return until

    def _make(self, cache, now):
        self.cert = None
        cfg, entries = cache.cfg, cache.muc
        if len(entries) <= cfg.n:
            return math.inf
        total = entries.total_events
        cap = total + max(4, total // 32)

        def score(user, at_total=total):
            return reference_score(entries[user], at_total, now, cfg.alpha, cfg.beta)

        ranked = sorted(entries, key=lambda user: (-score(user), user))
        chosen, unchosen = ranked[: cfg.n], ranked[cfg.n:]
        assert set(chosen) == set(cache.channels)
        best = max(score(user) for user in unchosen)
        if best <= 0:
            return now
        constant = {user: entry.last_at == entry.first_at for user, entry in entries.items()}
        moving = [entries[user] for user in chosen if not constant[user]]
        stable = _tick(min((_crossing(cfg, e, total, _widened(best)) for e in moving),
                           default=math.inf))
        if stable <= now:
            return now
        best_at_cap = max(score(user, cap) for user in unchosen)
        until = min(stable, _tick(min((_crossing(cfg, e, cap, _widened(best_at_cap))
                                       for e in moving), default=math.inf)))
        if until <= now:
            return stable
        below = _widened(best_at_cap)

        # The weights of constant chosen users, rising, and of constant
        # unchosen users, falling.  Equal weights at the boundary are in name
        # order already: the channels are the top n.
        lows = sorted(entries[u].weighted for u in chosen if constant[u])
        if lows:
            highs = sorted((entries[u].weighted for u in unchosen if constant[u]), reverse=True)
            low = lows[0]
            low_user = next(u for u in chosen if constant[u] and entries[u].weighted == low)
            low_next = min((w for w in lows if w != low), default=math.inf)
            high = highs[0] if highs else -math.inf
            high_next = max((w for w in highs if w != high), default=-math.inf)
            apart = low > _widened(high)
            tied = low == high and low_next > _widened(high) and _widened(high_next) < low
            moving_best_at_cap = max((score(u, cap) for u in unchosen if not constant[u]),
                                     default=-math.inf)
            if not (apart or tied) or score(low_user, cap) <= _widened(moving_best_at_cap):
                return stable
            below = min(below, score(low_user, cap))
        self.cert = {
            "cap": cap, "until": until,
            "chosen": set(chosen), "counts": {u: e.event_count for u, e in entries.items()},
            "above": _widened(best), "below": below,
        }
        return stable


def apply_reference_diff(cache, to_subscribe, to_unsubscribe) -> None:
    """Send a reference selection's changes from ``cache``: every
    unsubscribe, then every subscribe."""
    for user in to_unsubscribe:
        cache._unsubscribe(user)
    for user in to_subscribe:
        cache._subscribe(user)


def reference_selection_round(sim, now: int) -> None:
    """A selection round that evaluates every peer of a ``Simulation``, in
    sorted order, with ``reference_run_selection``, and applies each diff;
    no peer is skipped."""
    for name in sorted(sim.peers):
        social = sim.peers[name].social
        if social is not None:
            apply_reference_diff(social, *reference_run_selection(social, now))


def reference_schedule(event_times: list[int], duration: int, interval: int,
                       time_selection: bool, cadence: int) -> list[tuple[str, int]]:
    """The simulation event loop as a per-step ``pending`` list merged with
    ``min((t, kind))``: returns the ``(kind, time)`` sequence of applied trace
    events, selection rounds and samples.  Kind 0 < 1 < 2 breaks ties, and
    events past ``duration`` are never applied."""
    names = ("event", "selection", "sample")
    order: list[tuple[str, int]] = []
    next_selection = interval if time_selection and interval <= duration else None
    next_sample = cadence if cadence <= duration else None

    i, n = 0, len(event_times)
    while True:
        pending: list[tuple[int, int]] = []
        if i < n and event_times[i] <= duration:
            pending.append((event_times[i], 0))
        if next_selection is not None:
            pending.append((next_selection, 1))
        if next_sample is not None:
            pending.append((next_sample, 2))
        if not pending:
            break
        t, kind = min(pending)
        order.append((names[kind], t))
        if kind == 0:
            i += 1
        elif kind == 1:
            next_selection = t + interval
            if next_selection > duration:
                next_selection = None
        else:
            next_sample = t + cadence
            if next_sample > duration:
                next_sample = None
    return order


def _reference_exponential_times(rng: random.Random, mean_gap: float, duration: int):
    """Stream ticks one ``expovariate`` draw at a time: summed gaps,
    rounded, lifted to at least 1, up to ``duration``."""
    t = 0.0
    while True:
        t += rng.expovariate(1.0 / mean_gap)
        tick = round(t)
        if tick > duration:
            return
        yield max(tick, 1)


class _ReferenceTierTable:
    """Per-peer weighted friend selection over the currently active edges.
    The choices are rebuilt once per ``draw`` that follows any number of
    activations."""

    def __init__(self, ordered_friends: list[UserId], weights: list[float]):
        self.friends = ordered_friends
        self.base_weights = weights
        self.active: set[UserId] = set()
        self._cum: list[float] = []
        self._choices: list[UserId] | None = []

    def activate(self, friend: UserId) -> None:
        self.active.add(friend)
        self._choices = None

    def _rebuild(self) -> None:
        pairs = [
            (f, w) for f, w in zip(self.friends, self.base_weights) if f in self.active
        ]
        self._choices = [f for f, _ in pairs]
        self._cum = list(accumulate(w for _, w in pairs))

    def draw(self, rng: random.Random) -> UserId | None:
        if self._choices is None:
            self._rebuild()
        if not self._choices or self._cum[-1] <= 0:
            return None
        r = rng.random() * self._cum[-1]
        return self._choices[bisect_left(self._cum, r)]


def _reference_tier_weights(count: int, sizes, shares) -> list[float]:
    """Per-friend weight for a friend list of ``count`` entries: tier share
    spread uniformly inside the tier, remaining share over the rest."""
    bounds = []
    start = 0
    for size in sizes:
        end = min(start + size, count)
        bounds.append((start, end))
        start = end
    bounds.append((start, count))
    weights = [0.0] * count
    for (lo, hi), share in zip(bounds, shares):
        if hi > lo:
            per = share / (hi - lo)
            for i in range(lo, hi):
                weights[i] = per
    return weights


def reference_generate_trace(cfg: ScenarioConfig) -> list[TraceEvent]:
    """The trace generator as first written: every stream pushes
    ``(at, prio, actor, seq, event)`` tuples and one tuple sort orders them.
    ``generate_trace`` must return the same events in the same order.

    All users publish their full key space at tick 0 so every lookup target
    exists, then keep re-posting round-robin at the scaled interaction rate.
    Lookup streams run at ``lookups_per_interaction`` times that rate and
    pick a friend by tier weight, then one of the friend's keys uniformly.
    """
    cfg.validate()
    names = peer_names(cfg.peer_count)
    graph = build_friend_graph(cfg.peer_count, cfg.friends_per_user)
    duration = cfg.duration
    keyspace = [
        [f"{name}/wall/{slot}" for slot in range(cfg.keys_per_user)] for name in names
    ]

    # Friendship phases: a deterministic shuffle splits edges into the
    # initially active set and one batch per configured phase time.
    edges = sorted(
        (names[i], names[j]) for i, row in enumerate(graph) for j in row if i < j
    )
    phase_rng = random.Random(f"{cfg.seed}/phases")
    phase_rng.shuffle(edges)
    initial_count = round(len(edges) * cfg.initial_friend_fraction)
    phases = sorted(cfg.phases)
    activation: dict[tuple[UserId, UserId], int | None] = {}
    for idx, edge in enumerate(edges):
        if idx < initial_count or not phases:
            activation[edge] = None
        else:
            phase = phases[(idx - initial_count) % len(phases)]
            activation[edge] = phase

    tables: dict[UserId, _ReferenceTierTable] = {}
    for i, name in enumerate(names):
        ordered = [names[j] for j in graph[i]]
        random.Random(f"{cfg.seed}/tiers/{name}").shuffle(ordered)
        weights = _reference_tier_weights(len(ordered), cfg.tier_sizes, cfg.tier_shares)
        tables[name] = _ReferenceTierTable(ordered, weights)

    events: list[tuple[int, int, UserId, int, TraceEvent]] = []

    def push(at: int, prio: int, actor: UserId, seq: int, ev: TraceEvent) -> None:
        events.append((at, prio, actor, seq, ev))

    # Friend requests: one event per non-initial edge, jittered after its
    # phase; initial edges are silently active from the start.  An edge
    # becomes a lookup target exactly when its request event fires.
    req_rng = random.Random(f"{cfg.seed}/friendreq")
    activation_events: list[tuple[int, UserId, UserId]] = []
    for edge in sorted(activation):
        at = activation[edge]
        if at is None:
            tables[edge[0]].activate(edge[1])
            tables[edge[1]].activate(edge[0])
            continue
        jitter = req_rng.randrange(0, 60 * TICKS_PER_SECOND)
        when = min(at + jitter, duration)
        requester = edge[0] if req_rng.random() < 0.5 else edge[1]
        other = edge[1] if requester == edge[0] else edge[0]
        activation_events.append((when, requester, other))
    activation_events.sort()
    for seq, (when, requester, other) in enumerate(activation_events):
        push(when, 1, requester, seq, TraceEvent(when, requester, FRIENDREQ, other))
    pending_activations = [
        (when, (requester, other)) for when, requester, other in activation_events
    ]

    # Posts: full key space at tick 0, then round-robin re-posts.
    post_gap = cfg.interaction_gap_ticks()
    for idx, name in enumerate(names):
        keys = keyspace[idx]
        for seq, key in enumerate(keys):
            push(0, 0, name, seq, TraceEvent(0, name, POST, key, cfg.payload_bytes))
        rng = random.Random(f"{cfg.seed}/posts/{name}")
        slot = 0
        for seq, at in enumerate(_reference_exponential_times(rng, post_gap, duration)):
            push(at, 0, name, seq + cfg.keys_per_user,
                 TraceEvent(at, name, POST, keys[slot], cfg.payload_bytes))
            slot = (slot + 1) % cfg.keys_per_user

    # Lookups: drawn against the tier table state at the event's time.
    lookup_gap = cfg.lookup_gap_ticks()
    per_peer_lookups: dict[UserId, list[int]] = {}
    for name in names:
        rng = random.Random(f"{cfg.seed}/lookup-times/{name}")
        per_peer_lookups[name] = list(_reference_exponential_times(rng, lookup_gap, duration))
    draw_rngs = {name: random.Random(f"{cfg.seed}/lookup-draws/{name}") for name in names}
    keys_of = dict(zip(names, keyspace))
    merged: list[tuple[int, UserId]] = sorted(
        (at, name) for name, times in per_peer_lookups.items() for at in times
    )
    act_idx = 0
    seqs = {name: 0 for name in names}
    for at, name in merged:
        while act_idx < len(pending_activations) and pending_activations[act_idx][0] <= at:
            _, edge = pending_activations[act_idx]
            tables[edge[0]].activate(edge[1])
            tables[edge[1]].activate(edge[0])
            act_idx += 1
        rng = draw_rngs[name]
        friend = tables[name].draw(rng)
        if friend is None:
            continue  # no active friend of positive weight yet; nobody to look up
        key = keys_of[friend][rng.randrange(cfg.keys_per_user)]
        push(at, 2, name, seqs[name], TraceEvent(at, name, LOOKUP, key))
        seqs[name] += 1

    # (at, prio, actor, seq) is unique per event: within one prio, seq never
    # repeats for an actor (friend requests number globally).  So the plain
    # tuple sort decides every pair on those four fields and never reaches
    # the TraceEvents, whose own field order is not the trace's order.
    events.sort()
    return [item[4] for item in events]


def reference_trace_users(events: list[TraceEvent]) -> list[UserId]:
    """Every user a trace names: actors, friend-request targets and key
    owners, sorted."""
    users: set[UserId] = set()
    for ev in events:
        users.add(ev.actor)
        if ev.action == FRIENDREQ:
            users.add(ev.target)
        else:
            users.add(ev.target.split("/", 1)[0])
    return sorted(users)


def event_line(ev: TraceEvent) -> str:
    """The trace-file line of ``ev``, written out independently of
    ``Trace.chunks()``."""
    if ev.payload_size is None:
        return f"{ev.at} {ev.actor} {ev.action} {ev.target}"
    return f"{ev.at} {ev.actor} {ev.action} {ev.target} {ev.payload_size}"


# "a" subscribes to "b", who has posted one key, and to "c", who has posted
# none; then each of them posts a new key, which "a" can only get by update.
NEW_KEYS_AFTER_SUBSCRIBING = [
    TraceEvent(0, "b", POST, "b/wall/0", 8),
    TraceEvent(10, "a", LOOKUP, "b/wall/0"),
    TraceEvent(20, "a", LOOKUP, "c/wall/0"),
    TraceEvent(30, "b", POST, "b/wall/1", 8),
    TraceEvent(40, "c", POST, "c/wall/0", 8),
]


def dropping_new_slots(update):
    """``SocialCache.on_social_update`` made to lose every update for a slot
    past its section's end (a key its owner published after the dump): the
    item is then missing from the section, not stale in it."""
    def patched(cache, sender, content):
        if cache.slot_of[content.key] >= len(cache.channels.get(sender) or ()):
            return False
        return update(cache, sender, content)
    return patched


def trace_of(events) -> Trace:
    """The Trace of ``events`` by the parser that ``--trace`` uses: their
    trace-file lines, written to a temporary directory (hypothesis tests
    cannot take ``tmp_path``), read back by ``load_trace``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.txt"
        path.write_text("".join(event_line(ev) + "\n" for ev in events), encoding="utf-8")
        return load_trace(path)
