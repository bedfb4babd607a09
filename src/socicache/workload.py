"""Workload generation and scenario configuration.

Event timing is downsampled from day-scale dataset statistics: the sampling
function converts a dataset-wide mean interval into an event rate for the
(shorter) simulated experiment, keeping inter-event spacing proportional to
the original observation window.  Post and lookup gaps are exponential
around those scaled means; friend requests arrive in configurable batched
phases on top of an initial friendship graph.

Lookups target keys owned by the actor's friends.  Each actor prefers a
small inner circle: its friend list is split into closeness tiers and each
tier receives a configurable share of that actor's lookups.
"""
from __future__ import annotations

import enum
import hashlib
import random
from bisect import bisect_left
from dataclasses import dataclass, field, fields, replace
from itertools import accumulate
from typing import Iterable, Sequence

from .model import StorageKey, UserId
from .social_cache import Strategy, StrategyConfig

TICKS_PER_DAY = 86_400_000
TICKS_PER_SECOND = 1_000


class ConfigError(ValueError):
    """Scenario configuration that cannot produce a runnable experiment."""


class InvalidArgumentError(ValueError):
    """Non-positive argument to the interval sampler."""


class TraceFormatError(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class TraceOrderError(ValueError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


def sampled_interval(x: float, dataset_experiment_time: float,
                     new_experiment_time: float) -> float:
    """Downsampling rate for a dataset-scale mean interval ``x``.

    Returns dataset_experiment_time / (new_experiment_time * x).  The
    reciprocal is the scaled mean gap in the new experiment's time unit:
    gap = new_experiment_time * x / dataset_experiment_time.
    """
    if x <= 0 or dataset_experiment_time <= 0 or new_experiment_time <= 0:
        raise InvalidArgumentError("all sampling arguments must be positive")
    return dataset_experiment_time / (new_experiment_time * x)


@dataclass(frozen=True)
class DatasetStats:
    """Aggregate statistics of the ego-network dataset the workloads are
    scaled from (interval values in days)."""

    avg_ts_interaction_days: float = 43.0402
    experiment_span_days: float = 869.458

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ConfigError(f"dataset statistic {f.name} must be positive")


# Trace actions (also the on-disk tokens).
POST = "POST"
LOOKUP = "LOOKUP"
FRIENDREQ = "FRIENDREQ"
_ACTIONS = (POST, LOOKUP, FRIENDREQ)


@dataclass(slots=True, frozen=True)
class TraceEvent:
    at: int
    actor: UserId
    action: str
    target: str
    payload_size: int | None = None

    def line(self) -> str:
        if self.action == POST:
            return f"{self.at} {self.actor} {self.action} {self.target} {self.payload_size}"
        return f"{self.at} {self.actor} {self.action} {self.target}"


class CacheSetup(enum.Enum):
    NONE = "none"
    CURRENT_ONLY = "current_only"
    SOCIAL_ONLY = "social_only"
    BOTH = "both"

    @property
    def current_enabled(self) -> bool:
        return self in (CacheSetup.CURRENT_ONLY, CacheSetup.BOTH)

    @property
    def social_enabled(self) -> bool:
        return self in (CacheSetup.SOCIAL_ONLY, CacheSetup.BOTH)


@dataclass
class CurrentCacheConfig:
    ttl_ticks: int = 60_000
    capacity: int = 1000


@dataclass
class ScenarioConfig:
    """Everything one experiment needs: population, timing, strategy and
    cache settings, and the workload shape."""

    peer_count: int = 64
    friends_per_user: int = 25
    new_experiment_time_days: float = 0.25
    sim_duration_ticks: int | None = None
    friend_request_phases: tuple[int, ...] | None = None
    initial_friend_fraction: float = 0.6
    strategy: StrategyConfig = field(default_factory=StrategyConfig)
    cache_setup: CacheSetup = CacheSetup.BOTH
    current_cache: CurrentCacheConfig = field(default_factory=CurrentCacheConfig)
    seed: int = 42
    keys_per_user: int = 20
    payload_bytes: int = 512
    lookups_per_interaction: float = 500.0
    tier_sizes: tuple[int, ...] = (5, 10)
    tier_shares: tuple[float, ...] = (0.65, 0.32, 0.03)
    replication_factor: int = 4
    bootstrapping: bool = True
    muc_capacity: int = 150
    sample_cadence_ticks: int = 60_000
    dataset: DatasetStats = field(default_factory=DatasetStats)

    @property
    def duration(self) -> int:
        if self.sim_duration_ticks is not None:
            return self.sim_duration_ticks
        return round(self.new_experiment_time_days * TICKS_PER_DAY)

    @property
    def phases(self) -> tuple[int, ...]:
        if self.friend_request_phases is not None:
            return self.friend_request_phases
        return (round(0.4 * self.duration), round(0.8 * self.duration))

    def interaction_gap_ticks(self) -> float:
        """Mean gap between a user's interactions, scaled by the sampling
        rate: gap_days = new_experiment_time * x / dataset span."""
        rate = sampled_interval(
            self.dataset.avg_ts_interaction_days,
            self.dataset.experiment_span_days,
            self.new_experiment_time_days,
        )
        return TICKS_PER_DAY / rate

    def lookup_gap_ticks(self) -> float:
        return self.interaction_gap_ticks() / self.lookups_per_interaction

    def validate(self) -> None:
        if self.peer_count < 2:
            raise ConfigError("peer_count must be at least 2")
        if not 0 < self.friends_per_user < self.peer_count:
            raise ConfigError("friends_per_user must be positive and below peer_count")
        if self.duration <= 0:
            raise ConfigError("sim_duration_ticks must be positive")
        if self.new_experiment_time_days <= 0:
            raise ConfigError("new_experiment_time_days must be positive")
        if not 0 <= self.initial_friend_fraction <= 1:
            raise ConfigError("initial_friend_fraction must lie in [0, 1]")
        if self.keys_per_user < 1:
            raise ConfigError("keys_per_user must be positive")
        if self.payload_bytes < 0:
            raise ConfigError("payload_bytes must be non-negative")
        if self.lookups_per_interaction <= 0:
            raise ConfigError("lookups_per_interaction must be positive")
        if len(self.tier_shares) != len(self.tier_sizes) + 1:
            raise ConfigError("tier_shares must have one more entry than tier_sizes")
        if any(s < 0 for s in self.tier_shares) or sum(self.tier_shares) <= 0:
            raise ConfigError("tier_shares must be non-negative with a positive sum")
        if any(s < 1 for s in self.tier_sizes):
            raise ConfigError("tier_sizes must be positive")
        if self.replication_factor < 1:
            raise ConfigError("replication_factor must be positive")
        if self.muc_capacity < 1:
            raise ConfigError("muc_capacity must be positive")
        if self.sample_cadence_ticks < 1:
            raise ConfigError("sample_cadence_ticks must be positive")
        if any(p < 0 or p > self.duration for p in self.phases):
            raise ConfigError("friend_request_phases must lie within the run")
        try:
            self.strategy.validate()
        except ValueError as exc:
            raise ConfigError(f"strategy: {exc}") from exc
        if self.current_cache.ttl_ticks < 1 or self.current_cache.capacity < 1:
            raise ConfigError("current_cache ttl and capacity must be positive")


def peer_names(count: int) -> list[UserId]:
    width = max(2, len(str(count - 1)))
    return [f"u{i:0{width}d}" for i in range(count)]


def build_friend_graph(peer_count: int, friends_per_user: int) -> list[list[int]]:
    """Regular friendship graph built from ring offsets.

    Every peer gets exactly ``friends_per_user`` friends; an odd degree uses
    the antipodal peer and therefore needs an even population.
    """
    if not 0 < friends_per_user < peer_count:
        raise ConfigError("friends_per_user must be positive and below peer_count")
    half, odd = divmod(friends_per_user, 2)
    if odd and peer_count % 2:
        raise ConfigError(
            f"no {friends_per_user}-regular graph exists on {peer_count} peers"
        )
    friends: list[list[int]] = [[] for _ in range(peer_count)]
    for i in range(peer_count):
        mine = set()
        for d in range(1, half + 1):
            mine.add((i + d) % peer_count)
            mine.add((i - d) % peer_count)
        if odd:
            mine.add((i + peer_count // 2) % peer_count)
        friends[i] = sorted(mine)
    return friends


def _exponential_times(rng: random.Random, mean_gap: float, duration: int,
                       start: int = 0) -> Iterable[int]:
    t = float(start)
    while True:
        t += rng.expovariate(1.0 / mean_gap)
        tick = round(t)
        if tick > duration:
            return
        yield max(tick, 1)


class _TierTable:
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
        if not self._choices:
            return None
        r = rng.random() * self._cum[-1]
        return self._choices[bisect_left(self._cum, r)]


def _tier_weights(count: int, sizes: Sequence[int], shares: Sequence[float]) -> list[float]:
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


def generate_trace(cfg: ScenarioConfig) -> list[TraceEvent]:
    """Deterministic synthetic workload for one scenario.

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
    activation: dict[tuple[UserId, UserId], int] = {}
    for idx, edge in enumerate(edges):
        if idx < initial_count or not phases:
            activation[edge] = 0
        else:
            phase = phases[(idx - initial_count) % len(phases)]
            activation[edge] = phase

    tables: dict[UserId, _TierTable] = {}
    for i, name in enumerate(names):
        ordered = [names[j] for j in graph[i]]
        random.Random(f"{cfg.seed}/tiers/{name}").shuffle(ordered)
        weights = _tier_weights(len(ordered), cfg.tier_sizes, cfg.tier_shares)
        tables[name] = _TierTable(ordered, weights)

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
        if at == 0:
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
        for seq, at in enumerate(_exponential_times(rng, post_gap, duration)):
            push(at, 0, name, seq + cfg.keys_per_user,
                 TraceEvent(at, name, POST, keys[slot], cfg.payload_bytes))
            slot = (slot + 1) % cfg.keys_per_user

    # Lookups: drawn against the tier table state at the event's time.
    lookup_gap = cfg.lookup_gap_ticks()
    per_peer_lookups: dict[UserId, list[int]] = {}
    for name in names:
        rng = random.Random(f"{cfg.seed}/lookup-times/{name}")
        per_peer_lookups[name] = list(_exponential_times(rng, lookup_gap, duration))
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
            continue  # no active friends yet; nobody to look up
        key = keys_of[friend][rng.randrange(cfg.keys_per_user)]
        push(at, 2, name, seqs[name], TraceEvent(at, name, LOOKUP, key))
        seqs[name] += 1

    # (at, prio, actor, seq) is unique per event: within one prio, seq never
    # repeats for an actor (friend requests number globally).  So the plain
    # tuple sort decides every pair on those four fields and never compares
    # two TraceEvents, which define no order and would raise TypeError.
    events.sort()
    return [item[4] for item in events]


def trace_digest(events: Sequence[TraceEvent]) -> str:
    digest = hashlib.sha256()
    for ev in events:
        digest.update(ev.line().encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def save_trace(events: Iterable[TraceEvent], path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for ev in events:
            handle.write(ev.line())
            handle.write("\n")


def load_trace(path) -> list[TraceEvent]:
    """Parse a trace file, validating field shape, time ordering and that
    every event can run: a POST writes under the actor's own key, a
    FRIENDREQ names another user.

    Blank lines and ``#`` comments are permitted and skipped.
    """
    events: list[TraceEvent] = []
    last_at = -1
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (4, 5):
                raise TraceFormatError(line_no, f"expected 4 or 5 fields, got {len(parts)}")
            t_text, actor, action, target = parts[:4]
            try:
                at = int(t_text)
            except ValueError:
                raise TraceFormatError(line_no, f"bad timestamp {t_text!r}") from None
            if at < 0:
                raise TraceFormatError(line_no, "timestamp must be non-negative")
            if action not in _ACTIONS:
                raise TraceFormatError(line_no, f"unknown action {action!r}")
            if not actor:
                raise TraceFormatError(line_no, "empty actor")
            payload_size: int | None = None
            if action == POST:
                if len(parts) != 5:
                    raise TraceFormatError(line_no, "POST requires a payload size")
                try:
                    payload_size = int(parts[4])
                except ValueError:
                    raise TraceFormatError(line_no, f"bad payload size {parts[4]!r}") from None
                if payload_size < 0:
                    raise TraceFormatError(line_no, "payload size must be non-negative")
            elif len(parts) != 4:
                raise TraceFormatError(line_no, f"{action} takes exactly 4 fields")
            if action == FRIENDREQ:
                if target == actor or "/" in target:
                    raise TraceFormatError(line_no, f"FRIENDREQ needs another user, got {target!r}")
            else:
                try:
                    owner = StorageKey.parse(target).owner
                except ValueError as exc:
                    raise TraceFormatError(line_no, str(exc)) from None
                if action == POST and owner != actor:
                    raise TraceFormatError(line_no, f"{actor!r} cannot POST under {target}")
            if at < last_at:
                raise TraceOrderError(line_no, f"timestamp {at} before {last_at}")
            last_at = at
            events.append(TraceEvent(at, actor, action, target, payload_size))
    return events


def scenario_for_strategy(cfg: ScenarioConfig, kind: Strategy) -> ScenarioConfig:
    return replace(cfg, strategy=replace(cfg.strategy, kind=kind))


def scenario_for_setup(cfg: ScenarioConfig, setup: CacheSetup) -> ScenarioConfig:
    return replace(cfg, cache_setup=setup)
