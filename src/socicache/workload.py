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
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from itertools import accumulate, chain, compress, cycle, islice, repeat
from math import log, sqrt
from operator import and_, attrgetter, itemgetter, lshift, or_
from typing import Iterator, NamedTuple, Sequence

from .model import ConfigError, StorageKey, UserId, typecode
from .social_cache import DUNBAR_MUC_LIMIT, Strategy, StrategyConfig

TICKS_PER_DAY = 86_400_000
TICKS_PER_SECOND = 1_000


class LineError(ValueError):
    """A line of an input file that cannot be read or run; ``line_no`` is
    its line.  The reader of the file adds the file's name."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


def sampled_interval(x: float, dataset_experiment_time: float,
                     new_experiment_time: float) -> float:
    """Downsampling rate for a dataset-scale mean interval ``x``.

    Returns dataset_experiment_time / (new_experiment_time * x).  The
    reciprocal is the scaled mean gap in the new experiment's time unit:
    gap = new_experiment_time * x / dataset_experiment_time.
    """
    return dataset_experiment_time / (new_experiment_time * x)


@dataclass(frozen=True)
class DatasetStats:
    """Aggregate statistics of the ego-network dataset the workloads are
    scaled from (interval values in days)."""

    avg_ts_interaction_days: float = 43.0402
    experiment_span_days: float = 869.458


# Trace actions (also the on-disk tokens).  A Trace stores each action as
# its code, the action's index in ACTIONS.
POST = "POST"
LOOKUP = "LOOKUP"
FRIENDREQ = "FRIENDREQ"
ACTIONS = (POST, LOOKUP, FRIENDREQ)
POST_CODE, LOOKUP_CODE, FRIENDREQ_CODE = range(len(ACTIONS))
_CODES = {action: code for code, action in enumerate(ACTIONS)}
# Lines per chunk of trace-file text: one string to write or hash at a time.
CHUNK_LINES = 8192
# About how many events generate_trace sorts at once (see _in_tick_order).
WINDOW_EVENTS = 8 * CHUNK_LINES


class TraceEvent(NamedTuple):
    at: int
    actor: UserId
    action: str
    target: str
    payload_size: int | None = None


class Trace:
    """An immutable event trace held as parallel columns.

    Event ``i`` happens at tick ``ticks[i]``.  Its actor is
    ``users[actors[i]]`` and its action ``ACTIONS[actions[i]]``.  Its target
    is ``resolved[target_ids[i]]``: a StorageKey for a key, the plain name
    for a friend-request target; ``str`` of either is its trace-file text.
    A POST's payload size is ``sizes[i]``; other actions do not read it.
    ``users`` is every user the trace names (actors, friend-request targets
    and key owners), sorted.

    Iterating a Trace yields TraceEvent values made on demand; ``chunks()``
    formats the same events as trace-file text without making them.  Each
    pass of either formats every target's text once.  The columns are
    read-only, so ``trace_digest`` computes a Trace's digest once and keeps
    it.
    """

    __slots__ = ("ticks", "actors", "actions", "target_ids", "sizes",
                 "users", "resolved", "_digest")

    def __init__(self, ticks: array, actors: array, actions: bytes, target_ids: array,
                 sizes: array, users: tuple[UserId, ...],
                 resolved: tuple[StorageKey | UserId, ...]):
        self.ticks = memoryview(ticks).toreadonly()
        self.actors = memoryview(actors).toreadonly()
        self.actions = bytes(actions)
        self.target_ids = memoryview(target_ids).toreadonly()
        self.sizes = memoryview(sizes).toreadonly()
        self.users = users
        self.resolved = resolved
        self._digest: str | None = None

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[TraceEvent]:
        users, targets = self.users, list(map(str, self.resolved))
        for at, actor, code, target, size in zip(self.ticks, self.actors, self.actions,
                                                 self.target_ids, self.sizes):
            yield TraceEvent(at, users[actor], ACTIONS[code], targets[target],
                             size if code == POST_CODE else None)

    def chunks(self) -> Iterator[str]:
        """The trace-file text in chunks of at most ``CHUNK_LINES`` lines,
        each line ending in a newline."""
        users, targets = self.users, list(map(str, self.resolved))
        for lo in range(0, len(self), CHUNK_LINES):
            hi = lo + CHUNK_LINES
            yield "".join([
                f"{at} {users[actor]} {POST} {targets[target]} {size}\n" if code == POST_CODE
                else f"{at} {users[actor]} {ACTIONS[code]} {targets[target]}\n"
                for at, actor, code, target, size in zip(
                    self.ticks[lo:hi], self.actors[lo:hi], self.actions[lo:hi],
                    self.target_ids[lo:hi], self.sizes[lo:hi])
            ])


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


@dataclass(frozen=True)
class CurrentCacheConfig:
    ttl_ticks: int = 60_000
    capacity: int = 1000


@dataclass
class ScenarioConfig:
    """Everything one experiment needs: population, timing, strategy and
    cache settings, and the workload shape.  Its sections are frozen:
    change one with ``dataclasses.replace``."""

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
    muc_capacity: int = DUNBAR_MUC_LIMIT
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
        """Raise ConfigError, with the fields its check read, for the first
        setting that cannot run."""
        if self.peer_count < 2:
            raise ConfigError("peer_count must be at least 2", ("peer_count",))
        if not 0 < self.friends_per_user < self.peer_count:
            raise ConfigError("friends_per_user must be positive and below peer_count",
                              ("peer_count", "friends_per_user"))
        for name in ("new_experiment_time_days", "keys_per_user", "lookups_per_interaction",
                     "replication_factor", "muc_capacity", "sample_cadence_ticks",
                     "current_cache.ttl_ticks", "current_cache.capacity",
                     "dataset.avg_ts_interaction_days", "dataset.experiment_span_days"):
            if attrgetter(name)(self) <= 0:
                raise ConfigError(f"{name} must be positive", (name,))
        if self.duration <= 0:
            if self.sim_duration_ticks is None:
                raise ConfigError("new_experiment_time_days must give at least one tick",
                                  ("new_experiment_time_days",))
            raise ConfigError("sim_duration_ticks must be positive", ("sim_duration_ticks",))
        if not 0 <= self.initial_friend_fraction <= 1:
            raise ConfigError("initial_friend_fraction must lie in [0, 1]",
                              ("initial_friend_fraction",))
        if not 0 <= self.payload_bytes < 2**32:
            raise ConfigError("payload_bytes must lie in [0, 2**32)", ("payload_bytes",))
        tiers = ("tier_sizes", "tier_shares")
        if len(self.tier_shares) != len(self.tier_sizes) + 1:
            raise ConfigError("tier_shares must have one more entry than tier_sizes", tiers)
        if any(s < 0 for s in self.tier_shares):
            raise ConfigError("tier_shares must be non-negative", ("tier_shares",))
        if any(s < 1 for s in self.tier_sizes):
            raise ConfigError("tier_sizes must be positive", ("tier_sizes",))
        if sum(_tier_weights(self.friends_per_user, self.tier_sizes, self.tier_shares)) <= 0:
            raise ConfigError("tier_shares must give some friend a positive weight",
                              ("friends_per_user", *tiers))
        if any(p < 0 or p > self.duration for p in self.phases):
            raise ConfigError("friend_request_phases must lie within the run",
                              ("friend_request_phases", "sim_duration_ticks",
                               "new_experiment_time_days"))
        try:
            self.strategy.validate()
        except ConfigError as exc:
            raise ConfigError(f"strategy: {exc}",
                              tuple(f"strategy.{key}" for key in exc.keys)) from exc


def peer_names(count: int) -> list[UserId]:
    width = max(2, len(str(count - 1)))
    return [f"u{i:0{width}d}" for i in range(count)]


def build_friend_graph(peer_count: int, friends_per_user: int) -> list[list[int]]:
    """Regular friendship graph built from ring offsets.

    Every peer gets exactly ``friends_per_user`` friends; an odd degree uses
    the antipodal peer and therefore needs an even population.
    """
    half, odd = divmod(friends_per_user, 2)
    if odd and peer_count % 2:
        raise ConfigError(f"no {friends_per_user}-regular graph exists on {peer_count} peers",
                          ("peer_count", "friends_per_user"))
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


def _stream_ticks(rng: random.Random, mean_gap: float, duration: int) -> list[int]:
    """Ticks of one event stream up to ``duration``: gaps drawn with the
    float operations of ``rng.expovariate(1.0 / mean_gap)``, summed in
    draw order, each sum rounded and lifted to at least 1.  The gaps are
    drawn in blocks; ``rng`` serves this stream alone, so the draws a block
    makes past the end change nothing else."""
    random, lambd = rng.random, 1.0 / mean_gap
    expected = duration / mean_gap
    block = int(expected + 3 * sqrt(expected)) + 8  # one block, nearly always
    ticks: list[int] = []
    t = 0.0
    while True:
        sums = list(accumulate([-log(1.0 - random()) / lambd for _ in range(block)],
                               initial=t))
        t = sums[-1]
        rounded = list(map(round, islice(sums, 1, None)))
        end = bisect_right(rounded, duration)
        ticks += rounded[:end]
        if end < block:
            break
    ones = bisect_right(ticks, 0)
    ticks[:ones] = [1] * ones
    return ticks


def _tier_weights(count: int, sizes: Sequence[int], shares: Sequence[float]) -> list[float]:
    """Per-friend weight for a friend list of ``count`` entries: tier share
    spread uniformly inside the tier, remaining share over the rest."""
    weights: list[float] = []
    for size, share in zip((*sizes, count), shares):
        width = min(size, count - len(weights))
        if width > 0:
            weights += [share / width] * width
    return weights


def _lookup_targets(times: list[int], friends: list[int], weights: list[float],
                    active: set[int], pending: list[tuple[int, int]], per_user: int,
                    rng: random.Random) -> list[int]:
    """Target ids of one actor's lookups at ``times``.  ``friends`` is in
    tier order with ``weights``; ``active`` holds the friends active from
    the start and gains each ``(tick, friend)`` of ``pending`` at its tick.
    A draw picks an active friend by ``rng.random()`` times their total
    weight against their running sums, then a key slot by the rule of
    ``rng.randrange(per_user)``.  One table serves every draw between two
    activations.  A lookup while no active friend has a positive weight
    draws nothing and is dropped; friends only ever become active, so the
    targets are those of the last lookups."""
    rand, getrandbits, bits = rng.random, rng.getrandbits, per_user.bit_length()
    first_keys = [f * per_user for f in friends]
    drawn: list[int] = []
    applied = lo = 0
    while lo < len(times):
        while applied < len(pending) and pending[applied][0] <= times[lo]:
            active.add(pending[applied][1])
            applied += 1
        hi = bisect_left(times, pending[applied][0]) if applied < len(pending) else len(times)
        is_active = list(map(active.__contains__, friends))
        bases = list(compress(first_keys, is_active))
        cum = list(accumulate(compress(weights, is_active)))
        total = cum[-1] if cum else 0.0
        if total > 0:
            for _ in range(hi - lo):
                base = bases[bisect_left(cum, rand() * total)]
                slot = getrandbits(bits)
                while slot >= per_user:
                    slot = getrandbits(bits)
                drawn.append(base + slot)
        lo = hi
    return drawn


def _window_order(ticks: array, los: array, his: array, shift: int) -> array:
    """The indices ``los[r]:his[r]`` of every run ``r`` in (tick, index)
    order: one sorted list of ``tick << shift | index`` ints."""
    window = chain.from_iterable(map(ticks.__getitem__, map(slice, los, his)))
    packed = sorted(map(or_, map(lshift, window, repeat(shift)),
                        chain.from_iterable(map(range, los, his))))
    return array("I", map(and_, packed, repeat((1 << shift) - 1)))


def _in_tick_order(ticks: array, actors: array, codes: bytes, target_ids: array,
                   starts: Sequence[int]) -> tuple[array, array, array, array]:
    """The columns sorted stably by tick, that is by (tick, index).  They
    hold runs already in tick order, run ``r`` from index ``starts[r]``
    (``starts[0]`` is 0).  Each tick window of about ``WINDOW_EVENTS``
    events splits every run by ``bisect_left`` and is sorted on its own.
    Each column keeps its width (the codes come back as an ``array("B")``);
    one itemgetter per ``CHUNK_LINES`` indices gathers from every column."""
    count, shift, top = len(ticks), len(ticks).bit_length(), max(ticks, default=0)
    step = -(-(top + 1) // max(1, -(-count // WINDOW_EVENTS)))  # equal tick spans
    los, ends = array("I", starts), array("I", [*starts[1:], count])
    columns = (ticks, actors, codes, target_ids)
    ordered = (array(ticks.typecode), array(actors.typecode), array("B"),
               array(target_ids.typecode))
    for edge in range(step, top + step + 1, step):
        his = array("I", map(bisect_left, repeat(ticks), repeat(edge), los, ends))
        order = _window_order(ticks, los, his, shift)
        for lo in range(0, len(order), CHUNK_LINES):
            chunk = order[lo:lo + CHUNK_LINES]
            gather = itemgetter(*chunk)
            for column, out in zip(columns, ordered):
                # An itemgetter of one index gives the value, not a tuple.
                out.extend(gather(column) if len(chunk) > 1 else (gather(column),))
        los = his
    return ordered


def generate_trace(cfg: ScenarioConfig) -> Trace:
    """Deterministic synthetic workload for one scenario, as a Trace.

    All users publish their full key space at tick 0 so every lookup target
    exists, then keep re-posting round-robin at the scaled interaction rate.
    Lookup streams run at ``lookups_per_interaction`` times that rate and
    pick a friend by tier weight, then one of the friend's keys uniformly.
    Each friendship table is freed once its streams are drawn, and the
    events are sorted one tick window at a time.
    """
    cfg.validate()
    # Zero-padded names sort in peer order, so a peer's index is also its
    # user index in the trace; every peer posts, so every peer is a user.
    names = peer_names(cfg.peer_count)
    graph = build_friend_graph(cfg.peer_count, cfg.friends_per_user)
    duration = cfg.duration
    per_user = cfg.keys_per_user
    # Target table: key ``slot`` of peer ``i`` is entry ``i * per_user +
    # slot``; peer ``j`` as a friend-request target follows all the keys.
    paths = [f"wall/{slot}" for slot in range(per_user)]
    keys = [StorageKey(name, path) for name in names for path in paths]
    user_targets = len(keys)

    # Friendship phases: a deterministic shuffle splits the sorted edges
    # into the initially active set and one batch per configured phase time.
    ordered = sorted((i, j) for i, row in enumerate(graph) for j in row if i < j)
    edges = ordered.copy()
    random.Random(f"{cfg.seed}/phases").shuffle(edges)
    initial_count = round(len(edges) * cfg.initial_friend_fraction)
    phases = sorted(cfg.phases)
    activation = {edge: None if idx < initial_count or not phases
                  else phases[(idx - initial_count) % len(phases)]
                  for idx, edge in enumerate(edges)}

    # Each peer's friends in tier order (its graph row, shuffled); the
    # graph is regular, so one weight list serves every peer.
    for row, name in zip(graph, names):
        random.Random(f"{cfg.seed}/tiers/{name}").shuffle(row)
    weights = _tier_weights(cfg.friends_per_user, cfg.tier_sizes, cfg.tier_shares)

    # The three streams below are appended in priority order into one set
    # of columns, then sorted by tick.  Each column is as wide as its bound
    # needs: ticks up to the duration, friend-request targets after the
    # keys.  ``starts`` records where each run sorted by tick begins.
    ticks = array(typecode(duration))
    actors = array(typecode(cfg.peer_count - 1))
    target_ids = array(typecode(user_targets + cfg.peer_count - 1))
    starts = array("I")

    # Posts: full key space at tick 0, then round-robin re-posts.
    post_gap = cfg.interaction_gap_ticks()
    for i, name in enumerate(names):
        rng = random.Random(f"{cfg.seed}/posts/{name}")
        times = [0] * per_user + _stream_ticks(rng, post_gap, duration)
        starts.append(len(ticks))
        ticks.extend(times)
        actors.extend([i] * len(times))
        first = i * per_user
        target_ids.extend(islice(cycle(range(first, first + per_user)), len(times)))
    post_count = len(ticks)

    # Friend requests: one event per non-initial edge, jittered after its
    # phase; initial edges are silently active from the start.  An edge
    # becomes a lookup target exactly when its request event fires.
    req_rng = random.Random(f"{cfg.seed}/friendreq")
    active: list[set[int]] = [set() for _ in names]
    activation_events: list[tuple[int, int, int]] = []
    for edge in ordered:
        at = activation[edge]
        if at is None:
            active[edge[0]].add(edge[1])
            active[edge[1]].add(edge[0])
            continue
        jitter = req_rng.randrange(0, 60 * TICKS_PER_SECOND)
        when = min(at + jitter, duration)
        requester = edge[0] if req_rng.random() < 0.5 else edge[1]
        other = edge[1] if requester == edge[0] else edge[0]
        activation_events.append((when, requester, other))
    activation_events.sort()
    activations_of: list[list[tuple[int, int]]] = [[] for _ in names]
    starts.append(len(ticks))
    for when, requester, other in activation_events:
        ticks.append(when)
        actors.append(requester)
        target_ids.append(user_targets + other)
        activations_of[requester].append((when, other))
        activations_of[other].append((when, requester))
    request_count = len(ticks) - post_count
    del ordered, edges, activation, activation_events

    # Lookups: each drawn against its actor's tier table as it stands at
    # the lookup's tick.  A table changes only with its own actor's
    # activations and each actor draws from its own generators, so the
    # actors can go one after the other.
    lookup_gap = cfg.lookup_gap_ticks()
    for i, name in enumerate(names):
        times = _stream_ticks(random.Random(f"{cfg.seed}/lookup-times/{name}"),
                              lookup_gap, duration)
        drawn = _lookup_targets(times, graph[i], weights, active[i], activations_of[i],
                                per_user, random.Random(f"{cfg.seed}/lookup-draws/{name}"))
        graph[i] = active[i] = activations_of[i] = None  # this actor's tables, done
        starts.append(len(ticks))
        ticks.extend(times[len(times) - len(drawn):])
        actors.extend([i] * len(drawn))
        target_ids.extend(drawn)

    count = len(ticks)
    codes = (bytes([POST_CODE]) * post_count + bytes([FRIENDREQ_CODE]) * request_count
             + bytes([LOOKUP_CODE]) * (count - post_count - request_count))
    # The trace's order is (tick, stream priority, actor, seq): posts before
    # friend requests before lookups, an actor's posts and lookups numbered
    # in time order, friend requests numbered globally by (tick, requester,
    # other).  The streams were appended in priority order, and within each
    # stream the append order is already (actor, seq) among equal ticks:
    # posts and lookups go actor by actor in time order, friend requests in
    # sorted order.  So the trace's order is (tick, append index).
    ticks, actors, codes, target_ids = _in_tick_order(ticks, actors, codes, target_ids, starts)
    return Trace(
        ticks, actors, codes, target_ids,
        array(typecode(cfg.payload_bytes), [cfg.payload_bytes]) * count,
        tuple(names),
        tuple(keys) + tuple(names),
    )


def trace_digest(trace: Trace) -> str:
    """SHA-256 of the trace-file text.  A Trace keeps its digest, so only
    the first call on it reads the events."""
    if trace._digest is None:
        digest = hashlib.sha256()
        for chunk in trace.chunks():
            digest.update(chunk.encode("utf-8"))
        trace._digest = digest.hexdigest()
    return trace._digest


def save_trace(trace: Trace, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(trace.chunks())


def input_lines(path) -> Iterator[tuple[int, str]]:
    """The number and stripped text of each line of the file at ``path``
    that is neither blank nor a ``#`` comment.  Only ``\\n`` ends a line, and
    a line that is not UTF-8 raises LineError."""
    with open(path, "rb") as handle:
        for line_no, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise LineError(line_no, f"not UTF-8 ({exc.reason})") from None
            if line and not line.startswith("#"):
                yield line_no, line


def load_trace(path) -> Trace:
    """Parse a trace file into a Trace.  A line that cannot run raises
    LineError for its line, checked in this order: a field count other than
    4 or 5, a timestamp that is not an integer, a fifth field on an action
    other than POST or one that is not an integer, a negative or decreasing
    tick, an unknown action, an actor that is empty or holds a ``/``, a
    FRIENDREQ to the actor or to a key, a malformed key, a POST under
    another user's key or without a non-negative size, and a tick or size
    past its column.

    Actors and targets are interned as they are read; the user set is known
    only at the end, when the actors are renumbered into it.  Each integer
    column starts one byte wide and is widened to ``typecode`` of the first
    value it cannot hold, so it ends as narrow as its largest value allows.
    """
    # Ticks, first-seen actor numbers (until the end), target ids, sizes.
    columns = [array("B") for _ in range(4)]
    ticks, actors, target_ids, sizes = columns
    actions = bytearray()
    names: dict[UserId, int] = {}
    target_ids_of: dict[str, int] = {}
    resolved: list[StorageKey | UserId] = []
    last_at = 0
    for line_no, line in input_lines(path):
        parts = line.split()
        if len(parts) not in (4, 5):
            raise LineError(line_no, f"expected 4 or 5 fields, got {len(parts)}")
        t_text, actor, action, target = parts[:4]
        try:
            at = int(t_text)
        except ValueError:
            raise LineError(line_no, f"bad timestamp {t_text!r}") from None
        size = None
        if len(parts) == 5:
            if action != POST:
                raise LineError(line_no, f"{action} takes exactly 4 fields")
            try:
                size = int(parts[4])
            except ValueError:
                raise LineError(line_no, f"bad payload size {parts[4]!r}") from None
        if at < 0:
            raise LineError(line_no, "timestamp must be non-negative")
        if at < last_at:
            raise LineError(line_no, f"timestamp {at} before {last_at}")
        code = _CODES.get(action)
        if code is None:
            raise LineError(line_no, f"unknown action {action!r}")
        if not actor or "/" in actor:
            raise LineError(line_no, f"actor must be a name without '/', got {actor!r}")
        t = target_ids_of.get(target)
        if code == FRIENDREQ_CODE:
            if target == actor or "/" in target:
                raise LineError(line_no, f"FRIENDREQ needs another user, got {target!r}")
            entry = target
        else:
            entry = None if t is None else resolved[t]
            if not isinstance(entry, StorageKey):  # new, or a friend-request name
                try:
                    entry = StorageKey.parse(target)
                except ValueError as exc:
                    raise LineError(line_no, str(exc)) from None
            if code == POST_CODE:
                if entry.owner != actor:
                    raise LineError(line_no, f"{actor!r} cannot POST under {target}")
                if size is None:
                    raise LineError(line_no, "POST requires a payload size")
                if size < 0:
                    raise LineError(line_no, "payload size must be non-negative")
        if code != POST_CODE:
            size = 0
        if at >= 2**63 or size >= 2**32:
            raise LineError(line_no, "timestamp or payload size too large")
        last_at = at
        actions.append(code)
        if t is None:
            t = target_ids_of[target] = len(resolved)
            resolved.append(entry)
        number = names.setdefault(actor, len(names))
        try:
            ticks.append(at)
            actors.append(number)
            target_ids.append(t)
            sizes.append(size)
        except OverflowError:  # widen each column that cannot hold its value
            for i, value in enumerate((at, number, t, size)):
                if len(columns[i]) < len(actions):  # not appended yet
                    if value >= 1 << 8 * columns[i].itemsize:
                        columns[i] = array(typecode(value), columns[i])
                    columns[i].append(value)
            ticks, actors, target_ids, sizes = columns
    owners = (r if isinstance(r, str) else r.owner for r in resolved)
    users = tuple(sorted(names.keys() | set(owners)))
    position = {name: i for i, name in enumerate(users)}
    renumber = [position[name] for name in names]
    del target_ids_of  # the largest table, not needed past parsing
    # A user named only as a target can sort before an actor.
    actors = array(typecode(len(users) - 1), map(renumber.__getitem__, actors))
    return Trace(ticks, actors, actions, target_ids, sizes, users, tuple(resolved))


def scenario_for_strategy(cfg: ScenarioConfig, kind: Strategy) -> ScenarioConfig:
    """A copy of ``cfg`` that runs ``kind``.  Its sections are frozen, so
    sharing them with ``cfg`` lets no override on either reach the other."""
    return replace(cfg, strategy=replace(cfg.strategy, kind=kind))


def scenario_for_setup(cfg: ScenarioConfig, setup: CacheSetup) -> ScenarioConfig:
    """A copy of ``cfg`` with the cache setup ``setup``, sharing its frozen
    sections."""
    return replace(cfg, cache_setup=setup)
