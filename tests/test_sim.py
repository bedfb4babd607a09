import gc
import io
import random
import sys
import tracemalloc
from array import array
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    NEW_KEYS_AFTER_SUBSCRIBING,
    dropping_new_slots,
    reference_schedule,
    reference_selection_round,
    trace_of,
)
from socicache import info_cache, social_cache
from socicache.cli import COMMANDS
from socicache.metrics import METRICS_COLUMNS, cache_hit_ratio, write_rows
from socicache.model import ContentObject
from socicache.peer import Peer
from socicache.sim import Simulation, run_all
from socicache.social_cache import (
    MucEntry,
    SelectionTrigger,
    SocialCache,
    Strategy,
    StrategyConfig,
)
from socicache.workload import (
    FRIENDREQ,
    LOOKUP,
    POST,
    CacheSetup,
    ConfigError,
    ScenarioConfig,
    TraceEvent,
    generate_trace,
)

TIME_TRIGGER = SelectionTrigger.TIME_BASED
COUNT_TRIGGER = SelectionTrigger.LOOKUP_COUNT_BASED
SOCIAL = Strategy.SOCIAL_SCORE


def two_peer_lookups(times: list[int]):
    """A trace of lookups at ``times``, the two peers taking turns."""
    return trace_of([
        TraceEvent(t, "a" if k % 2 else "b", LOOKUP, ("b" if k % 2 else "a") + "/wall/0")
        for k, t in enumerate(times)
    ])


def recorded_schedule(cfg: ScenarioConfig, times: list[int]) -> list[tuple[str, int]]:
    """Run a two-peer lookup trace and record the loop's calls in order."""
    sim = Simulation(cfg, two_peer_lookups(times))
    order: list[tuple[str, int]] = []
    apply_event, select, sample = sim._apply_event, sim._run_selection_round, sim._sample

    def on_event(at, *resolved):
        order.append(("event", at))
        apply_event(at, *resolved)

    def on_selection(now):
        order.append(("selection", now))
        select(now)

    def on_sample(now):
        order.append(("sample", now))
        sample(now)

    sim._apply_event, sim._run_selection_round, sim._sample = on_event, on_selection, on_sample
    sim.run()
    return order


@st.composite
def schedules(draw):
    duration = draw(st.integers(1, 60))
    interval = draw(st.integers(1, 80))
    cadence = draw(st.integers(1, 80))
    # Event times favour the tick times and the run end, where ties happen.
    ticks = [t for t in range(0, 2 * duration + 2)
             if t % interval == 0 or t % cadence == 0 or t in (duration, duration + 1)]
    times = sorted(draw(st.lists(
        st.one_of(st.sampled_from(ticks), st.integers(0, duration + 20)), max_size=25)))
    kind = draw(st.sampled_from(Strategy))
    trigger = draw(st.sampled_from(SelectionTrigger))
    setup = draw(st.sampled_from(CacheSetup))
    return duration, interval, cadence, times, kind, trigger, setup


@settings(max_examples=400, deadline=None)
@given(schedules())
# Events at a selection tick, a sample tick and the run end, plus one past it.
@example((30, 10, 15, [0, 10, 15, 20, 30, 31, 45], SOCIAL, TIME_TRIGGER, CacheSetup.BOTH))
# Selection and sample ticks coincide; events sit on the shared ticks.
@example((24, 6, 12, [6, 12, 12, 24, 24], SOCIAL, TIME_TRIGGER, CacheSetup.SOCIAL_ONLY))
# Interval and cadence both longer than the run: no ticks at all.
@example((20, 25, 40, [0, 5, 20, 21], Strategy.TREND, TIME_TRIGGER, CacheSetup.BOTH))
# Interval longer than the run, cadence inside it.
@example((20, 25, 5, [5, 10, 20], SOCIAL, TIME_TRIGGER, CacheSetup.BOTH))
# RANDOM and the lookup-count trigger schedule no selection ticks.
@example((30, 10, 10, [10, 20, 30, 40], Strategy.RANDOM, TIME_TRIGGER, CacheSetup.BOTH))
@example((30, 10, 10, [10, 20, 30, 40], SOCIAL, COUNT_TRIGGER, CacheSetup.BOTH))
# No social cache, no selection ticks; every event past the run.
@example((30, 10, 7, [31, 32], SOCIAL, TIME_TRIGGER, CacheSetup.CURRENT_ONLY))
# The last round (14) and sample (18) fall before the run end: one event
# sits on the last stop, more between it and the end.
@example((20, 7, 9, [18, 19, 20], SOCIAL, TIME_TRIGGER, CacheSetup.BOTH))
# An empty trace: every segment is a zero-length slice.
@example((30, 10, 7, [], SOCIAL, TIME_TRIGGER, CacheSetup.BOTH))
def test_event_loop_matches_pending_list_merge(case):
    duration, interval, cadence, times, kind, trigger, setup = case
    cfg = ScenarioConfig(
        peer_count=2,
        friends_per_user=1,
        sim_duration_ticks=duration,
        friend_request_phases=(),
        sample_cadence_ticks=cadence,
        cache_setup=setup,
        strategy=StrategyConfig(kind=kind, trigger=trigger, update_interval=interval),
    )
    time_selection = (setup.social_enabled and kind is not Strategy.RANDOM
                      and trigger is TIME_TRIGGER)
    # A trace that runs past the duration is refused whole; the loop is
    # compared on the events the run applies.
    within = [t for t in times if t <= duration]
    if within != times:
        with pytest.raises(ConfigError,
                           match=f"tick {times[-1]}, past sim_duration_ticks={duration}$"):
            Simulation(cfg, two_peer_lookups(times))
    want = reference_schedule(within, duration, interval, time_selection, cadence)
    assert recorded_schedule(cfg, within) == want


def test_simulation_refuses_a_trace_past_its_duration():
    """A Trace given to ``Simulation`` directly is refused, as a ``--trace``
    file is, when it runs past the duration, so no event is dropped; an
    event at exactly the duration runs and is counted."""
    trace = trace_of([TraceEvent(0, "b", POST, "b/wall/0", 8),
                      TraceEvent(400, "a", LOOKUP, "b/wall/0"),
                      TraceEvent(5_000, "a", LOOKUP, "b/wall/0")])
    cfg = ScenarioConfig(peer_count=2, friends_per_user=1, sim_duration_ticks=1_000,
                         friend_request_phases=())
    with pytest.raises(ConfigError, match="tick 5000, past sim_duration_ticks=1000$"):
        Simulation(cfg, trace)
    cfg.sim_duration_ticks = 5_000
    assert Simulation(cfg, trace).run().counters.total_requests == 2


def peer_states(sim: Simulation) -> list[tuple]:
    """Channels, receivers, MUC list and stored versions, each with the key
    at its slot (0 where none is held), of every peer."""
    key_at = {(key.owner, slot): str(key) for key, slot in sim.slot_of.items()}
    states = []
    for name in sorted(sim.peers):
        social = sim.peers[name].social
        entries = [(u, e.event_count, e.lookup_count, e.weighted, e.first_at, e.last_at)
                   for u, e in social.muc.items()]
        stored = {u: [(key_at.get((u, slot)), version) for slot, version in enumerate(section)]
                  for u, section in social.channels.items()}
        states.append((name, list(social.channels), list(social.receivers),
                       social.muc.total_events, entries, stored))
    return states


def replay_rounds(cfg: ScenarioConfig, trace: list[TraceEvent], *, reference: bool):
    """Run ``trace`` and record, after each selection round, its tick and
    every peer's state.  With ``reference`` each round evaluates every peer
    (``reference_selection_round``); otherwise the simulator's own round
    runs and each peer it skips is counted, by strategy and by whether the
    peer tracked more than ``n`` users.  Returns the round states, the
    ``metrics.csv`` text and summary of the run, and the skip counts."""
    sim = Simulation(cfg, trace_of(trace))
    rounds: list[tuple[int, list[tuple]]] = []
    skipped: Counter = Counter()
    evaluated: set[str] = set()

    run_selection = SocialCache.run_selection

    def counted(social, now):
        evaluated.add(social.owner)
        return run_selection(social, now)

    def own_round(now, run_round=sim._run_selection_round):
        above_n = {s.owner for s in sim._socials if len(s.muc) > cfg.strategy.n}
        evaluated.clear()
        run_round(now)
        for social in sim._socials:
            if social.owner not in evaluated:
                size = "above n" if social.owner in above_n else "at most n"
                skipped[f"{cfg.strategy.kind.value}, {size}"] += 1

    def on_round(now):
        if reference:
            reference_selection_round(sim, now)
        else:
            own_round(now)
        rounds.append((now, peer_states(sim)))

    # ``SocialCache`` has slots, so the count is patched on the class and
    # restored after the run.
    SocialCache.run_selection = counted
    sim._run_selection_round = on_round
    try:
        result = sim.run()
    finally:
        SocialCache.run_selection = run_selection
    handle = io.StringIO()
    write_rows(handle, METRICS_COLUMNS, result.ledger.rows())
    return rounds, (handle.getvalue(), result.summary), skipped


def random_selection_case(rng: random.Random, kind: Strategy):
    """A few peers, a small MUC capacity and channel limit, random weights
    and interval, and bursts of events between quiet stretches."""
    users = [f"u{i}" for i in range(rng.randrange(2, 7))]
    duration = rng.randrange(40, 240)
    alpha, beta = rng.choice([(0.9, 0.1), (0.5, 0.5),
                              (rng.uniform(0.01, 2.0), rng.uniform(0.01, 2.0))])
    lookup_weight, friend_weight = rng.choice([0.5, 1.0, 2.0]), rng.choice([0.5, 1.0, 3.0])
    strategy = StrategyConfig(kind=kind, n=rng.randrange(1, 4), alpha=alpha, beta=beta,
                              lookup_weight=lookup_weight, friend_request_weight=friend_weight,
                              update_interval=rng.randrange(1, 12))
    cfg = ScenarioConfig(
        peer_count=len(users),
        friends_per_user=1,
        sim_duration_ticks=duration,
        friend_request_phases=(),
        sample_cadence_ticks=rng.randrange(5, 40),
        cache_setup=rng.choice([CacheSetup.SOCIAL_ONLY, CacheSetup.BOTH]),
        strategy=strategy,
        muc_capacity=rng.randrange(2, 7),
    )
    trace = []
    at = 0
    while True:
        at += rng.choice([0, 0, 1, 2, 5, 20, 60])
        if at > duration:
            return cfg, trace
        actor = rng.choice(users)
        action = rng.choice([LOOKUP] * 6 + [POST, FRIENDREQ])
        if action == LOOKUP:
            trace.append(TraceEvent(at, actor, LOOKUP, f"{rng.choice(users)}/wall/{rng.randrange(3)}"))
        elif action == POST:
            trace.append(TraceEvent(at, actor, POST, f"{actor}/wall/{rng.randrange(3)}", 8))
        else:
            target = rng.choice([u for u in users if u != actor])
            trace.append(TraceEvent(at, actor, FRIENDREQ, target))


@pytest.mark.parametrize("kind", [Strategy.TREND, Strategy.SOCIAL_SCORE])
def test_skipped_rounds_match_every_peer_rounds(kind):
    """Random histories through the simulator's round, which skips peers,
    and through a round that evaluates every peer: the same state after
    every round and the same output."""
    rng = random.Random(f"round-skips/{kind.value}")
    skipped: Counter = Counter()
    changed = 0
    for _ in range(150):
        cfg, trace = random_selection_case(rng, kind)
        want_rounds, want_outputs, _ = replay_rounds(cfg, trace, reference=True)
        got_rounds, got_outputs, skips = replay_rounds(cfg, trace, reference=False)
        assert got_rounds == want_rounds
        assert got_outputs == want_outputs
        skipped.update(skips)
        changed += sum(a[1] != b[1] for a, b in zip(want_rounds, want_rounds[1:]))
    assert changed, "no round changed any state"
    # A skipped trend peer has an empty MUC list.
    cases = (["trend, at most n"] if kind is Strategy.TREND
             else ["social_score, at most n", "social_score, above n"])
    assert all(skipped[case] for case in cases), skipped


def test_round_at_an_exact_crossing_is_not_skipped():
    """The first boundary history of ``test_social_cache``, as a trace: the
    round at tick 26 changes the channel, and the six rounds from 14 to 24
    before it are skipped.  So are the rounds at 28 and 30: the new channel
    has a constant score, and the other scores only fall."""
    cfg = ScenarioConfig(
        peer_count=5,
        friends_per_user=1,
        sim_duration_ticks=30,
        friend_request_phases=(),
        sample_cadence_ticks=10,
        cache_setup=CacheSetup.SOCIAL_ONLY,
        strategy=StrategyConfig(
            kind=Strategy.SOCIAL_SCORE, n=1, alpha=0.6, beta=0.4, update_interval=2,
            friend_request_weight=2.0),
    )
    trace = [TraceEvent(at, "me", LOOKUP, f"{user}/wall/0")
             for at, user in ((2, "p3"), (6, "p0"), (8, "p3"), (10, "p2"))]
    trace += [TraceEvent(11, "me", FRIENDREQ, "p1"), TraceEvent(11, "me", LOOKUP, "p1/wall/0")]
    want_rounds, want_outputs, _ = replay_rounds(cfg, trace, reference=True)
    got_rounds, got_outputs, skips = replay_rounds(cfg, trace, reference=False)
    assert got_rounds == want_rounds
    assert got_outputs == want_outputs
    channels = {now: next(s[1] for s in states if s[0] == "me") for now, states in want_rounds}
    assert channels[24] == ["p3"] and channels[26] == ["p1"]
    assert skips["social_score, above n"] == 8


def small_run_config(kind: Strategy, setup: CacheSetup, trigger: SelectionTrigger = TIME_TRIGGER,
                     bootstrapping: bool = True) -> ScenarioConfig:
    """Twelve peers for ten simulated minutes, with a friend-request phase,
    bootstrap dumps (unless switched off) and selection rounds."""
    return ScenarioConfig(
        peer_count=12,
        friends_per_user=4,
        sim_duration_ticks=600_000,
        lookups_per_interaction=50,
        cache_setup=setup,
        strategy=StrategyConfig(kind=kind, n=3, m=20, update_interval=20_000, trigger=trigger),
        bootstrapping=bootstrapping,
    )


def test_content_of_one_size_shares_one_int():
    """Each read of a size past 256 from the trace makes a new int; a run
    shares one per size, so a content object costs no int of its own."""
    cfg = ScenarioConfig(peer_count=8, friends_per_user=4, sim_duration_ticks=600_000,
                         payload_bytes=512)
    sim = Simulation(cfg, generate_trace(cfg))
    sim.run()
    sizes = [obj.size for obj in sim.dht.entries.values()]
    assert len(sizes) == 8 * cfg.keys_per_user
    assert sizes[0] == 512 and len({id(size) for size in sizes}) == 1


# Every strategy, setup and trigger, with bootstrapping on and off.
RUN_CASES = (
    [(kind, CacheSetup.SOCIAL_ONLY, TIME_TRIGGER, True) for kind in Strategy]
    + [(SOCIAL, setup, TIME_TRIGGER, True)
       for setup in (CacheSetup.NONE, CacheSetup.CURRENT_ONLY, CacheSetup.BOTH)]
    + [(kind, CacheSetup.BOTH, COUNT_TRIGGER, True) for kind in Strategy]
    + [(SOCIAL, setup, trigger, False)
       for setup in (CacheSetup.SOCIAL_ONLY, CacheSetup.BOTH)
       for trigger in (TIME_TRIGGER, COUNT_TRIGGER)])


@pytest.mark.parametrize("kind, setup, trigger, bootstrapping", RUN_CASES)
def test_run_leaves_no_cyclic_garbage(kind, setup, trigger, bootstrapping):
    """The premise of pausing the collector in ``Simulation.run``: a run
    makes no reference cycles, so a collection right after it frees
    nothing while the result is kept.  Lookup-count runs select inside
    ``track``'s frame, so they are checked as well as time-based ones.
    Every section a run leaves is a ``bytearray`` or an ``array``, never
    ``None``."""
    cfg = small_run_config(kind, setup, trigger, bootstrapping)
    trace = generate_trace(cfg)
    gc.collect()
    sim = Simulation(cfg, trace)
    result = sim.run()
    assert gc.collect() == 0
    assert all(isinstance(section, (bytearray, array)) for social in sim._socials
               for section in social.channels.values())
    assert result.counters.total_requests > 0
    if setup.social_enabled:
        assert result.counters.subscriptions_sent > 0
        assert (result.counters.bootstrap_dumps > 0) == bootstrapping


def test_run_leaves_its_objects_in_the_oldest_generation():
    """What a run built is moved past the young generations, so the first
    collection after ``run`` does not walk it."""
    cfg = small_run_config(SOCIAL, CacheSetup.BOTH)
    sim = Simulation(cfg, generate_trace(cfg))
    sim.run()
    young = gc.get_objects(generation=0)
    assert not [obj for obj in young if isinstance(obj, (MucEntry, ContentObject))]
    oldest = gc.get_objects(generation=2)
    assert any(isinstance(obj, MucEntry) for obj in oldest)
    assert any(isinstance(obj, ContentObject) for obj in oldest)


@pytest.mark.parametrize("kind, setup, trigger, bootstrapping", RUN_CASES)
def test_derived_hit_ratio_is_the_sampled_one(kind, setup, trigger, bootstrapping):
    """The ledger derives each row's ``hit_ratio`` when read; it is the
    float ``cache_hit_ratio`` gives at that sample, or undefined alike."""
    cfg = small_run_config(kind, setup, trigger, bootstrapping)
    sim = Simulation(cfg, generate_trace(cfg))
    sampled = []
    sample = sim._sample

    def on_sample(now):
        sampled.append(cache_hit_ratio(sim.counters))
        sample(now)

    sim._sample = on_sample
    result = sim.run()
    column = METRICS_COLUMNS.index("hit_ratio")
    derived = [row[column] for row in result.ledger.rows()]
    assert len(derived) == len(sampled) > 0

    def exact(ratio):
        return None if ratio is None else ratio.hex()

    assert [exact(r) for r in derived] == [exact(r) for r in sampled]


@pytest.mark.parametrize(
    "kind, setup, trigger, bootstrapping",
    [case for case in RUN_CASES if case[1].social_enabled])
def test_runs_end_consistent(kind, setup, trigger, bootstrapping):
    """Every social store agrees with the overlay, holds each item at its
    key's slot and counts exactly its items.  Only a run without bootstrap
    dumps pads a section, where an update's slot lies past its end."""
    cfg = small_run_config(kind, setup, trigger, bootstrapping)
    sim = Simulation(cfg, generate_trace(cfg))
    # Messages go through the run's own peer table, the one both checks walk.
    assert sim.dispatcher.peers is sim.peers
    sim.run()
    assert sim.verify_consistency() == []
    assert sim.verify_subscription_symmetry() == []
    padded = any(0 in section for social in sim._socials
                 for section in social.channels.values())
    assert padded != bootstrapping


@pytest.mark.parametrize("break_one, violation", [
    (lambda peers: peers["u07"].social.receivers.pop("u00"),
     "u00 subscribes u07 but is not a receiver"),
    (lambda peers: peers["u00"].social.channels.pop("u07"),
     "u07 lists u00 without a subscription"),
])
def test_subscription_symmetry_reports_a_one_sided_subscription(break_one, violation):
    """u00 subscribes u07 at the end of this 8-peer run; dropping either
    side of that subscription is exactly one violation."""
    cfg = ScenarioConfig(peer_count=8, friends_per_user=4, sim_duration_ticks=600_000)
    sim = Simulation(cfg, generate_trace(cfg))
    sim.run()
    assert sim.verify_subscription_symmetry() == []
    break_one(sim.peers)
    assert sim.verify_subscription_symmetry() == [violation]


@pytest.mark.parametrize("bootstrapping", [True, False])
def test_a_lost_update_for_a_new_key_is_reported_only_with_dumps(bootstrapping, monkeypatch):
    """With bootstrapping on a section is a complete copy of its owner's
    ``own``, so an update lost for a key published after the dump is
    reported though no held item is stale: for a section that holds the
    dump and for one that never began (an empty dump).  Without dumps a
    section holds only what was pushed, so it is not checked for
    completeness."""
    cfg = ScenarioConfig(peer_count=3, friends_per_user=2, sim_duration_ticks=1_000,
                         friend_request_phases=(), bootstrapping=bootstrapping)
    trace = trace_of(NEW_KEYS_AFTER_SUBSCRIBING)
    sim = Simulation(cfg, trace)
    sim.run()
    assert sim.verify_consistency() == []
    monkeypatch.setattr(SocialCache, "on_social_update",
                        dropping_new_slots(SocialCache.on_social_update))
    sim = Simulation(cfg, trace)
    sim.run()
    assert list(sim.peers["a"].social.channels) == ["b", "c"]
    assert sim.verify_consistency() == ([
        "a: holds 1 items in 1 slots of b's 2",
        "a: holds 0 items in 0 slots of c's 1",
    ] if bootstrapping else [])


def misslotted(update):
    """``SocialCache.on_social_update`` made to store each version one slot
    past its key's slot."""
    def patched(cache, sender, content):
        slot_of = cache.slot_of
        cache.slot_of = {content.key: slot_of[content.key] + 1}
        try:
            return update(cache, sender, content)
        finally:
            cache.slot_of = slot_of
    return patched


@pytest.mark.parametrize("bootstrapping", [True, False])
def test_a_version_off_its_keys_slot_is_reported(bootstrapping, monkeypatch):
    """b's two keys hold different versions when a's updates for them land
    one slot off: each misplaced version disagrees with the overlay's
    version of the key at its slot, or sits at a slot of no key, so
    ``verify_consistency`` reports it, with or without a dump under it."""
    cfg = ScenarioConfig(peer_count=2, friends_per_user=1, sim_duration_ticks=1_000,
                         friend_request_phases=(), bootstrapping=bootstrapping)
    trace = trace_of([TraceEvent(0, "b", POST, "b/wall/0", 8),
                      TraceEvent(0, "b", POST, "b/wall/1", 8),
                      TraceEvent(10, "a", LOOKUP, "b/wall/0"),
                      TraceEvent(20, "b", POST, "b/wall/0", 8),
                      TraceEvent(30, "b", POST, "b/wall/0", 8),
                      TraceEvent(40, "b", POST, "b/wall/1", 8)])
    sim = Simulation(cfg, trace)
    sim.run()
    assert sim.peers["a"].social.channels["b"] == bytearray([3, 2])
    assert sim.verify_consistency() == []
    monkeypatch.setattr(SocialCache, "on_social_update",
                        misslotted(SocialCache.on_social_update))
    sim = Simulation(cfg, trace)
    sim.run()
    assert sim.peers["a"].social.channels["b"] == bytearray([1, 3, 2] if bootstrapping
                                                            else [0, 3, 2])
    off_slot = ["a: b/wall/1 version 3 != overlay 2",
                "a: version 2 at slot 2 of b's section, which has no key"]
    assert sim.verify_consistency() == ([
        "a: holds 3 items in 3 slots of b's 2",
        "a: b/wall/0 version 1 != overlay 3",
        *off_slot,
    ] if bootstrapping else off_slot)


@pytest.mark.parametrize("bootstrapping", [True, False])
def test_a_version_past_255_widens_its_container(bootstrapping):
    """Versions start in one byte per slot.  b posts one key 300 times
    after a subscribes: b's own content and a's section of b each move to
    a wider array and hold 300, not 300 % 256, and the run ends
    consistent."""
    cfg = ScenarioConfig(peer_count=2, friends_per_user=1, sim_duration_ticks=1_000,
                         friend_request_phases=(), bootstrapping=bootstrapping)
    trace = trace_of([TraceEvent(0, "b", POST, "b/wall/0", 8),
                      TraceEvent(10, "a", LOOKUP, "b/wall/0"),
                      *[TraceEvent(20 + i, "b", POST, "b/wall/0", 8) for i in range(299)]])
    sim = Simulation(cfg, trace)
    sim.run()
    key = trace.resolved[0]
    assert list(sim.peers["a"].social.channels) == ["b"]
    assert sim.dht.entries[key].version == 300
    assert sim.peers["b"].social.lookup(key) == sim.peers["a"].social.lookup(key) == 300
    assert sim.verify_consistency() == []


def test_social_state_costs_a_bound_per_channel_and_per_tracked_user():
    """What the social caches of a 128-peer run still hold from their own
    allocations, apart from the version containers (each ``own`` and each
    channel's section) and the shared ``slot_of``, is about 108.5 bytes per
    channel plus tracked user: the MUC entries and their values, the dict
    slots and each cache's fixed part.  A stored gap per MUC entry would add
    about 18 bytes to that, and a second user -> section dict about 12, so
    either exceeds the bound."""
    cfg = ScenarioConfig(peer_count=128, friends_per_user=25, lookups_per_interaction=5.0,
                         new_experiment_time_days=0.01)
    trace = generate_trace(cfg)
    tracemalloc.start()
    try:
        sim = Simulation(cfg, trace)
        sim.run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = snapshot.filter_traces([tracemalloc.Filter(True, social_cache.__file__)])
    size = sum(stat.size for stat in held.statistics("filename"))
    lists = [sim.slot_of] + [social.own for social in sim._socials] + [
        section for social in sim._socials for section in social.channels.values()]
    channels = sum(len(social.channels) for social in sim._socials)
    tracked = sum(len(social.muc) for social in sim._socials)
    assert channels > 1_500 and tracked > 2_000
    assert (size - sum(map(sys.getsizeof, lists))) / (channels + tracked) <= 116


def test_a_dumped_section_costs_under_140_bytes():
    """Each section of a 128-peer run with bootstrapping is a dump, a copy
    of its owner's 20 versions made on one line of ``social_cache``; what
    that line still holds after the run is 77 bytes per section, a
    ``bytearray`` and its 21-byte buffer.  A section that kept the 20
    ``ContentObject`` references in a list cost 216 bytes."""
    cfg = ScenarioConfig(peer_count=128, friends_per_user=25, lookups_per_interaction=5.0,
                         new_experiment_time_days=0.01)
    trace = generate_trace(cfg)
    tracemalloc.start()
    try:
        sim = Simulation(cfg, trace)
        sim.run()
        snapshot = tracemalloc.take_snapshot()
        sections = [section for social in sim._socials for section in social.channels.values()]
        lines = {tuple(tracemalloc.get_object_traceback(section)) for section in sections}
    finally:
        tracemalloc.stop()
    assert len(sections) > 1_500 and {len(section) for section in sections} == {20}
    ((frame,),) = lines  # every section comes from the one line that copies a dump
    assert frame.filename == social_cache.__file__
    held = snapshot.filter_traces([tracemalloc.Filter(True, frame.filename, frame.lineno)])
    assert sum(stat.size for stat in held.statistics("lineno")) / len(sections) < 140


def test_current_cache_costs_a_bound_per_entry():
    """What ``info_cache`` allocates in a 128-peer run is only the entry
    dicts' tables: 48 bytes per entry with the current cache alone and 64
    with both caches, where fewer entries leave the tables emptier.  An
    entry that kept its reply as a ``(content, inserted_at)`` tuple cost
    about 95 bytes in both setups, so it exceeds the bound."""
    for setup in (CacheSetup.CURRENT_ONLY, CacheSetup.BOTH):
        cfg = ScenarioConfig(peer_count=128, friends_per_user=25, lookups_per_interaction=5.0,
                             new_experiment_time_days=0.01, cache_setup=setup)
        trace = generate_trace(cfg)
        tracemalloc.start()
        try:
            sim = Simulation(cfg, trace)
            sim.run()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        held = snapshot.filter_traces([tracemalloc.Filter(True, info_cache.__file__)])
        size = sum(stat.size for stat in held.statistics("filename"))
        entries = sum(len(current.entries) for current in sim._currents)
        assert entries > 4_000, setup
        assert size / entries <= 80, setup


@pytest.mark.parametrize("bootstrapping", [True, False])
@pytest.mark.parametrize("setup", [CacheSetup.BOTH, CacheSetup.CURRENT_ONLY])
def test_each_key_has_one_live_content_object(setup, bootstrapping):
    """Every holder of content keeps only a key's latest version, the one
    object the overlay holds, so a run leaves one live ``ContentObject``
    per key.  A current cache that kept each reply kept superseded
    versions alive: for these 320 keys, 365 objects with both caches and
    bootstrapping, 623 with both caches without it, and 363 with the
    current cache alone."""
    cfg = ScenarioConfig(peer_count=16, friends_per_user=4, lookups_per_interaction=50,
                         cache_setup=setup, bootstrapping=bootstrapping)
    trace = generate_trace(cfg)

    def live():
        gc.collect()
        return sum(isinstance(obj, ContentObject) for obj in gc.get_objects())

    before = live()
    sim = Simulation(cfg, trace)
    sim.run()
    assert all(current.entries for current in sim._currents)
    assert max(obj.version for obj in sim.dht.entries.values()) > 1  # keys were re-posted
    assert live() - before == len(sim.dht.entries) == 320


def test_bootstrapped_sections_cost_at_most_6_bytes_per_item():
    """A section is a ``bytearray`` of one version byte per slot, 77 bytes
    for 20 slots, about 3.9 bytes per item with its header.  As a list of
    8-byte references it cost about 10.8 bytes per item, and as a key ->
    object dict about 32."""
    cfg = small_run_config(SOCIAL, CacheSetup.SOCIAL_ONLY)
    sim = Simulation(cfg, generate_trace(cfg))
    sim.run()
    items = sum(social.store_items for social in sim._socials)
    size = sum(sys.getsizeof(section) for social in sim._socials
               for section in social.channels.values())
    assert items > 100
    assert size / items <= 6


@pytest.mark.parametrize(
    "kind, setup, trigger",
    [case[:3] for case in RUN_CASES if case[3] and case[1].social_enabled])
def test_dumps_land_in_an_empty_section(kind, setup, trigger, monkeypatch):
    """The premise of ``SocialCache.on_bootstrap`` storing a dump whole: a
    dump answers its peer's own subscribe to a user that was not a channel,
    so the sender's section is the empty one ``_subscribe`` stored when it
    arrives, also when the peer subscribes again to a user it unsubscribed
    earlier in the run."""
    cfg = small_run_config(kind, setup, trigger)
    dropped: set[tuple[str, str]] = set()
    seen = Counter()
    on_bootstrap, unsubscribe = SocialCache.on_bootstrap, SocialCache._unsubscribe

    def observed_unsubscribe(social, user):
        dropped.add((social.owner, user))
        return unsubscribe(social, user)

    def observed_bootstrap(social, sender, items):
        seen["dumps"] += 1
        assert len(social.channels[sender]) == 0
        seen["re-subscribes"] += (social.owner, sender) in dropped
        return on_bootstrap(social, sender, items)

    # ``SocialCache`` has slots, so both are patched on the class.
    monkeypatch.setattr(SocialCache, "_unsubscribe", observed_unsubscribe)
    monkeypatch.setattr(SocialCache, "on_bootstrap", observed_bootstrap)
    result = Simulation(cfg, generate_trace(cfg)).run()
    assert seen["dumps"] == result.counters.bootstrap_dumps > 0
    # At this size a lookup-count run unsubscribes 4 times and subscribes to
    # none of those users again; every time-triggered run does.
    if trigger is TIME_TRIGGER:
        assert seen["re-subscribes"] > 0, seen


@pytest.mark.parametrize(
    "kind, setup, trigger, bootstrapping",
    [case for case in RUN_CASES if case[1].social_enabled])
def test_messages_find_the_subscription_state_they_assume(kind, setup, trigger, bootstrapping,
                                                          monkeypatch):
    """The premise of the ``SocialCache`` handlers, on whole runs: an update
    comes from a channel, a subscribe from a user that is not a receiver yet
    and an unsubscribe from one that is.  Each is checked before the handler
    runs, so a handler that dropped such a message would not hide it."""
    cfg = small_run_config(kind, setup, trigger, bootstrapping)
    seen = Counter()
    on_update = SocialCache.on_social_update
    on_subscribe = SocialCache.on_subscribe_received
    on_unsubscribe = SocialCache.on_unsubscribe_received

    def observed_update(social, sender, content):
        seen["updates"] += 1
        assert sender in social.channels, (social.owner, sender)
        return on_update(social, sender, content)

    def observed_subscribe(social, subscriber):
        seen["subscribes"] += 1
        assert subscriber not in social.receivers, (social.owner, subscriber)
        return on_subscribe(social, subscriber)

    def observed_unsubscribe(social, subscriber):
        seen["unsubscribes"] += 1
        assert subscriber in social.receivers, (social.owner, subscriber)
        return on_unsubscribe(social, subscriber)

    # ``SocialCache`` has slots, so the handlers are patched on the class.
    monkeypatch.setattr(SocialCache, "on_social_update", observed_update)
    monkeypatch.setattr(SocialCache, "on_subscribe_received", observed_subscribe)
    monkeypatch.setattr(SocialCache, "on_unsubscribe_received", observed_unsubscribe)
    sim = Simulation(cfg, generate_trace(cfg))
    result = sim.run()
    assert seen["subscribes"] == result.counters.subscriptions_sent
    assert seen["unsubscribes"] == result.counters.unsubscriptions_sent
    assert min(seen[message] for message in ("updates", "subscribes", "unsubscribes")) > 0, seen
    assert sim.verify_subscription_symmetry() == []


@pytest.mark.parametrize(
    "kind, setup, trigger, bootstrapping",
    [case for case in RUN_CASES if case[1].social_enabled])
def test_social_hits_are_never_stale(kind, setup, trigger, bootstrapping, monkeypatch):
    """Every social-cache hit returns the overlay's version of its key at
    serve time.  The experiment is short enough that users re-post inside
    the run, so hits are served after updates, not only from the first
    posts."""
    cfg = small_run_config(kind, setup, trigger, bootstrapping)
    cfg.new_experiment_time_days = 0.005
    sim = Simulation(cfg, generate_trace(cfg))
    versions = []
    lookup = SocialCache.lookup

    def observed(social, key):
        version = lookup(social, key)
        if version is not None:
            assert version == sim.dht.entries[key].version, (social.owner, key)
            versions.append(version)
        return version

    # ``SocialCache`` has slots, so the lookup is patched on the class.
    monkeypatch.setattr(SocialCache, "lookup", observed)
    result = sim.run()
    assert len(versions) == result.counters.social_hits
    assert max(versions) > 1


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("fails", [False, True])
def test_run_restores_the_collector_state(enabled, fails, monkeypatch):
    """The collector is paused while the run's events are applied and left
    as it was found afterwards, also when a handler raises."""
    cfg = small_run_config(SOCIAL, CacheSetup.BOTH)
    sim = Simulation(cfg, generate_trace(cfg))
    during = []
    handle_request = Peer.handle_request

    def observed(peer, key, now):
        during.append(gc.isenabled())
        if fails:
            raise RuntimeError("handler failed")
        return handle_request(peer, key, now)

    monkeypatch.setattr(Peer, "handle_request", observed)
    try:
        (gc.enable if enabled else gc.disable)()
        if fails:
            with pytest.raises(RuntimeError, match="handler failed"):
                sim.run()
        else:
            sim.run()
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert during and not any(during)


@pytest.mark.parametrize("command, kind", [
    ("run", Strategy.SOCIAL_SCORE),
    ("compare-strategies", Strategy.TREND),
    ("compare-caches", Strategy.TREND),
])
def test_every_command_checks_every_run_before_the_trace(monkeypatch, command, kind):
    """Zero social-score weights are refused before the trace is made, in
    each command's plan of runs.  The comparisons' base config runs trend,
    which reads no weights; in compare-strategies only the last run scores."""
    generated = []
    monkeypatch.setattr("socicache.sim.generate_trace", generated.append)
    cfg = ScenarioConfig(peer_count=8, friends_per_user=4, sim_duration_ticks=60_000)
    cfg.strategy = StrategyConfig(kind=kind, alpha=0.0, beta=0.0)
    with pytest.raises(ConfigError, match="alpha \\+ beta must be positive"):
        run_all(COMMANDS[command].plan(cfg))
    assert generated == []
