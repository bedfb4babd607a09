import hashlib
import random
import statistics
import tracemalloc
from array import array
from dataclasses import FrozenInstanceError, replace
from itertools import accumulate, islice
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    _reference_tier_weights,
    event_line,
    reference_generate_trace,
    reference_trace_users,
    trace_of,
)
import socicache
from socicache import cli, workload
from socicache.sim import Simulation
from socicache.social_cache import SelectionTrigger, Strategy, StrategyConfig
from socicache.workload import (
    CHUNK_LINES,
    FRIENDREQ,
    LOOKUP,
    POST,
    WINDOW_EVENTS,
    CacheSetup,
    ConfigError,
    CurrentCacheConfig,
    DatasetStats,
    LineError,
    ScenarioConfig,
    Trace,
    TraceEvent,
    _in_tick_order,
    build_friend_graph,
    generate_trace,
    load_trace,
    peer_names,
    sampled_interval,
    save_trace,
    scenario_for_setup,
    scenario_for_strategy,
    trace_digest,
)


def small_config(**kwargs):
    kwargs.setdefault("peer_count", 8)
    kwargs.setdefault("friends_per_user", 4)
    kwargs.setdefault("sim_duration_ticks", 600_000)
    return ScenarioConfig(**kwargs)


# -- interval sampling ---------------------------------------------------------

def test_sampled_interval_dataset_values():
    assert sampled_interval(43.0402, 869.458, 2.0) == pytest.approx(10.1006, abs=5e-4)


def test_sampled_interval_exact_arithmetic():
    assert sampled_interval(43.5, 870.0, 2.0) == pytest.approx(10.0)


# -- friend graph -----------------------------------------------------------------

def test_graph_is_regular_and_symmetric():
    graph = build_friend_graph(64, 25)
    for i, friends in enumerate(graph):
        assert len(friends) == 25
        assert i not in friends
        for j in friends:
            assert i in graph[j]


def test_complete_graph_allowed():
    graph = build_friend_graph(64, 63)
    assert all(len(f) == 63 for f in graph)


def test_friend_count_must_be_below_peer_count():
    with pytest.raises(ConfigError):
        ScenarioConfig(peer_count=64, friends_per_user=64).validate()


def test_odd_degree_needs_even_population():
    with pytest.raises(ConfigError, match="^no 3-regular graph exists on 7 peers$") as caught:
        build_friend_graph(7, 3)
    assert caught.value.keys == ("peer_count", "friends_per_user")


# -- trace generation ----------------------------------------------------------------

def test_generation_is_deterministic():
    cfg = small_config(peer_count=4, friends_per_user=1, seed=99)
    a = generate_trace(cfg)
    b = generate_trace(cfg)
    assert trace_digest(a) == trace_digest(b)
    assert list(a.chunks()) == list(b.chunks())


def test_different_seeds_differ():
    a = generate_trace(small_config(seed=1))
    b = generate_trace(small_config(seed=2))
    assert trace_digest(a) != trace_digest(b)


def test_events_in_time_order_within_duration():
    cfg = small_config()
    trace = generate_trace(cfg)
    times = [e.at for e in trace]
    assert times == sorted(times)
    assert times[-1] <= cfg.duration


def test_lookups_target_friend_keys_only():
    cfg = small_config()
    names = peer_names(cfg.peer_count)
    graph = build_friend_graph(cfg.peer_count, cfg.friends_per_user)
    friends = {
        names[i]: {names[j] for j in graph[i]} for i in range(cfg.peer_count)
    }
    for ev in generate_trace(cfg):
        if ev.action == LOOKUP:
            owner = ev.target.split("/", 1)[0]
            assert owner in friends[ev.actor]
        elif ev.action == POST:
            assert ev.target.split("/", 1)[0] == ev.actor


def test_every_user_seeds_its_keyspace_at_start():
    cfg = small_config(keys_per_user=5)
    seeded = {}
    for ev in generate_trace(cfg):
        if ev.action == POST and ev.at == 0:
            seeded.setdefault(ev.actor, set()).add(ev.target)
    assert set(seeded) == set(peer_names(cfg.peer_count))
    assert all(len(keys) == 5 for keys in seeded.values())


def test_friend_requests_fall_in_phases():
    cfg = small_config(initial_friend_fraction=0.5)
    trace = generate_trace(cfg)
    reqs = [e for e in trace if e.action == FRIENDREQ]
    assert reqs, "expected phased friend requests"
    phase_starts = cfg.phases
    for ev in reqs:
        assert any(start <= ev.at <= start + 60_000 for start in phase_starts)


def test_friend_requests_in_a_phase_at_tick_zero_are_sent():
    """A phase at tick 0 sends its edges' requests like any other phase;
    only the initial edges are active without one."""
    cfg = ScenarioConfig(peer_count=16, friends_per_user=6, new_experiment_time_days=0.01,
                         friend_request_phases=(0,))
    names = peer_names(cfg.peer_count)
    graph = build_friend_graph(cfg.peer_count, cfg.friends_per_user)
    edges = {frozenset((names[i], names[j])) for i, row in enumerate(graph) for j in row}
    initial = round(len(edges) * cfg.initial_friend_fraction)
    reqs = [ev for ev in generate_trace(cfg) if ev.action == FRIENDREQ]
    requested = {frozenset((ev.actor, ev.target)) for ev in reqs}
    assert len(reqs) == len(requested) == len(edges) - initial > 0
    assert requested <= edges
    assert all(0 <= ev.at <= 60_000 for ev in reqs)


@st.composite
def small_scenarios(draw):
    """Small configs whose short gaps put many events on shared ticks,
    within and across the post, friend-request and lookup streams."""
    peers = draw(st.integers(2, 9))
    # An odd degree needs an even population.
    degree = draw(st.sampled_from([d for d in range(1, peers) if not d % 2 or not peers % 2]))
    duration = draw(st.integers(1, 1000))
    phases = draw(st.one_of(st.none(), st.lists(st.integers(0, duration), max_size=3)))
    return ScenarioConfig(
        peer_count=peers,
        friends_per_user=degree,
        sim_duration_ticks=duration,
        new_experiment_time_days=draw(st.sampled_from([0.0001, 0.001, 0.01])),
        lookups_per_interaction=draw(st.sampled_from([1.0, 20.0, 400.0])),
        friend_request_phases=None if phases is None else tuple(phases),
        initial_friend_fraction=draw(st.sampled_from([0.0, 0.3, 0.6, 1.0])),
        keys_per_user=draw(st.integers(1, 4)),
        payload_bytes=draw(st.integers(0, 64)),
        tier_sizes=(1, 2),
        tier_shares=(0.5, 0.3, 0.2),
        seed=draw(st.integers(0, 10_000)),
    )


def _edge_case(**kwargs):
    kwargs.setdefault("sim_duration_ticks", 1000)
    kwargs.setdefault("new_experiment_time_days", 0.0001)
    kwargs.setdefault("lookups_per_interaction", 400.0)
    return ScenarioConfig(**kwargs)


@settings(max_examples=60, deadline=None)
@given(small_scenarios())
@example(_edge_case(peer_count=6, friends_per_user=3, seed=1))  # odd degree, even population
@example(_edge_case(peer_count=5, friends_per_user=2, friend_request_phases=(), seed=2))
@example(_edge_case(peer_count=4, friends_per_user=2, initial_friend_fraction=0.0, seed=3))
@example(_edge_case(peer_count=4, friends_per_user=2, initial_friend_fraction=1.0, seed=4))
@example(small_config(seed=42))
def test_generator_matches_tuple_sort_reference(cfg):
    assert list(generate_trace(cfg)) == reference_generate_trace(cfg)


@pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
def test_lookups_never_target_a_friend_of_weight_zero(fraction):
    """Only the middle tier weighs anything: each peer's first two and last
    two friends in tier order are never looked up, also while they are its
    only active friends."""
    cfg = small_config(friends_per_user=6, tier_sizes=(2, 2), tier_shares=(0.0, 1.0, 0.0),
                       initial_friend_fraction=fraction)
    names = peer_names(cfg.peer_count)
    graph = build_friend_graph(cfg.peer_count, cfg.friends_per_user)
    weighted = {}
    for name, row in zip(names, graph):
        ordered = [names[j] for j in row]
        random.Random(f"{cfg.seed}/tiers/{name}").shuffle(ordered)
        weighted[name] = set(ordered[2:4])
    trace = generate_trace(cfg)
    lookups = [ev for ev in trace if ev.action == LOOKUP]
    assert lookups
    assert all(ev.target.split("/", 1)[0] in weighted[ev.actor] for ev in lookups)
    assert list(trace) == reference_generate_trace(cfg)


@st.composite
def tier_tables(draw):
    """A friend count and valid tiers: positive sizes, one share more."""
    sizes = tuple(draw(st.lists(st.integers(1, 20), max_size=4)))
    shares = tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=len(sizes) + 1,
                                 max_size=len(sizes) + 1)))
    return draw(st.integers(0, 60)), sizes, shares


@settings(max_examples=300, deadline=None)
@given(tier_tables())
@example((0, (5, 10), (0.65, 0.32, 0.03)))  # no friends at all
@example((3, (5, 10), (0.65, 0.32, 0.03)))  # the first tier holds every friend
@example((15, (5, 10), (0.65, 0.32, 0.03)))  # the last tier is empty
@example((40, (5, 10), (0.65, 0.32, 0.03)))
def test_tier_weights_match_the_reference_bit_for_bit(table):
    got, want = workload._tier_weights(*table), _reference_tier_weights(*table)
    assert [w.hex() for w in got] == [w.hex() for w in want]


def test_post_interarrival_mean_tracks_configured_gap():
    # Law-of-large-numbers check over >= 10k generated gaps.
    cfg = ScenarioConfig(
        peer_count=4,
        friends_per_user=2,
        sim_duration_ticks=None,
        new_experiment_time_days=0.25,
        seed=5,
        lookups_per_interaction=0.001,  # posts dominate; lookups irrelevant here
    )
    target = cfg.interaction_gap_ticks()
    # lengthen the run so each user draws thousands of post gaps
    cfg.sim_duration_ticks = int(target * 3000)
    cfg.friend_request_phases = ()
    trace = generate_trace(cfg)
    gaps = []
    last_by_user: dict[str, int] = {}
    for ev in trace:
        if ev.action == POST and ev.at > 0:
            if ev.actor in last_by_user:
                gaps.append(ev.at - last_by_user[ev.actor])
            last_by_user[ev.actor] = ev.at
    assert len(gaps) >= 10_000
    assert statistics.fmean(gaps) == pytest.approx(target, rel=0.05)


# -- config validation ------------------------------------------------------------------

# One case at least per rule of ``ScenarioConfig.validate`` and of
# ``StrategyConfig.validate``.
@pytest.mark.parametrize(
    "kwargs",
    [
        {"peer_count": 1},
        {"friends_per_user": 0},
        {"sim_duration_ticks": 0},
        {"initial_friend_fraction": 1.5},
        {"keys_per_user": 0},
        {"lookups_per_interaction": 0},
        {"tier_shares": (1.0,)},
        {"tier_sizes": (5, 10), "tier_shares": (0.0, 0.0, 1.0)},  # every friend weighs 0
        {"replication_factor": 0},
        {"payload_bytes": -1},
        {"payload_bytes": 2**32},
        {"dataset": DatasetStats(avg_ts_interaction_days=0)},
        {"friends_per_user": 8},
        {"new_experiment_time_days": 0},
        {"sim_duration_ticks": None, "new_experiment_time_days": 1e-12},
        {"muc_capacity": 0},
        {"sample_cadence_ticks": 0},
        {"current_cache": CurrentCacheConfig(ttl_ticks=0)},
        {"current_cache": CurrentCacheConfig(capacity=0)},
        {"dataset": DatasetStats(experiment_span_days=0)},
        {"tier_shares": (1.0, 0.5, -0.5)},
        {"tier_sizes": (0, 10)},
        {"friend_request_phases": (600_001,)},
        {"strategy": StrategyConfig(n=0)},
        {"strategy": StrategyConfig(alpha=-0.1)},
        {"strategy": StrategyConfig(alpha=0.0, beta=0.0)},
        {"strategy": StrategyConfig(trigger=SelectionTrigger.LOOKUP_COUNT_BASED, n=15, m=15)},
        {"strategy": StrategyConfig(friend_request_weight=-1.0)},
        {"strategy": StrategyConfig(update_interval=0)},
    ],
)
def test_invalid_configs_rejected(kwargs):
    """Each rule names the fields it read, one the case set among them, and
    each is a config key (under its key name), so the CLI can name the file
    line that set it."""
    with pytest.raises(ConfigError) as caught:
        small_config(**kwargs).validate()
    keys = caught.value.keys
    assert any(path.partition(".")[0] in kwargs for path in keys), keys
    for path in keys:
        assert cli._RENAMED.get(path, path) in cli._KEYS, path


@pytest.mark.parametrize("days", [-1, 1e-12])
def test_a_run_too_short_names_the_key_that_set_it(days):
    """With no ``sim_duration_ticks``, the run's length comes from
    ``new_experiment_time_days``, so that is the key the error names."""
    with pytest.raises(ConfigError, match="^new_experiment_time_days "):
        ScenarioConfig(new_experiment_time_days=days).validate()


@pytest.mark.parametrize("derive", [
    lambda cfg: scenario_for_setup(cfg, CacheSetup.NONE),
    lambda cfg: scenario_for_strategy(cfg, Strategy.TREND),
], ids=["setup", "strategy"])
def test_override_on_a_derived_config_leaves_its_base_unchanged(derive):
    base = ScenarioConfig()
    derived = derive(base)
    # Every section is frozen, so the derived config may share them with its
    # base: assigning into one raises, and an override replaces it.
    with pytest.raises(FrozenInstanceError):
        derived.current_cache.capacity = 7
    with pytest.raises(FrozenInstanceError):
        derived.dataset.avg_ts_interaction_days = 1.0
    derived.current_cache = replace(derived.current_cache, capacity=7)
    derived.dataset = replace(derived.dataset, avg_ts_interaction_days=1.0)
    derived.strategy = replace(derived.strategy, alpha=0.5, lookup_weight=9.0)
    assert base == ScenarioConfig()
    derived.peer_count = 9
    derived.tier_sizes = (2, 3)
    assert base == ScenarioConfig()
    base.seed = 5
    assert derived.seed == ScenarioConfig().seed


def test_package_version_is_the_project_version():
    project = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert f'\nversion = "{socicache.__version__}"\n' in project


def test_cache_setup_flags():
    assert CacheSetup.BOTH.social_enabled and CacheSetup.BOTH.current_enabled
    assert not CacheSetup.NONE.social_enabled and not CacheSetup.NONE.current_enabled
    assert CacheSetup.SOCIAL_ONLY.social_enabled != CacheSetup.SOCIAL_ONLY.current_enabled


# -- trace files ---------------------------------------------------------------------------

def typecodes(trace: Trace) -> tuple[str, ...]:
    return tuple(column.format for column in
                 (trace.ticks, trace.actors, trace.target_ids, trace.sizes))


def test_trace_file_round_trip(tmp_path):
    cfg = small_config(peer_count=4, friends_per_user=2)
    trace = generate_trace(cfg)
    path = tmp_path / "trace.txt"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert list(loaded.chunks()) == list(trace.chunks())
    assert typecodes(loaded) == typecodes(trace) == ("I", "B", "B", "H")


def test_load_well_formed_lines(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(
        "0 alice POST alice/wall/0 512\n"
        "10 bob LOOKUP alice/wall/0\n"
        "20 alice FRIENDREQ bob\n"
    )
    events = load_trace(path)
    assert len(events) == 3
    assert list(events)[0].payload_size == 512


def test_load_rejects_time_regression(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("10 a LOOKUP b/wall/0\n5 a LOOKUP b/wall/0\n")
    with pytest.raises(LineError) as err:
        load_trace(path)
    assert err.value.line_no == 2


@pytest.mark.parametrize(
    "line",
    [
        "abc a LOOKUP b/wall/0",
        "10 a NOSUCH b/wall/0",
        "10 a LOOKUP noslash",
        "10 a POST a/wall/0",  # POST without payload size
        "10 a LOOKUP b/wall/0 512",  # LOOKUP with stray field
        "10 a",
        "10 a POST b/wall/0 512",  # POST under another user's key
        "10 a FRIENDREQ a",  # friend request to self
        "10 a FRIENDREQ b/wall/0",  # friend request to a key
        "10 a POST a/wall/0 4294967296",  # payload size past the column's range
        "9223372036854775808 a LOOKUP b/wall/0",  # tick past the column's range
    ],
)
def test_load_rejects_malformed_lines(tmp_path, line):
    path = tmp_path / "t.txt"
    path.write_text("0 a LOOKUP b/wall/0\n" + line + "\n")
    with pytest.raises(LineError) as err:
        load_trace(path)
    assert err.value.line_no == 2


@pytest.mark.parametrize(
    ("line", "reason"),
    [
        ("-1 bob LOOKUP alice/x 5", "LOOKUP takes exactly 4 fields"),
        ("5 bob POST alice/x nope", "bad payload size 'nope'"),
        ("-1 bob FOO alice/x", "timestamp must be non-negative"),
        ("5 a/b LOOKUP nokey", "actor must be a name without '/', got 'a/b'"),
        ("5 bob POST alice/x", "'bob' cannot POST under alice/x"),
        ("5 bob POST bob/x -3", "payload size must be non-negative"),
    ],
)
def test_a_line_with_several_faults_reports_the_first_checked(tmp_path, line, reason):
    """Each line breaks two rules; the reason is that of the rule
    ``load_trace`` checks first."""
    path = tmp_path / "t.txt"
    path.write_text(line + "\n")
    with pytest.raises(LineError) as err:
        load_trace(path)
    assert (err.value.line_no, err.value.reason) == (1, reason)


def test_load_rejects_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "t.txt"
    path.write_bytes(b"0 a LOOKUP b/wall/0\n10 a LOOKUP b/wall/\xff\n")
    with pytest.raises(LineError) as err:
        load_trace(path)
    assert err.value.line_no == 2
    assert err.value.reason == "not UTF-8 (invalid start byte)"


@pytest.mark.parametrize(
    "event",
    [
        pytest.param(TraceEvent(5, "a", LOOKUP, "b/wall/0"), id="time-regression"),
        pytest.param(TraceEvent(-1, "a", LOOKUP, "b/wall/0"), id="negative-tick"),
        pytest.param(TraceEvent(10, "a", POST, "b/wall/0", 512), id="post-not-owner"),
        pytest.param(TraceEvent(10, "a", POST, "a/wall/0"), id="post-without-size"),
        pytest.param(TraceEvent(10, "a", POST, "a/wall/0", -1), id="negative-size"),
        pytest.param(TraceEvent(10, "a", FRIENDREQ, "a"), id="friendreq-self"),
        pytest.param(TraceEvent(10, "a", FRIENDREQ, "b/wall/0"), id="friendreq-key"),
        pytest.param(TraceEvent(10, "a", LOOKUP, "noslash"), id="malformed-key"),
        pytest.param(TraceEvent(10, "a/b", LOOKUP, "c/wall/0"), id="actor-with-slash"),
        # "b" was interned as the first event's friend-request target.
        pytest.param(TraceEvent(10, "a", LOOKUP, "b"), id="friendreq-name-as-key"),
        pytest.param(TraceEvent(10, "a", "NOSUCH", "b/wall/0"), id="unknown-action"),
        pytest.param(TraceEvent(2**63, "a", LOOKUP, "b/wall/0"), id="tick-out-of-range"),
        pytest.param(TraceEvent(10, "a", POST, "a/wall/0", 2**32), id="size-out-of-range"),
    ],
)
def test_load_trace_names_the_file_line_of_a_rejected_event(tmp_path, event):
    """Each event check names the event's line in the file, not its
    position among the events: comments and blank lines count."""
    first = TraceEvent(10, "a", FRIENDREQ, "b")
    with pytest.raises(LineError) as adjacent:
        trace_of([first, event])
    assert adjacent.value.line_no == 2
    path = tmp_path / "t.txt"
    path.write_text(f"# a comment\n{event_line(first)}\n\n{event_line(event)}\n")
    with pytest.raises(LineError) as spaced:
        load_trace(path)
    assert spaced.value.line_no == 4
    assert spaced.value.reason == adjacent.value.reason


# -- the columnar trace --------------------------------------------------------------------

# Varied POST payload sizes; carol owns a looked-up key but never acts and
# dave is only a friend-request target.
EVENTS = [
    TraceEvent(0, "bob", POST, "bob/wall/0", 7),
    TraceEvent(0, "bob", POST, "bob/wall/1", 0),
    TraceEvent(3, "alice", LOOKUP, "bob/wall/0"),
    TraceEvent(3, "alice", LOOKUP, "carol/wall/2"),
    TraceEvent(5, "bob", FRIENDREQ, "dave"),
    TraceEvent(9, "bob", POST, "bob/wall/0", 1024),
    TraceEvent(9, "alice", POST, "alice/x/y", 3),
    TraceEvent(12, "alice", LOOKUP, "bob/wall/1"),
]


def test_trace_sequence_matches_its_events():
    trace = trace_of(EVENTS)
    n = len(EVENTS)
    assert len(trace) == n
    assert list(trace) == EVENTS
    assert "".join(trace.chunks()) == "".join(event_line(ev) + "\n" for ev in EVENTS)


def test_trace_users_follow_actor_target_and_owner_rule():
    trace = trace_of(EVENTS)
    assert list(trace.users) == reference_trace_users(EVENTS)
    assert trace.users == ("alice", "bob", "carol", "dave")


def test_trace_file_round_trip_keeps_every_event(tmp_path):
    path = tmp_path / "trace.txt"
    save_trace(trace_of(EVENTS), path)
    assert list(load_trace(path)) == EVENTS
    # A key's text is rebuilt from its parsed form, so paths with several
    # (or empty) segments and a friend-request name must come back as is.
    text = path.read_text() + ("13 alice LOOKUP carol/photos/2020/a\n"
                               "14 carol POST carol/photos/2020/a 5\n"
                               "15 bob LOOKUP alice//x/\n"
                               "16 carol FRIENDREQ erin\n")
    path.write_text(text)
    loaded = load_trace(path)
    assert [ev.target for ev in loaded] == [line.split()[3] for line in text.splitlines()]
    save_trace(loaded, tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()


def test_trace_digest_is_sha256_of_lines():
    want = hashlib.sha256()
    for ev in EVENTS:
        want.update((event_line(ev) + "\n").encode("utf-8"))
    assert trace_digest(trace_of(EVENTS)) == want.hexdigest()


def test_trace_digest_is_sha256_of_the_saved_file_across_chunks(tmp_path):
    trace = generate_trace(ScenarioConfig(peer_count=4, friends_per_user=2))
    assert len(trace) > 3 * CHUNK_LINES and len(trace) % CHUNK_LINES
    exact = trace_of(islice(trace, 2 * CHUNK_LINES))
    assert len(exact) == 2 * CHUNK_LINES
    for case in (trace, exact, trace_of([])):
        path = tmp_path / "trace.txt"
        save_trace(case, path)
        assert trace_digest(case) == hashlib.sha256(path.read_bytes()).hexdigest()
    assert trace_digest(trace_of([])) == hashlib.sha256(b"").hexdigest()


def test_second_simulation_reuses_the_trace_digest(monkeypatch):
    trace = trace_of(EVENTS)
    reads = []
    chunks = Trace.chunks
    monkeypatch.setattr(Trace, "chunks", lambda self: reads.append(self) or chunks(self))
    cfg = ScenarioConfig(sim_duration_ticks=20)
    first = Simulation(cfg, trace).run()
    second = Simulation(cfg, trace).run()
    assert reads == [trace]
    assert first.trace_digest == second.trace_digest == trace_digest(trace)


def test_trace_columns_are_read_only():
    trace = trace_of(EVENTS)
    with pytest.raises(TypeError):
        trace.ticks[0] = 1
    with pytest.raises(TypeError):
        trace.actions[0] = 1


# Bytes per event that trace generation may peak at under tracemalloc.
GENERATION_PEAK_PER_EVENT = 45


def traced_generation(cfg: ScenarioConfig) -> tuple[Trace, int, int]:
    """The trace of ``cfg``, and the bytes ``generate_trace`` retains and
    peaks at under tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trace = generate_trace(cfg)
        retained, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return trace, retained, peak


def test_generated_trace_retains_few_bytes_per_event():
    # Each column is as wide as its bound needs: here tick 4 bytes, actor
    # 1, action 1, target 2 and payload size 2, so 10 bytes per event plus
    # array slack (21 with 8-byte ticks and 4-byte actors, targets and
    # sizes); an object per event would take several times that.  While
    # generating, the unsorted columns, the sorted ones and one tick
    # window's sorted list of packed ints are alive at once.  That list
    # takes about 40 bytes per event of its window, and this trace's
    # 129,937 events fall into two windows: about 42.7 bytes per event at
    # the peak, where one sort of every event peaked at 56.6, full-width
    # columns near 66 and a sort with an index list and a key list near 105.
    cfg = ScenarioConfig(peer_count=16, friends_per_user=6, lookups_per_interaction=400.0,
                         new_experiment_time_days=0.25)
    trace, retained, peak = traced_generation(cfg)
    assert len(trace) > 100_000
    assert typecodes(trace) == ("I", "B", "H", "H")
    assert retained / len(trace) <= 16
    assert peak / len(trace) <= GENERATION_PEAK_PER_EVENT


def test_generation_frees_each_friendship_table_once_its_stream_is_drawn():
    # 512 peers of 25 friends: 6,400 edges and 1,025 runs (a post and a
    # lookup stream per peer, and the friend requests) for 146,874 events
    # in three windows.  The edge tables are freed after the friend
    # requests and each actor's tables after its lookups, so none is alive
    # in the sort: about 38.3 bytes per event at the peak (17.0 retained,
    # the keys included), where keeping the tables until the end peaked at
    # 54.7, and keeping them with one sort of every event at 76.4.
    cfg = ScenarioConfig(peer_count=512, lookups_per_interaction=12.0,
                         new_experiment_time_days=0.001)
    trace, _, peak = traced_generation(cfg)
    assert len(trace) > 2 * WINDOW_EVENTS
    assert peak / len(trace) <= GENERATION_PEAK_PER_EVENT


def test_generated_trace_retains_few_bytes_per_target():
    # Many keys and few events, so the per-target tables dominate.  A
    # target is a StorageKey sharing its owner's name and one path string
    # per key slot, plus its entry in ``resolved``: about 80 bytes.  A
    # second copy of each key's text would add about 120.
    cfg = ScenarioConfig(peer_count=1024, friends_per_user=6, lookups_per_interaction=1.0,
                         new_experiment_time_days=0.001)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = generate_trace(cfg)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    targets = len(trace.resolved)
    assert targets == 1024 * 21 and len(trace) < 3 * targets
    columns = sum(column.nbytes for column in
                  (trace.ticks, trace.actors, trace.target_ids, trace.sizes))
    assert (retained - columns - len(trace.actions)) / targets <= 120


def test_loading_a_trace_peaks_at_few_bytes_per_event(tmp_path):
    # load_trace appends to columns that start one byte wide and widen on
    # the first value they cannot hold, so its columns are about as narrow
    # as the loaded trace's (here 10 bytes per event, plus array slack) and
    # nothing is copied to narrow them: a peak of about 12.6 bytes per
    # event, where 8-byte ticks and 4-byte actors, targets and sizes,
    # narrowed once the whole file was read, peaked near 23.
    cfg = ScenarioConfig(peer_count=16, friends_per_user=6, lookups_per_interaction=400.0,
                         new_experiment_time_days=0.25)
    path = tmp_path / "trace.txt"
    save_trace(generate_trace(cfg), path)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        trace = load_trace(path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(trace) > 100_000
    assert typecodes(trace) == ("I", "B", "H", "H")
    assert peak / len(trace) <= 14


def test_columns_widen_on_the_event_that_overflows_them():
    # One event overflows the one-byte tick and size columns at once, after
    # one-byte events; a later one widens the ticks again.
    trace = trace_of([TraceEvent(0, "a", POST, "a/x", 8), TraceEvent(255, "b", LOOKUP, "a/x"),
                      TraceEvent(70_000, "a", POST, "a/y", 300),
                      TraceEvent(2**32, "b", LOOKUP, "a/y")])
    assert typecodes(trace) == ("q", "B", "B", "H")
    assert list(trace.ticks) == [0, 255, 70_000, 2**32]
    assert list(trace.actors) == [0, 1, 0, 1]
    assert list(trace.target_ids) == [0, 0, 1, 1]
    assert list(trace.sizes) == [8, 0, 300, 0]


def test_a_trace_past_2_32_ticks_keeps_8_byte_ticks(tmp_path):
    far = 2**32 + 5
    trace = trace_of(EVENTS + [TraceEvent(far, "bob", LOOKUP, "alice/x/y")])
    assert typecodes(trace) == ("q", "B", "B", "H")
    assert trace.ticks[-1] == far
    path = tmp_path / "trace.txt"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert trace_digest(loaded) == trace_digest(trace)
    assert typecodes(loaded) == typecodes(trace)
    cfg = ScenarioConfig(sim_duration_ticks=far, sample_cadence_ticks=2**31,
                         strategy=StrategyConfig(update_interval=2**31))
    result = Simulation(cfg, loaded).run()
    assert result.counters.total_requests == 4
    assert result.ledger.sample_times.tolist() == [2**31, 2**32]


def test_more_than_65535_targets_keep_4_byte_target_ids(tmp_path):
    cfg = ScenarioConfig(peer_count=4, friends_per_user=2, keys_per_user=16_400,
                         new_experiment_time_days=0.0001, lookups_per_interaction=1.0)
    trace = generate_trace(cfg)
    assert len(trace.resolved) == 4 * 16_400 + 4 > 2**16
    assert typecodes(trace) == ("H", "B", "I", "H")
    path = tmp_path / "trace.txt"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert trace_digest(loaded) == trace_digest(trace)
    assert typecodes(loaded) == typecodes(trace)
    result = Simulation(cfg, trace).run()
    assert result.counters.total_requests == sum(ev.action == LOOKUP for ev in trace) > 0


def map_gathers(ticks: array, actors: array, codes: bytes,
                target_ids: array) -> tuple[array, array, array, array]:
    """``_in_tick_order`` with one ``map`` gather per column over a stable
    index sort of every event: the windowed sort and its chunked itemgetter
    gathers must give the same columns."""
    order = sorted(range(len(ticks)), key=ticks.__getitem__)
    return (array(ticks.typecode, map(ticks.__getitem__, order)),
            array(actors.typecode, map(actors.__getitem__, order)),
            array("B", map(codes.__getitem__, order)),
            array(target_ids.typecode, map(target_ids.__getitem__, order)))


@pytest.mark.parametrize("count", [0, 1, CHUNK_LINES, CHUNK_LINES + 1,
                                   WINDOW_EVENTS - 1, WINDOW_EVENTS, WINDOW_EVENTS + 1])
def test_chunked_gathers_match_per_column_maps(count):
    # Past a multiple of CHUNK_LINES by one, the last chunk holds one event,
    # where an itemgetter gives a value instead of a tuple; past
    # WINDOW_EVENTS the events fall into two tick windows.  The runs are
    # the stretches between the tick column's descents.
    rng = random.Random(count)
    columns = (array("I", (rng.randrange(count // 3 + 1) for _ in range(count))),
               array("B", (rng.randrange(256) for _ in range(count))),
               bytes(rng.randrange(3) for _ in range(count)),
               array("H", (rng.randrange(2**16) for _ in range(count))))
    ticks = columns[0]
    starts = [0] + [i for i in range(1, count) if ticks[i] < ticks[i - 1]]
    got = _in_tick_order(*columns, starts)
    assert got == map_gathers(*columns)
    assert [column.typecode for column in got] == ["I", "B", "B", "H"]


sorted_run = st.tuples(st.integers(0, 6), st.lists(st.integers(0, 40), max_size=12)).map(
    lambda run: [0] * run[0] + sorted(run[1]))  # leading zeros: like the tick-0 posts


@settings(max_examples=200, deadline=None)
@given(runs=st.lists(st.one_of(sorted_run, st.lists(st.integers(0, 2), max_size=30).map(sorted)),
                     min_size=1, max_size=10),
       window=st.integers(1, 20))
@example(runs=[[0] * 25 + [1, 1, 2]], window=4)  # a single run with a tick-0 spike
@example(runs=[[], [3, 3, 3], [], [3, 3]], window=1)  # empty runs, one tick
@example(runs=[[5, 9], [0, 20], [2, 7, 40]], window=2)  # runs crossing window edges
def test_windowed_tick_order_matches_one_sort_of_every_event(runs, window):
    ticks = array("I", [tick for run in runs for tick in run])
    count = len(ticks)
    columns = (ticks, array("B", (i % 256 for i in range(count))),
               bytes(i % 3 for i in range(count)), array("H", range(count)))
    starts = list(accumulate(map(len, runs[:-1]), initial=0))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(workload, "WINDOW_EVENTS", window)
        got = _in_tick_order(*columns, starts)
    assert got == map_gathers(*columns)
