import statistics

import pytest

from socicache.workload import (
    FRIENDREQ,
    LOOKUP,
    POST,
    CacheSetup,
    ConfigError,
    DatasetStats,
    InvalidArgumentError,
    ScenarioConfig,
    TraceFormatError,
    TraceOrderError,
    build_friend_graph,
    generate_trace,
    load_trace,
    peer_names,
    sampled_interval,
    save_trace,
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


@pytest.mark.parametrize("x,ds,new", [(0, 870, 2), (43.5, 0, 2), (43.5, 870, 0), (-1, 870, 2)])
def test_sampled_interval_rejects_non_positive(x, ds, new):
    with pytest.raises(InvalidArgumentError):
        sampled_interval(x, ds, new)


def test_dataset_stats_must_be_positive():
    with pytest.raises(ConfigError):
        DatasetStats(avg_ts_interaction_days=0)


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
        build_friend_graph(64, 64)
    with pytest.raises(ConfigError):
        ScenarioConfig(peer_count=64, friends_per_user=64).validate()


def test_odd_degree_needs_even_population():
    with pytest.raises(ConfigError):
        build_friend_graph(7, 3)


# -- trace generation ----------------------------------------------------------------

def test_generation_is_deterministic():
    cfg = small_config(peer_count=4, friends_per_user=1, seed=99)
    a = generate_trace(cfg)
    b = generate_trace(cfg)
    assert trace_digest(a) == trace_digest(b)
    assert [e.line() for e in a] == [e.line() for e in b]


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
    cfg.friend_request_phases = (0, 0)
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
        {"replication_factor": 0},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        small_config(**kwargs).validate()


def test_cache_setup_flags():
    assert CacheSetup.BOTH.social_enabled and CacheSetup.BOTH.current_enabled
    assert not CacheSetup.NONE.social_enabled and not CacheSetup.NONE.current_enabled
    assert CacheSetup.SOCIAL_ONLY.social_enabled != CacheSetup.SOCIAL_ONLY.current_enabled


# -- trace files ---------------------------------------------------------------------------

def test_trace_file_round_trip(tmp_path):
    cfg = small_config(peer_count=4, friends_per_user=2)
    trace = generate_trace(cfg)
    path = tmp_path / "trace.txt"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert [e.line() for e in loaded] == [e.line() for e in trace]


def test_load_well_formed_lines(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(
        "0 alice POST alice/wall/0 512\n"
        "10 bob LOOKUP alice/wall/0\n"
        "20 alice FRIENDREQ bob\n"
    )
    events = load_trace(path)
    assert len(events) == 3
    assert events[0].payload_size == 512


def test_load_rejects_time_regression(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("10 a LOOKUP b/wall/0\n5 a LOOKUP b/wall/0\n")
    with pytest.raises(TraceOrderError) as err:
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
    ],
)
def test_load_rejects_malformed_lines(tmp_path, line):
    path = tmp_path / "t.txt"
    path.write_text("0 a LOOKUP b/wall/0\n" + line + "\n")
    with pytest.raises(TraceFormatError) as err:
        load_trace(path)
    assert err.value.line_no == 2
