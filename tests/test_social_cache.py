import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import brute_force_top_n, direct_medium_interaction_length, direct_tie_strength
from socicache.model import ContentObject, InteractionKind, StorageKey
from socicache.overlay import MessageKind
from socicache.social_cache import (
    DUNBAR_MUC_LIMIT,
    CapExceededError,
    InvalidWeightsError,
    MucList,
    SelectionTrigger,
    SocialCache,
    Strategy,
    StrategyConfig,
    SubscriptionDiff,
    SubscriptionSet,
    UnknownUserError,
)

LOOKUP = InteractionKind.LOOKUP


class Router:
    """Synchronous in-test message fabric between social caches."""

    def __init__(self):
        self.caches = {}
        self.log = []

    def add(self, cache):
        self.caches[cache.owner] = cache

    def send_for(self, name):
        def send(kind, recipient, payload, now):
            self.log.append((name, kind, recipient))
            cache = self.caches.get(recipient)
            if cache is None:
                return
            if kind is MessageKind.SUBSCRIBE:
                cache.on_subscribe_received(name, now)
            elif kind is MessageKind.UNSUBSCRIBE:
                cache.on_unsubscribe_received(name)
            elif kind is MessageKind.SOCIAL_UPDATE:
                cache.on_social_update(name, payload)
            elif kind is MessageKind.BOOTSTRAP_DUMP:
                cache.on_bootstrap(name, payload)

        return send


def make_cache(owner="me", router=None, **cfg_kwargs):
    cfg_kwargs.setdefault("kind", Strategy.SOCIAL_SCORE)
    cfg = StrategyConfig(**cfg_kwargs)
    router = router or Router()
    cache = SocialCache(owner, cfg, router.send_for(owner))
    router.add(cache)
    return cache, router


def obj(owner, path, version=1):
    return ContentObject(StorageKey(owner, path), version, b"data", owner, 0)


# -- MUC list -----------------------------------------------------------------

def test_first_record_creates_entry():
    muc = MucList()
    muc.record("bob", LOOKUP, 0)
    assert len(muc) == 1
    assert muc.entries["bob"].lookup_count == 1


def test_records_append_in_time_order():
    muc = MucList()
    muc.record("bob", LOOKUP, 5)
    muc.record("bob", LOOKUP, 9)
    entry = muc.entries["bob"]
    assert (entry.first_at, entry.last_at, entry.event_count) == (5, 9, 2)
    assert entry.lookup_count == 2


def test_muc_capacity_evicts_lowest_ranked():
    cache, _ = make_cache(kind=Strategy.TREND)
    cache.muc = MucList(max_users=150)
    # u000 gets the fewest lookups and is the eviction victim.
    for i in range(150):
        for _ in range(i + 1):
            cache.track(f"u{i:03d}", LOOKUP, 10)
    assert len(cache.muc) == 150
    cache.track("newcomer", LOOKUP, 20)
    assert len(cache.muc) == 150
    assert "u000" not in cache.muc
    assert "newcomer" in cache.muc


def test_own_interactions_rejected():
    cache, _ = make_cache()
    with pytest.raises(ValueError):
        cache.track("me", LOOKUP, 0)


# -- tie strength -------------------------------------------------------------

def test_tie_strength_sole_interlocutor():
    cache, _ = make_cache()
    for t in range(5):
        cache.track("x", LOOKUP, t)
    assert cache.muc.tie_strength("x") == 1.0


def test_tie_strength_share_of_total():
    cache, _ = make_cache()
    for t in range(3):
        cache.track("x", LOOKUP, t)
    for t in range(7):
        cache.track("y", LOOKUP, t)
    assert cache.muc.tie_strength("x") == pytest.approx(0.3)


def test_tie_strength_weighted_events():
    # x has one event at weight 2.0 and one at 1.0 among 6 total events;
    # direct evaluation gives (2+1)/6 = 0.5.
    weights = {
        InteractionKind.LOOKUP: 1.0,
        InteractionKind.WALL_POST: 2.0,
        InteractionKind.FRIEND_REQUEST: 1.0,
        InteractionKind.LIKE: 1.0,
        InteractionKind.COMMENT: 1.0,
    }
    cache, _ = make_cache(interaction_weights=weights)
    cache.track("x", InteractionKind.WALL_POST, 0)
    cache.track("x", LOOKUP, 1)
    for t in range(4):
        cache.track("y", LOOKUP, t)
    events_by_user = {
        "x": [InteractionKind.WALL_POST, LOOKUP],
        "y": [LOOKUP] * 4,
    }
    expected = direct_tie_strength(events_by_user, "x", weights)
    assert expected == 0.5
    assert cache.muc.tie_strength("x") == pytest.approx(expected)


@given(
    extra=st.integers(min_value=0, max_value=30),
    others=st.integers(min_value=1, max_value=30),
)
def test_tie_strength_monotone_in_own_lookups(extra, others):
    # With equal weights, one more tracked lookup for x never lowers x's share.
    cache, _ = make_cache()
    cache.track("x", LOOKUP, 0)
    for t in range(others):
        cache.track("other", LOOKUP, t)
    before = cache.muc.tie_strength("x")
    for t in range(extra):
        cache.track("x", LOOKUP, 100 + t)
    after = cache.muc.tie_strength("x")
    assert after >= before or abs(after - before) < 1e-12


# -- medium interaction length --------------------------------------------------

def test_interaction_length_three_events():
    cache, _ = make_cache()
    for t in (0, 10, 20):
        cache.track("x", LOOKUP, t)
    expected = direct_medium_interaction_length([0, 10, 20], 30)
    assert expected == pytest.approx(2 / 3)
    assert cache.muc.medium_interaction_length("x", 30) == pytest.approx(expected)


def test_interaction_length_single_event_is_zero():
    cache, _ = make_cache()
    cache.track("x", LOOKUP, 7)
    assert cache.muc.medium_interaction_length("x", 30) == 0.0


def test_interaction_length_two_events():
    cache, _ = make_cache()
    cache.track("x", LOOKUP, 0)
    cache.track("x", LOOKUP, 30)
    expected = direct_medium_interaction_length([0, 30], 30)
    assert expected == pytest.approx(1.0)
    assert cache.muc.medium_interaction_length("x", 30) == pytest.approx(expected)


def test_interaction_length_zero_elapsed_is_zero():
    cache, _ = make_cache()
    cache.track("x", LOOKUP, 30)
    cache.track("x", LOOKUP, 30)
    assert cache.muc.medium_interaction_length("x", 30) == 0.0


@given(
    gaps=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=49),
    start=st.integers(min_value=0, max_value=1000),
    after=st.integers(min_value=1, max_value=1000),
)
@settings(deadline=None)
def test_interaction_length_matches_direct_evaluation(gaps, start, after):
    times = [start]
    for gap in gaps:
        times.append(times[-1] + gap)
    now = times[-1] + after
    cache, _ = make_cache()
    for t in times:
        cache.track("x", LOOKUP, t)
    got = cache.muc.medium_interaction_length("x", now)
    want = direct_medium_interaction_length(times, now)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


# -- social score ----------------------------------------------------------------

def build_score_state(cache):
    # x: 3 of 10 events, spaced 0/10/20 -> tie 0.3, interaction length 2/3 at now=30.
    for t in (0, 10, 20):
        cache.track("x", LOOKUP, t)
    for t in range(7):
        cache.track("y", InteractionKind.COMMENT, t)


def test_social_score_combines_both_terms():
    cache, _ = make_cache(alpha=0.5, beta=0.5)
    build_score_state(cache)
    assert cache.muc.tie_strength("x") == pytest.approx(0.3)
    assert cache.muc.medium_interaction_length("x", 30) == pytest.approx(2 / 3)
    assert cache.social_score("x", 30) == pytest.approx(0.5 * 0.3 + 0.5 * (2 / 3))
    assert cache.social_score("x", 30) == pytest.approx(0.48333, abs=1e-5)


def test_social_score_alpha_only_degenerates_to_tie_strength():
    cache, _ = make_cache(alpha=1.0, beta=0.0)
    build_score_state(cache)
    assert cache.social_score("x", 30) == pytest.approx(cache.muc.tie_strength("x"))


def test_social_score_zero_weights_rejected():
    with pytest.raises(InvalidWeightsError):
        StrategyConfig(kind=Strategy.SOCIAL_SCORE, alpha=0.0, beta=0.0).validate()
    cache, _ = make_cache(alpha=0.5, beta=0.5)
    build_score_state(cache)
    cache.cfg.alpha = cache.cfg.beta = 0.0
    with pytest.raises(InvalidWeightsError):
        cache.social_score("x", 30)
    with pytest.raises(InvalidWeightsError):
        cache.rank_users(30)


def test_social_score_unknown_user():
    cache, _ = make_cache()
    with pytest.raises(UnknownUserError):
        cache.social_score("ghost", 30)


# -- selection strategies ----------------------------------------------------------

def test_trend_selection_takes_top_n_and_clears():
    cache, router = make_cache(kind=Strategy.TREND, n=2)
    counts = {"a": 5, "b": 3, "c": 1}
    # stage the tracked counts directly so only c is currently subscribed
    for user, count in counts.items():
        for t in range(count):
            cache.muc.record(user, LOOKUP, t)
    cache.channels.add("c")
    diff = cache.run_selection(100)
    assert set(diff.to_subscribe) == {"a", "b"}
    assert set(diff.to_unsubscribe) == {"c"}
    assert len(cache.muc) == 0


def test_social_score_selection_fixed_point_keeps_muc():
    cache, _ = make_cache(kind=Strategy.SOCIAL_SCORE, n=2)
    for t in range(9):
        cache.track("a", LOOKUP, t)
    cache.track("b", LOOKUP, 0)
    cache.channels.add("a")
    cache.channels.add("b")
    diff = cache.run_selection(100)
    assert diff.empty
    assert len(cache.muc) == 2


def test_random_strategy_swaps_full_channels():
    cache, router = make_cache(kind=Strategy.RANDOM, n=1)
    cache.track("a", LOOKUP, 0)
    assert set(cache.channels) == {"a"}
    cache.track("b", LOOKUP, 1)
    assert set(cache.channels) == {"b"}
    assert "a" not in cache.muc  # random unsubscription drops the user
    assert "b" in cache.muc
    kinds = [entry[1] for entry in router.log]
    assert kinds.count(MessageKind.UNSUBSCRIBE) == 1


def test_random_selection_interval_is_noop():
    cache, _ = make_cache(kind=Strategy.RANDOM)
    cache.track("a", LOOKUP, 0)
    assert cache.run_selection(100).empty


def test_fast_path_subscribes_below_limit():
    cache, _ = make_cache(kind=Strategy.TREND, n=2)
    cache.track("a", LOOKUP, 0)
    cache.track("b", LOOKUP, 1)
    cache.track("c", LOOKUP, 2)  # limit reached; no inline action
    assert set(cache.channels) == {"a", "b"}


def test_lookup_count_trigger_runs_selection():
    cache, _ = make_cache(
        kind=Strategy.TREND, n=2, m=5, trigger=SelectionTrigger.LOOKUP_COUNT_BASED
    )
    for t in range(5):
        cache.track("a", LOOKUP, t)
    # after m tracked lookups the selection ran and cleared the MUC list
    assert len(cache.muc) == 0
    assert set(cache.channels) == {"a"}


# -- subscription management ---------------------------------------------------------

def test_apply_diff_bootstraps_new_subscription():
    router = Router()
    me, _ = make_cache("me", router)
    them, _ = make_cache("them", router)
    for i in range(4):
        them.publish(obj("them", f"wall/{i}"), now=0)
    me.apply_diff(SubscriptionDiff(("them",), ()), now=1)
    assert me.store.item_count == 4
    assert "me" in them.receivers


def test_unsubscribe_purges_store():
    router = Router()
    me, _ = make_cache("me", router)
    them, _ = make_cache("them", router)
    them.publish(obj("them", "wall/0"), now=0)
    me.apply_diff(SubscriptionDiff(("them",), ()), now=1)
    assert me.store.item_count == 1
    me.apply_diff(SubscriptionDiff((), ("them",)), now=2)
    assert "them" not in list(me.store.users())
    assert me.store.item_count == 0
    assert "me" not in them.receivers


def test_empty_diff_sends_nothing():
    cache, router = make_cache()
    cache.apply_diff(SubscriptionDiff((), ()), now=0)
    assert router.log == []


def test_diff_over_cap_rejected_whole():
    cache, router = make_cache(n=2)
    with pytest.raises(CapExceededError):
        cache.apply_diff(SubscriptionDiff(("a", "b", "c"), ()), now=0)
    assert len(cache.channels) == 0
    assert router.log == []


def test_subscription_set_rejects_self():
    subs = SubscriptionSet("me", limit=3)
    with pytest.raises(ValueError):
        subs.add("me")


# -- inbound handlers ------------------------------------------------------------------

def test_subscribe_received_sends_one_dump():
    cache, router = make_cache("me")
    cache.publish(obj("me", "wall/0"), 0)
    cache.on_subscribe_received("sub", 1)
    cache.on_subscribe_received("sub", 2)  # duplicate is idempotent
    dumps = [e for e in router.log if e[1] is MessageKind.BOOTSTRAP_DUMP]
    assert len(dumps) == 1
    assert len(cache.receivers) == 1


def test_subscribe_received_without_bootstrapping():
    cfg = StrategyConfig()
    router = Router()
    cache = SocialCache("me", cfg, router.send_for("me"), bootstrapping=False)
    router.add(cache)
    cache.on_subscribe_received("sub", 1)
    assert len(cache.receivers) == 1
    assert all(e[1] is not MessageKind.BOOTSTRAP_DUMP for e in router.log)


def test_update_overwrites_previous_version():
    cache, _ = make_cache("me")
    cache.channels.add("them")
    cache.on_social_update("them", obj("them", "wall/0", version=1))
    cache.on_social_update("them", obj("them", "wall/0", version=2))
    assert cache.store.item_count == 1
    assert cache.store.get("them", StorageKey("them", "wall/0")).version == 2


def test_update_from_non_subscribed_user_ignored():
    cache, _ = make_cache("me")
    accepted = cache.on_social_update("stranger", obj("stranger", "wall/0"))
    assert accepted is False
    assert cache.store.item_count == 0


def test_update_wins_over_bootstrap_for_same_key():
    cache, _ = make_cache("me")
    cache.channels.add("them")
    cache.on_bootstrap("them", (obj("them", "wall/0", version=1),))
    cache.on_social_update("them", obj("them", "wall/0", version=2))
    assert cache.store.get("them", StorageKey("them", "wall/0")).version == 2
    # a stale dump never clobbers the newer pushed version
    cache.on_bootstrap("them", (obj("them", "wall/0", version=1),))
    assert cache.store.get("them", StorageKey("them", "wall/0")).version == 2


# -- social lookup ------------------------------------------------------------------------

def test_lookup_serves_own_content():
    cache, _ = make_cache("me")
    posted = obj("me", "wall/1")
    cache.publish(posted, 0)
    assert cache.lookup(StorageKey("me", "wall/1")) is posted


def test_lookup_serves_subscribed_content():
    cache, _ = make_cache("me")
    cache.channels.add("them")
    pushed = obj("them", "wall/2")
    cache.on_social_update("them", pushed)
    assert cache.lookup(StorageKey("them", "wall/2")) is pushed


def test_lookup_misses_unknown_user():
    cache, _ = make_cache("me")
    assert cache.lookup(StorageKey("stranger", "wall/0")) is None


# -- ranking properties ---------------------------------------------------------------------

def random_muc_state(rng, kind):
    cache, _ = make_cache(kind=kind, n=rng.randrange(1, 6))
    users = [f"p{i}" for i in range(rng.randrange(1, 12))]
    now = 0
    for user in users:
        for _ in range(rng.randrange(1, 8)):
            now += rng.randrange(0, 5)
            kind_choice = rng.choice(list(InteractionKind))
            if kind_choice is LOOKUP and user not in cache.channels:
                # route through the muc only; inline subscription side effects
                # are irrelevant to ranking
                cache.muc.record(user, kind_choice, now)
            else:
                cache.muc.record(user, kind_choice, now)
    return cache, now + rng.randrange(1, 10)


@pytest.mark.parametrize("kind", [Strategy.TREND, Strategy.SOCIAL_SCORE])
def test_selection_matches_brute_force(kind):
    rng = random.Random(f"selection-oracle/{kind.value}")
    for _ in range(300):
        cache, now = random_muc_state(rng, kind)
        if kind is Strategy.TREND:
            scores = {u: float(e.lookup_count) for u, e in cache.muc.entries.items()}
        else:
            scores = {u: cache.social_score(u, now) for u in cache.muc.entries}
        expected = brute_force_top_n(scores, cache.cfg.n)
        assert cache.rank_users(now)[: cache.cfg.n] == expected


def test_top_set_invariant_under_weight_scaling():
    # Scaling alpha and beta by the same power of two preserves the ranking.
    rng = random.Random("scale-invariance")
    for _ in range(100):
        cache, now = random_muc_state(rng, Strategy.SOCIAL_SCORE)
        baseline = cache.rank_users(now)[: cache.cfg.n]
        for factor in (0.25, 0.5, 2.0, 8.0):
            cache.cfg.alpha *= factor
            cache.cfg.beta *= factor
            assert cache.rank_users(now)[: cache.cfg.n] == baseline
            cache.cfg.alpha /= factor
            cache.cfg.beta /= factor


def test_channel_cap_enforced_under_churn():
    cache, _ = make_cache(kind=Strategy.RANDOM, n=3)
    rng = random.Random("cap-churn")
    now = 0
    for _ in range(2000):
        now += rng.randrange(0, 3)
        cache.track(f"p{rng.randrange(30)}", LOOKUP, now)
        assert len(cache.channels) <= 3
        assert len(cache.muc) <= cache.muc.max_users


def random_weighted_state(rng, kind, muc_capacity=DUNBAR_MUC_LIMIT):
    """A cache with random non-default weights (some kinds left at the 1.0
    default) whose MUC was filled through ``track`` with interleaved events;
    returns the cache, each user's events in order, and the time of the last
    event."""
    weights = {k: rng.uniform(0.0, 3.0) for k in InteractionKind if rng.random() < 0.8}
    router = Router()
    cfg = StrategyConfig(kind=kind, n=rng.randrange(1, 6), interaction_weights=weights)
    cache = SocialCache("me", cfg, router.send_for("me"), muc_capacity=muc_capacity)
    router.add(cache)
    users = [f"p{i}" for i in range(rng.randrange(1, 12))]
    remaining = {u: rng.choice([1, 1, 2, 2, 3, 5, 8]) for u in users}
    events = {u: [] for u in users}
    now = 0
    while remaining:
        user = rng.choice(sorted(remaining))
        now += rng.choice([0, 0, 1, 3, 10])
        kind_choice = rng.choice(list(InteractionKind))
        cache.track(user, kind_choice, now)
        events[user].append(kind_choice)
        remaining[user] -= 1
        if not remaining[user]:
            del remaining[user]
    return cache, events, now


def reference_order(cache, now):
    if cache.cfg.kind is Strategy.TREND:
        return sorted(cache.muc.entries,
                      key=lambda u: (-float(cache.muc.entries[u].lookup_count), u))
    return sorted(cache.muc.entries, key=lambda u: (-cache.social_score(u, now), u))


@pytest.mark.parametrize("kind", [Strategy.TREND, Strategy.SOCIAL_SCORE])
def test_inlined_ranking_equals_per_user_scores_exactly(kind):
    rng = random.Random(f"inlined-ranking/{kind.value}")
    seen_short = seen_now_at_first = 0
    for _ in range(300):
        cache, events, last = random_weighted_state(rng, kind)
        weights = cache.cfg.interaction_weights
        for user, entry in cache.muc.entries.items():
            assert entry.weighted == sum(weights.get(k, 1.0) for k in events[user])
            seen_short += entry.event_count <= 2
        for now in (last, last + rng.choice([1, 7, 1000])):
            seen_now_at_first += any(e.first_at == now for e in cache.muc.entries.values())
            assert cache.rank_users(now) == reference_order(cache, now)
            cache.cfg.alpha, cache.cfg.beta = rng.choice(
                [(rng.uniform(0.0, 2.0), rng.uniform(0.01, 2.0)), (1.0, 0.0), (0.0, 1.0)])
            assert cache.rank_users(now) == reference_order(cache, now)
    assert seen_short and seen_now_at_first


@pytest.mark.parametrize("kind", [Strategy.TREND, Strategy.SOCIAL_SCORE])
def test_full_muc_track_evicts_last_ranked(kind):
    rng = random.Random(f"full-muc-eviction/{kind.value}")
    evictions = 0
    for _ in range(100):
        cache, _, last = random_weighted_state(rng, kind, muc_capacity=4)
        if len(cache.muc) < cache.muc.max_users:
            continue
        now = last + rng.randrange(0, 20)
        victim = cache.rank_users(now)[-1]
        cache.track("newcomer", rng.choice(list(InteractionKind)), now)
        assert victim not in cache.muc
        assert "newcomer" in cache.muc
        assert len(cache.muc) == cache.muc.max_users
        evictions += 1
    assert evictions
