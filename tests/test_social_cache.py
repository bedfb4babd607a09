import dataclasses
import math
import random
from collections import Counter
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ReferenceCertificate,
    _reference_gap,
    apply_reference_diff,
    brute_force_top_n,
    direct_medium_interaction_length,
    direct_tie_strength,
    reference_record,
    reference_run_selection,
    reference_score,
    weight_map,
)
from socicache.metrics import Counters
from socicache.model import ConfigError, ContentObject, InteractionKind, StorageKey
from socicache.overlay import MessageDispatcher, MessageEnvelope, MessageKind
from socicache.social_cache import (
    DUNBAR_MUC_LIMIT,
    CapExceededError,
    MucList,
    SelectionTrigger,
    SocialCache,
    Strategy,
    StrategyConfig,
)

LOOKUP = InteractionKind.LOOKUP


class Router:
    """Synchronous in-test message fabric between social caches; ``dispatch``
    is the ``(env, recipient)`` hook every cache is built with, and
    ``slot_of`` the key -> slot map they share.  The log holds one
    ``(sender, kind, recipient, env)`` entry per delivery."""

    def __init__(self):
        self.caches = {}
        self.slot_of = {}
        self.log = []

    def add(self, cache):
        self.caches[cache.owner] = cache

    def dispatch(self, env, recipient):
        name, kind = env.sender, env.kind
        self.log.append((name, kind, recipient, env))
        cache = self.caches.get(recipient)
        if cache is None:
            return
        if kind is MessageKind.SUBSCRIBE:
            cache.on_subscribe_received(name)
        elif kind is MessageKind.UNSUBSCRIBE:
            cache.on_unsubscribe_received(name)
        elif kind is MessageKind.SOCIAL_UPDATE:
            cache.on_social_update(name, env.payload)
        elif kind is MessageKind.BOOTSTRAP_DUMP:
            cache.on_bootstrap(name, env.payload)


def make_cache(owner="me", router=None, bootstrapping=True, **cfg_kwargs):
    cfg_kwargs.setdefault("kind", Strategy.SOCIAL_SCORE)
    cfg = StrategyConfig(**cfg_kwargs)
    router = router or Router()
    cache = SocialCache(owner, cfg, router.dispatch, Counters(), router.slot_of,
                        bootstrapping=bootstrapping)
    router.add(cache)
    return cache, router


def obj(owner, path, version=1):
    return ContentObject(StorageKey(owner, path), version, 4)


def slotted(slot_of, *items):
    """``items``, with each key given its owner's next slot in ``slot_of``
    unless it has one, as the owner's first ``publish`` does."""
    for content in items:
        key = content.key
        if key not in slot_of:
            slot_of[key] = sum(k.owner == key.owner for k in slot_of)
    return items


# -- MUC list -----------------------------------------------------------------

def test_first_record_creates_entry():
    muc = MucList()
    reference_record(muc, "bob", LOOKUP, 0)
    assert len(muc) == 1
    assert muc["bob"].lookup_count == 1


def test_records_append_in_time_order():
    muc = MucList()
    reference_record(muc, "bob", LOOKUP, 5)
    reference_record(muc, "bob", LOOKUP, 9)
    entry = muc["bob"]
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


def _muc_fields(user, entry):
    return (user, entry.event_count, entry.lookup_count, entry.weighted.hex(),
            entry.first_at, entry.last_at)


@pytest.mark.parametrize("trigger", list(SelectionTrigger))
def test_track_bookkeeping_matches_reference_record(trigger):
    """``track`` leaves every MUC entry and the event total bit-identical to
    a twin list fed by ``reference_record``, under non-default weights, a
    list small enough to evict and selection rounds in between.  Each
    eviction is replayed on the twin by removing the same user."""
    rng = random.Random(f"track-bookkeeping/{trigger.value}")
    friend_request = InteractionKind.FRIEND_REQUEST
    evictions = 0
    for _ in range(200):
        lookup_weight = rng.choice([0.25, 0.75, 1.0, 1.5])
        friend_weight = rng.choice([0.5, 2.5, 3.0])
        capacity = rng.randrange(2, 6)
        n = rng.randrange(1, 3)
        cfg = StrategyConfig(kind=Strategy.SOCIAL_SCORE, n=n, m=n + rng.randrange(1, 4),
                             trigger=trigger, lookup_weight=lookup_weight,
                             friend_request_weight=friend_weight)
        weights = weight_map(cfg)
        cache = SocialCache("me", cfg, Router().dispatch, Counters(), {}, muc_capacity=capacity)
        twin = MucList(capacity)
        users = [f"p{i}" for i in range(rng.randrange(capacity + 1, 2 * capacity + 3))]
        now = 0
        for _ in range(rng.randrange(1, 60)):
            now += rng.choice([0, 0, 1, 3, 17, 250])
            user = rng.choice(users)
            kind = rng.choice([LOOKUP, LOOKUP, friend_request])
            victim = None
            if user not in cache.muc and len(cache.muc) >= capacity:
                victim = cache.rank_users(now)[-1]
            cache.track(user, kind, now)
            if victim is not None:
                twin.remove(victim)
                evictions += 1
            reference_record(twin, user, kind, now, weights)
            if (trigger is SelectionTrigger.TIME_BASED and rng.random() < 0.2
                    and now >= cache.stable_until):
                cache.run_selection(now)
            assert cache.muc.total_events == twin.total_events
            assert ([_muc_fields(*item) for item in cache.muc.items()]
                    == [_muc_fields(*item) for item in twin.items()])
    assert evictions > 100


def test_own_interactions_rejected():
    cache, _ = make_cache()
    with pytest.raises(ValueError):
        cache.track("me", LOOKUP, 0)


# -- tie strength -------------------------------------------------------------
# ``social_score`` with beta = 0 (alpha = 1) is the tie strength alone, and
# with alpha = 0 (beta = 1) the medium interaction length alone: adding or
# multiplying by 0.0 and multiplying by 1.0 are exact.

def test_tie_strength_sole_interlocutor():
    cache, _ = make_cache(alpha=1.0, beta=0.0)
    for t in range(5):
        cache.track("x", LOOKUP, t)
    assert cache.social_score("x", 5) == 1.0


def test_tie_strength_share_of_total():
    cache, _ = make_cache(alpha=1.0, beta=0.0)
    for t in range(3):
        cache.track("x", LOOKUP, t)
    for t in range(7):
        cache.track("y", LOOKUP, t)
    assert cache.social_score("x", 7) == pytest.approx(0.3)


def test_tie_strength_weighted_events():
    # x has one event at weight 2.0 and one at 1.0 among 6 total events;
    # direct evaluation gives (2+1)/6 = 0.5.
    cache, _ = make_cache(alpha=1.0, beta=0.0, friend_request_weight=2.0)
    cache.track("x", InteractionKind.FRIEND_REQUEST, 0)
    cache.track("x", LOOKUP, 1)
    for t in range(4):
        cache.track("y", LOOKUP, t)
    events_by_user = {
        "x": [InteractionKind.FRIEND_REQUEST, LOOKUP],
        "y": [LOOKUP] * 4,
    }
    expected = direct_tie_strength(events_by_user, "x", weight_map(cache.cfg))
    assert expected == 0.5
    assert cache.social_score("x", 4) == pytest.approx(expected)


@given(
    extra=st.integers(min_value=0, max_value=30),
    others=st.integers(min_value=1, max_value=30),
)
def test_tie_strength_monotone_in_own_lookups(extra, others):
    # With equal weights, one more tracked lookup for x never lowers x's share.
    cache, _ = make_cache(alpha=1.0, beta=0.0)
    cache.track("x", LOOKUP, 0)
    for t in range(others):
        cache.track("other", LOOKUP, t)
    before = cache.social_score("x", 200)
    for t in range(extra):
        cache.track("x", LOOKUP, 100 + t)
    after = cache.social_score("x", 200)
    assert after >= before or abs(after - before) < 1e-12


# -- medium interaction length --------------------------------------------------

def test_interaction_length_three_events():
    cache, _ = make_cache(alpha=0.0, beta=1.0)
    for t in (0, 10, 20):
        cache.track("x", LOOKUP, t)
    expected = direct_medium_interaction_length([0, 10, 20], 30)
    assert expected == pytest.approx(2 / 3)
    assert cache.social_score("x", 30) == pytest.approx(expected)


def test_interaction_length_single_event_is_zero():
    cache, _ = make_cache(alpha=0.0, beta=1.0)
    cache.track("x", LOOKUP, 7)
    assert cache.social_score("x", 30) == 0.0


def test_interaction_length_two_events():
    cache, _ = make_cache(alpha=0.0, beta=1.0)
    cache.track("x", LOOKUP, 0)
    cache.track("x", LOOKUP, 30)
    expected = direct_medium_interaction_length([0, 30], 30)
    assert expected == pytest.approx(1.0)
    assert cache.social_score("x", 30) == pytest.approx(expected)


def test_interaction_length_zero_elapsed_is_zero():
    cache, _ = make_cache(alpha=0.0, beta=1.0)
    cache.track("x", LOOKUP, 30)
    cache.track("x", LOOKUP, 30)
    assert cache.social_score("x", 30) == 0.0


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
    cache, _ = make_cache(alpha=0.0, beta=1.0)
    for t in times:
        cache.track("x", LOOKUP, t)
    got = cache.social_score("x", now)
    want = direct_medium_interaction_length(times, now)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


# -- social score ----------------------------------------------------------------

def build_score_state(cache):
    # x: 3 of 10 events, spaced 0/10/20 -> tie 0.3, interaction length 2/3 at now=30.
    for t in (0, 10, 20):
        cache.track("x", LOOKUP, t)
    for t in range(7):
        cache.track("y", InteractionKind.FRIEND_REQUEST, t)


def test_social_score_combines_both_terms():
    terms = []
    for alpha, beta in ((1.0, 0.0), (0.0, 1.0), (0.5, 0.5)):
        cache, _ = make_cache(alpha=alpha, beta=beta)
        build_score_state(cache)
        terms.append(cache.social_score("x", 30))
    tie, spacing, score = terms
    assert tie == pytest.approx(0.3)
    assert spacing == pytest.approx(2 / 3)
    assert score == pytest.approx(0.5 * 0.3 + 0.5 * (2 / 3))
    assert score == pytest.approx(0.48333, abs=1e-5)


def test_social_score_alpha_only_degenerates_to_tie_strength():
    cache, _ = make_cache(alpha=1.0, beta=0.0)
    build_score_state(cache)
    events_by_user = {"x": [LOOKUP] * 3, "y": [InteractionKind.FRIEND_REQUEST] * 7}
    expected = direct_tie_strength(events_by_user, "x", weight_map(cache.cfg))
    assert cache.social_score("x", 30) == pytest.approx(expected)


def test_social_score_zero_weights_rejected():
    with pytest.raises(ConfigError):
        StrategyConfig(kind=Strategy.SOCIAL_SCORE, alpha=0.0, beta=0.0).validate()
    # A built cache's weights cannot change, so they fail when it is built.
    with pytest.raises(ConfigError):
        make_cache(alpha=0.0, beta=0.0)


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(StrategyConfig)])
def test_strategy_fields_cannot_be_assigned(field):
    cfg = StrategyConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, getattr(cfg, field))


def test_strategy_is_hashable():
    """Immutable all the way down: equal strategies hash equal, and one
    with another weight is another set member."""
    cfg = StrategyConfig()
    heavier = dataclasses.replace(cfg, lookup_weight=2.0)
    assert hash(cfg) == hash(StrategyConfig())
    assert hash(heavier) == hash(dataclasses.replace(StrategyConfig(), lookup_weight=2.0))
    assert {cfg, heavier, StrategyConfig()} == {cfg, heavier} and heavier != cfg


def test_social_score_unknown_user():
    cache, _ = make_cache()
    with pytest.raises(KeyError):
        cache.social_score("ghost", 30)


# -- selection strategies ----------------------------------------------------------

def test_trend_selection_takes_top_n_and_clears():
    cache, router = make_cache(kind=Strategy.TREND, n=2)
    counts = {"a": 5, "b": 3, "c": 1}
    # stage the tracked counts directly so only c is currently subscribed
    for user, count in counts.items():
        for t in range(count):
            reference_record(cache.muc, user, LOOKUP, t)
    cache.channels["c"] = bytearray()
    diff = cache.run_selection(100)
    assert set(diff.to_subscribe) == {"a", "b"}
    assert set(diff.to_unsubscribe) == {"c"}
    assert list(cache.channels) == list(diff.to_subscribe)
    assert len(cache.muc) == 0


def test_social_score_selection_fixed_point_keeps_muc():
    """A round that selects the channels it has changes and sends nothing."""
    cache, router = make_cache(kind=Strategy.SOCIAL_SCORE, n=2)
    for t in range(9):
        cache.track("a", LOOKUP, t)
    cache.track("b", LOOKUP, 0)
    assert list(cache.channels) == ["a", "b"]
    router.log.clear()
    assert cache.run_selection(100) == ((), ())
    assert router.log == []
    assert list(cache.channels) == ["a", "b"]
    assert len(cache.muc) == 2


def test_random_strategy_swaps_full_channels():
    """First sight subscribes without a draw below ``n`` channels; a first
    sight at full channels draws one victim and drops it from the MUC list."""
    cache, router = make_cache(kind=Strategy.RANDOM, n=1)
    reference = random.Random()
    reference.setstate(cache._rng.getstate())
    cache.track("a", LOOKUP, 0)
    assert set(cache.channels) == {"a"}
    assert cache._rng.getstate() == reference.getstate()
    cache.track("b", LOOKUP, 1)
    assert set(cache.channels) == {"b"}
    assert "a" not in cache.muc  # random unsubscription drops the user
    assert "b" in cache.muc
    kinds = [entry[1] for entry in router.log]
    assert kinds.count(MessageKind.UNSUBSCRIBE) == 1
    reference.randrange(1)
    assert cache._rng.getstate() == reference.getstate()


def test_random_selection_interval_is_noop():
    cache, _ = make_cache(kind=Strategy.RANDOM)
    cache.track("a", LOOKUP, 0)
    assert cache.run_selection(100) == ((), ())


def test_fast_path_subscribes_below_limit():
    """Trend and social score subscribe on first sight only below ``n``
    channels; full channels wait for ``run_selection``."""
    for kind in (Strategy.TREND, Strategy.SOCIAL_SCORE):
        cache, router = make_cache(kind=kind, n=2)
        cache.track("a", LOOKUP, 0)
        cache.track("b", LOOKUP, 1)
        cache.track("c", LOOKUP, 2)  # limit reached; no inline action
        assert list(cache.channels) == ["a", "b"], kind
        assert [(e[1], e[2]) for e in router.log] == [(MessageKind.SUBSCRIBE, "a"),
                                                      (MessageKind.SUBSCRIBE, "b")], kind
        assert "c" in cache.muc


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

def test_subscribe_bootstraps_new_subscription():
    router = Router()
    me, _ = make_cache("me", router)
    them, _ = make_cache("them", router)
    for i in range(4):
        them.publish(obj("them", f"wall/{i}"))
    me._subscribe("them")
    assert me.store_items == 4
    assert "me" in them.receivers


def test_unsubscribe_purges_store():
    router = Router()
    me, _ = make_cache("me", router)
    them, _ = make_cache("them", router)
    them.publish(obj("them", "wall/0"))
    me._subscribe("them")
    assert me.store_items == 1
    me._unsubscribe("them")
    assert "them" not in me.channels
    assert me.store_items == 0
    assert "me" not in them.receivers


def test_subscribe_past_n_raises_and_sends_nothing():
    cache, router = make_cache(n=2)
    cache._subscribe("a")
    cache._subscribe("b")
    sent = list(router.log)
    with pytest.raises(CapExceededError):
        cache._subscribe("c")
    assert list(cache.channels) == ["a", "b"]
    assert router.log == sent
    assert cache.counters.subscriptions_sent == 2


_store_ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.sampled_from("uv"), st.sampled_from("xyz"),
                  st.integers(1, 4)),
        # A dump is its owner's ``own``: the versions at slots 0, 1, ...
        st.tuples(st.just("dump"), st.sampled_from("uv"),
                  st.lists(st.integers(1, 4), max_size=3)),
        st.tuples(st.just("purge"), st.sampled_from("uv")),
    ),
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(_store_ops)
def test_store_follows_updates_purges_and_dumps(ops):
    """The store under any interleaving of pushed updates
    (``on_social_update`` from a subscribed user), purges (unsubscribing
    and subscribing again; no one answers with a dump) and dumps, each
    into the fresh, empty section of a purged user, as in a run
    (``test_dumps_land_in_an_empty_section``): an update overwrites its key
    and a dump becomes the section whole.  Paths ``x``, ``y``, ``z`` have
    slots 0, 1, 2, so an update after a purge can land past the section's
    end; the padding is 0, no item, and every version sits at its key's
    slot.  The peer does not bootstrap, as a run that pads does not."""
    cache, _ = make_cache("me", bootstrapping=False)
    for user in "uv":
        cache.channels[user] = bytearray()
        slotted(cache.slot_of, *[obj(user, path) for path in "xyz"])
    want: dict[str, dict[str, int]] = {}
    for op in ops:
        user = op[1]
        if op[0] == "store":
            cache.on_social_update(user, obj(user, op[2], op[3]))
            want.setdefault(user, {})[op[2]] = op[3]
        else:
            cache._unsubscribe(user)
            cache._subscribe(user)
            want.pop(user, None)
        if op[0] == "dump":
            if op[2]:
                want[user] = dict(zip("xyz", op[2]))
            assert cache.on_bootstrap(user, bytearray(op[2])) == len(op[2])
        assert all(len(section) <= 3 for section in cache.channels.values())
        got = {u: {p: v for p, v in zip("xyz", section) if v}
               for u, section in cache.channels.items()}
        assert got == {u: want.get(u, {}) for u in "uv"}
        assert all(cache.lookup(StorageKey(u, p)) == want.get(u, {}).get(p)
                   for u in "uv" for p in "xyz")
        assert cache.store_items == sum(len(paths) for paths in want.values())


def test_a_dump_is_a_copy_of_the_senders_own():
    """After "me" holds "them"'s dump, "them" publishes a new version whose
    update is lost: "me" still serves the version it was sent.  A dump that
    shared the sender's ``own`` would serve the new one; whole runs cannot
    tell, as every update there reaches every subscriber."""
    router = Router()
    me, _ = make_cache("me", router)
    them, _ = make_cache("them", router)
    sent = obj("them", "wall/0", version=1)
    them.publish(sent)
    me._subscribe("them")
    del router.caches["me"]  # every later delivery to "me" is dropped
    them.publish(obj("them", "wall/0", version=2))
    assert router.log[-1][1:3] == (MessageKind.SOCIAL_UPDATE, "me")
    assert them.lookup(sent.key) == 2
    assert me.lookup(sent.key) == 1
    assert me.store_items == 1


def test_a_section_without_a_dump_pads_and_counts_only_items():
    """With bootstrapping off a section begins at its first update, which can
    sit at any slot: the slots it skips hold 0, which neither
    ``store_items`` nor a lookup counts as an item, and a purge takes away
    exactly the section's items."""
    cache, _ = make_cache("me", bootstrapping=False)
    for user in ("them", "you"):
        cache.channels[user] = bytearray()
    theirs = slotted(cache.slot_of, *[obj("them", f"wall/{i}", i + 1) for i in range(6)])
    yours = slotted(cache.slot_of, *[obj("you", f"wall/{i}", i + 1) for i in range(4)])
    for i in (4, 1, 5, 1, 2):
        assert cache.on_social_update("them", theirs[i])
    assert cache.on_social_update("you", yours[2])
    assert cache.channels["them"] == bytearray([0, 2, 3, 0, 5, 6])
    assert cache.channels["you"] == bytearray([0, 0, 3])
    assert cache.store_items == 5
    assert [cache.lookup(c.key) for c in theirs] == [None, 2, 3, None, 5, 6]
    assert cache.lookup(yours[3].key) is None  # past the section's end
    cache._unsubscribe("them")
    assert cache.store_items == 1
    cache._unsubscribe("you")
    assert cache.store_items == 0


# -- inbound handlers ------------------------------------------------------------------

def test_subscribe_received_sends_one_dump():
    """Each subscribe is answered by exactly one dump of the versions in
    ``own``, also a second subscribe from a user that unsubscribed."""
    cache, router = make_cache("me")
    cache.publish(obj("me", "wall/0"))
    cache.publish(obj("me", "wall/1", version=3))

    def dumps():
        return [e[3].payload for e in router.log if e[1] is MessageKind.BOOTSTRAP_DUMP]

    cache.on_subscribe_received("sub")
    assert dumps() == [bytearray([1, 3])]
    assert list(cache.receivers) == ["sub"]
    cache.on_unsubscribe_received("sub")
    assert not cache.receivers and len(dumps()) == 1
    cache.publish(obj("me", "wall/0", version=2))
    cache.on_subscribe_received("sub")
    assert dumps() == [bytearray([1, 3]), bytearray([2, 3])]
    assert list(cache.receivers) == ["sub"]
    assert all(e[2] == "sub" for e in router.log if e[1] is MessageKind.BOOTSTRAP_DUMP)


def test_subscribe_received_without_bootstrapping():
    cfg = StrategyConfig()
    router = Router()
    cache = SocialCache("me", cfg, router.dispatch, Counters(), router.slot_of,
                        bootstrapping=False)
    router.add(cache)
    cache.on_subscribe_received("sub")
    assert len(cache.receivers) == 1
    assert all(e[1] is not MessageKind.BOOTSTRAP_DUMP for e in router.log)


def test_update_overwrites_previous_version():
    cache, _ = make_cache("me")
    cache.channels["them"] = bytearray()
    first, second = slotted(cache.slot_of, obj("them", "wall/0", version=1),
                            obj("them", "wall/0", version=2))
    cache.on_social_update("them", first)
    cache.on_social_update("them", second)
    assert cache.store_items == 1
    assert cache.lookup(StorageKey("them", "wall/0")) == 2


def test_update_from_a_non_channel_raises():
    """A publish reaches only receivers, so an update from a user that is not
    a channel breaks the subscription pairing: it raises and stores
    nothing."""
    cache, _ = make_cache("me")
    cache.channels["them"] = bytearray([1])
    cache.store_items = 1
    stranger = slotted(cache.slot_of, obj("stranger", "wall/0"))[0]
    with pytest.raises(KeyError):
        cache.on_social_update("stranger", stranger)
    assert cache.store_items == 1
    assert cache.channels == {"them": bytearray([1])}


@pytest.mark.parametrize("k", [0, 1, 4])
def test_publish_shares_one_envelope_across_receivers(k):
    counters = Counters()
    dispatcher = MessageDispatcher(counters)
    seen = []
    subscribers = [f"s{i}" for i in range(k)]
    for user in subscribers:
        dispatcher.register(user, lambda env, user=user: seen.append((user, env)))
    cache = SocialCache("me", StrategyConfig(), dispatcher.dispatch, counters, {})
    for user in subscribers:
        cache.receivers[user] = None
    before = counters.dispatcher_messages
    posted = obj("me", "wall/0")
    cache.publish(posted)
    assert counters.dispatcher_messages - before == k
    assert [user for user, _ in seen] == subscribers
    assert len({id(env) for _, env in seen}) == min(k, 1)
    for _, env in seen:
        assert env == MessageEnvelope("me", MessageKind.SOCIAL_UPDATE, posted)


def test_publish_refuses_another_users_key():
    cache, router = make_cache("me")
    posted = obj("me", "wall/0")
    cache.publish(posted)
    cache.receivers["sub"] = None
    with pytest.raises(ValueError):
        cache.publish(obj("them", "wall/1"))
    assert cache.own == bytearray([posted.version])
    assert router.log == []


# -- social lookup ------------------------------------------------------------------------

def test_lookup_serves_own_content():
    cache, _ = make_cache("me")
    cache.publish(obj("me", "wall/1", version=7))
    assert cache.lookup(StorageKey("me", "wall/1")) == 7


def test_lookup_serves_subscribed_content():
    cache, _ = make_cache("me")
    cache.channels["them"] = bytearray()
    (pushed,) = slotted(cache.slot_of, obj("them", "wall/2", version=3))
    cache.on_social_update("them", pushed)
    assert cache.lookup(StorageKey("them", "wall/2")) == 3


def test_lookup_of_an_unheld_slot_is_none_not_zero():
    """A slot that holds 0, or lies past the end of own content or of a
    section, holds no item: ``lookup`` answers ``None`` for it, never 0, as
    ``Peer.handle_request`` and a traced hit count test for ``None``."""
    cache, _ = make_cache("me", bootstrapping=False)
    cache.channels["them"] = bytearray()
    theirs = slotted(cache.slot_of, *[obj("them", f"wall/{i}", 5) for i in range(3)])
    assert cache.on_social_update("them", theirs[1])
    assert cache.channels["them"] == bytearray([0, 5])
    assert [cache.lookup(c.key) for c in theirs] == [None, 5, None]
    cache.publish(obj("me", "wall/0", 2))
    mine = slotted(cache.slot_of, obj("me", "wall/0"), obj("me", "wall/1"))
    assert (cache.own, cache.slot_of[mine[1].key]) == (bytearray([2]), 1)
    assert [cache.lookup(c.key) for c in mine] == [2, None]


def test_versions_past_a_containers_width_widen_it():
    """A version that own content or a section cannot hold swaps in the
    narrowest array that can (``typecode``), keeping every other version
    and the item count; no version wraps and no store raises."""
    cache, _ = make_cache("me", bootstrapping=False)
    cache.channels["them"] = bytearray()
    theirs = slotted(cache.slot_of, *[obj("them", f"wall/{i}") for i in range(3)])
    stores = [(2, 255, "bytearray", [0, 0, 255]), (0, 256, "H", [256, 0, 255]),
              (1, 2**32, "q", [256, 2**32, 255]), (1, 7, "q", [256, 7, 255])]
    for slot, version, kind, want in stores:
        assert cache.on_social_update("them", obj("them", f"wall/{slot}", version))
        section = cache.channels["them"]
        assert getattr(section, "typecode", "bytearray") == kind
        assert list(section) == want
        assert [cache.lookup(c.key) for c in theirs] == [v or None for v in want]
    assert cache.store_items == 3
    cache.publish(obj("me", "wall/0", 1))
    cache.publish(obj("me", "wall/1", 70_000))
    cache.publish(obj("me", "wall/2", 3))
    assert (cache.own.typecode, list(cache.own)) == ("I", [1, 70_000, 3])
    assert cache.lookup(StorageKey("me", "wall/1")) == 70_000
    cache._unsubscribe("them")
    assert cache.store_items == 0


def test_lookup_misses_unknown_user():
    cache, _ = make_cache("me")
    assert cache.lookup(StorageKey("stranger", "wall/0")) is None


# -- ranking properties ---------------------------------------------------------------------

def random_muc_state(rng, kind):
    """A cache whose MUC list holds random events, recorded without
    subscription side effects, which are irrelevant to ranking; returns it,
    a tick to rank at and the ``(user, kind, at)`` events."""
    cache, _ = make_cache(kind=kind, n=rng.randrange(1, 6))
    users = [f"p{i}" for i in range(rng.randrange(1, 12))]
    events = []
    now = 0
    for user in users:
        for _ in range(rng.randrange(1, 8)):
            now += rng.randrange(0, 5)
            events.append((user, rng.choice(list(InteractionKind)), now))
            reference_record(cache.muc, *events[-1])
    return cache, now + rng.randrange(1, 10), events


def twin_cache(cache, events, **changes):
    """A cache built like ``cache`` with the config ``changes`` that tracked
    the same ``(user, kind, at)`` events: a built cache's weights cannot
    change, so other weights need another cache."""
    cfg = dataclasses.replace(cache.cfg, **changes)
    twin = SocialCache(cache.owner, cfg, lambda *_: None, Counters(), {},
                       muc_capacity=cache.muc.max_users)
    for user, kind, at in events:
        twin.track(user, kind, at)
    return twin


@pytest.mark.parametrize("kind", [Strategy.TREND, Strategy.SOCIAL_SCORE])
def test_selection_matches_brute_force(kind):
    rng = random.Random(f"selection-oracle/{kind.value}")
    for _ in range(300):
        cache, now, _ = random_muc_state(rng, kind)
        if kind is Strategy.TREND:
            scores = {u: float(e.lookup_count) for u, e in cache.muc.items()}
        else:
            scores = {u: cache.social_score(u, now) for u in cache.muc}
        expected = brute_force_top_n(scores, cache.cfg.n)
        assert cache.rank_users(now)[: cache.cfg.n] == expected


def test_top_set_invariant_under_weight_scaling():
    # Scaling alpha and beta by the same power of two preserves the ranking.
    rng = random.Random("scale-invariance")
    for _ in range(100):
        cache, now, events = random_muc_state(rng, Strategy.SOCIAL_SCORE)
        cfg = cache.cfg
        baseline = cache.rank_users(now)[: cfg.n]
        for factor in (0.25, 0.5, 2.0, 8.0):
            twin = twin_cache(cache, events, alpha=cfg.alpha * factor, beta=cfg.beta * factor)
            assert twin.rank_users(now)[: cfg.n] == baseline


def test_channel_cap_enforced_under_churn():
    cache, _ = make_cache(kind=Strategy.RANDOM, n=3)
    rng = random.Random("cap-churn")
    now = 0
    for _ in range(2000):
        now += rng.randrange(0, 3)
        cache.track(f"p{rng.randrange(30)}", LOOKUP, now)
        assert len(cache.channels) <= 3
        assert len(cache.muc) <= cache.muc.max_users


def random_weights(rng):
    """Random interaction-weight fields of a ``StrategyConfig``, each left
    out (at its 1.0 default) one time in five."""
    return {name: rng.uniform(0.0, 3.0) for name in ("lookup_weight", "friend_request_weight")
            if rng.random() < 0.8}


def random_weighted_state(rng, kind, muc_capacity=DUNBAR_MUC_LIMIT):
    """A cache with random non-default weights (some kinds left at the 1.0
    default) whose MUC was filled through ``track`` with interleaved events;
    returns the cache, the ``(user, kind, at)`` tracks in order, and the
    time of the last one."""
    weights = random_weights(rng)
    router = Router()
    cfg = StrategyConfig(kind=kind, n=rng.randrange(1, 6), **weights)
    cache = SocialCache("me", cfg, router.dispatch, Counters(), router.slot_of,
                        muc_capacity=muc_capacity)
    router.add(cache)
    users = [f"p{i}" for i in range(rng.randrange(1, 12))]
    remaining = {u: rng.choice([1, 1, 2, 2, 3, 5, 8]) for u in users}
    tracks = []
    now = 0
    while remaining:
        user = rng.choice(sorted(remaining))
        now += rng.choice([0, 0, 1, 3, 10])
        tracks.append((user, rng.choice(list(InteractionKind)), now))
        cache.track(*tracks[-1])
        remaining[user] -= 1
        if not remaining[user]:
            del remaining[user]
    return cache, tracks, now


def reference_order(cache, now):
    """The cache's tracked users, best first, ranked by the oracles alone."""
    muc, cfg = cache.muc, cache.cfg
    if cfg.kind is Strategy.TREND:
        return sorted(muc, key=lambda u: (-float(muc[u].lookup_count), u))
    return sorted(muc, key=lambda u: (
        -reference_score(muc[u], muc.total_events, now, cfg.alpha, cfg.beta), u))


@pytest.mark.parametrize("kind", [Strategy.TREND, Strategy.SOCIAL_SCORE])
def test_inlined_ranking_equals_per_user_scores_exactly(kind):
    rng = random.Random(f"inlined-ranking/{kind.value}")
    seen_short = seen_now_at_first = 0
    for _ in range(300):
        cache, tracks, last = random_weighted_state(rng, kind)
        weights = weight_map(cache.cfg)
        for user, entry in cache.muc.items():
            assert entry.weighted == sum(weights[k] for u, k, _ in tracks if u == user)
            seen_short += entry.event_count <= 2
        for now in (last, last + rng.choice([1, 7, 1000])):
            seen_now_at_first += any(e.first_at == now for e in cache.muc.values())
            assert cache.rank_users(now) == reference_order(cache, now)
            alpha, beta = rng.choice(
                [(rng.uniform(0.0, 2.0), rng.uniform(0.01, 2.0)), (1.0, 0.0), (0.0, 1.0)])
            twin = twin_cache(cache, tracks, alpha=alpha, beta=beta)
            assert twin.rank_users(now) == reference_order(twin, now)
    assert seen_short and seen_now_at_first


def test_social_score_is_the_reference_score_under_every_strategy():
    """``social_score`` stays the social score where the strategy ranks by
    lookup count: on a trend and a random cache fed the same tracks, it
    equals ``reference_score`` for every tracked user."""
    rng = random.Random("social-score-every-strategy")
    for _ in range(100):
        trend, tracks, last = random_weighted_state(rng, Strategy.TREND)
        alpha, beta = rng.uniform(0.0, 2.0), rng.uniform(0.01, 2.0)
        for kind in (Strategy.TREND, Strategy.RANDOM):
            cache = twin_cache(trend, tracks, kind=kind, alpha=alpha, beta=beta)
            muc = cache.muc
            for now in (last, last + rng.choice([1, 7, 1000])):
                for user, entry in muc.items():
                    assert cache.social_score(user, now) == reference_score(
                        entry, muc.total_events, now, alpha, beta)


@pytest.mark.parametrize("kind", [Strategy.TREND, Strategy.SOCIAL_SCORE])
def test_full_muc_track_evicts_last_ranked(kind):
    rng = random.Random(f"full-muc-eviction/{kind.value}")
    evictions = 0
    for _ in range(100):
        cache, _, last = random_weighted_state(rng, kind, muc_capacity=4)
        if len(cache.muc) < cache.muc.max_users:
            continue
        now = last + rng.randrange(0, 20)
        victim = reference_order(cache, now)[-1]
        cache.track("newcomer", rng.choice(list(InteractionKind)), now)
        assert victim not in cache.muc
        assert "newcomer" in cache.muc
        assert len(cache.muc) == cache.muc.max_users
        evictions += 1
    assert evictions


def muc_state(cache):
    return cache.muc.total_events, [
        (u, e.event_count, e.lookup_count, e.weighted, e.first_at, e.last_at)
        for u, e in cache.muc.items()
    ]


@pytest.mark.parametrize("muc_capacity", [4, DUNBAR_MUC_LIMIT])
@pytest.mark.parametrize("kind", [Strategy.TREND, Strategy.SOCIAL_SCORE])
def test_run_selection_matches_rank_everything_reference(kind, muc_capacity):
    """Two caches see the same tracks and rounds; one selects with
    ``run_selection``, the other with the reference that ranks every
    tracked user.  Diffs, MUC lists and channels must stay equal."""
    rng = random.Random(f"selection-reference/{kind.value}/{muc_capacity}")
    seen = Counter()
    for _ in range(150):
        weights = random_weights(rng)
        n = rng.randrange(1, 7)
        pair = [
            SocialCache("me", StrategyConfig(kind=kind, n=n, **weights),
                        lambda *_: None, Counters(), {}, muc_capacity=muc_capacity)
            for _ in range(2)
        ]
        cache, ref = pair
        users = [f"p{i}" for i in range(rng.randrange(1, 12))]
        times = {}
        now = 0
        for _ in range(rng.randrange(1, 8)):
            # No tracks at all makes back-to-back rounds (an emptied trend MUC).
            for _ in range(rng.choice([0, 1, 2, 5, 20])):
                user = rng.choice(users)
                now += rng.choice([0, 0, 1, 3, 10])
                interaction = rng.choice(list(InteractionKind))
                if user not in cache.muc:
                    times[user] = []
                times[user].append(now)
                for c in pair:
                    c.track(user, interaction, now)
            # The gap a score reads, bit for bit the reference's and the
            # mean of the recorded gaps.
            for _, user, entry, _, gap in cache._score_keys(cache.muc.items(), now):
                ts = times[user]
                assert gap.hex() == _reference_gap(entry).hex()
                assert gap == (ts[-1] - ts[0]) / max(len(ts) - 2, 1)
            now += rng.choice([0, 1, 50])

            entries, channels = cache.muc, cache.channels
            seen["above n" if len(entries) > n else "at most n"] += 1
            seen["channel not tracked"] += any(u not in entries for u in channels)
            seen["empty MUC, live channels"] += not entries and bool(channels)
            seen["one new user"] += (len(entries) <= n
                                     and sum(u not in channels for u in entries) == 1)
            expected = reference_run_selection(ref, now)
            diff = cache.run_selection(now)
            assert (diff.to_subscribe, diff.to_unsubscribe) == expected
            assert muc_state(cache) == muc_state(ref)
            apply_reference_diff(ref, *expected)
            assert list(cache.channels) == list(ref.channels)

    required = ["above n", "at most n", "one new user"]
    if kind is Strategy.TREND:
        required += ["channel not tracked", "empty MUC, live channels"]
    elif muc_capacity < DUNBAR_MUC_LIMIT:
        required += ["channel not tracked"]
    assert all(seen[case] for case in required), seen


@pytest.mark.parametrize("kind", [Strategy.TREND, Strategy.SOCIAL_SCORE])
def test_selection_at_the_dunbar_cap_matches_reference(kind):
    """A 150-slot MUC list filled from 200 users, with n = 15: every track
    of a new user into the full list evicts the last user of the reference
    ranking, and every round's diff and channels equal those of the
    rank-everything reference on a twin cache."""
    rng = random.Random(f"dunbar-cap/{kind.value}")
    pair = [
        SocialCache("me", StrategyConfig(kind=kind, n=15, friend_request_weight=2.0),
                    lambda *_: None, Counters(), {})
        for _ in range(2)
    ]
    cache, ref = pair
    assert cache.muc.max_users == DUNBAR_MUC_LIMIT
    users = [f"p{i:03d}" for i in range(200)]
    seen = Counter()
    now = 0
    # Trend clears the list every round, so a batch that fills it needs
    # more than 150 distinct users.
    for batch in (800, 5, 40, 800, 250, 5, 800, 40, 400, 5, 800, 40) * 3:
        for _ in range(batch):
            now += rng.choice([0, 1, 3, 10])
            # A skewed choice gives a spread of event counts.
            user = users[min(rng.randrange(200), rng.randrange(200))]
            victim = None
            if user not in cache.muc and len(cache.muc) == DUNBAR_MUC_LIMIT:
                victim = reference_order(cache, now)[-1]
            interaction = LOOKUP if rng.random() < 0.8 else FRIEND
            for c in pair:
                c.track(user, interaction, now)
            if victim is not None:
                assert victim not in cache.muc and user in cache.muc
                assert len(cache.muc) == DUNBAR_MUC_LIMIT
                seen["evictions"] += 1
        now += rng.choice([1, 50])
        seen["full list round"] += len(cache.muc) == DUNBAR_MUC_LIMIT
        expected = reference_run_selection(ref, now)
        diff = cache.run_selection(now)
        assert (diff.to_subscribe, diff.to_unsubscribe) == expected
        seen["changed round"] += bool(diff.to_subscribe or diff.to_unsubscribe)
        apply_reference_diff(ref, *expected)
        assert list(cache.channels) == list(ref.channels)
        assert muc_state(cache) == muc_state(ref)
    assert seen["evictions"] > 100 and seen["full list round"] > 3, seen
    assert seen["changed round"] > 3, seen


# -- selection-round skipping -----------------------------------------------------

@pytest.mark.parametrize("kind", [Strategy.TREND, Strategy.SOCIAL_SCORE])
def test_stable_until_is_never_on_a_new_cache_and_now_after_every_track(kind):
    """A new cache has nothing to change, and every track makes the next
    round due, whatever the rounds before it set."""
    rng = random.Random(f"stable-until-track/{kind.value}")
    not_due_after_a_round = 0
    for _ in range(50):
        cache, _ = make_cache(kind=kind, n=rng.randrange(1, 4))
        assert cache.stable_until == math.inf
        now = 0
        for _ in range(rng.randrange(1, 30)):
            now += rng.choice([0, 1, 5, 40])
            rounds = rng.choice([0, 0, 1, 2])
            for _ in range(rounds):
                cache.run_selection(now)
            if rounds and cache.stable_until > now:
                not_due_after_a_round += 1
            cache.track(f"p{rng.randrange(6)}", rng.choice(list(InteractionKind)), now)
            assert cache.stable_until == 0
    assert not_due_after_a_round > 20


@pytest.mark.parametrize("kind", [Strategy.TREND, Strategy.SOCIAL_SCORE])
def test_stable_until_after_a_round(kind):
    """The tick an applied round leaves: never after a social-score round
    over at most n users or a trend round over an empty MUC list, the
    certificate after a social-score selection of more than n users, and no
    later than the round after a trend round over a non-empty list.  A
    round before the tick selects what the channels hold."""
    rng = random.Random(f"stable-until-round/{kind.value}")
    seen = Counter()
    for _ in range(300):
        n = rng.randrange(1, 4)
        cache, _ = make_cache(kind=kind, n=n)
        reference = ReferenceCertificate()
        now = 0
        for _ in range(rng.randrange(1, 6)):
            for _ in range(rng.choice([0, 0, 1, 3, 8])):
                now += rng.choice([0, 1, 5])
                cache.track(f"p{rng.randrange(2 * n + 1)}", rng.choice(list(InteractionKind)),
                            now)
            now += rng.choice([0, 1, 10])
            tracked = len(cache.muc)
            cache.run_selection(now)
            until = cache.stable_until
            if kind is Strategy.TREND:
                case = "trend, non-empty" if tracked else "trend, empty"
                assert until <= now if tracked else until == math.inf
            elif tracked <= n:
                case = "social score, at most n"
                assert until == math.inf
            else:
                case = "social score, above n"
                assert until == reference.after_round(cache, now)
            seen[case] += 1
            if until > now + 1:
                assert reference_run_selection(cache, now + 1) == ((), ()), case
    cases = (["trend, non-empty", "trend, empty"] if kind is Strategy.TREND
             else ["social score, at most n", "social score, above n"])
    assert all(seen[case] > 50 for case in cases), seen


# -- stability certificate -------------------------------------------------------

FRIEND = InteractionKind.FRIEND_REQUEST

# Histories whose first changed round falls exactly on an integer tick: the
# crossing of a chosen and the best unchosen score, in the scores' own float
# arithmetic.  (n, alpha, beta, friend-request weight, tracks, ranking tick,
# first tick whose selection differs.)
BOUNDARY_HISTORIES = [
    (1, 0.6, 0.4, 2.0, [("p3", LOOKUP, 2), ("p0", LOOKUP, 6), ("p3", LOOKUP, 8),
                        ("p2", LOOKUP, 10), ("p1", FRIEND, 11), ("p1", LOOKUP, 11)], 12, 26),
    (3, 0.75, 0.25, 3.0, [("p2", LOOKUP, 4), ("p0", FRIEND, 4), ("p3", FRIEND, 6),
                          ("p0", LOOKUP, 10), ("p1", FRIEND, 10), ("p3", LOOKUP, 11),
                          ("p2", LOOKUP, 13)], 14, 25),
    (3, 0.3, 0.7, 3.0, [("p4", LOOKUP, 1), ("p2", FRIEND, 3), ("p5", LOOKUP, 5),
                        ("p0", LOOKUP, 10), ("p4", LOOKUP, 12), ("p5", FRIEND, 14),
                        ("p0", FRIEND, 15), ("p5", LOOKUP, 16), ("p5", FRIEND, 16)], 16, 232),
]


def certificate_cache(n, alpha, beta, friend_weight):
    cfg = StrategyConfig(kind=Strategy.SOCIAL_SCORE, n=n, alpha=alpha, beta=beta,
                         friend_request_weight=friend_weight)
    return SocialCache("me", cfg, lambda *_: None, Counters(), {})


def select(cache, now, reference):
    """Apply a selection round at ``now`` and return ``stable_until``,
    checked against the cache's ``reference`` (a ``ReferenceCertificate``)
    after every selection of more than ``n`` users."""
    ranked_whole = len(cache.muc) > cache.cfg.n
    cache.run_selection(now)
    until = cache.stable_until
    if ranked_whole:
        assert until == reference.after_round(cache, now), (now, until)
    return until


def assert_selection_stable_below(cache, now, until, horizon):
    """Every tick after ``now`` and below ``until`` (up to ``horizon``
    ticks) selects what the channels already hold; returns the ticks
    checked."""
    checked = 0
    for tick in range(now + 1, min(until, now + horizon)):
        assert reference_run_selection(cache, tick) == ((), ()), (now, tick, until)
        checked += 1
    return checked


@pytest.mark.parametrize("history", BOUNDARY_HISTORIES, ids=["n1", "n3", "n3-late"])
def test_stable_until_stops_at_an_exact_crossing(history):
    n, alpha, beta, friend_weight, tracks, now, first_change = history
    cache = certificate_cache(n, alpha, beta, friend_weight)
    for user, kind, at in tracks:
        cache.track(user, kind, at)
    assert len(cache.muc) > n
    until = select(cache, now, ReferenceCertificate())
    assert until == first_change
    assert assert_selection_stable_below(cache, now, until, horizon=10_000) == until - now - 1
    assert reference_run_selection(cache, first_change) != ((), ())


def test_stable_until_certifies_unchanged_selection():
    """Random histories of more than n users: at every tick below the
    recorded stable-until tick the rank-everything selection is unchanged."""
    rng = random.Random("stability-certificate")
    seen = Counter()
    for _ in range(400):
        n = rng.randrange(1, 4)
        alpha, beta = rng.choice([(0.9, 0.1), (0.5, 0.5), (0.25, 0.75), (0.6, 0.4),
                                  (rng.uniform(0.01, 2.0), rng.uniform(0.01, 2.0)),
                                  (0.0, rng.uniform(0.01, 2.0)), (rng.uniform(0.01, 2.0), 0.0)])
        cache = certificate_cache(n, alpha, beta, rng.choice([0.5, 1.0, 2.0, 3.0]))
        reference = ReferenceCertificate()
        users = [f"p{i}" for i in range(rng.randrange(n + 1, n + 5))]
        now = 0
        for _ in range(rng.randrange(1, 5)):
            for _ in range(rng.randrange(1, 10)):
                now += rng.choice([0, 1, 2, 4])
                cache.track(rng.choice(users), rng.choice([LOOKUP, FRIEND]), now)
            now += rng.choice([0, 1, 3])
            until = select(cache, now, reference)
            if len(cache.muc) <= n:
                continue
            seen["window" if until > now + 1 else "no window"] += 1
            seen["never changes"] += until == math.inf
            seen["ticks checked"] += assert_selection_stable_below(cache, now, until, horizon=200)
    assert seen["window"] and seen["no window"] and seen["never changes"], seen
    assert seen["ticks checked"] > 10_000, seen


def test_stable_until_equals_reference_certificate():
    """The certificate's inlined scores agree exactly with ``reference_score``
    (through ``ReferenceCertificate``, called by ``select``) over random
    histories with random weights, including zero weights, users first
    seen at the ranking tick and users seen only once."""
    rng = random.Random("certificate-reference")
    seen = Counter()
    for _ in range(600):
        n = rng.randrange(1, 5)
        alpha = rng.choice([0.0, 0.9, 0.5, rng.uniform(0.001, 3.0)])
        beta = rng.choice([0.0, 0.1, 0.5, rng.uniform(0.001, 3.0)]) if alpha else 0.4
        cache = certificate_cache(n, alpha, beta, rng.uniform(0.1, 4.0))
        reference = ReferenceCertificate()
        users = [f"p{i}" for i in range(rng.randrange(n + 1, n + 8))]
        now = 0
        for _ in range(rng.randrange(1, 4)):
            for _ in range(rng.randrange(1, 15)):
                now += rng.choice([0, 0, 1, 2, 7, 30])
                cache.track(rng.choice(users), rng.choice([LOOKUP, FRIEND]), now)
            if len(cache.muc) <= n:
                continue
            until = select(cache, now, reference)
            seen["window" if until > now else "no window"] += 1
            seen["never changes"] += until == math.inf
    assert seen["window"] > 100 and seen["no window"] > 100 and seen["never changes"], seen


def test_degenerate_rankings_record_no_window():
    def strong_and_weak(alpha=0.9, beta=0.1):
        # "a" is chosen for good, far above "b": a window that never ends.
        cache = certificate_cache(1, alpha, beta, 1.0)
        for user, at in (("a", 0), ("a", 5), ("b", 9), ("a", 10)):
            cache.track(user, LOOKUP, at)
        return cache

    cache = strong_and_weak()
    assert select(cache, 10, ReferenceCertificate()) == math.inf
    # With alpha 0, "b"'s single event scores 0: the best unchosen score is
    # 0, so there is no window.
    cache = strong_and_weak(alpha=0.0)
    assert select(cache, 10, ReferenceCertificate()) == 10
    # With beta 0 every score is constant, so the untracked order never
    # changes.
    cache = strong_and_weak(beta=0.0)
    assert select(cache, 10, ReferenceCertificate()) == math.inf
    assert assert_selection_stable_below(cache, 10, math.inf, horizon=1_000) == 999

    # Equal scores at the n/n+1 boundary: "a" (falling) ties "b" (flat) at
    # tick 32 and is chosen by name, but loses from tick 33 on.
    cache = certificate_cache(1, 0.5, 0.5, 1.0)
    for user, at in [("a", 0), ("a", 0), ("a", 8)] + [("b", 8)] * 5:
        cache.track(user, LOOKUP, at)
    assert cache.social_score("a", 32) == cache.social_score("b", 32)
    assert select(cache, 32, ReferenceCertificate()) <= 32
    assert list(cache.channels) == ["a"]
    assert reference_run_selection(cache, 33) == (("b",), ("a",))

    # A chosen user first seen at the ranking tick has a constant score, and
    # "b"'s only falls: a window that never ends.
    cache = certificate_cache(1, 0.9, 0.1, 50.0)
    cache.track("b", LOOKUP, 0)
    cache.track("b", LOOKUP, 4)
    cache.track("a", FRIEND, 20)
    assert select(cache, 20, ReferenceCertificate()) == math.inf
    assert list(cache.channels) == ["a"]
    assert assert_selection_stable_below(cache, 20, math.inf, horizon=1_000) == 999

    # Equal constant scores at the boundary stay ordered by name for good.
    cache = certificate_cache(2, 0.9, 0.1, 1.0)
    for user in ("c", "b", "a", "d"):
        cache.track(user, LOOKUP, 3)
    cache.track("d", LOOKUP, 3)
    assert select(cache, 5, ReferenceCertificate()) == math.inf
    assert sorted(cache.channels) == ["a", "d"]
    assert assert_selection_stable_below(cache, 5, math.inf, horizon=1_000) == 999


def test_a_constant_channel_within_the_margin_at_t_is_certified_soundly():
    """A constant channel needs a margin over the falling unchosen scores
    only at the cap: every score is a line in ``1 / T`` whose intercept is
    not negative, so in real numbers that check implies the same one at the
    ranking's total ``T``.  Here "c" (one friend request) is chosen over "u"
    (two lookups) by a ratio of about 1 + 1e-9, and with beta 0 they are
    within the margin at ``T`` but not at the cap.  The certificate made
    there holds: every round below its tick, also after tracks of other
    users up to the cap, selects what the rank-everything reference
    selects."""
    weight, alpha = 2.0000000019999997, 0.3
    cache = certificate_cache(1, alpha, 0.0, weight)
    for user, kind, at in (("u", LOOKUP, 1), ("u", LOOKUP, 3), ("c", FRIEND, 5)):
        cache.track(user, kind, at)
    total, cap = 3, 7
    assert (cache.muc.total_events, cache.muc["u"].weighted) == (total, 2.0)
    top, top_at_cap = alpha * (2.0 / total) + 0.0, alpha * (2.0 / cap) + 0.0
    assert alpha * (weight / total) <= top + top * 1e-9
    assert alpha * (weight / cap) > top_at_cap + top_at_cap * 1e-9
    reference = ReferenceCertificate()
    now = 6
    assert select(cache, now, reference) == math.inf
    assert list(cache.channels) == ["c"]
    cert = cache._cert
    assert cert is not None and cert.tracked == set() and reference.cert is not None
    tracked = set()
    for user in ("v", "w", "x", "y"):
        assert assert_selection_stable_below(cache, now, math.inf, horizon=200) == 199
        now += 1
        cache.track(user, LOOKUP, now)
        tracked.add(user)
        assert reference_run_selection(cache, now) == ((), ())
        assert select(cache, now, reference) == math.inf
        assert cache._cert is cert and cert.tracked == tracked  # the re-check passed
    assert cache.muc.total_events == cap
    assert list(cache.channels) == ["c"]
    assert assert_selection_stable_below(cache, now, math.inf, horizon=200) == 199


def test_a_constant_channel_overtaken_below_the_cap_gets_no_certificate():
    """The certificate's check that the lowest constant channel stays a
    margin above every falling unchosen score at the cap.  Here "c" (one
    friend request of weight 4) is chosen over "u" (two lookups) at ``T =
    3``, but a growing ``T`` shrinks only the tie strength, which is all of
    "c"'s score: after two tracks of new users, at ``T = 5``, "u" ranks
    first.  The check withholds the certificate, so the round at ``T = 5``
    ranks again and swaps them."""
    cache = certificate_cache(1, 0.5, 0.5, 4.0)
    for user, kind, at in (("u", LOOKUP, 0), ("u", LOOKUP, 10), ("c", FRIEND, 10)):
        cache.track(user, kind, at)
    assert select(cache, 20, ReferenceCertificate()) == math.inf
    assert list(cache.channels) == ["c"] and cache._cert is None
    for user, total, expected in (("v", 4, ((), ())), ("w", 5, (("u",), ("c",)))):
        cache.track(user, LOOKUP, 20)
        assert cache.muc.total_events == total
        assert reference_run_selection(cache, 20) == expected
        diff = cache.run_selection(20)
        assert (diff.to_subscribe, diff.to_unsubscribe) == expected
    assert list(cache.channels) == ["u"]


class _CheckedCache(SocialCache):
    """A social cache whose ``run_selection``, also the one ``track`` runs,
    goes through ``check``: ``SocialCache`` has slots, so an instance
    attribute cannot replace the method."""

    __slots__ = ("check",)

    def run_selection(self, now):
        return self.check(now)


@pytest.mark.parametrize("trigger", list(SelectionTrigger))
def test_certificate_survives_tracks_between_rounds(trigger):
    """Random histories with tracks between rounds, every round checked
    against the rank-everything reference, also the rounds ``track`` runs
    under the lookup-count trigger.  Users tracked since a certificate pass
    and fail its re-check, also re-checks of certificates made with a zero
    weight, and a full MUC list evicts channels."""
    rng = random.Random(f"certificate-tracks/{trigger.value}")
    seen = Counter()
    for _ in range(600):
        n = rng.randrange(1, 5)
        alpha, beta = rng.choice([(0.9, 0.1), (0.5, 0.5), (0.3, 0.7),
                                  (rng.uniform(0.01, 2.0), rng.uniform(0.01, 2.0)),
                                  (0.0, rng.uniform(0.01, 2.0)), (rng.uniform(0.01, 2.0), 0.0)])
        cfg = StrategyConfig(kind=Strategy.SOCIAL_SCORE, n=n, m=n + rng.randrange(1, 4),
                             trigger=trigger, alpha=alpha, beta=beta,
                             friend_request_weight=rng.choice([0.5, 1.0, 2.0]))
        cache = _CheckedCache("me", cfg, lambda *_: None, Counters(), {},
                              muc_capacity=rng.choice([n + 1, n + 3, DUNBAR_MUC_LIMIT]))
        run_selection = partial(SocialCache.run_selection, cache)
        in_track = False

        def checked(now):
            expected = reference_run_selection(cache, now)
            cert = cache._cert
            live = (cert is not None and bool(cert.tracked)
                    and cache.muc.total_events <= cert.cap and now < cert.until)
            diff = run_selection(now)
            assert (diff.to_subscribe, diff.to_unsubscribe) == expected, now
            if live:
                seen["re-check passes" if cache._cert is cert else "re-check fails"] += 1
                if cache._cert is cert and not (cfg.alpha and cfg.beta):
                    seen["zero-weight re-check passes"] += 1
            seen["lookup-count round"] += in_track
            return diff

        cache.check = checked
        users = [f"p{i}" for i in range(rng.randrange(n + 1, n + 8))]
        now = 0
        for _ in range(rng.randrange(3, 12)):
            for _ in range(rng.choice([0, 1, 1, 2, 3, 6])):
                now += rng.choice([0, 0, 1, 2, 5])
                user = rng.choice(users)
                entries = cache.muc
                if user not in entries and len(entries) == cache.muc.max_users:
                    seen["channel evicted"] += cache.rank_users(now)[-1] in cache.channels
                in_track = True
                cache.track(user, LOOKUP if rng.random() < 0.8 else FRIEND, now)
                in_track = False
            now += rng.choice([0, 1, 3, 20])
            if trigger is SelectionTrigger.TIME_BASED or rng.random() < 0.3:
                checked(now)
    required = ["re-check passes", "re-check fails", "zero-weight re-check passes",
                "channel evicted"]
    if trigger is SelectionTrigger.LOOKUP_COUNT_BASED:
        required.append("lookup-count round")
    assert all(seen[case] > 20 for case in required), seen
