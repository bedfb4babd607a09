import pytest

from socicache.info_cache import CurrentCache
from socicache.metrics import Counters
from socicache.model import InteractionKind, StorageKey
from socicache.overlay import DhtStore, InvalidEnvelopeError, MessageDispatcher
from socicache.peer import NotOwnerError, Peer
from socicache.social_cache import SocialCache, Strategy, StrategyConfig


def build_net(users, setup="both", strategy=Strategy.SOCIAL_SCORE, n=15):
    counters = Counters()
    dht = DhtStore(counters)
    dispatcher = MessageDispatcher(counters)
    slot_of = {}  # shared, as in a run: subscribers find a key at its owner's slot
    peers = {}
    for user in users:
        current = CurrentCache(100, 60_000) if setup in ("both", "current") else None
        social = None
        if setup in ("both", "social"):
            social = SocialCache(user, StrategyConfig(kind=strategy, n=n), dispatcher.dispatch,
                                 counters, slot_of)
        peers[user] = Peer(user, dht, dispatcher, counters, current=current, social=social)
    return dht, dispatcher, counters, peers


def key(owner, path="wall/0"):
    return StorageKey(owner, path)


def answered(counters):
    return counters.social_hits + counters.current_hits + counters.overlay_replies


def tiers(counters):
    """Requests answered so far by the social cache, the current cache and
    the overlay."""
    return counters.social_hits, counters.current_hits, counters.overlay_replies


def test_social_hit_after_pushed_update_uses_no_overlay():
    dht, dispatcher, counters, peers = build_net(["a", "b"])
    peers["b"].add_content(key("b"), 2, now=0)
    # first lookup subscribes a to b (fast path) and bootstraps the content
    peers["a"].handle_request(key("b"), now=1)
    assert tiers(counters) == (0, 0, 1)
    lookups_before = counters.dht_lookups
    peers["a"].handle_request(key("b"), now=2)
    assert tiers(counters) == (1, 0, 1)
    assert counters.dht_lookups == lookups_before  # answered without the overlay


def test_current_hit_when_owner_not_subscribed():
    dht, dispatcher, counters, peers = build_net(["a", "b"], setup="current")
    peers["b"].add_content(key("b"), 2, now=0)
    peers["a"].handle_request(key("b"), now=1)
    assert tiers(counters) == (0, 0, 1)
    peers["a"].handle_request(key("b"), now=2)
    assert tiers(counters) == (0, 1, 1)


def test_cold_key_served_by_overlay_and_cached():
    dht, dispatcher, counters, peers = build_net(["a", "b"])
    peers["b"].add_content(key("b"), 2, now=0)
    peers["a"].handle_request(key("b"), now=1)
    assert tiers(counters) == (0, 0, 1)
    # Each current cache holds the key's insertion tick: the reader's at its
    # overlay reply, the writer's at its post.
    assert peers["a"].current.entries == {key("b"): 1}
    assert peers["b"].current.entries == {key("b"): 0}


def test_tier_exclusivity_per_request():
    dht, dispatcher, counters, peers = build_net(["a", "b"])
    peers["b"].add_content(key("b"), 2, now=0)
    unanswered = 0
    for now in range(1, 30):
        before = (*tiers(counters), counters.total_requests - answered(counters))
        requested = key("b", f"wall/{now % 3}")
        peers["a"].handle_request(requested, now)
        unanswered += requested not in dht.entries
        after = (*tiers(counters), counters.total_requests - answered(counters))
        assert sum(after) - sum(before) == 1
        assert sorted(a - b for a, b in zip(after, before)) == [0, 0, 0, 1]
    assert counters.total_requests - answered(counters) == unanswered


def test_absent_key_counts_unanswered():
    dht, dispatcher, counters, peers = build_net(["a", "b"])
    peers["a"].handle_request(key("b", "wall/9"), now=1)
    assert tiers(counters) == (0, 0, 0)
    assert counters.total_requests == 1
    # The unanswered request is still a tracked lookup of the key's owner.
    entry = peers["a"].social.muc["b"]
    assert (entry.event_count, entry.lookup_count) == (1, 1)


def test_post_fans_out_to_subscribers():
    dht, dispatcher, counters, peers = build_net(["a", "b", "c", "d"])
    # subscribe b, c, d to a's channel
    for name in ("b", "c", "d"):
        peers[name].social._subscribe("a")
    messages_before = counters.dispatcher_messages
    peers["a"].add_content(key("a"), 4, now=1)
    assert counters.dispatcher_messages - messages_before == 3  # one update per subscriber
    for name in ("b", "c", "d"):
        stored = peers[name].social.lookup(key("a"))
        assert stored is not None and stored.size == 4
    assert counters.bootstrap_dumps == 3


def test_post_with_no_subscribers_still_persists():
    dht, dispatcher, counters, peers = build_net(["a", "b"])
    messages_before = counters.dispatcher_messages
    peers["a"].add_content(key("a"), 4, now=1)
    assert counters.dispatcher_messages == messages_before  # no update envelopes
    assert dht.get(key("a")).size == 4


def test_own_content_served_from_social_cache():
    dht, dispatcher, counters, peers = build_net(["a", "b"])
    peers["a"].add_content(key("a"), 4, now=0)
    lookups_before = counters.dht_lookups
    peers["a"].handle_request(key("a"), now=1)
    assert tiers(counters) == (1, 0, 0)
    assert counters.dht_lookups == lookups_before


def test_foreign_write_rejected():
    dht, dispatcher, counters, peers = build_net(["a", "b"])
    with pytest.raises(NotOwnerError):
        peers["a"].add_content(key("b"), 4, now=0)


def test_versions_increase_per_key():
    dht, dispatcher, counters, peers = build_net(["a", "b"])
    v1 = peers["a"].add_content(key("a"), 1, now=0)
    v2 = peers["a"].add_content(key("a"), 1, now=1)
    other = peers["a"].add_content(key("a", "wall/1"), 1, now=2)
    assert (v1.version, v2.version, other.version) == (1, 2, 1)
    assert dht.get(key("a")).version == 2


def test_lookup_tracking_disabled_without_social_cache():
    dht, dispatcher, counters, peers = build_net(["a", "b"], setup="current")
    peers["b"].add_content(key("b"), 1, now=0)
    peers["a"].handle_request(key("b"), now=1)
    assert peers["a"].social is None
    assert counters.subscriptions_sent == 0


def test_friend_request_counts_one_message_and_tracks_the_target(monkeypatch):
    dht, dispatcher, counters, peers = build_net(["a", "b"])
    tracked = []
    track = SocialCache.track

    def recording_track(cache, user, kind, now):
        tracked.append((cache.owner, user, kind, now))
        track(cache, user, kind, now)

    monkeypatch.setattr(SocialCache, "track", recording_track)
    peers["a"].send_friend_request("b", now=5)
    assert counters.dispatcher_messages == 1
    assert tracked == [("a", "b", InteractionKind.FRIEND_REQUEST, 5)]
    entry = peers["a"].social.muc["b"]
    assert (entry.event_count, entry.lookup_count) == (1, 0)
    assert not peers["a"].social.channels  # only a lookup subscribes


def test_friend_request_to_oneself_raises_and_changes_nothing():
    dht, dispatcher, counters, peers = build_net(["a", "b"])
    with pytest.raises(InvalidEnvelopeError):
        peers["a"].send_friend_request("a", now=1)
    assert counters == Counters()
    assert not peers["a"].social.muc
