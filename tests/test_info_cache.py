import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ReferenceLruTtlCache
from socicache.info_cache import CurrentCache
from socicache.model import StorageKey


def key(path):
    return StorageKey("u", path)


def test_hit_within_ttl():
    cache = CurrentCache(capacity=10, ttl=100)
    cache.insert(key("a"), now=7)
    assert cache.lookup(key("a"), now=50) == 7
    assert cache.entries == {key("a"): 7}


def test_tick_zero_is_a_hit():
    cache = CurrentCache(capacity=10, ttl=100)
    cache.insert(key("a"), now=0)
    assert cache.lookup(key("a"), now=99) == 0


def test_expiry_boundary_is_exclusive():
    cache = CurrentCache(capacity=10, ttl=100)
    cache.insert(key("a"), now=0)
    assert cache.lookup(key("a"), now=100) is None
    assert key("a") not in cache.entries  # expired entry evicted
    # The miss is final: the expired entry does not come back.
    assert cache.lookup(key("a"), now=100) is None


def test_lookup_of_absent_key_misses():
    cache = CurrentCache(capacity=10, ttl=100)
    assert cache.lookup(key("nope"), now=0) is None
    assert len(cache.entries) == 0


def test_lru_eviction_order():
    cache = CurrentCache(capacity=2, ttl=1000)
    cache.insert(key("a"), 0)
    cache.insert(key("b"), 1)
    evicted = cache.insert(key("c"), 2)
    assert evicted == key("a")


def test_lookup_refreshes_recency():
    # Reference replay: insert a,b; touch a; insert c -> b is the victim.
    cache = CurrentCache(capacity=2, ttl=1000)
    ref = ReferenceLruTtlCache(capacity=2, ttl=1000)
    for now, path in ((0, "a"), (1, "b")):
        cache.insert(key(path), now)
        ref.insert(path, now, now)
    assert cache.lookup(key("a"), 2) == ref.lookup("a", 2) == 0
    assert cache.insert(key("c"), 3) == key(ref.insert("c", 3, 3))


def test_reinsert_replaces_without_eviction():
    cache = CurrentCache(capacity=2, ttl=1000)
    cache.insert(key("a"), 0)
    cache.insert(key("b"), 1)
    assert cache.insert(key("a"), 2) is None
    assert cache.entries == {key("b"): 1, key("a"): 2}


def test_reinsert_refreshes_validity():
    cache = CurrentCache(capacity=2, ttl=100)
    cache.insert(key("a"), 0)
    cache.insert(key("a"), 80)
    assert cache.lookup(key("a"), 150) == 80


ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "lookup"]),
        st.integers(min_value=0, max_value=7),  # key index
        st.integers(min_value=0, max_value=3),  # time advance
    ),
    max_size=200,
)


@given(ops=ops, capacity=st.integers(min_value=1, max_value=5))
@settings(deadline=None)
def test_capacity_never_exceeded(ops, capacity):
    cache = CurrentCache(capacity=capacity, ttl=10)
    now = 0
    for op, idx, advance in ops:
        now += advance
        if op == "insert":
            cache.insert(key(f"k{idx}"), now)
        else:
            got = cache.lookup(key(f"k{idx}"), now)
            assert got is None or got <= now
        assert len(cache.entries) <= capacity


@given(ops=ops, capacity=st.integers(min_value=1, max_value=5))
@settings(deadline=None)
def test_ttl_safety_no_stale_hits(ops, capacity):
    ttl = 10
    cache = CurrentCache(capacity=capacity, ttl=ttl)
    inserted_at: dict[StorageKey, int] = {}
    now = 0
    for op, idx, advance in ops:
        now += advance
        k = key(f"k{idx}")
        if op == "insert":
            cache.insert(k, now)
            inserted_at[k] = now
        else:
            got = cache.lookup(k, now)
            if got is not None:
                assert got == inserted_at[k] and now - got < ttl


def replay_against_reference(seed, capacity, ttl, keys):
    """Replay random operations on the cache and on the reference, checking
    the result, a hit's insertion tick (the reference stores it as the
    value) and the recency order after every step.  Returns the number of
    evictions and of expired lookups seen."""
    rng = random.Random(seed)
    cache = CurrentCache(capacity=capacity, ttl=ttl)
    ref = ReferenceLruTtlCache(capacity=capacity, ttl=ttl)
    evictions = expiries = 0
    now = 0
    for step in range(10_000):
        now += rng.randrange(0, 4)
        path = f"k{rng.randrange(keys)}"
        k = key(path)
        if rng.random() < 0.5:
            got = cache.insert(k, now)
            want = ref.insert(path, now, now)
            assert (got.path if got else None) == want, f"step {step}"
            evictions += want is not None
        else:
            held = k in cache.entries
            got = cache.lookup(k, now)
            want = ref.lookup(path, now)
            assert got == want, f"step {step}"
            expiries += held and want is None
        assert [k.path for k in cache.entries] == [k for k, _, _ in ref.items], f"step {step}"
    return evictions, expiries


def test_randomized_sequence_matches_reference_cache():
    replay_against_reference("lru-ttl-oracle", capacity=8, ttl=25, keys=20)


def test_small_cache_interleaves_eviction_and_expiry():
    evictions, expiries = replay_against_reference("lru-ttl-small", capacity=2, ttl=3, keys=5)
    assert evictions > 500 and expiries > 500
