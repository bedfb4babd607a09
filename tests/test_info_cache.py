import random

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ReferenceLruTtlCache
from socicache.info_cache import CurrentCache
from socicache.model import ContentObject, StorageKey


def obj(path, version=1):
    return ContentObject(StorageKey("u", path), version, 1)


def test_hit_within_ttl():
    cache = CurrentCache(capacity=10, ttl=100)
    content = obj("a")
    cache.insert(content, now=0)
    assert cache.lookup(StorageKey("u", "a"), now=50) is content


def test_expiry_boundary_is_exclusive():
    cache = CurrentCache(capacity=10, ttl=100)
    cache.insert(obj("a"), now=0)
    assert cache.lookup(StorageKey("u", "a"), now=100) is None
    assert StorageKey("u", "a") not in cache.entries  # expired entry evicted
    # The miss is final: the expired entry does not come back.
    assert cache.lookup(StorageKey("u", "a"), now=100) is None


def test_lookup_of_absent_key_misses():
    cache = CurrentCache(capacity=10, ttl=100)
    assert cache.lookup(StorageKey("u", "nope"), now=0) is None
    assert len(cache.entries) == 0


def test_lru_eviction_order():
    cache = CurrentCache(capacity=2, ttl=1000)
    cache.insert(obj("a"), 0)
    cache.insert(obj("b"), 1)
    evicted = cache.insert(obj("c"), 2)
    assert evicted == StorageKey("u", "a")


def test_lookup_refreshes_recency():
    # Reference replay: insert a,b; touch a; insert c -> b is the victim.
    cache = CurrentCache(capacity=2, ttl=1000)
    ref = ReferenceLruTtlCache(capacity=2, ttl=1000)
    for now, path in ((0, "a"), (1, "b")):
        cache.insert(obj(path), now)
        ref.insert(path, path, now)
    cache.lookup(StorageKey("u", "a"), 2)
    ref.lookup("a", 2)
    assert cache.insert(obj("c"), 3) == StorageKey("u", ref.insert("c", "c", 3))


def test_reinsert_replaces_without_eviction():
    cache = CurrentCache(capacity=2, ttl=1000)
    cache.insert(obj("a", version=1), 0)
    cache.insert(obj("b"), 1)
    assert cache.insert(obj("a", version=2), 2) is None
    assert cache.entries[StorageKey("u", "a")][0].version == 2
    assert len(cache.entries) == 2


def test_reinsert_refreshes_validity():
    cache = CurrentCache(capacity=2, ttl=100)
    cache.insert(obj("a", version=1), 0)
    cache.insert(obj("a", version=2), 80)
    assert cache.lookup(StorageKey("u", "a"), 150) is not None


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
            cache.insert(obj(f"k{idx}"), now)
        else:
            got = cache.lookup(StorageKey("u", f"k{idx}"), now)
            assert got is None or got.key == StorageKey("u", f"k{idx}")
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
        key = StorageKey("u", f"k{idx}")
        if op == "insert":
            cache.insert(obj(f"k{idx}"), now)
            inserted_at[key] = now
        else:
            got = cache.lookup(key, now)
            if got is not None:
                assert now - inserted_at[key] < ttl


def replay_against_reference(seed, capacity, ttl, keys):
    """Replay random operations on the cache and on the reference, checking
    the result, a hit's version and the recency order after every step.
    Returns the number of evictions and of expired lookups seen."""
    rng = random.Random(seed)
    cache = CurrentCache(capacity=capacity, ttl=ttl)
    ref = ReferenceLruTtlCache(capacity=capacity, ttl=ttl)
    evictions = expiries = 0
    now = 0
    for step in range(10_000):
        now += rng.randrange(0, 4)
        path = f"k{rng.randrange(keys)}"
        key = StorageKey("u", path)
        if rng.random() < 0.5:
            version = step + 1
            got = cache.insert(obj(path, version), now)
            want = ref.insert(path, version, now)
            assert (got.path if got else None) == want, f"step {step}"
            evictions += want is not None
        else:
            held = key in cache.entries
            got = cache.lookup(key, now)
            want = ref.lookup(path, now)
            assert (got.version if got is not None else None) == want, f"step {step}"
            expiries += held and want is None
        assert [k.path for k in cache.entries] == [k for k, _, _ in ref.items], f"step {step}"
    return evictions, expiries


def test_randomized_sequence_matches_reference_cache():
    replay_against_reference("lru-ttl-oracle", capacity=8, ttl=25, keys=20)


def test_small_cache_interleaves_eviction_and_expiry():
    evictions, expiries = replay_against_reference("lru-ttl-small", capacity=2, ttl=3, keys=5)
    assert evictions > 500 and expiries > 500
