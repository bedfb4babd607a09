import pytest
from hypothesis import given
from hypothesis import strategies as st

from socicache.metrics import Counters
from socicache.model import ContentObject, StorageKey
from socicache.overlay import (
    DhtStore,
    InvalidEnvelopeError,
    MessageDispatcher,
    MessageEnvelope,
    MessageKind,
    StaleWriteError,
)


def obj(owner="alice", path="wall/1", version=1, size=10):
    key = StorageKey(owner, path)
    return ContentObject(key, version, size)


def test_put_then_get_round_trip():
    store = DhtStore(Counters())
    v1 = obj()
    store.put(v1)
    assert store.get(v1.key) is v1


def test_put_newer_version_wins():
    store = DhtStore(Counters())
    store.put(obj(version=1))
    v2 = obj(version=2)
    store.put(v2)
    assert store.get(v2.key) is v2


@pytest.mark.parametrize("stale_version", [1, 2])
def test_put_stale_version_rejected(stale_version):
    store = DhtStore(Counters())
    store.put(obj(version=2))
    with pytest.raises(StaleWriteError):
        store.put(obj(version=stale_version))
    assert store.get(obj().key).version == 2


def test_get_absent_returns_none_and_counts():
    store = DhtStore(Counters())
    assert store.get(StorageKey("a", "b")) is None
    assert store.counters.dht_lookups == 1
    assert store.counters.bytes_read == 0


def test_lookup_counter_per_get():
    store = DhtStore(Counters())
    store.put(obj())
    store.get(obj().key)
    store.get(obj().key)
    assert store.counters.dht_lookups == 2


def test_byte_accounting_uses_replication_factor():
    store = DhtStore(Counters(), replication_factor=4)
    store.put(obj(size=100))
    assert store.counters.bytes_written == 400
    store.get(obj().key)
    assert store.counters.bytes_read == 100


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=2048), min_size=1, max_size=30),
    factor=st.integers(min_value=1, max_value=8),
)
def test_bytes_written_matches_sum_over_puts(sizes, factor):
    store = DhtStore(Counters(), replication_factor=factor)
    for version, size in enumerate(sizes, start=1):
        store.put(obj(version=version, size=size))
    assert store.counters.bytes_written == sum(sizes) * factor


def env(sender="a", kind=MessageKind.SYSTEM_NOTICE, payload=None):
    return MessageEnvelope(sender, kind, payload)


def test_dispatch_to_online_peer_runs_handler_in_step():
    md = MessageDispatcher(Counters())
    seen = []
    md.register("b", seen.append)
    md.dispatch(env(), "b")
    assert seen == [("a", MessageKind.SYSTEM_NOTICE, None)]  # sender, kind, payload
    assert md.counters.dispatcher_messages == 1


def test_self_addressed_envelope_rejected():
    md = MessageDispatcher(Counters())
    md.register("a", lambda e: None)
    with pytest.raises(InvalidEnvelopeError):
        md.dispatch(env(sender="a"), "a")
    assert md.counters.dispatcher_messages == 0


@given(recipients=st.lists(st.sampled_from(["b", "c"]), min_size=1, max_size=20))
def test_dispatch_to_unregistered_user_raises_and_is_not_counted(recipients):
    md = MessageDispatcher(Counters())
    md.register("b", lambda e: None)
    for recipient in recipients:
        if recipient == "c":
            with pytest.raises(InvalidEnvelopeError):
                md.dispatch(env(), "c")
        else:
            md.dispatch(env(), "b")
    assert md.counters.dispatcher_messages == recipients.count("b")
