from types import SimpleNamespace

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
)

KEY = StorageKey("alice", "wall/1")


def test_put_then_get_round_trip():
    store = DhtStore(Counters())
    v1 = store.put(KEY, 10)
    assert v1 == ContentObject(KEY, 1, 10)
    assert store.get(KEY) is v1


def test_put_newer_version_wins():
    store = DhtStore(Counters())
    store.put(KEY, 10)
    v2 = store.put(KEY, 7)
    assert v2 == ContentObject(KEY, 2, 7)
    assert store.get(KEY) is v2


@pytest.mark.parametrize(
    "other", [StorageKey("alice", "wall/2"), StorageKey("bob", "wall/1")],
    ids=["other-path", "other-owner"],
)
def test_put_numbers_each_key_on_its_own(other):
    """Interleaved puts on two keys that share an owner or a path each
    number their own versions from 1."""
    store = DhtStore(Counters())
    puts = [KEY, other, KEY, KEY, other]
    versions = [store.put(k, 1).version for k in puts]
    assert versions == [1, 1, 2, 3, 2]
    assert (store.entries[KEY].version, store.entries[other].version) == (3, 2)


def test_get_absent_returns_none_and_counts():
    store = DhtStore(Counters())
    assert store.get(StorageKey("a", "b")) is None
    assert store.counters.dht_lookups == 1
    assert store.counters.bytes_read == 0


def test_lookup_counter_per_get():
    store = DhtStore(Counters())
    store.put(KEY, 10)
    store.get(KEY)
    store.get(KEY)
    assert store.counters.dht_lookups == 2


def test_byte_accounting_uses_replication_factor():
    store = DhtStore(Counters(), replication_factor=4)
    store.put(KEY, 100)
    assert store.counters.bytes_written == 400
    store.get(KEY)
    assert store.counters.bytes_read == 100


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=2048), min_size=1, max_size=30),
    factor=st.integers(min_value=1, max_value=8),
)
def test_bytes_written_matches_sum_over_puts(sizes, factor):
    store = DhtStore(Counters(), replication_factor=factor)
    versions = [store.put(KEY, size).version for size in sizes]
    assert versions == list(range(1, len(sizes) + 1))
    assert store.counters.bytes_written == sum(sizes) * factor
    assert store.counters.dht_puts == len(sizes)


def env(sender="a", kind=MessageKind.SYSTEM_NOTICE, payload=None):
    return MessageEnvelope(sender, kind, payload)


def stub(seen):
    """A peer of the table that records each envelope it is handed."""
    return SimpleNamespace(on_envelope=seen.append)


def test_dispatch_to_online_peer_runs_handler_in_step():
    seen = []
    md = MessageDispatcher(Counters(), {"b": stub(seen)})
    md.dispatch(env(), "b")
    assert seen == [("a", MessageKind.SYSTEM_NOTICE, None)]  # sender, kind, payload
    assert md.counters.dispatcher_messages == 1


def test_self_addressed_envelope_rejected():
    seen = []
    md = MessageDispatcher(Counters(), {"a": stub(seen)})
    with pytest.raises(InvalidEnvelopeError):
        md.dispatch(env(sender="a"), "a")
    assert md.counters.dispatcher_messages == 0
    assert seen == []


@given(recipients=st.lists(st.sampled_from(["b", "c"]), min_size=1, max_size=20))
def test_dispatch_to_unregistered_user_raises_and_is_not_counted(recipients):
    seen = []
    md = MessageDispatcher(Counters(), {"b": stub(seen)})
    for recipient in recipients:
        if recipient == "c":
            with pytest.raises(InvalidEnvelopeError):
                md.dispatch(env(), "c")
        else:
            md.dispatch(env(), "b")
    assert len(seen) == recipients.count("b")
    assert md.counters.dispatcher_messages == recipients.count("b")
