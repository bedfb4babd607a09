"""Simulated overlay: a key-value store, whose ``DhtStore.put`` makes every
version, plus a synchronous user-to-user message dispatcher over the run's
peer table, both counting their traffic into the run's ``Counters``.

An envelope carries no recipient: the sender builds it once per send and
the dispatcher hands it to each recipient's ``on_envelope`` in turn, so a
publish to k subscribers shares one envelope across k deliveries.

Replication is modelled only as a write-traffic multiplier; there is no
replica placement, routing or churn.  Both structures are owned by a single
simulation event loop and are not thread-safe.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, NamedTuple

from .metrics import Counters
from .model import ContentObject, StorageKey, UserId


class InvalidEnvelopeError(ValueError):
    """Self-addressed or otherwise undeliverable envelope."""


class DhtStore:
    """Key-value store keeping the latest object per key.

    ``bytes_written`` charges each put with content size times the
    replication factor; ``bytes_read`` is charged per successful get.
    """

    def __init__(self, counters: Counters, replication_factor: int = 4):
        self.counters = counters
        self.replication_factor = replication_factor
        self.entries: dict[StorageKey, ContentObject] = {}

    def put(self, key: StorageKey, size: int) -> ContentObject:
        """Store ``key``'s next version: 1 for a new key, else the stored one + 1."""
        stored = self.entries.get(key)
        content = self.entries[key] = ContentObject(
            key, 1 if stored is None else stored.version + 1, size)
        counters = self.counters
        counters.dht_puts += 1
        counters.bytes_written += size * self.replication_factor
        return content

    def get(self, key: StorageKey) -> ContentObject | None:
        """Overlay lookup; a miss is counted but is not an error."""
        counters = self.counters
        counters.dht_lookups += 1
        obj = self.entries.get(key)
        if obj is not None:
            counters.bytes_read += obj.size
        return obj


class MessageKind(enum.Enum):
    SUBSCRIBE = "subscribe"
    UNSUBSCRIBE = "unsubscribe"
    SOCIAL_UPDATE = "social_update"
    BOOTSTRAP_DUMP = "bootstrap_dump"
    SYSTEM_NOTICE = "system_notice"


class MessageEnvelope(NamedTuple):
    """A message as sent: its sender, kind and payload, with no recipient
    and no send time, as delivery is immediate.  The payload is opaque to
    the dispatcher."""

    sender: UserId
    kind: MessageKind
    payload: Any


@dataclass(slots=True)
class MessageDispatcher:
    """Delivers envelopes through ``peers``, the run's peer table (the very
    dict ``Simulation.peers``), at once: the recipient's ``on_envelope`` runs
    in the same event-loop step, so delivery takes no simulated time and the
    system is quiescent between events."""

    counters: Counters
    peers: dict[UserId, Any]

    def dispatch(self, env: MessageEnvelope, recipient: UserId) -> None:
        if env.sender == recipient:
            raise InvalidEnvelopeError(f"self-addressed envelope from {env.sender!r}")
        peer = self.peers.get(recipient)
        if peer is None:
            raise InvalidEnvelopeError(f"recipient {recipient!r} is not a peer of the run")
        self.counters.dispatcher_messages += 1
        peer.on_envelope(env)
