"""Simulated overlay: a key-value store plus a synchronous user-to-user
message dispatcher, both counting their traffic into the run's ``Counters``.

An envelope carries no recipient: the sender builds it once per send and
the dispatcher delivers it to each recipient in turn, so a publish to k
subscribers shares one envelope across k deliveries.

Replication is modelled only as a write-traffic multiplier; there is no
replica placement, routing or churn.  Both structures are owned by a single
simulation event loop and are not thread-safe.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple

from .metrics import Counters
from .model import ContentObject, StorageKey, UserId


class StaleWriteError(ValueError):
    """Write with a version not above the stored version."""


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

    def put(self, content: ContentObject) -> None:
        stored = self.entries.get(content.key)
        if stored is not None and content.version <= stored.version:
            raise StaleWriteError(
                f"version {content.version} <= stored {stored.version} for {content.key}"
            )
        self.entries[content.key] = content
        counters = self.counters
        counters.dht_puts += 1
        counters.bytes_written += content.size * self.replication_factor

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
    """Delivers envelopes to registered users immediately: the recipient's
    handler runs in the same event-loop step, so delivery takes no
    simulated time and the system is quiescent between events."""

    counters: Counters
    handlers: dict[UserId, Callable[[MessageEnvelope], None]] = field(default_factory=dict)

    def register(self, user: UserId, handler: Callable[[MessageEnvelope], None]) -> None:
        self.handlers[user] = handler

    def dispatch(self, env: MessageEnvelope, recipient: UserId) -> None:
        if env.sender == recipient:
            raise InvalidEnvelopeError(f"self-addressed envelope from {env.sender!r}")
        handler = self.handlers.get(recipient)
        if handler is None:
            raise InvalidEnvelopeError(f"no registered recipient {recipient!r}")
        self.counters.dispatcher_messages += 1
        handler(env)
