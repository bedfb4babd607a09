"""A simulated peer: the unified lookup pipeline over the enabled cache
tiers plus the authoritative write path for its own content.

Request resolution order is social cache (own content, then subscribed
content), then the current cache, then the overlay; a request counts one
hit of the tier that answered it in the run's ``Counters``.  Interaction
tracking and the per-lookup subscription actions run after the request has
been answered, so a cold key is always served by the overlay even when the
triggered subscription would have pushed it a moment later.
"""
from __future__ import annotations

from .info_cache import CurrentCache
from .metrics import Counters
from .model import ContentObject, InteractionKind, SimTime, StorageKey, UserId
from .overlay import DhtStore, MessageDispatcher, MessageEnvelope, MessageKind
from .social_cache import SocialCache

# Enum members read per request or message, bound once (see ``social_cache``).
_LOOKUP, _FRIEND_REQUEST = InteractionKind.LOOKUP, InteractionKind.FRIEND_REQUEST
_SYSTEM_NOTICE = MessageKind.SYSTEM_NOTICE
_SUBSCRIBE, _UNSUBSCRIBE = MessageKind.SUBSCRIBE, MessageKind.UNSUBSCRIBE
_SOCIAL_UPDATE, _BOOTSTRAP_DUMP = MessageKind.SOCIAL_UPDATE, MessageKind.BOOTSTRAP_DUMP


class NotOwnerError(PermissionError):
    """Attempt to publish under another user's key."""


class Peer:
    """One user's node over the caches of its run's enabled tiers, each
    built by ``Simulation`` (``None`` for a disabled tier).  Outbound
    messages go straight to the dispatcher: the social cache builds one
    envelope per send and dispatches it per recipient, and
    ``send_friend_request`` builds its own.  Inbound envelopes arrive at
    ``on_envelope``, found per delivery in the run's peer table."""

    __slots__ = ("user", "dht", "dispatcher", "counters", "current", "social")

    def __init__(
        self,
        user: UserId,
        dht: DhtStore,
        dispatcher: MessageDispatcher,
        counters: Counters,
        *,
        current: CurrentCache | None = None,
        social: SocialCache | None = None,
    ):
        self.user = user
        self.dht = dht
        self.dispatcher = dispatcher
        self.counters = counters
        self.current = current
        self.social = social

    # -- lookup pipeline ----------------------------------------------------

    def handle_request(self, key: StorageKey, now: SimTime) -> None:
        """Resolve a plugin request and count it, and its answering tier if
        the key exists anywhere, in the run's counters."""
        counters = self.counters
        counters.total_requests += 1
        social = self.social
        if social is not None and social.lookup(key) is not None:
            counters.social_hits += 1
        elif (current := self.current) is not None and current.lookup(key, now) is not None:
            counters.current_hits += 1
        elif self.dht.get(key) is not None:
            counters.overlay_replies += 1
            if current is not None:
                current.insert(key, now)
        owner = key.owner
        if social is not None and owner != self.user:
            social.track(owner, _LOOKUP, now)

    # -- writes -------------------------------------------------------------

    def add_content(self, key: StorageKey, size: int, now: SimTime) -> ContentObject:
        """Publish own content of ``size`` bytes: the overlay write numbers the
        version, then one social update per subscriber, then the current cache."""
        if key.owner != self.user:
            raise NotOwnerError(f"{self.user!r} cannot write {key}")
        content = self.dht.put(key, size)
        if self.social is not None:
            self.social.publish(content)
        if self.current is not None:
            self.current.insert(key, now)
        return content

    def send_friend_request(self, target: UserId, now: SimTime) -> None:
        """Friend requests travel as system messages without a payload and
        count as tracked interactions with the target.  A request to oneself
        raises in ``dispatch`` before anything is counted or tracked."""
        self.dispatcher.dispatch(MessageEnvelope(self.user, _SYSTEM_NOTICE, None), target)
        if self.social is not None:
            self.social.track(target, _FRIEND_REQUEST, now)

    # -- inbound ------------------------------------------------------------

    def on_envelope(self, env: MessageEnvelope) -> None:
        """Route a delivered envelope to the social cache.  Social updates,
        most of the traffic, are tested first."""
        social = self.social
        if social is None:
            return
        kind = env.kind
        if kind is _SOCIAL_UPDATE:
            social.on_social_update(env.sender, env.payload)
        elif kind is _SUBSCRIBE:
            social.on_subscribe_received(env.sender)
        elif kind is _UNSUBSCRIBE:
            social.on_unsubscribe_received(env.sender)
        elif kind is _BOOTSTRAP_DUMP:
            social.on_bootstrap(env.sender, env.payload)
        # System notices only notify; nothing to store.
