"""Core vocabulary shared by every simulator component.

Users, storage keys, versioned content objects and interaction kinds.
All types here are immutable values; time is an integer tick count in
simulated milliseconds.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

# A user is identified by an opaque, non-empty name; equality is exact
# string equality.  Simulated time is an integer number of milliseconds.
UserId = str
SimTime = int


class ConfigError(ValueError):
    """Scenario configuration that cannot produce a runnable experiment;
    ``keys`` are the fields its check read (``section.name`` in a section)."""

    def __init__(self, message: str, keys: tuple[str, ...] = ()):
        super().__init__(message)
        self.keys = keys


class InvalidKeyError(ValueError):
    """Raised for malformed or unparseable storage keys."""


class StorageKey(NamedTuple):
    """Address of a stored content object, encoding its owner.

    The wire form is ``"owner/path"``; the first ``'/'`` separates the
    owning user from the path, so the owner must not contain ``'/'``.
    """

    owner: UserId
    path: str

    def __str__(self) -> str:
        return f"{self.owner}/{self.path}"

    @classmethod
    def parse(cls, text: str) -> "StorageKey":
        owner, sep, path = text.partition("/")
        if not sep or not owner or not path:
            raise InvalidKeyError(f"malformed storage key: {text!r}")
        return cls(owner, path)


@dataclass(frozen=True, slots=True)
class ContentObject:
    """A versioned stored item of ``size`` bytes, written only by its key's
    owner; versions per key strictly increase."""

    key: StorageKey
    version: int
    size: int


class InteractionKind(enum.Enum):
    """The interactions a peer tracks: its lookups of a user's content and
    its friend requests to a user."""

    LOOKUP = "lookup"
    FRIEND_REQUEST = "friend_request"

