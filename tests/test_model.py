import dataclasses

import pytest
from hypothesis import given
from hypothesis import strategies as st

from socicache.model import ContentObject, InvalidKeyError, StorageKey


def round_trips(key: StorageKey) -> bool:
    """Whether the key's wire form parses back to the same key."""
    try:
        return StorageKey.parse(str(key)) == key
    except InvalidKeyError:
        return False


@pytest.mark.parametrize(
    "owner,path,expected",
    [
        ("alice", "wall/1", "alice/wall/1"),
        ("bob", "profile", "bob/profile"),
    ],
)
def test_format_storage_key(owner, path, expected):
    assert str(StorageKey(owner, path)) == expected


@pytest.mark.parametrize("owner,path", [("", "wall/1"), ("alice", ""), ("a/b", "x")])
def test_format_storage_key_rejects_bad_input(owner, path):
    # An empty part or a '/' in the owner has no wire form that parses back.
    assert not round_trips(StorageKey(owner, path))


@pytest.mark.parametrize(
    "text,owner",
    [("alice/wall/1", "alice"), ("bob/profile", "bob")],
)
def test_get_username(text, owner):
    assert StorageKey.parse(text).owner == owner


def test_get_username_rejects_missing_separator():
    with pytest.raises(InvalidKeyError):
        StorageKey.parse("noslash")


def test_get_username_is_pure():
    assert StorageKey.parse("carol/x/y").owner == StorageKey.parse("carol/x/y").owner == "carol"


owners = st.text(
    st.characters(blacklist_characters="/\n", min_codepoint=33, max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
)
paths = st.text(
    st.characters(blacklist_characters="\n", min_codepoint=33, max_codepoint=0x2FF),
    min_size=1,
    max_size=24,
)


@given(owner=owners, path=paths)
def test_key_round_trip(owner, path):
    key = StorageKey.parse(str(StorageKey(owner, path)))
    assert (key.owner, key.path) == (owner, path)
    assert str(key) == f"{owner}/{path}"


def test_content_object_fields():
    key = StorageKey("alice", "wall/1")
    obj = ContentObject(key, 3, 2)
    assert [f.name for f in dataclasses.fields(obj)] == ["key", "version", "size"]
    assert (obj.key.owner, obj.version, obj.size) == ("alice", 3, 2)
