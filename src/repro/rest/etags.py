"""Entity tags for conditional revalidation.

When a client or cache revalidates a (presumably) stale resource, it sends the
Etag of its cached copy; the origin answers *304 Not Modified* when the tag
still matches, avoiding a full body transfer.  Etags here derive from the
record version counter (or, for query results, from the member ids and their
versions) so they change exactly when the cached representation changes.

Every tag is one 8-byte ``hashlib.blake2b`` digest, rendered as sixteen hex
digits in quotes, over an *injective* text of what it names: distinct inputs
hash distinct bytes, so two tags are equal only if the digest itself
collides.  Record and result tags use ``ascii()`` of the identifying tuple(s)
-- a Python literal, so ``("a", "b:1")`` and ``("a:b", "1")`` (or any other
id text that contains a quote, comma, bracket or escape) cannot run together,
``1``, ``1.0``, ``True`` and ``"1"`` stay apart, and every character outside
ASCII is escaped the same way on every interpreter.  Versions are ``int`` in
this system; any other value is tagged through its ``repr`` all the same.
Rendering ``ascii()`` of a ten-member result costs several times the digest,
and most origin reads ask for the tag they asked for last time: record tags
are memoised, result tags per owner
(:class:`~repro.core.representation.ResultTagMemo`).  The record-tag memo is
one table shared by every owner (the SDK's member entries ask for tags the
server already rendered), and it lives for one simulation run:
:class:`~repro.simulation.Simulator` empties it when it is built and when
its run has collected its result, so a run neither inherits the tags of an
earlier run's versions nor leaves its own behind.
"""

from __future__ import annotations

from functools import lru_cache
from hashlib import blake2b
from typing import Dict


def _tag(text: str) -> str:
    """The quoted digest of an ASCII ``text`` -- the one tag rendering."""
    return f'"{blake2b(text.encode("ascii"), digest_size=8).hexdigest()}"'


@lru_cache(maxsize=65_536)
def etag_for_version(collection: str, document_id: str, version: int) -> str:
    """Etag for an individual record at a specific version."""
    return _tag(ascii((collection, document_id, version)))


def etag_for_result(versions: Dict[str, int]) -> str:
    """Etag fingerprinting a query result's member ids and versions.

    Independent of the mapping's order: the pairs are sorted by id (ids are
    unique, so versions are never compared with each other).
    """
    return _tag(ascii(sorted(versions.items())))
