"""Entity tags for conditional revalidation.

When a client or cache revalidates a (presumably) stale resource, it sends the
Etag of its cached copy; the origin answers *304 Not Modified* when the tag
still matches, avoiding a full body transfer.  Etags here derive from the
record version counter (or, for query results, from the member ids and their
versions) so they change exactly when the cached representation changes.

Because tags are pure functions of ``(collection, id, version)`` -- or, for
query results, of the member-version mapping -- their rendering is memoized:
a record that has not changed renders the identical string without paying the
JSON canonicalisation again.  A *new* version of a known record does not start
over either: FNV-1a is a running hash, so the state after the canonical JSON
up to the version digits is memoized per ``(collection, id)`` and only the
tail is hashed.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Any, Dict, Tuple

from repro.bloom.hashing import fnv1a_64


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, default=str, separators=(",", ":"))


def etag_for(payload: Any) -> str:
    """A strong Etag derived deterministically from ``payload``."""
    return f'"{fnv1a_64(_canonical(payload).encode("utf-8")):016x}"'


@lru_cache(maxsize=65_536)
def _version_prefix_state(collection: str, document_id: str) -> int:
    """FNV state after ``{"c":…,"id":…,"v":`` -- a record tag up to its version."""
    canonical = _canonical({"c": collection, "id": document_id, "v": 0})
    return fnv1a_64(canonical[:-2].encode("utf-8"))  # minus ``0}``


@lru_cache(maxsize=65_536)
def etag_for_version(collection: str, document_id: str, version: int) -> str:
    """Etag for an individual record at a specific version."""
    if type(version) is not int:
        return etag_for({"c": collection, "id": document_id, "v": version})
    state = _version_prefix_state(collection, document_id)
    return f'"{fnv1a_64(b"%d}" % version, state):016x}"'


@lru_cache(maxsize=16_384)
def _etag_for_result_cached(items: Tuple[Tuple[str, int], ...]) -> str:
    versions = dict(items)
    return etag_for({"ids": sorted(versions), "versions": versions})


def etag_for_result(versions: Dict[str, int]) -> str:
    """Etag fingerprinting a query result's member ids and versions.

    Renders the same string as
    ``etag_for({"ids": sorted(versions), "versions": versions})`` (the
    canonical JSON sorts keys either way) but memoizes it per version
    mapping, so an unchanged result re-served by the read pipeline skips the
    canonicalisation entirely.
    """
    return _etag_for_result_cached(tuple(sorted(versions.items())))


def weak_compare(left: str, right: str) -> bool:
    """Weak comparison: equal ignoring the ``W/`` prefix."""
    return left.removeprefix("W/") == right.removeprefix("W/")
