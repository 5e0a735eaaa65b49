"""Entity tags for conditional revalidation.

When a client or cache revalidates a (presumably) stale resource, it sends the
Etag of its cached copy; the origin answers *304 Not Modified* when the tag
still matches, avoiding a full body transfer.  Etags here derive from the
record version counter (or, for query results, from the member ids and their
versions) so they change exactly when the cached representation changes.

Because tags are pure functions of ``(collection, id, version)`` -- or, for
query results, of the member-version mapping -- their rendering is memoized:
a record that has not changed renders the identical string without paying the
JSON canonicalisation again.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Any, Dict, Tuple

from repro.bloom.hashing import stable_uint64


def etag_for(payload: Any) -> str:
    """A strong Etag derived deterministically from ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, default=str, separators=(",", ":"))
    return f'"{stable_uint64(canonical):016x}"'


@lru_cache(maxsize=65_536)
def etag_for_version(collection: str, document_id: str, version: int) -> str:
    """Etag for an individual record at a specific version."""
    return etag_for({"c": collection, "id": document_id, "v": version})


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
