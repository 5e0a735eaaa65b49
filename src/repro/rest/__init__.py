"""HTTP/REST model: requests, responses, cache-control and Etags.

Quaestor makes database records and query results cacheable by serving them
as plain HTTP resources.  This package models the pieces of HTTP the caching
scheme relies on: Cache-Control directives (``max-age`` for expiration-based
caches, ``s-maxage`` for invalidation-based caches), entity tags for
revalidation (:mod:`repro.rest.etags`), and the response objects the server
hands to the simulated caches.
"""

from __future__ import annotations

from repro.rest.cache_control import CacheControl
from repro.rest.messages import Response, StatusCode

__all__ = [
    "CacheControl",
    "Response",
    "StatusCode",
]
