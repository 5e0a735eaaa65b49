"""Request/response objects exchanged between clients, caches and the server."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.rest.cache_control import UNCACHEABLE, CacheControl


class StatusCode(int, enum.Enum):
    """HTTP status codes used by the reproduction."""

    OK = 200
    CREATED = 201
    NOT_MODIFIED = 304
    BAD_REQUEST = 400
    NOT_FOUND = 404
    CONFLICT = 409
    PRECONDITION_FAILED = 412
    SERVICE_UNAVAILABLE = 503


@dataclass(slots=True)
class Request:
    """A REST request addressed by resource URL (the cache key).

    The HTTP method is normalised to upper case once at construction, so
    method checks on the request path are plain string comparisons instead of
    an ``.upper()`` allocation per access.
    """

    method: str
    url: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: Any = None

    def __post_init__(self) -> None:
        self.method = self.method.upper()

    @property
    def is_read(self) -> bool:
        return self.method in ("GET", "HEAD")

    @property
    def if_none_match(self) -> Optional[str]:
        return self.headers.get("If-None-Match")

    def with_revalidation(self, etag: str) -> "Request":
        """Copy of this request carrying a conditional revalidation header.

        The common conditional request carries no other headers; in that case
        the new header dict is built directly instead of copying the (empty)
        original -- the headers of ``self`` are never aliased either way.
        """
        if self.headers:
            headers = {**self.headers, "If-None-Match": etag}
        else:
            headers = {"If-None-Match": etag}
        return Request(method=self.method, url=self.url, headers=headers, body=self.body)


@dataclass(slots=True)
class Response:
    """A REST response carrying the payload and cacheability metadata."""

    status: StatusCode
    body: Any = None
    etag: Optional[str] = None
    cache_control: CacheControl = field(default_factory=CacheControl.uncacheable)
    headers: Dict[str, str] = field(default_factory=dict)

    @property
    def is_cacheable(self) -> bool:
        return self.cache_control.is_cacheable and self.status in (
            StatusCode.OK,
            StatusCode.CREATED,
        )

    @property
    def not_modified(self) -> bool:
        return self.status == StatusCode.NOT_MODIFIED

    def ttl_for(self, shared: bool) -> float:
        """Freshness lifetime granted to a shared or private cache."""
        return self.cache_control.ttl_for(shared)

    @classmethod
    def ok(
        cls,
        body: Any,
        ttl: float,
        shared_ttl: Optional[float] = None,
        etag: Optional[str] = None,
    ) -> "Response":
        """A cacheable 200 response."""
        return cls(
            status=StatusCode.OK,
            body=body,
            etag=etag,
            cache_control=CacheControl.cacheable(ttl, shared_ttl),
        )

    @classmethod
    def uncacheable(
        cls, body: Any, status: StatusCode = StatusCode.OK, etag: Optional[str] = None
    ) -> "Response":
        """A response that no cache may store."""
        return cls(status, body, etag, UNCACHEABLE)

    @classmethod
    def not_modified_response(cls, etag: str, ttl: float, shared_ttl: Optional[float] = None) -> "Response":
        """A 304 reply refreshing the caller's cached copy."""
        return cls(
            status=StatusCode.NOT_MODIFIED,
            body=None,
            etag=etag,
            cache_control=CacheControl.cacheable(ttl, shared_ttl),
        )
