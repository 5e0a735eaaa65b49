"""Response objects the server hands to clients and caches."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

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
class Response:
    """A REST response carrying the payload and cacheability metadata."""

    status: StatusCode
    body: Any = None
    etag: Optional[str] = None
    cache_control: CacheControl = UNCACHEABLE

    @property
    def is_cacheable(self) -> bool:
        return self.cache_control.is_cacheable and self.status in (
            StatusCode.OK,
            StatusCode.CREATED,
        )

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
