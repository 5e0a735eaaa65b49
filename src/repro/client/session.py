"""Per-session consistency state: read-your-writes and monotonic reads.

Read-your-writes is obtained by caching the client's own writes within the
session; monotonic reads by remembering the highest version seen per record
and falling back to that version (or revalidating) whenever a cache returns an
older one (Section 3.2).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.db.documents import Document


class ClientSession:
    """Session-scoped consistency bookkeeping for one client.

    Documents are kept by reference: what reaches a session is a stored
    version's immutable snapshot (see :mod:`repro.db.collection`), so neither
    recording nor handing one out copies it.
    """

    def __init__(self) -> None:
        # Own writes: record key -> (version, document or None for deletes).
        self._own_writes: Dict[str, Tuple[int, Optional[Document]]] = {}
        # Highest version observed per record key.
        self._seen_versions: Dict[str, int] = {}
        # Most recent document observed at that version (for monotonic fallback).
        self._seen_documents: Dict[str, Optional[Document]] = {}
        self.monotonic_violations_prevented = 0

    # -- read-your-writes -----------------------------------------------------------

    def record_own_write(self, key: str, version: int, document: Optional[Document]) -> None:
        """Remember the outcome of a write performed by this session."""
        self._own_writes[key] = (version, document if document else None)
        self.observe_read(key, version, document)

    # -- monotonic reads ----------------------------------------------------------------

    def observe_read(self, key: str, version: int, document: Optional[Document]) -> bool:
        """Record the version a read returned (keeps the highest one).  A
        regression -- older than a version this session has already seen --
        records nothing and returns False."""
        if version < self._seen_versions.get(key, -1):
            return False
        self._seen_versions[key] = version
        self._seen_documents[key] = document if document else None
        return True

    def monotonic_fallback(self, key: str) -> Optional[Tuple[int, Optional[Document]]]:
        """The newest version/document this session has already observed."""
        if key not in self._seen_versions:
            return None
        self.monotonic_violations_prevented += 1
        return self._seen_versions[key], self._seen_documents.get(key)

    def __len__(self) -> int:
        return len(self._seen_versions)
