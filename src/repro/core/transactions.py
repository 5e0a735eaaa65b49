"""Optimistic transactions (backwards-oriented optimistic concurrency control).

Quaestor's strongest semantics are ACID transactions built on cached reads:
the client collects the read set (keys and the versions it observed) during
the transaction and validates it at commit time.  If any read value changed in
the meantime -- i.e. the transaction observed stale or conflicting data -- the
commit aborts; otherwise the buffered writes are applied atomically.  Caching
shortens transaction durations, which keeps abort rates low for wide-area
clients (Section 3.2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.db.documents import Document
from repro.db.query import record_key
from repro.errors import TransactionAbortedError
from repro.rest.etags import etag_for_version
from repro.rest.messages import StatusCode


class Transaction:
    """A single optimistic transaction bound to a :class:`QuaestorServer`."""

    def __init__(self, server) -> None:
        self._server = server
        self._read_set: Dict[str, str] = {}
        #: Buffered ``(collection, document_id, update)`` writes, applied only at commit.
        self._writes: List[Tuple[str, str, Document]] = []
        self._committed = False
        self._aborted = False

    # -- reads (tracked) ----------------------------------------------------------------

    def read(self, collection: str, document_id: str) -> Optional[Document]:
        """Read a record, recording its version in the read set."""
        self._ensure_open()
        response = self._server.handle_read(collection, document_id)
        if response.status == StatusCode.NOT_FOUND:
            self._read_set[record_key(collection, document_id)] = "missing"
            return None
        observed = response.etag or etag_for_version(
            collection, document_id, response.body["version"]
        )
        self._read_set[record_key(collection, document_id)] = observed
        return response.body["document"]

    # -- buffered writes ------------------------------------------------------------------

    def update(self, collection: str, document_id: str, update: Document) -> None:
        self._ensure_open()
        self._writes.append((collection, document_id, update))

    # -- lifecycle ------------------------------------------------------------------------------

    def commit(self) -> None:
        """Validate the read set and apply the buffered writes.

        Raises :class:`TransactionAbortedError` when validation fails; the
        transaction is then rolled back (no write was applied).
        """
        self._ensure_open()
        self._validate()
        for collection, document_id, update in self._writes:
            self._server.handle_update(collection, document_id, update)
        self._committed = True

    # -- internals ----------------------------------------------------------------------------------

    def _ensure_open(self) -> None:
        if self._committed:
            raise TransactionAbortedError("transaction already committed")
        if self._aborted:
            raise TransactionAbortedError("transaction already aborted")

    def _validate(self) -> None:
        """Backwards-oriented validation: every observed version must still hold."""
        for key, observed_etag in self._read_set.items():
            current = self._current_record_etag(key)
            if current != observed_etag:
                self._aborted = True
                raise TransactionAbortedError(
                    f"read-set validation failed for {key}: observed {observed_etag}, "
                    f"current {current}"
                )

    def _current_record_etag(self, key: str) -> str:
        # Keys look like "record:<collection>/<id>".
        _, _, rest = key.partition(":")
        collection, _, document_id = rest.partition("/")
        try:
            version = self._server.database.collection(collection).version(document_id)
        except Exception:
            return "missing"
        return etag_for_version(collection, document_id, version)
