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

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.db.documents import Document
from repro.db.query import Query, record_key
from repro.errors import TransactionAbortedError
from repro.rest.etags import etag_for_result, etag_for_version
from repro.rest.messages import StatusCode


@dataclass
class _BufferedWrite:
    """A write staged inside a transaction, applied only at commit."""

    kind: str  # "insert" | "update" | "delete"
    collection: str
    document_id: str
    payload: Optional[Document] = None


class Transaction:
    """A single optimistic transaction bound to a :class:`QuaestorServer`."""

    def __init__(self, server) -> None:
        self._server = server
        self._read_set: Dict[str, str] = {}
        self._query_read_set: Dict[str, Tuple[Query, str]] = {}
        self._writes: List[_BufferedWrite] = []
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

    def query(self, query: Query) -> List[Document]:
        """Execute a query, recording the result fingerprint in the read set."""
        self._ensure_open()
        response = self._server.handle_query(query)
        body = response.body
        documents = body.get("documents", [])
        self._query_read_set[query.cache_key] = (query, response.etag or "")
        return documents

    # -- buffered writes ------------------------------------------------------------------

    def insert(self, collection: str, document: Document) -> None:
        self._ensure_open()
        self._writes.append(
            _BufferedWrite("insert", collection, str(document.get("_id", "")), document)
        )

    def update(self, collection: str, document_id: str, update: Document) -> None:
        self._ensure_open()
        self._writes.append(_BufferedWrite("update", collection, document_id, update))

    def delete(self, collection: str, document_id: str) -> None:
        self._ensure_open()
        self._writes.append(_BufferedWrite("delete", collection, document_id))

    # -- lifecycle ------------------------------------------------------------------------------

    def commit(self) -> None:
        """Validate the read set and apply the buffered writes.

        Raises :class:`TransactionAbortedError` when validation fails; the
        transaction is then rolled back (no write was applied).
        """
        self._ensure_open()
        self._validate()
        for write in self._writes:
            if write.kind == "insert":
                self._server.handle_insert(write.collection, write.payload)
            elif write.kind == "update":
                self._server.handle_update(write.collection, write.document_id, write.payload)
            else:
                self._server.handle_delete(write.collection, write.document_id)
        self._committed = True

    def abort(self) -> None:
        """Discard the transaction without applying any write."""
        self._ensure_open()
        self._aborted = True
        self._writes.clear()

    @property
    def is_committed(self) -> bool:
        return self._committed

    @property
    def is_aborted(self) -> bool:
        return self._aborted

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
        for query_key, (query, observed_etag) in self._query_read_set.items():
            current = self._current_query_etag(query)
            if current != observed_etag:
                self._aborted = True
                raise TransactionAbortedError(
                    f"read-set validation failed for query {query_key}"
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

    def _current_query_etag(self, query: Query) -> str:
        collection = self._server.database.collection(query.collection)
        return etag_for_result(collection.find_versioned(query)[1])
