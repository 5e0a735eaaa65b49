"""The database: a set of collections sharing one change stream and clock."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.clock import Clock, VirtualClock
from repro.db.changestream import ChangeStream
from repro.db.collection import Collection
from repro.db.documents import Document
from repro.db.query import Query
from repro.errors import CollectionNotFoundError


class Database:
    """Aggregate-oriented document database with a global change stream.

    This is the storage substrate underneath the Quaestor middleware.  It is
    deliberately unaware of caching; all caching logic lives in
    :mod:`repro.core` and :mod:`repro.caching`.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        change_history_limit: Optional[int] = 100_000,
    ) -> None:
        self._clock: Clock = clock if clock is not None else VirtualClock()
        self._collections: Dict[str, Collection] = {}
        self.change_stream = ChangeStream(history_limit=change_history_limit)

    # -- collection management ------------------------------------------------------

    @property
    def clock(self) -> Clock:
        return self._clock

    def create_collection(self, name: str) -> Collection:
        """Create a collection (idempotent) and return it."""
        collection = self._collections.get(name)
        if collection is None:
            collection = Collection(name, self._clock, self.change_stream)
            self._collections[name] = collection
        return collection

    def collection(self, name: str) -> Collection:
        """Return an existing collection or raise :class:`CollectionNotFoundError`."""
        collection = self._collections.get(name)
        if collection is None:
            raise CollectionNotFoundError(f"collection {name!r} does not exist")
        return collection

    def collection_names(self) -> List[str]:
        return sorted(self._collections)

    # -- convenience CRUD (delegates to collections) ----------------------------------

    def insert(self, collection: str, document: Document) -> Document:
        return self.create_collection(collection).insert(document)

    def get(self, collection: str, document_id: str) -> Document:
        return self.collection(collection).get(document_id)

    def update(self, collection: str, document_id: str, update: Document) -> Document:
        return self.collection(collection).update(document_id, update)

    def delete(self, collection: str, document_id: str) -> Document:
        return self.collection(collection).delete(document_id)

    def find(self, query: Query) -> List[Document]:
        return self.collection(query.collection).find(query)

    # -- change stream -----------------------------------------------------------------

    def subscribe(self, listener) -> callable:
        """Subscribe to the global change stream (all collections)."""
        return self.change_stream.subscribe(listener)

    def __repr__(self) -> str:
        return (
            f"Database(collections={len(self._collections)}, "
            f"documents={sum(len(collection) for collection in self._collections.values())})"
        )
