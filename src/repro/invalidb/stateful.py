"""Result-order maintenance for stateful queries (ORDER BY / LIMIT / OFFSET).

A query with ordering or windowing clauses is *stateful*: whether a record is
part of the visible result depends on the other matching records.  InvaliDB
therefore keeps the full ordered set of matching records for such queries and
derives window membership and positional changes from it, emitting
``changeIndex`` events for permutations inside the visible window.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.db.documents import Document
from repro.db.query import Query


class OrderedResultState:
    """Maintains the ordered matching set and visible window of one query."""

    def __init__(self, query: Query) -> None:
        self.query = query
        # All matching documents (not only the visible window), keyed by id.
        self._documents: Dict[str, Document] = {}
        self._ordered_ids: List[str] = []

    # -- bootstrap -------------------------------------------------------------------

    def initialize(self, documents: List[Document]) -> None:
        """Seed the state with the initial result set (pre-window ordering)."""
        self._documents = {str(doc["_id"]): doc for doc in documents}
        self._reorder()

    # -- mutation ---------------------------------------------------------------------

    def apply_match(self, document_id: str, document: Document) -> None:
        """The document matches the predicate (insert or update)."""
        self._documents[document_id] = document
        self._reorder()

    def apply_unmatch(self, document_id: str) -> None:
        """The document no longer matches (update or delete)."""
        self._documents.pop(document_id, None)
        self._reorder()

    # -- window computation ---------------------------------------------------------------

    def window_ids(self) -> List[str]:
        """Ids visible after applying offset and limit, in result order."""
        start = self.query.offset
        end = None if self.query.limit is None else start + self.query.limit
        return self._ordered_ids[start:end]

    def __len__(self) -> int:
        return len(self._documents)

    # -- internals ----------------------------------------------------------------------------

    def _reorder(self) -> None:
        documents = list(self._documents.values())
        # The same total order the database serves (sort spec + _id
        # tiebreak): a divergent tie order here would let window changes
        # slip past window_diff un-notified.
        documents.sort(key=self.query.plan.sort_key)
        self._ordered_ids = [str(doc["_id"]) for doc in documents]


def window_diff(
    before: List[str], after: List[str]
) -> Tuple[List[str], List[str], List[Tuple[str, int]]]:
    """Diff two visible windows.

    Returns ``(entered, left, moved)`` where ``moved`` contains
    ``(document_id, new_index)`` pairs for documents present in both windows
    at different positions.
    """
    before_set = dict((document_id, index) for index, document_id in enumerate(before))
    after_set = dict((document_id, index) for index, document_id in enumerate(after))
    entered = [document_id for document_id in after if document_id not in before_set]
    left = [document_id for document_id in before if document_id not in after_set]
    moved = [
        (document_id, after_set[document_id])
        for document_id in after
        if document_id in before_set and before_set[document_id] != after_set[document_id]
    ]
    return entered, left, moved
