"""Workload operations: the unit of work a simulated client performs."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.db.documents import Document
from repro.db.query import Query


class OperationType(str, enum.Enum):
    """Operation categories matching the paper's workload definition."""

    READ = "read"
    QUERY = "query"
    INSERT = "insert"
    UPDATE = "update"
    DELETE = "delete"

    @property
    def is_write(self) -> bool:
        return self in (OperationType.INSERT, OperationType.UPDATE, OperationType.DELETE)


@dataclass(slots=True, init=False)
class Operation:
    """One operation to execute against the DBaaS.

    Exactly one of ``document_id`` (for record operations) or ``query`` (for
    query operations) is set; ``payload`` carries the document to insert or
    the partial-update specification.  Slotted, not frozen and validated in
    its own ``__init__`` (no ``__post_init__`` frame) because the workload
    generator mints one per simulated operation; by convention nobody assigns
    to one after construction.
    """

    type: OperationType
    collection: str
    document_id: Optional[str]
    query: Optional[Query]
    payload: Optional[Document]

    def __init__(self, type, collection, document_id=None, query=None, payload=None) -> None:
        if type is OperationType.QUERY:
            if query is None:
                raise ValueError("query operations require a query")
        elif document_id is None:
            raise ValueError(f"{type.value} operations require a document_id")
        elif (type is OperationType.INSERT or type is OperationType.UPDATE) and payload is None:
            raise ValueError(f"{type.value} operations require a payload")
        self.type = type
        self.collection = collection
        self.document_id = document_id
        self.query = query
        self.payload = payload

    @property
    def is_write(self) -> bool:
        return self.type.is_write


def dispatch_operation(handler, operation: Operation):
    """Dispatch ``operation`` to a server-protocol handler.

    ``handler`` is anything exposing the Quaestor server surface
    (``handle_read`` / ``handle_query`` / ``handle_insert`` /
    ``handle_update`` / ``handle_delete``) -- the single server and the
    cluster facade both route their ``execute`` through this one place.
    """
    if operation.type == OperationType.READ:
        return handler.handle_read(operation.collection, operation.document_id)
    if operation.type == OperationType.QUERY:
        return handler.handle_query(operation.query)
    if operation.type == OperationType.INSERT:
        return handler.handle_insert(operation.collection, operation.payload)
    if operation.type == OperationType.UPDATE:
        return handler.handle_update(
            operation.collection, operation.document_id, operation.payload
        )
    if operation.type == OperationType.DELETE:
        return handler.handle_delete(operation.collection, operation.document_id)
    raise ValueError(f"unsupported operation type: {operation.type}")
