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
