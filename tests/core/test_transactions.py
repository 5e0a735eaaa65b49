"""Tests for optimistic (BOCC-style) transactions."""

from __future__ import annotations

import pytest

from repro.core import QuaestorConfig, QuaestorServer
from repro.errors import TransactionAbortedError
from repro.invalidb import InvaliDBCluster


@pytest.fixture
def server(database, posts):
    return QuaestorServer(database, config=QuaestorConfig(), invalidb=InvaliDBCluster())


class TestCommitPath:
    def test_read_then_commit_applies_buffered_writes(self, server, database):
        txn = server.begin_transaction()
        post = txn.read("posts", "p0")
        assert post["_id"] == "p0"
        txn.update("posts", "p0", {"$inc": {"views": 10}})
        txn.commit()
        assert database.get("posts", "p0")["views"] == 10

    def test_writes_not_applied_before_commit(self, server, database):
        txn = server.begin_transaction()
        txn.update("posts", "p0", {"$inc": {"views": 10}})
        assert database.get("posts", "p0")["views"] == 0


class TestAbortPath:
    def test_concurrent_record_write_aborts(self, server):
        txn = server.begin_transaction()
        txn.read("posts", "p0")
        txn.update("posts", "p0", {"$set": {"views": 99}})
        # A conflicting write outside the transaction bumps the version.
        server.handle_update("posts", "p0", {"$inc": {"views": 1}})
        with pytest.raises(TransactionAbortedError):
            txn.commit()
        with pytest.raises(TransactionAbortedError, match="already aborted"):
            txn.read("posts", "p0")

    def test_aborted_transaction_does_not_apply_writes(self, server, database):
        txn = server.begin_transaction()
        txn.read("posts", "p0")
        txn.update("posts", "p0", {"$set": {"views": 99}})
        server.handle_update("posts", "p0", {"$inc": {"views": 1}})
        with pytest.raises(TransactionAbortedError):
            txn.commit()
        assert database.get("posts", "p0")["views"] == 1  # only the external write

    def test_read_of_missing_document_validates_against_absence(self, server):
        txn = server.begin_transaction()
        assert txn.read("posts", "ghost") is None
        # Someone creates the document before commit: validation must fail.
        server.handle_insert("posts", {"_id": "ghost", "tags": []})
        txn.update("posts", "p0", {"$inc": {"views": 1}})
        with pytest.raises(TransactionAbortedError):
            txn.commit()

    def test_operations_after_completion_rejected(self, server):
        txn = server.begin_transaction()
        txn.commit()
        with pytest.raises(TransactionAbortedError):
            txn.read("posts", "p0")
        with pytest.raises(TransactionAbortedError):
            txn.commit()

    def test_retry_after_abort_succeeds(self, server, database):
        txn = server.begin_transaction()
        txn.read("posts", "p0")
        txn.update("posts", "p0", {"$set": {"title": "txn"}})
        server.handle_update("posts", "p0", {"$inc": {"views": 1}})
        with pytest.raises(TransactionAbortedError):
            txn.commit()
        retry = server.begin_transaction()
        retry.read("posts", "p0")
        retry.update("posts", "p0", {"$set": {"title": "txn"}})
        retry.commit()
        assert database.get("posts", "p0")["title"] == "txn"
