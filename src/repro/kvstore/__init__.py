"""Redis-like message queues connecting Quaestor servers to InvaliDB.

The paper's deployment uses Redis for the shared Expiring Bloom Filter, the
shared *active list* of cached queries and the message queues feeding the
InvaliDB cluster.  This reproduction keeps filter and active list in-memory
per server (:mod:`repro.bloom`, :mod:`repro.core.active_list`); what remains
here is the queue substrate InvaliDB ingestion runs on.
"""

from __future__ import annotations

from repro.kvstore.queues import MessageQueue

__all__ = [
    "MessageQueue",
]
