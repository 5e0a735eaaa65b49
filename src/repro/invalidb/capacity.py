"""Capacity management: which queries are worth caching.

The throughput of the invalidation pipeline limits how many queries can be
cached at the same time.  Quaestor therefore admits only queries that are
sufficiently cacheable and prioritises them by the cost of maintaining them
(Section 4.1).  The cost model follows the paper's observation that Zipfian
access patterns make a small set of "hot" queries sufficient for high cache
hit rates.

Admission is **two-phase**: :meth:`CapacityManager.probe` decides whether a
query *would* be admitted without mutating the admitted set and returns an
:class:`AdmissionTicket`; :meth:`CapacityManager.commit` applies the decision
(taking the slot, displacing the victim) and :meth:`CapacityManager.abort`
discards it.  A sharded deployment probes every shard first and only commits
when all shards admit, so one rejecting shard no longer makes the others
occupy slots and InvaliDB registrations for a merged result that is never
cached.  A single server probes and commits in one go.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.invalidb.cluster import InvaliDBCluster


@dataclass(frozen=True)
class AdmissionTicket:
    """The outcome of an admission probe, redeemable via commit/abort.

    A ticket captures the decision *and* the displacement it implies: when the
    admitted set is full, admitting the candidate means releasing
    ``victim_key`` -- but the victim keeps its slot until the ticket is
    committed, so an aborted probe leaves the admitted set untouched.
    """

    query_key: str
    result_size: int
    admitted: bool
    already_admitted: bool = False
    victim_key: Optional[str] = None


@dataclass
class QueryCost:
    """Bookkeeping for one candidate query."""

    query_key: str
    result_size: int = 0
    read_count: int = 0
    invalidation_count: int = 0

    def record_read(self) -> None:
        self.read_count += 1

    def record_invalidation(self) -> None:
        self.invalidation_count += 1

    @property
    def score(self) -> float:
        """Benefit/cost score: reads served per invalidation incurred.

        Queries that are read often and invalidated rarely score highest; the
        result size is a secondary penalty because larger results are more
        likely to be invalidated by any given update and cost more to rebuild.
        """
        benefit = float(self.read_count + 1)
        cost = float(self.invalidation_count + 1) * (1.0 + self.result_size / 100.0)
        return benefit / cost


class CapacityManager:
    """Admission control for the set of actively matched queries."""

    def __init__(
        self,
        cluster: InvaliDBCluster,
        expected_update_rate: float = 100.0,
        headroom: float = 0.8,
        max_active_queries: Optional[int] = None,
    ) -> None:
        if not 0 < headroom <= 1:
            raise ValueError("headroom must lie in (0, 1]")
        if expected_update_rate < 0:
            raise ValueError("expected_update_rate must be non-negative")
        self.cluster = cluster
        self.expected_update_rate = expected_update_rate
        self.headroom = headroom
        self.max_active_queries = max_active_queries
        self._costs: Dict[str, QueryCost] = {}
        self._admitted: Dict[str, QueryCost] = {}
        self.rejections = 0
        self.probes = 0
        self.commits = 0
        self.aborts = 0

    # -- cost tracking --------------------------------------------------------------

    def cost(self, query_key: str) -> QueryCost:
        """The (possibly new) cost record for ``query_key``."""
        record = self._costs.get(query_key)
        if record is None:
            record = QueryCost(query_key)
            self._costs[query_key] = record
        return record

    def record_read(self, query_key: str, result_size: int) -> None:
        record = self.cost(query_key)
        record.record_read()
        record.result_size = result_size

    def record_invalidation(self, query_key: str) -> None:
        self.cost(query_key).record_invalidation()

    # -- admission ---------------------------------------------------------------------

    def capacity_limit(self) -> float:
        """Maximum admissible active queries given the cluster and update rate.

        Derived from the per-node capacity: a node can evaluate
        ``max_ops_per_second`` (query, update) pairs per second; with the
        expected update rate split over the object partitions, the number of
        queries each node can host follows directly.
        """
        per_node_updates = self.expected_update_rate / self.cluster.scheme.object_partitions
        if per_node_updates <= 0:
            return float("inf")
        per_node_queries = (
            self.cluster.capacity_model.max_ops_per_second * self.headroom / per_node_updates
        )
        return per_node_queries * self.cluster.scheme.query_partitions

    def probe(self, query_key: str, result_size: int = 0) -> AdmissionTicket:
        """Phase one: decide whether ``query_key`` *would* be admitted.

        Already admitted queries stay admitted.  When the configured limits
        are reached, the candidate must beat the lowest-scoring admitted query
        to displace it; otherwise it is rejected and served uncached.  Probing
        never mutates the admitted set -- the slot is only taken (and the
        victim only displaced) when the ticket is :meth:`commit`-ted.
        """
        self.probes += 1
        record = self.cost(query_key)
        record.result_size = result_size

        if query_key in self._admitted:
            return AdmissionTicket(
                query_key, result_size, admitted=True, already_admitted=True
            )

        if len(self._admitted) < self._effective_limit():
            return AdmissionTicket(query_key, result_size, admitted=True)

        victim_key = self._lowest_scoring_admitted()
        if victim_key is not None and self._costs[victim_key].score < record.score:
            return AdmissionTicket(
                query_key, result_size, admitted=True, victim_key=victim_key
            )

        self.rejections += 1
        return AdmissionTicket(query_key, result_size, admitted=False)

    def commit(self, ticket: AdmissionTicket) -> bool:
        """Phase two: take the slot the probe decided on.

        Displaces the ticket's victim (if it is still admitted) and enters the
        query into the admitted set.  Committing a rejected ticket is a
        programming error.

        A ticket can go stale: if the free slot (or victim) the probe saw is
        gone by commit time -- e.g. another query was admitted between the
        phases -- the admission is re-arbitrated against the current lowest
        scorer instead of blindly inserting, so the admitted set never
        exceeds the capacity limit.  Returns ``False`` when the re-arbitration
        rejects.
        """
        if not ticket.admitted:
            raise ValueError(f"cannot commit a rejected ticket for {ticket.query_key}")
        self.commits += 1
        if ticket.query_key in self._admitted:
            return True
        record = self.cost(ticket.query_key)
        if ticket.victim_key is not None and ticket.victim_key in self._admitted:
            del self._admitted[ticket.victim_key]
            self._admitted[ticket.query_key] = record
            return True
        if len(self._admitted) < self._effective_limit():
            self._admitted[ticket.query_key] = record
            return True
        victim_key = self._lowest_scoring_admitted()
        if victim_key is not None and self._costs[victim_key].score < record.score:
            del self._admitted[victim_key]
            self._admitted[ticket.query_key] = record
            return True
        self.rejections += 1
        return False

    def abort(self, ticket: AdmissionTicket) -> None:
        """Discard a probe without taking its slot.

        Probing never mutated the admitted set, so there is nothing to undo;
        aborts of would-be-admitted tickets are counted so the wasted-probe
        rate (e.g. cluster scatter aborts) stays observable.
        """
        if ticket.admitted and not ticket.already_admitted:
            self.aborts += 1

    def _effective_limit(self) -> float:
        limit = self.capacity_limit()
        if self.max_active_queries is not None:
            limit = min(limit, self.max_active_queries)
        return limit

    def _lowest_scoring_admitted(self) -> Optional[str]:
        if not self._admitted:
            return None
        return min(self._admitted, key=lambda key: self._admitted[key].score)

    def __repr__(self) -> str:
        return (
            f"CapacityManager(admitted={len(self._admitted)}, tracked={len(self._costs)}, "
            f"rejections={self.rejections})"
        )
