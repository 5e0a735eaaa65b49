"""TTL calibration against the Poisson model (paper Section 4.2, Equation 1).

With writes to a record arriving as a Poisson process at rate ``lambda``, a
record TTL read off the exponential quantile ``-ln(1 - p) / lambda`` sees a
write before it expires with probability ``p``.  Where a bound clamps the
TTL to ``t``, that probability is ``1 - exp(-lambda * t)`` instead.  The
oracle checks the estimator the server actually runs against that ground
truth, not against a pin of itself.

The cell is one ``QuaestorServer`` over one collection.  Each document is
written at the known rate ``lambda`` (seeded exponential gaps) and read at a
fixed spacing; a test-local probe around the server's estimator records
every record TTL it issues.  A TTL *saw a write* when the document's next
write after the read falls inside ``(read, read + ttl]``; the write schedule
runs past the last read by the maximum TTL, so every outcome is known.

Reads start either with the writer (*cold*: a key may have no rate sample
yet, and the sampler's default-rate prior sets its TTL) or after the writer
has filled the sampler's memory (*warm*: one 600 s window at 0.02/s, 60 s at
1/s where 50 samples span 50 s).  Each TTL's outcome is a Bernoulli draw
with the probability above, and in the quantile regime the reads of one
document are spaced wider than its TTLs, so the measured share must lie
within ``Z`` standard errors of the mean expected probability: a binomial
bound on ``n`` TTLs at a two-sided confidence of 99.9 %, on one pinned seed.
Both write-rate sampler modes are run, installed directly as
``QuaestorTTLEstimator(sampler=WriteRateSampler(estimation=mode))``.  A cell
that misses its bound is a finding, committed as a strict ``xfail`` with its
measured share.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from typing import Dict, List, Tuple

import pytest

from repro.clock import VirtualClock
from repro.core import QuaestorConfig, QuaestorServer
from repro.db import Database
from repro.ttl import QuaestorTTLEstimator, TTLEstimator, TTLEstimatorSpec, WriteRateSampler

#: Two-sided 99.9 % normal quantile: the bound's confidence.
Z = 3.2905
#: The quantile ``p`` the estimator is asked for.
QUANTILE = 0.5
#: One seed for every cell, so both modes see the same write schedule.
SEED = 2101

COLLECTION = "items"
CONFIG = QuaestorConfig(ttl_estimator=TTLEstimatorSpec.of("quaestor", quantile=QUANTILE))
BOUNDS = CONFIG.ttl_bounds


class TTLProbe(TTLEstimator):
    """Records ``(record key, instant, TTL)`` of every record TTL issued."""

    def __init__(self, inner: TTLEstimator) -> None:
        super().__init__(inner.bounds)
        self.inner = inner
        self.issued: List[Tuple[str, float, float]] = []

    def estimate_record(self, record_key: str, now: float) -> float:
        ttl = self.inner.estimate_record(record_key, now)
        self.issued.append((record_key, now, ttl))
        return ttl

    def estimate_query(self, query_key, member_record_keys, now):
        return self.inner.estimate_query(query_key, member_record_keys, now)

    def observe_write(self, record_key: str, timestamp: float) -> None:
        self.inner.observe_write(record_key, timestamp)


def run_cell(
    mode: str, rate: float, documents: int, reads: int, spacing: float, warmup: float
) -> Tuple[float, float, float, int]:
    """One cell: ``(measured share, expected share, bound, TTLs issued)``."""
    rng = random.Random(SEED)
    clock = VirtualClock()
    database = Database(clock=clock)
    database.create_collection(COLLECTION).preload(
        [{"_id": f"d{index}", "views": 0} for index in range(documents)]
    )
    sampler = WriteRateSampler(estimation=mode)
    probe = TTLProbe(QuaestorTTLEstimator(quantile=QUANTILE, bounds=BOUNDS, sampler=sampler))
    server = QuaestorServer(database, config=CONFIG, ttl_estimator=probe)

    last_read = warmup + (reads - 1) * spacing
    writes: Dict[str, List[float]] = {}
    events: List[Tuple[float, int, str]] = []
    for index in range(documents):
        document_id = f"d{index}"
        times, now = [], 0.0
        while now <= last_read + BOUNDS.maximum:
            now += rng.expovariate(rate)
            times.append(now)
        writes[f"record:{COLLECTION}/{document_id}"] = times
        events.extend((at, 1, document_id) for at in times if at <= last_read)
        phase = rng.uniform(0.0, spacing)
        events.extend((warmup + phase + step * spacing, 0, document_id) for step in range(reads))
    events.sort()

    for at, is_write, document_id in events:
        clock.advance(at - clock.now())
        if is_write:
            server.handle_update(COLLECTION, document_id, {"$inc": {"views": 1}})
        else:
            server.handle_read(COLLECTION, document_id)

    saw_write = 0
    expected = 0.0
    variance = 0.0
    for key, at, ttl in probe.issued:
        times = writes[key]
        next_write = times[bisect_right(times, at)]
        saw_write += next_write <= at + ttl
        clamped = ttl <= BOUNDS.minimum or ttl >= BOUNDS.maximum
        chance = 1.0 - math.exp(-rate * ttl) if clamped else QUANTILE
        expected += chance
        variance += chance * (1.0 - chance)
    n = len(probe.issued)
    return saw_write / n, expected / n, Z * math.sqrt(variance) / n, n


#: ``(lambda, documents, reads per document, read spacing, warm-up)``.
CELLS = {
    # Quantile regime: ln 2 / 0.02 = 34.7 s, reads 60 s apart.
    "quantile-warm": (0.02, 200, 20, 60.0, 600.0),
    "quantile-cold": (0.02, 200, 20, 60.0, 0.0),
    # Clamp regime: ln 2 / 1 = 0.69 s is below the 1 s minimum.
    "clamp-warm": (1.0, 100, 20, 2.0, 60.0),
    "clamp-cold": (1.0, 100, 20, 2.0, 0.0),
}
#: Cells that miss their bound, with what they measured (share against the
#: expected share and its bound).  The prior's 415.9 s TTL on a key not yet
#: sampled (window mode: sampled once) almost always sees a write.
MISSES = {
    ("window", "quantile-cold"): "share 0.5310 against 0.5000 +- 0.0260",
    ("span", "clamp-cold"): "share 0.6615 against 0.6222 +- 0.0356",
    ("window", "clamp-cold"): "share 0.6690 against 0.6202 +- 0.0356",
}


@pytest.mark.parametrize(
    "mode, cell",
    [
        pytest.param(
            mode,
            cell,
            marks=[pytest.mark.xfail(strict=True, reason=MISSES[mode, cell])]
            if (mode, cell) in MISSES
            else [],
        )
        for mode in ("span", "window")
        for cell in CELLS
    ],
)
def test_issued_record_ttls_see_a_write_at_the_model_rate(mode, cell):
    rate, documents, reads, spacing, warmup = CELLS[cell]
    share, expected, bound, n = run_cell(mode, rate, documents, reads, spacing, warmup)
    assert n == documents * reads
    assert abs(share - expected) <= bound, (
        f"share {share:.4f} against {expected:.4f} +- {bound:.4f}"
    )
