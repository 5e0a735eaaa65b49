"""Map a function over jobs in worker processes, in job order, failing loudly.

The one process-pool helper of the repo, and the one way it uses more than
one core: across *independent* runs (``python -m repro.verify`` maps its
audit cells with it).  A single run stays on one core, so every event keeps
one global timestamp.  Nothing here knows about simulations: jobs that
share no state need no coordination beyond "run each one somewhere, hand
the results back in order".
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, TypeVar

#: Seconds the parent waits for the next job's result before declaring the
#: pool hung.
WORKER_TIMEOUT = 600.0

Job = TypeVar("Job")
Result = TypeVar("Result")


class ParallelSimulationError(RuntimeError):
    """A job raised inside its worker process, or a worker died or hung."""


def usable_cpus() -> int:
    """CPUs this process may run on.

    The scheduler affinity mask where the platform has one:
    ``os.cpu_count()`` reports the machine and over-counts inside a
    CPU-limited container.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_in_processes(
    function: Callable[[Job], Result], jobs: Iterable[Job], num_workers: int
) -> List[Result]:
    """``[function(job) for job in jobs]``, computed by ``num_workers`` processes.

    One worker is that loop, in this process.  More map the jobs over a
    spawn-context process pool (``function``, the jobs and the results must
    pickle; workers start from a fresh import, so nothing leaks in from the
    parent) and return the results in job order, whichever worker finishes
    first.  A job that raises in its worker, a worker that dies and a pool
    that delivers nothing for :data:`WORKER_TIMEOUT` seconds all surface as
    :class:`ParallelSimulationError` -- carrying the worker-side traceback
    where there is one -- after the remaining workers are killed.
    """
    if num_workers == 1:
        return [function(job) for job in jobs]
    # Imported here so that single-process runs (every benchmark workload)
    # never load the multiprocessing machinery.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(
        max_workers=num_workers, mp_context=multiprocessing.get_context("spawn")
    )
    try:
        results: List[Result] = []
        for future in [pool.submit(function, job) for job in jobs]:
            try:
                results.append(future.result(timeout=WORKER_TIMEOUT))
            except BrokenProcessPool as error:
                raise ParallelSimulationError("a worker process died mid-run") from error
            except Exception as error:
                if not future.done():
                    raise ParallelSimulationError(
                        f"no result from the pool within {WORKER_TIMEOUT:.0f}s"
                    ) from error
                # The executor chains the worker-side traceback as the cause.
                import traceback

                detail = "".join(traceback.format_exception(error))
                raise ParallelSimulationError(f"worker failed:\n{detail}") from error
        return results
    except BaseException:
        # Do not wait on (possibly hung) jobs nobody will read.  ``_processes``
        # is private; Python 3.14 grows ``kill_workers()`` for exactly this.
        for process in list((pool._processes or {}).values()):
            process.kill()
        raise
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
