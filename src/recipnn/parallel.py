"""Per-query work over worker processes: the one route behind --threads.

Every query is scored inside its own ranking context, so queries are
independent and `map_queries` may run them in any process. With one worker
they run inline, one after another. With more, worker processes are forked
after the caller has loaded its inputs: they inherit the embeddings, the run
and the per-query function itself, none of which is pickled. Only each
query's result, and any log record its call emitted, comes back; the parent
puts results back in query order and emits the records in that order, so
output bytes and log lines do not depend on the worker count.
"""

from __future__ import annotations

import logging
import os
from typing import Callable, Sequence

from .errors import check_positive

# contiguous query shards per worker: several even out queries of unequal
# cost and CPUs that other processes share
_SHARDS_PER_WORKER = 4

# (fn, query ids, record keeper) of the pool a worker was forked for; set
# only inside worker processes, by _start_worker
_job: tuple | None = None


class _KeepRecords(logging.Handler):
    """Keeps a worker's log records for the parent to emit."""

    def __init__(self) -> None:
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        # arguments and tracebacks need not pickle: fold them into the message
        record.msg, record.args = self.format(record), None
        record.exc_info = record.exc_text = record.stack_info = None
        self.records.append(record)


def available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def worker_count(threads: int, n_queries: int, cpus: int) -> int:
    """Worker processes for `threads` requested: no more than the CPUs or the queries, at least one."""
    return max(1, min(threads, cpus, n_queries))


def map_queries(fn: Callable, query_ids: Sequence[str], workers: int = 1) -> list:
    """[fn(q) for q in query_ids], computed by up to `workers` processes.

    `workers` must be a positive integer; it is capped by `worker_count`.
    Where the fork start method is unavailable the queries run inline. The
    first exception in query order is raised, as inline; a worker that dies
    raises BrokenProcessPool.
    """
    check_positive("workers", workers)
    query_ids = list(query_ids)
    n = worker_count(workers, len(query_ids), available_cpus())
    if n > 1:
        import multiprocessing  # imported on first use: a serial run does not pay for it
        if "fork" not in multiprocessing.get_all_start_methods():
            n = 1
    if n == 1:
        return [fn(q) for q in query_ids]
    from concurrent.futures import ProcessPoolExecutor
    step = -(-len(query_ids) // (n * _SHARDS_PER_WORKER))
    starts = range(0, len(query_ids), step)
    results = []
    # fork, not spawn: workers must inherit the loaded inputs and `fn`. The
    # command line starts no thread before this point, and BLAS is pinned to
    # one thread, so the forked process holds no lock another thread owned.
    with ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=(fn, query_ids)) as pool:
        for shard, records in pool.map(_run_shard, starts, [s + step for s in starts]):
            for record in records:
                logging.getLogger(record.name).handle(record)
            results += shard
    return results


def _start_worker(fn: Callable, query_ids: list[str]) -> None:
    global _job
    keeper = _KeepRecords()
    logging.getLogger().handlers = [keeper]  # the parent emits the records
    _job = (fn, query_ids, keeper)


def _run_shard(start: int, stop: int) -> tuple[list, list[logging.LogRecord]]:
    fn, query_ids, keeper = _job
    keeper.records = records = []
    return [fn(q) for q in query_ids[start:stop]], records
