"""Per-query work over worker processes: the one route behind --threads.

Every query is scored inside its own ranking context, so queries are
independent and `map_queries` may run them in any process. The caller's
function takes a contiguous list of query ids and returns one result per
id, so `neighbors.score_in_blocks` can hand blocks to finish(contexts, probes).
With one worker it gets every query at once, inline. With more, worker
processes are forked after the caller has loaded its inputs: they inherit
the embeddings, the run and the function itself, none of which is pickled,
and each call gets one contiguous shard. Only the results come back, and
the parent puts them back in query order, so output bytes do not depend on
the worker count. No worker logs: the callers log from the results, in the
parent and in query order.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

from .errors import check_positive

# contiguous query shards per worker: several even out queries of unequal
# cost and CPUs that other processes share
_SHARDS_PER_WORKER = 4

# (fn, query ids) of the pool a worker was forked for; set only inside
# worker processes, by _start_worker
_job: tuple | None = None


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
    """fn(query_ids), computed over contiguous shards by up to `workers` processes.

    fn maps a list of query ids to a list of as many results; the shards'
    results are joined in query order. `workers` must be a positive integer;
    it is capped by `worker_count`. Where the fork start method is
    unavailable the queries run inline. The exception of the first shard
    that raises, in query order, is raised; a worker that dies raises
    BrokenProcessPool.
    """
    check_positive("workers", workers)
    query_ids = list(query_ids)
    n = worker_count(workers, len(query_ids), available_cpus())
    if n > 1:
        import multiprocessing  # imported on first use: a serial run does not pay for it
        if "fork" not in multiprocessing.get_all_start_methods():
            n = 1
    if n == 1:
        return fn(query_ids)
    from concurrent.futures import ProcessPoolExecutor
    step = -(-len(query_ids) // (n * _SHARDS_PER_WORKER))
    starts = range(0, len(query_ids), step)
    results = []
    # fork, not spawn: workers must inherit the loaded inputs and `fn`. The
    # command line starts no thread before this point, and BLAS is pinned to
    # one thread, so the forked process holds no lock another thread owned.
    with ProcessPoolExecutor(n, mp_context=multiprocessing.get_context("fork"),
                             initializer=_start_worker, initargs=(fn, query_ids)) as pool:
        for shard in pool.map(_run_shard, starts, [s + step for s in starts]):
            results += shard
    return results


def _start_worker(fn: Callable, query_ids: list[str]) -> None:
    global _job
    _job = (fn, query_ids)


def _run_shard(start: int, stop: int) -> list:
    fn, query_ids = _job
    return fn(query_ids[start:stop])
