"""The one route from a query to its result: contexts in blocks, queries over processes.

Every query of `rerank_run` (so of `sweep`), `smooth_dataset` and `selftest`
takes `score_in_blocks`. It builds the caller's contexts one at a time, in
query order, groups them by size in blocks of about 2**15 similarity
entries (`block_budget`), and hands each block to the caller's
finish(contexts, probes), which scores it (most often with
`neighbors.rnn_scores_block`). Queries are independent, so `map_queries`
runs them in up to --threads processes, forked on each call, after the
caller has loaded its inputs: they inherit the embeddings, the run (for
`rerank` and `smooth`, the batch of it being scored: `batch_lines`) and
the caller's functions, none of which is pickled, and each call gets one
contiguous shard. Only results come back, and the parent puts them in
query order, so output bytes depend on neither the block nor the worker
count. No worker
logs: the callers log from the results, in the parent and in query order.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence

from .errors import DataError, check_positive

# similarity entries in one block of contexts scored together: 8 contexts
# at m=64, one from m=129 on
_BLOCK_ENTRIES = 2 ** 15

# contiguous query shards per worker: several even out queries of unequal
# cost and CPUs that other processes share
_SHARDS_PER_WORKER = 4

# run lines that `rerank` and `smooth` read, score and write as one batch in
# one process: about 80 queries at depth 100
_BATCH_LINES = 2 ** 13

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


def batch_lines(workers: int) -> int:
    """Run lines per batch of queries at `workers` requested. Worker
    processes fork once per batch, so each then gets `_SHARDS_PER_WORKER`
    shards of about `_BATCH_LINES` lines: 2**16 lines at two, 163 queries at
    depth 400."""
    n = min(workers, available_cpus())
    return _BATCH_LINES if n <= 1 else _BATCH_LINES * n * _SHARDS_PER_WORKER


def block_budget(m: int) -> int:
    """Contexts of size m scored in one kernel pass: about 2**15 similarity entries a block."""
    return max(1, _BLOCK_ENTRIES // (m * m))


def score_in_blocks(query_ids: Sequence[str], build: Callable, finish: Callable,
                    strict: bool = False, workers: int = 1) -> list:
    """One result or DataError per query: contexts grouped and finished a block at a time.

    build(query_id) returns the query's (context, probes); a DataError it
    raises is that query's result, or with strict=True is raised. A bucket
    of one size that holds `block_budget(size)` contexts, and every bucket
    at the end, goes to one call finish(contexts, probes), which returns one
    result per context and must not refuse one that build accepted (its
    DataError propagates). Queries run in contiguous shards over up to
    `workers` processes (`map_queries`); the first build error in query
    order is the one raised, at any worker count.
    """
    def shard(ids: list[str]) -> list:
        results: list = [None] * len(ids)
        buckets: dict[int, list] = {}

        def flush(size: int) -> None:
            jobs = buckets.pop(size)
            for (pos, _, _), result in zip(jobs, finish([c for _, c, _ in jobs], [p for _, _, p in jobs])):
                results[pos] = result

        for pos, query_id in enumerate(ids):
            try:
                context, probes = build(query_id)
            except DataError as exc:
                if strict:
                    raise
                results[pos] = exc
                continue
            bucket = buckets.setdefault(context.size, [])
            bucket.append((pos, context, probes))
            if len(bucket) == block_budget(context.size):
                flush(context.size)
        for size in list(buckets):
            flush(size)
        return results

    return map_queries(shard, query_ids, workers)


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
