"""Inference-time reranking of retrieved candidate lists.

Given a run (per-query ranked candidates) and an embedding store, each
query's top n_context candidates form a ranking context whose candidates are
re-scored by mixed reciprocal-NN similarity and re-sorted. Also provides the
context-size sweep and the per-query latency benchmark used by the CLI.
"""

from __future__ import annotations

import logging
import time
from typing import Sequence

import numpy as np

from .context import RankingContext, context_from_run, order_by_score
from .embeddings import EmbeddingMatrix
from .errors import ConfigError, DataError, check_positive
from .ir_eval import RankedList, RunFile, evaluate_metric, parse_metric_id
from .neighbors import RnnParams, rnn_scores
from .parallel import map_queries
from .synthetic import random_context

logger = logging.getLogger(__name__)


def rerank_context(context: RankingContext, params: RnnParams, top_k: int | None = None) -> RankedList:
    """Re-sort a context's candidates by mixed similarity, descending.

    Ties break by doc id ascending (`order_by_score`). top_k (default: all candidates) must not
    exceed the candidate count. Neighborhood sizes larger than the context
    are reduced to fit, so parameters tuned for deep contexts remain usable
    on shallow ones.
    """
    n = context.n_candidates
    if n == 0:
        return RankedList(context.query_id, ())
    if top_k is None:
        top_k = n
    if not 1 <= top_k <= n:
        raise DataError(f"top_k={top_k} out of range [1, {n}] for query {context.query_id!r}")
    scores = rnn_scores(context, params.clamped(context.size))
    ids = context.candidate_ids
    order = order_by_score(scores, ids)[:top_k]
    # candidate ids are unique and the order is by score, so the list needs no check
    return RankedList._of(context.query_id, tuple([ids[i] for i in order.tolist()]), scores[order])


def _rerank_one(query_id: str, ranked: RankedList, embeddings: EmbeddingMatrix,
                params: RnnParams, n_context: int, top_k: int | None, strict: bool) -> RankedList:
    try:
        ctx = context_from_run(query_id, ranked.doc_ids, embeddings, n_context)
        depth = None if top_k is None else min(top_k, ctx.n_candidates)
        return rerank_context(ctx, params, top_k=depth)
    except DataError as exc:
        if strict:
            raise
        logger.warning("query %s left in original order: %s", query_id, exc)
        return ranked


def check_depths(n_context: int, top_k: int | None = None) -> None:
    """ConfigError unless n_context, and top_k when given, are positive integers."""
    check_positive("n_context", n_context)
    if top_k is not None:
        check_positive("top_k", top_k)


def rerank_run(run, embeddings: EmbeddingMatrix, params: RnnParams, n_context: int,
               top_k: int | None = None, strict: bool = False, workers: int = 1):
    """Rerank every query of a run; returns a new RunFile.

    Per query, the top n_context candidates (the context size, independent of
    the output depth) are re-scored and written back, cut to top_k when that
    is smaller; deeper run entries are dropped. n_context and top_k must be
    positive integers (top_k may be None), else ConfigError before any query.
    Queries whose query or candidate vectors are missing from the store are
    warned about and passed through unchanged: original order and original
    depth, so such a query can keep more entries than a reranked one.
    strict=True raises instead. Queries run in up to `workers` processes
    (`parallel.map_queries`); the result does not depend on how many.
    """
    check_depths(n_context, top_k)
    query_ids = run.query_ids
    lists = map_queries(lambda qid: _rerank_one(qid, run[qid], embeddings, params, n_context, top_k, strict),
                        query_ids, workers)
    return RunFile(dict(zip(query_ids, lists)))


def check_sweep(sizes: Sequence[int], metric: str) -> list[int]:
    """The sweep's sizes as ints; ConfigError unless they are ascending and positive and `metric` parses."""
    sizes = [int(n) for n in sizes]
    if not sizes or sizes != sorted(sizes):
        raise ConfigError(f"sweep needs ascending context sizes, got {sizes}")
    check_depths(sizes[0])
    parse_metric_id(metric)
    return sizes


def sweep_context_size(run, embeddings: EmbeddingMatrix, qrels, params: RnnParams,
                       sizes: Sequence[int], metric: str = "mrr@10",
                       rel_threshold: int = 1, workers: int = 1) -> list[tuple[int, float]]:
    """Evaluate the reranked run at each context size; rows of (N, metric value).

    Sizes must be ascending and positive. `metric` is a name@k id understood
    by the evaluation module, e.g. mrr@10 or ndcg@20. Both are checked
    before any query is reranked. Each size reranks in up to `workers`
    processes, as `rerank_run`.
    """
    sizes = check_sweep(sizes, metric)
    rows = []
    for n in sizes:
        reranked = rerank_run(run, embeddings, params, n, workers=workers)
        rows.append((n, evaluate_metric(metric, reranked, qrels, rel_threshold=rel_threshold)))
    return rows


def bench_latency(context_sizes: Sequence[int], trials: int, params: RnnParams,
                  dim: int = 32, seed: int = 0) -> list[tuple[int, float, float]]:
    """Wall-clock rerank time on synthetic contexts; rows of (N, mean ms, p95 ms).

    Contexts are built from seeded random unit vectors before the clock
    starts; each trial times one rerank_context call, single-threaded, on a
    monotonic clock. Two untimed warmup calls precede measurement per size.
    """
    if trials < 3:
        raise ConfigError(f"bench needs at least 3 trials, got {trials}")
    check_positive("dim", dim)
    rows = []
    for n in context_sizes:
        n = int(n)
        if n < 1:
            raise ConfigError(f"context sizes must be positive, got {n}")
        rng = np.random.default_rng([abs(int(seed)), n])
        contexts = [random_context(rng, n, dim, query_id="bench-q") for _ in range(trials)]
        for ctx in contexts[:2]:
            rerank_context(ctx, params)
        times_ms = []
        for ctx in contexts:
            t0 = time.perf_counter_ns()
            rerank_context(ctx, params)
            times_ms.append((time.perf_counter_ns() - t0) / 1e6)
        rows.append((n, float(np.mean(times_ms)), float(np.percentile(times_ms, 95))))
    return rows
