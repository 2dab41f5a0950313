"""Inference-time reranking of retrieved candidate lists.

Given a run (per-query ranked candidates) and an embedding store, each
query's top n_context candidates form a ranking context whose candidates are
re-scored by mixed reciprocal-NN similarity and re-sorted. Also provides the
check of a sweep's sizes and metric and the per-query latency benchmark used
by the CLI.
"""

from __future__ import annotations

import logging
import time
from typing import Sequence

import numpy as np

from .context import RankingContext, context_from_run, order_by_score, take_rows, to_input_positions
from .embeddings import EmbeddingMatrix
from .errors import ConfigError, DataError, check_positive, check_seed
from .ir_eval import RankedList, RunFile, parse_metric_id
from .neighbors import RnnParams, rnn_scores, rnn_scores_block
from .parallel import score_in_blocks
from .synthetic import random_context

logger = logging.getLogger(__name__)


def rerank_context(context: RankingContext, params: RnnParams, top_k: int | None = None) -> RankedList:
    """Re-sort a context's candidates by mixed similarity, descending.

    Ties break by doc id ascending (`order_by_score`). top_k (default: all
    candidates) must be at least 1; a larger one than the candidate count is
    cut to it, as in `rerank_run`. Neighborhood sizes larger than the
    context are cut to fit (`rnn_scores`).
    """
    if top_k is not None and top_k < 1:
        raise DataError(f"top_k must be at least 1, got {top_k} for query {context.query_id!r}")
    row = rnn_scores(context, params)
    at = order_by_score(row, context.id_ranks)[:top_k]
    # candidate ids are unique and the order is by score, so the list needs no check
    ids = context.candidate_ids
    return RankedList._of(context.query_id, tuple([ids[i] for i in at.tolist()]), row[at])


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
    warned about and passed through unchanged: the run's own RankedList, in
    original order and at original depth, so such a query can keep more
    entries than a reranked one. strict=True raises the first such error in
    query order instead. finish(contexts, probes) scores and sorts a block
    of equal-size contexts in one pass, in up to `workers` processes
    (`parallel.score_in_blocks`); the result depends on neither. Blocks
    return positions into the run's doc ids, so every list holds the run's
    own str objects.
    """
    check_depths(n_context, top_k)

    def build(query_id: str) -> tuple[RankingContext, list[int]]:
        return context_from_run(query_id, run[query_id].doc_ids, embeddings, n_context), [0]

    def finish(contexts: list[RankingContext], probes: list[list[int]]) -> list:
        rows = rnn_scores_block(contexts, params, probes)
        # one sort for the block; each context's id_ranks break its ties
        order = order_by_score(rows, np.array([c.id_ranks for c in contexts]))[:, :top_k]
        return to_input_positions(contexts, order, take_rows(rows, order))

    query_ids = run.query_ids
    lists = {}
    for qid, out in zip(query_ids, score_in_blocks(query_ids, build, finish, strict, workers)):
        if isinstance(out, DataError):
            logger.warning("query %s left in original order: %s", qid, out)
            lists[qid] = run[qid]
        else:
            lists[qid] = RankedList._at(qid, run[qid]._ids, *out)
    return RunFile(lists)


def check_sweep(sizes: Sequence[int], metric: str) -> list[int]:
    """The sweep's sizes as ints; ConfigError unless they are ascending and positive and `metric` parses."""
    sizes = [int(n) for n in sizes]
    if not sizes or sizes != sorted(sizes):
        raise ConfigError(f"sweep needs ascending context sizes, got {sizes}")
    check_depths(sizes[0])
    parse_metric_id(metric)
    return sizes


def bench_latency(context_sizes: Sequence[int], trials: int, params: RnnParams,
                  dim: int = 32, seed: int = 0) -> list[tuple[int, float, float]]:
    """Wall-clock rerank time on synthetic contexts; rows of (N, mean ms, p95 ms).

    Every size, the seed and the trial count are checked before any timing.
    Contexts are built from seeded random unit vectors before the clock
    starts; each trial times one rerank_context call, single-threaded, on a
    monotonic clock. Two untimed warmup calls precede measurement per size.
    """
    if trials < 3:
        raise ConfigError(f"bench needs at least 3 trials, got {trials}")
    check_positive("dim", dim)
    seed = check_seed(seed)
    sizes = [int(n) for n in context_sizes]
    if not sizes or min(sizes) < 1:
        raise ConfigError(f"bench needs one or more positive context sizes, got {sizes}")
    rows = []
    for n in sizes:
        rng = np.random.default_rng([seed, n])
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
