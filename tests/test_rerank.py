import logging

import numpy as np
import pytest

from recipnn import parallel
from recipnn.cli import main
from recipnn.context import build_context, context_from_run
from recipnn.embeddings import EmbeddingMatrix, write_embeddings
from recipnn.errors import ConfigError, DataError
from recipnn.ir_eval import Qrels, RunFile, evaluate_metric, parse_run, write_qrels, write_run
from recipnn.neighbors import RnnParams, rnn_scores
from recipnn.rerank import (
    RankedList,
    bench_latency,
    check_sweep,
    rerank_context,
    rerank_run,
)
from recipnn.synthetic import planted_corpus, random_context

from conftest import IMPROVE_BASE, IMPROVE_EXTRA_DISRUPTOR, circle_context


# --- RankedList --------------------------------------------------------------

def test_ranked_list_invariants():
    rl = RankedList("q", (("a", 2.0, 1), ("b", 1.0, 2)))
    assert rl.doc_ids == ["a", "b"]
    assert len(rl) == 2
    assert rl.truncated(1).doc_ids == ["a"]

    with pytest.raises(DataError, match="rank"):
        RankedList("q", (("a", 2.0, 1), ("b", 1.0, 3)))
    with pytest.raises(DataError, match="increase"):
        RankedList("q", (("a", 1.0, 1), ("b", 2.0, 2)))
    with pytest.raises(DataError, match="duplicate"):
        RankedList("q", (("a", 2.0, 1), ("a", 1.0, 2)))


def test_ranked_list_coerces_and_rejects_malformed_entries():
    rl = RankedList("q", [[np.str_("a"), np.float64(2.0), np.int64(1)], ("b", 1, 2.0)])
    assert rl.entries == (("a", 2.0, 1), ("b", 1.0, 2))
    assert all(type(v) is t for e in rl.entries for v, t in zip(e, (str, float, int)))
    assert RankedList("q", ()).entries == ()
    for bad in [(("a", 2.0, 1), ("b", 1.0)), (("a", 2.0, 1, 0), ("b", 1.0, 2)), (("a", 2.0, 1, 0),)]:
        with pytest.raises(ValueError):
            RankedList("q", bad)
    with pytest.raises(ValueError):
        RankedList("q", (("a", "high", 1),))
    with pytest.raises(ValueError):
        RankedList.from_scored("q", [("x", 0.5, 9)])


def test_from_scored_assigns_ranks():
    rl = RankedList.from_scored("q", [("x", 0.5), ("y", 0.25)])
    assert rl.entries == (("x", 0.5, 1), ("y", 0.25, 2))


def test_rerank_params_validation():
    # refused up front, before the pass-through path could swallow them
    c = corpus()
    for n_context, top_k in ((0, None), (-5, None), (15, 0), (15, -3)):
        with pytest.raises(ConfigError):
            rerank_run(c.run, c.embeddings, rparams(), n_context, top_k=top_k)


# --- rerank_context -----------------------------------------------------------

def test_rerank_lambda_one_keeps_geo_order(small_context):
    out = rerank_context(small_context, RnnParams(k=2, k_exp=1, lam=1.0))
    assert out.doc_ids == list(small_context.candidate_ids)


def test_rerank_improvement_scenario():
    params = RnnParams(k=4, k_exp=1, tau=0.0, lam=0.3, weight_fn="binary")

    ctx = circle_context(IMPROVE_BASE)
    geo_rank = ctx.candidate_ids.index("p") + 1
    mixed_rank = rerank_context(ctx, params).doc_ids.index("p") + 1
    assert mixed_rank < geo_rank
    assert (geo_rank, mixed_rank) == (6, 3)

    # one doc placed right next to p corrupts p's neighborhood: gone
    disrupted = circle_context({**IMPROVE_BASE, **IMPROVE_EXTRA_DISRUPTOR})
    rank2 = rerank_context(disrupted, params).doc_ids.index("p") + 1
    geo2 = disrupted.candidate_ids.index("p") + 1
    assert rank2 >= geo2


def test_rerank_top_k_and_bounds(small_context):
    p = RnnParams(k=2, k_exp=1)
    assert len(rerank_context(small_context, p, top_k=2)) == 2
    with pytest.raises(DataError):
        rerank_context(small_context, p, top_k=0)


def test_rerank_context_cuts_oversized_top_k_to_the_candidates(small_context):
    # as rerank_run does: a top_k beyond the candidate count gives every candidate
    p = RnnParams(k=2, k_exp=1)
    whole = rerank_context(small_context, p)
    assert len(whole) == small_context.n_candidates
    for top_k in (small_context.n_candidates + 1, 50):
        assert rerank_context(small_context, p, top_k=top_k) == whole


def test_rerank_clamps_oversized_params(small_context):
    # k tuned for deep contexts must still run on a 4-element context
    out = rerank_context(small_context, RnnParams(k=21, k_exp=3, lam=1.0))
    assert out.doc_ids == list(small_context.candidate_ids)


def test_rerank_context_of_no_candidates_is_an_empty_list():
    ctx = build_context("q", np.ones(3), [], np.zeros((0, 3)))
    for top_k in (None, 1):
        assert rerank_context(ctx, RnnParams(k=2, k_exp=1), top_k) == RankedList("q", ())


def test_rerank_scores_sorted_with_id_ties():
    rng = np.random.default_rng(5)
    ctx = random_context(rng, 12, 6)
    out = rerank_context(ctx, RnnParams(k=4, k_exp=2, lam=0.5))
    scores = [s for _, s, _ in out.entries]
    assert scores == sorted(scores, reverse=True)


# --- rerank_run ----------------------------------------------------------------

def corpus(seed=0, n_queries=6):
    return planted_corpus(seed=seed, n_queries=n_queries, n_distractors=80, depth=20)


def rparams(**kw):
    base = dict(k=6, k_exp=2, tau=0.0, lam=0.451)
    base.update(kw)
    return RnnParams(**base)


N_CONTEXT = 15


def test_rerank_run_matches_sequential_reference():
    c = corpus()
    params = rparams()
    out = rerank_run(c.run, c.embeddings, params, N_CONTEXT)
    assert out.query_ids == c.run.query_ids
    for qid in c.run.query_ids:
        from recipnn.context import context_from_run

        ctx = context_from_run(qid, c.run[qid].doc_ids, c.embeddings, N_CONTEXT)
        expect = rerank_context(ctx, params)
        assert out[qid].entries == expect.entries


def test_rerank_run_single_candidate_unchanged():
    c = corpus()
    qid = c.run.query_ids[0]
    run = RunFile({qid: c.run[qid].truncated(1)})
    out = rerank_run(run, c.embeddings, rparams(), N_CONTEXT)
    assert out[qid].doc_ids == run[qid].doc_ids


def test_rerank_run_missing_vectors_pass_through(caplog):
    c = corpus()
    qid = c.run.query_ids[0]
    # rebuild the store without this query's vector
    keep = [(i, v) for i, v in c.embeddings if i != qid]
    store = EmbeddingMatrix([i for i, _ in keep], np.vstack([v for _, v in keep]))
    with caplog.at_level(logging.WARNING):
        out = rerank_run(c.run, store, rparams(), N_CONTEXT)
    assert out[qid].entries == c.run[qid].entries  # untouched
    assert any(qid in rec.getMessage() for rec in caplog.records)

    with pytest.raises(DataError):
        rerank_run(c.run, store, rparams(), N_CONTEXT, strict=True)


def test_rerank_run_in_worker_processes_matches_inline(monkeypatch, caplog):
    # a query passed through in a worker is warned about once, as inline
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    c = corpus()
    qid = c.run.query_ids[2]
    keep = [(i, v) for i, v in c.embeddings if i != qid]
    store = EmbeddingMatrix([i for i, _ in keep], np.vstack([v for _, v in keep]))
    outcomes = []
    for workers in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            out = rerank_run(c.run, store, rparams(), N_CONTEXT, workers=workers)
        outcomes.append((out.lists, [(rec.name, rec.levelno, rec.getMessage()) for rec in caplog.records]))
    assert len(outcomes[0][1]) == 1 and qid in outcomes[0][1][0][2]
    assert outcomes[1] == outcomes[0]


@pytest.mark.parametrize("workers", [1, 2])
def test_reranked_lists_reuse_the_run_strings(monkeypatch, workers):
    # a block returns positions into the run, not strings, so every doc id
    # is the run's own str object, also when a worker process sorted it
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    c = corpus(n_queries=12)
    out = rerank_run(c.run, c.embeddings, rparams(), N_CONTEXT, workers=workers)
    for qid in c.run.query_ids:
        held = {d: d for d in c.run[qid].doc_ids}
        assert out[qid].doc_ids and all(d is held[d] for d in out[qid].doc_ids)


def _without_vectors(store, drop):
    keep = [(i, v) for i, v in store if i not in drop]
    return EmbeddingMatrix([i for i, _ in keep], np.vstack([v for _, v in keep]))


def _one_at_a_time(run, store, params, n_context, top_k=None):
    """rerank_run's result computed one query at a time through rerank_context."""
    lists = {}
    for qid in run.query_ids:
        try:
            ctx = context_from_run(qid, run[qid].doc_ids, store, n_context)
            lists[qid] = rerank_context(ctx, params, None if top_k is None else min(top_k, ctx.n_candidates))
        except DataError:
            lists[qid] = run[qid]
    return lists


@pytest.mark.parametrize("budget", [None, 1, 3])
def test_rerank_run_blocks_match_one_query_at_a_time(monkeypatch, budget):
    # short run lists give contexts of four sizes in one shard, and a query
    # without its vector is passed through in the middle of them; inline and
    # in two worker processes
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    if budget is not None:
        monkeypatch.setattr(parallel, "block_budget", lambda m: budget)
    c = corpus(n_queries=14)
    run = RunFile({qid: c.run[qid].truncated(3 + 4 * (i % 4)) for i, qid in enumerate(c.run.query_ids)})
    store = _without_vectors(c.embeddings, {run.query_ids[5]})
    for params, top_k in ((rparams(), None), (rparams(k=4, k_exp=3, tau=0.5), 5)):
        expect = _one_at_a_time(run, store, params, N_CONTEXT, top_k)
        for workers in (1, 2):
            out = rerank_run(run, store, params, N_CONTEXT, top_k=top_k, workers=workers)
            assert out[run.query_ids[5]] is run[run.query_ids[5]]
            for qid in run.query_ids:
                assert out[qid].doc_ids == expect[qid].doc_ids
                assert out[qid].scores.tobytes() == expect[qid].scores.tobytes()


def test_rerank_run_blocks_with_tied_vectors():
    # every candidate vector drawn from three: exact ties and duplicates in every context
    c = corpus(n_queries=10)
    ids = list(c.embeddings.keys())
    pool = c.embeddings.vectors[:3]
    store = EmbeddingMatrix(ids, pool[np.arange(len(ids)) % 3])
    out = rerank_run(c.run, store, rparams(tau=0.5), N_CONTEXT)
    expect = _one_at_a_time(c.run, store, rparams(tau=0.5), N_CONTEXT)
    for qid in c.run.query_ids:
        assert out[qid].doc_ids == expect[qid].doc_ids
        assert out[qid].scores.tobytes() == expect[qid].scores.tobytes()


@pytest.mark.parametrize("workers", [1, 2])
def test_rerank_run_strict_raises_the_first_error_in_query_order(monkeypatch, workers):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    monkeypatch.setattr(parallel, "block_budget", lambda m: 3)
    c = corpus(n_queries=12)
    qids = c.run.query_ids
    first = c.run[qids[4]].doc_ids[2]  # a candidate of the fifth query, then the tenth query itself
    store = _without_vectors(c.embeddings, {first, qids[9]})
    with pytest.raises(DataError, match=first):
        rerank_run(c.run, store, rparams(), N_CONTEXT, strict=True, workers=workers)


def test_rerank_run_top_k_capped_per_query():
    c = corpus()
    out = rerank_run(c.run, c.embeddings, rparams(), N_CONTEXT, top_k=5)
    for qid in out.query_ids:
        assert len(out[qid]) == 5


# --- sweep ----------------------------------------------------------------------

def _swept(tmp_path, c, *flags):
    """The run as `recipnn sweep` reads it back, and the (n, value) rows it writes, for a corpus on disk."""
    paths = {name: str(tmp_path / name) for name in ("emb", "run", "qrels", "csv")}
    write_embeddings(c.embeddings, paths["emb"])
    write_run(c.run, paths["run"])
    write_qrels(c.qrels, paths["qrels"])
    assert main(["sweep", "--embeddings", paths["emb"], "--run", paths["run"], "--qrels", paths["qrels"],
                 "--output", paths["csv"], *flags]) == 0
    with open(paths["csv"], encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[2:]]
    return parse_run(paths["run"]), [(int(n), float(value)) for n, value in rows]


def test_sweep_single_size_consistency(tmp_path):
    c = corpus()
    run, rows = _swept(tmp_path, c, "--sizes", "15", "--k", "6", "--k-exp", "2", "--tau", "0", "--lambda", "0.451")
    direct = evaluate_metric("mrr@10", rerank_run(run, c.embeddings, rparams(), 15), c.qrels)
    assert rows == [(15, direct)]


def test_sweep_lambda_one_constant_beyond_depth(tmp_path):
    _, rows = _swept(tmp_path, corpus(), "--sizes", "20,25,30", "--lambda", "1")
    # run depth is 20; larger contexts cannot add candidates, geometry unchanged
    assert [n for n, _ in rows] == [20, 25, 30]
    assert len({v for _, v in rows}) == 1


def test_sweep_rejects_unsorted_sizes():
    for sizes in ([20, 10], [], [0, 5]):
        with pytest.raises(ConfigError):
            check_sweep(sizes, "mrr@10")


# --- bench ------------------------------------------------------------------------

def test_bench_well_formed_rows():
    rows = bench_latency([10, 20], 3, rparams())
    assert [n for n, _, _ in rows] == [10, 20]
    for _, mean_ms, p95_ms in rows:
        assert np.isfinite(mean_ms) and mean_ms > 0
        assert np.isfinite(p95_ms) and p95_ms > 0


def test_bench_rejects_too_few_trials():
    with pytest.raises(ConfigError):
        bench_latency([10], 2, rparams())


@pytest.mark.parametrize("sizes,seed", [([], 0), ([10, 0], 0), ([10], -1)])
def test_bench_refuses_sizes_and_seeds_before_any_timing(monkeypatch, sizes, seed):
    monkeypatch.setattr("recipnn.rerank.rerank_context", None)  # timing any size would raise TypeError
    with pytest.raises(ConfigError):
        bench_latency(sizes, 3, rparams(), seed=seed)


@pytest.mark.parametrize("n_queries", [1, 2])
def test_rerank_run_of_queries_without_candidates(n_queries):
    # each context holds its query alone; two of them are scored as one block
    embeddings = EmbeddingMatrix(["q0", "q1"], np.ones((2, 3), dtype=np.float32))
    run = RunFile({f"q{i}": RankedList(f"q{i}", []) for i in range(n_queries)})
    out = rerank_run(run, embeddings, rparams(), n_context=5)
    assert [out[qid].entries for qid in out.query_ids] == [()] * n_queries


def test_planted_corpus_refuses_a_negative_seed():
    with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -1"):
        planted_corpus(seed=-1)


@pytest.mark.parametrize("kwargs,match", [({"n_rel": 1, "n_judged": 2}, "n_judged=2 exceeds n_rel=1"),
                                          ({"depth": 0}, "depth, n_queries must be >= 1")])
def test_planted_corpus_refuses_more_judged_than_relevant_and_no_depth(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        planted_corpus(**kwargs)
