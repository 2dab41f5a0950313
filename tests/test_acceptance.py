"""Release gate: ten end-to-end checks, one per shipped guarantee.

Each test prints a single `[accept NN] name: PASS/FAIL (detail)` line
(visible under `pytest tests/test_acceptance.py -s`) and then asserts.
Tolerances are pinned here and nowhere else; do not loosen them.

The benchmark check (04) and the determinism check (09) treat timing
fields as measurements: latency numbers are asserted against bounds and
ratios, never against exact bytes, since they report the host clock.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout
from dataclasses import replace

import numpy as np

import reference_metrics as ref
from conftest import (IMPROVE_BASE, IMPROVE_EXTRA_DISRUPTOR, IMPROVE_EXTRA_HARMLESS,
                      circle_context)
from recipnn.cli import main
from recipnn.config import effective_config, smooth_params_from
from recipnn.context import context_from_run
from recipnn.embeddings import EmbeddingMatrix, write_embeddings
from recipnn.ir_eval import (Qrels, RankedList, RunFile, evaluate_metric, mrr_at_k,
                             write_qrels, write_run)
from recipnn.neighbors import (RnnParams, extended_reciprocal_set, nn_set,
                               reciprocal_set, rnn_scores)
from recipnn.oracle import ranked_ids_oracle
from recipnn.rerank import bench_latency, rerank_context, rerank_run
from recipnn.smoothing import SmoothParams, smooth_dataset, uniform_smooth
from recipnn.synthetic import (planted_corpus, random_context, smoothing_corpus,
                               unit_vectors)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[accept {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------


def _set_jaccard_scores(ctx, k: int) -> list[float]:
    """Explicit set-route Jaccard similarity of the query to each candidate.

    Written with plain sorted()/set arithmetic, independent of both the
    vectorized pipeline and the oracle module; one sort per row keeps the
    whole sweep inside the time budget.
    """
    rows = [[float(x) for x in row] for row in ctx.sim_matrix]
    m = len(rows)
    orders = [sorted(range(m), key=lambda j, i=i: (-(math.inf if j == i else rows[i][j]), j))
              for i in range(m)]
    nn = [set(order[:k]) for order in orders]
    rec = [{c for c in nn[i] if i in nn[c]} for i in range(m)]
    return [len(rec[0] & rec[j]) / len(rec[0] | rec[j]) for j in range(1, m)]


def test_accept_01_vectorized_jaccard_matches_set_oracle():
    # >= 200 random unit-vector contexts, N <= 50, dim <= 8; binary weights,
    # no expansion (k_exp=1, tau=0) make the min/max route reduce to plain
    # set Jaccard, so both routes must agree to 1e-9.  Budget: < 10 s.
    rng = np.random.default_rng(20268)
    started = time.perf_counter()
    n_contexts, worst = 220, 0.0
    for trial in range(n_contexts):
        n = int(rng.integers(4, 51))
        dim = int(rng.integers(2, 9))
        ctx = random_context(rng, n, dim, query_id=f"acc1-{trial}")
        k = int(rng.integers(1, ctx.size + 1))
        params = RnnParams(k=k, k_exp=1, tau=0.0, lam=0.0, weight_fn="binary")
        fast = rnn_scores(ctx, params)
        slow = np.array(_set_jaccard_scores(ctx, k))
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    _report(1, "vectorized jaccard == set oracle", ok,
            f"max dev {worst:.2e} over {n_contexts} contexts, {elapsed:.2f}s")


def test_accept_02_degenerate_mixtures_are_exact():
    # lam=1 must reproduce the geometric order with zero inversions whatever
    # the neighbor settings; lam=0 must match the set-oracle Jaccard order.
    rng = np.random.default_rng(4077)
    contexts = [random_context(rng, int(rng.integers(4, 41)), int(rng.integers(2, 9)),
                               query_id=f"acc2-{t}") for t in range(50)]
    corpus = planted_corpus(seed=3, n_queries=4, n_distractors=40, depth=15)
    contexts += [context_from_run(qid, corpus.run[qid].doc_ids, corpus.embeddings, n=15)
                 for qid in corpus.run.query_ids]
    contexts.append(circle_context(IMPROVE_BASE))

    inversions = mismatches = 0
    for ctx in contexts:
        k = int(rng.integers(1, ctx.size + 1))
        tau = float(rng.choice([0.0, float(rng.uniform(0.1, 1.0))]))
        weight_fn = str(rng.choice(["neg_identity", "exp_neg", "binary"]))
        geo = rerank_context(ctx, RnnParams(k=k, k_exp=int(rng.integers(1, 4)),
                                            tau=tau, lam=1.0, weight_fn=weight_fn))
        if geo.doc_ids != list(ctx.candidate_ids):
            inversions += 1
        pure = rerank_context(ctx, RnnParams(k=k, k_exp=1, tau=tau, lam=0.0,
                                             weight_fn="binary"))
        if pure.doc_ids != ranked_ids_oracle(ctx, k, 0.0, tau):
            mismatches += 1
    ok = inversions == 0 and mismatches == 0
    _report(2, "lam=1 keeps geometry, lam=0 matches set oracle", ok,
            f"{len(contexts)} contexts, {inversions} inversions, {mismatches} mismatches")


def test_accept_03_planted_2d_rank_improvement():
    # Points on the unit circle: one relevant candidate sits below five
    # negatives geometrically but shares reciprocal neighbors with the top
    # cluster, so top-4 reciprocal evidence lifts it.  A second planted
    # negative next to it floods its neighborhood and cancels the lift.
    started = time.perf_counter()
    params = RnnParams(k=4, k_exp=1, tau=0.0, lam=0.3, weight_fn="binary")

    base = circle_context(IMPROVE_BASE)
    geo_rank = base.candidate_ids.index("p") + 1
    mixed_rank = rerank_context(base, params).doc_ids.index("p") + 1
    improved = mixed_rank < geo_rank

    crowded = circle_context({**IMPROVE_BASE, **IMPROVE_EXTRA_HARMLESS,
                              **IMPROVE_EXTRA_DISRUPTOR})
    geo_rank_2 = crowded.candidate_ids.index("p") + 1
    mixed_rank_2 = rerank_context(crowded, params).doc_ids.index("p") + 1
    cancelled = mixed_rank_2 >= geo_rank_2

    elapsed = time.perf_counter() - started
    ok = improved and cancelled and elapsed < 1.0
    _report(3, "k=4 reciprocal evidence lifts the planted positive", ok,
            f"rank {geo_rank}->{mixed_rank}, with disruptor {geo_rank_2}->{mixed_rank_2}, "
            f"{elapsed * 1000:.0f}ms")


def test_accept_04_latency_bounds_and_scaling():
    # Default parameters on one N=60 context must stay under 50 ms mean,
    # and doubling N from 50/100/200 must cost between 2x and 8x.
    single = bench_latency([60], trials=25, params=RnnParams(), dim=32, seed=7)
    mean_60 = single[0][1]

    rows = bench_latency([50, 100, 200, 400], trials=15, params=RnnParams(), dim=32, seed=7)
    means = {n: mean for n, mean, _ in rows}
    ratios = {n: means[2 * n] / means[n] for n in (50, 100, 200)}
    ok = mean_60 < 50.0 and all(2.0 <= r <= 8.0 for r in ratios.values())
    _report(4, "latency under 50ms at N=60, doubling cost in [2,8]", ok,
            f"mean {mean_60:.2f}ms; ratios " +
            ", ".join(f"{n}->{2 * n}: {r:.2f}" for n, r in sorted(ratios.items())))


def test_accept_05_soft_label_validity_under_shipped_presets():
    # 100-query synthetic corpus, both shipped smoothing presets: every
    # distribution sums to 1 +- 1e-9 with support <= n_max + |gt|, and the
    # total ground-truth mass never decreases as the boost b grows.
    corpus = smoothing_corpus(seed=5)
    assert len(corpus.run.query_ids) == 100
    filler = {"embeddings": "x", "run": "x", "qrels": "x", "output": "x"}
    worst_sum, checked = 0.0, 0
    monotone = True
    for preset in ("coder-tasb-smooth", "coder-cocondenser-smooth"):
        cfg = effective_config("smooth", preset=preset, flag_values=filler)
        base_params = smooth_params_from(cfg)
        masses = []
        for b in (1.0, 1.222, 1.525, 2.0):
            result = smooth_dataset(corpus.run, corpus.qrels, corpus.embeddings,
                                    replace(base_params, b=b),
                                    n_context=cfg["n_context"])
            assert not result.skipped
            for ls in result.label_sets:
                total = sum(p for _, p in ls.entries)
                worst_sum = max(worst_sum, abs(total - 1.0))
                gt = corpus.qrels.relevant_docs(ls.query_id)
                assert ls.support <= base_params.n_max + len(gt), ls.query_id
                checked += 1
            masses.append(sum(ls.gt_mass for ls in result.label_sets))
        if any(b_next < b_prev - 1e-9 for b_prev, b_next in zip(masses, masses[1:])):
            monotone = False
    ok = worst_sum <= 1e-9 and monotone
    _report(5, "soft labels valid under both presets, gt mass monotone in b", ok,
            f"{checked} distributions, worst |sum-1| {worst_sum:.2e}")


def test_accept_06_uniform_smoothing_exactness():
    # The closed-form uniform labels for (n=5, eps=0.1) serialize exactly,
    # and matched-mass mode reproduces the evidence-based off-gt mass.
    exact = json.dumps(uniform_smooth(5, 0.1).tolist()) == \
        "[0.9, 0.025, 0.025, 0.025, 0.025]"

    corpus = smoothing_corpus(seed=9, n_queries=40)
    params = SmoothParams(rnn=RnnParams(k=10, k_exp=3, tau=0.0, lam=0.451),
                          b=1.222, n_max=8, f_n="maxmin")
    eb = smooth_dataset(corpus.run, corpus.qrels, corpus.embeddings, params,
                        n_context=25, mode="eb")
    matched = smooth_dataset(corpus.run, corpus.qrels, corpus.embeddings, params,
                             n_context=25, mode="uniform-matched")
    eb_mass = {ls.query_id: ls.gt_mass for ls in eb.label_sets}
    worst = max(abs((1.0 - eb_mass[ls.query_id]) - (1.0 - ls.gt_mass))
                for ls in matched.label_sets)
    ok = exact and len(matched.label_sets) == len(eb.label_sets) and worst <= 1e-9
    _report(6, "uniform labels exact, matched mode mirrors off-gt mass", ok,
            f"serialization {'ok' if exact else 'WRONG'}, worst mass dev {worst:.2e}")


def test_accept_07_metrics_match_naive_reference():
    # >= 100 random (run, qrels) pairs against the independently coded
    # pure-Python reference, all four metrics, plus two hand-checked values.
    rng = np.random.default_rng(777)
    pairs, worst = 0, 0.0
    while pairs < 110:
        run_lists, run_ids = {}, {}
        for qi in range(int(rng.integers(1, 5))):
            qid = f"q{qi}"
            n_docs = int(rng.integers(1, 25))
            dids = [f"d{j}" for j in range(n_docs)]
            scores = [float(s) for s in rng.integers(0, 8, size=n_docs) / 2.0]
            order = sorted(range(n_docs), key=lambda j: (-scores[j], dids[j]))
            run_lists[qid] = RankedList.from_scored(qid, [(dids[j], scores[j]) for j in order])
            run_ids[qid] = run_lists[qid].doc_ids
        judgments = {}
        for qid in run_lists:
            if qid != "q0" and rng.uniform() < 0.3:
                continue  # unjudged query: must be excluded by both routes
            pool = list(run_ids[qid]) + [f"extra{j}" for j in range(int(rng.integers(0, 3)))]
            judged = {d: int(rng.integers(0, 4)) for d in pool if rng.uniform() < 0.7}
            judged.setdefault(run_ids[qid][0], int(rng.integers(0, 4)))
            judgments[qid] = judged
        run, qrels = RunFile(run_lists), Qrels(judgments)
        ref_qrels = {q: dict(g) for q, g in judgments.items()}
        k = int(rng.integers(1, 15))
        for name in ("mrr", "ndcg", "recall", "map"):
            mine = evaluate_metric(f"{name}@{k}", run, qrels)
            naive = ref.reference_metric(name, run_ids, ref_qrels, k)
            worst = max(worst, abs(mine - naive))
        pairs += 1

    single_rel_rank2 = evaluate_metric(
        "ndcg@10", RunFile({"q": RankedList.from_scored("q", [("a", 2.0), ("b", 1.0)])}),
        Qrels({"q": {"b": 1}}))
    two_rel_ranks_1_3 = evaluate_metric(
        "map@10", RunFile({"q": RankedList.from_scored("q", [("r1", 3.0), ("x", 2.0),
                                                             ("r2", 1.0)])}),
        Qrels({"q": {"r1": 1, "r2": 1}}))
    hand = (single_rel_rank2 == 1.0 / math.log2(3.0)
            and round(single_rel_rank2, 4) == 0.6309
            and two_rel_ranks_1_3 == (1.0 + 2.0 / 3.0) / 2.0
            and round(two_rel_ranks_1_3, 4) == 0.8333)
    ok = worst <= 1e-9 and hand
    _report(7, "metrics == naive reference, hand values exact", ok,
            f"{pairs} pairs x 4 metrics, max dev {worst:.2e}")


def test_accept_08_positive_scaling_changes_nothing():
    # Multiplying every stored vector by c > 0 must leave all neighbor sets,
    # rerank orders and soft-label orderings identical.  Random unit vectors
    # put the corpus in generic position: the similarity gaps (asserted
    # below) dwarf the float32 rounding that rescaling introduces, so any
    # flip would be an algorithmic scale dependence, not tie noise.
    rng = np.random.default_rng(111)
    n_queries, n_docs = 5, 100
    ids = [f"q{i}" for i in range(n_queries)] + [f"d{j:03d}" for j in range(n_docs)]
    vectors = unit_vectors(rng, n_queries + n_docs, 16)
    doc_ids, docs = ids[n_queries:], vectors[n_queries:]
    lists = {}
    for i in range(n_queries):
        scores = docs @ vectors[i]
        order = np.argsort(-scores, kind="stable")[:25]
        lists[ids[i]] = RankedList.from_scored(
            ids[i], [(doc_ids[j], float(scores[j])) for j in order])
    run = RunFile(lists)
    qrels = Qrels({qid: {rl.doc_ids[2]: 1, rl.doc_ids[7]: 1}
                   for qid, rl in lists.items()})
    rnn = RnnParams(k=8, k_exp=3, tau=0.5, lam=0.451)
    smooth = SmoothParams(rnn=rnn, b=1.222, n_max=6, f_n="maxmin")

    signatures, min_gap = [], math.inf
    for c in (0.01, 1.0, 100.0):
        store = EmbeddingMatrix(ids, vectors * c)
        sig = []
        for qid in run.query_ids:
            ctx = context_from_run(qid, run[qid].doc_ids, store)
            sim = ctx.sim_matrix
            if c == 1.0:
                off_diag = sim[~np.eye(ctx.size, dtype=bool)].reshape(ctx.size, -1)
                gaps = np.diff(np.sort(off_diag, axis=1), axis=1)
                min_gap = min(min_gap, float(gaps.min()))
            for probe in range(ctx.size):
                sig.append(frozenset(nn_set(probe, sim, 8).members))
                sig.append(frozenset(reciprocal_set(probe, sim, 8).members))
                sig.append(frozenset(extended_reciprocal_set(probe, sim, 8, 0.5).members))
            sig.append(tuple(rerank_context(ctx, rnn).doc_ids))
        labels = smooth_dataset(run, qrels, store, smooth, n_context=25)
        sig.append(tuple((ls.query_id, tuple(d for d, _ in ls.entries))
                         for ls in labels.label_sets))
        signatures.append(sig)
    assert min_gap > 1e-5, f"corpus has near-ties (min gap {min_gap:.2e}); reseed"
    ok = signatures[0] == signatures[1] == signatures[2]
    _report(8, "scaling embeddings by 0.01/1/100 is a no-op", ok,
            f"{len(signatures[0])} compared objects per scale, min sim gap {min_gap:.1e}")


def test_accept_09_cli_output_is_deterministic(tmp_path, capsys):
    # Every command must emit byte-identical files and stdout across repeat
    # runs and across worker-pool sizes 1/4/8.  The bench CSV reports wall
    # clock, so its timing cells are checked structurally, not by byte.
    corpus = planted_corpus(seed=7, n_queries=6, n_distractors=60, depth=15)
    emb, run, qrels = (str(tmp_path / n) for n in ("v.emb", "b.run", "j.qrels"))
    write_embeddings(corpus.embeddings, emb)
    write_run(corpus.run, run, tag="base")
    write_qrels(corpus.qrels, qrels)

    def invoke(argv, out_file=None):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = main(argv)
        assert code == 0, f"{argv} -> exit {code}"
        blob = b""
        if out_file is not None:
            with open(out_file, "rb") as fh:
                blob = fh.read()
        return buf.getvalue(), blob

    failures = []
    for threads in ("1", "4", "8", "1"):  # trailing 1 doubles as a repeat run
        outcomes = {}
        o = str(tmp_path / "r.run")
        outcomes["rerank"] = invoke(["rerank", "--embeddings", emb, "--run", run,
                                     "--qrels", qrels, "--output", o,
                                     "--threads", threads], o)
        o = str(tmp_path / "s.jsonl")
        outcomes["smooth"] = invoke(["smooth", "--embeddings", emb, "--run", run,
                                     "--qrels", qrels, "--output", o,
                                     "--threads", threads], o)
        o = str(tmp_path / "w.csv")
        outcomes["sweep"] = invoke(["sweep", "--embeddings", emb, "--run", run,
                                    "--qrels", qrels, "--output", o,
                                    "--sizes", "5,10,15", "--threads", threads], o)
        outcomes["eval"] = invoke(["eval", "--run", run, "--qrels", qrels])
        o = str(tmp_path / "v.tsv")
        outcomes["convert"] = invoke(["convert", "--input", emb, "--to", "tsv",
                                      "--output", o], o)
        outcomes["selftest"] = invoke(["selftest", "--trials", "5", "--seed", "1"])
        o = str(tmp_path / "t.csv")
        stdout, blob = invoke(["bench", "--sizes", "20,40", "--trials", "3",
                               "--dim", "8", "--output", o], o)
        lines = blob.decode().splitlines()
        outcomes["bench"] = (stdout, (lines[:2], [ln.split(",")[0] for ln in lines[2:]]))

        if threads == "1" and "baseline" not in dir():
            baseline = outcomes
        else:
            failures += [f"{cmd}@threads={threads}" for cmd in outcomes
                         if outcomes[cmd] != baseline[cmd]]
    capsys.readouterr()  # swallow pytest-captured CLI prints
    _report(9, "CLI byte-identical across runs and pool sizes 1/4/8",
            not failures, "all 7 commands" if not failures else ", ".join(failures))


def test_accept_10_reciprocal_reranking_beats_geometry():
    # Planted-cluster corpora: relevant docs cluster near each query's
    # judged truth, confusers sit geometrically close to the query but lack
    # reciprocal support.  Tuned small (k, lam) must match or beat the
    # geometric MRR@10 on at least 95% of 50 seeded trials.
    params = RnnParams(k=10, k_exp=3, tau=0.5, lam=0.45)
    wins, margins = 0, []
    for seed in range(50):
        corpus = planted_corpus(seed=seed, n_queries=50)
        reranked = rerank_run(corpus.run, corpus.embeddings, params, n_context=40)
        before = mrr_at_k(corpus.run, corpus.qrels, 10)
        after = mrr_at_k(reranked, corpus.qrels, 10)
        margins.append(after - before)
        wins += after >= before
    ok = wins >= 48  # 95% of 50, rounded up
    _report(10, "reranking >= geometric MRR@10 on >=95% of trials", ok,
            f"{wins}/50 wins, median gain {sorted(margins)[25]:+.4f}, "
            f"min {min(margins):+.4f}")
