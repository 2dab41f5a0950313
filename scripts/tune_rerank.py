#!/usr/bin/env python3
"""Grid-search (k, tau, lambda) for reranking against a run + qrels on disk.

Usage:
    python3 scripts/tune_rerank.py --embeddings demo/vectors.emb \
        --run demo/geo.run --qrels demo/judgments.qrels --metric mrr@10
"""

import argparse
import itertools

from recipnn.embeddings import load_embeddings
from recipnn.ir_eval import evaluate_metric, parse_qrels, parse_run
from recipnn.neighbors import RnnParams
from recipnn.rerank import rerank_run


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--embeddings", required=True)
    ap.add_argument("--run", required=True)
    ap.add_argument("--qrels", required=True)
    ap.add_argument("--metric", default="mrr@10")
    ap.add_argument("--n-context", type=int, default=40)
    ap.add_argument("--ks", default="6,10,15,21")
    ap.add_argument("--taus", default="0.0,0.5")
    ap.add_argument("--lambdas", default="0.3,0.45,0.6")
    args = ap.parse_args()

    embeddings = load_embeddings(args.embeddings)
    run = parse_run(args.run)
    qrels = parse_qrels(args.qrels)
    baseline = evaluate_metric(args.metric, run, qrels)
    print(f"geometric baseline {args.metric} = {baseline:.4f}\n")

    ks = [int(v) for v in args.ks.split(",")]
    taus = [float(v) for v in args.taus.split(",")]
    lams = [float(v) for v in args.lambdas.split(",")]
    results = []
    print(f"{'k':>4} {'tau':>6} {'lambda':>7} {args.metric:>10}")
    for k, tau, lam in itertools.product(ks, taus, lams):
        params = RnnParams(k=k, tau=tau, lam=lam)
        reranked = rerank_run(run, embeddings, params, args.n_context)
        value = evaluate_metric(args.metric, reranked, qrels)
        results.append((value, k, tau, lam))
        print(f"{k:>4} {tau:>6.2f} {lam:>7.2f} {value:>10.4f}")

    best, k, tau, lam = max(results)
    print(f"\nbest: k={k} tau={tau} lambda={lam} -> {best:.4f} "
          f"({best - baseline:+.4f} over baseline)")


if __name__ == "__main__":
    main()
