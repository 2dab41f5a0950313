"""The benchmark's workloads, and the untimed steps that use recipnn itself.

run.py never imports recipnn or numpy. It reads each child's peak RSS with
wait4, and on Linux a child's peak includes the peak of the process that
spawned it, so the spawning process has to stay small. Generating inputs,
the oracle check and re-reading outputs run here instead, each in its own
process, and report JSON on standard output:

    python3 workload.py generate WORKLOAD SEED DIR
    python3 workload.py check WORKLOAD DIR OUTPUT

The package must be importable, e.g. through PYTHONPATH=src.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

EMBEDDINGS, RUN, QRELS, CLUSTER = "vectors.emb", "input.run", "judged.qrels", "cluster.qrels"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                 # rerank | smooth
    corpus: str                  # generator in recipnn.synthetic
    corpus_args: dict
    flags: tuple[str, ...]
    k: int                       # effective neighbourhood parameters, for the oracle sample
    tau: float
    n_context: int
    oracle_contexts: int         # the oracle takes ~2 s on one 401-element context


WORKLOADS = {w.name: w for w in (
    Workload("rerank-wide",
             "small contexts over 100k run lines: parsing, context building, objects and I/O "
             "dominate; the ROADMAP baseline",
             "rerank", "planted_corpus",
             dict(n_queries=1000, depth=100, n_distractors=20000, dim=64),
             ("--n-context", "60", "--threads", "1"), 21, 0.0, 60, 16),
    Workload("rerank-deep-t2",
             "deep contexts with tau extension make the neighbour kernel dominate; the only "
             "workload that runs the thread pool",
             "rerank", "planted_corpus",
             dict(n_queries=100, depth=400, n_distractors=20000, dim=64),
             ("--n-context", "400", "--tau", "0.5", "--threads", "2"), 21, 0.5, 400, 2),
    Workload("smooth-multigt",
             "label smoothing with ground-truth probes, two for every third query, and JSONL "
             "output; the rerank layer does not run",
             "smooth", "smoothing_corpus", dict(n_queries=1000, dim=64, depth=100),
             ("--preset", "coder-cocondenser-smooth", "--threads", "1"), 19, 0.5, 63, 16),
)}


def generate(w: Workload, seed: int, d: Path) -> dict:
    """Write the workload's inputs to `d`; check the oracle on a seeded sample."""
    import platform

    import numpy as np
    from recipnn import synthetic
    from recipnn.context import context_from_run
    from recipnn.embeddings import write_embeddings
    from recipnn.ir_eval import write_qrels, write_run
    from recipnn.neighbors import extended_reciprocal_set
    from recipnn.oracle import extended_oracle

    checks = []
    corpus = getattr(synthetic, w.corpus)(seed=seed, **w.corpus_args)
    write_embeddings(corpus.embeddings, d / EMBEDDINGS)
    write_run(corpus.run, d / RUN)
    write_qrels(corpus.qrels, d / QRELS)
    if w.command == "smooth":
        # smoothing_corpus judges 1 or 2 of the 4 members of each planted
        # cluster; the same generator with every member judged draws the same
        # vectors and so names the unjudged members
        full = synthetic.planted_corpus(seed=seed, n_queries=w.corpus_args["n_queries"],
                                        dim=w.corpus_args["dim"], depth=w.corpus_args["depth"],
                                        n_rel=4, n_judged=4, n_confusers=3, n_distractors=600)
        checks.append([full.embeddings == corpus.embeddings,
                       "full-cluster corpus draws other vectors than smoothing_corpus"])
        write_qrels(full.qrels, d / CLUSTER)

    qids = corpus.run.query_ids
    rng = np.random.default_rng([seed, 2305])
    for i in sorted(rng.choice(len(qids), size=w.oracle_contexts, replace=False)):
        qid = qids[int(i)]
        ctx = context_from_run(qid, corpus.run[qid].doc_ids, corpus.embeddings, w.n_context)
        k = min(w.k, ctx.size)
        fast = set(extended_reciprocal_set(0, ctx.sim_matrix, k, w.tau).members)
        slow = extended_oracle(ctx.sim_matrix.tolist(), 0, k, w.tau)
        checks.append([fast == slow, f"extended_reciprocal_set differs from the oracle for {qid}"])

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"queries": len(qids), "vectors": len(corpus.embeddings),
            "run_lines": sum(len(corpus.run[q]) for q in qids), "checks": checks,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', 'unknown')}"}


def check(w: Workload, d: Path, output: Path) -> dict:
    """Re-read an output through the public parsers; list missing queries and
    compute the workload's quality figure."""
    from recipnn.ir_eval import mrr_at_k, parse_qrels, parse_run
    from recipnn.smoothing import read_soft_labels

    source = parse_run(d / RUN)
    wanted = set(source.query_ids)
    judged = parse_qrels(d / QRELS)
    if w.command == "rerank":
        out = parse_run(output)
        got = set(out.query_ids)
        report = {"quality": mrr_at_k(out, judged, 10),
                  "input_mrr_at_10": mrr_at_k(source, judged, 10)}
    else:
        labels = read_soft_labels(output)
        got = {ls.query_id for ls in labels}
        report = {"quality": fn_mass(labels, judged, parse_qrels(d / CLUSTER))}
    return {"missing": sorted(wanted - got), **report}


def fn_mass(labels, judged, cluster) -> float:
    """Mean target mass on the unjudged members of each query's planted cluster."""
    total = 0.0
    for ls in labels:
        unjudged = cluster.relevant_docs(ls.query_id) - judged.relevant_docs(ls.query_id)
        total += sum(p for d, p in ls.entries if d in unjudged)
    return total / len(labels)


def main(argv: list[str]) -> int:
    step, name, *rest = argv
    w = WORKLOADS[name]
    if step == "generate":
        report = generate(w, int(rest[0]), Path(rest[1]))
    else:
        report = check(w, Path(rest[0]), Path(rest[1]))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
