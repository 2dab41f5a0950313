"""Seeded synthetic data: random contexts and planted-cluster retrieval corpora.

The planted-cluster generator builds the workload used by benchmarks,
self-tests and the example experiments: each query is a noisy view of a
hidden cluster center, relevant documents are independent noisy views of the
same center (so they form a mutual-neighbor clique with the query), and
"confuser" documents sit geometrically closer to the query than the relevant
ones while sharing no cluster structure. Geometric ranking therefore places
confusers on top; neighborhood-overlap evidence favors the cluster.

Everything is driven by numpy Generators seeded from explicit integers, so
identical seeds reproduce identical corpora byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .context import RankingContext, build_context, top_n
from .embeddings import EmbeddingMatrix
from .errors import ConfigError
from .ir_eval import Qrels, RankedList, RunFile


def unit_vectors(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    """n random points on the unit sphere in R^dim (float64 rows)."""
    v = rng.standard_normal((n, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_context(rng: np.random.Generator, n_candidates: int, dim: int,
                   query_id: str = "q", distinct: int | None = None) -> RankingContext:
    """A context of random unit vectors, candidates named c000, c001, ...; with
    `distinct`, all are drawn from that many vectors, so duplicates abound."""
    vecs = unit_vectors(rng, n_candidates + 1 if distinct is None else distinct, dim)
    if distinct is not None:
        vecs = vecs[rng.integers(0, distinct, size=n_candidates + 1)]
    ids = [f"c{i:03d}" for i in range(n_candidates)]
    return build_context(query_id, vecs[0], ids, vecs[1:])


def _noisy_view(rng: np.random.Generator, center: np.ndarray, sigma: float) -> np.ndarray:
    """Unit vector near `center`; sigma is the expected noise NORM (the
    per-coordinate scale is sigma/sqrt(dim), so sigma means the same thing
    at every dimensionality)."""
    dim = center.shape[0]
    v = center + (sigma / np.sqrt(dim)) * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _at_cosine(rng: np.random.Generator, anchor: np.ndarray, cosine: float) -> np.ndarray:
    """A random unit vector at an exact cosine from `anchor`."""
    u = rng.standard_normal(anchor.shape[0])
    u -= (u @ anchor) * anchor
    u /= np.linalg.norm(u)
    return cosine * anchor + np.sqrt(1.0 - cosine * cosine) * u


@dataclass(frozen=True)
class PlantedCorpus:
    """A synthetic retrieval workload with known cluster structure."""

    embeddings: EmbeddingMatrix  # queries and documents share one store
    run: RunFile                 # geometric retrieval over all documents
    qrels: Qrels                 # judged positives (subset of each cluster)

    @property
    def query_ids(self) -> list[str]:
        return self.run.query_ids


def planted_corpus(seed: int = 0, n_queries: int = 20, dim: int = 24,
                   n_rel: int = 4, n_judged: int = 1, n_confusers: int = 3,
                   n_entourage: int = 3, n_distractors: int = 400, depth: int = 50,
                   sigma_query: float = 0.35, sigma_rel: float = 0.35,
                   sigma_entourage: float = 0.33,
                   conf_cosine: float = 0.92) -> PlantedCorpus:
    """Build a corpus of per-query planted clusters plus shared distractors.

    Per query: one hidden unit center; the query and n_rel relevant docs are
    independent noisy views of it (so they form a mutual-neighbor community).
    n_confusers docs sit at an exact cosine `conf_cosine` from the query —
    geometrically ahead of the relevants for the default sigmas — but each
    confuser drags its own entourage of n_entourage unjudged docs sampled
    around it, so a confuser's nearest neighbors are mostly docs the query
    does not rank highly. The first n_judged relevant docs are judged
    positive (grade 1); the remaining cluster members act as unlabeled
    relevants. The run holds exact brute-force top-`depth` retrieval by
    inner product.
    """
    if n_judged > n_rel:
        raise ConfigError(f"n_judged={n_judged} exceeds n_rel={n_rel}")
    if depth < 1 or n_queries < 1 or dim < 2:
        raise ConfigError("depth, n_queries must be >= 1 and dim >= 2")
    rng = np.random.default_rng([abs(int(seed)), 917])

    doc_ids: list[str] = []
    doc_vecs: list[np.ndarray] = []
    judgments: dict[str, dict[str, int]] = {}
    query_ids = [f"q{i:04d}" for i in range(n_queries)]
    query_vecs = np.empty((n_queries, dim))

    for qi, qid in enumerate(query_ids):
        center = unit_vectors(rng, 1, dim)[0]
        query_vecs[qi] = _noisy_view(rng, center, sigma_query)
        judgments[qid] = {}
        for ri in range(n_rel):
            did = f"d{len(doc_ids):06d}"
            doc_ids.append(did)
            doc_vecs.append(_noisy_view(rng, center, sigma_rel))
            if ri < n_judged:
                judgments[qid][did] = 1
        for _ in range(n_confusers):
            did = f"d{len(doc_ids):06d}"
            doc_ids.append(did)
            confuser = _at_cosine(rng, query_vecs[qi], conf_cosine)
            doc_vecs.append(confuser)
            for _ in range(n_entourage):
                did = f"d{len(doc_ids):06d}"
                doc_ids.append(did)
                doc_vecs.append(_noisy_view(rng, confuser, sigma_entourage))
    for _ in range(n_distractors):
        did = f"d{len(doc_ids):06d}"
        doc_ids.append(did)
        doc_vecs.append(unit_vectors(rng, 1, dim)[0])

    docs = np.vstack(doc_vecs)
    all_ids = query_ids + doc_ids
    all_vecs = np.vstack([query_vecs, docs]).astype(np.float32)
    embeddings = EmbeddingMatrix(all_ids, all_vecs)

    scores = query_vecs @ docs.T  # exact brute-force retrieval
    lists = {}
    for qi, qid in enumerate(query_ids):
        row = scores[qi]
        top = top_n(row, doc_ids, depth).tolist()
        lists[qid] = RankedList.from_scored(qid, [(doc_ids[j], float(row[j])) for j in top])
    return PlantedCorpus(embeddings, RunFile(lists), Qrels(judgments))


def smoothing_corpus(seed: int = 0, n_queries: int = 100, dim: int = 24,
                     depth: int = 40) -> PlantedCorpus:
    """A 100-query default corpus sized for label-smoothing experiments.

    Mixes single- and multi-positive queries (two judged positives for every
    third query) so multi-ground-truth code paths get exercised.
    """
    single = planted_corpus(seed=seed, n_queries=n_queries, dim=dim, depth=depth,
                            n_rel=4, n_judged=1, n_confusers=3, n_distractors=600)
    # re-judge every third query with a second positive from its cluster
    judgments = {qid: dict(grades) for qid, grades in single.qrels.judgments.items()}
    for qi, qid in enumerate(single.query_ids):
        if qi % 3 == 0:
            first = sorted(judgments[qid])[0]
            second = f"d{int(first[1:]) + 1:06d}"  # next doc in the same cluster
            judgments[qid][second] = 1
    return PlantedCorpus(single.embeddings, single.run, Qrels(judgments))
