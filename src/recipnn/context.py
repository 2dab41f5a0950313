"""Per-query ranking contexts: the query plus its top-N candidates.

A context bundles the query (always position 0), the candidates in
`order_by_score` order (geometric score descending, ties broken by id
ascending), and the dense (N+1) x (N+1) matrix of pairwise inner products
that all reciprocal-neighbor math runs on. Retrieval is exact brute force —
at the scales this package targets no ANN index is warranted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import DataError


def order_by_score(scores, ids: Sequence[str]) -> np.ndarray:
    """Positions of `scores` sorted by score descending, then id ascending.

    The package's one candidate order (contexts, reranked lists, soft labels,
    synthetic runs), so equal scores always resolve alike, byte for byte.
    """
    by_id = np.array(sorted(range(len(ids)), key=ids.__getitem__), dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)[by_id]
    return by_id[np.argsort(-scores, kind="stable")]


def top_n(scores, ids: Sequence[str], n: int) -> np.ndarray:
    """Positions of the n best entries, in `order_by_score` order."""
    scores = np.asarray(scores, dtype=np.float64)
    if n < len(scores):
        cut = np.argpartition(-scores, n - 1)[:n]
        # argpartition is unstable under score ties: widen to every entry tied
        # with the worst kept score so the exact order below decides the cut
        cand = np.nonzero(scores >= scores[cut].min())[0]
    else:
        cand = np.arange(len(scores))
    return cand[order_by_score(scores[cand], [ids[i] for i in cand])[:n]]


def _row_scores(vecs: np.ndarray, query_vec: np.ndarray) -> np.ndarray:
    """<row, query> as one sum per row: unlike a BLAS mat-vec, equal rows score alike."""
    return (vecs * query_vec).sum(axis=1)


@dataclass(frozen=True)
class RankingContext:
    """A query and its candidates with all pairwise inner products.

    element_ids[0] is the query; element_ids[1:] are candidates in
    `order_by_score` order of their geometric scores, which are row 0 of
    sim_matrix (`geo_scores`); sim_matrix[i][j] is the inner product of
    elements i and j. Never mutated after construction; constructing one
    with a non-finite similarity raises DataError.
    """

    query_id: str
    element_ids: tuple[str, ...]
    sim_matrix: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        # the neighbour kernel ranks each element first in its own row, which
        # holds only for finite similarities
        if not np.isfinite(self.sim_matrix).all():
            raise DataError(f"non-finite similarities in context for query {self.query_id!r}")

    @property
    def geo_scores(self) -> np.ndarray:
        """Geometric scores aligned with element_ids: the query row of sim_matrix."""
        return self.sim_matrix[0]

    @property
    def size(self) -> int:
        """Total number of elements, query included."""
        return len(self.element_ids)

    @property
    def n_candidates(self) -> int:
        return len(self.element_ids) - 1

    @property
    def candidate_ids(self) -> tuple[str, ...]:
        return self.element_ids[1:]

    def index_of(self, element_id: str) -> int:
        try:
            return self.element_ids.index(element_id)
        except ValueError:
            raise DataError(f"id {element_id!r} not in context for query {self.query_id!r}") from None


def build_context(
    query_id: str,
    query_vec: Sequence[float] | np.ndarray,
    doc_ids: Sequence[str],
    doc_vecs: np.ndarray,
) -> RankingContext:
    """Assemble a context from raw vectors, sorting candidates into canonical order.

    Each candidate's geometric score <query, doc> is one per-row sum; the
    candidates are put in `order_by_score` order of it, and the same values
    are the query row and column of the similarity matrix, so the kernel
    reads the geometry that ordered them. The rest is one product `A @ A.T`,
    which numpy returns exactly symmetric. Only what the input can break is
    checked: dimensions and ids here, finiteness by `RankingContext`.
    """
    query_vec = np.asarray(query_vec, dtype=np.float64)
    doc_vecs = np.asarray(doc_vecs, dtype=np.float64)
    if doc_vecs.ndim != 2 or doc_vecs.shape[0] != len(doc_ids):
        raise DataError(f"{len(doc_ids)} candidate ids for vector array of shape {doc_vecs.shape}")
    if doc_vecs.shape[0] > 0 and doc_vecs.shape[1] != query_vec.shape[0]:
        raise DataError(f"candidate dim {doc_vecs.shape[1]} != query dim {query_vec.shape[0]}")
    unique_ids = set(doc_ids)
    if query_id in unique_ids:
        raise DataError(f"query id {query_id!r} also appears among candidate ids")
    if len(unique_ids) != len(doc_ids):
        raise DataError(f"duplicate element ids in context for query {query_id!r}")

    scores = _row_scores(doc_vecs, query_vec)
    order = order_by_score(scores, doc_ids)

    all_vecs = np.vstack([query_vec[None, :], doc_vecs[order]]) if len(doc_ids) else query_vec[None, :]
    sim = all_vecs @ all_vecs.T
    sim[0, 1:] = sim[1:, 0] = scores[order]
    return RankingContext(
        query_id=query_id,
        element_ids=(query_id, *(doc_ids[i] for i in order.tolist())),
        sim_matrix=sim,
    )


def top_n_context(
    query_id: str,
    query_vec: Sequence[float] | np.ndarray,
    pool: EmbeddingMatrix,
    n: int,
) -> RankingContext:
    """Exact top-N retrieval over `pool` by inner product, as a context.

    A pool entry whose id equals `query_id` is excluded from the candidate
    set (stores may hold query and document vectors side by side). If the
    pool holds fewer than N eligible entries, all of them are used.
    """
    if n < 1:
        raise DataError(f"context size must be >= 1, got {n}")
    if len(pool) == 0:
        raise DataError("empty embedding pool")
    query_vec = np.asarray(query_vec, dtype=np.float64)
    if query_vec.shape != (pool.dim,):
        raise DataError(f"query dim {query_vec.shape} != pool dim {pool.dim}")

    ids = pool.ids
    vecs = pool.vectors.astype(np.float64)
    if query_id in pool:
        vecs = np.delete(vecs, pool.position(query_id), axis=0)
        ids.remove(query_id)
        if not ids:
            raise DataError(f"pool contains only the query {query_id!r}")
    chosen = top_n(_row_scores(vecs, query_vec), ids, n)
    return build_context(query_id, query_vec, [ids[i] for i in chosen.tolist()], vecs[chosen])


def context_from_run(
    query_id: str,
    doc_ids: Sequence[str],
    embeddings: EmbeddingMatrix,
    n: int | None = None,
) -> RankingContext:
    """Build a context from the first `n` docs of a retrieved candidate list.

    `doc_ids` must be in run rank order; scores are recomputed as inner
    products and the context re-sorted per the canonical ordering, so a run
    ranked inconsistently with its embeddings comes out consistent.
    """
    if query_id not in embeddings:
        raise DataError(f"query id {query_id!r} missing from embedding store")
    if n is not None and n < 1:
        raise DataError(f"context size must be >= 1, got {n}")
    take = list(doc_ids if n is None else doc_ids[:n])
    missing = sorted(set(d for d in take if d not in embeddings))
    if missing:
        raise DataError(f"embedding store missing candidate id(s): {', '.join(missing)}")
    rows = [embeddings.position(d) for d in take]
    return build_context(query_id, embeddings.lookup(query_id), take, embeddings.vectors[rows])
