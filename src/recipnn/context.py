"""Per-query ranking contexts: the query plus its top-N candidates.

A context bundles the query (always position 0), the candidates in
`order_by_score` order (geometric score descending, ties broken by id
ascending), each candidate's position in id order (`id_ranks`, the tie
key of every later ordering of the same candidates) and in the doc-id list
it was built from (`doc_positions`), and the dense (N+1) x (N+1) matrix of
pairwise inner products that all reciprocal-neighbor math runs on.
Retrieval is exact brute force — at the scales this package targets no ANN
index is warranted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .embeddings import EmbeddingMatrix
from .errors import DataError


def id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each id's position in id order (ids must be unique)."""
    ranks = np.empty(len(ids), dtype=np.int64)
    ranks[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
    return ranks


def order_by_score(scores, ranks) -> np.ndarray:
    """Positions of `scores` sorted by score descending, then id ascending.

    `ranks` gives each entry's position in id order (`id_ranks`). `scores`
    and `ranks` are one row or a (B, n) stack of rows, each sorted on its
    own. The package's one candidate order (contexts, reranked lists, soft
    labels, synthetic runs), so equal scores always resolve alike, byte for
    byte; NaN sorts last.
    """
    return np.lexsort((ranks, np.negative(scores, dtype=np.float64)), axis=-1)


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
    return cand[order_by_score(scores[cand], id_ranks([ids[i] for i in cand]))[:n]]


def take_rows(values: np.ndarray, at: np.ndarray) -> np.ndarray:
    """values[b, at[b]] for each row b of a (B, n) stack: `np.take_along_axis` at less cost."""
    # row b starts at flat position b * n
    return values.take(at + np.arange(len(values))[:, None] * values.shape[-1])


def _row_scores(vecs: np.ndarray, query_vec: np.ndarray) -> np.ndarray:
    """<row, query> as one sum per row: unlike a BLAS mat-vec, equal rows score alike."""
    return (vecs * query_vec).sum(axis=1)


@dataclass(frozen=True)
class RankingContext:
    """A query and its candidates with all pairwise inner products.

    element_ids[0] is the query; element_ids[1:] are candidates in
    `order_by_score` order of their geometric scores, which are row 0 of
    sim_matrix; sim_matrix[i][j] is the inner product of elements i and j.
    id_ranks[j] is the position of candidate element_ids[j + 1] in id order
    among the candidates, computed from the ids when not given;
    doc_positions[j] is its position in the doc-id list the context was
    built from, by default the candidates as they stand.
    Never mutated after construction; constructing one with a non-finite
    similarity raises DataError.
    """

    query_id: str
    element_ids: tuple[str, ...]
    sim_matrix: np.ndarray = field(repr=False)
    id_ranks: np.ndarray | None = field(default=None, repr=False, compare=False)
    doc_positions: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # the neighbour kernel ranks each element first in its own row, which
        # holds only for finite similarities
        if not np.isfinite(self.sim_matrix).all():
            raise DataError(f"non-finite similarities in context for query {self.query_id!r}")
        if self.id_ranks is None:
            object.__setattr__(self, "id_ranks", id_ranks(self.element_ids[1:]))
        if self.doc_positions is None:
            object.__setattr__(self, "doc_positions", np.arange(self.n_candidates))

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


def check_element_ids(query_id: str, doc_ids: Sequence[str]) -> None:
    """DataError unless the candidate ids are unique and the query is not among them."""
    unique_ids = set(doc_ids)
    if query_id in unique_ids:
        raise DataError(f"query id {query_id!r} also appears among candidate ids")
    if len(unique_ids) != len(doc_ids):
        raise DataError(f"duplicate element ids in context for query {query_id!r}")


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
    reads the geometry that ordered them. The id order that breaks their
    ties is kept as the context's `id_ranks`, and the order itself as its
    `doc_positions`. The rest is one product
    `A @ A.T`, which numpy returns exactly symmetric. Only what the input
    can break is checked: dimensions and ids here, finiteness by
    `RankingContext`, so vectors with inf or NaN, or products that
    overflow, raise DataError without a numpy RuntimeWarning.
    """
    query_vec = np.asarray(query_vec, dtype=np.float64)
    doc_vecs = np.asarray(doc_vecs, dtype=np.float64)
    if doc_vecs.ndim != 2 or doc_vecs.shape[0] != len(doc_ids):
        raise DataError(f"{len(doc_ids)} candidate ids for vector array of shape {doc_vecs.shape}")
    if doc_vecs.shape[0] > 0 and doc_vecs.shape[1] != query_vec.shape[0]:
        raise DataError(f"candidate dim {doc_vecs.shape[1]} != query dim {query_vec.shape[0]}")
    check_element_ids(query_id, doc_ids)

    ranks = id_ranks(doc_ids)
    # a non-finite or overflowing product is refused by RankingContext, not warned about
    with np.errstate(invalid="ignore", over="ignore"):
        scores = _row_scores(doc_vecs, query_vec)
        order = order_by_score(scores, ranks)
        all_vecs = np.vstack([query_vec[None, :], doc_vecs[order]]) if len(doc_ids) else query_vec[None, :]
        sim = all_vecs @ all_vecs.T
    sim[0, 1:] = sim[1:, 0] = scores[order]
    return RankingContext(
        query_id=query_id,
        element_ids=(query_id, *(doc_ids[i] for i in order.tolist())),
        sim_matrix=sim,
        id_ranks=ranks[order],
        doc_positions=order,
    )


def to_input_positions(contexts: Sequence[RankingContext], at: np.ndarray, values: np.ndarray) -> list:
    """Per context of a block, values[b] and the int32 positions of its candidates
    at[b] in the doc-id list it was built from (`doc_positions`), as one pair."""
    positions = take_rows(np.array([c.doc_positions for c in contexts], dtype=np.int32), at)
    return list(zip(positions, values))


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
    if n is not None and n < 1:
        raise DataError(f"context size must be >= 1, got {n}")
    take = list(doc_ids if n is None else doc_ids[:n])
    rows = store_rows(query_id, take, embeddings)
    return build_context(query_id, embeddings.lookup(query_id), take, embeddings.vectors[rows])


def store_rows(query_id: str, doc_ids: Sequence[str], embeddings: EmbeddingMatrix) -> list[int]:
    """The store rows of a query's candidates; DataError when the store has
    no vector for the query or for a candidate."""
    if query_id not in embeddings:
        raise DataError(f"query id {query_id!r} missing from embedding store")
    rows = embeddings.positions(doc_ids)
    if None in rows:
        missing = sorted({d for d, row in zip(doc_ids, rows) if row is None})
        raise DataError(f"embedding store missing candidate id(s): {', '.join(missing)}")
    return rows
