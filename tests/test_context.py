import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recipnn.context import RankingContext, build_context, context_from_run, id_ranks, order_by_score, top_n
from recipnn.embeddings import EmbeddingMatrix
from recipnn.errors import DataError
from recipnn.synthetic import unit_vectors


def test_build_context_layout(small_context):
    ctx = small_context
    assert ctx.element_ids == ("q", "c1", "c2", "c3")
    assert ctx.size == 4
    assert ctx.n_candidates == 3
    assert ctx.candidate_ids == ("c1", "c2", "c3")
    assert ctx.sim_matrix[0][0] == pytest.approx(1.0)
    # candidate scores non-increasing
    assert np.all(np.diff(ctx.sim_matrix[0][1:]) <= 0)


def test_build_context_orders_by_score_then_id():
    # two docs tied at the same vector -> id ascending breaks the tie
    q = np.array([1.0, 0.0])
    vecs = np.array([[0.5, 0.1], [0.9, 0.0], [0.5, 0.1]])
    ctx = build_context("q", q, ["z", "m", "a"], vecs)
    assert ctx.candidate_ids == ("m", "a", "z")


def test_build_context_sim_matrix_symmetric(small_context):
    s = small_context.sim_matrix
    np.testing.assert_allclose(s, s.T, atol=1e-12)
    assert s[0, 1] == pytest.approx(0.96)
    assert s[0, 3] == pytest.approx(0.28)


def test_build_context_accepts_duplicate_embeddings():
    # float32 unit vectors repeated many times over: a BLAS mat-vec rounds
    # equal rows differently by position, so the geo scores that order the
    # candidates must be the per-row sums
    rng = np.random.default_rng(11)
    for _ in range(30):
        pool = unit_vectors(rng, 21, 64).astype(np.float32).astype(np.float64)
        docs = pool[1 + rng.integers(0, 20, size=60)]
        ctx = build_context("q", pool[0], [f"d{i:02d}" for i in range(60)], docs)
        order = [int(d[1:]) for d in ctx.candidate_ids]
        np.testing.assert_array_equal(ctx.sim_matrix[0][1:], (docs * pool[0]).sum(axis=1)[order])


def test_build_context_rejects_query_id_collision():
    with pytest.raises(DataError):
        build_context("q", np.array([1.0, 0.0]), ["q"], np.array([[1.0, 0.0]]))


def test_build_context_rejects_duplicate_candidate_ids():
    with pytest.raises(DataError, match="duplicate"):
        build_context("q", np.array([1.0, 0.0]), ["a", "a"], np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_build_context_rejects_ids_and_vectors_that_do_not_match():
    with pytest.raises(DataError, match="3 candidate ids for vector array of shape"):
        build_context("q", np.ones(2), ["a", "b", "c"], np.ones((2, 2)))
    with pytest.raises(DataError, match="candidate dim 3 != query dim 2"):
        build_context("q", np.ones(2), ["a", "b"], np.ones((2, 3)))


def test_index_of(small_context):
    assert small_context.index_of("q") == 0
    assert small_context.index_of("c2") == 2
    with pytest.raises(DataError):
        small_context.index_of("missing")


def make_pool(n, dim, seed):
    rng = np.random.default_rng(seed)
    ids = [f"d{i:03d}" for i in range(n)]
    return EmbeddingMatrix(ids, unit_vectors(rng, n, dim).astype(np.float32))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    dim=st.integers(min_value=2, max_value=8),
    top=st.integers(min_value=1, max_value=20),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_top_n_matches_full_sort_oracle(n, dim, top, seed):
    pool = make_pool(n, dim, seed)
    rng = np.random.default_rng(seed + 1)
    qvec = unit_vectors(rng, 1, dim)[0]
    scores = pool.vectors.astype(np.float64) @ qvec
    ids = list(pool.keys())
    expect = sorted(range(n), key=lambda i: (-scores[i], ids[i]))[:top]
    assert top_n(scores, ids, top).tolist() == expect


def make_store_with_query(n, dim, seed):
    rng = np.random.default_rng(seed)
    ids = ["q"] + [f"d{i:03d}" for i in range(n)]
    return EmbeddingMatrix(ids, unit_vectors(rng, n + 1, dim).astype(np.float32))


def test_context_from_run_truncates():
    store = make_store_with_query(10, 4, seed=5)
    ctx = context_from_run("q", ["d003", "d001", "d002"], store, 5)
    assert ctx.n_candidates == 3

    ctx = context_from_run("q", [f"d{i:03d}" for i in range(10)], store, 4)
    assert ctx.n_candidates == 4
    assert set(ctx.candidate_ids) == {"d000", "d001", "d002", "d003"}


def test_context_from_run_resorts_by_recomputed_scores():
    store = make_store_with_query(12, 4, seed=6)
    qvec = store.lookup("q").astype(np.float64)
    docs = [f"d{i:03d}" for i in range(6)]
    ctx = context_from_run("q", docs, store, 6)
    assert np.all(np.diff(ctx.sim_matrix[0][1:]) <= 1e-15)
    expect = sorted(docs, key=lambda d: (-float(store.lookup(d).astype(np.float64) @ qvec), d))
    assert list(ctx.candidate_ids) == expect


def test_context_from_run_refuses_size_zero():
    store = make_store_with_query(4, 3, seed=7)
    with pytest.raises(DataError, match="context size must be >= 1, got 0"):
        context_from_run("q", ["d000"], store, 0)


def test_context_from_run_missing_id_listed():
    store = make_store_with_query(4, 3, seed=7)
    with pytest.raises(DataError, match="dXXX"):
        context_from_run("q", ["d000", "dXXX"], store, 5)

    with pytest.raises(DataError, match="nope"):
        context_from_run("nope", ["d000"], store, 5)


@settings(max_examples=80, deadline=None)
@given(
    grid=st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=40),
    n=st.integers(min_value=1, max_value=45),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@example(grid=[1, 2, 2, 2, 0], n=2, seed=0)
def test_top_n_matches_full_sort_with_ties_across_the_cut(grid, n, seed):
    # a seven-value grid makes ties at the n-th score the common case
    scores = np.array(grid, dtype=np.float64)
    ids = [f"d{p:02d}" for p in np.random.default_rng(seed).permutation(len(grid))]
    expect = sorted(range(len(grid)), key=lambda i: (-scores[i], ids[i]))[:n]
    assert top_n(scores, ids, n).tolist() == expect


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_context_rejects_non_finite_vectors(bad):
    docs = np.eye(3)
    docs[1, 2] = bad
    with pytest.raises(DataError, match="non-finite"):
        build_context("q", np.ones(3), ["a", "b", "c"], docs)


def test_build_context_rejects_overflowing_products():
    # finite vectors whose inner products overflow: a DataError, no numpy warning
    docs = np.eye(3)
    docs[1, 2] = 1e200
    with pytest.raises(DataError, match="non-finite"):
        build_context("q", np.ones(3), ["a", "b", "c"], docs)


_SCORE_POOL = (np.nan, 0.0, -0.0, np.inf, -np.inf, 1.0, -1.0, 0.5, 5e-324)


@settings(max_examples=100, deadline=None)
@given(
    picks=st.lists(st.lists(st.integers(min_value=0, max_value=len(_SCORE_POOL) - 1), min_size=7, max_size=7),
                   min_size=1, max_size=5),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_order_by_score_over_a_stack_equals_each_row_and_the_sort_by_score_then_id(picks, seed):
    # NaN, signed zeros, infinities and ties in every row; each row with its own ids
    scores = np.array([[_SCORE_POOL[i] for i in row] for row in picks])
    rng = np.random.default_rng(seed)
    ids = [[f"d{p:02d}" for p in rng.permutation(20)[:7]] for _ in picks]
    ranks = np.stack([id_ranks(row_ids) for row_ids in ids])
    stacked = order_by_score(scores, ranks)
    for row, row_ids, row_ranks, got in zip(scores, ids, ranks, stacked):
        assert got.tolist() == order_by_score(row, row_ranks).tolist()
        # NaN last, then score descending (-0.0 ties 0.0), then id ascending
        key = lambda i: (bool(np.isnan(row[i])), 0.0 if np.isnan(row[i]) else -row[i], row_ids[i])  # noqa: E731
        assert got.tolist() == sorted(range(len(row)), key=key)


def test_id_ranks_of_a_built_context_match_a_directly_built_one():
    rng = np.random.default_rng(11)
    vecs = unit_vectors(rng, 9, 4)
    vecs[5] = vecs[2]  # a tie that the ids break
    built = build_context("q", vecs[0], ["k", "b", "x", "a", "m", "c", "z", "e"], vecs[1:])
    direct = RankingContext(built.query_id, built.element_ids, built.sim_matrix)
    assert built.id_ranks.tolist() == direct.id_ranks.tolist()
    candidates = built.candidate_ids
    assert [candidates[i] for i in np.argsort(built.id_ranks)] == sorted(candidates)
    assert build_context("q", vecs[0], [], np.empty((0, 4))).id_ranks.tolist() == []
