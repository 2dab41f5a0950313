import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recipnn import neighbors
from recipnn.context import RankingContext, build_context
from recipnn.errors import ConfigError, DataError
from recipnn.neighbors import (
    WEIGHT_FNS,
    NeighborSet,
    RnnParams,
    extended_reciprocal_set,
    nn_set,
    reciprocal_set,
    rnn_scores,
    rnn_scores_block,
    score_in_blocks,
    _expand_matrix,
    _extended_mask,
    _jaccard,
    _reciprocal_mask,
    _row_maxmin,
    _top_order,
    _weight_matrix,
)
from recipnn.oracle import (
    connectivity_oracle,
    expansion_oracle,
    extended_oracle,
    jaccard_oracle,
    mixed_scores_oracle,
    nn_oracle,
    normalized_geo_row,
    ranked_ids_oracle,
    reciprocal_oracle,
)
from recipnn.rerank import rerank_context
from recipnn.synthetic import random_context, unit_vectors

# context indices for the 4-element fixture: q=0, c1=1, c2=2, c3=3


# --- parameter validation ---------------------------------------------------

def test_params_defaults_valid():
    p = RnnParams()
    assert (p.k, p.k_exp, p.tau, p.lam, p.weight_fn) == (21, 3, 0.0, 0.451, "neg_identity")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(k=0),
        dict(k=-3),
        dict(k_exp=0),
        dict(tau=-0.1),
        dict(tau=1.5),
        dict(lam=-0.01),
        dict(lam=1.01),
        dict(weight_fn="cosine"),
    ],
)
def test_params_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        RnnParams(**kwargs)


def test_params_validate_for_context_size(small_context):
    # one parameter set serves every context size: k beyond the 4-element
    # fixture is cut to it, a k_exp that fits is kept
    p = RnnParams(k=5, k_exp=2)
    assert rnn_scores(small_context, p).tobytes() == \
        rnn_scores(small_context, RnnParams(k=4, k_exp=2)).tobytes()
    assert (p.k, p.k_exp) == (5, 2)


def test_neighbor_set_requires_probe_membership():
    with pytest.raises(DataError):
        NeighborSet(0, frozenset({1, 2}))
    s = NeighborSet(1, frozenset({0, 1}))
    assert 0 in s and 1 in s and len(s) == 2


# --- nn / reciprocal / extended sets ----------------------------------------

def test_nn_set_fixture_values(small_context):
    sim = small_context.sim_matrix
    assert nn_set(0, sim, 2).members == {0, 1}
    assert nn_set(3, sim, 2).members == {3, 2}
    assert nn_set(0, sim, 4).members == {0, 1, 2, 3}


def test_nn_set_k_out_of_range(small_context):
    with pytest.raises(DataError):
        nn_set(0, small_context.sim_matrix, 0)
    with pytest.raises(DataError):
        nn_set(9, small_context.sim_matrix, 2)


def test_reciprocal_set_fixture_values(small_context):
    sim = small_context.sim_matrix
    assert reciprocal_set(0, sim, 2).members == {0, 1}
    assert reciprocal_set(2, sim, 2).members == {2}
    # k = context size: everyone reciprocates
    for probe in range(4):
        assert reciprocal_set(probe, sim, 4).members == nn_set(probe, sim, 4).members


def test_reciprocal_always_contains_probe(small_context):
    sim = small_context.sim_matrix
    for probe in range(4):
        for k in (1, 2, 3, 4):
            assert probe in reciprocal_set(probe, sim, k)


def test_extended_tau_zero_is_reciprocal(small_context):
    sim = small_context.sim_matrix
    for probe in range(4):
        ext = extended_reciprocal_set(probe, sim, 2, 0.0)
        assert ext.members == reciprocal_set(probe, sim, 2).members


def test_extended_saturated_whole_context(small_context):
    # k = context size makes everyone mutual, tau = 1 merges everything
    sim = small_context.sim_matrix
    assert extended_reciprocal_set(0, sim, 4, 1.0).members == {0, 1, 2, 3}


def test_extended_merge_is_selective():
    # seed chosen so extension actually adds members for some probe,
    # exercising the 2/3-overlap branch against the set oracle
    rng = np.random.default_rng(123)
    ctx = random_context(rng, 11, 4)
    sim = ctx.sim_matrix
    grew = 0
    for probe in range(ctx.size):
        ext = extended_reciprocal_set(probe, sim, 5, 0.6)
        base = reciprocal_set(probe, sim, 5)
        assert ext.members == extended_oracle(sim, probe, 5, 0.6)
        assert base.members <= ext.members
        grew += ext.members != base.members
    assert grew > 0


def test_extended_rejects_bad_tau(small_context):
    with pytest.raises(ConfigError):
        extended_reciprocal_set(0, small_context.sim_matrix, 2, 1.2)


# --- connectivity vectors, local expansion, Jaccard and the mixture -------------
# hand values pin the oracle's pieces (and, where it has one, the kernel's
# step) to their definitions, so the two routes cannot share a misreading;
# test_rnn_scores_match_oracle below ties the whole kernel to the oracle

def test_connectivity_binary_fixture(small_context):
    sim = small_context.sim_matrix
    row = normalized_geo_row(sim, 0)
    assert connectivity_oracle(row, reciprocal_oracle(sim, 0, 2), "binary") == [1.0, 1.0, 0.0, 0.0]


def test_connectivity_singleton_maps_to_one(small_context):
    row = normalized_geo_row(small_context.sim_matrix, 2)
    for wfn in WEIGHT_FNS:
        assert connectivity_oracle(row, {2}, wfn) == [0.0, 0.0, 1.0, 0.0]


def test_connectivity_neg_identity_monotone(small_context):
    w = connectivity_oracle(normalized_geo_row(small_context.sim_matrix, 0), {0, 1, 2, 3}, "neg_identity")
    # weight order matches similarity order: q > c1 > c2 > c3
    assert w[0] > w[1] > w[2] > w[3]
    assert w[0] == 1.0
    assert w[3] == pytest.approx(1e-6)


def test_connectivity_weights_within_unit_interval(small_context):
    sim = small_context.sim_matrix
    ext = _extended_mask(_top_order(sim, 3), 3, 0.5)
    for wfn in WEIGHT_FNS:
        fused = _weight_matrix(_row_maxmin(sim), ext, wfn)
        for probe in range(4):
            members = extended_oracle(sim, probe, 3, 0.5)
            for w in (fused[probe], connectivity_oracle(normalized_geo_row(sim, probe), members, wfn)):
                assert all(0.0 < w[j] <= 1.0 for j in members)
                assert all(w[j] == 0.0 for j in range(4) if j not in members)


def test_local_expansion_identity():
    vecs = [[1.0, 0.5, 0.0], [0.0, 1.0, 0.25], [0.0, 0.0, 1.0]]
    assert expansion_oracle(vecs, [[0, 1, 2], [1, 0, 2], [2, 1, 0]], 1) == vecs
    assert _expand_matrix(np.array(vecs), np.array([[0], [1], [2]]), 1).tolist() == vecs


def test_local_expansion_full_average():
    vecs = [[1.0, 0.5, 0.0], [0.0, 1.0, 0.25], [0.0, 0.0, 1.0]]
    orders = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    mean = np.mean(vecs, axis=0)
    for row in [*expansion_oracle(vecs, orders, 3), *_expand_matrix(np.array(vecs), np.array(orders), 3)]:
        np.testing.assert_allclose(row, mean, atol=1e-15)


def test_local_expansion_hand_average():
    # 3 elements on a line: 0 and 1 close, 2 far; 2-NN of each element is
    # itself plus its nearest other, so outputs are pairwise means
    vecs_raw = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    x = np.array([[0.0], [0.1], [5.0]])
    sim = -np.abs(x - x.T)  # higher = closer
    expect = [(vecs_raw[0] + vecs_raw[1]) / 2, (vecs_raw[1] + vecs_raw[0]) / 2, (vecs_raw[2] + vecs_raw[1]) / 2]
    np.testing.assert_allclose(_expand_matrix(vecs_raw, _top_order(sim, 2), 2), expect)
    np.testing.assert_allclose(expansion_oracle(vecs_raw.tolist(), [[0, 1], [1, 0], [2, 1]], 2), expect)


def test_jaccard_hand_values():
    assert jaccard_oracle([1.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]) == 0.0
    assert jaccard_oracle([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert jaccard_oracle([1.0, 1.0, 0.0, 0.0], [1.0, 0.0, 1.0, 0.0]) == pytest.approx(2.0 / 3.0, abs=1e-15)
    # weighted: minima sum to 0.5 + 0.25, maxima to 1 + 1
    assert jaccard_oracle([1.0, 0.25], [0.5, 1.0]) == pytest.approx(1.0 - 0.75 / 2.0, abs=1e-15)


def test_mixed_similarity_degenerate_and_hand(small_context):
    # binary weights on the k=2 reciprocal sets {0, 1}, {0, 1}, {2}, {3}:
    # 1 - Jaccard against the query is 1, 0, 0; lam=1 leaves the geometry
    geo = normalized_geo_row(small_context.sim_matrix, 0)[1:]
    for lam in (0.0, 0.451, 1.0):
        expect = [lam * g + (1.0 - lam) * s for g, s in zip(geo, [1.0, 0.0, 0.0])]
        assert mixed_scores_oracle(small_context, 2, lam) == pytest.approx(expect, abs=1e-15)
        np.testing.assert_allclose(rnn_scores(small_context, RnnParams(k=2, k_exp=1, lam=lam, weight_fn="binary")),
                                   expect, rtol=0, atol=1e-15)


# --- fused pipeline -------------------------------------------------------------

def test_rnn_scores_fixture_lambda_zero(small_context):
    p = RnnParams(k=2, k_exp=1, tau=0.0, lam=0.0, weight_fn="binary")
    scores = rnn_scores(small_context, p)
    np.testing.assert_allclose(scores, [1.0, 0.0, 0.0], atol=1e-15)


def test_rnn_scores_lambda_one_preserves_geo_order(small_context):
    p = RnnParams(k=2, k_exp=2, tau=0.5, lam=1.0)
    scores = rnn_scores(small_context, p)
    assert np.all(np.diff(scores) < 0)  # fixture has strictly decreasing geo


def test_rnn_scores_matches_oracle_on_fixture(small_context):
    p = RnnParams(k=2, k_exp=1, tau=0.0, lam=0.3, weight_fn="binary")
    np.testing.assert_allclose(
        rnn_scores(small_context, p),
        mixed_scores_oracle(small_context, 2, 0.3),
        atol=1e-12,
    )


def test_rnn_scores_rejects_oversized_k(small_context):
    # k and k_exp beyond the context are no longer rejected: the kernel cuts
    # them to its size, so the scores are those of k = k_exp = m
    assert small_context.size == 4
    assert rnn_scores(small_context, RnnParams(k=9, k_exp=7)).tobytes() == \
        rnn_scores(small_context, RnnParams(k=4, k_exp=4)).tobytes()


def test_rnn_scores_arbitrary_probe(small_context):
    p = RnnParams(k=2, k_exp=1, tau=0.0, lam=0.0, weight_fn="binary")
    scores = rnn_scores(small_context, p, probe=1)
    # candidates aligned with element_ids[1:]; probe c1 scores itself 1
    assert scores[0] == pytest.approx(1.0)


# --- properties ------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=24))
def test_jaccard_symmetry_and_range(seed, n):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, size=n)
    b = rng.uniform(0.0, 1.0, size=n)
    a[rng.uniform(size=n) < 0.3] = 0.0
    b[rng.uniform(size=n) < 0.3] = 0.0
    if a.max() == 0.0:
        a[0] = 0.5
    if b.max() == 0.0:
        b[-1] = 0.5
    pair = np.array([a, b])
    d_ab = _jaccard(pair, pair[0])[1]
    assert d_ab == _jaccard(pair, pair[1])[0]
    assert 0.0 <= d_ab <= 1.0
    assert _jaccard(pair, pair[0])[0] == 0.0
    assert jaccard_oracle(a.tolist(), b.tolist()) == pytest.approx(d_ab, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=20))
def test_nn_membership_monotone_in_k(seed, n):
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, n, 4)
    sim = ctx.sim_matrix
    probe = int(rng.integers(ctx.size))
    prev: set[int] = set()
    for k in range(1, ctx.size + 1):
        cur = set(nn_set(probe, sim, k).members)
        assert prev <= cur
        assert len(cur) == k
        prev = cur


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=20), k=st.integers(min_value=1, max_value=21))
def test_sets_match_oracle(seed, n, k):
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, n, 5)
    sim = ctx.sim_matrix
    k = min(k, ctx.size)
    tau = float(rng.uniform(0.0, 1.0))
    for probe in range(ctx.size):
        assert nn_set(probe, sim, k).members == nn_oracle(sim, probe, k)
        assert reciprocal_set(probe, sim, k).members == reciprocal_oracle(sim, probe, k)
        assert extended_reciprocal_set(probe, sim, k, tau).members == extended_oracle(sim, probe, k, tau)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=12), extra=st.integers(min_value=1, max_value=12))
def test_set_functions_cut_oversized_k_to_the_context(seed, n, extra):
    # as rnn_scores does: a k beyond the context size m gives the sets of k = m
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, n, 5)
    sim, m = ctx.sim_matrix, ctx.size
    tau = float(rng.uniform(0.0, 1.0))
    for probe in range(m):
        assert nn_set(probe, sim, m + extra).members == nn_oracle(sim, probe, m)
        assert reciprocal_set(probe, sim, m + extra).members == reciprocal_oracle(sim, probe, m)
        assert extended_reciprocal_set(probe, sim, m + extra, tau).members == extended_oracle(sim, probe, m, tau)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=24))
def test_vectorized_jaccard_equals_set_oracle(seed, n):
    # binary weights, no expansion, tau=0: the weighted min/max form must
    # collapse to plain set-cardinality jaccard of the reciprocal sets
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, n, 4)
    sim = ctx.sim_matrix
    k = int(rng.integers(1, ctx.size + 1))
    fast = 1.0 - rnn_scores(ctx, RnnParams(k=k, k_exp=1, tau=0.0, lam=0.0, weight_fn="binary"))
    probe_set = reciprocal_oracle(sim, 0, k)
    for j in range(1, ctx.size):
        other = reciprocal_oracle(sim, j, k)
        assert fast[j - 1] == pytest.approx(1.0 - len(probe_set & other) / len(probe_set | other), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=20),
       scale=st.sampled_from([0.01, 100.0, 1e-4, 1e-6, 1e-8]))
@example(seed=1, n=12, scale=1e-4)
@example(seed=2, n=12, scale=1e-6)
@example(seed=3, n=12, scale=1e-8)
def test_scale_invariance_of_sets_and_order(seed, n, scale):
    # vectors scaled by c scale every inner product by c*c
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, n, 5)
    scaled = type(ctx)(
        query_id=ctx.query_id,
        element_ids=ctx.element_ids,
        sim_matrix=ctx.sim_matrix * scale * scale,
    )
    k = int(rng.integers(1, ctx.size + 1))
    tau = float(rng.uniform(0.0, 1.0))
    for probe in range(ctx.size):
        assert nn_set(probe, ctx.sim_matrix, k).members == nn_set(probe, scaled.sim_matrix, k).members
        assert (extended_reciprocal_set(probe, ctx.sim_matrix, k, tau).members
                == extended_reciprocal_set(probe, scaled.sim_matrix, k, tau).members)
    p = RnnParams(k=min(5, ctx.size), k_exp=min(2, ctx.size), tau=0.3, lam=0.451)
    base = rnn_scores(ctx, p)
    after = rnn_scores(scaled, p)
    ids = ctx.candidate_ids
    order_a = sorted(range(len(ids)), key=lambda i: (-base[i], ids[i]))
    order_b = sorted(range(len(ids)), key=lambda i: (-after[i], ids[i]))
    assert order_a == order_b
    np.testing.assert_allclose(after, base, rtol=0.0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=24))
def test_lambda_one_reproduces_geometry(seed, n):
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, n, 6)
    p = RnnParams(k=min(4, ctx.size), k_exp=min(3, ctx.size), tau=0.5, lam=1.0)
    scores = rnn_scores(ctx, p)
    geo = ctx.sim_matrix[0][1:]
    # zero inversions: candidate order by score (ties by id) equals geo order
    ids = ctx.candidate_ids
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    geo_order = sorted(range(len(ids)), key=lambda i: (-geo[i], ids[i]))
    assert order == geo_order


def test_lambda_one_keeps_candidate_order_among_duplicates():
    # 60 float32 candidates drawn from 20 distinct vectors: exact duplicates
    # everywhere, so any second rounding of the query row reorders them
    rng = np.random.default_rng(2024)
    p = RnnParams(k=10, k_exp=1, tau=0.0, lam=1.0, weight_fn="binary")
    for _ in range(300):
        pool = unit_vectors(rng, 21, 64).astype(np.float32).astype(np.float64)
        docs = pool[1 + rng.integers(0, 20, size=60)]
        ctx = build_context("q", pool[0], [f"d{i:02d}" for i in range(60)], docs)
        assert rerank_context(ctx, p).doc_ids == list(ctx.candidate_ids)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=20))
def test_lambda_zero_matches_set_oracle_ordering(seed, n):
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, n, 5)
    k = int(rng.integers(1, ctx.size + 1))
    p = RnnParams(k=k, k_exp=1, tau=0.0, lam=0.0, weight_fn="binary")
    scores = rnn_scores(ctx, p)
    ids = ctx.candidate_ids
    order = [ids[i] for i in sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))]
    assert order == ranked_ids_oracle(ctx, k, 0.0)


# ---------------------------------------------------------------------------
# tied contexts: planted exact-duplicate vectors on a small integer grid, so
# every inner product is an exact small integer and duplicates tie exactly

def tied_context(seed: int, n: int = 15, distinct: int = 5, dim: int = 4):
    rng = np.random.default_rng([seed, 1701])
    pool = rng.integers(-2, 3, size=(distinct, dim)).astype(np.float64)
    pool[np.all(pool == 0, axis=1), 0] = 1.0  # keep every vector nonzero
    picks = rng.integers(0, distinct, size=n + 1)
    picks[1] = picks[0]  # the query has at least one exact duplicate
    ctx = build_context("q", pool[picks[0]], [f"c{i:03d}" for i in range(n)], pool[picks[1:]])
    assert len({tuple(v) for v in pool[picks]}) < n + 1
    return ctx


tied_seeds = pytest.mark.parametrize("seed", range(6))


@tied_seeds
@pytest.mark.parametrize("k,tau", [(1, 0.0), (3, 0.5), (5, 1.0), (8, 0.5), (16, 0.3)])
def test_tied_extended_sets_match_oracle(seed, k, tau):
    ctx = tied_context(seed)
    sim = ctx.sim_matrix
    for probe in range(ctx.size):
        assert set(extended_reciprocal_set(probe, sim, k, tau).members) == extended_oracle(sim, probe, k, tau)


@tied_seeds
@pytest.mark.parametrize("k,tau,lam", [(2, 0.0, 0.3), (4, 0.5, 0.0), (7, 1.0, 0.6)])
def test_tied_binary_scores_match_oracle(seed, k, tau, lam):
    ctx = tied_context(seed)
    p = RnnParams(k=k, k_exp=1, tau=tau, lam=lam, weight_fn="binary")
    np.testing.assert_allclose(rnn_scores(ctx, p), mixed_scores_oracle(ctx, k, lam, tau), atol=1e-12)
    two = np.mean([mixed_scores_oracle(ctx, k, lam, tau, probe=q) for q in (1, 2)], axis=0)
    np.testing.assert_allclose(rnn_scores(ctx, p, probe=[1, 2]), two, atol=1e-12)


@tied_seeds
@pytest.mark.parametrize("weight_fn", ["neg_identity", "exp_neg", "binary"])
def test_multi_probe_is_mean_of_single_probes(seed, weight_fn):
    ctx = tied_context(seed)
    p = RnnParams(k=6, k_exp=3, tau=0.5, lam=0.451, weight_fn=weight_fn)
    for a, b in [(0, 1), (1, 0), (3, 7), (ctx.size - 1, 2)]:
        pair = rnn_scores(ctx, p, probe=[a, b])
        np.testing.assert_array_equal(pair, (rnn_scores(ctx, p, probe=a) + rnn_scores(ctx, p, probe=b)) / 2)


def test_multi_probe_rejects_empty_and_bad_probes(small_context):
    p = RnnParams(k=2, k_exp=1)
    with pytest.raises(DataError):
        rnn_scores(small_context, p, probe=[])
    with pytest.raises(DataError):
        rnn_scores(small_context, p, probe=[1, 4])


@tied_seeds
@pytest.mark.parametrize("weight_fn", ["neg_identity", "exp_neg", "binary"])
def test_connectivity_vector_is_row_of_fused_weights(seed, weight_fn):
    ctx = tied_context(seed)
    sim = ctx.sim_matrix
    ext = _extended_mask(_top_order(sim, 5), 5, 0.5)
    fused = _weight_matrix(_row_maxmin(sim), ext, weight_fn)
    for probe in range(ctx.size):
        oracle = connectivity_oracle(normalized_geo_row(sim, probe), extended_oracle(sim, probe, 5, 0.5), weight_fn)
        np.testing.assert_allclose(fused[probe], oracle, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# the partial-selection kernel against a full-sort reference written here:
# a stable argsort of the +inf-diagonal matrix and a rank matrix, the route
# the kernel replaced

def full_sort_reference(sim):
    a = np.array(sim, dtype=np.float64)
    np.fill_diagonal(a, np.inf)
    order = np.argsort(-a, axis=1, kind="stable")
    m = a.shape[0]
    ranks = np.empty((m, m), dtype=np.int64)
    ranks[np.arange(m)[:, None], order] = np.arange(m)[None, :]
    return order, ranks


def reference_reciprocal(ranks, k):
    nn = ranks < k
    return nn & nn.T


def reference_extended(ranks, k, tau):
    r = reference_reciprocal(ranks, k)
    tk = int(np.floor(tau * k + 0.5))
    if tk < 1:
        return r
    rt = reference_reciprocal(ranks, tk)
    inter = r.astype(np.float64) @ rt.astype(np.float64).T
    passing = r & (3.0 * inter >= 2.0 * rt.sum(axis=1)[None, :])
    return r | ((passing.astype(np.float64) @ rt.astype(np.float64)) > 0)


@st.composite
def kernel_contexts(draw):
    """Integer-grid contexts with planted exact duplicates, or generic ones."""
    seed = draw(seeds)
    n = draw(st.integers(min_value=0, max_value=22))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        dim = draw(st.integers(min_value=1, max_value=4))
        pool = rng.integers(-2, 3, size=(draw(st.integers(min_value=1, max_value=6)), dim)).astype(np.float64)
        pool[np.all(pool == 0, axis=1), 0] = 1.0
        vecs = pool[rng.integers(0, len(pool), size=n + 1)]
        if n:
            vecs[1] = vecs[0]
        return build_context("q", vecs[0], [f"c{i:02d}" for i in range(n)], vecs[1:])
    return random_context(rng, n, 5)


@settings(max_examples=60, deadline=None)
@given(ctx=kernel_contexts())
def test_top_order_is_prefix_of_full_stable_sort(ctx):
    sim = ctx.sim_matrix
    order, _ = full_sort_reference(sim)
    for n in range(1, ctx.size + 1):
        np.testing.assert_array_equal(_top_order(sim, n), order[:, :n])


@settings(max_examples=60, deadline=None)
@given(ctx=kernel_contexts())
def test_masks_and_expansion_order_match_full_sort(ctx):
    sim = ctx.sim_matrix
    m = ctx.size
    full, ranks = full_sort_reference(sim)
    weights = np.random.default_rng(m).random((m, m))
    for k in range(1, m + 1):
        for k_exp in sorted({max(1, k - 1), k, min(m, k + 1)}):  # k_exp below, at and above k
            order = _top_order(sim, max(k, k_exp))
            np.testing.assert_array_equal(order[:, :k_exp], full[:, :k_exp])
            np.testing.assert_array_equal(_reciprocal_mask(order, k), reference_reciprocal(ranks, k))
            for tau in (0.0, 0.5, 1.0):
                np.testing.assert_array_equal(_extended_mask(order, k, tau), reference_extended(ranks, k, tau))
            np.testing.assert_array_equal(_expand_matrix(weights, order, k_exp),
                                          weights[full[:, :k_exp]].mean(axis=1))


def equal_vectors_context(n: int = 7):
    """Every element the same vector: each row of the similarity matrix, and
    every set's raw weights, has zero span."""
    v = np.array([1.0, 2.0, -1.0])
    return build_context("q", v, [f"c{i}" for i in range(n)], np.tile(v, (n, 1)))


# the whole shipped pipeline against the oracle, every weight_fn at once:
# k up to 21, k_exp up to 8 (9 stands for the whole context), tau in [0, 1],
# one probe or several; explicit inputs cover singleton sets (k=1), the full
# average (k_exp=m), zero-span contexts and the planted duplicates of tied_context
@settings(max_examples=60, deadline=None)
@given(ctx=kernel_contexts(), k=st.integers(1, 21), k_exp=st.integers(1, 9), tau=st.floats(0.0, 1.0),
       lam=st.floats(0.0, 1.0), probes=st.lists(st.integers(0, 40), min_size=1, max_size=3))
@example(ctx=tied_context(0), k=1, k_exp=3, tau=0.5, lam=0.3, probes=[0])
@example(ctx=tied_context(1), k=6, k_exp=9, tau=0.5, lam=0.451, probes=[0, 5])
@example(ctx=tied_context(2), k=16, k_exp=8, tau=0.3, lam=0.2, probes=[1, 2])
@example(ctx=tied_context(3), k=21, k_exp=5, tau=1.0, lam=0.0, probes=[3])
@example(ctx=tied_context(4), k=8, k_exp=3, tau=0.5, lam=0.451, probes=[0, 1, 9])
@example(ctx=tied_context(5), k=3, k_exp=1, tau=0.0, lam=0.7, probes=[15])
@example(ctx=equal_vectors_context(), k=4, k_exp=3, tau=1.0, lam=0.451, probes=[0])
@example(ctx=equal_vectors_context(), k=1, k_exp=9, tau=0.5, lam=0.0, probes=[2, 6])
def test_rnn_scores_match_oracle(ctx, k, k_exp, tau, lam, probes):
    m = ctx.size
    k, k_exp, probes = min(k, m), (m if k_exp == 9 else min(k_exp, m)), [q % m for q in probes]
    for weight_fn in WEIGHT_FNS:
        p = RnnParams(k=k, k_exp=k_exp, tau=tau, lam=lam, weight_fn=weight_fn)
        slow = np.mean([mixed_scores_oracle(ctx, k, lam, tau, q, k_exp=k_exp, weight_fn=weight_fn)
                        for q in probes], axis=0)
        np.testing.assert_allclose(rnn_scores(ctx, p, probe=probes), slow, rtol=0, atol=1e-9,
                                   err_msg=f"k={k} k_exp={k_exp} tau={tau} {weight_fn} probes={probes}")


def test_extended_sets_match_oracle_on_deep_tied_context():
    ctx = tied_context(3, n=119, distinct=12, dim=4)
    sim = ctx.sim_matrix
    for probe in (0, 1, 2, 60, 118, 119):
        assert set(extended_reciprocal_set(probe, sim, 21, 0.5).members) == extended_oracle(sim, probe, 21, 0.5)
    # sizes on either side of the 64-bit words the extension packs its sets
    # into, so a padding bit that leaked into a count or a set would show,
    # and m=257 (five words, k up to m), as the extension counts a word at a time
    for m in (63, 64, 65, 127, 128, 129, 257):
        ctx = tied_context(m, n=m - 1, distinct=12, dim=4)
        sim = ctx.sim_matrix
        _, ranks = full_sort_reference(sim)
        for tau in (0.5, 1.0):
            for k in (8, 21, m // 2, m - 1, m):
                np.testing.assert_array_equal(_extended_mask(_top_order(sim, k), k, tau),
                                              reference_extended(ranks, k, tau))
            assert set(extended_reciprocal_set(m - 1, sim, 8, tau).members) == extended_oracle(sim, m - 1, 8, tau)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_one_probe_surface_rejects_non_finite_similarities(bad):
    sim = np.eye(3)
    sim[0, 2] = sim[2, 0] = bad
    for call in (lambda: nn_set(0, sim, 2), lambda: reciprocal_set(0, sim, 2),
                 lambda: extended_reciprocal_set(0, sim, 2, 0.5)):
        with pytest.raises(DataError, match="non-finite"):
            call()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_hand_built_context_rejects_non_finite_similarities(bad):
    # a context built without build_context: construction itself refuses
    # the matrix, so rnn_scores never sees a row whose own entry is not its
    # unique maximum
    sim = np.eye(6)
    sim[1, 4] = sim[4, 1] = bad
    with pytest.raises(DataError, match="non-finite"):
        RankingContext("q", ("q", *(f"c{i}" for i in range(5))), sim)



# ---------------------------------------------------------------------------
# blocks: one kernel pass over a stack of equal-size contexts

@tied_seeds
@pytest.mark.parametrize("weight_fn", WEIGHT_FNS)
def test_block_rows_are_the_bytes_of_one_context_at_a_time(seed, weight_fn):
    # exact ties and duplicate vectors; one- and two-probe contexts side by side
    block = [tied_context(seed + 10 * b) for b in range(4)]
    probes = [[0], [3, 1], [0], [7, 2]]
    for p in (RnnParams(k=6, k_exp=3, tau=0.5, lam=0.451, weight_fn=weight_fn),
              RnnParams(k=3, k_exp=1, tau=0.0, lam=0.2, weight_fn=weight_fn),
              RnnParams(k=16, k_exp=16, tau=1.0, lam=0.0, weight_fn=weight_fn)):
        rows = rnn_scores_block(block, p, probes)
        assert rows.shape == (4, 15)
        for ctx, own, row in zip(block, probes, rows):
            assert row.tobytes() == rnn_scores(ctx, p, probe=own).tobytes()


@pytest.mark.parametrize("m", [40, 64, 65, 130])
def test_block_rows_match_beyond_one_bitset_word(m):
    # several contexts whose sets span one or more 64-bit words, tau extension on
    rng = np.random.default_rng(m)
    block = [random_context(rng, m - 1, 8, distinct=m // 3 if b % 2 else None) for b in range(3)]
    probes = [[0], [0, m - 1], [5]]
    p = RnnParams(k=19, k_exp=8, tau=0.5, lam=0.2)
    for ctx, own, row in zip(block, probes, rnn_scores_block(block, p, probes)):
        assert row.tobytes() == rnn_scores(ctx, p, probe=own).tobytes()


def test_block_refuses_mixed_sizes_and_empty_probe_lists():
    a, b = tied_context(0), tied_context(1, n=9)
    p = RnnParams(k=3)
    with pytest.raises(DataError, match="one size"):
        rnn_scores_block([a, b], p, [[0], [0]])
    with pytest.raises(DataError, match="one size"):
        rnn_scores_block([a], p, [[0], [0]])
    with pytest.raises(DataError, match="at least one probe"):
        rnn_scores_block([a, tied_context(2)], p, [[0], []])


def _sized_jobs(sizes, params):
    """build/finish for score_in_blocks over contexts of the given sizes, each block scored
    by finish under `params`; None stands for a DataError."""
    contexts = {f"q{i}": (None if n is None else tied_context(i, n=n - 1)) for i, n in enumerate(sizes)}

    def build(qid):
        if contexts[qid] is None:
            raise DataError(f"no context for {qid}")
        return contexts[qid], [0, 1] if int(qid[1:]) % 3 == 0 else [0]

    def finish(block, probes):
        rows = rnn_scores_block(block, params, probes)
        assert rows.shape == (len(block), block[0].n_candidates)
        return [(context, own, row.tobytes()) for context, own, row in zip(block, probes, rows)]

    return list(contexts), contexts, build, finish


@pytest.mark.parametrize("budget", [None, 1, 3])
def test_score_in_blocks_keeps_query_order_across_sizes(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(neighbors, "block_budget", lambda m: budget)
    sizes = [5, 8, 5, None, 8, 5, 5, 12, 5, 8, 2, 5]
    p = RnnParams(k=4, k_exp=3, tau=0.5)
    qids, contexts, build, finish = _sized_jobs(sizes, p)
    out = score_in_blocks(qids, build, finish)
    for qid, got in zip(qids, out):
        ctx = contexts[qid]
        if ctx is None:
            assert isinstance(got, DataError) and qid in str(got)
            continue
        probes = build(qid)[1]
        assert got == (ctx, probes, rnn_scores(ctx, p, probe=probes).tobytes())


@pytest.mark.parametrize("budget", [1, 3])
def test_score_in_blocks_strict_raises_the_first_error_in_query_order(monkeypatch, budget):
    monkeypatch.setattr(neighbors, "block_budget", lambda m: budget)
    qids, contexts, build, finish = _sized_jobs([5, 8, 5, None, 8, None], RnnParams(k=4))
    with pytest.raises(DataError, match="no context for q3"):
        score_in_blocks(qids, build, finish, strict=True)
    out = score_in_blocks(qids, build, finish)
    assert [type(r).__name__ for r in out] == ["tuple", "tuple", "tuple", "DataError", "tuple", "DataError"]

    def refuse_q1(block, probes):  # finish may not refuse what build accepted
        if any(context is contexts["q1"] for context in block):
            raise DataError("q1 failed late")
        return finish(block, probes)

    with pytest.raises(DataError, match="q1 failed late"):  # not made q1's result
        score_in_blocks(qids, build, refuse_q1)
