import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipnn.context import RankingContext, build_context
from recipnn.errors import ConfigError, DataError
from recipnn.neighbors import (
    ConnectivityVector,
    NeighborSet,
    RnnParams,
    connectivity_vector,
    extended_reciprocal_set,
    jaccard_distance,
    local_expansion,
    mixed_similarity,
    nn_set,
    reciprocal_set,
    rnn_scores,
    _expand_matrix,
    _extended_mask,
    _reciprocal_mask,
    _row_maxmin,
    _top_order,
    _weight_matrix,
)
from recipnn.oracle import (
    extended_oracle,
    jaccard_set_oracle,
    mixed_scores_oracle,
    nn_oracle,
    ranked_ids_oracle,
    reciprocal_oracle,
)
from recipnn.synthetic import random_context

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


def test_params_validate_for_context_size():
    p = RnnParams(k=5, k_exp=2)
    p.validate_for(5)
    with pytest.raises(DataError):
        p.validate_for(4)
    q = p.clamped(3)
    assert (q.k, q.k_exp) == (3, 2)
    assert p.clamped(10) is p


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
        nn_set(0, small_context.sim_matrix, 5)
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


# --- connectivity vectors ----------------------------------------------------

def test_connectivity_binary_fixture(small_context):
    sim = small_context.sim_matrix
    ext = reciprocal_set(0, sim, 2)
    v = connectivity_vector(0, ext, sim, "binary")
    np.testing.assert_array_equal(v.weights, [1.0, 1.0, 0.0, 0.0])
    assert v.support == {0, 1}


def test_connectivity_singleton_maps_to_one(small_context):
    sim = small_context.sim_matrix
    v = connectivity_vector(2, NeighborSet(2, frozenset({2})), sim, "neg_identity")
    assert v.weights[2] == 1.0
    assert v.support == {2}


def test_connectivity_neg_identity_monotone(small_context):
    sim = small_context.sim_matrix
    ext = NeighborSet(0, frozenset({0, 1, 2, 3}))
    v = connectivity_vector(0, ext, sim, "neg_identity")
    # weight order matches similarity order: q > c1 > c2 > c3
    assert v.weights[0] > v.weights[1] > v.weights[2] > v.weights[3]
    assert v.weights[0] == 1.0
    assert v.weights[3] == pytest.approx(1e-6)


def test_connectivity_weights_within_unit_interval(small_context):
    sim = small_context.sim_matrix
    for wfn in ("neg_identity", "exp_neg", "binary"):
        for probe in range(4):
            ext = extended_reciprocal_set(probe, sim, 3, 0.5)
            w = connectivity_vector(probe, ext, sim, wfn).weights
            members = sorted(ext.members)
            assert np.all(w[members] > 0.0)
            assert np.all(w[members] <= 1.0)
            off = [i for i in range(4) if i not in ext.members]
            assert np.all(w[off] == 0.0)


def test_connectivity_probe_mismatch(small_context):
    sim = small_context.sim_matrix
    with pytest.raises(DataError):
        connectivity_vector(0, NeighborSet(1, frozenset({1})), sim)


def test_connectivity_vector_validation():
    with pytest.raises(DataError):
        ConnectivityVector(0, np.array([[1.0]]))
    with pytest.raises(DataError):
        ConnectivityVector(0, np.array([1.5, 0.0]))
    v = ConnectivityVector(0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        v.weights[0] = 0.5


# --- local expansion ----------------------------------------------------------

def _binary_vectors(sim, k):
    m = sim.shape[0]
    return [connectivity_vector(i, reciprocal_set(i, sim, k), sim, "binary") for i in range(m)]


def test_local_expansion_identity(small_context):
    sim = small_context.sim_matrix
    vecs = _binary_vectors(sim, 2)
    out = local_expansion(vecs, sim, 1)
    for a, b in zip(vecs, out):
        np.testing.assert_array_equal(a.weights, b.weights)


def test_local_expansion_full_average(small_context):
    sim = small_context.sim_matrix
    vecs = _binary_vectors(sim, 2)
    out = local_expansion(vecs, sim, 4)
    mean = np.vstack([v.weights for v in vecs]).mean(axis=0)
    for v in out:
        np.testing.assert_allclose(v.weights, mean, atol=1e-15)


def test_local_expansion_hand_average():
    # 3 elements on a line: 0 and 1 close, 2 far; 2-NN of each element is
    # itself plus its nearest other, so outputs are pairwise means
    vecs_raw = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    x = np.array([[0.0], [0.1], [5.0]])
    sim = -np.abs(x - x.T)  # higher = closer
    vecs = [ConnectivityVector(i, vecs_raw[i]) for i in range(3)]
    out = local_expansion(vecs, sim, 2)
    np.testing.assert_allclose(out[0].weights, (vecs_raw[0] + vecs_raw[1]) / 2)
    np.testing.assert_allclose(out[1].weights, (vecs_raw[1] + vecs_raw[0]) / 2)
    np.testing.assert_allclose(out[2].weights, (vecs_raw[2] + vecs_raw[1]) / 2)


def test_local_expansion_errors(small_context):
    sim = small_context.sim_matrix
    vecs = _binary_vectors(sim, 2)
    with pytest.raises(DataError):
        local_expansion(vecs, sim, 5)
    with pytest.raises(DataError):
        local_expansion(vecs[:3], sim, 2)
    with pytest.raises(DataError):
        local_expansion(list(reversed(vecs)), sim, 2)


# --- jaccard / mixture ---------------------------------------------------------

def test_jaccard_hand_values():
    assert jaccard_distance(np.array([1.0, 1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0, 0.0])) == 0.0
    assert jaccard_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
    d = jaccard_distance(np.array([1.0, 1.0, 0.0, 0.0]), np.array([1.0, 0.0, 1.0, 0.0]))
    assert d == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_jaccard_errors():
    with pytest.raises(DataError):
        jaccard_distance(np.zeros(3), np.zeros(3))
    with pytest.raises(DataError):
        jaccard_distance(np.ones(3), np.ones(4))
    with pytest.raises(DataError):
        jaccard_distance(np.array([-0.5, 1.0]), np.array([1.0, 1.0]))


def test_mixed_similarity_degenerate_and_hand():
    assert mixed_similarity(0.37, 0.9, 1.0) == 0.37
    assert mixed_similarity(0.37, 0.25, 0.0) == 0.75
    assert mixed_similarity(0.5, 0.0, 0.451) == pytest.approx(0.7745, abs=1e-12)


def test_mixed_similarity_range_checks():
    with pytest.raises(ConfigError):
        mixed_similarity(0.5, 0.5, 1.5)
    with pytest.raises(DataError):
        mixed_similarity(1.5, 0.5, 0.5)
    with pytest.raises(DataError):
        mixed_similarity(0.5, -0.5, 0.5)


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
    with pytest.raises(DataError):
        rnn_scores(small_context, RnnParams(k=9))


def test_rnn_scores_arbitrary_probe(small_context):
    p = RnnParams(k=2, k_exp=1, tau=0.0, lam=0.0, weight_fn="binary")
    scores = rnn_scores(small_context, p, probe=1)
    # candidates aligned with element_ids[1:]; probe c1 scores itself 1
    assert scores[0] == pytest.approx(1.0)


# --- properties ------------------------------------------------------------------

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=24), dim=st.integers(min_value=2, max_value=8))
def test_jaccard_symmetry_and_range(seed, n, dim):
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, size=n)
    b = rng.uniform(0.0, 1.0, size=n)
    a[rng.uniform(size=n) < 0.3] = 0.0
    b[rng.uniform(size=n) < 0.3] = 0.0
    if a.max() == 0.0:
        a[0] = 0.5
    if b.max() == 0.0:
        b[-1] = 0.5
    d_ab = jaccard_distance(a, b)
    d_ba = jaccard_distance(b, a)
    assert d_ab == d_ba
    assert 0.0 <= d_ab <= 1.0
    assert jaccard_distance(a, a) == 0.0


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
@given(seed=seeds, n=st.integers(min_value=2, max_value=24))
def test_vectorized_jaccard_equals_set_oracle(seed, n):
    # binary weights, no expansion, tau=0: the weighted min/max form must
    # collapse to plain set-cardinality jaccard of the reciprocal sets
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, n, 4)
    sim = ctx.sim_matrix
    k = int(rng.integers(1, ctx.size + 1))
    vecs = [connectivity_vector(i, reciprocal_set(i, sim, k), sim, "binary") for i in range(ctx.size)]
    probe_set = reciprocal_oracle(sim, 0, k)
    for j in range(1, ctx.size):
        fast = jaccard_distance(vecs[0], vecs[j])
        slow = jaccard_set_oracle(probe_set, reciprocal_oracle(sim, j, k))
        assert fast == pytest.approx(slow, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(min_value=2, max_value=20), scale=st.sampled_from([0.01, 100.0]))
def test_scale_invariance_of_sets_and_order(seed, n, scale):
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, n, 5)
    scaled = type(ctx)(
        query_id=ctx.query_id,
        element_ids=ctx.element_ids,
        geo_scores=ctx.geo_scores * scale * scale,
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


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(min_value=1, max_value=24))
def test_lambda_one_reproduces_geometry(seed, n):
    rng = np.random.default_rng(seed)
    ctx = random_context(rng, n, 6)
    p = RnnParams(k=min(4, ctx.size), k_exp=min(3, ctx.size), tau=0.5, lam=1.0)
    scores = rnn_scores(ctx, p)
    geo = ctx.geo_scores[1:]
    # zero inversions: candidate order by score (ties by id) equals geo order
    ids = ctx.candidate_ids
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    geo_order = sorted(range(len(ids)), key=lambda i: (-geo[i], ids[i]))
    assert order == geo_order


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
        members = NeighborSet(probe, frozenset(np.nonzero(ext[probe])[0].tolist()))
        np.testing.assert_array_equal(connectivity_vector(probe, members, sim, weight_fn).weights,
                                      fused[probe])


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
        RankingContext("q", ("q", *(f"c{i}" for i in range(5))), np.ones(6), sim)

