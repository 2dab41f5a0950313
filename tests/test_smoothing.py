import json
import logging
import math
import tracemalloc
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from recipnn import parallel, smoothing
from recipnn.context import context_from_run
from recipnn.embeddings import EmbeddingMatrix
from recipnn.errors import ConfigError, DataError
from recipnn.ir_eval import Qrels, RankedList, RunFile
from recipnn.neighbors import WEIGHT_FNS, RnnParams
from recipnn.oracle import mixed_scores_oracle, soft_labels_oracle
from recipnn.smoothing import (
    NORMALIZERS,
    SMOOTH_MODES,
    SmoothParams,
    SoftLabelSet,
    mean_gt_similarity,
    normalize_scores,
    read_soft_labels,
    smooth_dataset,
    softmax,
    transform_scores,
    uniform_smooth,
    write_soft_labels,
)
from recipnn.synthetic import smoothing_corpus, unit_vectors


# --- params / containers -------------------------------------------------------

def test_smooth_params_validation():
    SmoothParams(b=1.0, n_max=1)
    for kwargs in (dict(b=0.9), dict(n_max=0), dict(f_n="zscore")):
        with pytest.raises(ConfigError):
            SmoothParams(**kwargs)


def test_stdbased_boost_factor_has_a_ceiling():
    # stdbased scores of n candidates reach sqrt(2n), at most 2**16 for the
    # 2**31 candidates int32 positions index: b * 2**16 must stay finite
    n = 64
    extreme = np.full(n, 0.5)
    extreme[0], extreme[-1] = 1.0, 0.0  # one score at each end, the rest between
    assert normalize_scores(extreme, "stdbased").max() == pytest.approx(math.sqrt(2 * n))
    top = smoothing._STDBASED_B_MAX
    assert math.isfinite(top * 2.0**16) and not math.isfinite(math.nextafter(top, math.inf) * 2.0**16)
    SmoothParams(b=top, f_n="stdbased")
    for b in (math.nextafter(top, math.inf), 1e308):
        with pytest.raises(ConfigError, match="boost factor b must be at most .* under f_n stdbased"):
            SmoothParams(b=b, f_n="stdbased")
    SmoothParams(b=1e308, f_n="maxmin")  # maxmin scores stay in [0, 1]


def test_soft_label_set_invariants():
    ok = SoftLabelSet("q", (("a", 0.7), ("b", 0.3)), frozenset({"a"}))
    assert ok.support == 2
    assert ok.gt_mass == pytest.approx(0.7)
    with pytest.raises(DataError, match="sum"):
        SoftLabelSet("q", (("a", 0.7), ("b", 0.2)), frozenset({"a"}))
    with pytest.raises(DataError, match="sorted"):
        SoftLabelSet("q", (("b", 0.3), ("a", 0.7)), frozenset({"a"}))
    with pytest.raises(DataError, match="duplicate"):
        SoftLabelSet("q", (("a", 0.5), ("a", 0.5)), frozenset({"a"}))
    with pytest.raises(DataError, match="negative"):
        SoftLabelSet("q", (("a", 1.1), ("b", -0.1)), frozenset({"a"}))
    with pytest.raises(DataError, match="query 'q': empty label set"):
        SoftLabelSet("q", [], [])


def test_soft_label_set_holds_columns():
    checked = SoftLabelSet("q", [["a", 0.5], ["b", 0.25], ["c", 0.25]], ["a"])
    built = SoftLabelSet._of("q", ("a", "b", "c"), np.array([0.5, 0.25, 0.25]), frozenset({"a"}))
    for ls in (checked, built):
        assert type(ls.doc_ids) is tuple and all(type(d) is str for d in ls.doc_ids)
        assert ls.probs.dtype == np.float64 and not ls.probs.flags.writeable
        assert ls.entries == (("a", 0.5), ("b", 0.25), ("c", 0.25))
        assert all(type(d) is str and type(p) is float for d, p in ls.entries)
        assert ls.support == 3 and ls.gt_mass == 0.5 and ls.gt_ids == frozenset({"a"})
        with pytest.raises(ValueError):
            ls.probs[0] = 1.0
        with pytest.raises(AttributeError):
            ls.query_id = "other"
    assert checked == built
    assert checked != SoftLabelSet("q", checked.entries, {"b"})
    assert checked != SoftLabelSet("q", (("a", 0.5), ("b", 0.5)), {"a"})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_soft_label_set_rejects_non_finite(bad):
    # a NaN last in the list passed the sum, sign and order checks
    with pytest.raises(DataError, match="non-finite"):
        SoftLabelSet("q", (("b", 1.0), ("a", bad)), frozenset({"b"}))


# --- normalize_scores -------------------------------------------------------------

def test_normalize_maxmin_hand_case():
    np.testing.assert_allclose(normalize_scores([2.0, 4.0, 6.0], "maxmin"), [0.0, 0.5, 1.0])
    # idempotent on an already max-min-normalized vector
    np.testing.assert_allclose(normalize_scores([0.0, 0.3, 1.0], "maxmin"), [0.0, 0.3, 1.0])


def test_normalize_stdbased_hand_case():
    out = normalize_scores([1.0, 2.0, 3.0], "stdbased")
    sigma = math.sqrt(2.0 / 3.0)
    np.testing.assert_allclose(out, [0.0, 1.0 / sigma, 2.0 / sigma], atol=1e-12)
    np.testing.assert_allclose(out, [0.0, 1.2247, 2.4495], atol=1e-4)


def test_normalize_constant_vector_warns_zeros():
    x = 0.5418876651501707
    cases = [(f_n, vec) for f_n in NORMALIZERS for vec in (
        [3.0, 3.0, 3.0],
        [x, x - 2**-53, x],  # constant in exact arithmetic, one ulp lower in one entry
    )]
    cases.append(("stdbased", [1e-300, 2e-300, 3e-300]))  # sigma's squares underflow to zero
    for f_n, vec in cases:
        with pytest.warns(RuntimeWarning):
            out = normalize_scores(vec, f_n)
        np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])


def test_normalize_rejects_short_or_bad_input():
    with pytest.raises(DataError):
        normalize_scores([1.0], "maxmin")
    with pytest.raises(DataError):
        normalize_scores([1.0, np.inf], "maxmin")
    with pytest.raises(ConfigError):
        normalize_scores([1.0, 2.0], "softmax")


# --- transform_scores ----------------------------------------------------------------

def test_transform_hand_case():
    r = [0.9, 0.8, 0.7, 0.6, 0.5]
    flags = [True, False, False, False, False]
    params = SmoothParams(b=1.222, n_max=4, f_n="maxmin")
    out = transform_scores(r, flags, params)
    np.testing.assert_allclose(out[:4], [1.222, 0.75, 0.5, 0.25], atol=1e-12)
    assert out[4] == -np.inf


def test_transform_pure_normalization_when_unconstrained():
    r = [0.9, 0.5, 0.1]
    params = SmoothParams(b=1.0, n_max=10, f_n="maxmin")
    out = transform_scores(r, [False, False, False], params)
    np.testing.assert_allclose(out, normalize_scores(r, "maxmin"))


def test_transform_gt_beyond_cut_is_boosted_not_cut():
    r = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
    flags = [False, False, False, False, False, True]
    params = SmoothParams(b=1.5, n_max=4, f_n="maxmin")
    out = transform_scores(r, flags, params)
    assert out[4] == -np.inf
    assert out[5] == pytest.approx(1.5 * 0.0)  # boosted value, finite
    assert np.isfinite(out[5])


def test_transform_alignment_error():
    with pytest.raises(DataError):
        transform_scores([1.0, 0.5], [True], SmoothParams())


# --- softmax -----------------------------------------------------------------------

def test_softmax_hand_cases():
    np.testing.assert_allclose(softmax([0.0, 0.0]), [0.5, 0.5])
    np.testing.assert_allclose(softmax([3.7, -np.inf]), [1.0, 0.0])
    out = softmax([1.0, 0.0])
    e = math.e
    np.testing.assert_allclose(out, [e / (e + 1), 1 / (e + 1)], atol=1e-12)
    np.testing.assert_allclose(out, [0.7311, 0.2689], atol=1e-4)


def test_softmax_neg_inf_is_exact_zero():
    out = softmax([0.5, -np.inf, 0.25])
    assert out[1] == 0.0
    assert out.sum() == pytest.approx(1.0, abs=1e-15)


def test_softmax_rejects_bad_input():
    with pytest.raises(DataError):
        softmax([-np.inf, -np.inf])
    with pytest.raises(DataError):
        softmax([np.nan, 1.0])
    with pytest.raises(DataError):
        softmax([np.inf, 1.0])
    with pytest.raises(DataError):
        softmax([])


# --- uniform smoothing ----------------------------------------------------------------

def test_uniform_exact_values():
    out = uniform_smooth(5, 0.1)
    assert out.tolist() == [0.9, 0.025, 0.025, 0.025, 0.025]
    assert repr(out.tolist()) == "[0.9, 0.025, 0.025, 0.025, 0.025]"


def test_uniform_one_hot_and_gt_position():
    np.testing.assert_array_equal(uniform_smooth(3, 0.0), [1.0, 0.0, 0.0])
    out = uniform_smooth(4, 0.3, gt_index=2)
    assert out[2] == pytest.approx(0.7)
    assert out.sum() == pytest.approx(1.0)


def test_uniform_validation():
    with pytest.raises(DataError):
        uniform_smooth(1, 0.1)
    with pytest.raises(ConfigError):
        uniform_smooth(5, 1.0)
    with pytest.raises(DataError):
        uniform_smooth(5, 0.1, gt_index=9)
    with pytest.raises(DataError, match=r"flags of shape \(2,\) for n=3"):
        uniform_smooth(3, 0.1, np.array([True, False]))
    with pytest.raises(DataError, match="no ground-truth entry"):
        uniform_smooth(3, 0.1, np.array([[True, False, False], [False, False, False]]))


def test_uniform_several_ground_truth_positions():
    out = uniform_smooth(5, 0.2, gt_index=[3, 1])
    assert out.tolist() == [0.2 / 3, (1 - 0.2) / 2, 0.2 / 3, (1 - 0.2) / 2, 0.2 / 3]
    np.testing.assert_array_equal(uniform_smooth(4, 0.3, gt_index=[2]), uniform_smooth(4, 0.3, gt_index=2))
    with pytest.raises(DataError):
        uniform_smooth(3, 0.1, gt_index=[0, 1, 2])
    with pytest.raises(DataError):
        uniform_smooth(3, 0.1, gt_index=[])


@settings(max_examples=30, deadline=None)
@given(n=st.integers(min_value=2, max_value=12), num=st.integers(min_value=0, max_value=99))
def test_uniform_sums_to_one_rational_check(n, num):
    from fractions import Fraction

    eps = num / 100.0
    out = uniform_smooth(n, eps)
    exact = Fraction(1) - Fraction(num, 100) + (n - 1) * (Fraction(num, 100) / (n - 1))
    assert exact == 1
    assert out.sum() == pytest.approx(1.0, abs=1e-12)


# --- mean_gt_similarity -----------------------------------------------------------------

def test_mean_gt_similarity_single_gt_matches_probe_scores(small_context):
    params = SmoothParams(rnn=RnnParams(k=2, k_exp=1, tau=0.0, lam=0.0, weight_fn="binary"))
    out = mean_gt_similarity(small_context, {"c1"}, params)
    oracle = mixed_scores_oracle(small_context, 2, 0.0, probe=1)
    np.testing.assert_allclose(out, oracle, atol=1e-12)


def test_mean_gt_similarity_averages_probes(small_context):
    params = SmoothParams(rnn=RnnParams(k=2, k_exp=1, tau=0.0, lam=0.3, weight_fn="binary"))
    a = mean_gt_similarity(small_context, {"c1"}, params)
    b = mean_gt_similarity(small_context, {"c2"}, params)
    both = mean_gt_similarity(small_context, {"c1", "c2"}, params)
    np.testing.assert_allclose(both, (a + b) / 2, atol=1e-12)


def test_mean_gt_similarity_requires_resolvable_gt(small_context):
    with pytest.raises(DataError):
        mean_gt_similarity(small_context, {"zz"}, SmoothParams())
    with pytest.raises(DataError):
        mean_gt_similarity(small_context, set(), SmoothParams())


# --- dataset pipeline ---------------------------------------------------------------------

def corpus100():
    return smoothing_corpus(seed=1, n_queries=12, depth=25)


def sparams(**kw):
    base = dict(rnn=RnnParams(k=8, k_exp=2, tau=0.0, lam=0.451), b=1.222, n_max=4, f_n="maxmin")
    base.update(kw)
    return SmoothParams(**base)


def test_smooth_dataset_invariants_hold():
    c = corpus100()
    params = sparams()
    res = smooth_dataset(c.run, c.qrels, c.embeddings, params, n_context=20)
    assert res.skipped == ()
    assert len(res.label_sets) == len(c.run.query_ids)
    for ls in res.label_sets:
        probs = np.array([p for _, p in ls.entries])
        assert abs(probs.sum() - 1.0) <= 1e-9
        assert probs.min() >= 0.0
        assert ls.support <= params.n_max + len(ls.gt_ids)


def test_smooth_dataset_gt_mass_nondecreasing_in_b():
    c = corpus100()
    masses = []
    for b in (1.0, 1.222, 1.525, 2.0):
        res = smooth_dataset(c.run, c.qrels, c.embeddings, sparams(b=b), n_context=20)
        masses.append(res.mean_gt_mass)
    assert all(m2 >= m1 - 1e-12 for m1, m2 in zip(masses, masses[1:]))


def test_smooth_dataset_lambda_one_orders_by_geo_similarity_to_gt():
    c = corpus100()
    params = sparams(rnn=RnnParams(k=8, k_exp=1, tau=0.0, lam=1.0), b=1.0, n_max=25)
    res = smooth_dataset(c.run, c.qrels, c.embeddings, params, n_context=12)
    checked = 0
    for ls in res.label_sets:
        if len(ls.gt_ids) != 1:
            continue
        (gt,) = ls.gt_ids
        gvec = c.embeddings.lookup(gt).astype(np.float64)
        sims = {d: float(c.embeddings.lookup(d).astype(np.float64) @ gvec) for d, _ in ls.entries}
        by_prob = [d for d, _ in ls.entries]
        # probs are a monotone transform of similarity-to-gt (modulo the boost
        # on the gt itself, which is already the most similar doc to itself)
        by_sim = sorted(by_prob, key=lambda d: (-sims[d], d))
        assert by_prob == by_sim
        checked += 1
    assert checked > 0


def test_smooth_dataset_rejects_non_positive_context_size():
    c = corpus100()
    for n_context in (0, -5):
        with pytest.raises(ConfigError, match="n_context"):
            smooth_dataset(c.run, c.qrels, c.embeddings, sparams(), n_context=n_context)


def test_smooth_dataset_skips_and_strict():
    c = corpus100()
    # drop all judgments for the first query
    qids = c.run.query_ids
    stripped = Qrels({qid: dict(c.qrels.grades_for(qid)) for qid in qids[1:]})
    res = smooth_dataset(c.run, stripped, c.embeddings, sparams(), n_context=20)
    assert [qid for qid, _ in res.skipped] == [qids[0]]
    with pytest.raises(DataError):
        smooth_dataset(c.run, stripped, c.embeddings, sparams(), n_context=20, strict=True)


def test_smooth_dataset_skips_alike_in_worker_processes(monkeypatch, caplog):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    c = corpus100()
    qids = c.run.query_ids
    unjudged = (qids[0], qids[7])
    stripped = Qrels({qid: dict(c.qrels.grades_for(qid)) for qid in qids if qid not in unjudged})
    outcomes = []
    for workers in (1, 2):
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            res = smooth_dataset(c.run, stripped, c.embeddings, sparams(), n_context=20, workers=workers)
        outcomes.append((res, [rec.getMessage() for rec in caplog.records]))
    assert [qid for qid, _ in outcomes[0][0].skipped] == list(unjudged)
    assert len(outcomes[0][1]) == 2
    assert outcomes[1] == outcomes[0]


def _labels_one_at_a_time(run, qrels, store, params, n_context, mode="eb", epsilon=0.1):
    """smooth_dataset's label sets computed one query at a time, each scored as a block of one."""
    out = {}
    for qid in run.query_ids:
        try:
            ctx, probes = smoothing._gt_context(qid, run[qid].doc_ids, qrels, store, params, n_context, 1)
            gt = qrels.relevant_docs(qid)
            at, probs = smoothing._label_sets([ctx], [probes], params, mode, epsilon)
            out[qid] = SoftLabelSet._at(qid, ctx.candidate_ids, at[0], probs[0], frozenset(gt))
        except DataError:
            pass
    return out


@pytest.mark.parametrize("budget", [None, 1, 3])
def test_smooth_dataset_blocks_match_one_query_at_a_time(monkeypatch, budget):
    # run lists cut to several depths, with ground truth injected where it
    # fell off: contexts of mixed sizes, one- and two-probe queries (every
    # third query has two judged positives) in the same blocks, an unjudged
    # query skipped in the middle of them, and a query whose context is one
    # vector throughout, so that its r_gt row is constant; every mode and
    # normalization, inline and in two worker processes
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    if budget is not None:
        monkeypatch.setattr(parallel, "block_budget", lambda m: budget)
    c = corpus100()
    qids = c.run.query_ids
    run = RunFile({qid: c.run[qid].truncated(4 + 5 * (i % 3)) for i, qid in enumerate(qids)})
    qrels = Qrels({qid: dict(c.qrels.grades_for(qid)) for qid in qids if qid != qids[4]})
    flat = qids[6]
    one_vector = set(run[flat].doc_ids) | qrels.relevant_docs(flat)
    vectors = c.embeddings.vectors.copy()
    vectors[[i for i, d in enumerate(c.embeddings.keys()) if d in one_vector]] = np.eye(vectors.shape[1])[0]
    store = EmbeddingMatrix(list(c.embeddings.keys()), vectors)
    for f_n in NORMALIZERS:
        params = sparams(rnn=RnnParams(k=6, k_exp=3, tau=0.5, lam=0.451), f_n=f_n)
        context, _ = smoothing._gt_context(flat, run[flat].doc_ids, qrels, store, params, None, 1)
        assert np.ptp(mean_gt_similarity(context, qrels.relevant_docs(flat), params)) == 0.0
        for mode in SMOOTH_MODES:
            expect = _labels_one_at_a_time(run, qrels, store, params, None, mode, epsilon=0.2)
            for workers in (1, 2):
                res = smooth_dataset(run, qrels, store, params, mode=mode, epsilon=0.2, workers=workers)
                assert [qid for qid, _ in res.skipped] == [qids[4]]
                assert {ls.query_id: ls for ls in res.label_sets} == expect
                assert any(len(ls.gt_ids) == 2 for ls in res.label_sets)


@pytest.mark.parametrize("workers", [1, 2])
def test_uniform_mode_runs_no_neighbour_kernel(monkeypatch, workers):
    # uniform labels read no score: with the kernel the smoother calls made to
    # raise, uniform mode still gives the labels it gives with the kernel,
    # inline and in worker processes, while eb reaches the raising kernel
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    c = corpus100()
    expect = smooth_dataset(c.run, c.qrels, c.embeddings, sparams(), n_context=20, mode="uniform", epsilon=0.2)

    def kernel(*args):
        raise AssertionError("neighbour kernel called")

    monkeypatch.setattr(smoothing, "rnn_scores_block", kernel)
    got = smooth_dataset(c.run, c.qrels, c.embeddings, sparams(), n_context=20, mode="uniform", epsilon=0.2,
                         workers=workers)
    assert got == expect and len(got.label_sets) == len(c.run.query_ids)
    with pytest.raises(AssertionError, match="neighbour kernel called"):
        smooth_dataset(c.run, c.qrels, c.embeddings, sparams(), n_context=20, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_uniform_mode_builds_no_context_and_skips_alike(monkeypatch, caplog, workers):
    # one query for each refusal of a context: no query vector, a candidate
    # without a vector, the query among its own candidates, one candidate, no
    # positive judgment, and every candidate ground truth. Uniform mode,
    # with context building made to raise, skips what uniform-matched, which
    # builds every context, skips, with the same reasons and labels elsewhere.
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    c = corpus100()
    qids = c.run.query_ids
    lists = dict(c.run.lists)
    keep = [i for i in c.embeddings.keys() if i != qids[0]]
    store = EmbeddingMatrix(keep, np.vstack([c.embeddings.lookup(i) for i in keep]))
    scored = list(zip(c.run[qids[1]].doc_ids, c.run[qids[1]].scores.tolist()))
    lists[qids[1]] = RankedList.from_scored(qids[1], [*scored, ("nowhere", -9.0)])
    lists[qids[2]] = RankedList.from_scored(qids[2], [(qids[2], 9.0), *scored])
    one, two = (next(q for q in qids[3:] if len(c.qrels.relevant_docs(q)) == n) for n in (1, 2))
    lists[one] = RankedList.from_scored(one, [(d, 1.0) for d in c.qrels.relevant_docs(one)])
    lists[two] = RankedList.from_scored(two, [(d, 1.0) for d in sorted(c.qrels.relevant_docs(two))])
    unjudged = next(q for q in reversed(qids) if q not in (one, two))
    qrels = Qrels({qid: dict(c.qrels.grades_for(qid)) for qid in qids if qid != unjudged})
    run = RunFile(lists)
    expect = smooth_dataset(run, qrels, store, sparams(), mode="uniform-matched", epsilon=0.2, workers=workers)

    def no_context(*args):
        raise AssertionError("context built")

    monkeypatch.setattr(smoothing, "context_from_run", no_context)
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        got = smooth_dataset(run, qrels, store, sparams(), mode="uniform", epsilon=0.2, workers=workers)
    assert got.skipped == expect.skipped
    assert sorted(qid for qid, _ in got.skipped) == sorted([*qids[:3], one, two, unjudged])
    assert len({reason for _, reason in got.skipped}) == 6
    assert [rec.getMessage() for rec in caplog.records] == [f"skipping query {q}: {r}" for q, r in got.skipped]
    labels = {ls.query_id: ls.doc_ids for ls in got.label_sets}
    assert labels == {ls.query_id: ls.doc_ids for ls in expect.label_sets}
    assert got.label_sets == smooth_dataset(run, qrels, store, sparams(), mode="uniform", epsilon=0.2).label_sets


@pytest.mark.parametrize("mode", ["eb", "uniform", "uniform-matched"])
def test_trusted_label_sets_pass_the_validating_constructor(mode):
    c = corpus100()
    res = smooth_dataset(c.run, c.qrels, c.embeddings, sparams(), n_context=20, mode=mode, epsilon=0.2)
    assert res.label_sets
    for ls in res.label_sets:
        again = SoftLabelSet(ls.query_id, ls.entries, ls.gt_ids)
        assert again == ls
        assert all(type(d) is str and type(p) is float for d, p in ls.entries)
        assert isinstance(ls.gt_ids, frozenset)
        assert ls.probs.dtype == np.float64 and not ls.probs.flags.writeable


@pytest.mark.parametrize("workers", [1, 2])
def test_smooth_dataset_strict_raises_the_first_error_in_query_order(monkeypatch, workers):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    monkeypatch.setattr(parallel, "block_budget", lambda m: 3)
    c = corpus100()
    qids = c.run.query_ids
    qrels = Qrels({qid: dict(c.qrels.grades_for(qid)) for qid in qids if qid not in (qids[5], qids[9])})
    with pytest.raises(DataError, match=repr(qids[5])):
        smooth_dataset(c.run, qrels, c.embeddings, sparams(), n_context=20, strict=True, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_uniform_modes_skip_a_query_whose_candidates_are_all_ground_truth(monkeypatch, caplog, workers):
    # a two-positive query's run cut to its two judged docs, among queries
    # whose contexts have the same size, so they share its blocks: the
    # uniform modes refuse it when its context is built, and its block-mates
    # get the labels they get without it
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    c = corpus100()
    qids = c.run.query_ids
    lists = {}
    for qid in qids:
        gt = sorted(c.qrels.relevant_docs(qid))
        other = next(d for d in c.run[qid].doc_ids if d not in gt)
        lists[qid] = RankedList.from_scored(qid, [(gt[0], 2.0), (other, 1.0)])
    all_gt = qids[3]
    gt = sorted(c.qrels.relevant_docs(all_gt))
    assert len(gt) == 2
    lists[all_gt] = RankedList.from_scored(all_gt, [(gt[0], 2.0), (gt[1], 1.0)])
    run = RunFile(lists)
    without = RunFile({qid: rl for qid, rl in lists.items() if qid != all_gt})
    for mode in SMOOTH_MODES:
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            res = smooth_dataset(run, c.qrels, c.embeddings, sparams(), mode=mode, epsilon=0.2, workers=workers)
        alone = smooth_dataset(without, c.qrels, c.embeddings, sparams(), mode=mode, epsilon=0.2, workers=workers)
        assert alone.skipped == ()
        got = {ls.query_id: ls for ls in res.label_sets}
        if mode == "eb":
            assert res.skipped == () and got.pop(all_gt).gt_mass == pytest.approx(1.0)
        else:
            reason = "no non-ground-truth entry to spread mass over"
            assert res.skipped == ((all_gt, reason),)
            assert [rec.getMessage() for rec in caplog.records] == [f"skipping query {all_gt}: {reason}"]
        assert got == {ls.query_id: ls for ls in alone.label_sets}


@pytest.mark.parametrize("workers", [1, 2])
def test_label_sets_reuse_the_run_and_qrels_strings(monkeypatch, workers):
    # a block returns positions into the query's candidates, not strings:
    # every doc id is the run's own str object, and an injected ground-truth
    # id the qrels' own, also when a worker process computed the set
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    c = corpus100()
    res = smooth_dataset(c.run, c.qrels, c.embeddings, sparams(), n_context=3, workers=workers)
    injected = 0
    for ls in res.label_sets:
        top = {d: d for d in c.run[ls.query_id].doc_ids[:3]}
        judged = {d: d for d in c.qrels.grades_for(ls.query_id)}
        assert all(d is (top[d] if d in top else judged[d]) for d in ls.doc_ids)
        injected += len(ls.doc_ids) - len(top)
    assert injected > 0


def test_smooth_dataset_injects_missing_gt():
    c = corpus100()
    params = sparams()
    # context of 3: for queries whose judged doc is deeper in the run, the gt
    # only enters via injection
    res = smooth_dataset(c.run, c.qrels, c.embeddings, params, n_context=3)
    assert res.skipped == ()
    for ls in res.label_sets:
        assert ls.gt_ids <= {d for d, _ in ls.entries}

    res2 = smooth_dataset(c.run, c.qrels, c.embeddings, sparams(inject_missing_gt=False),
                          n_context=3)
    assert res2.skipped != ()


def test_smooth_dataset_uniform_modes():
    c = corpus100()
    params = sparams()
    uni = smooth_dataset(c.run, c.qrels, c.embeddings, params, n_context=20,
                         mode="uniform", epsilon=0.1)
    for ls in uni.label_sets:
        n_gt = len([d for d, _ in ls.entries if d in ls.gt_ids])
        off = [p for d, p in ls.entries if d not in ls.gt_ids]
        assert ls.gt_mass == pytest.approx((1 - 0.1), abs=1e-12) or n_gt > 1
        assert len(set(np.round(off, 15))) == 1  # all off-gt entries equal

    eb = smooth_dataset(c.run, c.qrels, c.embeddings, params, n_context=20, mode="eb")
    matched = smooth_dataset(c.run, c.qrels, c.embeddings, params, n_context=20,
                             mode="uniform-matched")
    eb_by_qid = {ls.query_id: ls for ls in eb.label_sets}
    for ls in matched.label_sets:
        off_eb = 1.0 - eb_by_qid[ls.query_id].gt_mass
        off_uni = 1.0 - ls.gt_mass
        assert off_uni == pytest.approx(off_eb, abs=1e-9)


def test_smooth_dataset_rejects_unknown_mode():
    c = corpus100()
    with pytest.raises(ConfigError):
        smooth_dataset(c.run, c.qrels, c.embeddings, sparams(), mode="laplace")


# --- against the scalar oracle ---------------------------------------------------------------

def _oracle_inputs(seed: int, pool: int | None, n_docs: int = 12, dim: int = 3):
    """Three queries over n_docs docs, each with a run of a random depth and one or two judged docs
    anywhere among the docs, so some lie beyond the run or beyond the context. pool=None draws
    unit vectors; a pool of small integer vectors makes every inner product exact and ties exact."""
    rng = np.random.default_rng(seed)
    if pool is None:
        vecs = unit_vectors(rng, n_docs + 3, dim)
    else:
        vecs = rng.integers(-2, 3, size=(pool, dim)).astype(np.float64)[rng.integers(0, pool, size=n_docs + 3)]
    docs = [f"d{i:02d}" for i in range(n_docs)]
    store = EmbeddingMatrix(docs + ["q0", "q1", "q2"], vecs)
    lists, judged = {}, {}
    for q in ("q0", "q1", "q2"):
        ranked = [docs[i] for i in rng.permutation(n_docs)[:int(rng.integers(1, n_docs + 1))]]
        lists[q] = RankedList.from_scored(q, [(d, float(-i)) for i, d in enumerate(ranked)])
        judged[q] = {docs[i]: 1 for i in rng.choice(n_docs, size=int(rng.integers(1, 3)), replace=False)}
    return RunFile(lists), Qrels(judged), store


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pool=st.one_of(st.none(), st.integers(1, 4)),
       n_context=st.integers(1, 10), k=st.integers(1, 14), k_exp=st.integers(1, 4),
       tau=st.sampled_from([0.0, 0.5, 1.0]), lam=st.floats(0.0, 1.0), weight_fn=st.sampled_from(WEIGHT_FNS),
       b=st.sampled_from([1.0, 1.5, 4.0]), n_max=st.integers(1, 6), f_n=st.sampled_from(NORMALIZERS),
       mode=st.sampled_from(SMOOTH_MODES))
@example(seed=3, pool=1, n_context=10, k=14, k_exp=1, tau=0.0, lam=0.3, weight_fn="binary",
         b=1.5, n_max=2, f_n="stdbased", mode="eb")  # one vector for all: a constant r_gt
# r_gt constant in exact arithmetic but one ulp lower in one entry: near-constant, so all zeros
@example(seed=2, pool=2, n_context=1, k=3, k_exp=1, tau=1.0, lam=0.8324493393993173, weight_fn="binary",
         b=1.0, n_max=3, f_n="stdbased", mode="eb")
@example(seed=396249, pool=2, n_context=2, k=5, k_exp=1, tau=0.0, lam=2**-52, weight_fn="binary",
         b=1.0, n_max=3, f_n="stdbased", mode="eb")
# r_gt 1 and 1 - 2**-53 twice: the two routes' probabilities tie or lie one ulp apart
@example(seed=1, pool=4, n_context=5, k=1, k_exp=1, tau=0.0, lam=1 - 2**-53, weight_fn="binary",
         b=1.0, n_max=5, f_n="maxmin", mode="eb")
def test_smooth_dataset_matches_soft_labels_oracle(seed, pool, n_context, k, k_exp, tau, lam, weight_fn, b,
                                                   n_max, f_n, mode):
    if pool is None:
        # continuous geometry: lam > 0 keeps the geometric term from leaving ties to summation order
        lam = max(lam, 0.05)
    else:
        # integer geometry and 0/1 connectivity: both routes compute the same r_gt bit for bit,
        # so exact ties in r_gt (also at the n_max cut) must resolve alike
        weight_fn, k_exp = "binary", 1
    run, qrels, store = _oracle_inputs(seed, pool)
    params = SmoothParams(rnn=RnnParams(k=k, k_exp=k_exp, tau=tau, lam=lam, weight_fn=weight_fn),
                          b=b, n_max=n_max, f_n=f_n)
    res = smooth_dataset(run, qrels, store, params, n_context=n_context, mode=mode, epsilon=0.2)
    got = {ls.query_id: ls for ls in res.label_sets}
    for qid in run.query_ids:
        gt = qrels.relevant_docs(qid)
        docs = run[qid].doc_ids[:n_context]
        context = context_from_run(qid, docs + sorted(gt - set(docs)), store)
        if context.n_candidates < 2 or (mode != "eb" and set(context.candidate_ids) <= gt):
            assert qid not in got
            continue
        expect = soft_labels_oracle(context, gt, k=k, lam=lam, tau=tau, k_exp=k_exp, weight_fn=weight_fn,
                                    b=b, n_max=n_max, f_n=f_n, mode=mode, epsilon=0.2)
        entries = got[qid].entries
        assert len(entries) == len(expect)
        # the routes sum the softmax normalizer in different orders, so probabilities a few ulps
        # apart may tie in one and not the other: the order is exact except within runs of oracle
        # probabilities each within 4 ulps of the next, where only the doc set must match
        probs = [q for _, q in expect]
        cuts = [0, *(i for i in range(1, len(probs)) if probs[i - 1] - probs[i] > 4 * math.ulp(probs[i - 1])),
                len(probs)]
        for a, z in pairwise(cuts):
            assert {d for d, _ in entries[a:z]} == {d for d, _ in expect[a:z]}
        assert [p > 0 for _, p in entries] == [p > 0 for _, p in expect]
        assert max(abs(p - q) for (_, p), (_, q) in zip(entries, expect)) <= 1e-9
        assert got[qid].gt_ids == gt
    assert len(got) + len(res.skipped) == len(run.query_ids)


# --- file I/O ---------------------------------------------------------------------------------

def test_soft_label_round_trip(tmp_path):
    c = corpus100()
    res = smooth_dataset(c.run, c.qrels, c.embeddings, sparams(), n_context=20)
    p = tmp_path / "labels.jsonl"
    write_soft_labels(res.label_sets, p, header="demo v0 config=fff")
    back = read_soft_labels(p)
    assert [ls.query_id for ls in back] == sorted(ls.query_id for ls in res.label_sets)
    by_qid = {ls.query_id: ls for ls in res.label_sets}
    for ls in back:
        orig = by_qid[ls.query_id]
        kept = tuple((d, p_) for d, p_ in orig.entries if p_ >= 1e-12)
        assert ls.entries == kept
        assert ls.gt_ids == orig.gt_ids
    # deterministic bytes
    p2 = tmp_path / "labels2.jsonl"
    write_soft_labels(res.label_sets, p2, header="demo v0 config=fff")
    assert p.read_bytes() == p2.read_bytes()


def test_write_soft_labels_streams_the_bytes_of_the_joined_file(tmp_path):
    rng = np.random.default_rng(17)
    sets = []
    for i in range(2000):
        probs = np.append(np.sort(rng.dirichlet(np.ones(39)))[::-1], 0.0)  # the last under the 1e-12 floor
        sets.append(SoftLabelSet(f"q{i:04d}", list(zip([f"d{i}-{j:02d}" for j in range(40)], probs)),
                                 [f"d{i}-00", f"d{i}-03"][: 1 + i % 2]))
    sets.reverse()
    p = tmp_path / "labels.jsonl"
    tracemalloc.start()
    try:
        write_soft_labels(sets, p, header="demo v0 config=fff")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * p.stat().st_size
    # the whole file as one string, as the writer once built it
    lines = ["# demo v0 config=fff"] + [
        json.dumps({"qid": ls.query_id, "gt": sorted(ls.gt_ids),
                    "labels": [[d, p_] for d, p_ in ls.entries if p_ >= 1e-12]}, separators=(",", ":"))
        for ls in sorted(sets, key=lambda ls: ls.query_id)]
    assert p.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")


def test_read_soft_labels_rejects_nan_with_line(tmp_path):
    p = tmp_path / "nan.jsonl"
    p.write_text('{"qid":"q","gt":["b"],"labels":[["b",1.0]]}\n'
                 '{"qid":"r","gt":["b"],"labels":[["b",1.0],["a",NaN]]}\n')
    with pytest.raises(DataError, match=r"nan\.jsonl:2: .*non-finite"):
        read_soft_labels(p)


def test_read_soft_labels_error_carries_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"qid":"q1","gt":["a"],"labels":[["a",1.0]]}\nnot json\n')
    with pytest.raises(DataError, match=r"bad\.jsonl:2"):
        read_soft_labels(p)
