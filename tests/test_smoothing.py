import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipnn import parallel
from recipnn.errors import ConfigError, DataError
from recipnn.ir_eval import Qrels
from recipnn.neighbors import RnnParams
from recipnn.oracle import mixed_scores_oracle
from recipnn.smoothing import (
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
from recipnn.synthetic import smoothing_corpus


# --- params / containers -------------------------------------------------------

def test_smooth_params_validation():
    SmoothParams(b=1.0, n_max=1)
    for kwargs in (dict(b=0.9), dict(n_max=0), dict(f_n="zscore")):
        with pytest.raises(ConfigError):
            SmoothParams(**kwargs)


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
    for f_n in ("maxmin", "stdbased"):
        with pytest.warns(RuntimeWarning):
            out = normalize_scores([3.0, 3.0, 3.0], f_n)
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
