import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recipnn.errors import ConfigError, DataError
from recipnn.ir_eval import (
    Qrels,
    RunFile,
    evaluate_metric,
    map_at_k,
    mrr_at_k,
    ndcg_at_k,
    parse_qrels,
    parse_run,
    recall_at_k,
    write_qrels,
    write_run,
)
from recipnn.rerank import RankedList

import reference_metrics as ref


def make_run(lists: dict[str, list[str]], start=1.0, step=0.5) -> RunFile:
    out = {}
    for qid, docs in lists.items():
        scored = [(d, start - i * step) for i, d in enumerate(docs)]
        out[qid] = RankedList.from_scored(qid, scored)
    return RunFile(out)


# --- containers -----------------------------------------------------------------

def test_qrels_validation_and_lookup():
    q = Qrels({"q1": {"d1": 2, "d2": 0}})
    assert q.query_ids == ["q1"]
    assert q.relevant_docs("q1") == {"d1"}
    assert q.relevant_docs("q1", rel_threshold=3) == set()
    assert q.grades_for("missing") == {}
    with pytest.raises(DataError):
        Qrels({"q1": {"d1": -1}})
    with pytest.raises(DataError):
        Qrels({"q1": {"d1": 1.5}})


def test_runfile_key_consistency():
    rl = RankedList.from_scored("q1", [("d1", 1.0)])
    with pytest.raises(DataError):
        RunFile({"q2": rl})
    run = RunFile({"q1": rl})
    assert "q1" in run and len(run) == 1
    with pytest.raises(DataError):
        run["q9"]


# --- parsing / serialization -------------------------------------------------------

def test_parse_qrels_basic(tmp_path):
    p = tmp_path / "qrels.txt"
    p.write_text("# comment\nq1 0 d7 2\n\nq1 0 d8 0\nq2 0 d1 1\n")
    q = parse_qrels(p)
    assert q.grades_for("q1") == {"d7": 2, "d8": 0}
    assert q.grades_for("q2") == {"d1": 1}


@pytest.mark.parametrize(
    "line,err",
    [
        ("q1 0 d7", "4 fields"),
        ("q1 0 d7 x", "not an integer"),
        ("q1 0 d7 -1", "negative"),
        ("q1 0 d7 1\nq1 0 d7 2", "duplicate"),
    ],
)
def test_parse_qrels_errors_carry_line_numbers(tmp_path, line, err):
    p = tmp_path / "qrels.txt"
    p.write_text(line + "\n")
    with pytest.raises(DataError, match=err) as exc:
        parse_qrels(p)
    assert "qrels.txt:" in str(exc.value)


def test_parse_run_basic(tmp_path):
    p = tmp_path / "run.txt"
    p.write_text("q1 Q0 d7 1 3.25 tag\nq1 Q0 d9 2 1.5 tag\n")
    run = parse_run(p)
    assert run["q1"].entries == (("d7", 3.25, 1), ("d9", 1.5, 2))


def test_parse_run_orders_by_score_not_rank_column(tmp_path):
    p = tmp_path / "run.txt"
    p.write_text("q1 Q0 low 1 1.0 t\nq1 Q0 high 2 2.0 t\nq1 Q0 tie 3 1.0 t\n")
    run = parse_run(p)
    # score wins; the two tied docs keep file order
    assert run["q1"].doc_ids == ["high", "low", "tie"]


@pytest.mark.parametrize(
    "line,err",
    [
        ("q1 Q0 d7 1 3.25", "6 fields"),
        ("q1 Q0 d7 one 3.25 t", "not an integer"),
        ("q1 Q0 d7 1 abc t", "not a number"),
        ("q1 Q0 d7 1 inf t", "non-finite"),
        ("q1 Q0 d7 1 1.0 t\nq1 Q0 d7 2 0.5 t", "duplicate"),
    ],
)
def test_parse_run_errors_carry_line_numbers(tmp_path, line, err):
    p = tmp_path / "run.txt"
    p.write_text(line + "\n")
    with pytest.raises(DataError, match=err) as exc:
        parse_run(p)
    assert "run.txt:" in str(exc.value)


def test_run_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    lists = {}
    for qi in range(10):
        docs = [f"d{qi}_{j}" for j in range(10)]
        scores = sorted(rng.normal(size=10).tolist(), reverse=True)
        lists[f"q{qi}"] = RankedList.from_scored(f"q{qi}", list(zip(docs, scores)))
    run = RunFile(lists)
    p = tmp_path / "run.txt"
    write_run(run, p, header="demo v0 config=abc")
    back = parse_run(p)
    assert back.query_ids == run.query_ids
    for qid in run.query_ids:
        assert back[qid].entries == run[qid].entries  # scores repr() round-trip exactly
    # and writing again is byte-identical
    p2 = tmp_path / "run2.txt"
    write_run(back, p2, header="demo v0 config=abc")
    assert p.read_bytes() == p2.read_bytes()


def test_qrels_round_trip(tmp_path):
    q = Qrels({"q2": {"d1": 1}, "q1": {"d9": 3, "d2": 0}})
    p = tmp_path / "qrels.txt"
    write_qrels(q, p)
    assert parse_qrels(p).judgments == q.judgments


def test_qrels_header_is_a_comment_line(tmp_path):
    q = Qrels({"q1": {"d1": 1}})
    p = tmp_path / "qrels.txt"
    write_qrels(q, p, header="h")
    assert p.read_text(encoding="utf-8") == "# h\nq1 0 d1 1\n"
    assert parse_qrels(p).judgments == q.judgments


# --- hand-value metric cases ----------------------------------------------------

def test_mrr_hand_cases():
    run = make_run({"q1": ["a", "b", "c", "d"]})
    assert mrr_at_k(run, Qrels({"q1": {"c": 1}}), k=10) == pytest.approx(1 / 3)
    assert mrr_at_k(run, Qrels({"q1": {"d": 1}}), k=3) == 0.0
    two = make_run({"q1": ["a"], "q2": ["x", "y"]})
    qr = Qrels({"q1": {"a": 1}, "q2": {"y": 1}})
    assert mrr_at_k(two, qr, k=10) == pytest.approx(0.75)


def test_ndcg_hand_cases():
    run = make_run({"q1": ["a", "b"]})
    assert ndcg_at_k(run, Qrels({"q1": {"a": 1}}), k=10) == 1.0
    v = ndcg_at_k(run, Qrels({"q1": {"b": 1}}), k=10)
    assert v == pytest.approx(1.0 / math.log2(3), abs=1e-12)
    assert round(v, 4) == 0.6309
    assert ndcg_at_k(run, Qrels({"q1": {"a": 2, "b": 1}}), k=10) == 1.0


def test_ndcg_zero_grades_contribute_zero():
    run = make_run({"q1": ["a"], "q2": ["x"]})
    qr = Qrels({"q1": {"a": 1}, "q2": {"x": 0}})
    assert ndcg_at_k(run, qr, k=10) == pytest.approx(0.5)


def test_recall_hand_cases():
    run = make_run({"q1": [f"d{i}" for i in range(12)]})
    qr = Qrels({"q1": {"d0": 1, "d5": 1}})
    assert recall_at_k(run, qr, k=10) == 1.0
    qr4 = Qrels({"q1": {"d0": 1, "d5": 1, "dx": 1, "dy": 1}})
    assert recall_at_k(run, qr4, k=10) == 0.5
    with pytest.raises(DataError):
        recall_at_k(run, qr, k=0)


def test_map_hand_cases():
    run = make_run({"q1": ["a", "b", "c"]})
    assert map_at_k(run, Qrels({"q1": {"a": 1}}), k=10) == 1.0
    v = map_at_k(run, Qrels({"q1": {"a": 1, "c": 1}}), k=10)
    assert v == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-12)
    assert round(v, 4) == 0.8333
    assert map_at_k(run, Qrels({"q1": {"z": 1}}), k=10) == 0.0


def test_metrics_require_query_overlap():
    run = make_run({"q1": ["a"]})
    with pytest.raises(DataError):
        mrr_at_k(run, Qrels({"q9": {"a": 1}}), k=10)


def test_mrr_ignores_shuffles_below_first_relevant():
    qr = Qrels({"q1": {"b": 1}})
    runs = [make_run({"q1": ["a", "b", "c", "d"]}), make_run({"q1": ["a", "b", "d", "c"]})]
    assert mrr_at_k(runs[0], qr, k=10) == mrr_at_k(runs[1], qr, k=10)


# --- metric dispatch ----------------------------------------------------------------

def test_evaluate_metric_dispatch():
    run = make_run({"q1": ["a", "b"]})
    qr = Qrels({"q1": {"b": 1}})
    assert evaluate_metric("mrr@10", run, qr) == mrr_at_k(run, qr, k=10)
    assert evaluate_metric("NDCG@5", run, qr) == ndcg_at_k(run, qr, k=5)
    for bad in ("mrr", "mrr@", "mrr@x", "bleu@4"):
        with pytest.raises(ConfigError):
            evaluate_metric(bad, run, qr)


# --- randomized equivalence with the naive reference ---------------------------------

def random_pair(rng):
    n_q = int(rng.integers(1, 6))
    lists, judgments = {}, {}
    for qi in range(n_q):
        qid = f"q{qi}"
        n_d = int(rng.integers(1, 15))
        docs = [f"d{j}" for j in range(n_d)]
        scores = np.sort(rng.normal(size=n_d))[::-1]
        lists[qid] = RankedList.from_scored(qid, list(zip(docs, scores.tolist())))
        judged = rng.choice(n_d, size=min(n_d, int(rng.integers(1, 8))), replace=False)
        judgments[qid] = {f"d{j}": int(rng.integers(0, 4)) for j in judged}
    return RunFile(lists), Qrels(judgments)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1), k=st.integers(min_value=1, max_value=12))
def test_metrics_match_reference(seed, k):
    rng = np.random.default_rng(seed)
    run, qrels = random_pair(rng)
    run_plain = {qid: run[qid].doc_ids for qid in run.query_ids}
    impls = {"mrr": mrr_at_k, "ndcg": ndcg_at_k, "recall": recall_at_k, "map": map_at_k}
    for name, fn in impls.items():
        try:
            expect = ref.reference_metric(name, run_plain, qrels.judgments, k)
        except ValueError:
            continue
        if name == "ndcg":
            got = fn(run, qrels, k)
        else:
            got = fn(run, qrels, k, 1)
        assert got == pytest.approx(expect, abs=1e-9), name
