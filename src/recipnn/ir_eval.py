"""TREC-style evaluation: qrels/run file I/O and ranking metrics.

Metric conventions follow the standard TREC evaluation tool: queries are
averaged over the intersection of run and qrels query ids; nDCG uses linear
gain grade/log2(rank+1) with the ideal from all judged grades; queries whose
judged grades are all zero (or that have no relevant document at the chosen
threshold) contribute 0. Lines starting with '#' are treated as comments in
both file formats, so files written by this package round-trip.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError


@dataclass(frozen=True)
class Qrels:
    """Relevance judgments: query id -> {doc id -> integer grade >= 0}."""

    judgments: dict[str, dict[str, int]]

    def __post_init__(self) -> None:
        for qid, docs in self.judgments.items():
            for did, grade in docs.items():
                if not isinstance(grade, int) or grade < 0:
                    raise DataError(f"grade for ({qid!r}, {did!r}) must be a nonnegative integer, got {grade!r}")

    @property
    def query_ids(self) -> list[str]:
        return sorted(self.judgments)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self.judgments

    def grades_for(self, query_id: str) -> Mapping[str, int]:
        return self.judgments.get(query_id, {})

    def relevant_docs(self, query_id: str, rel_threshold: int = 1) -> set[str]:
        return {d for d, g in self.grades_for(query_id).items() if g >= rel_threshold}


@dataclass(frozen=True)
class RankedList:
    """One query's ordered result list: (doc_id, score, 1-based rank) triples."""

    query_id: str
    entries: tuple[tuple[str, float, int], ...]

    def __post_init__(self) -> None:
        # column-wise coercion: every entry must be a (doc_id, score, rank) triple
        ids, scores, ranks = zip(*self.entries, strict=True) if self.entries else ((), (), ())
        ids, scores, ranks = tuple(map(str, ids)), tuple(map(float, scores)), tuple(map(int, ranks))
        object.__setattr__(self, "entries", tuple(zip(ids, scores, ranks)))
        if ranks != tuple(range(1, len(ranks) + 1)):
            pos, rank = next((p, r) for p, r in enumerate(ranks, start=1) if r != p)
            raise DataError(f"query {self.query_id!r}: rank {rank} at position {pos}; ranks must run 1..n")
        if any(map(operator.lt, scores, scores[1:])):
            raise DataError(f"query {self.query_id!r}: scores increase down the list")
        if len(set(ids)) != len(ids):
            raise DataError(f"query {self.query_id!r}: duplicate doc ids")

    @classmethod
    def from_scored(cls, query_id: str, scored: Sequence[tuple[str, float]]) -> "RankedList":
        """Build from an already-sorted (doc_id, score) sequence."""
        ids, scores = zip(*scored, strict=True) if scored else ((), ())
        return cls(query_id, tuple(zip(ids, scores, range(1, len(ids) + 1))))

    @property
    def doc_ids(self) -> list[str]:
        return [d for d, _, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def truncated(self, depth: int) -> "RankedList":
        return RankedList(self.query_id, self.entries[:depth])


@dataclass(frozen=True)
class RunFile:
    """A collection of per-query RankedLists, keyed by query id."""

    lists: dict[str, RankedList]

    def __post_init__(self) -> None:
        for qid, rl in self.lists.items():
            if rl.query_id != qid:
                raise DataError(f"run entry keyed {qid!r} holds list for query {rl.query_id!r}")

    @property
    def query_ids(self) -> list[str]:
        return sorted(self.lists)

    def __getitem__(self, query_id: str) -> RankedList:
        try:
            return self.lists[query_id]
        except KeyError:
            raise DataError(f"query {query_id!r} not in run") from None

    def __contains__(self, query_id: str) -> bool:
        return query_id in self.lists

    def __len__(self) -> int:
        return len(self.lists)


def _data_lines(path) -> Iterable[tuple[int, list[str]]]:
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield lineno, stripped.split()


def parse_qrels(path) -> Qrels:
    """Read `<qid> <iter> <docid> <grade>` lines; the iter column is ignored."""
    judgments: dict[str, dict[str, int]] = {}
    for lineno, fields in _data_lines(path):
        if len(fields) != 4:
            raise DataError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
        qid, _, did, grade_s = fields
        try:
            grade = int(grade_s)
        except ValueError:
            raise DataError(f"{path}:{lineno}: grade {grade_s!r} is not an integer") from None
        if grade < 0:
            raise DataError(f"{path}:{lineno}: negative grade {grade}")
        docs = judgments.setdefault(qid, {})
        if did in docs:
            raise DataError(f"{path}:{lineno}: duplicate judgment for ({qid!r}, {did!r})")
        docs[did] = grade
    return Qrels(judgments)


def parse_run(path) -> RunFile:
    """Read `<qid> Q0 <docid> <rank> <score> <tag>` lines.

    Ordering is taken from the scores (descending; ties keep file order), not
    from the rank column, so files with a stale rank column still load. The
    rank column is validated as an integer only.
    """
    rows: dict[str, list[tuple[str, float]]] = {}
    seen: dict[str, set[str]] = {}
    for lineno, fields in _data_lines(path):
        if len(fields) != 6:
            raise DataError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
        qid, _, did, rank_s, score_s, _ = fields
        try:
            int(rank_s)
        except ValueError:
            raise DataError(f"{path}:{lineno}: rank {rank_s!r} is not an integer") from None
        try:
            score = float(score_s)
        except ValueError:
            raise DataError(f"{path}:{lineno}: score {score_s!r} is not a number") from None
        if not math.isfinite(score):
            raise DataError(f"{path}:{lineno}: non-finite score {score_s!r}")
        if did in seen.setdefault(qid, set()):
            raise DataError(f"{path}:{lineno}: duplicate doc {did!r} for query {qid!r}")
        seen[qid].add(did)
        rows.setdefault(qid, []).append((did, score))
    lists = {}
    for qid, entries in rows.items():
        entries = sorted(entries, key=lambda e: -e[1])  # stable: ties keep file order
        lists[qid] = RankedList.from_scored(qid, entries)
    return RunFile(lists)


def write_run(run: RunFile, path, tag: str = "recipnn", header: str | None = None) -> None:
    """Write rank-consistent, score-sorted TREC run lines, queries in id order."""
    lines = []
    if header:
        lines.append(f"# {header}")
    for qid in run.query_ids:
        for did, score, rank in run[qid]:
            lines.append(f"{qid} Q0 {did} {rank} {score!r} {tag}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def write_qrels(qrels: Qrels, path, header: str | None = None) -> None:
    lines = []
    if header:
        lines.append(f"# {header}")
    for qid in qrels.query_ids:
        for did in sorted(qrels.grades_for(qid)):
            lines.append(f"{qid} 0 {did} {qrels.grades_for(qid)[did]}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


# ---------------------------------------------------------------------------
# metrics

def _check_k(k: int) -> int:
    k = int(k)
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    return k


def _evaluated_queries(run: RunFile, qrels: Qrels) -> list[str]:
    shared = [qid for qid in run.query_ids if qid in qrels]
    if not shared:
        raise DataError("run and qrels share no query ids")
    return shared


def mrr_at_k(run: RunFile, qrels: Qrels, k: int = 10, rel_threshold: int = 1) -> float:
    """Mean over queries of 1/rank of the first relevant doc in the top k."""
    k = _check_k(k)
    total = 0.0
    queries = _evaluated_queries(run, qrels)
    for qid in queries:
        grades = qrels.grades_for(qid)
        for did, _, rank in run[qid].entries[:k]:
            if grades.get(did, 0) >= rel_threshold:
                total += 1.0 / rank
                break
    return total / len(queries)


def ndcg_at_k(run: RunFile, qrels: Qrels, k: int = 10) -> float:
    """Linear-gain nDCG: DCG@k = sum grade_i/log2(i+1), ideal from all judged grades."""
    k = _check_k(k)
    total = 0.0
    queries = _evaluated_queries(run, qrels)
    for qid in queries:
        grades = qrels.grades_for(qid)
        dcg = sum(grades.get(did, 0) / math.log2(rank + 1)
                  for did, _, rank in run[qid].entries[:k])
        ideal = sorted(grades.values(), reverse=True)[:k]
        idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal))
        if idcg > 0:
            total += dcg / idcg
    return total / len(queries)


def recall_at_k(run: RunFile, qrels: Qrels, k: int = 10, rel_threshold: int = 1) -> float:
    """Mean over queries of |relevant in top k| / |relevant|."""
    k = _check_k(k)
    total = 0.0
    queries = _evaluated_queries(run, qrels)
    for qid in queries:
        relevant = qrels.relevant_docs(qid, rel_threshold)
        if not relevant:
            continue
        hit = sum(1 for did, _, _ in run[qid].entries[:k] if did in relevant)
        total += hit / len(relevant)
    return total / len(queries)


def map_at_k(run: RunFile, qrels: Qrels, k: int = 10, rel_threshold: int = 1) -> float:
    """Mean average precision: sum of precision@i at relevant hits, over |relevant|."""
    k = _check_k(k)
    total = 0.0
    queries = _evaluated_queries(run, qrels)
    for qid in queries:
        relevant = qrels.relevant_docs(qid, rel_threshold)
        if not relevant:
            continue
        hits = 0
        precision_sum = 0.0
        for did, _, rank in run[qid].entries[:k]:
            if did in relevant:
                hits += 1
                precision_sum += hits / rank
        total += precision_sum / len(relevant)
    return total / len(queries)


def kl_divergence(target, predicted) -> float:
    """KL(target || predicted) in nats; both inputs must sum to 1 within 1e-6.

    Terms with target 0 contribute nothing; a zero predicted probability
    under positive target mass yields +inf.
    """
    t = np.asarray(target, dtype=np.float64)
    p = np.asarray(predicted, dtype=np.float64)
    if t.shape != p.shape or t.ndim != 1:
        raise DataError(f"distributions must be aligned 1-D vectors, got {t.shape} vs {p.shape}")
    if t.size == 0:
        raise DataError("empty distributions")
    if t.min() < 0 or p.min() < 0:
        raise DataError("probabilities must be nonnegative")
    for name, vec in (("target", t), ("predicted", p)):
        if abs(vec.sum() - 1.0) > 1e-6:
            raise DataError(f"{name} distribution sums to {vec.sum()!r}, not 1")
    active = t > 0
    if np.any(active & (p == 0)):
        return float("inf")
    terms = t[active] * np.log(t[active] / p[active])
    return float(terms.sum())


_METRICS = {
    "mrr": mrr_at_k,
    "ndcg": ndcg_at_k,
    "recall": recall_at_k,
    "map": map_at_k,
}


def evaluate_metric(metric_id: str, run: RunFile, qrels: Qrels, rel_threshold: int = 1) -> float:
    """Dispatch a `name@k` metric id, e.g. mrr@10, ndcg@20, recall@100, map@10."""
    parts = metric_id.strip().lower().split("@")
    if len(parts) != 2 or parts[0] not in _METRICS:
        raise ConfigError(f"unknown metric id {metric_id!r}; use one of "
                          + ", ".join(f"{m}@k" for m in _METRICS))
    try:
        k = int(parts[1])
    except ValueError:
        raise ConfigError(f"metric id {metric_id!r} has non-integer cutoff") from None
    if parts[0] == "ndcg":
        return ndcg_at_k(run, qrels, k)
    return _METRICS[parts[0]](run, qrels, k, rel_threshold)
