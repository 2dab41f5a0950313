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
from collections import deque
from dataclasses import dataclass
from itertools import chain, compress, pairwise
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, check_positive
from .textfile import data_lines


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


class _Columns:
    """One query's doc ids and a float64 value per id, held as two columns: a
    tuple of str and a read-only array. Immutable. A subclass checks its
    columns, derives its views from them and may hold more `_FIELDS`."""

    __slots__ = ("query_id", "_ids", "_values")
    _FIELDS = __slots__

    def _hold(self, *fields) -> None:
        fields[2].setflags(write=False)
        for name, value in zip(self._FIELDS, fields, strict=True):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, *fields):
        """Wrap fields the caller guarantees to pass the subclass's checks. No check, no copy."""
        held = cls.__new__(cls)
        held._hold(*fields)
        return held

    @classmethod
    def _at(cls, query_id: str, pool: Sequence[str], at: np.ndarray, values: np.ndarray, *more):
        """`_of` with the ids pool[at]: the str objects of `pool` itself."""
        return cls._of(query_id, tuple([pool[i] for i in at.tolist()]), values, *more)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through _of: restoring the slots one by one
        # would go through __setattr__, and _of makes the values read-only
        return type(self)._of, tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return np.array_equal(self._values, other._values) and \
            all(getattr(self, name) == getattr(other, name) for name in self._FIELDS if name != "_values")

    def __repr__(self) -> str:
        more = "".join(f", {name}={getattr(self, name)!r}" for name in self._FIELDS[3:])
        return f"{type(self).__name__}(query_id={self.query_id!r}, entries={self.entries!r}{more})"


class RankedList(_Columns):
    """One query's ordered result list: doc ids and float64 scores, best first.

    `doc_ids` and `scores` are the columns it holds; `entries`, the
    (doc_id, score, 1-based rank) triples, is built from them on demand.
    Immutable: `scores` is a read-only array.
    """

    __slots__ = ()

    def __init__(self, query_id: str, entries: Iterable[Sequence]) -> None:
        entries = tuple(entries)
        # column-wise coercion: every entry must be a (doc_id, score, rank) triple
        ids, scores, ranks = zip(*entries, strict=True) if entries else ((), (), ())
        ids, scores, ranks = tuple(map(str, ids)), tuple(map(float, scores)), tuple(map(int, ranks))
        if ranks != tuple(range(1, len(ranks) + 1)):
            pos, rank = next((p, r) for p, r in enumerate(ranks, start=1) if r != p)
            raise DataError(f"query {query_id!r}: rank {rank} at position {pos}; ranks must run 1..n")
        if any(map(operator.lt, scores, scores[1:])):
            raise DataError(f"query {query_id!r}: scores increase down the list")
        if len(set(ids)) != len(ids):
            raise DataError(f"query {query_id!r}: duplicate doc ids")
        self._hold(query_id, ids, np.array(scores, dtype=np.float64))

    @classmethod
    def from_scored(cls, query_id: str, scored: Sequence[tuple[str, float]]) -> "RankedList":
        """Build from an already-sorted (doc_id, score) sequence."""
        ids, scores = zip(*scored, strict=True) if scored else ((), ())
        return cls(query_id, tuple(zip(ids, scores, range(1, len(ids) + 1))))

    @property
    def doc_ids(self) -> list[str]:
        return list(self._ids)

    @property
    def scores(self) -> np.ndarray:
        return self._values

    @property
    def entries(self) -> tuple[tuple[str, float, int], ...]:
        return tuple(zip(self._ids, self._values.tolist(), range(1, len(self._ids) + 1)))

    def __len__(self) -> int:
        return len(self._ids)

    def truncated(self, depth: int) -> "RankedList":
        return RankedList._of(self.query_id, self._ids[:depth], self._values[:depth])


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


def parse_qrels(path) -> Qrels:
    """Read `<qid> <iter> <docid> <grade>` lines; the iter column is ignored."""
    judgments: dict[str, dict[str, int]] = {}
    for lineno, line in data_lines(path):
        fields = line.split()
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


# bytes read at a time; each chunk is cut after its last line end. Its
# temporaries, the UTF-32 text and int64 marks (12 bytes per byte read) and
# the tokens, stay near 1 MB at this size
_READ_BYTES = 1 << 16
# per code point: 0 inside a field, 1 whitespace as str.split() sees it,
# 2 line feed; no code point above U+3000 is whitespace, so larger ones are
# clipped to the last entry, which is 0
_MARKS = np.array([2 if c == 10 else chr(c).isspace() for c in range(0x3002)], dtype=np.uint8)


class _BadLine(Exception):
    """A column check failed; the line walk finds which line and why."""


def _line_chunks(fh) -> Iterable[bytes]:
    tail = b""
    while block := fh.read(_READ_BYTES):
        block = tail + block
        # a \r\n cut in two reads as one more blank line, which is skipped
        cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
        if cut:
            yield block[:cut]
        tail = block[cut:]
    if tail:
        yield tail


def _run_blocks(chunk: bytes, shared: dict[str, str]) -> list[tuple[str, list[str], np.ndarray]]:
    """A chunk of whole run lines as (qid, doc ids, scores) blocks of
    consecutive lines of one query, in file order. Each doc id is the one
    `shared` str object for its value: the first occurrence, added when new.
    Raises _BadLine when a line breaks a rule or a byte is not UTF-8."""
    if b"\r" in chunk:  # universal newlines, as text mode reads them
        chunk = chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = chunk.decode("utf-8")
    except UnicodeDecodeError:
        raise _BadLine from None
    tokens = text.split()
    points = np.frombuffer(text.encode("utf-32-le"), dtype="<u4")
    marks = _MARKS.take(points, mode="clip")
    space = marks != 0
    starts = np.empty_like(space)  # a field starts at a non-space after a space
    starts[0] = not space[0]
    np.greater(space[:-1], space[1:], out=starts[1:])
    line_ends = np.append(np.flatnonzero(marks == 2), marks.size)
    ends = np.searchsorted(np.flatnonzero(starts), line_ends)  # fields before each line's end
    counts = np.diff(ends, prepend=0)
    data = counts > 0
    if b"#" in chunk:  # comment lines: the first field starts with '#'
        data[data] = [not tokens[i].startswith("#") for i in (ends - counts)[data].tolist()]
        if not data.all():
            tokens = list(compress(tokens, np.repeat(data, counts).tolist()))
    if not (counts[data] == 6).all():
        raise _BadLine
    qids, dids = tokens[0::6], tokens[2::6]
    dids = list(map(shared.setdefault, dids, dids))
    try:
        deque(map(int, tokens[3::6]), maxlen=0)
        scores = np.fromiter(map(float, tokens[4::6]), dtype=np.float64, count=len(qids))
    except ValueError:
        raise _BadLine from None
    if not np.isfinite(scores).all():
        raise _BadLine
    if not qids:
        return []
    cuts = [0, *compress(range(1, len(qids)), map(operator.ne, qids[1:], qids)), len(qids)]
    return [(qids[a], dids[a:b], scores[a:b]) for a, b in pairwise(cuts)]


def _first_bad_line(path) -> DataError:
    """The error for the first line of a run file that breaks a rule, walking
    the lines one by one; called only once a column check has failed."""
    seen: set[tuple[str, str]] = set()
    for lineno, line in data_lines(path):
        fields = line.split()
        if len(fields) != 6:
            return DataError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
        qid, _, did, rank_s, score_s, _ = fields
        try:
            int(rank_s)
        except ValueError:
            return DataError(f"{path}:{lineno}: rank {rank_s!r} is not an integer")
        try:
            score = float(score_s)
        except ValueError:
            return DataError(f"{path}:{lineno}: score {score_s!r} is not a number")
        if not math.isfinite(score):
            return DataError(f"{path}:{lineno}: non-finite score {score_s!r}")
        if (qid, did) in seen:
            return DataError(f"{path}:{lineno}: duplicate doc {did!r} for query {qid!r}")
        seen.add((qid, did))
    raise AssertionError(f"{path}: a column check failed but no line breaks a rule")


def parse_run(path, known_ids: Iterable[str] = ()) -> RunFile:
    """Read `<qid> Q0 <docid> <rank> <score> <tag>` lines.

    Fields are separated by any whitespace; blank lines and lines starting
    with '#' are skipped. Ordering is taken from the scores (descending;
    ties keep file order), not from the rank column, so files with a stale
    rank column still load. The rank column is validated as an integer only.
    The file is read in chunks, and each check runs on whole columns; only
    when one fails are the lines walked to report the first bad one. Equal
    doc ids share one str object across the file, whatever their query.
    A doc id equal to one of `known_ids` (say, the ids of an embedding
    store already loaded) is that str object, so the run holds no copy of it.
    """
    blocks: dict[str, list[tuple[list[str], np.ndarray]]] = {}
    # one str per distinct doc id, shared by every query naming it
    shared: dict[str, str] = {did: did for did in known_ids}
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        try:
            for chunk in _line_chunks(fh):
                for qid, dids, scores in _run_blocks(chunk, shared):
                    blocks.setdefault(qid, []).append((dids, scores))
        except _BadLine:
            raise _first_bad_line(path) from None
    lists = {}
    for qid, parts in blocks.items():
        dids, scores = parts[0] if len(parts) == 1 else \
            (list(chain.from_iterable(d for d, _ in parts)), np.concatenate([s for _, s in parts]))
        if len(set(dids)) != len(dids):
            raise _first_bad_line(path)
        order = np.argsort(-scores, kind="stable")  # stable: ties keep file order
        lists[qid] = RankedList._at(qid, dids, order, scores[order])
    return RunFile(lists)


def _one_field_each(values: Sequence[str]) -> bool:
    """Whether each value reads back as one field of a whitespace-split line:
    nonempty and free of whitespace. One join and one split for the column."""
    return " ".join(values).split() == list(values)


def check_tag(tag: str) -> None:
    """A run tag is one nonempty field of a run line: no whitespace."""
    if not isinstance(tag, str) or not _one_field_each([tag]):
        raise ConfigError(f"run tag must be a nonempty word without whitespace, got {tag!r}")


def _check_ids(columns: Mapping[str, Collection[str]]) -> None:
    """Raise DataError unless every id reads back as written: each one field,
    and no query id starting with '#' (its lines would be comments).
    `columns` maps each query id to its doc ids."""
    rule = "ids must be nonempty words without whitespace, and a query id must not start with '#'"
    if not _one_field_each(list(columns)) or any(qid.startswith("#") for qid in columns):
        bad = next(qid for qid in columns if not _one_field_each([qid]) or qid.startswith("#"))
        raise DataError(f"query id {bad!r} would not read back: {rule}")
    for qid, dids in columns.items():
        if not _one_field_each(dids):
            bad = next(did for did in dids if not _one_field_each([did]))
            raise DataError(f"query {qid!r}: doc id {bad!r} would not read back: {rule}")


def write_run(run: RunFile, path, tag: str = "recipnn", header: str | None = None) -> None:
    """Write rank-consistent, score-sorted TREC run lines, queries in id order."""
    check_tag(tag)
    _check_ids({qid: ranked._ids for qid, ranked in run.lists.items()})
    ranks = [str(rank) for rank in range(1, 1 + max((len(run[qid]) for qid in run.query_ids), default=0))]
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for qid in run.query_ids:
            ranked = run[qid]
            if ranked._ids:  # each line "qid Q0 doc rank score tag": the fields in the middle joined per line
                fh.write(f"{qid} Q0 " + f" {tag}\n{qid} Q0 ".join(
                    map(" ".join, zip(ranked._ids, ranks, map(repr, ranked._values.tolist())))) + f" {tag}\n")


def write_qrels(qrels: Qrels, path, header: str | None = None) -> None:
    _check_ids(qrels.judgments)  # each doc id -> grade mapping iterates over its doc ids
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for qid in qrels.query_ids:
            grades = qrels.grades_for(qid)
            for did in sorted(grades):
                fh.write(f"{qid} 0 {did} {grades[did]}\n")


# ---------------------------------------------------------------------------
# metrics

def _mean_over_queries(run: RunFile, qrels: Qrels, k: int, per_query) -> float:
    """Mean of per_query(qid, top-k doc ids) over the queries run and qrels share."""
    k = int(k)
    if k < 1:
        raise DataError(f"k must be >= 1, got {k}")
    queries = [qid for qid in run.query_ids if qid in qrels]
    if not queries:
        raise DataError("run and qrels share no query ids")
    total = 0.0
    for qid in queries:
        total += per_query(qid, run[qid]._ids[:k])
    return total / len(queries)


def mrr_at_k(run: RunFile, qrels: Qrels, k: int = 10, rel_threshold: int = 1) -> float:
    """Mean over queries of 1/rank of the first relevant doc in the top k."""
    def reciprocal_rank(qid, top):
        grades = qrels.grades_for(qid)
        return next((1.0 / rank for rank, did in enumerate(top, start=1)
                     if grades.get(did, 0) >= rel_threshold), 0.0)
    return _mean_over_queries(run, qrels, k, reciprocal_rank)


def ndcg_at_k(run: RunFile, qrels: Qrels, k: int = 10) -> float:
    """Linear-gain nDCG: DCG@k = sum grade_i/log2(i+1), ideal from all judged grades."""
    def ndcg(qid, top):
        grades = qrels.grades_for(qid)
        dcg = sum(grades.get(did, 0) / math.log2(rank + 1) for rank, did in enumerate(top, start=1))
        ideal = sorted(grades.values(), reverse=True)[:int(k)]  # k is checked before the first call
        idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal))
        return dcg / idcg if idcg > 0 else 0.0
    return _mean_over_queries(run, qrels, k, ndcg)


def recall_at_k(run: RunFile, qrels: Qrels, k: int = 10, rel_threshold: int = 1) -> float:
    """Mean over queries of |relevant in top k| / |relevant|."""
    def recall(qid, top):
        relevant = qrels.relevant_docs(qid, rel_threshold)
        return sum(1 for did in top if did in relevant) / len(relevant) if relevant else 0.0
    return _mean_over_queries(run, qrels, k, recall)


def map_at_k(run: RunFile, qrels: Qrels, k: int = 10, rel_threshold: int = 1) -> float:
    """Mean average precision: sum of precision@i at relevant hits, over |relevant|."""
    def average_precision(qid, top):
        relevant = qrels.relevant_docs(qid, rel_threshold)
        hits, precision_sum = 0, 0.0
        for rank, did in enumerate(top, start=1):
            if did in relevant:
                hits += 1
                precision_sum += hits / rank
        return precision_sum / len(relevant) if relevant else 0.0
    return _mean_over_queries(run, qrels, k, average_precision)


_METRICS = {
    "mrr": mrr_at_k,
    "ndcg": ndcg_at_k,
    "recall": recall_at_k,
    "map": map_at_k,
}


def parse_metric_id(metric_id: str) -> tuple[str, int]:
    """Split a `name@k` metric id into its name and positive cutoff; ConfigError otherwise."""
    parts = metric_id.strip().lower().split("@")
    if len(parts) != 2 or parts[0] not in _METRICS:
        raise ConfigError(f"unknown metric id {metric_id!r}; use one of "
                          + ", ".join(f"{m}@k" for m in _METRICS))
    try:
        k = int(parts[1])
    except ValueError:
        raise ConfigError(f"metric id {metric_id!r} has non-integer cutoff") from None
    check_positive(f"cutoff of metric id {metric_id!r}", k)
    return parts[0], k


def evaluate_metric(metric_id: str, run: RunFile, qrels: Qrels, rel_threshold: int = 1) -> float:
    """Dispatch a `name@k` metric id, e.g. mrr@10, ndcg@20, recall@100, map@10."""
    name, k = parse_metric_id(metric_id)
    if name == "ndcg":
        return ndcg_at_k(run, qrels, k)
    return _METRICS[name](run, qrels, k, rel_threshold)
