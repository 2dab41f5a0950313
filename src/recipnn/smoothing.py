"""Evidence-based label smoothing: turn binary relevance into soft targets.

For each query, candidates are scored by their mean mixed reciprocal-NN
similarity to the query's ground-truth document(s); scores are normalized
(f_n), ground-truth entries are boosted by a factor b, candidates ranked
beyond n_max (by similarity to the ground truth) are cut to -inf, and a
softmax turns the result into a target distribution. The classic uniform
redistribution scheme is included as a baseline, plus a matched-mass variant
that gives uniform smoothing the same off-ground-truth mass per query as the
evidence-based output.
"""

from __future__ import annotations

import json
import logging
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .context import RankingContext, context_from_run, order_by_score
from .embeddings import EmbeddingMatrix
from .errors import ConfigError, DataError, check_positive
from .neighbors import RnnParams, rnn_scores
from .parallel import map_queries
from .textfile import numbered_lines, open_text

logger = logging.getLogger(__name__)

NORMALIZERS = ("maxmin", "stdbased")
SMOOTH_MODES = ("eb", "uniform", "uniform-matched")

# serialized label entries below this mass are dropped from output files
_PROB_FLOOR = 1e-12
_SUM_TOL = 1e-9


@dataclass(frozen=True)
class SmoothParams:
    """Knobs of the smoothing pipeline on top of the rNN parameters.

    b        ground-truth boost factor, >= 1
    n_max    candidates ranked beyond this (by similarity to the ground
             truth) get zero target mass, unless they are ground truth
    f_n      score normalization: maxmin or stdbased
    inject_missing_gt  append ground-truth docs missing from the retrieved
             candidates to the context before the pairwise math
    """

    rnn: RnnParams = RnnParams()
    b: float = 1.0
    n_max: int = 32
    f_n: str = "maxmin"
    inject_missing_gt: bool = True

    def __post_init__(self) -> None:
        if not self.b >= 1.0:
            raise ConfigError(f"boost factor b must be >= 1, got {self.b!r}")
        check_positive("n_max", self.n_max)
        if self.f_n not in NORMALIZERS:
            raise ConfigError(f"f_n must be one of {', '.join(NORMALIZERS)}; got {self.f_n!r}")


@dataclass(frozen=True)
class SoftLabelSet:
    """One query's target distribution over candidate documents."""

    query_id: str
    entries: tuple[tuple[str, float], ...]
    gt_ids: frozenset[str]

    def __post_init__(self) -> None:
        entries = tuple((str(d), float(p)) for d, p in self.entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "gt_ids", frozenset(self.gt_ids))
        if not entries:
            raise DataError(f"query {self.query_id!r}: empty label set")
        ids = [d for d, _ in entries]
        if len(set(ids)) != len(ids):
            raise DataError(f"query {self.query_id!r}: duplicate doc ids in labels")
        probs = np.array([p for _, p in entries])
        if not np.isfinite(probs).all():
            raise DataError(f"query {self.query_id!r}: non-finite target probability")
        if probs.min() < 0:
            raise DataError(f"query {self.query_id!r}: negative target probability")
        if abs(probs.sum() - 1.0) > _SUM_TOL:
            raise DataError(f"query {self.query_id!r}: targets sum to {probs.sum()!r}")
        if order_by_score(probs, ids).tolist() != list(range(len(ids))):
            raise DataError(f"query {self.query_id!r}: labels not sorted by prob desc, id asc")

    @property
    def support(self) -> int:
        """Number of entries with strictly positive mass."""
        return sum(1 for _, p in self.entries if p > 0)

    @property
    def gt_mass(self) -> float:
        return float(sum(p for d, p in self.entries if d in self.gt_ids))


@dataclass(frozen=True)
class SmoothResult:
    label_sets: tuple[SoftLabelSet, ...]
    skipped: tuple[tuple[str, str], ...]  # (query_id, reason)

    @property
    def mean_gt_mass(self) -> float:
        if not self.label_sets:
            return 0.0
        return float(np.mean([ls.gt_mass for ls in self.label_sets]))


# ---------------------------------------------------------------------------
# scalar building blocks

def normalize_scores(scores, f_n: str = "maxmin") -> np.ndarray:
    """maxmin: (s - min)/(max - min). stdbased: (s - min)/sigma, population sigma.

    A constant vector normalizes to all zeros with a RuntimeWarning; vectors
    shorter than 2 are an error.
    """
    if f_n not in NORMALIZERS:
        raise ConfigError(f"f_n must be one of {', '.join(NORMALIZERS)}; got {f_n!r}")
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim != 1 or s.size < 2:
        raise DataError(f"normalization needs a 1-D vector of length >= 2, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise DataError("scores must be finite")
    lo = s.min()
    denom = (s.max() - lo) if f_n == "maxmin" else float(s.std())
    if denom == 0.0:
        warnings.warn("constant score vector normalizes to all zeros", RuntimeWarning, stacklevel=2)
        return np.zeros_like(s)
    return (s - lo) / denom


def mean_gt_similarity(context: RankingContext, gt_ids, params: SmoothParams) -> np.ndarray:
    """Mean mixed similarity of each candidate to the ground-truth documents.

    The ground-truth docs, in id order, are the probes of one rNN pipeline
    pass over the context; the returned vector is aligned with
    context.element_ids[1:]. All gt_ids must already be present in the
    context (the dataset pipeline injects them).
    """
    gt_ids = sorted(set(gt_ids))
    if not gt_ids:
        raise DataError(f"query {context.query_id!r}: empty ground-truth set")
    probes = [context.index_of(g) for g in gt_ids]  # raises for unresolvable ids
    return rnn_scores(context, params.rnn.clamped(context.size), probe=probes)


def transform_scores(r_gt, gt_flags, params: SmoothParams) -> np.ndarray:
    """Boost/cut normalized scores; input must be sorted descending by score.

    Position i (1-based) in the given order is the cut-off rank. Cases, in
    precedence order: ground truth -> b * f_n(score); rank beyond n_max ->
    -inf; otherwise f_n(score). A ground-truth doc beyond n_max is therefore
    boosted, not cut.
    """
    r = np.asarray(r_gt, dtype=np.float64)
    flags = np.asarray(gt_flags, dtype=bool)
    if r.shape != flags.shape or r.ndim != 1:
        raise DataError(f"score/flag vectors misaligned: {r.shape} vs {flags.shape}")
    normed = normalize_scores(r, params.f_n)
    ranks = np.arange(1, r.size + 1)
    out = np.where(flags, params.b * normed, np.where(ranks > params.n_max, -np.inf, normed))
    return out


def softmax(r_prime) -> np.ndarray:
    """Stable softmax; -inf entries map to exactly zero probability."""
    r = np.asarray(r_prime, dtype=np.float64)
    if r.ndim != 1 or r.size == 0:
        raise DataError(f"softmax needs a nonempty 1-D vector, got shape {r.shape}")
    if np.any(np.isnan(r)) or np.any(r == np.inf):
        raise DataError("softmax input must be finite or -inf")
    finite = r[np.isfinite(r)]
    if finite.size == 0:
        raise DataError("softmax input has no finite entry")
    e = np.exp(r - finite.max())
    return e / e.sum()


def uniform_smooth(n: int, epsilon: float, gt_index: int | Sequence[int] = 0) -> np.ndarray:
    """Move mass epsilon off the ground truth, split evenly over the rest.

    gt_index is one ground-truth position or several; each ground-truth
    entry keeps (1 - epsilon)/|gt| and every other entry gets epsilon/(n - |gt|).
    """
    if not isinstance(n, int) or n < 2:
        raise DataError(f"uniform smoothing needs n >= 2, got {n!r}")
    check_smooth_options(None, "uniform", epsilon)
    gt = np.unique(gt_index)
    if gt.size == 0 or gt[0] < 0 or gt[-1] >= n:
        raise DataError(f"gt_index {gt_index} out of range for n={n}")
    if gt.size == n:
        raise DataError("no non-ground-truth entry to spread mass over")
    out = np.full(n, epsilon / (n - gt.size), dtype=np.float64)
    out[gt] = (1.0 - epsilon) / gt.size
    return out


# ---------------------------------------------------------------------------
# dataset pipeline

def _labels_for_query(query_id: str, doc_ids: Sequence[str], qrels, embeddings: EmbeddingMatrix,
                      params: SmoothParams, n_context: int | None, mode: str,
                      epsilon: float, rel_threshold: int) -> SoftLabelSet:
    gt_all = qrels.relevant_docs(query_id, rel_threshold)
    if not gt_all:
        raise DataError(f"query {query_id!r} has no positive judgment")
    docs = list(doc_ids if n_context is None else doc_ids[:n_context])
    missing_gt = sorted(gt_all - set(docs))
    if missing_gt:
        if not params.inject_missing_gt:
            raise DataError(f"query {query_id!r}: ground truth absent from candidates "
                            f"and injection disabled: {', '.join(missing_gt)}")
        docs = docs + missing_gt
    context = context_from_run(query_id, docs, embeddings, None)
    cand_ids = list(context.candidate_ids)
    n = len(cand_ids)
    if n < 2:
        raise DataError(f"query {query_id!r}: need at least 2 candidates, got {n}")

    r_gt = mean_gt_similarity(context, gt_all, params)
    order = order_by_score(r_gt, cand_ids)
    ids_sorted = [cand_ids[i] for i in order.tolist()]
    flags_sorted = np.array([d in gt_all for d in ids_sorted])

    if mode == "eb" or mode == "uniform-matched":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # constant r'' is handled, not fatal
            r_prime = transform_scores(r_gt[order], flags_sorted, params)
        probs = softmax(r_prime)
    if mode != "eb":
        eps = epsilon if mode == "uniform" else float(probs[~flags_sorted].sum())
        probs = uniform_smooth(n, eps, np.nonzero(flags_sorted)[0])

    entries = [(ids_sorted[i], probs[i]) for i in order_by_score(probs, ids_sorted).tolist()]
    return SoftLabelSet(query_id, tuple(entries), frozenset(gt_all))


def check_smooth_options(n_context: int | None, mode: str, epsilon: float) -> None:
    """ConfigError unless n_context is None or positive, mode is known, and a uniform epsilon is in [0, 1)."""
    if n_context is not None:
        check_positive("n_context", n_context)
    if mode not in SMOOTH_MODES:
        raise ConfigError(f"mode must be one of {', '.join(SMOOTH_MODES)}; got {mode!r}")
    if mode == "uniform" and not 0.0 <= epsilon < 1.0:
        raise ConfigError(f"epsilon must lie in [0, 1), got {epsilon!r}")


def smooth_dataset(run, qrels, embeddings: EmbeddingMatrix, params: SmoothParams,
                   n_context: int | None = None, mode: str = "eb", epsilon: float = 0.1,
                   rel_threshold: int = 1, strict: bool = False, workers: int = 1) -> SmoothResult:
    """Produce one SoftLabelSet per run query; pure offline computation.

    Each query's context is its top n_context candidates (all of them when
    None), plus any missing ground truth; n_context must be a positive
    integer or None. Queries without a resolvable ground truth (or with
    unresolvable embeddings) are warned about and skipped unless strict. mode
    is one of eb | uniform | uniform-matched; epsilon only applies to uniform
    mode, where a value outside [0, 1) is a ConfigError. Queries run in up to
    `workers` processes (`parallel.map_queries`); results, warnings and
    skips keep query-id order whatever the count.
    """
    check_smooth_options(n_context, mode, epsilon)

    def labels_or_error(qid: str) -> SoftLabelSet | DataError:
        try:
            return _labels_for_query(qid, run[qid].doc_ids, qrels, embeddings, params,
                                     n_context, mode, epsilon, rel_threshold)
        except DataError as exc:
            if strict:
                raise
            return exc

    query_ids = run.query_ids
    label_sets, skipped = [], []
    for qid, out in zip(query_ids, map_queries(labels_or_error, query_ids, workers)):
        if isinstance(out, DataError):
            logger.warning("skipping query %s: %s", qid, out)
            skipped.append((qid, str(out)))
        else:
            label_sets.append(out)
    return SmoothResult(tuple(label_sets), tuple(skipped))


# ---------------------------------------------------------------------------
# soft-label file I/O (JSON Lines)

def write_soft_labels(label_sets: Iterable[SoftLabelSet], path, header: str | None = None) -> None:
    """One JSON object per line: {"qid", "gt", "labels"}; labels sorted by
    probability descending then doc id, entries below 1e-12 omitted."""
    ordered = sorted(label_sets, key=lambda ls: ls.query_id)
    lines = []
    if header:
        lines.append(f"# {header}")
    for ls in ordered:
        obj = {
            "qid": ls.query_id,
            "gt": sorted(ls.gt_ids),
            "labels": [[d, p] for d, p in ls.entries if p >= _PROB_FLOOR],
        }
        lines.append(json.dumps(obj, separators=(",", ":")))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def read_soft_labels(path) -> list[SoftLabelSet]:
    out = []
    try:
        fh = open_text(path)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    with fh:
        for lineno, line in numbered_lines(fh, path):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                obj = json.loads(line)
                out.append(SoftLabelSet(obj["qid"],
                                        tuple((d, p) for d, p in obj["labels"]),
                                        frozenset(obj["gt"])))
            except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
                raise DataError(f"{path}:{lineno}: bad soft-label line: {exc}") from None
    return out
