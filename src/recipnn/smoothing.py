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
import sys
import warnings
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .context import (RankingContext, check_element_ids, context_from_run, id_ranks, order_by_score, store_rows,
                      take_rows, to_input_positions)
from .embeddings import EmbeddingMatrix
from .errors import ConfigError, DataError, check_positive
from .ir_eval import _Columns
from .neighbors import RnnParams, rnn_scores, rnn_scores_block
from .parallel import score_in_blocks
from .textfile import data_lines

logger = logging.getLogger(__name__)

NORMALIZERS = ("maxmin", "stdbased")
SMOOTH_MODES = ("eb", "uniform", "uniform-matched")

# largest b under stdbased: (s - min)/sigma of n scores reaches sqrt(2n), and
# a context indexed by int32 doc_positions has n <= 2**31, so b * 2**16 must
# stay finite
_STDBASED_B_MAX = sys.float_info.max / 2.0**16
# serialized label entries below this mass are dropped from output files
_PROB_FLOOR = 1e-12
_SUM_TOL = 1e-9
# a score vector whose spread is at most this share of its largest magnitude is constant
_CONSTANT_SPREAD = 2.0**-40


@dataclass(frozen=True)
class SmoothParams:
    """Knobs of the smoothing pipeline on top of the rNN parameters.

    b        ground-truth boost factor, finite and >= 1; under stdbased at
             most about 2.7e303, so boosted scores stay finite
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
        if not 1.0 <= self.b < float("inf"):
            raise ConfigError(f"boost factor b must be finite and >= 1, got {self.b!r}")
        check_positive("n_max", self.n_max)
        if self.f_n not in NORMALIZERS:
            raise ConfigError(f"f_n must be one of {', '.join(NORMALIZERS)}; got {self.f_n!r}")
        if self.f_n == "stdbased" and self.b > _STDBASED_B_MAX:
            raise ConfigError(f"boost factor b must be at most {_STDBASED_B_MAX:.6g} under f_n stdbased, "
                              f"got {self.b!r}")


class SoftLabelSet(_Columns):
    """One query's target distribution over candidate documents.

    `doc_ids` and `probs` are the columns it holds: a tuple of str and a
    read-only float64 array, sorted by probability descending, then id.
    `entries`, the (doc_id, probability) pairs, is built from them on
    demand. Immutable.
    """

    __slots__ = ("gt_ids",)
    _FIELDS = _Columns._FIELDS + __slots__

    def __init__(self, query_id: str, entries: Iterable[Sequence], gt_ids: Iterable[str]) -> None:
        entries = tuple(entries)
        if not entries:
            raise DataError(f"query {query_id!r}: empty label set")
        # column-wise coercion: every entry must be a (doc_id, probability) pair
        ids, probs = zip(*entries, strict=True)
        ids, probs = tuple(map(str, ids)), np.array(tuple(map(float, probs)), dtype=np.float64)
        if len(set(ids)) != len(ids):
            raise DataError(f"query {query_id!r}: duplicate doc ids in labels")
        if not np.isfinite(probs).all():
            raise DataError(f"query {query_id!r}: non-finite target probability")
        if probs.min() < 0:
            raise DataError(f"query {query_id!r}: negative target probability")
        if abs(probs.sum() - 1.0) > _SUM_TOL:
            raise DataError(f"query {query_id!r}: targets sum to {probs.sum()!r}")
        if order_by_score(probs, id_ranks(ids)).tolist() != list(range(len(ids))):
            raise DataError(f"query {query_id!r}: labels not sorted by prob desc, id asc")
        self._hold(query_id, ids, probs, frozenset(gt_ids))

    @property
    def doc_ids(self) -> tuple[str, ...]:
        return self._ids

    @property
    def probs(self) -> np.ndarray:
        return self._values

    @property
    def entries(self) -> tuple[tuple[str, float], ...]:
        return tuple(zip(self._ids, self._values.tolist()))

    @property
    def support(self) -> int:
        """Number of entries with strictly positive mass."""
        return int(np.count_nonzero(self._values > 0))

    @property
    def gt_mass(self) -> float:
        """The ground truth's probabilities, summed in entry order."""
        return float(sum(compress(self._values.tolist(), map(self.gt_ids.__contains__, self._ids))))


@dataclass(frozen=True)
class SmoothResult:
    label_sets: tuple[SoftLabelSet, ...]
    skipped: tuple[tuple[str, str], ...]  # (query_id, reason)

    @property
    def mean_gt_mass(self) -> float:
        return mean_mass([ls.gt_mass for ls in self.label_sets])


def mean_mass(masses: Sequence[float]) -> float:
    """The mean of per-query ground-truth masses, 0.0 for none: one np.mean,
    so masses collected batch by batch give the digits of one result."""
    return float(np.mean(masses)) if len(masses) else 0.0


# ---------------------------------------------------------------------------
# scalar building blocks

def normalize_scores(scores, f_n: str = "maxmin") -> np.ndarray:
    """maxmin: (s - min)/(max - min). stdbased: (s - min)/sigma, population sigma.

    `scores` is one vector or a stack of them, each normalized along the
    last axis on its own. A vector counts as constant when max - min is at
    most 2**-40 * max(|min|, |max|): far above float64 rounding, so a spread
    of a few ulps left by summation order is not stretched to O(1), and far
    below the 2**-24 resolution of float32 embeddings. A constant vector,
    or one whose sigma underflows to zero, normalizes to all zeros with a
    RuntimeWarning; vectors shorter than 2 are an error.
    """
    if f_n not in NORMALIZERS:
        raise ConfigError(f"f_n must be one of {', '.join(NORMALIZERS)}; got {f_n!r}")
    s = np.asarray(scores, dtype=np.float64)
    if s.ndim < 1 or s.shape[-1] < 2:
        raise DataError(f"normalization needs a 1-D vector of length >= 2, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise DataError("scores must be finite")
    lo, hi = s.min(axis=-1, keepdims=True), s.max(axis=-1, keepdims=True)
    denom = hi - lo if f_n == "maxmin" else s.std(axis=-1, keepdims=True)
    # near-constant, or so small that sigma's squares underflow to zero
    constant = (hi - lo <= _CONSTANT_SPREAD * np.maximum(np.abs(lo), np.abs(hi))) | (denom == 0.0)
    if constant.any():
        warnings.warn("constant score vector normalizes to all zeros", RuntimeWarning, stacklevel=2)
    return np.divide(s - lo, denom, out=np.zeros_like(s), where=~constant)


def mean_gt_similarity(context: RankingContext, gt_ids, params: SmoothParams) -> np.ndarray:
    """Mean mixed similarity of each candidate to the ground-truth documents.

    The ground-truth docs, in id order, are the probes of one rNN pipeline
    pass over the context; the returned vector is aligned with
    context.element_ids[1:]. All gt_ids must already be present in the
    context (the dataset pipeline injects them).
    """
    return rnn_scores(context, params.rnn, probe=_gt_probes(context, gt_ids))


def _gt_probes(context: RankingContext, gt_ids) -> list[int]:
    """Context indices of the ground-truth docs, in id order."""
    gt_ids = sorted(set(gt_ids))
    if not gt_ids:
        raise DataError(f"query {context.query_id!r}: empty ground-truth set")
    return [context.index_of(g) for g in gt_ids]  # raises for unresolvable ids


def transform_scores(r_gt, gt_flags, params: SmoothParams) -> np.ndarray:
    """Boost/cut normalized scores; input must be sorted descending by score.

    `r_gt` and `gt_flags` are one vector or a stack of them, one row per
    query. Position i (1-based) along the last axis is the cut-off rank.
    Cases, in precedence order: ground truth -> b * f_n(score); rank beyond
    n_max -> -inf; otherwise f_n(score). A ground-truth doc beyond n_max is
    therefore boosted, not cut.
    """
    r = np.asarray(r_gt, dtype=np.float64)
    flags = np.asarray(gt_flags, dtype=bool)
    if r.shape != flags.shape or r.ndim < 1:
        raise DataError(f"score/flag vectors misaligned: {r.shape} vs {flags.shape}")
    normed = normalize_scores(r, params.f_n)
    ranks = np.arange(1, r.shape[-1] + 1)
    return np.where(flags, params.b * normed, np.where(ranks > params.n_max, -np.inf, normed))


def softmax(r_prime) -> np.ndarray:
    """Stable softmax along the last axis; -inf entries map to exactly zero probability."""
    r = np.asarray(r_prime, dtype=np.float64)
    if r.ndim < 1 or r.shape[-1] == 0:
        raise DataError(f"softmax needs a nonempty 1-D vector, got shape {r.shape}")
    if np.any(np.isnan(r)) or np.any(r == np.inf):
        raise DataError("softmax input must be finite or -inf")
    top = r.max(axis=-1, keepdims=True)  # the largest finite entry: no entry is NaN or +inf
    if np.any(top == -np.inf):
        raise DataError("softmax input has no finite entry")
    e = np.exp(r - top)
    return e / e.sum(axis=-1, keepdims=True)


def uniform_smooth(n: int, epsilon, gt_index: int | Sequence[int] | np.ndarray = 0) -> np.ndarray:
    """Move mass epsilon off the ground truth, split evenly over the rest.

    gt_index is one ground-truth position or several; or a boolean
    (..., n) stack of ground-truth flags, one distribution per row, with
    epsilon one value or one per row. Each ground-truth entry keeps
    (1 - epsilon)/|gt| and every other entry gets epsilon/(n - |gt|).
    """
    if not isinstance(n, int) or n < 2:
        raise DataError(f"uniform smoothing needs n >= 2, got {n!r}")
    eps = np.asarray(epsilon, dtype=np.float64)
    if not np.all((0.0 <= eps) & (eps < 1.0)):
        raise ConfigError(f"epsilon must lie in [0, 1), got {epsilon!r}")
    if isinstance(gt_index, np.ndarray) and gt_index.dtype == bool:
        flags = gt_index
        if flags.shape[-1:] != (n,):
            raise DataError(f"ground-truth flags of shape {flags.shape} for n={n}")
    else:
        gt = np.unique(gt_index)
        if gt.size == 0 or gt[0] < 0 or gt[-1] >= n:
            raise DataError(f"gt_index {gt_index} out of range for n={n}")
        flags = np.zeros(n, dtype=bool)
        flags[gt] = True
    n_gt = np.count_nonzero(flags, axis=-1, keepdims=True)
    if np.any(n_gt == 0):
        raise DataError("no ground-truth entry to keep mass on")
    if np.any(n_gt == n):
        raise DataError("no non-ground-truth entry to spread mass over")
    eps = eps[..., None]
    return np.where(flags, (1.0 - eps) / n_gt, eps / (n - n_gt))


# ---------------------------------------------------------------------------
# dataset pipeline

def _candidates(query_id: str, doc_ids: Sequence[str], qrels, params: SmoothParams,
                n_context: int | None, rel_threshold: int) -> tuple[list[str], set[str]]:
    """The doc ids a query's context is built from, and its ground truth: the
    run's first n_context ids, then the ground truth missing from them, in id order."""
    gt_all = qrels.relevant_docs(query_id, rel_threshold)
    if not gt_all:
        raise DataError(f"query {query_id!r} has no positive judgment")
    docs = list(doc_ids if n_context is None else doc_ids[:n_context])
    missing_gt = sorted(gt_all.difference(docs))
    if missing_gt:
        if not params.inject_missing_gt:
            raise DataError(f"query {query_id!r}: ground truth absent from candidates "
                            f"and injection disabled: {', '.join(missing_gt)}")
        docs += missing_gt
    return docs, gt_all


class _IdContext(NamedTuple):
    """A query's candidates in input order, without their geometry: all that
    uniform labels read of a `RankingContext`."""

    query_id: str
    element_ids: tuple[str, ...]
    id_ranks: np.ndarray
    doc_positions: np.ndarray
    size = RankingContext.size
    n_candidates = RankingContext.n_candidates
    index_of = RankingContext.index_of


def _gt_context(query_id: str, doc_ids: Sequence[str], qrels, embeddings: EmbeddingMatrix,
                params: SmoothParams, n_context: int | None, rel_threshold: int,
                geometry: bool = True) -> tuple[RankingContext | _IdContext, list[int]]:
    """A query's context, over its `_candidates`, and its ground-truth probes.

    With geometry=False the context is an `_IdContext`: no vector is read
    and no similarity is computed, yet every query `context_from_run`
    refuses is refused alike. Its one refusal left out, a non-finite
    similarity, cannot arise from a store: its components are finite
    float32, below 3.4e38 in magnitude, so an inner product in float64 is at
    most dim * (3.4e38)**2, about 1.9e81 at the binary format's 16384
    dimensions, far below the float64 maximum.
    """
    docs, gt_all = _candidates(query_id, doc_ids, qrels, params, n_context, rel_threshold)
    if geometry:
        context = context_from_run(query_id, docs, embeddings, None)
    else:
        store_rows(query_id, docs, embeddings)
        check_element_ids(query_id, docs)
        context = _IdContext(query_id, (query_id, *docs), id_ranks(docs), np.arange(len(docs)))
    if context.n_candidates < 2:
        raise DataError(f"query {query_id!r}: need at least 2 candidates, got {context.n_candidates}")
    return context, _gt_probes(context, gt_all)


def _label_sets(contexts: Sequence[RankingContext], probes: Sequence[Sequence[int]],
                params: SmoothParams, mode: str, epsilon: float) -> tuple:
    """A block of equal-size contexts' labels: candidate positions by probability
    descending, then id, and those probabilities, as two (B, n) arrays.

    r_gt[b] is the mean similarity of the candidates of contexts[b] to its
    ground truth at probes[b]. Uniform labels read no score, so that mode
    runs no kernel and orders by a zero row (id order). Every step runs on
    the whole (B, n) block; only the uniform-matched mass is summed row by
    row, over each row's off-ground-truth entries alone.
    """
    ranks = np.array([c.id_ranks for c in contexts])
    r_gt = np.zeros(ranks.shape) if mode == "uniform" else rnn_scores_block(contexts, params.rnn, probes)
    flags = np.zeros(r_gt.shape, dtype=bool)
    for row, own in zip(flags, probes):
        row[[p - 1 for p in own]] = True  # probes index the context, whose element 0 is the query
    order = order_by_score(r_gt, ranks)
    flags = take_rows(flags, order)

    if mode == "eb" or mode == "uniform-matched":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # constant r'' is handled, not fatal
            r_prime = transform_scores(take_rows(r_gt, order), flags, params)
        probs = softmax(r_prime)
    if mode != "eb":
        eps = epsilon if mode == "uniform" else [row[~off].sum() for row, off in zip(probs, flags)]
        probs = uniform_smooth(r_gt.shape[-1], eps, flags)

    by_prob = order_by_score(probs, take_rows(ranks, order))
    return take_rows(order, by_prob), take_rows(probs, by_prob)


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
    unresolvable embeddings) are warned about and skipped unless strict,
    which raises the first such error in query order. mode is one of eb |
    uniform | uniform-matched; epsilon only applies to uniform mode, where a
    value outside [0, 1) is a ConfigError. The uniform modes skip a query
    whose candidates are all ground truth, before it is scored.
    finish(contexts, probes) scores and labels a block of equal-size
    contexts in one pass (uniform mode scores nothing, and its contexts
    hold no similarity matrix: `_gt_context`), in up to `workers`
    processes (`parallel.score_in_blocks`); results, warnings and skips
    keep query-id order whatever the block or worker count.
    Blocks return positions into each query's `_candidates`, so every set
    holds the run's and the qrels' own str objects.
    """
    check_smooth_options(n_context, mode, epsilon)

    def build(qid: str) -> tuple[RankingContext | _IdContext, list[int]]:
        context, probes = _gt_context(qid, run[qid].doc_ids, qrels, embeddings, params, n_context, rel_threshold,
                                      geometry=mode != "uniform")
        if mode != "eb" and len(probes) == context.n_candidates:  # uniform_smooth's refusal, before scoring
            raise DataError("no non-ground-truth entry to spread mass over")
        return context, probes

    def finish(contexts: list[RankingContext], probes: list[list[int]]) -> list:
        return to_input_positions(contexts, *_label_sets(contexts, probes, params, mode, epsilon))

    query_ids = run.query_ids
    label_sets, skipped = [], []
    for qid, out in zip(query_ids, score_in_blocks(query_ids, build, finish, strict, workers)):
        if isinstance(out, DataError):
            logger.warning("skipping query %s: %s", qid, out)
            skipped.append((qid, str(out)))
        else:
            # built sorted, unique, finite and normalised, so the set needs no check
            docs, gt_all = _candidates(qid, run[qid]._ids, qrels, params, n_context, rel_threshold)
            label_sets.append(SoftLabelSet._at(qid, docs, *out, frozenset(gt_all)))
    return SmoothResult(tuple(label_sets), tuple(skipped))


# ---------------------------------------------------------------------------
# soft-label file I/O (JSON Lines)

def write_soft_labels(label_sets: Iterable[SoftLabelSet], path, header: str | None = None,
                      append: bool = False) -> None:
    """One JSON object per line, queries in id order: {"qid", "gt", "labels"};
    labels sorted by probability descending then doc id, entries below 1e-12
    omitted. With append=True the lines go after those already in the file,
    as `ir_eval.write_run` appends."""
    ordered = sorted(label_sets, key=lambda ls: ls.query_id)
    with open(path, "a" if append else "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# {header}\n")
        for ls in ordered:
            obj = {
                "qid": ls.query_id,
                "gt": sorted(ls.gt_ids),
                "labels": [[d, p] for d, p in zip(ls.doc_ids, ls.probs.tolist()) if p >= _PROB_FLOOR],
            }
            fh.write(json.dumps(obj, separators=(",", ":")) + "\n")


def read_soft_labels(path) -> list[SoftLabelSet]:
    out = []
    for lineno, line in data_lines(path):
        try:
            obj = json.loads(line)
            out.append(SoftLabelSet(obj["qid"], obj["labels"], obj["gt"]))
        except (KeyError, TypeError, ValueError, OverflowError, DataError) as exc:
            raise DataError(f"{path}:{lineno}: bad soft-label line: {exc}") from None
    return out
