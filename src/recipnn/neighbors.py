"""Reciprocal nearest-neighbor machinery over a context similarity matrix.

Everything here operates on integer indices into a context (query at index
0, candidates after it) and its dense pairwise similarity matrix.
`nn_set`, `reciprocal_set` and `extended_reciprocal_set` give one probe's
k-NN set (always containing the probe), its reciprocal set (mutual k-NN
membership) and its tau-extended set (single-pass union of neighbours'
smaller reciprocal sets that overlap the original set by at least 2/3).
`rnn_scores_block` is the fused pipeline (pure numpy, no per-row Python
loops) that the reranker and smoother build on: extended sets, weighted
connectivity vectors, local expansion over each element's k_exp-NN, and a
weighted Jaccard distance mixed with normalized geometric similarity, for a
block of equal-size contexts in one pass, each with its own probe list.
Every stage takes one matrix or a stack of them (..., m, m) and is
elementwise, row-wise or a reduction along rows, so a block gives each
context the bytes it gets alone; `rnn_scores` is the block of one, whose
stages run on its one matrix. k and k_exp larger than a context are cut to
its size inside the kernel. `score_in_blocks` is the route every query of
`rerank_run` and `smooth_dataset` takes: it builds their contexts one at a
time, groups them in blocks of `block_budget(m)`, hands each block to the
caller's finish(contexts, probes), which scores it, and spreads the queries
over worker processes. `oracle` recomputes all of it in scalar Python.

All neighbour sets come from one selection, `_top_order(sim, n)`: the first
n entries of every row's ordering (the row itself first, then similarity
descending, ties broken by index ascending), found by partial selection
instead of sorting whole rows, so the set functions and `rnn_scores` agree
on ties.

Set sizes in the tau extension are counted on 64-bit bitsets (popcount of
ANDed words), so this module makes no BLAS call; per context only
`build_context`'s similarity product does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .context import RankingContext
from .errors import ConfigError, DataError, check_positive
from .parallel import map_queries

WEIGHT_FNS = ("neg_identity", "exp_neg", "binary")

# floor of the per-vector affine weight map; keeps every set member's weight
# strictly positive so membership survives the min/max algebra
_EPS_WEIGHT = 1e-6
# similarity entries in one block of contexts scored together: 8 contexts
# at m=64, one from m=129 on
_BLOCK_ENTRIES = 2 ** 15


@dataclass(frozen=True)
class RnnParams:
    """Hyperparameters of the reciprocal-NN rescoring pipeline.

    k        neighborhood size for reciprocal sets
    k_exp    neighborhood size for local expansion of connectivity vectors
    tau      trust factor in [0, 1]; extended sets merge neighbors'
             round(tau*k)-reciprocal sets (0 disables expansion)
    lam      mixing coefficient in [0, 1]: lam*geometric + (1-lam)*jaccard
    weight_fn  one of neg_identity | exp_neg | binary
    """

    k: int = 21
    k_exp: int = 3
    tau: float = 0.0
    lam: float = 0.451
    weight_fn: str = "neg_identity"

    def __post_init__(self) -> None:
        check_positive("k", self.k)
        check_positive("k_exp", self.k_exp)
        if not 0.0 <= self.tau <= 1.0:
            raise ConfigError(f"tau must lie in [0, 1], got {self.tau!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError(f"lambda must lie in [0, 1], got {self.lam!r}")
        if self.weight_fn not in WEIGHT_FNS:
            raise ConfigError(f"weight_fn must be one of {', '.join(WEIGHT_FNS)}; got {self.weight_fn!r}")


@dataclass(frozen=True)
class NeighborSet:
    """A probe index plus the set of context indices in its neighbor set."""

    probe_index: int
    members: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", frozenset(int(i) for i in self.members))
        if self.probe_index not in self.members:
            raise DataError(f"neighbor set for probe {self.probe_index} does not contain the probe")

    def __contains__(self, index: int) -> bool:
        return index in self.members

    def __len__(self) -> int:
        return len(self.members)


# ---------------------------------------------------------------------------
# vectorized internals (shared by the set functions and rnn_scores)

def _check_probe(probe: int, m: int) -> int:
    probe = int(probe)
    if not 0 <= probe < m:
        raise DataError(f"probe index {probe} out of range for context of size {m}")
    return probe

def _set_args(probe: int, sim_matrix, k: int) -> tuple[np.ndarray, int, int]:
    """The checked similarity matrix and probe of a one-probe set function, and its k cut to the context size."""
    sim = np.asarray(sim_matrix, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise DataError(f"similarity matrix must be square, got shape {sim.shape}")
    if not np.isfinite(sim).all():
        raise DataError("similarity matrix has non-finite entries")
    m = sim.shape[0]
    probe, k = _check_probe(probe, m), int(k)
    if k < 1:
        raise DataError(f"k must be at least 1, got {k}")
    return sim, probe, min(k, m)


def _top_order(sim: np.ndarray, n: int) -> np.ndarray:
    """The first n entries of every row's neighbour ordering, as an (..., m, n) block.

    `sim` is one (m, m) matrix or a stack of them (..., m, m). Row i's
    ordering puts i itself first (its diagonal entry counts as +inf,
    whatever the stored self-similarity), then the other indices by
    similarity descending, ties broken by index ascending: exactly the first
    n columns of a stable argsort of the negated +inf-diagonal matrix, found
    without sorting whole rows. One partition per row finds the n-th key;
    in the rows where entries tied with that key straddle the cut, a running
    count over the tied entries keeps the lowest indices; a stable sort then
    orders the kept block. `sim` must be finite, so column 0 is the row itself.
    """
    m = sim.shape[-1]
    key = np.negative(sim)
    key.reshape(-1, m * m)[:, ::m + 1] = -np.inf
    cut = np.partition(key, n - 1, axis=-1)[..., n - 1:n]
    keep = key <= cut
    kept = keep.reshape(-1).nonzero()[0]  # flat positions, index ascending per row
    if kept.size > keep.size // m * n:
        rows, cut, keep = key.reshape(-1, m), cut.reshape(-1, 1), keep.reshape(-1, m)  # every row of the stack
        over = np.nonzero(np.count_nonzero(keep, axis=1) > n)[0]
        sub, at = rows[over], cut[over]
        below, tied = sub < at, sub == at
        room = n - np.count_nonzero(below, axis=1)[:, None]
        keep[over] = below | (tied & (np.cumsum(tied, axis=1) <= room))
        kept = keep.reshape(-1).nonzero()[0]
    kept = kept.reshape(-1, n)
    by_key = key.take(kept).argsort(axis=1, kind="stable")
    by_key += np.arange(0, kept.size, n)[:, None]
    return (kept.take(by_key) % m).reshape(*sim.shape[:-1], n)


def _reciprocal_mask(order: np.ndarray, k: int) -> np.ndarray:
    """Mutual k-NN membership, scattered from the first k columns of `order`."""
    m = order.shape[-2]
    nn = np.zeros((*order.shape[:-1], m), dtype=bool)
    nn.reshape(-1)[order[..., :k].reshape(-1, k) + np.arange(0, nn.size, m)[:, None]] = True
    return nn & nn.mT


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _extended_mask(order: np.ndarray, k: int, tau: float) -> np.ndarray:
    """Boolean matrix whose row i is the tau-extended reciprocal set of i.

    `order` is a `_top_order` block of at least k columns, for one context
    or a stack of them. Row i starts from R(i, k); each member c whose
    smaller set R(c, tk), tk = round(tau*k), overlaps the ORIGINAL R(i, k)
    in at least 2/3 of |R(c, tk)| gets its set unioned in. Single pass; the
    overlap test is integer-exact (3*|inter| >= 2*|R(c, tk)|).

    The sets are bitsets: every row of R(., k) and R(., tk), of every
    context, is packed into W = ceil(m/64) uint64 words. The members of
    R(i, k) lie among i's first k neighbours order[i, :k], so each row tests
    only those k candidates, counting |R(i, k) & R(c, tk)| by popcount, and
    ORs the words of the passing ones: O(m*k*m/64) integer work per context
    and no BLAS call. Both passes go one word at a time, so no temporary
    holds more than k words per row.
    """
    tk = _round_half_up(tau * k)
    if tk < 1:
        return _reciprocal_mask(order, k)
    m = order.shape[-2]
    r = _reciprocal_mask(order, k)
    rows = r.size // m
    words = -(-m // 64)
    packed = np.zeros((2, *r.shape[:-1], 8 * words), dtype=np.uint8)  # rows padded with zero bits to whole words
    packed[0, ..., :-(-m // 8)] = np.packbits(r, axis=-1, bitorder="little")
    packed[1, ..., :-(-m // 8)] = np.packbits(_reciprocal_mask(order, tk), axis=-1, bitorder="little")
    # r_bits[w, g] and rt_bits[w, g]: word w of R(g, k) and of R(g, tk) for
    # row g of the stack; words first, so every elementwise step runs along the rows
    r_bits, rt_bits = np.ascontiguousarray(packed.view(np.uint64).reshape(2, rows, words).transpose(0, 2, 1))
    cand = np.ascontiguousarray(order[..., :k].reshape(rows, k).T)  # cand[j, g]: the j-th neighbour of g
    # the same neighbours as rows of the stack: past the first context, a
    # context's rows start at a multiple of m
    at = cand if rows == m else cand + np.arange(0, rows, m).repeat(m)
    inter = np.zeros((k, rows), dtype=np.intp)  # inter[j, g] = |R(g, k) & R(at[j, g], tk)|
    for r_word, rt_word in zip(r_bits, rt_bits):
        got = rt_word.take(at)
        got &= r_word
        inter += np.bitwise_count(got)
    # at[0, g] is g itself and R(g, tk) lies inside R(g, k), so inter[0, g] = |R(g, tk)|;
    # r read at row g, column cand[j, g] says whether cand[j, g] is in R(g, k)
    passing = r.reshape(-1).take(cand + np.arange(0, rows * m, m)) & (3 * inter >= 2 * inter[0].take(at))
    union = r_bits.copy()
    for rt_word, union_word in zip(rt_bits, union):
        got = rt_word.take(at)
        got *= passing                          # zero the words of candidates that fail
        union_word |= np.bitwise_or.reduce(got, axis=0)
    bits = np.unpackbits(np.ascontiguousarray(union.T).view(np.uint8), axis=1, count=m, bitorder="little")
    return bits.view(bool).reshape(r.shape)


def _row_maxmin(sim: np.ndarray) -> np.ndarray:
    """Per-row max-min normalization into [0, 1]; a constant row maps to 0."""
    lo = np.minimum.reduce(sim, axis=-1, keepdims=True)
    span = np.maximum.reduce(sim, axis=-1, keepdims=True) - lo
    s_hat = sim - lo  # exactly 0 on a constant row, which the division skips
    return np.divide(s_hat, span, out=s_hat, where=span > 0)


def _weight_matrix(s_hat: np.ndarray, ext: np.ndarray, weight_fn: str) -> np.ndarray:
    """Connectivity vectors, one row per row of `ext` (a probe's extended set).

    `s_hat` holds the matching rows of `_row_maxmin(sim)`. Non-binary
    weights start as f_w of the normalized distance 1 - s_hat, then each
    row's member values are affinely remapped onto [1e-6, 1] (a single
    member, or an all-equal row, maps to 1). Binary weights are exactly 1
    on members. Zero everywhere outside the extended set.
    """
    if weight_fn == "binary":
        return ext.astype(np.float64)
    d = 1.0 - s_hat
    raw = -d if weight_fn == "neg_identity" else np.exp(-d)  # exp_neg; RnnParams admits no other name
    lo = np.minimum.reduce(np.where(ext, raw, np.inf), axis=-1, keepdims=True)
    span = np.maximum.reduce(np.where(ext, raw, -np.inf), axis=-1, keepdims=True) - lo
    scaled = np.divide(raw - lo, span, out=np.ones_like(raw), where=span > 0)  # a zero span maps to 1
    w = _EPS_WEIGHT + (1.0 - _EPS_WEIGHT) * scaled
    return np.where(ext, w, 0.0)


def _expand_matrix(weights: np.ndarray, order: np.ndarray, k_exp: int) -> np.ndarray:
    """Replace each row with the mean of its k_exp nearest rows (self first).

    A running sum over the gathered rows, then one division: the bytes of
    `weights[order[:, :k_exp]].mean(axis=1)` without its (m, k_exp, m)
    temporary. `weights` and `order` may be stacks of contexts.
    """
    if k_exp == 1:
        return weights
    m = weights.shape[-1]
    rows = weights.reshape(-1, m)
    near = order[..., :k_exp]
    if len(rows) > m:  # the rows of a later context in the stack start at a multiple of m
        near = near + np.arange(0, len(rows), m).reshape(*order.shape[:-2], 1, 1)
    out = rows[near[..., 0]]
    for j in range(1, k_exp):
        out += rows[near[..., j]]
    out /= k_exp
    return out


def _jaccard(weights: np.ndarray, vp: np.ndarray) -> np.ndarray:
    """Jaccard distance of the row `vp` against every row of `weights` (broadcast).

    sum-of-max is strictly positive for every pair: each row retains
    positive mass on its own index (weight floor, then averaging with
    itself during expansion), so the ratio is always defined.
    """
    mins = np.add.reduce(np.minimum(weights, vp), axis=-1)
    maxs = np.add.reduce(np.maximum(weights, vp), axis=-1)
    return 1.0 - mins / maxs


def _mixed_rows(s_hat: np.ndarray, weights: np.ndarray, probes: Sequence[Sequence[int]], lam: float) -> np.ndarray:
    """Each context's mean over its probes p of lam*s_hat[p] + (1 - lam)*(1 - Jaccard(p, .)).

    `s_hat` and `weights` are (B, m, m) stacks and `probes[b]` lists the
    probes of context b. Each context's rows are summed in its probe order
    and divided by its probe count, as one context at a time. The sum starts
    from the first probe's row: no mixed value is -0.0, so adding it to zero
    would change no bit.
    """
    def mixed(at: list[int], p: list[int]) -> np.ndarray:
        if len(at) < len(probes):  # only the contexts with a probe in this slot
            s_p, w_p, w = s_hat[at, p], weights[at, p], weights[at]
        elif p.count(p[0]) == len(p):  # one probe index in every context, as the query when reranking
            s_p, w_p, w = s_hat[:, p[0]], weights[:, p[0]], weights
        else:
            s_p, w_p, w = s_hat[at, p], weights[at, p], weights
        return lam * s_p + (1.0 - lam) * (1.0 - _jaccard(w, w_p[:, None]))

    every = list(range(len(probes)))
    acc = mixed(every, [own[0] for own in probes])
    most = max(map(len, probes))
    for slot in range(1, most):
        at = [b for b in every if len(probes[b]) > slot]
        acc[at] += mixed(at, [probes[b][slot] for b in at])
    if most > 1:
        acc /= [[len(own)] for own in probes]
    return acc


# ---------------------------------------------------------------------------
# one-probe set functions

def nn_set(probe: int, sim_matrix, k: int) -> NeighborSet:
    """The k most similar context indices to `probe`, probe included.

    The probe counts toward k (it ranks first whatever its stored
    self-similarity); among equal similarities the lower index wins. Reads
    the probe's row of the one neighbour selection, `_top_order(sim, k)`.
    A k larger than the context is cut to its size, as in `rnn_scores`; so
    is the k of the other set functions, and round(tau*k) is taken from the
    cut k.
    """
    sim, probe, k = _set_args(probe, sim_matrix, k)
    return NeighborSet(probe, frozenset(_top_order(sim, k)[probe].tolist()))


def reciprocal_set(probe: int, sim_matrix, k: int) -> NeighborSet:
    """Members of nn_set(probe, k) whose own k-NN set contains the probe.

    Every k-NN set is scattered from `_top_order(sim, k)`, so ties resolve
    as in nn_set: the tau=0 case of `extended_reciprocal_set`.
    """
    return extended_reciprocal_set(probe, sim_matrix, k, 0.0)


def extended_reciprocal_set(probe: int, sim_matrix, k: int, tau: float) -> NeighborSet:
    """reciprocal_set(probe, k) grown by sufficiently-overlapping neighbors.

    Each c in the original set contributes R(c, round(tau*k)) when at least
    2/3 of that smaller set already lies inside the original set. tau=0 (or
    any tau with round(tau*k) == 0) returns the reciprocal set unchanged.
    Both set sizes are prefixes of one `_top_order(sim, k)` selection, so
    ties resolve as in nn_set.
    """
    sim, probe, k = _set_args(probe, sim_matrix, k)
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"tau must lie in [0, 1], got {tau!r}")
    mask = _extended_mask(_top_order(sim, k), k, tau)
    return NeighborSet(probe, frozenset(np.nonzero(mask[probe])[0].tolist()))


def rnn_scores(context: RankingContext, params: RnnParams, probe: int | Sequence[int] = 0) -> np.ndarray:
    """Mixed similarity of `probe` against every candidate, fused pipeline.

    Runs reciprocal sets -> tau extension -> weighting -> local expansion
    for the whole context in one vectorized pass, then Jaccard -> mixture
    for the probe; returns a float64 vector aligned with
    context.element_ids[1:] (the query row is dropped). `probe` may also be
    a nonempty sequence of indices: the neighbourhood is still built once,
    and the result is the mean of the probes' mixed-similarity rows, summed
    in the given order. k and k_exp larger than the context are cut to its
    size, so parameters tuned for deep contexts remain usable on shallow
    ones. Deterministic for fixed inputs; the block of one of
    `rnn_scores_block`.
    """
    probes = [probe] if isinstance(probe, (int, np.integer)) else list(probe)
    return rnn_scores_block([context], params, [probes])[0]


def rnn_scores_block(contexts: Sequence[RankingContext], params: RnnParams,
                     probes: Sequence[Sequence[int]]) -> np.ndarray:
    """`rnn_scores` of equal-size contexts in one kernel pass; one row per context.

    probes[b] is the nonempty probe list of contexts[b]. k and k_exp are cut
    to the context size m. Every stage is elementwise, row-wise or a
    reduction along rows, so each row has the bytes that
    `rnn_scores(contexts[b], params, probes[b])` gives alone.
    """
    m = contexts[0].size
    if any(c.size != m for c in contexts) or len(probes) != len(contexts):
        raise DataError("a block needs one probe list per context and contexts of one size")
    probes = [[_check_probe(p, m) for p in own] for own in probes]
    if not all(probes):
        raise DataError("rnn_scores needs at least one probe index")
    # a block of one stays one matrix: the stages run faster on 2-D arrays
    sim = contexts[0].sim_matrix if len(contexts) == 1 else np.stack([c.sim_matrix for c in contexts])
    k, k_exp = min(params.k, m), min(params.k_exp, m)
    order = _top_order(sim, max(k, k_exp))
    ext = _extended_mask(order, k, params.tau)
    s_hat = _row_maxmin(sim)
    weights = _expand_matrix(_weight_matrix(s_hat, ext, params.weight_fn), order, k_exp)
    if len(contexts) == 1:  # the mixture takes the contexts along a leading axis
        s_hat, weights = s_hat[None], weights[None]
    return _mixed_rows(s_hat, weights, probes, params.lam)[:, 1:]


def block_budget(m: int) -> int:
    """Contexts of size m scored in one kernel pass: about 2**15 similarity entries a block."""
    return max(1, _BLOCK_ENTRIES // (m * m))


def score_in_blocks(query_ids: Sequence[str], build: Callable, finish: Callable,
                    strict: bool = False, workers: int = 1) -> list:
    """One result or DataError per query: contexts grouped and finished a block at a time.

    The one route from a query to its result. build(query_id) returns the
    query's (context, probes); a DataError it raises is that query's
    result, or with strict=True is raised. Contexts are built one at a
    time, in query order, and wait in one bucket per size; a bucket that
    holds `block_budget(size)` contexts, and every bucket at the end, is
    finished by one call finish(contexts, probes), which scores the block
    as its caller needs and returns one result per context. finish must not
    refuse a context that build accepted: a DataError from it propagates.
    The queries run over contiguous shards in up to `workers` processes
    (`parallel.map_queries`), so the first build error in query order is
    the one raised, at any worker count.
    """
    def shard(ids: list[str]) -> list:
        results: list = [None] * len(ids)
        buckets: dict[int, list] = {}

        def flush(size: int) -> None:
            jobs = buckets.pop(size)
            for (pos, _, _), result in zip(jobs, finish([c for _, c, _ in jobs], [p for _, _, p in jobs])):
                results[pos] = result

        for pos, query_id in enumerate(ids):
            try:
                context, probes = build(query_id)
            except DataError as exc:
                if strict:
                    raise
                results[pos] = exc
                continue
            bucket = buckets.setdefault(context.size, [])
            bucket.append((pos, context, probes))
            if len(bucket) == block_budget(context.size):
                flush(context.size)
        for size in list(buckets):
            flush(size)
        return results

    return map_queries(shard, query_ids, workers)
