"""Reciprocal nearest-neighbor machinery over a context similarity matrix.

Everything here operates on integer indices into a context (query at index
0, candidates after it) and its dense pairwise similarity matrix.
`nn_set`, `reciprocal_set` and `extended_reciprocal_set` give one probe's
k-NN set (always containing the probe), its reciprocal set (mutual k-NN
membership) and its tau-extended set (single-pass union of neighbours'
smaller reciprocal sets that overlap the original set by at least 2/3).
`rnn_scores` is the fused whole-context pipeline (pure numpy, no per-row
Python loops) that the reranker and smoother build on: extended sets,
weighted connectivity vectors, local expansion over each element's k_exp-NN,
and a weighted Jaccard distance mixed with normalized geometric similarity.
`oracle` recomputes all of it in scalar Python.

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
from typing import Sequence

import numpy as np

from .context import RankingContext
from .errors import ConfigError, DataError, check_positive

WEIGHT_FNS = ("neg_identity", "exp_neg", "binary")

# floor of the per-vector affine weight map; keeps every set member's weight
# strictly positive so membership survives the min/max algebra
_EPS_WEIGHT = 1e-6


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

    def validate_for(self, context_size: int) -> None:
        """Raise DataError when k or k_exp exceed the context size."""
        if self.k > context_size:
            raise DataError(f"k={self.k} exceeds context size {context_size}")
        if self.k_exp > context_size:
            raise DataError(f"k_exp={self.k_exp} exceeds context size {context_size}")

    def clamped(self, context_size: int) -> "RnnParams":
        """Copy with k and k_exp reduced to fit a smaller context."""
        k = min(self.k, context_size)
        k_exp = min(self.k_exp, context_size)
        if k == self.k and k_exp == self.k_exp:
            return self
        return RnnParams(k=k, k_exp=k_exp, tau=self.tau, lam=self.lam, weight_fn=self.weight_fn)


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
    """The checked similarity matrix, probe and k of a one-probe set function."""
    sim = np.asarray(sim_matrix, dtype=np.float64)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise DataError(f"similarity matrix must be square, got shape {sim.shape}")
    if not np.isfinite(sim).all():
        raise DataError("similarity matrix has non-finite entries")
    m = sim.shape[0]
    probe, k = _check_probe(probe, m), int(k)
    if not 1 <= k <= m:
        raise DataError(f"k={k} out of range [1, {m}]")
    return sim, probe, k


def _top_order(sim: np.ndarray, n: int) -> np.ndarray:
    """The first n entries of every row's neighbour ordering, as an (m, n) block.

    Row i's ordering puts i itself first (its diagonal entry counts as +inf,
    whatever the stored self-similarity), then the other indices by
    similarity descending, ties broken by index ascending: exactly the first
    n columns of a stable argsort of the negated +inf-diagonal matrix, found
    without sorting whole rows. One partition per row finds the n-th key;
    in the rows where entries tied with that key straddle the cut, a running
    count over the tied entries keeps the lowest indices; a stable sort then
    orders the kept block. `sim` must be finite, so column 0 is the row itself.
    """
    m = sim.shape[0]
    key = np.negative(sim)
    key.reshape(-1)[::m + 1] = -np.inf
    cut = np.partition(key, n - 1, axis=1)[:, n - 1:n]
    keep = key <= cut
    if np.count_nonzero(keep) > m * n:
        over = np.nonzero(np.count_nonzero(keep, axis=1) > n)[0]
        sub, at = key[over], cut[over]
        below, tied = sub < at, sub == at
        room = n - np.count_nonzero(below, axis=1)[:, None]
        keep[over] = below | (tied & (np.cumsum(tied, axis=1) <= room))
    kept = keep.reshape(-1).nonzero()[0].reshape(m, n)  # flat positions, index ascending per row
    by_key = key.take(kept).argsort(axis=1, kind="stable")
    by_key += np.arange(0, m * n, n)[:, None]
    return kept.take(by_key) % m


def _reciprocal_mask(order: np.ndarray, k: int) -> np.ndarray:
    """Mutual k-NN membership, scattered from the first k columns of `order`."""
    m = order.shape[0]
    nn = np.zeros((m, m), dtype=bool)
    nn.reshape(-1)[order[:, :k] + np.arange(0, m * m, m)[:, None]] = True
    return nn & nn.T


def _round_half_up(x: float) -> int:
    return math.floor(x + 0.5)


def _extended_mask(order: np.ndarray, k: int, tau: float) -> np.ndarray:
    """Boolean matrix whose row i is the tau-extended reciprocal set of i.

    `order` is a `_top_order` block of at least k columns. Row i starts from
    R(i, k); each member c whose smaller set R(c, tk), tk = round(tau*k),
    overlaps the ORIGINAL R(i, k) in at least 2/3 of |R(c, tk)| gets its set
    unioned in. Single pass; the overlap test is integer-exact
    (3*|inter| >= 2*|R(c, tk)|).

    The sets are bitsets: every row of R(., k) and R(., tk) is packed into
    W = ceil(m/64) uint64 words. The members of R(i, k) lie among i's first
    k neighbours order[i, :k], so each row tests only those k candidates,
    counting |R(i, k) & R(c, tk)| by popcount, and ORs the words of the
    passing ones: O(m*k*m/64) integer work and no BLAS call. Both passes go
    one word at a time, so no temporary holds more than k*m words.
    """
    tk = _round_half_up(tau * k)
    if tk < 1:
        return _reciprocal_mask(order, k)
    m = order.shape[0]
    r = _reciprocal_mask(order, k)
    words = -(-m // 64)
    packed = np.zeros((2, m, 8 * words), dtype=np.uint8)  # rows padded with zero bits to whole words
    packed[0, :, :-(-m // 8)] = np.packbits(r, axis=1, bitorder="little")
    packed[1, :, :-(-m // 8)] = np.packbits(_reciprocal_mask(order, tk), axis=1, bitorder="little")
    # r_bits[w, i] and rt_bits[w, i]: word w of R(i, k) and of R(i, tk); words
    # first, so every elementwise step below runs along m
    r_bits, rt_bits = np.ascontiguousarray(packed.view(np.uint64).transpose(0, 2, 1))
    cand = np.ascontiguousarray(order[:, :k].T)  # cand[j, i]: the j-th neighbour of i
    inter = np.zeros((k, m), dtype=np.intp)      # inter[j, i] = |R(i, k) & R(cand[j, i], tk)|
    for r_word, rt_word in zip(r_bits, rt_bits):
        got = rt_word.take(cand)
        got &= r_word
        inter += np.bitwise_count(got)
    # cand[0, i] is i itself and R(i, tk) lies inside R(i, k), so inter[0, i] = |R(i, tk)|;
    # r read at row i, column cand[j, i] says whether cand[j, i] is in R(i, k)
    passing = r.reshape(-1).take(cand + np.arange(0, m * m, m)) & (3 * inter >= 2 * inter[0].take(cand))
    union = r_bits.copy()
    for rt_word, union_word in zip(rt_bits, union):
        got = rt_word.take(cand)
        got *= passing                           # zero the words of candidates that fail
        union_word |= np.bitwise_or.reduce(got, axis=0)
    return np.unpackbits(np.ascontiguousarray(union.T).view(np.uint8), axis=1, count=m, bitorder="little").view(bool)


def _row_maxmin(sim: np.ndarray) -> np.ndarray:
    """Per-row max-min normalization into [0, 1]; a constant row maps to 0."""
    lo = sim.min(axis=1, keepdims=True)
    span = sim.max(axis=1, keepdims=True) - lo
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
    if weight_fn == "neg_identity":
        raw = -d
    elif weight_fn == "exp_neg":
        raw = np.exp(-d)
    else:
        raise ConfigError(f"unknown weight_fn {weight_fn!r}")
    lo = np.where(ext, raw, np.inf).min(axis=1, keepdims=True)
    hi = np.where(ext, raw, -np.inf).max(axis=1, keepdims=True)
    span = hi - lo
    safe = np.where(span > 0, span, 1.0)
    scaled = np.where(span > 0, (raw - lo) / safe, 1.0)
    w = _EPS_WEIGHT + (1.0 - _EPS_WEIGHT) * scaled
    return np.where(ext, w, 0.0)


def _expand_matrix(weights: np.ndarray, order: np.ndarray, k_exp: int) -> np.ndarray:
    """Replace each row with the mean of its k_exp nearest rows (self first)."""
    if k_exp == 1:
        return weights
    return weights[order[:, :k_exp]].mean(axis=1)


def _jaccard_against(weights: np.ndarray, probe: int) -> np.ndarray:
    """Jaccard distance of the probe's row against every row.

    sum-of-max is strictly positive for every pair: each row retains
    positive mass on its own index (weight floor, then averaging with
    itself during expansion), so the ratio is always defined.
    """
    vp = weights[probe]
    mins = np.minimum(weights, vp).sum(axis=1)
    maxs = np.maximum(weights, vp).sum(axis=1)
    return 1.0 - mins / maxs


# ---------------------------------------------------------------------------
# one-probe set functions

def nn_set(probe: int, sim_matrix, k: int) -> NeighborSet:
    """The k most similar context indices to `probe`, probe included.

    The probe counts toward k (it ranks first whatever its stored
    self-similarity); among equal similarities the lower index wins. Reads
    the probe's row of the one neighbour selection, `_top_order(sim, k)`.
    """
    sim, probe, k = _set_args(probe, sim_matrix, k)
    return NeighborSet(probe, frozenset(_top_order(sim, k)[probe].tolist()))


def reciprocal_set(probe: int, sim_matrix, k: int) -> NeighborSet:
    """Members of nn_set(probe, k) whose own k-NN set contains the probe.

    Every k-NN set is scattered from `_top_order(sim, k)`, so ties resolve
    as in nn_set.
    """
    sim, probe, k = _set_args(probe, sim_matrix, k)
    mask = _reciprocal_mask(_top_order(sim, k), k)
    return NeighborSet(probe, frozenset(np.nonzero(mask[probe])[0].tolist()))


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
    in the given order. Deterministic for fixed inputs.
    """
    m = context.size
    probes = [_check_probe(p, m) for p in np.atleast_1d(probe)]
    if not probes:
        raise DataError("rnn_scores needs at least one probe index")
    params.validate_for(m)
    if m == 1:
        return np.zeros(0, dtype=np.float64)
    sim = context.sim_matrix
    order = _top_order(sim, max(params.k, params.k_exp))
    ext = _extended_mask(order, params.k, params.tau)
    s_hat = _row_maxmin(sim)
    weights = _expand_matrix(_weight_matrix(s_hat, ext, params.weight_fn), order, params.k_exp)
    acc = np.zeros(m, dtype=np.float64)
    for p in probes:
        acc += params.lam * s_hat[p] + (1.0 - params.lam) * (1.0 - _jaccard_against(weights, p))
    return (acc / len(probes))[1:]
