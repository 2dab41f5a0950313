"""Naive reference implementation of the whole rNN pipeline, for cross-checking.

Everything here recomputes what `neighbors.rnn_scores` does with Python
lists, sets, sorted() calls and scalar arithmetic: k-NN, reciprocal and
tau-extended sets, weighted connectivity vectors, local expansion over each
element's k_exp nearest neighbours, the weighted Jaccard distance and the
lambda mixture (Zhong et al.'s weighted k-reciprocal encoding with local
query expansion, as this package adapts it). Nothing is imported from
`neighbors` and no numpy vectorization is used, so the fast pipeline is
validated against an independently written route. `soft_labels_oracle`
carries the route on through the smoothing equations, importing nothing
from `smoothing`. Used by the test suite and the `selftest` CLI command.
Cubic or worse; only for small contexts.
"""

from __future__ import annotations

import math

from .context import RankingContext

# written out here, not imported from the kernel, so the two routes share
# no code: the floor of the affine weight map
_EPS_WEIGHT = 1e-6


def _rows(sim_matrix) -> list[list[float]]:
    return [[float(x) for x in row] for row in sim_matrix]


def _orders(rows: list[list[float]]) -> list[list[int]]:
    """Every row's full neighbour ordering: the row's own index first, then
    the others by similarity descending, ties by index ascending."""
    return [sorted(range(len(row)), key=lambda j: (j != i, -row[j], j)) for i, row in enumerate(rows)]


def _reciprocal(orders: list[list[int]], probe: int, k: int) -> set[int]:
    return {c for c in orders[probe][:k] if probe in orders[c][:k]}


def _extended(orders: list[list[int]], probe: int, k: int, tau: float) -> set[int]:
    """Single-pass extension: merge R(c, round(tau*k)) for members whose
    smaller set overlaps the original set in at least two thirds."""
    base = _reciprocal(orders, probe, k)
    tk = math.floor(tau * k + 0.5)
    out = set(base)
    if tk >= 1:
        for c in base:
            r_c = _reciprocal(orders, c, tk)
            if 3 * len(base & r_c) >= 2 * len(r_c):
                out |= r_c
    return out


def nn_oracle(sim_matrix, probe: int, k: int) -> set[int]:
    """k nearest indices to probe, probe first, ties by index ascending."""
    return set(_orders(_rows(sim_matrix))[probe][:k])


def reciprocal_oracle(sim_matrix, probe: int, k: int) -> set[int]:
    return _reciprocal(_orders(_rows(sim_matrix)), probe, k)


def extended_oracle(sim_matrix, probe: int, k: int, tau: float) -> set[int]:
    return _extended(_orders(_rows(sim_matrix)), probe, k, tau)


def normalized_geo_row(sim_matrix, probe: int) -> list[float]:
    """Scalar re-implementation of the per-row max-min normalization; a
    constant row (zero span) maps to 0."""
    row = [float(x) for x in sim_matrix[probe]]
    lo, hi = min(row), max(row)
    return [(x - lo) / (hi - lo) if hi > lo else 0.0 for x in row]


def connectivity_oracle(s_hat_row: list[float], members: set[int], weight_fn: str) -> list[float]:
    """A probe's connectivity vector over the context: zero off `members`.

    Binary weights are 1 on members. Otherwise each member j gets f_w of the
    normalized distance 1 - s_hat_row[j], and the members' values are mapped
    affinely onto [1e-6, 1]; a single member, or members of equal value, map
    to 1.
    """
    out = [0.0] * len(s_hat_row)
    if weight_fn == "binary":
        for j in members:
            out[j] = 1.0
        return out
    f_w = {"neg_identity": lambda d: -d, "exp_neg": lambda d: math.exp(-d)}[weight_fn]
    raw = {j: f_w(1.0 - s_hat_row[j]) for j in members}
    lo, hi = min(raw.values()), max(raw.values())
    for j, x in raw.items():
        out[j] = _EPS_WEIGHT + (1.0 - _EPS_WEIGHT) * ((x - lo) / (hi - lo) if hi > lo else 1.0)
    return out


def expansion_oracle(vectors: list[list[float]], orders: list[list[int]], k_exp: int) -> list[list[float]]:
    """Each element's vector replaced by the mean of the vectors of its first
    k_exp neighbours in `orders` (its own first)."""
    return [[sum(vectors[c][j] for c in order[:k_exp]) / k_exp for j in range(len(vectors))]
            for order in orders]


def jaccard_oracle(a: list[float], b: list[float]) -> float:
    """Weighted Jaccard distance: 1 - sum of minima / sum of maxima."""
    return 1.0 - sum(map(min, a, b)) / sum(map(max, a, b))


def mixed_scores_oracle(context: RankingContext, k: int, lam: float, tau: float = 0.0, probe: int = 0,
                        *, k_exp: int = 1, weight_fn: str = "binary") -> list[float]:
    """Candidate scores of `probe`, as rnn_scores computes them.

    s* = lam * s_hat + (1 - lam) * (1 - Jaccard of the expanded connectivity
    vectors built on the tau-extended reciprocal sets). Aligned with
    context.element_ids[1:].
    """
    rows = _rows(context.sim_matrix)
    orders = _orders(rows)
    vectors = expansion_oracle([connectivity_oracle(normalized_geo_row(rows, i), _extended(orders, i, k, tau), weight_fn)
                                for i in range(context.size)], orders, k_exp)
    s_hat = normalized_geo_row(rows, probe)
    return [lam * s_hat[j] + (1.0 - lam) * (1.0 - jaccard_oracle(vectors[probe], vectors[j]))
            for j in range(1, context.size)]


def ranked_ids_oracle(context: RankingContext, k: int, lam: float,
                      tau: float = 0.0) -> list[str]:
    """Candidate ids ordered by oracle mixed score desc, ties by id asc."""
    scores = mixed_scores_oracle(context, k, lam, tau)
    ids = list(context.candidate_ids)
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], ids[i]))
    return [ids[i] for i in order]


def soft_labels_oracle(context: RankingContext, gt_ids, *, k: int, lam: float, tau: float = 0.0, k_exp: int = 1,
                       weight_fn: str = "binary", b: float = 1.0, n_max: int = 32, f_n: str = "maxmin",
                       mode: str = "eb", epsilon: float = 0.1) -> list[tuple[str, float]]:
    """A query's soft labels over its context's candidates, as smooth_dataset makes them.

    From the paper's equations, one candidate d at a time. r(d) is the mean
    over the ground-truth docs g (in id order) of the mixed similarity
    s*(g, d) of `mixed_scores_oracle`, with k and k_exp cut to the context
    size. Candidates rank by r descending, ties by id. f_n(r) is
    (r - min)/(max - min) for maxmin and (r - min)/sigma (population sigma)
    for stdbased; a constant r normalizes to zeros. r'(d) is b*f_n(r(d)) for
    ground truth, -inf for another candidate ranked beyond n_max, else
    f_n(r(d)); the eb labels are softmax(r'). uniform gives each ground-truth
    doc (1 - epsilon)/|gt| and every other candidate epsilon/(n - |gt|);
    uniform-matched does the same with epsilon set to the eb labels' mass
    off the ground truth. Returns (doc id, probability) pairs ordered by
    probability descending, then id.
    """
    m = context.size
    ids = list(context.candidate_ids)
    gt = sorted(set(gt_ids))
    rows = [mixed_scores_oracle(context, min(k, m), lam, tau, context.element_ids.index(g),
                                k_exp=min(k_exp, m), weight_fn=weight_fn) for g in gt]
    r = [sum(column) / len(rows) for column in zip(*rows)]
    n = len(r)
    rank = {i: pos for pos, i in enumerate(sorted(range(n), key=lambda i: (-r[i], ids[i])), start=1)}
    lo = min(r)
    if f_n == "maxmin":
        spread = max(r) - lo
    else:
        mean = sum(r) / n
        spread = math.sqrt(sum((x - mean) ** 2 for x in r) / n)
    normed = [(x - lo) / spread if spread > 0 else 0.0 for x in r]
    is_gt = [d in gt for d in ids]

    if mode in ("eb", "uniform-matched"):
        r_prime = [b * normed[i] if is_gt[i] else -math.inf if rank[i] > n_max else normed[i] for i in range(n)]
        top = max(x for x in r_prime if x > -math.inf)
        e = [math.exp(x - top) if x > -math.inf else 0.0 for x in r_prime]
        probs = [x / sum(e) for x in e]
    if mode != "eb":
        eps = epsilon if mode == "uniform" else sum(p for p, g in zip(probs, is_gt) if not g)
        n_gt = sum(is_gt)
        probs = [(1.0 - eps) / n_gt if g else eps / (n - n_gt) for g in is_gt]
    return sorted(zip(ids, probs), key=lambda entry: (-entry[1], entry[0]))
