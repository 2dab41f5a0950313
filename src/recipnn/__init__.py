"""Reciprocal nearest-neighbor similarity over precomputed embeddings.

The package reranks dense-retrieval candidate lists with a mixed
geometric/Jaccard similarity computed from k-reciprocal neighbor sets, and
generates evidence-based smoothed relevance labels for contrastive training.
It ships its own TREC-style evaluation utilities so both applications can be
verified end to end.
"""

__version__ = "0.2.1"

import importlib

# the submodule that defines each public name. Nothing is imported until a
# name is first used, so `import recipnn` does not load numpy.
_EXPORTS = {
    "context": ("RankingContext", "build_context", "context_from_run"),
    "embeddings": ("EmbeddingMatrix", "load_embeddings", "write_embeddings"),
    "errors": ("ConfigError", "DataError", "RecipnnError"),
    "neighbors": ("NeighborSet", "RnnParams", "extended_reciprocal_set", "nn_set", "reciprocal_set", "rnn_scores",
                  "rnn_scores_block"),
    "ir_eval": ("Qrels", "RankedList", "RunFile", "evaluate_metric", "map_at_k", "mrr_at_k", "ndcg_at_k",
                "parse_qrels", "parse_run", "recall_at_k", "write_run"),
    "rerank": ("bench_latency", "rerank_context", "rerank_run"),
    "smoothing": ("SmoothParams", "SmoothResult", "SoftLabelSet", "mean_gt_similarity", "normalize_scores",
                  "read_soft_labels", "smooth_dataset", "softmax", "transform_scores", "uniform_smooth",
                  "write_soft_labels"),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _EXPORTS:  # a submodule, as `import recipnn` used to load them all
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

