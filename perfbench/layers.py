"""Which recipnn functions the traced run wraps, and the per-layer metrics
computed from their spans.

Layers are named after the package modules. A span is named
<module where the function is defined>.<function>; it is recorded at the
module that calls the function, because that is where the name is looked up.
"""

from __future__ import annotations

import os
import statistics
from collections import defaultdict
from typing import Sequence

from tracing import Binding, Span, self_time, tail

LOAD = "embeddings.load_embeddings"
PARSE_RUN = "ir_eval.parse_run"
PARSE_QRELS = "ir_eval.parse_qrels"
WRITE_RUN = "ir_eval.write_run"
METRIC_FNS = ("mrr_at_k", "ndcg_at_k", "recall_at_k", "map_at_k")
RERANK_RUN = "rerank.rerank_run"
RERANK_CONTEXT = "rerank.rerank_context"
CONTEXT = "context.context_from_run"
RNN = "neighbors.rnn_scores"
SMOOTH = "smoothing.smooth_dataset"
MEAN_GT = "smoothing.mean_gt_similarity"
WRITE_LABELS = "smoothing.write_soft_labels"


def _qid(args: tuple) -> str | None:
    first = args[0] if args else None
    return first if isinstance(first, str) else getattr(first, "query_id", None)


def _output_bytes(args: tuple, result: object) -> dict:
    return {"bytes": os.path.getsize(args[1])}


BINDINGS: tuple[Binding, ...] = (
    Binding("recipnn.cli", "load_embeddings", LOAD,
            counts=lambda a, r: {"records": len(r), "bytes": os.path.getsize(a[0])}),
    Binding("recipnn.cli", "parse_run", PARSE_RUN,
            counts=lambda a, r: {"lines": sum(len(r[q]) for q in r.query_ids)}),
    Binding("recipnn.cli", "parse_qrels", PARSE_QRELS),
    Binding("recipnn.cli", "rerank_run", RERANK_RUN,
            counts=lambda a, r: {"passthrough": sum(r.lists[q] is a[0].lists[q] for q in r.lists)}),
    Binding("recipnn.cli", "smooth_dataset", SMOOTH,
            counts=lambda a, r: {"skipped": len(r.skipped)}),
    Binding("recipnn.cli", "write_run", WRITE_RUN, counts=_output_bytes),
    Binding("recipnn.cli", "write_soft_labels", WRITE_LABELS, counts=_output_bytes),
    *(Binding("recipnn.cli", fn, f"ir_eval.{fn}") for fn in METRIC_FNS),
    *(b for module in ("recipnn.rerank", "recipnn.smoothing") for b in (
        Binding(module, "context_from_run", CONTEXT, _qid,
                lambda a, r: {"m": r.size, "candidates": r.n_candidates}),
        Binding(module, "rnn_scores", RNN, _qid, lambda a, r: {"m": a[0].size}),
    )),
    Binding("recipnn.rerank", "rerank_context", RERANK_CONTEXT, _qid),
    Binding("recipnn.smoothing", "mean_gt_similarity", MEAN_GT, _qid),
)

# (name, unit) of every per-layer metric, in report order
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("embeddings.load_s", "s"), ("embeddings.records", "count"), ("embeddings.bytes", "bytes"),
    ("ir_eval.parse_run_s", "s"), ("ir_eval.run_lines", "count"),
    ("ir_eval.lines_used_frac", "frac"), ("ir_eval.parse_qrels_s", "s"),
    ("ir_eval.write_run_s", "s"), ("ir_eval.bytes_written", "bytes"), ("ir_eval.metrics_s", "s"),
    ("context.build_s", "s"), ("context.calls", "count"), ("context.build_us_p50", "us"),
    ("context.build_us_tail", "us"), ("context.sim_entries", "count"),
    ("neighbors.rnn_s", "s"), ("neighbors.calls", "count"), ("neighbors.calls_per_context", "ratio"),
    ("neighbors.rnn_us_p50", "us"), ("neighbors.rnn_us_tail", "us"), ("neighbors.pairs_per_s", "1/s"),
    ("rerank.run_s", "s"), ("rerank.self_s", "s"), ("rerank.query_us_p50", "us"),
    ("rerank.query_us_tail", "us"), ("rerank.passthrough", "count"), ("rerank.concurrency", "ratio"),
    ("smoothing.dataset_s", "s"), ("smoothing.self_s", "s"), ("smoothing.mean_gt_s", "s"),
    ("smoothing.write_s", "s"), ("smoothing.probes", "count"), ("smoothing.skipped", "count"),
    ("cli.self_s", "s"), ("cli.import_s", "s"),
    ("trace.overhead_frac", "frac"), ("trace.coverage", "frac"),
)


def _us(values: Sequence[float]) -> list[float]:
    return [v * 1e6 for v in values]


def layer_metrics(spans: Sequence[Span], traced_wall: float, untraced_wall: float,
                  import_s: float) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced invocation, plus a note per tail
    metric saying which percentile of how many samples it is.

    A layer that did not run reads 0, so every workload reports every name.
    """
    by: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by[s.name].append(s)

    def total(*names: str) -> float:
        return sum(s.duration for n in names for s in by[n])

    def attr(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in by[name])

    m: dict[str, float] = {}
    notes: dict[str, str] = {}

    def p50_tail(prefix: str, samples_us: list[float]) -> None:
        m[f"{prefix}_p50"] = statistics.median(samples_us) if samples_us else 0.0
        found = tail(samples_us)
        m[f"{prefix}_tail"] = found[1] if found else 0.0
        notes[f"{prefix}_tail"] = f"{found[0] if found else 'none'} of n={len(samples_us)}"

    contexts, rnns = by[CONTEXT], by[RNN]
    run_lines = attr(PARSE_RUN, "lines")
    m["embeddings.load_s"] = total(LOAD)
    m["embeddings.records"] = attr(LOAD, "records")
    m["embeddings.bytes"] = attr(LOAD, "bytes")
    m["ir_eval.parse_run_s"] = total(PARSE_RUN)
    m["ir_eval.run_lines"] = run_lines
    m["ir_eval.lines_used_frac"] = attr(CONTEXT, "candidates") / run_lines if run_lines else 0.0
    m["ir_eval.parse_qrels_s"] = total(PARSE_QRELS)
    m["ir_eval.write_run_s"] = total(WRITE_RUN)
    m["ir_eval.bytes_written"] = attr(WRITE_RUN, "bytes")
    m["ir_eval.metrics_s"] = total(*(f"ir_eval.{fn}" for fn in METRIC_FNS))

    m["context.build_s"] = total(CONTEXT)
    m["context.calls"] = len(contexts)
    p50_tail("context.build_us", _us([s.duration for s in contexts]))
    m["context.sim_entries"] = sum(s.attrs.get("m", 0) ** 2 for s in contexts)

    rnn_s = total(RNN)
    m["neighbors.rnn_s"] = rnn_s
    m["neighbors.calls"] = len(rnns)
    m["neighbors.calls_per_context"] = len(rnns) / len(contexts) if contexts else 0.0
    p50_tail("neighbors.rnn_us", _us([s.duration for s in rnns]))
    m["neighbors.pairs_per_s"] = sum(s.attrs.get("m", 0) ** 2 for s in rnns) / rnn_s if rnn_s else 0.0

    rerank = by[RERANK_RUN][0] if by[RERANK_RUN] else None
    per_query: dict[str, float] = defaultdict(float)  # context + rerank_context per query
    if rerank is not None:
        for s in by[CONTEXT] + by[RERANK_CONTEXT]:
            per_query[s.query_id] += s.duration
    m["rerank.run_s"] = rerank.duration if rerank else 0.0
    m["rerank.self_s"] = self_time(spans, rerank, (CONTEXT, RNN)) if rerank else 0.0
    p50_tail("rerank.query_us", _us(list(per_query.values())))
    m["rerank.passthrough"] = attr(RERANK_RUN, "passthrough")
    m["rerank.concurrency"] = sum(per_query.values()) / rerank.duration if rerank else 0.0

    smooth = by[SMOOTH][0] if by[SMOOTH] else None
    mean_gt_ids = {s.id for s in by[MEAN_GT]}
    m["smoothing.dataset_s"] = smooth.duration if smooth else 0.0
    m["smoothing.self_s"] = self_time(spans, smooth, (CONTEXT, RNN)) if smooth else 0.0
    m["smoothing.mean_gt_s"] = total(MEAN_GT)
    m["smoothing.write_s"] = total(WRITE_LABELS)
    m["smoothing.probes"] = sum(s.parent in mean_gt_ids for s in rnns)
    m["smoothing.skipped"] = attr(SMOOTH, "skipped")

    top = [(s.start, s.end) for s in spans if s.parent is None]
    top_s = sum(end - start for start, end in top)
    m["cli.self_s"] = traced_wall - top_s
    m["cli.import_s"] = import_s
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    m["trace.coverage"] = top_s / traced_wall
    return {name: float(m[name]) for name, _ in PER_LAYER}, notes
