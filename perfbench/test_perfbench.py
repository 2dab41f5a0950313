"""Self-tests of the benchmark's own arithmetic and tracing.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from layers import BINDINGS, PER_LAYER, layer_metrics
from run import E2E, TRACED
from tracing import Binding, Span, Tracer, install, self_time, tail, tail_permille

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("n, permille", [(1000, 990), (100, 900), (1334, 990), (400, 950),
                                         (20, 500), (19, None), (10000, 999)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, permille):
    assert tail_permille(n) == permille
    if permille is not None:
        values = list(range(1, n + 1))
        _, value = tail(values)
        assert sum(v > value for v in values) >= 10
        assert tail(values)[0] == f"p{permille / 10:g}"


def test_tail_labels_and_values():
    assert tail([float(v) for v in range(1, 1001)]) == ("p99", 990.0)
    assert tail([float(v) for v in range(1, 101)]) == ("p90", 90.0)
    assert tail([1.0] * 19) is None


def _span(id, name, start, end, parent=None):
    return Span(id, name, start, end, parent)


def test_self_time_subtracts_the_union_of_children():
    spans = [_span(0, "root", 0.0, 10.0),
             _span(1, "a", 1.0, 4.0, 0), _span(2, "a.inner", 2.0, 3.0, 1),
             _span(3, "b", 3.0, 6.0, 0)]
    assert self_time(spans, spans[0], ["a", "b"]) == pytest.approx(5.0)        # 10 - |[1, 6]|
    assert self_time(spans, spans[0], ["a", "a.inner", "b"]) == pytest.approx(5.0)
    assert self_time(spans, spans[1], ["a.inner"]) == pytest.approx(2.0)       # 3 - 1
    assert self_time(spans, spans[0], ["a.inner"]) == pytest.approx(9.0)
    assert self_time(spans, spans[0], ["absent"]) == pytest.approx(10.0)


def test_self_time_counts_overlapping_worker_spans_once():
    # two workers under one pool span, each with a nested call
    spans = [_span(0, "pool", 0.0, 10.0),
             _span(1, "ctx", 1.0, 5.0, 0), _span(2, "rnn", 2.0, 4.5, 1),
             _span(3, "ctx", 2.0, 7.0, 0), _span(4, "rnn", 6.0, 9.0, 3)]
    assert self_time(spans, spans[0], ["ctx"]) == pytest.approx(4.0)            # 10 - |[1, 7]|
    assert self_time(spans, spans[0], ["ctx", "rnn"]) == pytest.approx(2.0)  # 10 - |[1, 9]|
    assert self_time(spans, spans[0], ["rnn"]) == pytest.approx(4.5)  # 10 - |[2, 4.5] + [6, 9]|


def test_worker_thread_spans_nest_under_the_span_that_started_the_pool(monkeypatch):
    mod = types.ModuleType("perfbench_fake")
    barrier = threading.Barrier(2, timeout=10)

    def leaf(x):
        barrier.wait()  # both workers are inside a leaf at once
        return x * 2

    def pool_run(xs):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(mod.leaf, xs))

    mod.leaf, mod.pool_run = leaf, pool_run
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tracer = Tracer()
    restore, absent = install(tracer, [Binding(mod.__name__, "pool_run", "pool"),
                                       Binding(mod.__name__, "leaf", "leaf", query_of=lambda a: f"q{a[0]}")])
    try:
        assert mod.pool_run(range(4)) == [0, 2, 4, 6]
    finally:
        restore()
    assert absent == []
    (root,) = [s for s in tracer.spans if s.name == "pool"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert root.parent is None
    assert sorted(s.query_id for s in leaves) == ["q0", "q1", "q2", "q3"]
    assert all(s.parent == root.id and root.start <= s.start <= s.end <= root.end for s in leaves)


def test_failed_call_is_recorded_and_reraised(monkeypatch):
    mod = types.ModuleType("perfbench_fake_fail")

    def boom():
        raise ValueError("no")

    mod.boom = boom
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tracer = Tracer()
    restore, _ = install(tracer, [Binding(mod.__name__, "boom", "boom")])
    try:
        with pytest.raises(ValueError):
            mod.boom()
    finally:
        restore()
    assert [(s.name, s.ok) for s in tracer.spans] == [("boom", False)]


def test_install_restores_every_binding_it_replaced():
    originals = {(b.module, b.attr): getattr(importlib.import_module(b.module), b.attr)
                 for b in BINDINGS}
    restore, absent = install(Tracer(), BINDINGS)
    try:
        assert absent == []
        for (module, attr), fn in originals.items():
            assert getattr(importlib.import_module(module), attr) is not fn
    finally:
        restore()
    for (module, attr), fn in originals.items():
        assert getattr(importlib.import_module(module), attr) is fn


def test_missing_binding_is_reported_absent_without_crashing():
    import recipnn.cli
    import recipnn.smoothing

    original = recipnn.cli.parse_run
    restore, absent = install(Tracer(), [Binding("recipnn.smoothing", "no_such_function", "x"),
                                         Binding("recipnn_no_such_module", "f", "y"),
                                         Binding("recipnn.cli", "parse_run", "ir_eval.parse_run")])
    try:
        assert absent == ["recipnn.smoothing.no_such_function", "recipnn_no_such_module.f"]
        assert recipnn.cli.parse_run.__wrapped__ is original  # the rest still got wrapped
    finally:
        restore()
    assert recipnn.cli.parse_run is original
    assert not hasattr(recipnn.smoothing, "no_such_function")
    # with the spans of an absent layer missing, its metrics read 0
    metrics, notes = layer_metrics([], traced_wall=1.0, untraced_wall=1.0, import_s=0.1)
    assert metrics["neighbors.calls"] == 0 and metrics["cli.self_s"] == 1.0
    assert notes["neighbors.rnn_us_tail"] == "none of n=0"


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(E2E)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(TRACED)
    assert len(PER_LAYER) < len(TRACED) <= 128
