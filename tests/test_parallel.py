"""The worker-process route behind --threads: placement, order and failures.

Tests that start workers pretend the host has four CPUs, so that two
workers run even where the tests themselves get one CPU.
"""

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import recipnn
from recipnn import parallel
from recipnn.errors import ConfigError
from recipnn.neighbors import RnnParams
from recipnn.parallel import map_queries, worker_count
from recipnn.rerank import check_depths
from recipnn.smoothing import SmoothParams


@pytest.fixture
def four_cpus(monkeypatch):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)


def test_worker_count_is_capped_by_cpus_and_queries():
    assert worker_count(1, 100, 8) == 1
    assert worker_count(10**6, 100, 8) == 8
    assert worker_count(8, 3, 8) == 3  # fewer queries than CPUs
    assert worker_count(2, 0, 8) == 1


def test_worker_processes_get_batches_that_fork_them_once_for_a_deep_run(monkeypatch):
    # workers fork once per batch: 100 queries at depth 400 make one batch at two workers
    monkeypatch.setattr(parallel, "available_cpus", lambda: 2)
    assert parallel.batch_lines(1) == parallel._BATCH_LINES
    assert parallel.batch_lines(2) == parallel.batch_lines(8) >= 100 * 400
    monkeypatch.setattr(parallel, "available_cpus", lambda: 1)
    assert parallel.batch_lines(2) == parallel._BATCH_LINES


def test_non_positive_worker_count_is_refused():
    for workers in (0, -3):
        with pytest.raises(ConfigError, match="workers"):
            map_queries(list, ["a"], workers)


@pytest.mark.parametrize("call", [
    lambda: RnnParams(k=True, k_exp=True),
    lambda: SmoothParams(n_max=True),
    lambda: check_depths(True, True),
    lambda: map_queries(list, ["a"], workers=True),
], ids=["rnn-params", "smooth-params", "depths", "workers"])
def test_a_bool_is_not_a_positive_integer(call):
    with pytest.raises(ConfigError, match="must be a positive integer, got True"):
        call()


def test_two_workers_run_outside_the_parent_and_keep_query_order(four_cpus):
    def where(query_id):
        time.sleep(0.01)  # long enough that both workers take shards
        return query_id, os.getpid()

    query_ids = [f"q{i:02d}" for i in range(40)]
    out = map_queries(lambda shard: [where(q) for q in shard], query_ids, workers=2)
    assert [q for q, _ in out] == query_ids
    pids = {pid for _, pid in out}
    assert os.getpid() not in pids and len(pids) >= 2


@pytest.mark.parametrize("workers", [1, 2])
def test_each_call_gets_one_contiguous_shard(four_cpus, workers):
    # the shard function sees whole runs of consecutive ids, so it can
    # score their contexts in blocks; one worker gets every id at once
    query_ids = [f"q{i:02d}" for i in range(30)]
    out = map_queries(lambda shard: [tuple(shard)] * len(shard), query_ids, workers)
    shards = list(dict.fromkeys(out))
    assert [q for shard in shards for q in shard] == query_ids
    assert len(shards) == (1 if workers == 1 else 8)


def test_one_worker_runs_inline():
    assert map_queries(lambda shard: [(q, os.getpid()) for q in shard], ["a", "b"], workers=1) == \
        [("a", os.getpid()), ("b", os.getpid())]


def test_a_worker_that_dies_is_an_error_not_a_hang():
    # in a fresh interpreter with a deadline, so a hang fails instead of stalling the suite
    code = textwrap.dedent("""
        import os
        from concurrent.futures.process import BrokenProcessPool
        from recipnn import parallel

        parallel.available_cpus = lambda: 4
        parent = os.getpid()

        def die_in_a_worker(shard):
            if os.getpid() != parent and 7 in shard:
                os._exit(1)
            return shard

        try:
            parallel.map_queries(die_in_a_worker, list(range(20)), workers=2)
        except BrokenProcessPool:
            print("broken pool")
    """)
    env = dict(os.environ)
    src = str(Path(recipnn.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "broken pool\n"), done.stderr
