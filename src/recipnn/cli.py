"""Command-line entry point: recipnn <command> [flags].

Commands: rerank, smooth, eval, sweep, bench, convert, selftest. Every
command takes --config FILE (flat key=value lines) and --preset NAME, with
explicit flags overriding both. Exit codes: 0 ok, 1 configuration error,
2 data error (an input that cannot be read or an output that cannot be
written included), 3 internal error. Output files begin with a '#'
provenance header carrying the tool version and a hash of the effective
parameters; file paths and --threads never influence output bytes. Every
flag reaches the command's code. --threads N runs the queries of rerank,
smooth and sweep in N worker processes, forked after the inputs are loaded
and capped at the CPUs this process may use (`parallel.score_in_blocks`).

BLAS runs on one thread in every process. Each process does its work on
one thread, and BLAS worker threads left spinning after each similarity
product slowed the code that follows. Importing this module, before numpy is
loaded, sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS to 1
when none of them is set; if the user set any of them, all three are left
alone. Code that imports numpy before this module keeps its BLAS threading.

glibc's allocator runs on one fixed policy. By default glibc moves its
mmap threshold up to the size of the largest mapped buffer freed so far,
and trims the heap top above twice that. So whether the kernel's m×m
temporaries are reused or mapped and faulted in again on every context
depended on which buffer some reader happened to free. On Linux, importing
this module sets M_MMAP_THRESHOLD to 32 MiB (the glibc maximum on 64-bit)
and M_TRIM_THRESHOLD to 64 MiB with mallopt, once, before any input is
loaded. A fixed threshold never moves, so this process and every worker
forked from it reuse those temporaries whatever the heap layout. Where the
C library has no mallopt, nothing is set.
"""

from __future__ import annotations

import ctypes
import os
import sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if not any(var in os.environ for var in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
_mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform.startswith("linux") else None
if _mallopt is not None:
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD, the glibc maximum on 64-bit
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD

import argparse
import logging
import time
from functools import partial
from typing import Callable

import numpy as np

from . import __version__
from .config import (COMMAND_KEYS, GRID_KEYS, REQUIRED_KEYS, coerce_value, display_key, effective_config,
                     grid_values, header_line, key_help, key_type, parse_config_file, rnn_grid,
                     rnn_params_from, smooth_params_from)
from .embeddings import load_embeddings, write_embeddings
from .errors import ConfigError, DataError, check_positive, check_seed
from .ir_eval import (check_tag, evaluate_metric, map_at_k, mrr_at_k, ndcg_at_k, parse_qrels, parse_run,
                      recall_at_k, write_run)
from .neighbors import WEIGHT_FNS, RnnParams, extended_reciprocal_set, rnn_scores_block
from .oracle import extended_oracle, mixed_scores_oracle
from .parallel import score_in_blocks
from .rerank import bench_latency, check_depths, check_sweep, rerank_context, rerank_run
from .smoothing import check_smooth_options, smooth_dataset, write_soft_labels
from .synthetic import random_context

try:
    import resource
except ImportError:  # not on every platform
    resource = None

logger = logging.getLogger(__name__)

_BENCH_SIZES = (50, 100, 200, 400)


class _Parser(argparse.ArgumentParser):
    """argparse reports usage errors via ConfigError so they exit with code 1."""

    def error(self, message):
        raise ConfigError(message)


def _add_key_flags(sub: argparse.ArgumentParser, command: str) -> None:
    for key in sorted(COMMAND_KEYS[command]):
        flag = "--" + display_key(key)
        help_text = key_help(key) + (" (required)" if key in REQUIRED_KEYS[command] else "")
        tag = key_type(key)
        if tag == "bool":
            sub.add_argument(flag, dest=key, action=argparse.BooleanOptionalAction,
                             default=None, help=help_text)
        elif tag in ("str", "path"):
            sub.add_argument(flag, dest=key, type=str, default=None, help=help_text)
        else:  # numbers parse as in config files
            sub.add_argument(flag, dest=key, type=partial(coerce_value, key), default=None,
                             metavar={"ints": "N,N,...", "floats": "X,X,..."}.get(tag), help=help_text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="recipnn",
                     description="Reciprocal nearest-neighbor reranking, label smoothing "
                                 "and IR evaluation over precomputed embeddings.")
    parser.add_argument("--version", action="version", version=f"recipnn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {  # the README's command table, row for row
        "rerank": "rerank a run file by mixed reciprocal-NN similarity",
        "smooth": "emit evidence-based soft-label targets (JSONL)",
        "eval": "print MRR/nDCG/Recall/MAP for a run against qrels",
        "sweep": "evaluate reranking across context sizes and k, k-exp, tau, lambda grids (CSV)",
        "bench": "time reranking on synthetic contexts (CSV)",
        "convert": "transcode embedding files between binary and tsv",
        "selftest": "cross-check the weighted, expanded pipeline against the naive oracle",
    }
    for command, help_text in helps.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.add_argument("--preset", default=None, help="named parameter preset")
        p.add_argument("--verbose", action="store_true",
                       help="log input sizes, query counts, stage seconds and peak RSS to stderr (INFO)")
        _add_key_flags(p, command)
    return parser


def _timed(fn: Callable, *args, **kwargs) -> tuple[object, float]:
    """fn(*args, **kwargs) and the seconds it took."""
    start = time.perf_counter()
    return fn(*args, **kwargs), time.perf_counter() - start


# readers and writers that log, at INFO, what they moved and the seconds it took

def _read_embeddings(path):
    embeddings, seconds = _timed(load_embeddings, path)
    logger.info("loaded %d vectors of dim %d from %s in %.3f s", len(embeddings), embeddings.dim, path, seconds)
    return embeddings


def _read_run(path, known_ids=()):
    # the commands that load a store first pass its ids, so the run holds no copy of them
    run, seconds = _timed(parse_run, path, known_ids=known_ids)
    logger.info("parsed %d queries, %d run lines from %s in %.3f s",
                len(run), sum(len(run[qid]) for qid in run.query_ids), path, seconds)
    return run


def _read_qrels(path):
    qrels, seconds = _timed(parse_qrels, path)
    logger.info("parsed judgments for %d queries from %s in %.3f s", len(qrels.query_ids), path, seconds)
    return qrels


def _write(write: Callable, *args, **kwargs) -> None:
    """write(value, path, ...), with the seconds it took logged at INFO."""
    _, seconds = _timed(write, *args, **kwargs)
    logger.info("wrote %s in %.3f s", args[1], seconds)


def _peak_rss_mb() -> tuple[float, float]:
    """Peak RSS in MB of this process, and of the largest child process it
    has waited for (since the process started, before its exec included)."""
    scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes on macOS, in KiB on Linux
    own, children = (resource.getrusage(who).ru_maxrss * scale / 2**20
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return own, children


def _log_peak_rss(children_before: float) -> None:
    """Log, at INFO, the peak RSS of this process and, when worker processes
    ran, of the largest of them. A worker starts with this process's loaded
    inputs, so it raises the children's peak above any earlier child's."""
    own, children = _peak_rss_mb()
    if children > children_before:
        logger.info("peak RSS %.1f MB, largest worker process %.1f MB", own, children)
    else:
        logger.info("peak RSS %.1f MB", own)


def _write_text(text: str, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _metric_table(rows: list[tuple[str, list[float]]], columns: list[str]) -> str:
    header = f"{'metric':<12}" + "".join(f" {c:>12}" for c in columns)
    lines = [header]
    for name, values in rows:
        lines.append(f"{name:<12}" + "".join(f" {v:>12.6f}" for v in values))
    return "\n".join(lines)


def _standard_metrics(run, qrels, cutoff: int, rel_threshold: int) -> list[tuple[str, float]]:
    return [
        (f"mrr@{cutoff}", mrr_at_k(run, qrels, cutoff, rel_threshold)),
        (f"ndcg@{cutoff}", ndcg_at_k(run, qrels, cutoff)),
        (f"recall@{cutoff}", recall_at_k(run, qrels, cutoff, rel_threshold)),
        (f"map@{cutoff}", map_at_k(run, qrels, cutoff, rel_threshold)),
    ]


def cmd_rerank(cfg: dict) -> None:
    check_tag(cfg["tag"])
    check_positive("cutoff", cfg["cutoff"])
    params = rnn_params_from(cfg)
    check_depths(cfg["n_context"], cfg.get("top_k"))
    check_positive("threads", cfg["threads"])
    embeddings = _read_embeddings(cfg["embeddings"])
    run = _read_run(cfg["run"], embeddings.keys())
    before = None
    if cfg.get("qrels"):  # before scoring: qrels that cannot be read or judge no run query stop the command here
        qrels = _read_qrels(cfg["qrels"])
        before = _standard_metrics(run, qrels, cfg["cutoff"], cfg["rel_threshold"])
    reranked, seconds = _timed(rerank_run, run, embeddings, params, cfg["n_context"],
                               top_k=cfg.get("top_k"), strict=cfg["strict"], workers=cfg["threads"])
    passed = sum(reranked[qid] is run[qid] for qid in run.query_ids)  # rerank_run passes such a list through as is
    logger.info("scored %d queries (%d passed through) in %.3f s", len(reranked) - passed, passed, seconds)
    _write(write_run, reranked, cfg["output"], tag=cfg["tag"], header=header_line(cfg, __version__))
    print(f"reranked {len(reranked) - passed} queries ({passed} passed through) -> {cfg['output']}")
    if before is not None:
        after = _standard_metrics(reranked, qrels, cfg["cutoff"], cfg["rel_threshold"])
        rows = [(name, [b, a]) for (name, b), (_, a) in zip(before, after)]
        print(_metric_table(rows, ["before", "after"]))


def cmd_smooth(cfg: dict) -> None:
    params = smooth_params_from(cfg)
    check_smooth_options(cfg["n_context"], cfg["mode"], cfg["epsilon"])
    check_positive("threads", cfg["threads"])
    embeddings = _read_embeddings(cfg["embeddings"])
    run = _read_run(cfg["run"], embeddings.keys())
    qrels = _read_qrels(cfg["qrels"])
    result, seconds = _timed(smooth_dataset, run, qrels, embeddings, params,
                             n_context=cfg["n_context"], mode=cfg["mode"],
                             epsilon=cfg["epsilon"], rel_threshold=cfg["rel_threshold"],
                             strict=cfg["strict"], workers=cfg["threads"])
    logger.info("scored %d queries (%d skipped) in %.3f s", len(result.label_sets), len(result.skipped), seconds)
    _write(write_soft_labels, result.label_sets, cfg["output"], header=header_line(cfg, __version__))
    print(f"smoothed {len(result.label_sets)} queries "
          f"({len(result.skipped)} skipped) -> {cfg['output']}")
    print(f"mean ground-truth mass: {result.mean_gt_mass:.6f}")


def cmd_eval(cfg: dict) -> None:
    check_positive("cutoff", cfg["cutoff"])
    run = _read_run(cfg["run"])
    qrels = _read_qrels(cfg["qrels"])
    rows = [(name, [value]) for name, value
            in _standard_metrics(run, qrels, cfg["cutoff"], cfg["rel_threshold"])]
    print(_metric_table(rows, ["value"]))


def cmd_sweep(cfg: dict) -> None:
    """One CSV row per (setting, size): n, the value of each grid key given several, the metric."""
    grid = rnn_grid(cfg)
    varied = [key for key in GRID_KEYS if len(grid_values(cfg, key)) > 1]
    sizes = check_sweep(cfg["sizes"], cfg["metric"])
    check_positive("threads", cfg["threads"])
    embeddings = _read_embeddings(cfg["embeddings"])
    run = _read_run(cfg["run"], embeddings.keys())
    qrels = _read_qrels(cfg["qrels"])
    metric = cfg["metric"]
    names = [display_key(key) for key in varied]
    lines = [f"# {header_line(cfg, __version__)}", ",".join(["n", *names, metric])]
    start = time.perf_counter()
    for params in grid:
        setting = [repr(getattr(params, key)) for key in varied]
        cell = "".join(f" {name}={value}" for name, value in zip(names, setting))
        for n in sizes:
            reranked = rerank_run(run, embeddings, params, n, workers=cfg["threads"])
            value = evaluate_metric(metric, reranked, qrels, rel_threshold=cfg["rel_threshold"])
            lines.append(",".join([str(n), *setting, repr(value)]))
            logger.info("n=%d%s: %s %r, %d queries passed through", n, cell, metric, value,
                        sum(reranked[qid] is run[qid] for qid in run.query_ids))
    swept = f"{len(sizes)} context sizes" + (f" x {len(grid)} settings" if len(grid) > 1 else "")
    logger.info("scored %d queries at %s in %.3f s", len(run), swept, time.perf_counter() - start)
    _write(_write_text, "\n".join(lines) + "\n", cfg["output"])
    print(f"swept {swept} -> {cfg['output']}")


def cmd_bench(cfg: dict) -> None:
    cfg.setdefault("sizes", _BENCH_SIZES)  # the sizes timed are the sizes the header names
    rows = bench_latency(cfg["sizes"], cfg["trials"], rnn_params_from(cfg),
                         dim=cfg["dim"], seed=cfg["seed"])
    lines = [f"# {header_line(cfg, __version__)}", "n,mean_ms,p95_ms"]
    lines += [f"{n},{mean:.3f},{p95:.3f}" for n, mean, p95 in rows]
    text = "\n".join(lines) + "\n"
    if cfg.get("output"):
        _write(_write_text, text, cfg["output"])
        print(f"benchmarked {len(rows)} context sizes -> {cfg['output']}")
    else:
        print(text, end="")


def cmd_convert(cfg: dict) -> None:
    fmt = cfg["to"]
    if fmt not in ("binary", "tsv"):
        raise ConfigError(f"--to must be binary or tsv, got {fmt!r}")
    matrix = load_embeddings(cfg["input"])
    write_embeddings(matrix, cfg["output"], fmt=fmt)
    print(f"wrote {len(matrix)} vectors (dim {matrix.dim}) as {fmt} -> {cfg['output']}")


def cmd_selftest(cfg: dict) -> None:
    """Random cross-checks of the route every command scores through against the naive oracle."""
    trials = cfg["trials"]
    check_positive("trials", trials)
    rng = np.random.default_rng([check_seed(cfg["seed"]), 4242])
    for trial in range(trials):
        n = int(rng.integers(4, 40))
        dim = int(rng.integers(2, 9))
        ctx = random_context(rng, n, dim, query_id=f"selftest-{trial}")
        # preset-shaped parameters: k up to 21, k_exp up to 8 or the whole
        # context. Half the contexts take k up to 4, where singleton sets (whose
        # weight the zero-span rule sets) sit beside larger ones.
        k_max = 4 if rng.uniform() < 0.5 else min(21, ctx.size)
        k = int(rng.integers(1, k_max + 1))
        k_exp = ctx.size if rng.uniform() < 0.25 else int(rng.integers(1, min(8, ctx.size) + 1))
        lam = float(rng.uniform())
        tau = float(rng.uniform())
        # three contexts of one size (the third of exact duplicates), which
        # score_in_blocks scores as one block, and one a size larger, scored alone. Every
        # context probes the query on even trials, as rerank does; one or two random indices on odd ones.
        dup_ctx = random_context(rng, n, dim, query_id=f"selftest-{trial}-duplicates", distinct=-(-n // 3))
        jobs = {c.query_id: (c, [0] if trial % 2 == 0 else
                             rng.choice(c.size, size=int(rng.integers(1, 3)), replace=False).tolist())
                for c in (ctx, random_context(rng, n, dim, query_id=f"selftest-{trial}-b"), dup_ctx,
                          random_context(rng, n + 1, dim, query_id=f"selftest-{trial}-larger"))}
        for weight_fn in WEIGHT_FNS:
            params = RnnParams(k=k, k_exp=k_exp, tau=tau, lam=lam, weight_fn=weight_fn)
            rows = score_in_blocks(list(jobs), jobs.__getitem__, lambda cs, ps: rnn_scores_block(cs, params, ps))
            for (c, probes), fast in zip(jobs.values(), rows):
                slow = np.mean([mixed_scores_oracle(c, k, lam, tau, p, k_exp=k_exp, weight_fn=weight_fn)
                                for p in probes], axis=0)
                worst = float(np.max(np.abs(fast - slow)))
                if worst > 1e-9:
                    raise RuntimeError(f"selftest: mixed scores diverge from oracle by {worst:.3e} ({c.query_id}, "
                                       f"n={c.n_candidates}, k={k}, k_exp={k_exp}, tau={tau:.3f}, {weight_fn}, "
                                       f"probes={probes})")
        probe = int(rng.integers(0, ctx.size))
        fast_set = extended_reciprocal_set(probe, ctx.sim_matrix, k, tau).members
        if set(fast_set) != extended_oracle(ctx.sim_matrix, probe, k, tau):
            raise RuntimeError(f"selftest: extended sets diverge (trial {trial}, probe {probe}, "
                               f"k={k}, tau={tau:.3f})")
        # lambda=1 gives back the candidate order, also among exact duplicates
        for c in (ctx, dup_ctx):
            geo = rerank_context(c, RnnParams(k=k, k_exp=1, tau=0.0, lam=1.0, weight_fn="binary"))
            if geo.doc_ids != list(c.candidate_ids):
                raise RuntimeError(f"selftest: lambda=1 ordering differs from geometry ({c.query_id})")
    print(f"selftest: {trials} random contexts checked, all routes agree")


_COMMANDS = {
    "rerank": cmd_rerank,
    "smooth": cmd_smooth,
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "bench": cmd_bench,
    "convert": cmd_convert,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING,
                            format="%(levelname)s %(name)s: %(message)s")
        file_values = parse_config_file(args.config) if args.config else None
        flag_values = {key: getattr(args, key, None) for key in COMMAND_KEYS[args.command]}
        cfg = effective_config(args.command, args.preset, file_values, flag_values)
        peak_logged = resource is not None and args.command in ("rerank", "smooth", "sweep")
        children_before = _peak_rss_mb()[1] if peak_logged else 0.0
        _COMMANDS[args.command](cfg)
        if peak_logged:
            _log_peak_rss(children_before)
        return 0
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:  # OSError: mostly an output that cannot be written
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort CLI boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
