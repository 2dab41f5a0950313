"""Command-line entry point: recipnn <command> [flags].

Commands: rerank, smooth, eval, sweep, bench, convert, selftest. Every
command takes --config FILE (flat key=value lines) and --preset NAME, with
explicit flags overriding both. Exit codes: 0 ok, 1 configuration error,
2 data error (an input that cannot be read or an output that cannot be
written included), 3 internal error. Output files begin with a '#'
provenance header carrying the tool version and a hash of the effective
parameters; file paths and --threads never influence output bytes. Every
flag reaches the command's code. --threads N runs the queries of rerank,
smooth and sweep in N worker processes, capped at the CPUs this process may
use (`parallel.score_in_blocks`).

rerank and smooth read, score and write the run one batch of whole query
groups at a time, through a temporary output file; `_stream` says how.

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
import stat
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
from contextlib import suppress
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from . import __version__
from .config import (COMMAND_KEYS, GRID_KEYS, REQUIRED_KEYS, coerce_value, display_key, effective_config,
                     grid_values, header_line, key_help, key_type, parse_config_file, rnn_grid,
                     rnn_params_from, smooth_params_from)
from .embeddings import load_embeddings, write_embeddings
from .errors import ConfigError, DataError, check_positive, check_seed
from .ir_eval import (MetricMean, Qrels, RunFile, check_tag, evaluate_metric, iter_query_groups,
                      iter_run, parse_qrels, parse_run, write_run)
# no command calls these; perfbench/layers.py binds them here
from .ir_eval import map_at_k, mrr_at_k, ndcg_at_k, recall_at_k  # noqa: F401
from .neighbors import WEIGHT_FNS, RnnParams, extended_reciprocal_set, rnn_scores_block
from .oracle import extended_oracle, mixed_scores_oracle
from .parallel import batch_lines, score_in_blocks
from .rerank import bench_latency, check_depths, check_sweep, rerank_context, rerank_run
from .smoothing import check_smooth_options, mean_mass, smooth_dataset, write_soft_labels
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


def _query_order(path, qrels: Qrels | None) -> tuple[bool, bool]:
    """Whether the query groups of a run come in ascending id order, and
    whether qrels (None: any) judge one of its queries, from the query
    column alone; the pass stops once both are known."""
    ascending, judged, last = True, qrels is None, None
    for qid in iter_query_groups(path):
        ascending = ascending and (last is None or qid > last)
        judged = judged or qid in qrels
        if judged and not ascending:
            break
        last = qid
    return ascending, judged


def _stream(cfg: dict, known_ids: Iterable[str], score: Callable[[RunFile], object], write: Callable,
            qrels: Qrels | None = None) -> tuple[float, float]:
    """Score the run of cfg["run"] and write it to cfg["output"] one batch of
    whole query groups at a time: write(score(batch), path, header=...,
    append=...), the provenance header with the first batch. Logs the
    reading at INFO; returns the seconds spent scoring and writing.

    A first pass over the run's query column (`_query_order`), before any
    list is parsed, decides how the run is read. A run whose query groups
    come in ascending id order, the order the writers write, is read by
    `iter_run` in batches: a batch closes at the group that takes it to
    `parallel.batch_lines(threads)` run lines, so the lists held do not grow
    with the run, and worker processes fork once per batch. Any other run is
    read whole by `parse_run` and scored as one batch. With qrels, a run
    none of whose queries they judge is refused before anything is scored.

    A data error met while the run is still being read is raised after the
    rest of it has been read, so a bad run line, reported as the first bad
    line in file order, comes before that refusal and before any error of
    scoring or writing, as when a run was read whole before any scoring.

    The batches go to a temporary file in the output's directory, which
    replaces the output after the last batch: a command that fails, however
    late, leaves no output and an earlier output untouched. A symlink given
    as --output is followed, so the temporary file goes beside its target
    and replaces that; an existing output's permission bits are kept, its
    owner and hard links are not; an existing output that is not a regular
    file is refused before the run is read. Messages name --output as given.
    """
    output, path = cfg["output"], cfg["run"]
    target = os.path.realpath(output)
    tmp = os.path.join(os.path.dirname(target), f".{os.path.basename(target)}.{os.getpid()}.tmp")
    try:
        mode = os.stat(target).st_mode if os.path.exists(target) else None
        if mode is not None and not stat.S_ISREG(mode):
            raise DataError(f"cannot write {output}: not a regular file")
        open(tmp, "w").close()
    except OSError as exc:
        raise DataError(f"cannot write {output}: {exc.strerror}") from None
    try:
        (ascending, judged), reading = _timed(_query_order, path, qrels)
        logger.info("read the query column of %s in %.3f s: groups %s", path, reading,
                    "in ascending id order, read in batches" if ascending
                    else "not in ascending id order, read whole")

        def batches() -> Iterator[RunFile]:
            batch, held, size = {}, 0, batch_lines(cfg["threads"])
            for ranked in iter_run(path, known_ids):
                if held >= size:
                    yield RunFile(batch)
                    batch, held = {}, 0
                batch[ranked.query_id] = ranked
                held += len(ranked)
            yield RunFile(batch)

        start, queries, lines, scoring, writing = time.perf_counter(), 0, 0, 0.0, 0.0
        reader = batches() if ascending else iter([parse_run(path, known_ids)])
        try:
            if not judged:
                raise DataError("run and qrels share no query ids")
            for n, run in enumerate(reader):
                queries += len(run)
                lines += sum(map(len, run.lists.values()))
                scored, seconds = _timed(score, run)
                scoring += seconds
                _, seconds = _timed(write, scored, tmp, header=None if n else header_line(cfg, __version__),
                                    append=n > 0)
                writing += seconds
        except (DataError, OSError):
            for _ in reader:  # raises the run's first bad line, if it has one
                pass
            raise
        reading += time.perf_counter() - start - scoring - writing
        logger.info("parsed %d queries, %d run lines from %s in %.3f s", queries, lines, path, reading)
        try:
            if mode is not None:
                os.chmod(tmp, stat.S_IMODE(mode))
            os.replace(tmp, target)
        except OSError as exc:
            raise DataError(f"cannot write {output}: {exc.strerror}") from None
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise
    return scoring, writing


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


def _running_metrics(qrels, cutoff: int, rel_threshold: int) -> dict[str, MetricMean]:
    """MRR, nDCG, recall and MAP at the cutoff, each an empty running mean to feed run by run."""
    return {f"{name}@{cutoff}": MetricMean.of(f"{name}@{cutoff}", qrels, rel_threshold)
            for name in ("mrr", "ndcg", "recall", "map")}


def cmd_rerank(cfg: dict) -> None:
    check_tag(cfg["tag"])
    check_positive("cutoff", cfg["cutoff"])
    params = rnn_params_from(cfg)
    check_depths(cfg["n_context"], cfg.get("top_k"))
    check_positive("threads", cfg["threads"])
    embeddings = _read_embeddings(cfg["embeddings"])
    qrels = _read_qrels(cfg["qrels"]) if cfg.get("qrels") else None
    # one running mean per metric of the lists as read and as reranked
    before, after = (_running_metrics(qrels, cfg["cutoff"], cfg["rel_threshold"]) if qrels else {}
                     for _ in range(2))
    queries = passed = 0

    def score(run: RunFile) -> RunFile:
        nonlocal queries, passed
        reranked = rerank_run(run, embeddings, params, cfg["n_context"], top_k=cfg.get("top_k"),
                              strict=cfg["strict"], workers=cfg["threads"])
        queries += len(reranked)
        passed += sum(reranked[qid] is run[qid] for qid in run.query_ids)  # rerank_run passes such a list as is
        for name in before:
            before[name].add(run)
            after[name].add(reranked)
        return reranked

    scoring, writing = _stream(cfg, embeddings.keys(), score, partial(write_run, tag=cfg["tag"]), qrels)
    logger.info("scored %d queries (%d passed through) in %.3f s", queries - passed, passed, scoring)
    logger.info("wrote %s in %.3f s", cfg["output"], writing)
    print(f"reranked {queries - passed} queries ({passed} passed through) -> {cfg['output']}")
    if qrels is not None:
        print(_metric_table([(name, [before[name].mean, after[name].mean]) for name in before], ["before", "after"]))


def cmd_smooth(cfg: dict) -> None:
    params = smooth_params_from(cfg)
    check_smooth_options(cfg["n_context"], cfg["mode"], cfg["epsilon"])
    check_positive("threads", cfg["threads"])
    embeddings = _read_embeddings(cfg["embeddings"])
    qrels = _read_qrels(cfg["qrels"])
    masses, skipped = [], 0  # a float64 array a batch: 8 bytes a query, and the digits of one list

    def score(run: RunFile) -> list:
        nonlocal skipped
        result = smooth_dataset(run, qrels, embeddings, params, n_context=cfg["n_context"], mode=cfg["mode"],
                                epsilon=cfg["epsilon"], rel_threshold=cfg["rel_threshold"], strict=cfg["strict"],
                                workers=cfg["threads"])
        masses.append(np.array([ls.gt_mass for ls in result.label_sets], dtype=np.float64))
        skipped += len(result.skipped)
        return result.label_sets

    scoring, writing = _stream(cfg, embeddings.keys(), score, write_soft_labels)
    masses = np.concatenate(masses)
    logger.info("scored %d queries (%d skipped) in %.3f s", len(masses), skipped, scoring)
    logger.info("wrote %s in %.3f s", cfg["output"], writing)
    print(f"smoothed {len(masses)} queries ({skipped} skipped) -> {cfg['output']}")
    print(f"mean ground-truth mass: {mean_mass(masses):.6f}")


def cmd_eval(cfg: dict) -> None:
    check_positive("cutoff", cfg["cutoff"])
    run = _read_run(cfg["run"])
    qrels = _read_qrels(cfg["qrels"])
    rows = [(name, [mean.add(run).mean]) for name, mean
            in _running_metrics(qrels, cfg["cutoff"], cfg["rel_threshold"]).items()]
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
