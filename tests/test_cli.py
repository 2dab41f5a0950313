"""End-to-end tests for the command line interface.

Every command is invoked in-process through ``main(argv)`` so that exit
codes, stdout and stderr can be asserted exactly; only the ``--verbose``
check starts fresh processes, whose logging the test's own does not mask.  Output files are
compared byte-for-byte across repeated invocations and worker counts.
"""

import argparse
import hashlib
import importlib.util
import logging
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import recipnn.cli as cli
from recipnn import __version__, config, ir_eval, parallel
from recipnn.cli import main
from recipnn.config import (COMMAND_KEYS, PRESETS, REQUIRED_KEYS, config_hash, display_key, effective_config,
                            header_line)
from recipnn.embeddings import EmbeddingMatrix, load_embeddings, write_embeddings
from recipnn.errors import DataError
from recipnn.ir_eval import RankedList, RunFile, evaluate_metric, parse_qrels, parse_run, write_qrels, write_run
from recipnn.neighbors import RnnParams
from recipnn.rerank import rerank_run
from recipnn.smoothing import read_soft_labels
from recipnn.synthetic import planted_corpus, smoothing_corpus


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-corpus")
    corpus = planted_corpus(seed=7, n_queries=6, n_distractors=60, depth=15)
    paths = {
        "emb": str(root / "vectors.emb"),
        "run": str(root / "base.run"),
        "qrels": str(root / "judgments.qrels"),
    }
    write_embeddings(corpus.embeddings, paths["emb"], fmt="binary")
    write_run(corpus.run, paths["run"], tag="base")
    write_qrels(corpus.qrels, paths["qrels"])
    return paths


def read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


WRITING_COMMANDS = ("rerank", "smooth", "sweep", "bench", "convert")


def small_argv(command: str, files: dict, output: str) -> list[str]:
    """Arguments that run `command` quickly on the corpus files, writing to `output`."""
    data = ["--embeddings", files["emb"], "--run", files["run"], "--qrels", files["qrels"]]
    argv = {
        "rerank": data,
        "smooth": data,
        "sweep": [*data, "--sizes", "5,10"],
        "eval": ["--run", files["run"], "--qrels", files["qrels"]],
        "bench": ["--sizes", "10", "--trials", "3", "--dim", "4"],
        "convert": ["--input", files["emb"], "--to", "tsv"],
        "selftest": ["--trials", "2"],
    }[command]
    return [command, *argv, *(["--output", output] if command in WRITING_COMMANDS else [])]


# ---------------------------------------------------------------------------
# exit codes and top-level plumbing


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == f"recipnn {__version__}"


def test_missing_command_is_config_error(capsys):
    assert main([]) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_unknown_flag_is_config_error(capsys):
    # eval does not expose --k; argparse errors are mapped to exit code 1
    assert main(["eval", "--k", "5"]) == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_missing_required_keys(capsys):
    assert main(["rerank"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: rerank requires:")
    assert "embeddings" in err and "output" in err and "run" in err


def test_unknown_preset(capsys):
    assert main(["eval", "--preset", "nope", "--run", "r", "--qrels", "q"]) == 1
    err = capsys.readouterr().err
    assert "unknown preset 'nope'" in err
    assert "tasb-msmarco" in err  # available presets are listed


def test_missing_data_file_exit_2(corpus_files, tmp_path, capsys):
    code = main(["rerank", "--embeddings", str(tmp_path / "absent.emb"),
                 "--run", corpus_files["run"], "--output", str(tmp_path / "o.run")])
    assert code == 2
    assert capsys.readouterr().err.startswith("data error:")


def test_missing_run_file_exit_2(corpus_files, tmp_path, capsys):
    code = main(["rerank", "--embeddings", corpus_files["emb"], "--run", str(tmp_path / "missing.run"),
                 "--output", str(tmp_path / "o.run")])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"data error: cannot read {tmp_path / 'missing.run'}")


def test_lying_embedding_header_exit_2(tmp_path, capsys):
    emb = tmp_path / "lying.emb"
    emb.write_bytes(b"EMB1" + (1).to_bytes(4, "little") + (2**64 - 1).to_bytes(8, "little"))
    code = main(["convert", "--input", str(emb), "--to", "tsv", "--output", str(tmp_path / "o.tsv")])
    assert code == 2
    assert "at byte 16" in capsys.readouterr().err


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_unwritable_output_exit_2(corpus_files, tmp_path, capsys, command):
    out = tmp_path / "absent-dir" / "out"
    assert main(small_argv(command, corpus_files, str(out))) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "absent-dir" in err


@pytest.mark.parametrize("command,flags", [
    ("rerank", ["--top-k", "0"]),
    ("rerank", ["--top-k", "-3"]),
    ("rerank", ["--cutoff", "0"]),
    ("smooth", ["--n-context", "0"]),
    ("smooth", ["--n-context", "-5"]),
    ("sweep", ["--metric", "mrr@0"]),
    ("eval", ["--cutoff", "0"]),
    ("bench", ["--dim", "-1"]),
    ("selftest", ["--trials", "0"]),
    ("bench", ["--sizes", ""]),
    ("bench", ["--sizes", ","]),
    ("bench", ["--seed", "-1"]),
    ("selftest", ["--seed", "-1"]),
    ("bench", ["--k", "5,6"]),
    ("bench", ["--lambda", "0.3,0.6"]),
    ("bench", ["--sizes", "50,50"]),
])
def test_bad_parameter_values_are_config_errors(corpus_files, tmp_path, capsys, command, flags):
    # refused with exit 1 before any output is written
    out = tmp_path / "out"
    assert main([*small_argv(command, corpus_files, str(out)), *flags]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("command,flags", [
    ("rerank", ["--top-k", "0"]),
    ("rerank", ["--n-context", "0"]),
    ("smooth", ["--n-context", "0"]),
    ("smooth", ["--mode", "bogus"]),
    ("smooth", ["--mode", "uniform", "--epsilon", "1.5"]),
    ("sweep", ["--sizes", "0,5"]),
    ("sweep", ["--metric", "mrr@0"]),
    ("sweep", ["--metric", "foo@3"]),
    ("rerank", ["--threads", "0"]),
    ("rerank", ["--threads", "-3"]),
    ("smooth", ["--threads", "0"]),
    ("sweep", ["--threads", "-3"]),
    ("smooth", ["--b", "inf"]),
    ("smooth", ["--f-n", "stdbased", "--b", "1e308"]),
    # only sweep takes several values of the grid keys, and it needs one of each
    ("rerank", ["--k", "5,6"]),
    ("rerank", ["--tau", "0,0.5"]),
    ("smooth", ["--k-exp", "1,3"]),
    ("smooth", ["--lambda", "0.3,0.6"]),
    ("sweep", ["--k", ""]),
    ("sweep", ["--tau", ","]),
    ("sweep", ["--lambda", "0.3,1.5"]),
    # a list with an empty item or a repeated value, refused where it is parsed
    ("sweep", ["--sizes", "20,,40"]),
    ("rerank", ["--k", "6,"]),
    ("rerank", ["--k", "6,6"]),
    ("sweep", ["--sizes", "20,20"]),
    ("sweep", ["--lambda", "0.3,0.30"]),
])
def test_bad_parameters_refused_before_any_input_is_read(tmp_path, capsys, command, flags):
    # none of the input files exists, so reading any of them would exit 2
    absent = {name: str(tmp_path / f"absent.{name}") for name in ("emb", "run", "qrels")}
    out = tmp_path / "out"
    assert main([*small_argv(command, absent, str(out)), *flags]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def _subcommands() -> argparse._SubParsersAction:
    return next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_every_flag_has_help_text_beyond_its_key_name(command):
    flags = {a.dest: a.help for a in _subcommands().choices[command]._actions if a.dest in COMMAND_KEYS[command]}
    assert set(flags) == COMMAND_KEYS[command]
    for key, help_text in flags.items():
        assert help_text.removesuffix(" (required)") not in ("", key, display_key(key)), (key, help_text)


def test_readme_command_table_is_the_parser_command_help():
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    with open(readme, encoding="utf-8") as fh:
        rows = re.findall(r"^\| `(\w+)` +\| (.+?) +\|$", fh.read(), flags=re.MULTILINE)
    assert dict(rows) == {a.dest: a.help for a in _subcommands()._choices_actions}


def test_internal_error_exit_3(monkeypatch, capsys):
    def boom(cfg):
        raise RuntimeError("wires crossed")

    monkeypatch.setitem(cli._COMMANDS, "selftest", boom)
    assert main(["selftest"]) == 3
    assert capsys.readouterr().err == "internal error: RuntimeError: wires crossed\n"


# ---------------------------------------------------------------------------
# config files, presets and precedence


def test_config_file_values_apply(corpus_files, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nlambda = 0.2\nk = 9\n", encoding="utf-8")
    out = tmp_path / "o.run"
    code = main(["rerank", "--config", str(cfg), "--embeddings", corpus_files["emb"],
                 "--run", corpus_files["run"], "--output", str(out)])
    assert code == 0, capsys.readouterr().err
    header = read_bytes(out).decode().splitlines()[0]
    assert header.startswith(f"# recipnn {__version__} config=")
    assert " lambda=0.2 " in header + " "
    assert " k=9 " in header


def test_flags_beat_config_file(corpus_files, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.2\n", encoding="utf-8")
    out = tmp_path / "o.run"
    assert main(["rerank", "--config", str(cfg), "--lambda", "0.9",
                 "--embeddings", corpus_files["emb"], "--run", corpus_files["run"],
                 "--output", str(out)]) == 0
    header = read_bytes(out).decode().splitlines()[0]
    assert " lambda=0.9 " in header


def test_config_file_beats_preset(corpus_files, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lambda = 0.3\n", encoding="utf-8")
    out = tmp_path / "o.run"
    assert main(["rerank", "--preset", "cocondenser-msmarco", "--config", str(cfg),
                 "--embeddings", corpus_files["emb"], "--run", corpus_files["run"],
                 "--output", str(out)]) == 0
    header = read_bytes(out).decode().splitlines()[0]
    # preset supplies k-exp/tau/n-context, the file overrides lambda
    assert " lambda=0.3 " in header
    assert " k-exp=5 " in header
    assert " tau=0.128 " in header
    assert " n-context=53 " in header


@pytest.mark.parametrize("text,fragment", [
    ("bogus = 1\n", "unknown config key 'bogus'"),
    ("k = 5\nk = 6\n", ":2: duplicate config key 'k'"),
    ("k = five\n", "bad value for k"),
    ("just words\n", ":1: expected key = value"),
    ("k = 6,\n", ":1: bad value for k: empty item in '6,'"),
    ("\nlambda = 0.3,0.30\n", ":2: bad value for lambda: '0.3,0.30' repeats 0.3"),
])
def test_config_file_errors(corpus_files, tmp_path, capsys, text, fragment):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    code = main(["rerank", "--config", str(cfg), "--embeddings", corpus_files["emb"],
                 "--run", corpus_files["run"], "--output", str(tmp_path / "o.run")])
    assert code == 1
    assert fragment in capsys.readouterr().err


def test_config_file_missing(tmp_path, capsys):
    code = main(["eval", "--config", str(tmp_path / "absent.cfg"),
                 "--run", "r", "--qrels", "q"])
    assert code == 1
    assert "cannot read config file" in capsys.readouterr().err


def test_config_key_not_applicable_to_command(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 5\n", encoding="utf-8")
    assert main(["eval", "--config", str(cfg), "--run", "r", "--qrels", "q"]) == 1
    assert "does not apply to 'eval'" in capsys.readouterr().err


def test_config_hash_ignores_paths_and_threads():
    base = effective_config("rerank", flag_values={
        "embeddings": "a.emb", "run": "a.run", "output": "a.out"})
    moved = effective_config("rerank", flag_values={
        "embeddings": "b.emb", "run": "b.run", "output": "b.out", "threads": 8})
    assert config_hash(base) == config_hash(moved)
    retuned = effective_config("rerank", flag_values={
        "embeddings": "a.emb", "run": "a.run", "output": "a.out", "lam": 0.9})
    assert config_hash(retuned) != config_hash(base)


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_config_hash_is_the_builtin_sha256_digest_of_the_header_parameters(preset):
    # the built-in SHA-256 keeps OpenSSL out of the process; the digests are hashlib's
    if any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        assert config.sha256.__module__ in ("_sha2", "_sha256")
    command = "smooth" if preset.endswith("-smooth") else "rerank"
    cfg = effective_config(command, preset, flag_values=dict.fromkeys(REQUIRED_KEYS[command], "path"))
    parts = header_line(cfg, __version__).split()[3:]  # "recipnn <version> config=<hash>" come first
    assert config_hash(cfg) == hashlib.sha256(";".join(parts).encode("utf-8")).hexdigest()[:12]


# digests taken before the grid keys became lists; a list of one value hashes as the value
GOLDEN_HASHES = {
    ("rerank", None): "a7020aec50e4",
    ("rerank", "coder-cocondenser-smooth"): "caa24863024d",
    ("smooth", None): "fd035f9eac52",
    ("smooth", "coder-cocondenser-smooth"): "13f13a820570",
    ("sweep", None): "9f891f85f351",
    ("sweep", "coder-cocondenser-smooth"): "60a891992ac8",
    ("bench", None): "dcf3661ffb3e",
    ("bench", "coder-cocondenser-smooth"): "b730e3bdc02b",
}


@pytest.mark.parametrize("command,preset", sorted(GOLDEN_HASHES, key=str))
def test_config_hash_is_pinned(command, preset):
    flags = dict.fromkeys(REQUIRED_KEYS[command], "path")
    if command == "sweep":
        flags["sizes"] = [10, 20, 40]
    cfg = effective_config(command, preset, flag_values=flags)
    listed = {key: [cfg[key]] for key in ("k", "k_exp", "tau", "lam")}  # as flags and config files give them
    for values in (flags, {**flags, **listed}):
        assert config_hash(effective_config(command, preset, flag_values=values)) == GOLDEN_HASHES[command, preset]


# ---------------------------------------------------------------------------
# run doc ids held once: the store's str objects

@pytest.mark.parametrize("command,scorer", [
    ("rerank", "rerank_run"), ("smooth", "smooth_dataset"), ("sweep", "rerank_run")])
def test_run_doc_ids_are_the_store_str_objects(corpus_files, tmp_path, monkeypatch, command, scorer):
    seen = []
    real = getattr(cli, scorer)

    def recording(run, *args, **kwargs):
        seen.append((run, next(a for a in args if isinstance(a, EmbeddingMatrix))))
        return real(run, *args, **kwargs)

    monkeypatch.setattr(cli, scorer, recording)
    assert main(small_argv(command, corpus_files, str(tmp_path / "out"))) == 0
    run, store = seen[0]  # sweep reranks the one run once per size
    assert all(r is run and s is store for r, s in seen)
    keys = {eid: eid for eid in store.keys()}
    held = [did for qid in run.query_ids for did in run[qid].doc_ids if did in keys]
    assert held and all(did is keys[did] for did in held)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command", ["rerank", "smooth"])
def test_output_bytes_do_not_depend_on_the_id_pool(corpus_files, tmp_path, monkeypatch, command, threads):
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    pools, real = [], cli.iter_run  # the reader of the commands that stream a run

    def without_pool(path, known_ids=()):
        pools.append(len(known_ids))
        return real(path)

    blobs = []
    for name in ("pool", "none"):
        out = tmp_path / name
        assert main([*small_argv(command, corpus_files, str(out)), "--threads", threads]) == 0
        blobs.append(read_bytes(out))
        monkeypatch.setattr(cli, "iter_run", without_pool)
    assert pools == [len(load_embeddings(corpus_files["emb"]))]
    assert blobs[1] == blobs[0]


# ---------------------------------------------------------------------------
# rerank


def test_rerank_end_to_end(corpus_files, tmp_path, capsys):
    out = tmp_path / "reranked.run"
    code = main(["rerank", "--embeddings", corpus_files["emb"],
                 "--run", corpus_files["run"], "--output", str(out),
                 "--k", "6", "--n-context", "15"])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == f"reranked 6 queries (0 passed through) -> {out}"
    reranked = parse_run(out)
    original = parse_run(corpus_files["run"])
    assert reranked.query_ids == original.query_ids
    for qid in reranked.query_ids:
        assert sorted(reranked[qid].doc_ids) == sorted(original[qid].doc_ids)


def test_rerank_summary_counts_a_query_without_a_vector_as_passed_through(tmp_path, capsys, caplog):
    corpus = planted_corpus(seed=7, n_queries=6, n_distractors=60, depth=15)
    stuck = corpus.run.query_ids[3]
    keep = [i for i in corpus.embeddings.keys() if i != stuck]
    emb, run = str(tmp_path / "v.emb"), str(tmp_path / "b.run")
    write_embeddings(EmbeddingMatrix(keep, np.vstack([corpus.embeddings.lookup(i) for i in keep])), emb)
    write_run(corpus.run, run, tag="base")
    out = tmp_path / "r.run"
    assert main(["rerank", "--embeddings", emb, "--run", run, "--output", str(out), "--n-context", "5"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == f"reranked 5 queries (1 passed through) -> {out}"
    assert [stuck in rec.getMessage() for rec in caplog.records] == [True]
    assert parse_run(out)[stuck].doc_ids == corpus.run[stuck].doc_ids


def test_pass_through_query_keeps_full_depth(tmp_path, capsys):
    # A query whose context cannot be built is written in its original order
    # at its original depth; reranked queries are cut to n_context, or to
    # top_k when that is smaller.
    corpus = planted_corpus(seed=7, n_queries=6, n_distractors=60, depth=15)
    stuck = corpus.run.query_ids[2]
    dropped = corpus.run[stuck].doc_ids[1]
    keep = [i for i in corpus.embeddings.keys() if i != dropped]
    emb, run = str(tmp_path / "v.emb"), str(tmp_path / "b.run")
    write_embeddings(EmbeddingMatrix(keep, np.vstack([corpus.embeddings.lookup(i) for i in keep])), emb)
    write_run(corpus.run, run, tag="base")
    for extra, depth in (([], 5), (["--top-k", "3"], 3)):
        out = tmp_path / "r.run"
        assert main(["rerank", "--embeddings", emb, "--run", run, "--output", str(out),
                     "--n-context", "5", *extra]) == 0
        reranked = parse_run(out)
        for qid in reranked.query_ids:
            if qid == stuck:
                assert reranked[qid].doc_ids == corpus.run[qid].doc_ids  # all 15, in order
            else:
                assert len(reranked[qid]) == depth
    assert len(corpus.run[stuck]) == 15


def test_rerank_prints_metric_table_with_qrels(corpus_files, tmp_path, capsys):
    out = tmp_path / "reranked.run"
    assert main(["rerank", "--embeddings", corpus_files["emb"],
                 "--run", corpus_files["run"], "--qrels", corpus_files["qrels"],
                 "--output", str(out), "--k", "6", "--n-context", "15"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"{'metric':<12} {'before':>12} {'after':>12}"
    assert lines[2].startswith("mrr@10      ")
    assert [ln.split()[0] for ln in lines[2:6]] == ["mrr@10", "ndcg@10", "recall@10", "map@10"]


def test_rerank_byte_identical_across_runs_and_threads(corpus_files, tmp_path):
    blobs = []
    for name, threads in (("a", "1"), ("b", "1"), ("c", "4"), ("d", "8")):
        out = tmp_path / f"{name}.run"
        assert main(["rerank", "--embeddings", corpus_files["emb"],
                     "--run", corpus_files["run"], "--output", str(out),
                     "--threads", threads]) == 0
        blobs.append(read_bytes(out))
    assert all(blob == blobs[0] for blob in blobs)


@pytest.mark.parametrize("command,scored", [("rerank", "scored 6 queries (0 passed through) in "),
                                             ("smooth", "scored 6 queries (0 skipped) in "),
                                             ("sweep", "scored 6 queries at 2 context sizes in ")])
def test_verbose_logs_stages_without_changing_outputs(corpus_files, tmp_path, command, scored):
    # a fresh process per run: --verbose sets the level of the root logger,
    # which the test process's own log capture would mask
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    runs = {}
    for threads in ("1", "2"):
        for verbose in ((), ("--verbose",)):
            done = subprocess.run([sys.executable, "-m", "recipnn", *small_argv(command, corpus_files, str(out)),
                                   "--threads", threads, *verbose],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            runs[threads, bool(verbose)] = (read_bytes(out), done.stdout, done.stderr.splitlines())
    assert len({(blob, stdout) for blob, stdout, _ in runs.values()}) == 1
    for (threads, verbose), (_, _, log) in runs.items():
        if not verbose:
            assert log == []
            continue
        assert all(line.startswith("INFO recipnn.") for line in log), log
        text = "\n".join(log)
        assert f"loaded {len(load_embeddings(corpus_files['emb']))} vectors of dim " in text
        assert "parsed 6 queries, 90 run lines from " in text and "parsed judgments for " in text
        assert scored in text
        assert f"wrote {out} in " in text
        # the last line gives the peak RSS, and the largest worker's when workers ran
        workers = r", largest worker process \d+\.\d MB" if threads == "2" and parallel.available_cpus() > 1 else ""
        assert re.fullmatch(r"INFO recipnn\.cli: peak RSS \d+\.\d MB" + workers, log[-1]), log
        assert sum("peak RSS" in line for line in log) == 1


@pytest.mark.parametrize("command", ["rerank", "smooth"])
def test_strict_data_error_from_workers_matches_inline(corpus_files, tmp_path, monkeypatch, capsys,
                                                        command):
    # two queries with neither vectors nor judgments, first and last in query
    # order; the first one's error is reported, at any worker count
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    run = parse_run(corpus_files["run"])
    scored = list(zip(run[run.query_ids[0]].doc_ids, run[run.query_ids[0]].scores.tolist()))
    lists = {**run.lists, **{qid: RankedList.from_scored(qid, scored) for qid in ("0-none", "~none")}}
    run_path = tmp_path / "with-missing.run"
    write_run(RunFile(lists), run_path)
    stderrs = []
    for threads in ("1", "2"):
        assert main([command, "--embeddings", corpus_files["emb"], "--run", str(run_path),
                     "--qrels", corpus_files["qrels"], "--output", str(tmp_path / "out"),
                     "--strict", "--threads", threads]) == 2
        stderrs.append(capsys.readouterr().err)
    assert "'0-none'" in stderrs[0] and stderrs[1] == stderrs[0]


# ---------------------------------------------------------------------------
# rerank and smooth read, score and write a run one batch of query groups at a time


def _run_shapes(run_path, tmp_path) -> dict:
    """The lines of a grouped run, plus a query the store has no vector for,
    written grouped in ascending query id order, grouped in descending order,
    and interleaved one line of each query at a time."""
    lines = [line for line in open(run_path, encoding="utf-8").read().splitlines() if not line.startswith("#")]
    lines += [line.replace(line.split()[0], "q-none", 1) for line in lines[:3]]
    groups: dict = {}
    for line in lines:
        groups.setdefault(line.split()[0], []).append(line)
    qids = sorted(groups)
    shapes = {"grouped": [line for qid in qids for line in groups[qid]],
              "descending": [line for qid in reversed(qids) for line in groups[qid]],
              "interleaved": [groups[qid][i] for i in range(max(map(len, groups.values())))
                              for qid in qids if i < len(groups[qid])]}
    paths = {}
    for name, shape in shapes.items():
        paths[name] = tmp_path / f"{name}.run"
        paths[name].write_text("\n".join(shape) + "\n", encoding="utf-8")
    return paths


@pytest.mark.parametrize("command", ["rerank", "smooth"])
def test_every_run_shape_gives_the_bytes_of_the_grouped_run(corpus_files, tmp_path, monkeypatch, capsys, caplog,
                                                            command):
    # a grouped run in descending query order and an interleaved one are each
    # read whole as one batch; a grouped run cut into batches of one query
    # (two queries a worker at --threads 2) is written batch by batch. Every
    # one gives the output file, stdout (rerank's metric table, smooth's mean
    # ground-truth mass) and the one warning of the grouped run in one batch.
    monkeypatch.setattr(parallel, "available_cpus", lambda: 4)
    paths = _run_shapes(corpus_files["run"], tmp_path)
    out = tmp_path / "out"
    outcomes, default = {}, parallel._BATCH_LINES
    for batch in (default, 1):
        monkeypatch.setattr(parallel, "_BATCH_LINES", batch)
        for shape, path in paths.items():
            for threads in ("1", "2"):
                caplog.clear()
                assert main([*small_argv(command, {**corpus_files, "run": str(path)}, str(out)),
                             "--threads", threads]) == 0
                outcomes[batch, shape, threads] = (read_bytes(out), capsys.readouterr(),
                                                   [rec.getMessage() for rec in caplog.records])
    expect = outcomes[default, "grouped", "1"]
    assert all(outcome == expect for outcome in outcomes.values())
    assert len(expect[2]) == 1 and "q-none" in expect[2][0]
    assert ("mean ground-truth mass: " if command == "smooth" else "mrr@10 ") in expect[1].out
    assert sorted(os.listdir(tmp_path)) == sorted([*(p.name for p in paths.values()), "out"])


def _late_fault(run_path, tmp_path, fault: str):
    """The run with a fault in its last query group."""
    lines = open(run_path, encoding="utf-8").read().splitlines()
    qid, _, did, *_ = lines[-1].split()
    lines.append(f"{qid} Q0 {did} 99 0.5 base" if fault == "duplicate" else f"{qid} Q0 extra 99 high base")
    path = tmp_path / f"{fault}.run"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("command,fault", [("rerank", "malformed"), ("rerank", "duplicate"), ("rerank", "unwritable"),
                                          ("smooth", "malformed"), ("smooth", "duplicate")])
def test_a_late_failure_leaves_no_output(corpus_files, tmp_path, monkeypatch, capsys, command, fault):
    # batches of one query, so every query before the last is scored and
    # written before its fault is met; exit 2 with the message a run read
    # whole gives, and the output as it was before
    monkeypatch.setattr(parallel, "_BATCH_LINES", 1)
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    if fault == "unwritable":
        # a parsed run holds no such id, as every field is split on whitespace: the reader hands one in
        real, path = cli.iter_run, corpus_files["run"]

        def unwritable_last(path, known_ids=()):
            *head, last = real(path, known_ids)
            yield from head
            yield RankedList.from_scored(last.query_id, [("d 1", last.scores[0] + 1.0),
                                                         *zip(last.doc_ids, last.scores.tolist())])

        monkeypatch.setattr(cli, "iter_run", unwritable_last)
        message = "doc id 'd 1' would not read back"
    else:
        path = _late_fault(corpus_files["run"], inputs, fault)
        with pytest.raises(DataError) as parsed:
            parse_run(path)
        message = str(parsed.value)
        assert message == str(ir_eval._first_bad_line(path))
    work = tmp_path / "work"
    work.mkdir()
    out = work / "out"
    argv = [*small_argv(command, {**corpus_files, "run": str(path)}, str(out))]
    assert main(argv) == 2
    err = capsys.readouterr()
    assert err.out == "" and err.err.startswith("data error: ") and message in err.err
    assert not out.exists() and os.listdir(work) == []
    out.write_bytes(b"earlier output\n")
    assert main(argv) == 2
    assert capsys.readouterr().err == err.err
    assert out.read_bytes() == b"earlier output\n" and os.listdir(work) == ["out"]


def test_a_run_that_breaks_order_late_is_read_whole_and_scored_once(corpus_files, tmp_path, monkeypatch, capsys,
                                                                   caplog):
    # two shards joined: groups ascend until the last query's, which comes
    # first in id order. The first pass finds it before any scoring, so the
    # run is read whole and scored in one call, and its bytes are the grouped run's
    monkeypatch.setattr(parallel, "_BATCH_LINES", 1)
    lines = [line for line in open(corpus_files["run"], encoding="utf-8").read().splitlines()
             if not line.startswith("#")]
    first = lines[0].split()[0]
    joined = tmp_path / "joined.run"
    joined.write_text("\n".join([line for line in lines if line.split()[0] != first] +
                                 [line for line in lines if line.split()[0] == first]) + "\n", encoding="utf-8")
    calls = []
    monkeypatch.setattr(cli, "rerank_run", lambda run, *a, **k: calls.append(len(run)) or rerank_run(run, *a, **k))
    outputs = []
    for path in (corpus_files["run"], joined):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="recipnn"):
            assert main(small_argv("rerank", {**corpus_files, "run": str(path)}, str(tmp_path / "out"))) == 0
        outputs.append((read_bytes(tmp_path / "out"), capsys.readouterr().out))
        assert any(f"read the query column of {path}" in rec.getMessage() for rec in caplog.records)
    assert outputs[1] == outputs[0]
    assert calls == [1] * 6 + [6]
    assert "not in ascending id order, read whole" in caplog.text


def test_rerank_refuses_qrels_sharing_no_query_before_scoring(corpus_files, tmp_path, monkeypatch, capsys):
    # the first pass finds no judged query, so nothing is scored or written;
    # a bad run line is still reported first, as the parser reads the whole run
    qrels = tmp_path / "other.qrels"
    qrels.write_text("elsewhere 0 d1 1\n", encoding="utf-8")
    monkeypatch.setattr(cli, "rerank_run", None)  # a call would raise TypeError, exit 3
    out = tmp_path / "out"
    assert main(small_argv("rerank", {**corpus_files, "qrels": str(qrels)}, str(out))) == 2
    assert capsys.readouterr().err == "data error: run and qrels share no query ids\n"
    bad = _late_fault(corpus_files["run"], tmp_path, "malformed")
    assert main(small_argv("rerank", {**corpus_files, "qrels": str(qrels), "run": str(bad)}, str(out))) == 2
    assert capsys.readouterr().err == f"data error: {ir_eval._first_bad_line(bad)}\n"
    assert sorted(os.listdir(tmp_path)) == ["malformed.run", "other.qrels"]


@pytest.mark.parametrize("command", ["rerank", "smooth"])
def test_output_in_a_missing_directory_is_named(corpus_files, tmp_path, capsys, command):
    out = tmp_path / "absent" / "out"
    assert main(small_argv(command, corpus_files, str(out))) == 2
    assert capsys.readouterr().err == f"data error: cannot write {out}: No such file or directory\n"
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# smooth


def test_smooth_end_to_end(corpus_files, tmp_path, capsys):
    out = tmp_path / "labels.jsonl"
    code = main(["smooth", "--embeddings", corpus_files["emb"],
                 "--run", corpus_files["run"], "--qrels", corpus_files["qrels"],
                 "--output", str(out), "--k", "6", "--n-context", "12",
                 "--b", "1.222", "--n-max", "4"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"smoothed 6 queries (0 skipped) -> {out}"
    assert lines[1].startswith("mean ground-truth mass: 0.")
    label_sets = read_soft_labels(out)
    assert len(label_sets) == 6
    for ls in label_sets:
        assert abs(sum(p for _, p in ls.entries) - 1.0) <= 1e-9


def test_smooth_byte_identical_across_runs_and_threads(corpus_files, tmp_path):
    blobs = []
    for name, threads in (("a", "1"), ("b", "4"), ("c", "8")):
        out = tmp_path / f"{name}.jsonl"
        assert main(["smooth", "--embeddings", corpus_files["emb"],
                     "--run", corpus_files["run"], "--qrels", corpus_files["qrels"],
                     "--output", str(out), "--threads", threads]) == 0
        blobs.append(read_bytes(out))
    assert all(blob == blobs[0] for blob in blobs)


@pytest.mark.parametrize("mode,unread", [
    ("uniform", ["--k", "3", "--k-exp", "7", "--tau", "0.9", "--lambda", "0.1", "--weight-fn", "binary",
                 "--b", "2", "--n-max", "3", "--f-n", "stdbased"]),
    ("eb", ["--epsilon", "0.3"]),
    ("uniform-matched", ["--epsilon", "0.3"]),
])
def test_smooth_keys_a_mode_does_not_read_change_only_the_header(corpus_files, tmp_path, mode, unread):
    # uniform mode reads no rNN or boost key, and only uniform mode reads epsilon
    blobs = []
    for name, flags in (("base", []), ("moved", unread)):
        out = tmp_path / name
        assert main([*small_argv("smooth", corpus_files, str(out)), "--mode", mode, *flags]) == 0
        blobs.append(read_bytes(out).split(b"\n", 1))
    assert blobs[0][0] != blobs[1][0]
    assert blobs[0][1] == blobs[1][1]


@pytest.mark.parametrize("command", ["rerank", "smooth"])
def test_power_of_two_rescaling_changes_no_output_byte(tmp_path, command):
    # float32 holds these scales exactly, so every similarity scales exactly too;
    # another scale re-rounds the vectors and can reorder near-tied neighbours
    corpus = (planted_corpus(seed=7, n_queries=30, n_distractors=200, depth=40) if command == "rerank"
              else smoothing_corpus(seed=7, n_queries=30, depth=40))
    run, qrels = tmp_path / "base.run", tmp_path / "judgments.qrels"
    write_run(corpus.run, run, tag="base")
    write_qrels(corpus.qrels, qrels)
    flags = ["--tau", "0.5"] if command == "rerank" else ["--preset", "coder-cocondenser-smooth"]
    blobs = set()
    for scale in (1, 2, 1 / 8):
        emb = tmp_path / f"x{scale}.emb"
        write_embeddings(EmbeddingMatrix(list(corpus.embeddings.keys()),
                                         corpus.embeddings.vectors * np.float32(scale)), emb)
        for threads in ("1", "2"):
            out = tmp_path / f"x{scale}-{threads}.out"
            assert main([command, "--embeddings", str(emb), "--run", str(run), "--qrels", str(qrels),
                         "--output", str(out), "--threads", threads, *flags]) == 0
            blobs.add(read_bytes(out))
    assert len(blobs) == 1


def test_smooth_preset(corpus_files, tmp_path):
    out = tmp_path / "labels.jsonl"
    assert main(["smooth", "--preset", "coder-tasb-smooth",
                 "--embeddings", corpus_files["emb"], "--run", corpus_files["run"],
                 "--qrels", corpus_files["qrels"], "--output", str(out)]) == 0
    header = read_bytes(out).decode().splitlines()[0]
    assert " b=1.222 " in header
    assert " n-max=4 " in header
    assert " f-n=maxmin " in header


@pytest.mark.parametrize("epsilon", ["1.5", "1.0", "-0.1"])
def test_smooth_uniform_epsilon_outside_unit_interval_is_config_error(corpus_files, tmp_path,
                                                                      capsys, epsilon):
    code = main(["smooth", "--embeddings", corpus_files["emb"],
                 "--run", corpus_files["run"], "--qrels", corpus_files["qrels"],
                 "--output", str(tmp_path / "labels.jsonl"), "--mode", "uniform",
                 f"--epsilon={epsilon}"])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: epsilon")


# ---------------------------------------------------------------------------
# eval


def test_eval_hand_checked_table(tmp_path, capsys):
    run = tmp_path / "tiny.run"
    qrels = tmp_path / "tiny.qrels"
    run.write_text("q1 Q0 d1 1 3.0 t\nq1 Q0 d2 2 2.0 t\n", encoding="utf-8")
    qrels.write_text("q1 0 d2 1\n", encoding="utf-8")
    assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"{'metric':<12} {'value':>12}"
    assert lines[1] == f"{'mrr@10':<12} {0.5:>12.6f}"
    assert lines[3] == f"{'recall@10':<12} {1.0:>12.6f}"


def test_eval_cutoff_flag(tmp_path, capsys):
    run = tmp_path / "tiny.run"
    qrels = tmp_path / "tiny.qrels"
    run.write_text("q1 Q0 d1 1 3.0 t\nq1 Q0 d2 2 2.0 t\n", encoding="utf-8")
    qrels.write_text("q1 0 d2 1\n", encoding="utf-8")
    assert main(["eval", "--run", str(run), "--qrels", str(qrels), "--cutoff", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"{'mrr@1':<12} {0.0:>12.6f}"


def test_eval_disjoint_run_and_qrels_exit_2(tmp_path, capsys):
    run = tmp_path / "tiny.run"
    qrels = tmp_path / "tiny.qrels"
    run.write_text("q1 Q0 d1 1 3.0 t\n", encoding="utf-8")
    qrels.write_text("q2 0 d1 1\n", encoding="utf-8")
    assert main(["eval", "--run", str(run), "--qrels", str(qrels)]) == 2
    assert capsys.readouterr().err.startswith("data error:")


@pytest.mark.parametrize("qrels_text, err", [("nobody 0 d1 1\n", "run and qrels share no query ids"),
                                             ("q1 0 d1\n", "expected 4 fields, got 3")], ids=["disjoint", "malformed"])
def test_rerank_refuses_unusable_qrels_before_scoring(corpus_files, tmp_path, capsys, qrels_text, err):
    qrels = tmp_path / "bad.qrels"
    qrels.write_text(qrels_text, encoding="utf-8")
    out = tmp_path / "out.run"
    argv = ["rerank", "--embeddings", corpus_files["emb"], "--run", corpus_files["run"],
            "--qrels", str(qrels), "--output", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and err in captured.err
    assert not out.exists()


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv(corpus_files, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--embeddings", corpus_files["emb"],
                 "--run", corpus_files["run"], "--qrels", corpus_files["qrels"],
                 "--output", str(out), "--sizes", "5,10,15", "--k", "6"])
    assert code == 0
    assert capsys.readouterr().out.strip() == f"swept 3 context sizes -> {out}"
    lines = read_bytes(out).decode().splitlines()
    assert lines[0].startswith(f"# recipnn {__version__} config=")
    assert lines[1] == "n,mrr@10"
    assert [int(ln.split(",")[0]) for ln in lines[2:]] == [5, 10, 15]
    for ln in lines[2:]:
        value = float(ln.split(",")[1])
        assert 0.0 <= value <= 1.0


def test_sweep_grid_rows_equal_rerank_run_at_each_setting(corpus_files, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["sweep", "--embeddings", corpus_files["emb"], "--run", corpus_files["run"],
                 "--qrels", corpus_files["qrels"], "--output", str(out), "--sizes", "5,10",
                 "--k", "4,6", "--tau", "0,0.5", "--lambda", "0.3,0.6"]) == 0
    assert capsys.readouterr().out.strip() == f"swept 2 context sizes x 8 settings -> {out}"
    lines = read_bytes(out).decode().splitlines()
    assert lines[0].startswith(f"# recipnn {__version__} config=") and " k=4,6 " in lines[0]
    assert lines[1] == "n,k,tau,lambda,mrr@10"
    store = load_embeddings(corpus_files["emb"])
    run, qrels = parse_run(corpus_files["run"], known_ids=store.keys()), parse_qrels(corpus_files["qrels"])
    expected = [
        f"{n},{k},{tau!r},{lam!r},"
        + repr(evaluate_metric("mrr@10", rerank_run(run, store, RnnParams(k=k, tau=tau, lam=lam), n), qrels))
        for k in (4, 6) for tau in (0.0, 0.5) for lam in (0.3, 0.6) for n in (5, 10)]
    assert lines[2:] == expected


def test_sweep_verbose_logs_one_line_per_cell(corpus_files, tmp_path, caplog):
    # each cell's line names n and every key the grid varies, with the value the CSV row holds
    out = tmp_path / "grid.csv"
    with caplog.at_level(logging.INFO, logger="recipnn.cli"):
        assert main([*small_argv("sweep", corpus_files, str(out)), "--sizes", "10",
                     "--k", "4,6", "--lambda", "0.3,0.6", "--verbose"]) == 0
    rows = [line.split(",") for line in read_bytes(out).decode().splitlines()[2:]]
    expected = [f"n={n} k={k} lambda={lam}: mrr@10 {value}, 0 queries passed through" for n, k, lam, value in rows]
    assert len(set(expected)) == 4
    assert [rec.getMessage() for rec in caplog.records if ": mrr@10 " in rec.getMessage()] == expected


def test_sweep_byte_identical_across_threads(corpus_files, tmp_path):
    blobs = []
    for name, threads in (("a", "1"), ("b", "8")):
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", "--embeddings", corpus_files["emb"],
                     "--run", corpus_files["run"], "--qrels", corpus_files["qrels"],
                     "--output", str(out), "--sizes", "5,10", "--k", "6",
                     "--metric", "ndcg@5", "--threads", threads]) == 0
        blobs.append(read_bytes(out))
    assert blobs[0] == blobs[1]


def test_sweep_rejects_unsorted_sizes(corpus_files, tmp_path, capsys):
    code = main(["sweep", "--embeddings", corpus_files["emb"],
                 "--run", corpus_files["run"], "--qrels", corpus_files["qrels"],
                 "--output", str(tmp_path / "s.csv"), "--sizes", "10,5"])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_sweep_rejects_non_integer_sizes(corpus_files, tmp_path, capsys):
    code = main(["sweep", "--embeddings", corpus_files["emb"],
                 "--run", corpus_files["run"], "--qrels", corpus_files["qrels"],
                 "--output", str(tmp_path / "s.csv"), "--sizes", "5,x"])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error:")


# ---------------------------------------------------------------------------
# bench (timing values vary run to run; assert structure only)


def test_bench_csv_structure(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--sizes", "20,40", "--trials", "3", "--dim", "16",
                 "--output", str(out)]) == 0
    lines = read_bytes(out).decode().splitlines()
    assert lines[0].startswith(f"# recipnn {__version__} config=")
    assert lines[1] == "n,mean_ms,p95_ms"
    assert len(lines) == 4
    for ln in lines[2:]:
        n, mean_ms, p95_ms = ln.split(",")
        assert int(n) in (20, 40)
        assert float(mean_ms) > 0.0 and float(p95_ms) > 0.0


def test_bench_writes_stdout_without_output(capsys):
    assert main(["bench", "--sizes", "20", "--trials", "3", "--dim", "8"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"# recipnn {__version__} config=")
    assert "\nn,mean_ms,p95_ms\n" in out


def test_bench_structural_determinism(tmp_path):
    # same sizes, same header: everything except the timing numbers repeats
    headers, shapes = [], []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.csv"
        assert main(["bench", "--sizes", "20,40", "--trials", "3", "--dim", "8",
                     "--output", str(out)]) == 0
        lines = read_bytes(out).decode().splitlines()
        headers.append(lines[:2])
        shapes.append([ln.split(",")[0] for ln in lines[2:]])
    assert headers[0] == headers[1]
    assert shapes[0] == shapes[1]


def test_bench_header_names_the_default_sizes(tmp_path):
    # the sizes timed without --sizes are in the header, as if given
    headers = []
    for sizes in ([], ["--sizes", "50,100,200,400"]):
        out = tmp_path / f"bench{len(sizes)}.csv"
        assert main(["bench", *sizes, "--trials", "3", "--dim", "4", "--output", str(out)]) == 0
        lines = read_bytes(out).decode().splitlines()
        assert [ln.split(",")[0] for ln in lines[2:]] == ["50", "100", "200", "400"]
        headers.append(lines[0])
    assert " sizes=50,100,200,400 " in headers[0]
    assert headers[0] == headers[1]


# ---------------------------------------------------------------------------
# convert


def test_convert_round_trip_bytes(corpus_files, tmp_path, capsys):
    tsv = tmp_path / "vectors.tsv"
    back = tmp_path / "vectors-back.emb"
    assert main(["convert", "--input", corpus_files["emb"], "--to", "tsv",
                 "--output", str(tsv)]) == 0
    first = capsys.readouterr().out.strip()
    matrix = load_embeddings(corpus_files["emb"])
    assert first == f"wrote {len(matrix)} vectors (dim {matrix.dim}) as tsv -> {tsv}"
    assert main(["convert", "--input", str(tsv), "--to", "binary",
                 "--output", str(back)]) == 0
    assert read_bytes(back) == read_bytes(corpus_files["emb"])


@pytest.mark.parametrize("bad_id", ["a\tb", "a\nb", "a\rb", None])
def test_convert_to_tsv_refuses_ids_it_cannot_read_back(tmp_path, capsys, bad_id):
    # None: a store of no records, whose dimensionality a TSV file has no place for
    emb = tmp_path / "in.emb"
    matrix = (EmbeddingMatrix([], np.zeros((0, 4), dtype=np.float32)) if bad_id is None
              else EmbeddingMatrix(["ok", bad_id], np.eye(2, dtype=np.float32)))
    write_embeddings(matrix, emb, fmt="binary")
    out = tmp_path / "out.tsv"
    assert main(["convert", "--input", str(emb), "--to", "tsv", "--output", str(out)]) == 2
    assert ("0 records of dim 4" if bad_id is None else "position 1") in capsys.readouterr().err
    assert not out.exists()


def test_convert_to_tsv_round_trips_other_line_separators(tmp_path):
    # U+0085, U+2028 and a vertical tab end lines for str.splitlines, not for the reader
    ids = ["a\x85b", "a\u2028b", "a\x0bb"]
    emb, tsv, back = tmp_path / "in.emb", tmp_path / "out.tsv", tmp_path / "back.emb"
    write_embeddings(EmbeddingMatrix(ids, np.eye(3, dtype=np.float32)), emb, fmt="binary")
    assert main(["convert", "--input", str(emb), "--to", "tsv", "--output", str(tsv)]) == 0
    assert main(["convert", "--input", str(tsv), "--to", "binary", "--output", str(back)]) == 0
    assert read_bytes(back) == read_bytes(emb)


def test_convert_rejects_unknown_format(corpus_files, tmp_path, capsys):
    assert main(["convert", "--input", corpus_files["emb"], "--to", "parquet",
                 "--output", str(tmp_path / "x")]) == 1
    assert "--to must be binary or tsv" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# selftest


def test_selftest_passes(capsys):
    assert main(["selftest", "--trials", "6", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.strip() == "selftest: 6 random contexts checked, all routes agree"


@pytest.mark.parametrize("fault,named", [("blocks of one", "(selftest-0-larger, "),
                                         ("blocks of several", "(selftest-0, "),
                                         ("extended sets", "extended sets diverge")])
def test_selftest_fails_on_a_fault_in_the_route_the_commands_take(monkeypatch, capsys, fault, named):
    if fault == "extended sets":
        real = cli.extended_reciprocal_set
        monkeypatch.setattr(cli, "extended_reciprocal_set",
                            lambda *args: SimpleNamespace(members=sorted(real(*args).members)[:-1]))
    else:
        kernel = cli.rnn_scores_block

        def shifted(contexts, params, probes):
            rows = kernel(contexts, params, probes)
            return rows + 1e-6 if (len(contexts) > 1) == (fault == "blocks of several") else rows

        monkeypatch.setattr(cli, "rnn_scores_block", shifted)
    assert main(["selftest", "--trials", "3"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: selftest:")
    assert named in err


def test_selftest_fails_when_lambda_one_leaves_the_geometric_order(monkeypatch, capsys):
    real = cli.rerank_context
    monkeypatch.setattr(cli, "rerank_context", lambda c, p: SimpleNamespace(doc_ids=real(c, p).doc_ids[::-1]))
    assert main(["selftest", "--trials", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: selftest: lambda=1 ordering differs from geometry")
    assert "(selftest-0)" in err


# ---------------------------------------------------------------------------
# every accepted key reaches the code


class RecordingConfig(dict):
    """A config dict that remembers which keys were read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_every_command_key_is_read(corpus_files, tmp_path, monkeypatch, capsys, command):
    # a key that is accepted but never read would only move the config hash
    configs = []

    def recording(*args, **kwargs):
        configs.append(RecordingConfig(effective_config(*args, **kwargs)))
        return configs[-1]

    monkeypatch.setattr(cli, "effective_config", recording)
    assert main(small_argv(command, corpus_files, str(tmp_path / "out"))) == 0
    assert sorted(COMMAND_KEYS[command] - configs[0].read) == []
