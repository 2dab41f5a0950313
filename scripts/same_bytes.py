#!/usr/bin/env python3
"""Compare what the command line of two trees of this repository writes, byte for byte.

Usage:
    python3 scripts/same_bytes.py REV_OR_DIR [--queries N] [--seed S]

REV_OR_DIR is a directory holding another tree of this repository (its
package under src/), or a git revision, which is checked out with
`git worktree add` into a temporary directory and removed at the end.

The inputs are generated once, with this tree's `recipnn.synthetic`, at the
arguments of `perfbench/workload.py`'s WORKLOADS (--queries replaces their
query count), and each run is also written with its lines shuffled, and
with its first query's lines moved to the end: two shards joined, in
ascending query order up to the last group. Each tree then runs `python -m
recipnn` with its own src/ on PYTHONPATH, on the generated run and on each
copy, at --threads 1 and 2: rerank with
the workload's flags and sweep over half and all of its context size on a
rerank workload; smooth with the workload's flags in modes eb, uniform and
uniform-matched on a smooth workload; and selftest once. One line is
printed for each output file, stdout, stderr (commands run without
--verbose) or exit code that differs, stdout with each tree's output path
replaced. The exit code is 1 if anything differs and 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workload import EMBEDDINGS, QRELS, RUN, WORKLOADS  # noqa: E402  the workloads' one home

from recipnn import synthetic  # noqa: E402
from recipnn.embeddings import write_embeddings  # noqa: E402
from recipnn.ir_eval import write_qrels, write_run  # noqa: E402

SHUFFLED = "shuffled.run"
JOINED = "joined.run"


def generate(inputs: Path, queries: int | None, seed: int) -> None:
    """Each workload's inputs in inputs/NAME, its run with shuffled lines, and
    its run with the first query's lines last."""
    for w in WORKLOADS.values():
        d = inputs / w.name
        d.mkdir(parents=True)
        corpus = getattr(synthetic, w.corpus)(seed=seed, **{**w.corpus_args, **({"n_queries": queries} if queries else {})})
        write_embeddings(corpus.embeddings, d / EMBEDDINGS)
        write_run(corpus.run, d / RUN)
        write_qrels(corpus.qrels, d / QRELS)
        lines = (d / RUN).read_text(encoding="utf-8").splitlines(keepends=True)
        first = lines[0].split()[0]
        (d / JOINED).write_text("".join(sorted(lines, key=lambda line: line.split()[0] == first)), encoding="utf-8")
        random.Random(seed).shuffle(lines)
        (d / SHUFFLED).write_text("".join(lines), encoding="utf-8")


def invocations(inputs: Path) -> dict[str, list[str]]:
    """Each invocation's label and its arguments, the output path left out."""
    calls = {"selftest": ["selftest"]}
    for w in WORKLOADS.values():
        d = inputs / w.name
        for run in (RUN, SHUFFLED, JOINED):
            data = ["--embeddings", str(d / EMBEDDINGS), "--run", str(d / run), "--qrels", str(d / QRELS)]
            for threads in ("1", "2"):
                flags = list(w.flags)
                flags[flags.index("--threads") + 1] = threads
                label = f"{w.name}/{run}/threads-{threads}"
                if w.command == "rerank":
                    calls[f"{label}/rerank"] = ["rerank", *data, *flags]
                    at = flags.index("--n-context")
                    size = int(flags[at + 1])
                    flags[at:at + 2] = ["--sizes", f"{size // 2},{size}"]
                    calls[f"{label}/sweep"] = ["sweep", *data, *flags]
                else:
                    for mode in ("eb", "uniform", "uniform-matched"):
                        calls[f"{label}/smooth-{mode}"] = ["smooth", *data, *flags, "--mode", mode]
    return calls


def run_tree(tree: Path, calls: dict[str, list[str]], outputs: Path) -> dict[str, dict[str, bytes]]:
    """Each invocation's exit code, stdout, stderr and output file, as run by `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    seen = {}
    for n, (label, argv) in enumerate(calls.items()):
        output = outputs / f"{n:03d}.out"
        if argv[0] != "selftest":
            argv = [*argv, "--output", str(output)]
        done = subprocess.run([sys.executable, "-m", "recipnn", *argv], env=env, capture_output=True)
        seen[label] = {"exit code": str(done.returncode).encode(),
                       "stdout": done.stdout.replace(str(output).encode(), b"OUTPUT"),
                       "stderr": done.stderr,
                       "output file": output.read_bytes() if output.exists() else b"(none)"}
    return seen


def compare(other: Path, queries: int | None, seed: int) -> list[str]:
    """One line per item of an invocation that differs between this tree and `other`."""
    with tempfile.TemporaryDirectory(prefix="same-bytes-") as scratch:
        scratch = Path(scratch)
        generate(scratch / "inputs", queries, seed)
        calls = invocations(scratch / "inputs")
        seen = []
        for name, tree in (("this", ROOT), ("other", other)):
            (scratch / name).mkdir()
            seen.append(run_tree(tree, calls, scratch / name))
    return [f"{label}: {item} differs" for label in calls for item in seen[0][label]
            if seen[0][label][item] != seen[1][label][item]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_or_dir", help="a directory holding the other tree, or a git revision")
    parser.add_argument("--queries", type=int, default=None, help="queries per workload (default: the workload's)")
    parser.add_argument("--seed", type=int, default=7, help="seed of the generated inputs")
    args = parser.parse_args(argv)
    if Path(args.rev_or_dir).is_dir():
        differ = compare(Path(args.rev_or_dir).resolve(), args.queries, args.seed)
    else:
        checkout = Path(tempfile.mkdtemp(prefix="same-bytes-tree-"))
        shutil.rmtree(checkout)  # git worktree add makes the directory itself
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet", str(checkout),
                        args.rev_or_dir], check=True)
        try:
            differ = compare(checkout, args.queries, args.seed)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(checkout)], check=True)
    for line in differ:
        print(line)
    print(f"{len(differ)} differences")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
