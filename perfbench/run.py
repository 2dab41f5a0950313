"""Benchmark of the recipnn command-line tool.

One closed-loop client: this process starts one `python -m recipnn ...`
invocation as a fresh subprocess, waits for it to end, then starts the next,
until --seconds have passed. Inputs are generated from --seed with
recipnn.synthetic before any clock starts; the program receives only the
generated files. Every invocation's output is checked. --trace 1 alternates
untraced invocations with traced ones (see traced_cli.py) and reports
per-layer metrics instead of end-to-end ones.

Run from the repository root:

    python3 perfbench/run.py --workload rerank-wide --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 1 when a correctness check
failed and 2 when the package sources are not found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from layers import PER_LAYER, layer_metrics
from tracing import Span, tail
from workload import EMBEDDINGS, QRELS, RUN, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# fewest timed invocations per run, even when --seconds is shorter
MIN_INVOCATIONS = 3
# recorded as found and never set: default BLAS threading is program behaviour
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# stderr warnings the CLI logs for a query it passes through or skips
DROP_MARKERS = ("left in original order", "skipping query")

E2E: tuple[tuple[str, str], ...] = (
    ("wall_s", "s"), ("setup_s", "s"), ("queries_per_s", "1/s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)
# Output quality is fixed by the seed, so it is reported with the per-layer
# metrics, without a bound; 0 where the command does not produce it.
QUALITY = {"rerank": ("ir_eval.mrr_at_10", "MRR@10 of the output run against the judged qrels"),
           "smooth": ("smoothing.fn_mass",
                      "mean target mass on unjudged members of each query's planted cluster")}
TRACED = PER_LAYER + tuple((name, "score") for name, _ in QUALITY.values())

SETUP_PROBE = ("import sys\n"
               "from recipnn.cli import load_embeddings, parse_qrels, parse_run\n"
               "load_embeddings(sys.argv[1]); parse_run(sys.argv[2]); parse_qrels(sys.argv[3])\n")

# ROADMAP's hand-measured baseline stage times for rerank-wide, ms
ROADMAP_MS = (("load", 157), ("parse", 422), ("context", 360), ("rnn", 435),
              ("sort + RankedList", 180), ("write", 77), ("end to end", 1570))


@dataclass
class Invocation:
    wall: float
    cpu: float
    rss_mb: float
    code: int


@dataclass
class Gate:
    """Correctness bookkeeping: every checked operation and every failure."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spawn(argv: list[str], env: dict, log: Path) -> Invocation:
    """Run argv to completion with stdout and stderr in log files.

    CPU time and peak RSS are this child's own, read with wait4; the peak
    includes this process's own peak, which stays far below any child's.
    """
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


class Runner:
    """Spawns and checks every process of one run, inside work directory `d`."""

    def __init__(self, w: Workload, d: Path, gate: Gate):
        self.w, self.d, self.gate = w, d, gate
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), self.env.get("PYTHONPATH")) if p)
        self.output = d / ("output.jsonl" if w.command == "smooth" else "output.run")
        self.digest: str | None = None
        self.quality: dict = {}
        self.n_logs = 0

    def _spawn(self, argv: list[str]) -> tuple[Invocation, Path]:
        self.n_logs += 1
        log = self.d / f"call{self.n_logs:04d}"
        return spawn(argv, self.env, log), log

    def helper(self, *args: str) -> tuple[dict | None, str]:
        """Run a workload.py step; (its JSON report, "") or (None, its stderr)."""
        inv, log = self._spawn([sys.executable, str(HERE / "workload.py"), *args])
        if inv.code != 0:
            return None, log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        return json.loads(log.with_suffix(".out").read_text(encoding="utf-8")), ""

    def invoke(self, spans: Path | None = None, threads: str | None = None) -> Invocation:
        """One CLI invocation, checked; `spans` makes it a traced one."""
        flags = list(self.w.flags)
        if threads is not None:
            flags[flags.index("--threads") + 1] = threads
        head = [sys.executable, str(HERE / "traced_cli.py"), str(spans)] if spans else \
               [sys.executable, "-m", "recipnn"]
        self.output.unlink(missing_ok=True)  # an invocation must write its own output
        inv, log = self._spawn(head + [
            self.w.command, "--embeddings", str(self.d / EMBEDDINGS), "--run", str(self.d / RUN),
            "--qrels", str(self.d / QRELS), "--output", str(self.output), *flags])
        stderr = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
        problems = []
        if inv.code != 0:
            problems.append(f"exit code {inv.code}: {stderr.strip()[-300:]}")
        dropped = sum(stderr.count(marker) for marker in DROP_MARKERS)
        if dropped:
            problems.append(f"{dropped} queries passed through or skipped")
        if inv.code == 0 and not self.output.exists():
            problems.append("exit code 0 but no output file")
        elif inv.code == 0:
            digest = hashlib.sha256(self.output.read_bytes()).hexdigest()
            if self.digest is None:
                self.digest = digest
                report, err = self.helper("check", self.w.name, str(self.d), str(self.output))
                if report is None:
                    problems.append(f"output does not parse: {(err.strip().splitlines() or [''])[-1]}")
                elif report["missing"]:
                    problems.append(f"output lacks {len(report['missing'])} queries, "
                                    f"e.g. {report['missing'][0]}")
                self.quality = report or {}
            elif digest != self.digest:
                problems.append("output bytes differ from the first checked output")
        self.gate.check(not problems, "; ".join(problems))
        return inv

    def setup_probe(self) -> float:
        inv, _ = self._spawn([sys.executable, "-c", SETUP_PROBE, str(self.d / EMBEDDINGS),
                              str(self.d / RUN), str(self.d / QRELS)])
        self.gate.check(inv.code == 0, f"setup probe exit code {inv.code}")
        return inv.wall


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(w: Workload, seed: int, seconds: float, trace: bool, d: Path) -> tuple[dict, Gate]:
    gate = Gate()
    runner = Runner(w, d, gate)
    t0 = time.perf_counter()
    facts, err = runner.helper("generate", w.name, str(seed), str(d))
    if facts is None:
        raise RuntimeError(f"generating the {w.name} inputs failed:\n{err}")
    for ok, what in facts.pop("checks"):
        gate.check(ok, what)
    print("host " + json.dumps({
        "nproc": os.cpu_count(), "cpu": cpu_model(), "python": facts.pop("python"),
        "numpy": facts.pop("numpy"), "blas": facts.pop("blas"), "seed": seed,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}))
    print(f"inputs {json.dumps(facts)}; generated and oracle-checked in "
          f"{time.perf_counter() - t0:.2f} s, untimed")

    # Warm-up, checked but untimed: page cache and bytecode cache. For a
    # threaded workload it is the --threads 1 reference, the first output
    # checked, so every threaded output must carry the same bytes.
    runner.invoke(threads="1")
    runner.setup_probe()

    untraced: list[Invocation] = []
    setups: list[float] = []
    traced: list[tuple[Invocation, Path]] = []
    deadline = time.perf_counter() + seconds
    while len(untraced) < MIN_INVOCATIONS or time.perf_counter() < deadline:
        untraced.append(runner.invoke())
        if trace:
            spans = d / f"spans{len(traced):03d}.json"
            traced.append((runner.invoke(spans=spans), spans))
        else:
            setups.append(runner.setup_probe())

    print(f"samples: {len(untraced)} untraced invocations"
          + (f", {len(traced)} traced" if trace else f", {len(setups)} setup probes"))
    if trace:
        metrics, notes = traced_metrics(w, untraced, traced)
        for name, _ in QUALITY.values():
            metrics[name] = 0.0
    else:
        metrics, notes = e2e_metrics(untraced, setups, facts["queries"])
    if runner.quality:
        name, meaning = QUALITY[w.command]
        metrics[name] = runner.quality["quality"]
        notes[name] = f"{metrics[name]:.6f} score, {meaning}" + (
            f"; input run {runner.quality['input_mrr_at_10']:.6f}" if w.command == "rerank" else "")
    for name, note in notes.items():
        print(f"  {name}: {note}")
    return metrics, gate


def e2e_metrics(runs: list[Invocation], setups: list[float], n_queries: int) -> tuple[dict, dict]:
    samples = {"wall_s": [r.wall for r in runs], "setup_s": setups,
               "cpu_s": [r.cpu for r in runs], "peak_rss_mb": [r.rss_mb for r in runs]}
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["queries_per_s"] = n_queries / (values["wall_s"] - values["setup_s"])
    notes = {}
    for name, v in samples.items():
        lo, hi = quartiles(v)
        found = tail(v)
        notes[name] = (f"median {values[name]:.4f}, quartiles {lo:.4f} / {hi:.4f}, n={len(v)}"
                       + (f", {found[0]} {found[1]:.4f}" if found else ", too few samples for a tail"))
    notes["queries_per_s"] = f"{n_queries} queries / (median wall_s - median setup_s)"
    return values, notes


def traced_metrics(w: Workload, untraced: list[Invocation],
                   traced: list[tuple[Invocation, Path]]) -> tuple[dict, dict]:
    """Median over traced invocations of each per-layer metric; each traced
    invocation is paired with the untraced one just before it."""
    per_call, notes, absent = [], {}, set()
    for plain, (inv, path) in zip(untraced, traced):
        if inv.code != 0 or plain.code != 0 or not path.exists():
            continue  # already counted as failed by the gate
        data = json.loads(path.read_text(encoding="utf-8"))
        spans = [Span.from_row(row) for row in data["spans"]]
        absent.update(data["absent"])
        m, notes = layer_metrics(spans, inv.wall, plain.wall, data["import_s"])
        per_call.append(m)
        if w.name == "rerank-wide" and len(per_call) == 1:
            print_reconciliation(m, inv.wall)
    if absent:
        notes["absent spans"] = ", ".join(sorted(absent))
    if not per_call:
        return {name: 0.0 for name, _ in PER_LAYER}, notes
    return {name: statistics.median(m[name] for m in per_call) for name, _ in PER_LAYER}, notes


def print_reconciliation(m: dict, wall: float) -> None:
    """The first traced rerank-wide invocation beside ROADMAP's hand baseline."""
    traced_s = {"load": m["embeddings.load_s"], "parse": m["ir_eval.parse_run_s"],
                "context": m["context.build_s"], "rnn": m["neighbors.rnn_s"],
                "sort + RankedList": m["rerank.self_s"], "write": m["ir_eval.write_run_s"],
                "end to end": wall}
    print("stage                roadmap_ms  traced_ms")
    for stage, roadmap in ROADMAP_MS:
        print(f"  {stage:<19}{roadmap:>10}  {traced_s[stage] * 1000:>9.1f}")
    print(f"  trace.coverage {m['trace.coverage']:.3f}, cli.import_s {m['cli.import_s']:.3f}, "
          f"cli.self_s {m['cli.self_s']:.3f}")


def run_one(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    print(f"== workload {w.name}, seed {seed}, {seconds:g} s, trace {int(trace)} ==")
    print(f"why: {w.why}")
    WORK.mkdir(exist_ok=True)
    d = Path(tempfile.mkdtemp(prefix=f"{w.name}-{seed}-", dir=WORK))
    try:
        metrics, gate = measure(w, seed, seconds, trace, d)
    finally:
        shutil.rmtree(d, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    table = TRACED if trace else E2E
    for name, unit in table:
        print(f"{name:<30} {metrics[name]:>16.6f} {unit}")
    failed = len(gate.failures)
    print(f"{'failed_frac':<30} {failed / gate.attempted:>16.6f} frac "
          f"({failed} of {gate.attempted} checked operations)")
    for what in gate.failures[:20]:
        print(f"FAILED: {what}")
    return {"correct": failed == 0, "attempted": gate.attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the recipnn CLI on seeded workloads.")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="ignored with --workload all, which runs both")
    args = parser.parse_args(argv)
    if not (SRC / "recipnn" / "__init__.py").is_file():
        print(f"perfbench: recipnn sources not found under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    results = []
    for w in WORKLOADS.values():
        for trace in (False, True):
            results.append(run_one(w, args.seed, args.seconds, trace))
            print(json.dumps(results[-1]))
    summary = {"correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results), "metrics": {}}
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
