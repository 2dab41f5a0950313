"""scripts/same_bytes.py on a 20-query corpus: this tree against itself, and
against a copy whose kernel has one changed constant and whose --verbose
log words one line otherwise."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_same_bytes_passes_a_tree_against_itself_and_names_what_a_kernel_change_alters(tmp_path, monkeypatch,
                                                                                      capsys):
    spec = importlib.util.spec_from_file_location("same_bytes", ROOT / "scripts" / "same_bytes.py")
    same_bytes = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(same_bytes)
    # the smooth workload alone keeps the test short: three modes, three runs, two thread counts
    monkeypatch.setattr(same_bytes, "WORKLOADS", {"smooth-multigt": same_bytes.WORKLOADS["smooth-multigt"]})
    assert same_bytes.main([str(ROOT), "--queries", "20"]) == 0
    assert capsys.readouterr().out == "0 differences\n"

    copy = tmp_path / "tree"
    shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    kernel = copy / "src" / "recipnn" / "neighbors.py"
    text = kernel.read_text(encoding="utf-8")
    assert text.count("_EPS_WEIGHT = 1e-6\n") == 1
    kernel.write_text(text.replace("_EPS_WEIGHT = 1e-6\n", "_EPS_WEIGHT = 2e-6\n"), encoding="utf-8")
    cli = copy / "src" / "recipnn" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('"parsed judgments for ') == 1
    cli.write_text(text.replace('"parsed judgments for ', '"read judgments for '), encoding="utf-8")
    assert same_bytes.main([str(copy), "--queries", "20"]) == 1
    lines = capsys.readouterr().out.splitlines()
    for run in ("input.run", "shuffled.run", "joined.run"):
        for threads in ("1", "2"):
            assert f"smooth-multigt/{run}/threads-{threads}/smooth-eb: output file differs" in lines
            for mode in ("eb", "uniform", "uniform-matched"):
                assert f"smooth-multigt/{run}/threads-{threads}/smooth-{mode}: log differs" in lines
            # uniform labels read no similarity
            assert [line for line in lines if line.startswith(f"smooth-multigt/{run}/threads-{threads}/smooth-uniform:")
                    ] == [f"smooth-multigt/{run}/threads-{threads}/smooth-uniform: log differs"]
    assert "selftest: exit code differs" in lines
    assert lines[-1] == f"{len(lines) - 1} differences"
