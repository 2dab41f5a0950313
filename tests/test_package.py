"""What importing the package and its command line does to a fresh interpreter.

Each check runs in its own subprocess: the test process has numpy loaded
already (conftest.py imports it), so only a fresh interpreter shows what an
import loads and which environment it sees, and only a fresh one honours a
BLAS thread count set in its environment.
"""

import ctypes
import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import recipnn

SRC = str(Path(recipnn.__file__).resolve().parents[1])
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_fresh(code: str, cwd: Path | None = None, **env_overrides: str) -> str:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(env_overrides)
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_import_does_not_load_numpy():
    assert run_fresh("""
        import sys
        import recipnn
        print("numpy" in sys.modules)
    """) == "False"


@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="no built-in SHA-256 module")
def test_cli_import_leaves_openssl_unloaded():
    # hashlib imports OpenSSL's _hashlib, which maps libcrypto, whatever is called
    assert run_fresh("""
        import sys
        import recipnn.cli
        print("_hashlib" in sys.modules)
    """) == "False"


def test_the_kernel_and_the_query_route_import_apart():
    # neighbors holds the kernel alone; parallel, the route from queries to
    # blocks and worker processes, needs neither the kernel nor numpy
    assert run_fresh("""
        import sys
        import recipnn.neighbors
        print("recipnn.parallel" in sys.modules)
    """) == "False"
    assert run_fresh("""
        import sys
        import recipnn.parallel
        print("numpy" in sys.modules, "recipnn.neighbors" in sys.modules)
    """) == "False False"


def test_public_names_resolve_on_first_use_to_their_home_objects():
    assert run_fresh("""
        import sys
        import recipnn
        assert not set(recipnn.__all__) & set(vars(recipnn)), "names bound before first use"
        for name in recipnn.__all__:
            obj = getattr(recipnn, name)
            assert obj is getattr(sys.modules[obj.__module__], name), name
            assert vars(recipnn)[name] is obj, name
        assert set(recipnn.__all__) <= set(dir(recipnn))
        try:
            recipnn.no_such_name
        except AttributeError as exc:
            print(exc)
    """) == "module 'recipnn' has no attribute 'no_such_name'"


def test_cli_import_pins_blas_threads_unless_set():
    show = f"""
        import os
        import recipnn.cli
        print(*(os.environ.get(var) for var in {BLAS_VARS!r}))
    """
    assert run_fresh(show) == "1 1 1"
    assert run_fresh(show, OPENBLAS_NUM_THREADS="3") == "3 None None"
    assert run_fresh(show, OMP_NUM_THREADS="2") == "None 2 None"


@pytest.mark.skipif(not sys.platform.startswith("linux") or not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="glibc's mallopt")
def test_cli_import_fixes_the_allocator_policy():
    # Each round makes a 2 MiB float64 array and a temporary of its size, as the
    # kernel makes its m x m ones. With glibc's moving thresholds the freed heap
    # top is trimmed and faulted in again every round; with the CLI's fixed ones
    # it is reused.
    rounds = textwrap.dedent("""
        import resource
        import numpy as np
        def faults(n):
            start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(n):
                a = np.ones(2**18)
                float((a + 1.0).sum())
                del a
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start
        faults(1)  # the first round grows the heap
        print(faults(50))
    """)
    with_cli = int(run_fresh("import recipnn.cli" + rounds))
    without = int(run_fresh(rounds))
    assert with_cli < 50
    assert without >= 10 * 50


def test_benchmark_bindings_name_functions_that_exist():
    # the benchmark's tracer reports a binding it cannot find as absent and reads
    # that layer as 0, so a renamed or moved function would go unnoticed there
    perfbench = Path(SRC).parent / "perfbench"
    assert run_fresh(f"""
        import importlib, sys
        sys.path.insert(0, {str(perfbench)!r})
        from layers import BINDINGS
        assert BINDINGS
        print([f"{{b.module}}.{{b.attr}}" for b in BINDINGS
               if not callable(getattr(importlib.import_module(b.module), b.attr, None))])
    """) == "[]"


def test_pyproject_reads_the_package_version_without_importing_it():
    pyproject = Path(SRC).parent / "pyproject.toml"
    assert run_fresh(f"""
        import sys
        import warnings
        from setuptools.config.pyprojecttoml import read_configuration
        warnings.simplefilter("ignore")
        config = read_configuration({str(pyproject)!r}, expand=True)
        print(config["project"]["version"], "numpy" in sys.modules)
    """) == f"{recipnn.__version__} False"


def test_readme_library_example_runs_on_the_demo_corpus(tmp_path):
    # the README's first python block, run where its quick start writes the demo corpus
    root = Path(SRC).parent
    example = (root / "README.md").read_text(encoding="utf-8").split("```python\n", 1)[1].split("```", 1)[0]
    run_fresh(f"""
        import runpy, sys
        sys.argv = [{str(root / "scripts" / "make_demo_data.py")!r}, "--out", "demo/", "--seed", "0", "--queries", "20"]
        runpy.run_path(sys.argv[0], run_name="__main__")
    """, cwd=tmp_path)
    run_fresh(example, cwd=tmp_path)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_context_geometry_is_exact_at_any_blas_thread_count(threads):
    # build_context relies on numpy's A @ A.T being exactly symmetric (it is
    # not symmetrised afterwards) and on one score per row for the query row
    assert run_fresh("""
        import numpy as np
        from recipnn.context import build_context
        rng = np.random.default_rng(9)
        for m in (2, 17, 129, 401, 1001):
            for dim in (2, 64, 768):
                distinct = rng.standard_normal((max(1, m // 3), dim)).astype(np.float32)
                picks = rng.integers(0, len(distinct), size=m - 1)
                ctx = build_context("q", rng.standard_normal(dim), [f"d{i:04d}" for i in range(m - 1)],
                                    distinct[picks])
                sim = ctx.sim_matrix
                assert np.array_equal(sim, sim.T), (m, dim)
                which = picks[[int(d[1:]) for d in ctx.candidate_ids]]
                for g in np.unique(which):
                    assert len(set(ctx.sim_matrix[0][1:][which == g].tolist())) == 1, (m, dim, g)
        print("ok")
    """, OPENBLAS_NUM_THREADS=threads) == "ok"
