"""Start-up guard: the package and its light modules load numpy and the
stdlib only, no module loads scipy.stats (about 1 s of import time),
clustering loads no scipy module that scipy.spatial does not,
neither experiments nor clustering loads a process pool, io loads no numpy,
the judge loads no thread pool, and generators loads no judge."""

import pkgutil
import subprocess
import sys
from pathlib import Path

import collapse_lab

LIGHT = ("io", "_http", "judge", "chain", "metrics", "toy", "experiments", "cli")


def _modules_after(*statements):
    src = str(Path(collapse_lab.__file__).resolve().parents[1])
    code = "\n".join([f"import sys; sys.path.insert(0, {src!r})", *statements,
                      "print('\\n'.join(sys.modules))"])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True)
    return set(out.stdout.split())


def _modules_after_import(names):
    return _modules_after("import collapse_lab", *(f"import collapse_lab.{name}" for name in names))


def _scipy(modules):
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


def test_light_modules_load_no_scipy():
    loaded = _modules_after_import(LIGHT)
    assert {f"collapse_lab.{name}" for name in LIGHT} <= loaded
    assert sorted(_scipy(loaded)) == []


def test_no_module_loads_scipy_stats():
    names = [m.name for m in pkgutil.iter_modules(collapse_lab.__path__)]
    loaded = _modules_after_import(names)
    assert {"collapse_lab.clustering", "collapse_lab.regression"} <= loaded
    assert "scipy.stats" not in loaded


def test_experiments_loads_no_process_pool():
    """The grid's process pool is imported when a grid first runs on it."""
    loaded = _modules_after_import(["experiments"])
    assert "collapse_lab.experiments" in loaded
    assert sorted(m for m in loaded if m == "multiprocessing" or m.startswith("multiprocessing.")
                  or m == "concurrent.futures.process") == []


def test_clustering_loads_no_process_pool_and_no_experiment_module():
    loaded = _modules_after_import(["clustering"])
    assert "collapse_lab.clustering" in loaded
    assert sorted(m for m in loaded if m in {"multiprocessing", "concurrent.futures.process",
                                             "collapse_lab.experiments", "collapse_lab.chain",
                                             "collapse_lab.toy"}) == []


def test_clustering_loads_no_scipy_module_beyond_scipy_spatial():
    """The GMM E-step's solve comes from scipy.linalg.lapack, which
    scipy.spatial loads anyway, so it costs no import time."""
    loaded = _modules_after_import(["clustering"])
    assert "collapse_lab.clustering" in loaded
    assert "scipy.linalg.lapack" in loaded
    assert sorted(_scipy(loaded) - _scipy(_modules_after("import scipy.spatial"))) == []


def test_io_loads_no_numpy_and_no_chain():
    """Reading and writing files loads numpy only when embeddings are read
    or written."""
    loaded = _modules_after_import(["io"])
    assert "collapse_lab.io" in loaded
    assert sorted(m for m in loaded if m in {"numpy", "collapse_lab.chain"}) == []


def test_judge_loads_no_thread_pool():
    """The judge runs every request on the calling thread; concurrent.futures
    would cost about 10 ms of import time."""
    loaded = _modules_after_import(["judge"])
    assert "collapse_lab.judge" in loaded
    assert sorted(m for m in loaded if m == "concurrent" or m.startswith("concurrent.")) == []


def test_generators_loads_no_judge():
    """The external generator posts with ``_http``, the one HTTP client."""
    loaded = _modules_after_import(["generators"])
    assert "collapse_lab._http" in loaded
    assert "collapse_lab.judge" not in loaded
