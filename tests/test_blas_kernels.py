"""The recorded digests hold under another BLAS kernel.

OpenBLAS builds with ``DYNAMIC_ARCH`` pick their kernels at load time, and
``OPENBLAS_CORETYPE`` overrides the pick. Nehalem's kernels use no fused
multiply-add, so they sum products in another way than the AVX kernels most
hosts pick. This test reruns the benchmark-size suite digests (seeds 0 and 42)
and the grids' artifact digests under Nehalem, against the values the other
tests pin."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PINNED = [
    "test_clustering.py::TestBuildClusterSuite::test_benchmark_size_suite_digest",
    "test_experiments.py::TestToyExperiment::test_csv_bytes_match_recorded_digests",
    "test_experiments.py::TestGridArtifactBytes",
]


def _nehalem_env() -> dict:
    return dict(os.environ, OPENBLAS_CORETYPE="Nehalem")


def test_pinned_digests_hold_under_the_nehalem_kernel():
    probe = subprocess.run([sys.executable, "-c", "import numpy, scipy.linalg"],
                           env=dict(_nehalem_env(), OPENBLAS_VERBOSE="2"),
                           capture_output=True, text=True, check=True)
    if "Core: Nehalem" not in probe.stdout + probe.stderr:
        pytest.skip("this BLAS does not take its kernel from OPENBLAS_CORETYPE: "
                    "OPENBLAS_VERBOSE=2 printed no 'Core: Nehalem' line")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          *(str(TESTS / test) for test in PINNED)],
                         env=_nehalem_env(), cwd=TESTS.parent, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-3000:]
    assert "skipped" not in run.stdout.splitlines()[-1]
