"""Tests of the benchmark itself: every workload at a tiny size passes its
output check, tampered outputs fail it, a traced run restores every wrapped
attribute, and the runner's metric names match BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

import collapse_lab  # noqa: E402

TINY = {
    "chain": dict(initial_human=40, per_gen_total=20, eval_sample=8, generations=2),
    "suite": dict(points=400, sample=200, blobs=10, final_count=40),
    "sweep": dict(toy_runs=2),
    "annotate": dict(texts=100),
}


@pytest.fixture
def make(tmp_path):
    opened = []

    def _make(name, seed=3):
        wl = workloads.WORKLOADS[name](seed, TINY[name])
        opened.append(wl)
        wl.prepare(tmp_path)
        wl.load()
        return wl

    yield _make
    for wl in opened:
        wl.close()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_check(make, name):
    wl = make(name)
    for _ in range(2):
        wl.reset()
        assert wl.check(wl.op()) == []


def test_chain_check_catches_a_wrong_metric(make):
    wl = make("chain")
    trace = wl.op()
    trace.reports[1][None].values["word_entropy"] += 1e-12
    assert any("metric digest" in p for p in wl.check(trace))


def test_sweep_check_catches_a_tampered_artifact(make):
    wl = make("sweep")
    result = wl.op()
    assert wl.check(result) == []
    with open(result["grid"].path("observations.csv"), "a") as fh:
        fh.write("\n")
    assert any("observations.csv" in p for p in wl.check(result))


def test_sweep_check_catches_a_wrong_property_without_a_recorded_digest(make):
    wl = make("sweep")
    result = wl.op()
    path = result["grid"].path("observations.csv")
    with open(path) as fh:
        header, first, *rest = fh.read().splitlines()
    cells, col = first.split(","), header.split(",").index("word_entropy")
    cells[col] = repr(float(cells[col]) + 1e-9)
    with open(path, "w") as fh:
        fh.write("\n".join([header, ",".join(cells), *rest]) + "\n")
    # the first operation's digest is the only one to compare with, so only
    # the reference values can tell
    assert any("word_entropy" in p and "reference" in p for p in wl.check(result))


def test_sweep_check_requires_the_designed_failures(make):
    wl = make("sweep")
    result = wl.op()
    result["manifest"]["failures"].pop()
    assert any("designed" in p for p in wl.check(result))


def test_annotate_check_catches_a_wrong_score(make):
    wl = make("annotate")
    result = wl.op()
    batch = result["warm"][0]
    i = next(i for i, e in enumerate(batch.entries) if hasattr(e, "score"))
    batch.entries[i] = dataclasses.replace(batch.entries[i], score=(batch.entries[i].score + 1) % 101)
    assert any(p.startswith(f"warm text {i}:") for p in wl.check(result))


def test_annotate_check_catches_a_request_for_a_cached_text(make):
    wl = make("annotate")
    result = wl.op()
    wl.cache.write_text("")  # an emptied cache makes every text a request again
    collapse_lab.judge.annotate_quality([r.text for r in wl.loaded[0]], wl.config())
    assert any("requests" in p for p in wl.check(result))


def _bindings():
    out = {}
    for mod_name, mod in sys.modules.items():
        if mod_name == "collapse_lab" or mod_name.startswith("collapse_lab."):
            for key, value in vars(mod).items():
                out[(mod_name, key)] = value
                if inspect.isclass(value) and value.__module__ == mod_name:
                    for attr, member in vars(value).items():
                        out[(mod_name, key, attr)] = member
    return out


def test_traced_run_restores_every_wrapped_attribute(make):
    wl = make("sweep")
    before = _bindings()
    with Recorder() as rec:
        layers.install(rec)
        assert collapse_lab.experiments.run_chain is not before[("collapse_lab.experiments", "run_chain")]
        wl.op()
        names = set(rec.summary())
    assert {"metrics.bleu", "chain.DataPool.sample", "toy.sample_discrete",
            "io.write_csv", "regression.vif"} <= names
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []


def test_self_time_excludes_children():
    rec = Recorder()
    inner = rec.wrap_callable(lambda: sum(range(10**5)), "inner")
    outer = rec.wrap_callable(lambda: [inner() for _ in range(3)], "outer")
    outer()
    s = rec.summary()
    assert s["inner"]["calls"] == 3
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["total_s"] - s["inner"]["total_s"])


def test_metric_names_match_benchmark_json(make):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [n for n in workloads.WORKLOADS
                                                      if n != "chain"]
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "norm_wall_s", "peak_rss_mb"}
    per_layer = layers.per_layer({}, [], 1)
    per_layer.update(wall_s=None, calibration_s=None, traced_wall_s=None,
                     trace_overhead_frac=None)
    assert {m["name"] for m in spec["per_layer"]} == set(per_layer)


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "chain", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_run_reports_every_end_to_end_metric():
    result = run.run_one("sweep", seed=4, seconds=0.1, trace=False, size=TINY["sweep"])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "norm_wall_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_has_a_calibration_unit(make, name):
    wl = make(name)
    unit, ref_s = wl.calibration()
    assert ref_s > 0 and run.time_unit(unit) > 0
    if name == "annotate":
        assert wl.stub_log() == {}  # /ping requests are not judge requests
