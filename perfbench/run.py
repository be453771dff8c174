"""Benchmark runner for collapse-lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

``--seconds`` defaults to ``run_seconds`` in BENCHMARK.json.

Run from the repository root. The package is imported from ``src/``. Inputs
are made from the seed under ``.perfbench_work/`` and removed afterwards.

With ``--trace 0`` the run measures set-up (``setup_s``: a fresh interpreter
imports ``collapse_lab`` and reads the inputs through ``io``, median of
several), then repeats the workload's operation for ``--seconds`` seconds,
with calibration units (``calibrate.py``) timed after each operation, and
reports the mean operation time scaled by the calibration units' speed
(``norm_wall_s``) and the process's peak RSS.
With ``--trace 1`` it runs untraced operations for half the time and traced
ones for the other half, and reports per-layer numbers per traced operation,
the untraced mean operation time (``wall_s``) and calibration unit time.
Every operation's outputs are checked; a failed check makes the run
incorrect. The last stdout line is the JSON result; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SETUP_REPEATS = 5
CAL_SHARE = 0.25  # calibration time run after each operation, per second of it


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def measure_setup(wl) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", wl.setup_code(SRC)], check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_ops(wl, seconds: float, on_result=None, unit=None):
    """Repeat the operation until ``seconds`` have passed (at least once),
    and after each one the calibration ``unit`` for CAL_SHARE of its time.
    Returns (times of correct operations, unit times, attempted, failed)."""
    times, unit_times, attempted, failed = [], [], 0, 0
    deadline = time.perf_counter() + seconds
    while attempted == 0 or time.perf_counter() < deadline:
        wl.reset()
        attempted += 1
        start = time.perf_counter()
        try:
            result = wl.op()
            elapsed = time.perf_counter() - start
            problems = wl.check(result)
        except Exception as exc:  # a failed operation is counted, not fatal
            elapsed, problems = time.perf_counter() - start, [f"raised {type(exc).__name__}: {exc}"]
        spent = 0.0
        while unit is not None and spent < CAL_SHARE * elapsed:
            unit_times.append(time_unit(unit))
            spent += unit_times[-1]
        if problems:
            failed += 1
            _log(f"{wl.name}: output check failed: " + "; ".join(problems))
            continue
        times.append(elapsed)
        if on_result is not None:
            on_result(result)
    return times, unit_times, attempted, failed


def time_unit(unit) -> float:
    """Seconds one calibration unit takes, with the cyclic garbage collector
    off, so that the program's live objects do not slow the unit."""
    gc.disable()
    try:
        start = time.perf_counter()
        unit()
        return time.perf_counter() - start
    finally:
        gc.enable()


def mean(times: list[float]) -> float:
    # A shared host's speed drifts between levels over tens of seconds. Over
    # a run the mean follows the share of time spent at each level, where a
    # median of the operations jumps between levels.
    return sum(times) / len(times) if times else 0.0


def normalised(times: list[float], unit_times: list[float], ref_s: float) -> float:
    """Mean operation time at the host speed where the unit takes ``ref_s``."""
    return mean(times) * ref_s / mean(unit_times) if times and unit_times else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(wl, seconds: float) -> tuple[dict, int, int]:
    setup_s = measure_setup(wl)
    wl.load()
    unit, ref_s = wl.calibration()
    times, unit_times, attempted, failed = run_ops(wl, seconds, unit=unit)
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "norm_wall_s": {"value": normalised(times, unit_times, ref_s), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }
    _log(f"{wl.name}: {len(times)} correct operations of {attempted}, mean {mean(times):.4g} s; "
         f"{len(unit_times)} calibration units, mean {mean(unit_times):.4g} s")
    return metrics, attempted, failed


def traced(wl, seconds: float) -> tuple[dict, int, int]:
    import layers
    from spans import Recorder

    wl.load()
    unit, _ = wl.calibration()
    plain, unit_times, attempted, failed = run_ops(wl, seconds / 2, unit=unit)
    counts: list[dict] = []
    with Recorder() as rec:
        layers.install(rec)
        wl.load()
        wl.transport = layers.transport(rec)
        try:
            times, _, n, f = run_ops(wl, seconds / 2, lambda r: counts.append(wl.layer_counts(r)))
        finally:
            wl.transport = None
        metrics = layers.per_layer(rec.summary(), counts, max(len(times), 1))
    overhead = mean(times) / mean(plain) - 1.0 if times and plain else 0.0
    metrics["wall_s"] = {"value": mean(plain), "unit": "s"}
    metrics["calibration_s"] = {"value": mean(unit_times), "unit": "s"}
    metrics["traced_wall_s"] = {"value": mean(times), "unit": "s"}
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
    _log(f"{wl.name}: {len(plain)} untraced and {len(times)} traced correct operations")
    return metrics, attempted + n, failed + f


def run_one(name: str, seed: int, seconds: float, trace: bool, size=None) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, size)
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl.prepare(work)
        metrics, attempted, failed = (traced if trace else untraced)(wl, seconds)
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, so each peak RSS is its own."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        out = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", str(int(trace))],
                             cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
            _log(f"{name:14s} {metric:40s} {value['value']:.6g} {value['unit']}")
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "collapse_lab" / "__init__.py").is_file():
        _log(f"no collapse_lab package under {SRC}; run from a repository checkout")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    # a terminated run still stops the judge stub and removes its inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    elif args.workload in WORKLOADS:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        for metric, value in result["metrics"].items():
            _log(f"{args.workload} {metric} = {value['value']:.6g} {value['unit']}")
    else:
        _log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
