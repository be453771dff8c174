"""Measure a baseline: two sets of seeded untraced runs per workload, and one
traced run each.

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

Each set runs seeds 0..runs-1 once. Workloads default to those in
BENCHMARK.json; results for other workloads already in the output file are
kept. For each end-to-end metric and set it reports the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread, the interquartile distance
over the median, which must stay under a third of the metric's bound; and the
second set's median over the first's, minus 1, which must stay within the
bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SETS = 2


def run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--trace", str(trace)],
                         cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarise(name: str, results: list[dict], bounds: dict) -> dict:
    summary = {}
    for metric in bounds:
        values = [r["metrics"][metric]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "values": values}
        flag = "" if spread < bounds[metric] / 3 else "  <-- over a third of the bound"
        print(f"{name:14s} {metric:12s} median {med:.5g} spread {spread:.4f} "
              f"(bound {bounds[metric]}){flag}", file=sys.stderr, flush=True)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    report = {}
    for name in args.workloads:
        start = time.perf_counter()
        sets = []
        for _ in range(SETS):
            results = [run(name, seed, 0) for seed in range(args.runs)]
            sets.append({"correct": all(r["correct"] for r in results),
                         "end_to_end": summarise(name, results, bounds)})
        seconds = (time.perf_counter() - start) / (SETS * args.runs)
        drift = {}
        for metric in bounds:
            first, second = (s["end_to_end"][metric]["median"] for s in sets)
            drift[metric] = second / first - 1.0
            flag = "" if abs(drift[metric]) <= bounds[metric] else "  <-- over the bound"
            print(f"{name:14s} {metric:12s} second median / first - 1 = {drift[metric]:+.4f}"
                  f"{flag}", file=sys.stderr, flush=True)
        traced = run(name, 0, 1)
        entry = {"seeds": [0, args.runs - 1], "seconds_per_run": seconds, "sets": sets,
                 "median_drift": drift,
                 "correct": all(s["correct"] for s in sets) and traced["correct"],
                 "traced": {k: v["value"] for k, v in traced["metrics"].items()}}
        report[name] = entry
        print(f"{name}: correct={entry['correct']} {seconds:.1f} s per run", file=sys.stderr,
              flush=True)
    if args.out:
        out = Path(args.out)
        previous = json.loads(out.read_text()) if out.exists() else {}
        out.write_text(json.dumps({**previous, **report}, indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(report, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
