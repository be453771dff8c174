"""Record the output digests the sweep and suite checks compare against.

    python3 perfbench/record_golden.py

Run from the repository root at the commit whose outputs define correct
behaviour; it rewrites ``perfbench/golden.json``. The toy CSV digests do not
depend on the workload seed; ``observations.csv`` and the suite are recorded
per seed, for the workload seeds in ``workloads.GOLDEN_SEEDS``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def record(cls, seed: int, work: Path):
    wl = cls(seed)
    work.mkdir(parents=True)
    try:
        wl.prepare(work)
        wl.load()
        result = wl.op()
        if isinstance(wl, workloads.Sweep):
            return wl.digests(result)
        return workloads.suite_digest(result)
    finally:
        wl.close()
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    golden = {"suite": {}, "sweep": {"observations.csv": {}}}
    work = HERE.parent / ".perfbench_work" / "golden"
    for seed in workloads.GOLDEN_SEEDS:
        digests = record(workloads.Sweep, seed, work)
        for name in ("toy_trace.csv", "toy_aggregate.csv"):
            if golden["sweep"].setdefault(name, digests[name]) != digests[name]:
                raise SystemExit(f"{name} digest changed with the workload seed")
        golden["sweep"]["observations.csv"][str(seed)] = digests["observations.csv"]
        golden["suite"][str(seed)] = record(workloads.Suite, seed, work)
        print(f"seed {seed} recorded", file=sys.stderr, flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
