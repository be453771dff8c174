"""Political-lean pipeline walkthrough with a scripted judge: annotation,
left/right partitioning, controlled mixtures, and lean binning.

Run: python demos/lean_mixtures.py
"""

import numpy as np

from collapse_lab.judge import (
    LEAN_LEFT_FRACTIONS,
    JudgeConfig,
    annotate_lean,
    build_lean_mixture,
    partition_by_lean,
)
from collapse_lab.metrics import lean_bins


def scripted_judge(url, payload, timeout, token):
    """Deterministic stand-in for the remote judge: scores by keyword."""
    text = payload["messages"][0]["content"].rsplit("Here is the text: ", 1)[1]
    if "weather" in text:
        return "-1"
    if "budget" in text:
        return "50"
    return "15" if "left" in text else "85"


def main():
    texts = ([f"left rally speech {i}" for i in range(40)]
             + [f"right rally speech {i}" for i in range(40)]
             + [f"budget committee notes {i}" for i in range(10)]
             + [f"weather report {i}" for i in range(10)])
    cfg = JudgeConfig(endpoint="http://judge.invalid/v1/chat", model="any")
    result = annotate_lean(texts, cfg, transport=scripted_judge)
    print(f"annotated {len(result.annotations)} texts, {len(result.failures)} failures")

    records = [{"text": t, "lean": s} for t, s in zip(texts, result.scores)]
    scores = [r["lean"] for r in records]
    bins = lean_bins(scores)
    print("\nlean bins over the full batch:")
    print(f"  proportions {['%.3f' % p for p in bins['proportions']]}")
    print(f"  neutral {bins['neutral_fraction']:.3f}   "
          f"non-political {bins['non_political_fraction']:.3f}")

    left, right = partition_by_lean(records)
    print(f"\npartitions: {len(left)} left (<50), {len(right)} right (>50);")
    print("exact-50 and non-political records join neither\n")

    print(f"{'left frac':>10} {'size':>6} {'mean lean':>10}")
    for frac in LEAN_LEFT_FRACTIONS:
        mix = build_lean_mixture(left, right, frac, size=40, seed=0)
        mean = np.mean([r["lean"] for r in mix])
        print(f"{frac:10.2f} {len(mix):6d} {mean:10.1f}")


if __name__ == "__main__":
    main()
