"""Toy model walkthrough: how a sampling bias interacts with the ratio of
self-generated data.

Three sweeps over the synthetic-data ratio, 50 runs each:

  1. biased learner (strength 4), true distribution avoiding the favored set
  2. unbiased learner (strength 1), same true distribution
  3. biased learner, true distribution covering the favored set

Run: python demos/toy_bias_sweep.py [out_dir]
"""

import sys
import time

from collapse_lab import io, toy
from collapse_lab.toy import ToyConfig, run_toy_chain

RATIOS = [1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 15 / 16]


def sweep(name, **cfg_kwargs):
    print(f"\n--- {name}")
    print(f"{'ratio':>8}  {'final entropy':>14}  {'final support':>14}")
    traces = []
    for r in RATIOS:
        cfg = ToyConfig(ratio=r, support_size=1000, steps=20, runs=50, seed=101,
                        **cfg_kwargs)
        trace = run_toy_chain(cfg)
        traces.append(trace)
        mean_ent, se = trace.final_entropy_stats()
        support = trace.mean_support_fraction[-1]
        print(f"{r:8.4f}  {mean_ent:10.4f} ({se:.4f})  {support:14.4f}")
    return traces


def main():
    t0 = time.time()
    print("Support {0..1000}; 20 steps; the learner refits a biased histogram")
    print("on the accumulated pool each step and samples its own fit.")

    biased = sweep("bias 4x on multiples of 2, true distribution on odd values only",
                   bias_strength=4.0, overlap=False, accumulate=True)
    sweep("no bias (strength 1), same odd-only true distribution",
          bias_strength=1.0, overlap=False, accumulate=True)
    sweep("bias 4x, true distribution covers all values (overlap)",
          bias_strength=4.0, overlap=True, accumulate=True)

    print("\nWith the plain histogram fit, a multiplicative bias on values the")
    print("true distribution never produces is inert: zero counts stay zero,")
    print("so sweep 1 and sweep 2 coincide exactly. Mid-ratio chains lose more")
    print("entropy than low-ratio chains; the loss keeps growing toward r=1.")

    print("\n--- same sweep with the learner's generation prior enabled")
    print("(synthetic samples are emitted onto the favored sublattice, so the")
    print("fit's 4x weighting acts on synthetic evidence specifically)")
    sweep("bias 4x + generation prior, odd-only true distribution",
          bias_strength=4.0, overlap=False, accumulate=True, generation_prior=True)
    print("\nThe prior deepens the mid-ratio losses relative to the unbiased")
    print("control (the left half of a U), while r->1 still compounds the")
    print("self-consumption echo and stays the heaviest loser.")

    if len(sys.argv) > 1:
        out = f"{sys.argv[1].rstrip('/')}/toy_aggregate.csv"
        io.write_csv(out, toy.AGGREGATE_HEADER, [io.csv_text(toy.aggregate_rows(biased))])
        print(f"\nper-step aggregate curves written to {out}")
    print(f"\n[{time.time() - t0:.1f}s]")


if __name__ == "__main__":
    main()
