"""Which program functions a traced run wraps, and how their spans become
the per-layer metrics. Layers are the package's modules.

Every value is per traced operation, except ``io.read_*.self_s`` (per call:
each call reads one whole input file, at set-up or inside an operation) and
the peaks and percentiles (over every call of the run). A layer a workload
does not exercise reports 0.
"""

from __future__ import annotations

import os
import statistics

from collapse_lab import chain, clustering, experiments, generators, io, judge, metrics
from collapse_lab import regression, toy


GMM_ITERS = ("iters", "count", lambda args, kwargs, result: len(result.extras["log_likelihoods"]))
CSV_BYTES = ("bytes", "bytes", lambda args, kwargs, result: os.path.getsize(args[0]))

# (owner, attribute, calls reported, tracemalloc peak, (metric, unit, value of one call))
WRAPPED = [
    (metrics, "self_bleu", True, False, None),
    (metrics, "bleu", True, False, None),
    (metrics, "word_entropy", False, False, None),
    (metrics, "type_token_ratio", False, False, None),
    (metrics, "avg_text_length", False, False, None),
    (chain, "run_chain", False, False, None),
    (chain, "advance_generation", False, False, None),
    (chain, "evaluate_batch", False, False, None),
    (chain.DataPool, "sample", True, False, None),
    (chain.HumanCorpus, "draw", False, False, None),
    (generators.ResamplerGenerator, "train", True, False, None),
    (generators.ResamplerGenerator, "generate", True, False, None),
    (clustering, "kmeans", True, True, None),
    (clustering, "gmm_em", True, True, GMM_ITERS),
    (clustering, "dbscan", True, True, None),
    (clustering, "propagate_labels", True, True, None),
    (clustering, "merge_clusters", True, False, None),
    (clustering, "build_cluster_suite", False, False, None),
    (toy, "run_toy_chain", True, False, None),
    (toy, "fit_biased_histogram", True, False, None),
    (toy, "sample_discrete", True, False, None),
    (io, "read_records_jsonl", False, False, None),
    (io, "read_embeddings", False, False, None),
    (io, "write_csv", True, False, CSV_BYTES),
    (experiments, "run_experiment", False, False, None),
    (regression, "property_shift_regression", False, False, None),
    (regression, "ols_fit", True, False, None),
    (regression, "vif", True, False, None),
]
PER_CALL = {"io.read_records_jsonl", "io.read_embeddings"}
TRANSPORT = "judge.transport"

# Counts a workload reads from its own outputs (Workload.layer_counts).
COUNTS = {
    "experiments.cells": "count",
    "experiments.cells_failed": "count",
    "judge.retries": "count",
    "judge.cold.cache_hit_ratio": "frac",
    "judge.warm.cache_hit_ratio": "frac",
    "judge.cold.wall_s": "s",
    "judge.warm.wall_s": "s",
    "judge.useful_ratio": "frac",
    "judge.cache_bytes": "bytes",
    "clustering.digest_match": "frac",
    "failed_frac": "frac",
}


def span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def install(rec) -> None:
    for owner, attr, _, memory, extra in WRAPPED:
        rec.wrap(owner, attr, span_name(owner, attr), memory=memory,
                 on_result=extra and extra[2])


def transport(rec):
    """The judge's default transport, timed, for the ``transport=`` seam."""
    return rec.wrap_callable(judge._default_transport, TRANSPORT)


def per_layer(summary: dict, counts: list[dict], ops: int) -> dict:
    """Per-layer metrics from a Recorder summary, the per-operation counts and
    the number of traced operations."""
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "peak_mb": 0.0,
             "durations": [], "extras": []}
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for owner, attr, calls, memory, extra in WRAPPED:
        name = span_name(owner, attr)
        agg = summary.get(name, empty)
        if name in PER_CALL:
            put(f"{name}.self_s", agg["self_s"] / max(agg["calls"], 1), "s")
            continue
        put(f"{name}.self_s", agg["self_s"] / ops, "s")
        if calls:
            put(f"{name}.calls", agg["calls"] / ops, "count")
        if memory:
            put(f"{name}.peak_mb", agg["peak_mb"], "MB")
        if extra is not None:
            put(f"{name}.{extra[0]}", sum(agg["extras"]) / ops, extra[1])
    put("metrics.self_bleu.total_s", summary.get("metrics.self_bleu", empty)["total_s"] / ops, "s")

    agg = summary.get(TRANSPORT, empty)
    ms = sorted(d * 1000.0 for d in agg["durations"])
    put(f"{TRANSPORT}.calls", agg["calls"] / ops, "count")
    put(f"{TRANSPORT}.self_s", agg["self_s"] / ops, "s")
    put(f"{TRANSPORT}.p50_ms", statistics.median(ms) if ms else 0.0, "ms")
    put(f"{TRANSPORT}.p99_ms", statistics.quantiles(ms, n=100)[98] if len(ms) >= 2 else 0.0, "ms")

    for name, unit in COUNTS.items():
        put(name, sum(c.get(name, 0) for c in counts) / max(len(counts), 1), unit)
    return out
