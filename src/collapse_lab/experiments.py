"""Experiment specs, the sweep runner (cluster x ratio x seed grids), result
persistence with spec hashing, and plot-data emission.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import toy
from .chain import ChainConfig, HumanCorpus, relative_metrics, run_chain
from .errors import InvalidConfigError, InvalidInputError
from .generators import default_factory
from .io import read_records_jsonl, write_csv

__all__ = [
    "ExperimentSpec",
    "ResultStore",
    "load_spec",
    "spec_hash",
    "run_experiment",
    "emit_plot_data",
]

KINDS = ("toy", "chain", "cluster-regression", "mixed-domain", "lean")
FIGURE_KINDS = ("evolution", "interaction-absolute", "interaction-relative",
                "lean-evolution", "lean-in-out", "lean-stacked")
# keys each params section may set; a toy cell takes its ratio, a chain cell
# its ratio and seed, from the grid
_PARAM_KEYS = {
    "toy": {f.name for f in fields(toy.ToyConfig)} - {"ratio"},
    "chain": {f.name for f in fields(ChainConfig)} - {"ratio", "seed"},
    "lean": {"mixture_size", "left_fractions"},
}


@dataclass
class ExperimentSpec:
    kind: str
    ratios: list = field(default_factory=lambda: [0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 1.0])
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    out_dir: str = "results"
    corpus_path: str | None = None
    cluster_manifest: str | None = None
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise InvalidConfigError(f"unknown experiment kind {self.kind!r}")
        for r in self.ratios:
            if not 0.0 <= r <= 1.0:
                raise InvalidConfigError(f"ratio {r} outside [0, 1]")
        if not self.seeds:
            raise InvalidConfigError("at least one seed is required")
        for path in (self.corpus_path, self.cluster_manifest):
            if path is not None and not os.path.exists(path):
                raise InvalidConfigError(f"referenced file does not exist: {path}")
        for section, allowed in _PARAM_KEYS.items():
            given = self.params.get(section, {})
            if not isinstance(given, dict):
                raise InvalidConfigError(f"params.{section} must be an object")
            unknown = sorted(set(given) - allowed)
            if unknown:
                raise InvalidConfigError(f"unknown params.{section} keys: {', '.join(unknown)}")

    def canonical(self) -> dict:
        return {
            "kind": self.kind,
            "ratios": list(self.ratios),
            "seeds": list(self.seeds),
            "corpus_path": self.corpus_path,
            "cluster_manifest": self.cluster_manifest,
            "params": self.params,
        }


def spec_hash(spec: ExperimentSpec) -> str:
    """Stable across key reordering: canonical JSON with sorted keys."""
    blob = json.dumps(spec.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_spec(path) -> ExperimentSpec:
    """Load a spec from a JSON config file. A top-level "include" list of
    paths is merged first (later includes win), then the body's own keys."""
    merged = _load_with_includes(path, seen=set())
    known = {"kind", "ratios", "seeds", "out_dir", "corpus_path", "cluster_manifest", "params"}
    extra = {k: v for k, v in merged.items() if k not in known}
    kwargs = {k: v for k, v in merged.items() if k in known}
    if extra:
        kwargs.setdefault("params", {})
        kwargs["params"] = {**extra, **kwargs["params"]}
    if "kind" not in kwargs:
        raise InvalidConfigError(f"{path}: config lacks an experiment kind")
    spec = ExperimentSpec(**kwargs)
    spec.validate()
    return spec


def _load_with_includes(path, seen) -> dict:
    real = os.path.realpath(path)
    if real in seen:
        raise InvalidConfigError(f"circular include at {path}")
    seen.add(real)
    with open(path) as fh:
        body = json.load(fh)
    if not isinstance(body, dict):
        raise InvalidConfigError(f"{path}: config must be a JSON object")
    merged: dict = {}
    for inc in body.pop("include", []):
        inc_path = inc if os.path.isabs(inc) else os.path.join(os.path.dirname(path), inc)
        merged.update(_load_with_includes(inc_path, seen))
    merged.update(body)
    return merged


class ResultStore:
    """Run directory with a manifest and tidy CSV/JSONL artifacts."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        self.artifacts: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def write_manifest(self, spec: ExperimentSpec, failures: list) -> None:
        manifest = {
            "spec_hash": spec_hash(spec),
            "spec": spec.canonical(),
            "code_version": _code_version(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "artifacts": sorted(self.artifacts),
            "failures": failures,
        }
        with open(self.path("manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)

    def add_csv(self, name: str, header: list[str], rows) -> str:
        path = self.path(name)
        write_csv(path, header, rows)
        self.artifacts[name] = path
        return path


def _code_version() -> str:
    from . import __version__

    return __version__


# ---------------------------------------------------------------------------
# runners


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ResultStore:
    """Execute a spec's full grid. Per-cell failures are recorded without
    aborting the rest of the grid."""
    spec.validate()
    store = ResultStore(spec.out_dir)
    failures: list = []
    if spec.kind == "toy":
        _run_toy(spec, store, failures)
    elif spec.kind == "chain":
        _run_chain_grid(spec, store, failures, jobs)
    elif spec.kind == "lean":
        _run_lean(spec, store, failures)
    else:
        _run_cluster_grid(spec, store, failures, jobs)
    store.write_manifest(spec, failures)
    return store


def _run_toy(spec: ExperimentSpec, store: ResultStore, failures: list) -> None:
    traces = [toy.run_toy_chain(toy.ToyConfig(ratio=ratio, **spec.params.get("toy", {})))
              for ratio in spec.ratios]
    store.add_csv("toy_trace.csv", toy.TRACE_HEADER, toy.trace_rows(traces))
    store.add_csv("toy_aggregate.csv", toy.AGGREGATE_HEADER, toy.aggregate_rows(traces))


def _chain_config(spec: ExperimentSpec, ratio: float, seed: int) -> ChainConfig:
    p = spec.params.get("chain", {})
    return ChainConfig(
        ratio=ratio,
        generations=p.get("generations", 20),
        initial_human=p.get("initial_human", 8000),
        per_gen_total=p.get("per_gen_total", 4000),
        eval_sample=p.get("eval_sample", 250),
        models_per_generation=p.get("models_per_generation", 1),
        generator_kinds=tuple(p.get("generator_kinds", ("resampler",))),
        rotation=p.get("rotation", "mixed"),
        domains=tuple(p.get("domains", (None,))),
        seed=seed,
        eval_metrics=tuple(p.get("eval_metrics",
                                 ("distinct_count", "word_entropy",
                                  "type_token_ratio", "avg_text_length"))),
    )


def _chain_cell(spec: ExperimentSpec, records, ratio: float, seed: int):
    cfg = _chain_config(spec, ratio, seed)
    corpus = HumanCorpus(records, seed=seed)
    trace = run_chain(cfg, corpus, default_factory)
    rows = []
    trace_lines = []
    for g, per_domain in enumerate(trace.reports):
        for domain, report in per_domain.items():
            domain_name = domain if domain is not None else ""
            if report is None:
                trace_lines.append({"seed": seed, "ratio": ratio, "generation": g,
                                    "domain": domain_name, "skipped": True})
                continue
            trace_lines.append({
                "seed": seed, "ratio": ratio, "generation": g,
                "domain": domain_name, "kind": trace.kinds[g],
                "sample_size": report.sample_size,
                "metrics": {k: float(v) for k, v in report.values.items()},
                "whole_batch": bool(report.params.get("whole_batch", False)),
            })
            for metric, value in report.values.items():
                rows.append([seed, g, domain_name, float(ratio), metric, float(value)])
    return trace, rows, trace_lines


def _run_chain_grid(spec: ExperimentSpec, store: ResultStore, failures: list,
                    jobs: int) -> None:
    if not spec.corpus_path:
        raise InvalidConfigError("chain experiments need corpus_path")
    records = read_records_jsonl(spec.corpus_path)
    cells = [(r, s) for r in spec.ratios for s in spec.seeds]

    def cell(args):
        ratio, seed = args
        try:
            return args, _chain_cell(spec, records, ratio, seed), None
        except Exception as exc:  # cell isolation by contract
            return args, None, f"{type(exc).__name__}: {exc}"

    results = _pool_map(cell, cells, jobs)

    summary = []
    relative_rows = []
    all_trace_lines = []
    for args, payload, error in results:
        ratio, seed = args
        if error is not None:
            failures.append({"cell": {"ratio": ratio, "seed": seed}, "error": error})
            continue
        trace, rows, trace_lines = payload
        summary.extend(rows)
        all_trace_lines.extend(trace_lines)
        try:
            rel = relative_metrics(trace)
        except Exception:
            rel = None
        if rel:
            for domain, metric_map in rel.items():
                for metric, value in metric_map.items():
                    relative_rows.append([
                        seed, domain if domain is not None else "", float(ratio),
                        metric, "" if value is None else float(value)])
    trace_path = store.path("trace.jsonl")
    all_trace_lines.sort(key=lambda L: (L["ratio"], L["seed"], L["generation"],
                                        L["domain"]))
    with open(trace_path, "w") as fh:
        for line in all_trace_lines:
            fh.write(json.dumps(line, sort_keys=True) + "\n")
    store.artifacts["trace.jsonl"] = trace_path
    store.add_csv("summary.csv",
                  ["seed", "generation", "domain", "ratio", "metric", "value"],
                  sorted(summary, key=lambda r: (r[0], r[1], str(r[2]), r[3], r[4])))
    store.add_csv("relative.csv",
                  ["seed", "domain", "ratio", "metric", "value"],
                  sorted(relative_rows, key=lambda r: (r[0], str(r[1]), r[2], r[3])))


def _run_lean(spec: ExperimentSpec, store: ResultStore, failures: list) -> None:
    from .judge import build_lean_mixture, partition_by_lean
    from .metrics import lean_bins

    if not spec.corpus_path:
        raise InvalidConfigError("lean experiments need corpus_path")
    records = read_records_jsonl(spec.corpus_path)
    left, right = partition_by_lean(records)
    p = spec.params.get("lean", {})
    size = p.get("mixture_size", min(len(left), len(right)))
    fractions = p.get("left_fractions", [0.0, 0.25, 0.5, 0.75, 1.0])

    rows = []
    for frac in fractions:
        for seed in spec.seeds:
            try:
                mix = build_lean_mixture(left, right, frac, size, seed=seed)
            except Exception as exc:
                failures.append({"cell": {"left_fraction": frac, "seed": seed},
                                 "error": f"{type(exc).__name__}: {exc}"})
                continue
            scores = [r.annotations["lean"] for r in mix]
            bins = lean_bins(scores)
            political = [s for s in scores if s != -1]
            mean_lean = float(np.mean(political)) if political else ""
            rows.append([float(frac), seed, mean_lean,
                         float(bins["neutral_fraction"]),
                         float(bins["non_political_fraction"])]
                        + [float(x) for x in bins["proportions"]])
    header = (["left_fraction", "seed", "mean_lean", "neutral_fraction",
               "non_political_fraction"] + [f"bin_{i}" for i in range(8)])
    store.add_csv("lean_mixtures.csv", header, rows)


def _run_cluster_grid(spec: ExperimentSpec, store: ResultStore, failures: list,
                      jobs: int) -> None:
    """cluster-regression / mixed-domain: run chains per (cluster, ratio, seed)
    and emit the observations table for the regression layer."""
    from .metrics import (avg_text_length, self_bleu, type_token_ratio,
                          word_entropy)

    if not spec.corpus_path or not spec.cluster_manifest:
        raise InvalidConfigError("cluster experiments need corpus_path and cluster_manifest")
    records = read_records_jsonl(spec.corpus_path)
    with open(spec.cluster_manifest) as fh:
        clusters = [json.loads(line) for line in fh if line.strip()]

    cells = [(c["cluster_id"], r, s) for c in clusters for r in spec.ratios
             for s in spec.seeds]
    by_id = {c["cluster_id"]: c for c in clusters}

    def cell(args):
        cluster_id, ratio, seed = args
        try:
            cluster = by_id[cluster_id]
            members = [records[i] for i in cluster["record_indices"]]
            cfg = _chain_config(spec, ratio, seed)
            corpus = HumanCorpus(members, seed=seed)
            trace = run_chain(cfg, corpus, default_factory)
            rel = relative_metrics(trace)
            texts = [m.text for m in members]
            props = {
                "lexical_diversity": self_bleu(texts, seed=seed),
                "word_entropy": word_entropy(texts),
                "type_token_ratio": type_token_ratio(texts),
                "text_length": avg_text_length(texts),
            }
            return args, (props, rel), None
        except Exception as exc:
            return args, None, f"{type(exc).__name__}: {exc}"

    results = _pool_map(cell, cells, jobs)
    rows = []
    for args, payload, error in results:
        cluster_id, ratio, seed = args
        if error is not None:
            failures.append({"cell": {"cluster_id": cluster_id, "ratio": ratio,
                                      "seed": seed}, "error": error})
            continue
        props, rel = payload
        domain_rel = rel.get(None) or next(iter(rel.values()))
        rows.append([cluster_id, float(ratio), seed,
                     props["lexical_diversity"], props["word_entropy"],
                     props["type_token_ratio"], props["text_length"],
                     _or_blank(domain_rel.get("distinct_count")),
                     _or_blank(domain_rel.get("word_entropy"))])
    store.add_csv("observations.csv",
                  ["cluster_id", "ratio", "seed", "lexical_diversity",
                   "word_entropy", "type_token_ratio", "text_length",
                   "rel_distinct_count", "rel_word_entropy"],
                  sorted(rows, key=lambda r: (r[0], r[1], r[2])))


def _or_blank(v):
    return "" if v is None else float(v)


def _pool_map(fn, items, jobs: int):
    if jobs <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# plot data


def emit_plot_data(store: ResultStore, figure_kind: str, out_path=None) -> str:
    """Reshape stored results into the tidy CSV a named figure consumes."""
    if figure_kind not in FIGURE_KINDS:
        raise InvalidInputError(f"unknown figure kind {figure_kind!r}")
    out_path = out_path or store.path(f"plot_{figure_kind}.csv")

    if figure_kind == "evolution":
        rows = _read_csv(store.path("summary.csv"))
        _require_columns(rows, ["generation", "ratio", "seed", "metric", "value"])
        write_csv(out_path, ["generation", "ratio", "seed", "metric", "value"],
                  [[r["generation"], float(r["ratio"]), r["seed"], r["metric"],
                    float(r["value"])] for r in rows])
    elif figure_kind == "interaction-absolute":
        rows = _read_csv(store.path("summary.csv"))
        _require_columns(rows, ["generation", "ratio", "seed", "metric", "value"])
        last_gen = max(int(r["generation"]) for r in rows)
        keep = [r for r in rows if int(r["generation"]) == last_gen]
        write_csv(out_path, ["ratio", "seed", "metric", "value"],
                  [[float(r["ratio"]), r["seed"], r["metric"], float(r["value"])]
                   for r in keep])
    elif figure_kind == "interaction-relative":
        rows = _read_csv(store.path("relative.csv"))
        _require_columns(rows, ["ratio", "seed", "metric", "value"])
        write_csv(out_path, ["ratio", "seed", "metric", "value"],
                  [[float(r["ratio"]), r["seed"], r["metric"],
                    float(r["value"]) if r["value"] != "" else ""] for r in rows])
    elif figure_kind in ("lean-evolution", "lean-stacked", "lean-in-out"):
        rows = _read_csv(store.path("lean_mixtures.csv"))
        if figure_kind == "lean-in-out":
            _require_columns(rows, ["left_fraction", "mean_lean", "seed"])
            write_csv(out_path, ["initial_lean", "final_lean", "seed"],
                      [[float(r["left_fraction"]), float(r["mean_lean"]), r["seed"]]
                       for r in rows if r["mean_lean"] != ""])
        elif figure_kind == "lean-evolution":
            _require_columns(rows, ["left_fraction", "seed", "mean_lean"])
            write_csv(out_path, ["left_fraction", "seed", "mean_lean"],
                      [[float(r["left_fraction"]), r["seed"], float(r["mean_lean"])]
                       for r in rows if r["mean_lean"] != ""])
        else:
            _require_columns(rows, ["left_fraction", "neutral_fraction",
                                    "non_political_fraction"] + [f"bin_{i}" for i in range(8)])
            write_csv(out_path,
                      ["left_fraction", "seed"] + [f"bin_{i}" for i in range(8)]
                      + ["neutral_fraction", "non_political_fraction"],
                      [[float(r["left_fraction"]), r["seed"]]
                       + [float(r[f"bin_{i}"]) for i in range(8)]
                       + [float(r["neutral_fraction"]), float(r["non_political_fraction"])]
                       for r in rows])
    return out_path


def _read_csv(path) -> list[dict]:
    import csv as _csv

    if not os.path.exists(path):
        raise InvalidInputError(f"required artifact missing: {path}")
    with open(path, newline="") as fh:
        return list(_csv.DictReader(fh))


def _require_columns(rows: list[dict], needed: list[str]) -> None:
    if not rows:
        raise InvalidInputError("artifact has no rows")
    missing = [c for c in needed if c not in rows[0]]
    if missing:
        raise InvalidInputError(f"artifact lacks required columns: {missing}")
