"""Experiment specs, the sweep runner (cluster x ratio x seed grids), result
persistence with spec hashing, and plot-data emission.
"""

from __future__ import annotations

import functools
import hashlib
import json
import numbers
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__, _pool, metrics, toy
from .chain import (EVAL_METRICS, ChainConfig, HumanCorpus, record_columns,
                    relative_metrics, run_chain)
from .errors import InvalidConfigError, InvalidInputError, InvalidTraceError
from .generators import default_factory
from .io import read_csv, read_jsonl, read_records_jsonl, write_csv, write_jsonl

__all__ = [
    "ExperimentSpec",
    "ResultStore",
    "load_spec",
    "spec_hash",
    "run_experiment",
    "emit_plot_data",
]

# spec fields a kind reads its inputs from; validate checks them before any output
_REQUIRED = {"chain": ("corpus_path",), "lean": ("corpus_path",),
             "cluster-regression": ("corpus_path", "cluster_manifest")}
# keys each params section may set; a toy cell takes its ratio, a chain cell
# its ratio and seed, from the grid
_PARAM_KEYS = {
    "toy": {f.name for f in fields(toy.ToyConfig)} - {"ratio"},
    "chain": {f.name for f in fields(ChainConfig)} - {"ratio", "seed"},
    "lean": {"mixture_size", "left_fractions"},
}
# (description, test) of the values a toy or chain params field of each type
# takes: a bool is not a number, and a list holds names (null is the no-domain tag)
_PARAM_TYPES = {
    "int": ("an integer", lambda v: _is_number(v, numbers.Integral)),
    "float": ("a number", lambda v: _is_number(v, numbers.Real)),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "tuple": ("a list of strings or nulls",
              lambda v: isinstance(v, (list, tuple))
              and all(x is None or isinstance(x, str) for x in v)),
}
# ChainConfig's default without self_bleu: summary.csv stays byte-identical for
# grid specs that leave eval_metrics unset, while a lone ChainConfig keeps self_bleu
_GRID_EVAL_METRICS = tuple(name for name in EVAL_METRICS if name != "self_bleu")
_BINS = [f"bin_{i}" for i in range(metrics.LEAN_BINS)]
# figure: (source artifact, columns, numeric columns, last generation only)
_FIGURES = {
    "evolution": ("summary.csv", ["generation", "ratio", "seed", "metric", "value"],
                  {"ratio", "value"}, False),
    "interaction-absolute": ("summary.csv", ["ratio", "seed", "metric", "value"],
                             {"ratio", "value"}, True),
    "interaction-relative": ("relative.csv", ["ratio", "seed", "metric", "value"],
                             {"ratio", "value"}, False),
    "lean-stacked": ("lean_mixtures.csv",
                     ["left_fraction", "seed", *_BINS, "neutral_fraction", "non_political_fraction"],
                     {"left_fraction", *_BINS, "neutral_fraction", "non_political_fraction"}, False),
}
FIGURE_KINDS = tuple(_FIGURES)


@dataclass
class ExperimentSpec:
    kind: str
    ratios: list | None = None  # None: the paper's grid
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    out_dir: str = "results"
    corpus_path: str | None = None
    cluster_manifest: str | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.ratios is None:  # without ratio 0 for cluster-regression, which rejects it
            grid = [0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 1.0]
            self.ratios = grid[1:] if self.kind == "cluster-regression" else grid

    def validate(self) -> None:
        """Reject, before any output, every value that would fail each cell
        alike, leave the grid empty, or that the kind would silently ignore."""
        if self.kind not in KINDS:
            raise InvalidConfigError(f"unknown experiment kind {self.kind!r}")
        if not isinstance(self.out_dir, str):
            raise InvalidConfigError(f"out_dir must be a path, not {self.out_dir!r}")
        for name in ("corpus_path", "cluster_manifest"):
            path = getattr(self, name)
            if not isinstance(path, (str, type(None))):
                raise InvalidConfigError(f"{name} must be a path or null, not {path!r}")
        missing = [name for name in _REQUIRED.get(self.kind, ()) if not getattr(self, name)]
        if missing:
            raise InvalidConfigError(f"{self.kind} experiments need {' and '.join(missing)}")
        if not (isinstance(self.ratios, (list, tuple))
                and all(_is_number(r, numbers.Real) and 0 <= r <= 1 for r in self.ratios)):
            raise InvalidConfigError("ratios must be a list of numbers in [0, 1]")
        if not self.ratios:
            raise InvalidConfigError("ratios must not be empty")
        if self.kind == "cluster-regression" and 0 in self.ratios:
            raise InvalidConfigError(
                "cluster-regression ratios must be > 0: a ratio-0 chain evaluates no "
                "synthetic generation")
        if not (isinstance(self.seeds, (list, tuple)) and self.seeds
                and all(_is_number(s, numbers.Integral) and s >= 0 for s in self.seeds)):
            raise InvalidConfigError("seeds must be a non-empty list of non-negative integers")
        for path in (self.corpus_path, self.cluster_manifest):
            if path is not None and not os.path.exists(path):
                raise InvalidConfigError(f"referenced file does not exist: {path}")
        if not isinstance(self.params, dict):
            raise InvalidConfigError("params must be an object")
        section = "chain" if self.kind == "cluster-regression" else self.kind
        unknown = sorted(set(self.params) - {section})
        if unknown:
            raise InvalidConfigError(f"{self.kind} experiments read only params.{section}; "
                                     f"unknown params sections: {', '.join(unknown)}")
        given = self.params.get(section, {})
        if not isinstance(given, dict):
            raise InvalidConfigError(f"params.{section} must be an object")
        unknown = sorted(set(given) - _PARAM_KEYS[section])
        if unknown:
            raise InvalidConfigError(f"unknown params.{section} keys: {', '.join(unknown)}")
        # a value that fails every cell alike is rejected here
        if section == "toy":
            _check_param_types("toy", given, toy.ToyConfig)
            for r in self.ratios:
                toy.ToyConfig(ratio=r, **given).validate()
        elif section == "chain":
            kinds = given.get("generator_kinds", ())
            if not isinstance(kinds, (list, tuple)):
                raise InvalidConfigError(
                    "params.chain.generator_kinds must be a list of kind names")
            for kind in kinds:
                default_factory(kind, 0)  # raises InvalidConfigError on a name it does not know
            _check_param_types("chain", given, ChainConfig)
            for r in self.ratios:
                _chain_config(self, r, self.seeds[0]).validate()
        else:
            from .judge import LEAN_LEFT_FRACTIONS

            fractions = given.get("left_fractions", LEAN_LEFT_FRACTIONS)
            if not (isinstance(fractions, (list, tuple))
                    and all(_is_number(f, numbers.Real) for f in fractions)
                    and set(fractions) <= set(LEAN_LEFT_FRACTIONS)):
                raise InvalidConfigError(
                    "params.lean.left_fractions must be a list of values from "
                    f"{list(LEAN_LEFT_FRACTIONS)}")
            if not fractions:
                raise InvalidConfigError("params.lean.left_fractions must not be empty")
            size = given.get("mixture_size", 1)
            if not (_is_number(size, numbers.Integral) and size >= 1):
                raise InvalidConfigError("params.lean.mixture_size must be an integer >= 1")

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
    paths is merged first (later includes win), then the body's own keys. Any
    other key than an ExperimentSpec field raises InvalidConfigError."""
    merged = _load_with_includes(path, seen=set())
    unknown = sorted(set(merged) - {f.name for f in fields(ExperimentSpec)})
    if unknown:
        raise InvalidConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    if "kind" not in merged:
        raise InvalidConfigError(f"{path}: config lacks an experiment kind")
    spec = ExperimentSpec(**merged)
    spec.validate()
    return spec


def _load_with_includes(path, seen) -> dict:
    real = os.path.realpath(path)
    if real in seen:
        raise InvalidConfigError(f"circular include at {path}")
    seen.add(real)
    try:
        with open(path, encoding="utf-8") as fh:
            body = json.load(fh)
    except OSError as exc:
        raise InvalidConfigError(f"{path}: cannot read config: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidConfigError(f"{path}: config is not UTF-8 text ({exc.reason})") from exc
    except json.JSONDecodeError as exc:
        raise InvalidConfigError(f"{path}: config is not valid JSON: {exc}") from exc
    if not isinstance(body, dict):
        raise InvalidConfigError(f"{path}: config must be a JSON object")
    includes = body.pop("include", [])
    if not (isinstance(includes, list) and all(isinstance(inc, str) for inc in includes)):
        raise InvalidConfigError(f"{path}: include must be a list of paths")
    merged: dict = {}
    for inc in includes:
        inc_path = inc if os.path.isabs(inc) else os.path.join(os.path.dirname(path), inc)
        merged.update(_load_with_includes(inc_path, seen))
    merged.update(body)
    return merged


class ResultStore:
    """Run directory with a manifest and tidy CSV/JSONL artifacts. The
    directory is made when the first artifact is written, so a run that fails
    before that leaves nothing on disk."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.artifacts: dict = {}

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)

    def _new_file(self, name: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return self.path(name)

    def write_manifest(self, spec: ExperimentSpec, failures: list) -> None:
        manifest = {
            "spec_hash": spec_hash(spec),
            "spec": spec.canonical(),
            "code_version": __version__,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "artifacts": sorted(self.artifacts),
            "failures": failures,
        }
        with open(self._new_file("manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)

    def add_csv(self, name: str, header: list[str], rows) -> str:
        path = self._new_file(name)
        write_csv(path, header, rows)
        self.artifacts[name] = path
        return path

    def add_jsonl(self, name: str, rows) -> str:
        path = self._new_file(name)
        write_jsonl(path, rows)
        self.artifacts[name] = path
        return path


# ---------------------------------------------------------------------------
# runners


def run_experiment(spec: ExperimentSpec) -> ResultStore:
    """Execute a spec's full grid. Per-cell failures are recorded without
    aborting the rest of the grid."""
    spec.validate()
    store = ResultStore(spec.out_dir)
    failures: list = []
    _RUNNERS[spec.kind](spec, store, failures)
    store.write_manifest(spec, failures)
    return store


def _run_cells(cells: list[dict], run_cell, failures: list, order=None) -> list:
    """Call ``run_cell(**cell)`` for each cell and return, in cell order, the
    results of those that finish. A cell that raises is recorded in
    ``failures`` and the grid goes on (cell isolation by contract). The cells
    run on forked worker processes, submitted in ``order``, as
    ``_pool.outcomes`` says."""
    results = []
    for cell, (finished, value) in zip(cells, _pool.outcomes(run_cell, cells, order)):
        if finished:
            results.append(value)
        else:
            failures.append(_failure(cell, value))
    return results


def _failure(cell: dict, exc: Exception) -> dict:
    """The manifest's record of a cell that failed with ``exc``."""
    return {"cell": cell, "error": _pool.describe(exc)}


def _run_toy(spec: ExperimentSpec, store: ResultStore, failures: list) -> None:
    # the costliest cells first: a run's synthetic draws cost more than its
    # human ones, and a cell draws floor(ratio * N) of them per run and step
    order = sorted(range(len(spec.ratios)), key=lambda i: -spec.ratios[i])
    traces = _run_cells([{"ratio": r} for r in spec.ratios],
                        functools.partial(_toy_cell, spec.params.get("toy", {})), failures, order)
    store.add_csv("toy_trace.csv", toy.TRACE_HEADER, toy.trace_rows(traces))
    store.add_csv("toy_aggregate.csv", toy.AGGREGATE_HEADER, toy.aggregate_rows(traces))


def _toy_cell(params: dict, ratio):
    return toy.run_toy_chain(toy.ToyConfig(ratio=ratio, **params))


def _chain_config(spec: ExperimentSpec, ratio: float, seed: int) -> ChainConfig:
    p = {k: tuple(v) if isinstance(v, list) else v
         for k, v in spec.params.get("chain", {}).items()}
    return ChainConfig(ratio=ratio, seed=seed, **{"eval_metrics": _GRID_EVAL_METRICS, **p})


def _run_chain_grid(spec: ExperimentSpec, store: ResultStore, failures: list) -> None:
    cells = [{"ratio": r, "seed": s} for r in spec.ratios for s in spec.seeds]
    corpus = record_columns(read_records_jsonl(spec.corpus_path))
    run_cell = functools.partial(_chain_cell, spec, corpus)
    summary, relative_rows, trace_lines = [], [], []
    for rows, rel_rows, lines in _run_cells(cells, run_cell, failures):
        summary += rows
        relative_rows += rel_rows
        trace_lines += lines
    store.add_jsonl("trace.jsonl", sorted(
        trace_lines, key=lambda L: (L["ratio"], L["seed"], L["generation"], L["domain"])))
    store.add_csv("summary.csv",
                  ["seed", "generation", "domain", "ratio", "metric", "value"],
                  sorted(summary, key=lambda r: (r[0], r[1], str(r[2]), r[3], r[4])))
    store.add_csv("relative.csv",
                  ["seed", "domain", "ratio", "metric", "value"],
                  sorted(relative_rows, key=lambda r: (r[0], str(r[1]), r[2], r[3])))


def _chain_cell(spec: ExperimentSpec, corpus: tuple, ratio, seed):
    """The cell's summary rows, relative rows and trace lines."""
    trace = run_chain(_chain_config(spec, ratio, seed),
                      HumanCorpus.from_columns(*corpus, seed=seed), default_factory)
    rows, rel_rows, trace_lines = [], [], []
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
                "whole_batch": report.whole_batch,
            })
            for metric, value in report.values.items():
                rows.append([seed, g, domain_name, float(ratio), metric, float(value)])
    try:
        rel = relative_metrics(trace)
    except InvalidTraceError:  # fewer than two evaluated generations
        rel = {}
    for domain, metric_map in rel.items():
        for metric, value in metric_map.items():
            rel_rows.append([seed, domain if domain is not None else "", float(ratio),
                             metric, _or_blank(value)])
    return rows, rel_rows, trace_lines


def _run_lean(spec: ExperimentSpec, store: ResultStore, failures: list) -> None:
    from .judge import LEAN_LEFT_FRACTIONS, partition_by_lean

    left, right = partition_by_lean(read_records_jsonl(spec.corpus_path))
    p = spec.params.get("lean", {})
    size = p.get("mixture_size", min(len(left), len(right)))
    fractions = p.get("left_fractions", LEAN_LEFT_FRACTIONS)
    cells = [{"left_fraction": f, "seed": s} for f in fractions for s in spec.seeds]
    header = (["left_fraction", "seed", "mean_lean", "neutral_fraction",
               "non_political_fraction"] + _BINS)
    store.add_csv("lean_mixtures.csv", header, _run_cells(
        cells, functools.partial(_lean_cell, left, right, size), failures))


def _lean_cell(left: list, right: list, size: int, left_fraction, seed):
    from .judge import build_lean_mixture

    mix = build_lean_mixture(left, right, left_fraction, size, seed=seed)
    scores = [r.annotations["lean"] for r in mix]
    bins = metrics.lean_bins(scores)
    political = [s for s in scores if s != -1]
    mean_lean = float(np.mean(political)) if political else ""
    return ([float(left_fraction), seed, mean_lean, float(bins["neutral_fraction"]),
             float(bins["non_political_fraction"])]
            + [float(x) for x in bins["proportions"]])


def _run_cluster_grid(spec: ExperimentSpec, store: ResultStore, failures: list) -> None:
    """Run chains per (cluster, ratio, seed) and emit the observations table
    for the regression layer.

    A cluster's properties do not depend on the ratio, so they are a task of
    their own per (cluster, seed), and only self-BLEU's subsample reads the
    seed. The property tasks and the chain cells run in one ``_pool.outcomes``
    round, property tasks first. A cell is recorded in ``failures`` with its
    chain's error if the chain raised, else with its properties' error if
    those raised, in cell order."""
    corpus = record_columns(read_records_jsonl(spec.corpus_path))
    clusters = read_jsonl(spec.cluster_manifest, required=("cluster_id", "record_indices"))
    indices = {c["cluster_id"]: c["record_indices"] for c in clusters}
    property_tasks = [{"cluster_id": c, "seed": s} for c in indices for s in spec.seeds]
    cells = [{"cluster_id": c["cluster_id"], "ratio": r, "seed": s}
             for c in clusters for r in spec.ratios for s in spec.seeds]
    outcomes = _pool.outcomes(functools.partial(_cluster_task, spec, corpus, indices),
                              property_tasks + cells)
    properties = {(task["cluster_id"], task["seed"]): outcome
                  for task, outcome in zip(property_tasks, outcomes)}
    rows = []
    for cell, (finished, value) in zip(cells, outcomes[len(property_tasks):]):
        computed, props = properties[cell["cluster_id"], cell["seed"]]
        if not (finished and computed):
            failures.append(_failure(cell, props if finished else value))
        else:
            rows.append([cell["cluster_id"], float(cell["ratio"]), cell["seed"], *props, *value])
    store.add_csv("observations.csv",
                  ["cluster_id", "ratio", "seed", "lexical_diversity",
                   "word_entropy", "type_token_ratio", "text_length",
                   "rel_distinct_count", "rel_word_entropy"],
                  sorted(rows, key=lambda r: (r[0], r[1], r[2])))


def _cluster_task(spec: ExperimentSpec, corpus: tuple, indices: dict, cluster_id, seed,
                  ratio=None):
    """A cell's relative metrics, or without a ratio the cluster's properties."""
    texts, sources, domains = corpus
    members = indices[cluster_id]
    member_texts = [texts[i] for i in members]
    if ratio is None:
        return [metrics.self_bleu(member_texts, seed=seed), metrics.word_entropy(member_texts),
                metrics.type_token_ratio(member_texts), metrics.avg_text_length(member_texts)]
    corpus = HumanCorpus.from_columns(member_texts, [sources[i] for i in members],
                                      [domains[i] for i in members], seed=seed)
    trace = run_chain(_chain_config(spec, ratio, seed), corpus, default_factory)
    rel = relative_metrics(trace)
    domain_rel = rel.get(None) or next(iter(rel.values()))
    return [_or_blank(domain_rel.get("distinct_count")),
            _or_blank(domain_rel.get("word_entropy"))]


def _check_param_types(section: str, given: dict, config) -> None:
    """Reject a params value whose type is not its ``config`` field's."""
    annotations = {f.name: f.type for f in fields(config)}
    for key, value in given.items():
        what, ok = _PARAM_TYPES[annotations[key]]
        if not ok(value):
            raise InvalidConfigError(f"params.{section}.{key} must be {what}, "
                                     f"not {json.dumps(value, default=repr)}")


def _is_number(x, kind) -> bool:
    """Whether ``x`` is a number of ``kind``; a bool is not one."""
    return isinstance(x, kind) and not isinstance(x, bool)


def _or_blank(v):
    return "" if v is None else float(v)


_RUNNERS = {"toy": _run_toy, "chain": _run_chain_grid,
            "cluster-regression": _run_cluster_grid, "lean": _run_lean}
KINDS = tuple(_RUNNERS)


# ---------------------------------------------------------------------------
# plot data


def emit_plot_data(store: ResultStore, figure_kind: str, out_path=None) -> str:
    """Reshape stored results into the tidy CSV a named figure consumes."""
    if figure_kind not in _FIGURES:
        raise InvalidInputError(f"unknown figure kind {figure_kind!r}")
    source, columns, numeric, last_generation = _FIGURES[figure_kind]
    rows = read_csv(store.path(source))
    if not rows:
        raise InvalidInputError(f"{source} has no rows")
    missing = [c for c in columns + ["generation"] * last_generation if c not in rows[0]]
    if missing:
        raise InvalidInputError(f"{source} lacks required columns: {missing}")
    if last_generation:
        last = max(int(r["generation"]) for r in rows)
        rows = [r for r in rows if int(r["generation"]) == last]
    out_path = out_path or store.path(f"plot_{figure_kind}.csv")
    # a blank numeric cell (an undefined relative metric) stays blank
    write_csv(out_path, columns,
              [[(float(r[c]) if r[c] != "" else "") if c in numeric else r[c] for c in columns]
               for r in rows])
    return out_path
