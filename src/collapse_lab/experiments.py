"""Experiment specs, the sweep runner (cluster x ratio x seed grids), result
persistence with spec hashing, and plot-data emission.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import toy
from .chain import ChainConfig, HumanCorpus, relative_metrics, run_chain
from .errors import InvalidConfigError, InvalidInputError, InvalidTraceError
from .generators import default_factory
from .io import read_csv, read_jsonl, read_records_jsonl, write_csv, write_jsonl
from .metrics import LEAN_BINS

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
# ChainConfig's default without self_bleu: summary.csv stays byte-identical for
# grid specs that leave eval_metrics unset, while a lone ChainConfig keeps self_bleu
_GRID_EVAL_METRICS = ("distinct_count", "word_entropy", "type_token_ratio", "avg_text_length")
_BINS = [f"bin_{i}" for i in range(LEAN_BINS)]
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
    ratios: list = field(default_factory=lambda: [0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 1.0])
    seeds: list = field(default_factory=lambda: [0, 1, 2, 3, 4])
    out_dir: str = "results"
    corpus_path: str | None = None
    cluster_manifest: str | None = None
    params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise InvalidConfigError(f"unknown experiment kind {self.kind!r}")
        missing = [name for name in _REQUIRED.get(self.kind, ()) if not getattr(self, name)]
        if missing:
            raise InvalidConfigError(f"{self.kind} experiments need {' and '.join(missing)}")
        for r in self.ratios:
            if not 0.0 <= r <= 1.0:
                raise InvalidConfigError(f"ratio {r} outside [0, 1]")
        if not self.seeds:
            raise InvalidConfigError("at least one seed is required")
        for path in (self.corpus_path, self.cluster_manifest):
            if path is not None and not os.path.exists(path):
                raise InvalidConfigError(f"referenced file does not exist: {path}")
        if not isinstance(self.params, dict):
            raise InvalidConfigError("params must be an object")
        unknown = sorted(set(self.params) - set(_PARAM_KEYS))
        if unknown:
            raise InvalidConfigError(f"unknown params sections: {', '.join(unknown)}")
        for section, allowed in _PARAM_KEYS.items():
            given = self.params.get(section, {})
            if not isinstance(given, dict):
                raise InvalidConfigError(f"params.{section} must be an object")
            unknown = sorted(set(given) - allowed)
            if unknown:
                raise InvalidConfigError(f"unknown params.{section} keys: {', '.join(unknown)}")
        kinds = self.params.get("chain", {}).get("generator_kinds", ())
        if not isinstance(kinds, (list, tuple)):
            raise InvalidConfigError("params.chain.generator_kinds must be a list of kind names")
        for kind in kinds:
            default_factory(kind, 0)  # raises InvalidConfigError on a name it does not know
        if self.kind == "toy":  # a bad toy value fails every cell alike: reject it here
            for r in self.ratios:
                toy.ToyConfig(ratio=r, **self.params.get("toy", {})).validate()

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
        with open(path) as fh:
            body = json.load(fh)
    except OSError as exc:
        raise InvalidConfigError(f"{path}: cannot read config: {exc.strerror}") from exc
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
            "code_version": _code_version(),
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "artifacts": sorted(self.artifacts),
            "failures": failures,
        }
        with open(self._new_file("manifest.json"), "w") as fh:
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


def _code_version() -> str:
    from . import __version__

    return __version__


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


def _run_cells(cells: list[dict], run_cell, failures: list) -> list:
    """Call ``run_cell(**cell)`` for each cell and return, in cell order, the
    results of those that finish. A cell that raises is recorded in
    ``failures`` and the grid goes on (cell isolation by contract).

    The cells run on forked worker processes, one per CPU, and only their
    results are pickled back. They run in this process where there is one
    cell, one CPU or no ``fork`` start method."""
    workers = min(len(cells), _WORKERS or _cpu_count())
    context = _fork_context() if workers > 1 else None
    if context is None:
        outcomes = [_outcome(run_cell, cell) for cell in cells]
    else:
        outcomes = _forked_outcomes(context, workers, run_cell, cells)
    results = []
    for cell, (finished, value) in zip(cells, outcomes):
        if finished:
            results.append(value)
        else:
            failures.append({"cell": cell, "error": value})
    return results


# the pool size; None means one worker per CPU this process may run on
_WORKERS: int | None = None
# a worker's (run_cell, cells), set by the pool's initializer: a forked worker
# inherits both, so neither the runner's closure nor its corpus is pickled
_JOB: tuple | None = None


def _outcome(run_cell, cell: dict) -> tuple[bool, object]:
    """(True, result) of a cell, or (False, "Type: message") if it raised.
    An exception is not sent back from a worker as itself: not every one
    unpickles (DataExhaustedError's ``__init__`` takes three arguments)."""
    try:
        return True, run_cell(**cell)
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def _fork_context():
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    # explicit: Python 3.14 makes forkserver the default on Linux
    return multiprocessing.get_context("fork")


def _set_job(run_cell, cells: list[dict]) -> None:
    global _JOB
    _JOB = (run_cell, cells)


def _forked_cell(index: int) -> tuple[bool, object]:
    run_cell, cells = _JOB
    return _outcome(run_cell, cells[index])


def _forked_outcomes(context, workers: int, run_cell, cells: list[dict]) -> list:
    """``_outcome`` of each cell, computed on ``workers`` forked processes. A
    worker that dies breaks the pool and leaves the cells it had not finished
    without an outcome; each of those runs again alone in a fresh pool, so
    only a cell that kills its own worker fails, as BrokenProcessPool."""
    outcomes, broken = _pool_outcomes(context, workers, run_cell, cells, range(len(cells)))
    for index in broken:
        outcomes.update(_pool_outcomes(context, 1, run_cell, cells, [index])[0])
    return [outcomes[index] for index in range(len(cells))]


def _pool_outcomes(context, workers: int, run_cell, cells: list[dict], indices):
    """({index: outcome}, [index left by a broken pool]) for the cells at
    ``indices``. The pool's processes are joined before this returns."""
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    outcomes, broken = {}, []
    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_set_job,
                               initargs=(run_cell, cells))
    try:
        futures = {index: pool.submit(_forked_cell, index) for index in indices}
        for index, future in futures.items():
            try:
                outcomes[index] = future.result()
            except BrokenProcessPool as exc:
                outcomes[index] = False, f"{type(exc).__name__}: {exc}"
                broken.append(index)
    finally:
        # on an error, cells not yet started are dropped rather than run
        pool.shutdown(wait=True, cancel_futures=True)
    return outcomes, broken


def _run_toy(spec: ExperimentSpec, store: ResultStore, failures: list) -> None:
    params = spec.params.get("toy", {})

    def run_cell(ratio):
        return toy.run_toy_chain(toy.ToyConfig(ratio=ratio, **params))

    traces = _run_cells([{"ratio": r} for r in spec.ratios], run_cell, failures)
    store.add_csv("toy_trace.csv", toy.TRACE_HEADER, toy.trace_rows(traces))
    store.add_csv("toy_aggregate.csv", toy.AGGREGATE_HEADER, toy.aggregate_rows(traces))


def _chain_config(spec: ExperimentSpec, ratio: float, seed: int) -> ChainConfig:
    p = {k: tuple(v) if isinstance(v, list) else v
         for k, v in spec.params.get("chain", {}).items()}
    return ChainConfig(ratio=ratio, seed=seed, **{"eval_metrics": _GRID_EVAL_METRICS, **p})


def _run_chain_grid(spec: ExperimentSpec, store: ResultStore, failures: list) -> None:
    records = read_records_jsonl(spec.corpus_path)

    def run_cell(ratio, seed):
        """The cell's summary rows, relative rows and trace lines."""
        trace = run_chain(_chain_config(spec, ratio, seed), HumanCorpus(records, seed=seed),
                          default_factory)
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
                    "whole_batch": bool(report.params.get("whole_batch", False)),
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

    cells = [{"ratio": r, "seed": s} for r in spec.ratios for s in spec.seeds]
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


def _run_lean(spec: ExperimentSpec, store: ResultStore, failures: list) -> None:
    from .judge import build_lean_mixture, partition_by_lean
    from .metrics import lean_bins

    left, right = partition_by_lean(read_records_jsonl(spec.corpus_path))
    p = spec.params.get("lean", {})
    size = p.get("mixture_size", min(len(left), len(right)))
    fractions = p.get("left_fractions", [0.0, 0.25, 0.5, 0.75, 1.0])

    def run_cell(left_fraction, seed):
        mix = build_lean_mixture(left, right, left_fraction, size, seed=seed)
        scores = [r.annotations["lean"] for r in mix]
        bins = lean_bins(scores)
        political = [s for s in scores if s != -1]
        mean_lean = float(np.mean(political)) if political else ""
        return ([float(left_fraction), seed, mean_lean, float(bins["neutral_fraction"]),
                 float(bins["non_political_fraction"])]
                + [float(x) for x in bins["proportions"]])

    cells = [{"left_fraction": f, "seed": s} for f in fractions for s in spec.seeds]
    header = (["left_fraction", "seed", "mean_lean", "neutral_fraction",
               "non_political_fraction"] + _BINS)
    store.add_csv("lean_mixtures.csv", header, _run_cells(cells, run_cell, failures))


def _run_cluster_grid(spec: ExperimentSpec, store: ResultStore, failures: list) -> None:
    """Run chains per (cluster, ratio, seed) and emit the observations table
    for the regression layer."""
    from .metrics import (avg_text_length, self_bleu, type_token_ratio,
                          word_entropy)

    records = read_records_jsonl(spec.corpus_path)
    clusters = read_jsonl(spec.cluster_manifest, required=("cluster_id", "record_indices"))
    indices = {c["cluster_id"]: c["record_indices"] for c in clusters}

    def run_cell(cluster_id, ratio, seed):
        members = [records[i] for i in indices[cluster_id]]
        trace = run_chain(_chain_config(spec, ratio, seed),
                          HumanCorpus(members, seed=seed), default_factory)
        rel = relative_metrics(trace)
        domain_rel = rel.get(None) or next(iter(rel.values()))
        texts = [m.text for m in members]
        return [cluster_id, float(ratio), seed,
                self_bleu(texts, seed=seed), word_entropy(texts),
                type_token_ratio(texts), avg_text_length(texts),
                _or_blank(domain_rel.get("distinct_count")),
                _or_blank(domain_rel.get("word_entropy"))]

    cells = [{"cluster_id": c["cluster_id"], "ratio": r, "seed": s}
             for c in clusters for r in spec.ratios for s in spec.seeds]
    store.add_csv("observations.csv",
                  ["cluster_id", "ratio", "seed", "lexical_diversity",
                   "word_entropy", "type_token_ratio", "text_length",
                   "rel_distinct_count", "rel_word_entropy"],
                  sorted(_run_cells(cells, run_cell, failures),
                         key=lambda r: (r[0], r[1], r[2])))


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
