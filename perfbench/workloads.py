"""The benchmark workloads. Each one makes its inputs from the workload seed,
loads them through ``collapse_lab.io``, runs one operation of the program's
public API per ``op()`` call and checks that operation's outputs.

Seed costs quoted below were measured at the commit that added the benchmark,
on a 2-core x86-64 container with Python 3.11, numpy 2.4 and scipy 1.17.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np

import calibrate
import inputs
import reference
from judge_stub import expected_score, prompt_hash

from collapse_lab import chain, clustering, experiments, generators, io, judge, regression

GOLDEN = json.loads((Path(__file__).with_name("golden.json")).read_text())
GOLDEN_SEEDS = range(100)  # workload seeds whose output digests golden.json holds


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Workload:
    name = ""
    why = ""
    SIZE: dict = {}
    CALIBRATION: tuple = ()  # names of the calibrate.py units that mirror the operation

    def __init__(self, seed: int, size: dict | None = None):
        self.seed = seed
        self.size = dict(self.SIZE, **(size or {}))
        self.recorded = size is None  # golden.json holds digests for the standard sizes only
        self.loads: list[tuple[str, str]] = []  # (io reader, path) read at set-up
        self.loaded: list = []
        self.transport = None  # judge transport seam, set by a traced run

    def prepare(self, work: Path) -> None:
        """Write the seeded inputs under ``work`` and fill ``self.loads``."""
        raise NotImplementedError

    def load(self) -> None:
        self.loaded = [getattr(io, reader)(path) for reader, path in self.loads]

    def setup_code(self, src: Path) -> str:
        """Source of a fresh interpreter's set-up: import the package and read
        every input through ``io``."""
        lines = [f"import sys; sys.path.insert(0, {str(src)!r})", "import collapse_lab",
                 "from collapse_lab import io"]
        lines += [f"io.{reader}({str(path)!r})" for reader, path in self.loads]
        return "\n".join(lines)

    def calibration(self):
        """The run's calibration unit, and its reference time in seconds."""
        units = [getattr(calibrate, name) for name in self.CALIBRATION]
        return calibrate.mix(*units), calibrate.ref_s(*self.CALIBRATION)

    def reset(self) -> None:
        """Untimed preparation before each operation."""

    def op(self):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        """Problems found in one operation's outputs; empty when correct."""
        raise NotImplementedError

    def layer_counts(self, result) -> dict:
        """Per-operation counts read from the outputs, for the traced run."""
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------


class Chain(Workload):
    name = "chain"
    why = ("the paper's core loop: one run_chain cell at its per-generation sizes, "
           "where metrics (self-BLEU) does almost all of the work")
    # Seed cost (measured figures: perfbench/README.md, "Workloads"): 7-11 s
    # of self-BLEU per generation, about 0.02 s for the rest, so one
    # 2-generation cell takes 13-22 s. Two generations are the fewest that
    # run DataPool.sample. Not in BENCHMARK.json: a run holds only one to
    # three such cells, and a fourth workload of 49-s runs would not fit the
    # benchmark's time allowance. Its layers are measured on sweep.
    SIZE = dict(initial_human=8000, per_gen_total=4000, eval_sample=250, generations=2)
    CALIBRATION = ("python_text",)
    RATIO = 0.5

    def prepare(self, work):
        s = self.size
        n_hum = s["per_gen_total"] - math.floor(s["per_gen_total"] * self.RATIO)
        texts = inputs.make_texts(s["initial_human"] + n_hum * s["generations"],
                                  np.random.default_rng(self.seed))
        inputs.write_records(work / "corpus.jsonl", texts)
        self.loads = [("read_records_jsonl", work / "corpus.jsonl")]
        self._corpus_texts = set(texts)
        self._reference: dict = {}

    def op(self):
        s = self.size
        cfg = chain.ChainConfig(ratio=self.RATIO, generations=s["generations"],
                                initial_human=s["initial_human"],
                                per_gen_total=s["per_gen_total"],
                                eval_sample=s["eval_sample"],
                                generator_kinds=("resampler",), seed=self.seed)
        corpus = chain.HumanCorpus(self.loaded[0], seed=self.seed)
        return chain.run_chain(cfg, corpus, generators.default_factory)

    def check(self, trace):
        s = self.size
        problems = []
        want_pool = [s["per_gen_total"] * (g + 1) for g in range(s["generations"])]
        if trace.pool_sizes != want_pool:
            problems.append(f"pool sizes {trace.pool_sizes} != {want_pool}")
        got, want = [], []
        for g, (reports, batches) in enumerate(zip(trace.reports, trace.eval_batches)):
            report, batch = reports.get(None), batches.get(None)
            if report is None or len(batch) != s["eval_sample"]:
                problems.append(f"generation {g}: missing or short evaluation")
                continue
            if not set(batch) <= self._corpus_texts:
                problems.append(f"generation {g}: evaluated text not from the corpus")
            key = sha256_json(batch)
            if key not in self._reference:
                self._reference[key] = reference.chain_report(batch)
            got.append([g, {k: float(v) for k, v in report.values.items()}])
            want.append([g, {k: float(v) for k, v in self._reference[key].items()}])
        if len(got) != s["generations"]:
            problems.append(f"{len(got)} evaluated generations, want {s['generations']}")
        if sha256_json(got) != sha256_json(want):
            problems.append(f"metric digest {sha256_json(got)[:12]} != reference "
                            f"{sha256_json(want)[:12]}: {got} vs {want}")
        return problems


# ---------------------------------------------------------------------------


class Suite(Workload):
    name = "suite"
    why = ("build_cluster_suite with the default clustering grid on a projection sample "
           "of half the points, propagated to all: clustering does all of the work")
    # Seed cost (measured figures: perfbench/README.md, "Workloads"): 4.5-5.7 s
    # per suite, about 75% of it in 20 propagate_labels calls (the grid has 22
    # variants; the two DBSCAN ones that find only noise propagate nothing).
    # The blob layout is the same for every seed, which draws only the
    # points: with a layout per seed, the GMM fits took 59 to 349 EM
    # iterations, and a suite's cost varied with the seed by +-20%. 3000
    # points then gave 185-199 candidate clusters, so final_count is 150;
    # with the fixed layout seeds 0-99 all give 150.
    SIZE = dict(points=3000, sample=1500, blobs=30, final_count=150)
    LAYOUT_SEED = 12345
    CALIBRATION = ("numpy_blocks",)

    def prepare(self, work):
        s = self.size
        layout = inputs.blob_layout(s["blobs"], np.random.default_rng(self.LAYOUT_SEED))
        points = inputs.make_projection(s["points"], layout, np.random.default_rng(self.seed))
        inputs.write_emb1(work / "projection.emb1", points)
        self.loads = [("read_embeddings", work / "projection.emb1")]
        self.digest_matches: list[bool] = []

    def config(self):
        return clustering.ClusterSuiteConfig(projection_sample=self.size["sample"],
                                             final_count=self.size["final_count"],
                                             seed=self.seed)

    def op(self):
        return clustering.build_cluster_suite(self.loaded[0], self.config())

    def check(self, suite):
        s = self.size
        min_size = max(1, int(self.config().min_cluster_fraction * s["points"]))
        problems = []
        if len(suite) != s["final_count"]:
            problems.append(f"{len(suite)} clusters, want {s['final_count']}")
        for i, spec in enumerate(suite):
            idx = np.asarray(spec["record_indices"])
            if spec["cluster_id"] != i:
                problems.append(f"cluster {i} has id {spec['cluster_id']}")
            if idx.size < min_size:
                problems.append(f"cluster {i} has {idx.size} members, minimum {min_size}")
            if idx.size and (idx[0] < 0 or idx[-1] >= s["points"] or np.any(np.diff(idx) <= 0)):
                problems.append(f"cluster {i} indices not sorted, unique and in range")
        recorded = GOLDEN["suite"].get(str(self.seed)) if self.recorded else None
        self.digest_matches.append(recorded == suite_digest(suite))
        return problems

    def layer_counts(self, suite):
        return {"clustering.digest_match": float(self.digest_matches[-1])}


def suite_digest(suite) -> str:
    return sha256_json([[c["cluster_id"], c["method"], c["params"],
                         np.asarray(c["record_indices"]).tolist()] for c in suite])


# ---------------------------------------------------------------------------


class Sweep(Workload):
    name = "sweep"
    why = ("run_experiment of a toy spec on the paper's ratio grid and a cluster-regression "
           "grid (chains and self-BLEU per cell, one undersized cluster), then the regression")
    # Seed cost (measured figures: perfbench/README.md, "Workloads"): 2.8-4.5 s
    # per operation, about 45% in the toy grid and 50% in self-BLEU over the
    # 12 good grid cells. The undersized cluster's 2 cells fail by design
    # with DataExhaustedError.
    SIZE = dict(good_clusters=6, cluster_size=30, small_cluster=20, toy_runs=50)
    CALIBRATION = ("python_text", "numpy_small")
    TOY_RATIOS = [0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 1.0]
    GRID_RATIOS = [0.25, 0.5]
    CHAIN = dict(generations=2, initial_human=12, per_gen_total=12, eval_sample=3)
    PROPERTIES = ("lexical_diversity", "word_entropy", "type_token_ratio", "text_length")
    DEPENDENTS = ("rel_distinct_count", "rel_word_entropy")

    def prepare(self, work):
        s = self.size
        rng = np.random.default_rng(self.seed)
        n = s["good_clusters"] * s["cluster_size"] + s["small_cluster"]
        texts = inputs.make_texts(n, rng)
        perm = rng.permutation(n).tolist()
        cuts = [i * s["cluster_size"] for i in range(s["good_clusters"] + 1)] + [n]
        clusters = [sorted(perm[a:b]) for a, b in zip(cuts, cuts[1:])]
        self.bad_cluster = len(clusters) - 1
        self.cluster_texts = {cid: [texts[i] for i in idx]
                              for cid, idx in enumerate(clusters[:self.bad_cluster])}
        self._properties: dict = {}
        inputs.write_records(work / "corpus.jsonl", texts)
        inputs.write_manifest(work / "clusters.jsonl", clusters)
        inputs.write_json(work / "toy.json", {
            "kind": "toy", "ratios": self.TOY_RATIOS, "seeds": [0],
            "out_dir": str(work / "toy"), "params": {"toy": {"runs": s["toy_runs"]}}})
        inputs.write_json(work / "grid.json", {
            "kind": "cluster-regression", "ratios": self.GRID_RATIOS, "seeds": [0],
            "out_dir": str(work / "grid"), "corpus_path": str(work / "corpus.jsonl"),
            "cluster_manifest": str(work / "clusters.jsonl"),
            "params": {"chain": self.CHAIN}})
        self.work = work
        self.loads = [("read_records_jsonl", work / "corpus.jsonl")]
        self.first_digests = None

    def op(self):
        toy_store = experiments.run_experiment(experiments.load_spec(self.work / "toy.json"))
        grid_store = experiments.run_experiment(experiments.load_spec(self.work / "grid.json"))
        with open(grid_store.path("observations.csv"), newline="") as fh:
            observations = [{k: (v if k == "cluster_id" else float(v)) for k, v in row.items()}
                            for row in csv.DictReader(fh)]
        fits = regression.property_shift_regression(
            observations, grouping="all", dependents=self.DEPENDENTS,
            property_keys=self.PROPERTIES)
        with open(grid_store.path("manifest.json")) as fh:
            manifest = json.load(fh)
        return {"toy": toy_store, "grid": grid_store, "fits": fits, "manifest": manifest,
                "observations": len(observations)}

    def digests(self, result) -> dict:
        return {"toy_trace.csv": sha256_file(result["toy"].path("toy_trace.csv")),
                "toy_aggregate.csv": sha256_file(result["toy"].path("toy_aggregate.csv")),
                "observations.csv": sha256_file(result["grid"].path("observations.csv"))}

    def check(self, result):
        problems = []
        digests = self.digests(result)
        golden = GOLDEN["sweep"] if self.recorded else {}
        recorded = {name: golden.get(name) for name in ("toy_trace.csv", "toy_aggregate.csv")}
        recorded["observations.csv"] = golden.get("observations.csv", {}).get(str(self.seed))
        if self.first_digests is None:
            self.first_digests = digests
            if self.recorded and recorded["observations.csv"] is None:
                print(f"sweep: golden.json has no observations.csv digest for seed {self.seed} "
                      f"(it covers seeds {GOLDEN_SEEDS[0]}-{GOLDEN_SEEDS[-1]}); its property "
                      "columns are checked against reference.py and every operation against "
                      "the first", file=sys.stderr, flush=True)
        for name, digest in digests.items():
            want = recorded[name] or self.first_digests[name]
            if digest != want:
                problems.append(f"{name} sha256 {digest[:12]} != recorded {want[:12]}")
        problems += self.check_observations(result["grid"].path("observations.csv"))
        want_failed = sorted((self.bad_cluster, r) for r in self.GRID_RATIOS)
        failures = result["manifest"]["failures"]
        got_failed = sorted((f["cell"]["cluster_id"], f["cell"]["ratio"]) for f in failures)
        if got_failed != want_failed:
            problems.append(f"failed cells {got_failed} != designed {want_failed}")
        if any(not f["error"].startswith("DataExhaustedError") for f in failures):
            problems.append("a designed failure has the wrong cause")
        for fit in result["fits"]:
            if "result" not in fit:
                problems.append(f"regression {fit['dependent']} skipped: {fit.get('skipped')}")
        return problems

    def check_observations(self, path) -> list[str]:
        """One row per good cell, and each cluster's lexical properties equal
        to reference.py's, bit for bit."""
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        want_cells = sorted((cid, r) for cid in self.cluster_texts for r in self.GRID_RATIOS)
        got_cells = sorted((int(row["cluster_id"]), float(row["ratio"])) for row in rows)
        if got_cells != want_cells:
            return [f"observations.csv cells {got_cells} != good cells {want_cells}"]
        problems = []
        for row in rows:
            cid = int(row["cluster_id"])
            if cid not in self._properties:
                texts = self.cluster_texts[cid]
                self._properties[cid] = {
                    "lexical_diversity": reference.self_bleu(texts),
                    "word_entropy": reference.word_entropy(texts),
                    "type_token_ratio": reference.type_token_ratio(texts),
                    "text_length": reference.avg_text_length(texts)}
            for key, want in self._properties[cid].items():
                if row[key] != repr(want):
                    problems.append(f"observations.csv cluster {cid} ratio {row['ratio']}: "
                                    f"{key} {row[key]} != reference {want!r}")
        return problems

    def layer_counts(self, result):
        failed = len(result["manifest"]["failures"])
        cells = result["observations"] + failed
        return {"experiments.cells": cells, "experiments.cells_failed": failed,
                "failed_frac": failed / cells}


# ---------------------------------------------------------------------------


class Annotate(Workload):
    name = "annotate"
    why = ("annotate_quality over 2000 texts against a loopback judge stub: a cold pass on an "
           "empty cache (requests, appends, retries), then a warm pass on it (cache hits)")
    # Seed cost (measured figures: perfbench/README.md, "Workloads"): about
    # 2.2 s for the cold pass and 0.2 s for the warm one;
    # 31-39 of 2000 texts fail on every attempt. One operation runs both
    # passes, so a gain on cache misses that costs cache hits, or the
    # reverse, shows in judge.cold.wall_s and judge.warm.wall_s.
    SIZE = dict(texts=2000)
    CALIBRATION = ("loopback",)
    MAX_RETRIES = 3

    def prepare(self, work):
        rng = np.random.default_rng(self.seed)
        texts = list(dict.fromkeys(inputs.make_texts(self.size["texts"] + 10, rng)))
        texts = texts[:self.size["texts"]]
        inputs.write_records(work / "texts.jsonl", texts)
        self.loads = [("read_records_jsonl", work / "texts.jsonl")]
        self.cache = work / "judge_cache.jsonl"
        self.prompts = [judge.QUALITY_PROMPT.format(text=t) for t in texts]
        self.expected = [expected_score(p) for p in self.prompts]
        self.stub = subprocess.Popen([sys.executable, str(Path(__file__).with_name("judge_stub.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.url = f"http://127.0.0.1:{int(self.stub.stdout.readline())}/"
        self.log = {}

    def config(self):
        return judge.JudgeConfig(endpoint=self.url, model="stub", cache_path=str(self.cache),
                                 concurrency=2, max_retries=self.MAX_RETRIES, timeout=30.0)

    def calibration(self):
        return calibrate.loopback(self.url), calibrate.ref_s(*self.CALIBRATION)

    def reset(self):
        if self.cache.exists():
            self.cache.unlink()

    def op(self):
        texts = [r.text for r in self.loaded[0]]
        out = {}
        for phase in ("cold", "warm"):
            wall, start = time.time(), time.perf_counter()
            batch = judge.annotate_quality(texts, self.config(), transport=self.transport)
            out[phase] = (batch, wall, time.perf_counter() - start)
        return out

    def stub_log(self) -> dict:
        with urllib.request.urlopen(self.url + "log", timeout=30) as resp:
            return json.loads(resp.read())

    def check(self, result):
        problems = []
        self.log = self.stub_log()
        for phase, (batch, _, _) in result.items():
            if len(batch.entries) != len(self.prompts):
                return [f"{phase}: {len(batch.entries)} entries for {len(self.prompts)} texts"]
            for i, (entry, want) in enumerate(zip(batch.entries, self.expected)):
                if want is None:
                    if not isinstance(entry, judge.AnnotationFailure):
                        problems.append(f"{phase} text {i}: scripted failure was annotated")
                elif not isinstance(entry, judge.Annotation) or entry.score != want:
                    problems.append(f"{phase} text {i}: {entry!r} != stub score {want}")
        if self.hits(result, "warm") != sum(want is not None for want in self.expected):
            problems.append("warm pass: a cached text was not served from the cache")
        # one request per text on the cold pass, and on the warm pass only the
        # scripted failures again, each with every retry
        attempts = self.MAX_RETRIES + 1
        want_log = {prompt_hash(p): (2 * attempts if want is None else 1)
                    for p, want in zip(self.prompts, self.expected)}
        if self.log != want_log:
            extra = sum(self.log.values()) - sum(want_log.values())
            problems.append(f"stub saw {sum(self.log.values())} requests, want "
                            f"{sum(want_log.values())} ({extra:+d})")
        return problems[:20]

    @staticmethod
    def hits(result, phase) -> int:
        """Annotations served from the cache: written before the pass began."""
        batch, started, _ = result[phase]
        return sum(e.timestamp < started for e in batch.annotations)

    def layer_counts(self, result):
        n = len(self.prompts)
        requests = sum(self.log.values())
        hits = {phase: self.hits(result, phase) for phase in result}
        first_attempts = sum(n - hits[phase] for phase in result)
        fresh = sum(len(batch.annotations) - hits[phase]
                    for phase, (batch, _, _) in result.items())
        return {"judge.retries": requests - first_attempts,
                "judge.cold.cache_hit_ratio": hits["cold"] / n,
                "judge.warm.cache_hit_ratio": hits["warm"] / n,
                "judge.cold.wall_s": result["cold"][2],
                "judge.warm.wall_s": result["warm"][2],
                "judge.useful_ratio": fresh / requests if requests else 0.0,
                "judge.cache_bytes": os.path.getsize(self.cache),
                "failed_frac": len(result["cold"][0].failures) / n}

    def close(self):
        stub = getattr(self, "stub", None)
        if stub is not None:
            stub.stdin.close()
            try:
                stub.wait(timeout=15)
            except subprocess.TimeoutExpired:
                stub.kill()
                stub.wait()
            stub.stdout.close()


WORKLOADS = {w.name: w for w in (Chain, Suite, Sweep, Annotate)}
