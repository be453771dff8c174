import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from collapse_lab.chain import TextRecord
from collapse_lab.errors import InvalidConfigError, InvalidInputError
from collapse_lab.experiments import (
    ExperimentSpec,
    ResultStore,
    emit_plot_data,
    load_spec,
    run_experiment,
    spec_hash,
)
from collapse_lab.io import (
    read_embeddings,
    read_records_jsonl,
    write_embeddings_emb1,
    write_records_jsonl,
)


def write_corpus(path, n=400, lean_mix=False):
    records = []
    for i in range(n):
        ann = None
        if lean_mix:
            lean = [10, 90, 50, -1][i % 4]
            ann = {"lean": lean}
        records.append(TextRecord(text=f"synthetic corpus item {i} built for tests",
                                  annotations=ann))
    write_records_jsonl(records, path)
    return path


def write_word_corpus(path, n):
    rng = np.random.default_rng(1)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    write_records_jsonl([TextRecord(text=" ".join(rng.choice(words, size=8)) + f" item {i}")
                         for i in range(n)], path)
    return path


def write_cluster_grid(tmp_path):
    """A 300-text word corpus split into two 150-text clusters."""
    corpus_path = write_word_corpus(str(tmp_path / "corpus.jsonl"), n=300)
    manifest_path = str(tmp_path / "clusters.jsonl")
    with open(manifest_path, "w") as fh:
        for cid in range(2):
            idx = list(range(cid * 150, (cid + 1) * 150))
            fh.write(json.dumps({"cluster_id": cid, "method": "kmeans",
                                 "params": {}, "record_indices": idx}) + "\n")
    return corpus_path, manifest_path


class TestSpecLoading:
    def test_hash_invariant_to_key_order(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"kind": "toy", "ratios": [0.5], "seeds": [1, 2]}))
        b.write_text(json.dumps({"seeds": [1, 2], "kind": "toy", "ratios": [0.5]}))
        assert spec_hash(load_spec(a)) == spec_hash(load_spec(b))

    def test_include_mechanism(self, tmp_path):
        shared = tmp_path / "shared.json"
        shared.write_text(json.dumps({"seeds": [7], "ratios": [0.25]}))
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"include": ["shared.json"], "kind": "toy",
                                         "ratios": [0.5]}))
        spec = load_spec(spec_file)
        assert spec.seeds == [7]
        assert spec.ratios == [0.5]  # body wins over include

    def test_unknown_kind_rejected(self, tmp_path):
        f = tmp_path / "bad.json"
        for kind in ("nope", "mixed-domain"):
            f.write_text(json.dumps({"kind": kind, "out_dir": str(tmp_path / "run")}))
            with pytest.raises(InvalidConfigError, match=f"unknown experiment kind '{kind}'"):
                run_experiment(load_spec(f))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("body, message", [
        ({"ratio": [0.5]}, "unknown config keys: ratio$"),
        ({"params": {"toy": {"runs": 4}, "tyo": {"runs": 4}}}, "unknown params sections: tyo$"),
    ])
    def test_unknown_spec_keys_rejected(self, tmp_path, body, message):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"kind": "toy", "out_dir": str(tmp_path / "run"), **body}))
        with pytest.raises(InvalidConfigError, match=message):
            run_experiment(load_spec(f))
        assert not (tmp_path / "run").exists()

    def test_missing_reference_rejected(self, tmp_path):
        spec = ExperimentSpec(kind="chain", corpus_path=str(tmp_path / "absent.jsonl"))
        with pytest.raises(InvalidConfigError):
            spec.validate()

    @pytest.mark.parametrize("kind, section, unknown", [
        ("toy", {"runs": 4, "stpes": 3}, "stpes"),
        ("chain", {"generations": 2, "eval_sampel": 10, "seed": 3}, "eval_sampel, seed"),
        ("lean", {"mixture_sise": 40}, "mixture_sise"),
    ])
    def test_unknown_param_keys_rejected(self, tmp_path, kind, section, unknown):
        corpus = write_corpus(str(tmp_path / "corpus.jsonl"), n=40, lean_mix=True)
        spec = ExperimentSpec(kind=kind, ratios=[0.5], seeds=[0], corpus_path=corpus,
                              out_dir=str(tmp_path / "run"), params={kind: section})
        with pytest.raises(InvalidConfigError, match=f"params.{kind} keys: {unknown}$"):
            run_experiment(spec)
        assert not (tmp_path / "run").exists()


class TestToyExperiment:
    def test_grid_shape_and_determinism(self, tmp_path):
        spec = ExperimentSpec(kind="toy", ratios=[0.0, 0.5], seeds=[0],
                              out_dir=str(tmp_path / "run1"),
                              params={"toy": {"support_size": 80, "steps": 4, "runs": 6}})
        store = run_experiment(spec)
        trace = (tmp_path / "run1" / "toy_trace.csv").read_text()
        assert len(trace.strip().splitlines()) == 1 + 2 * 6 * 4

        spec2 = ExperimentSpec(kind="toy", ratios=[0.0, 0.5], seeds=[0],
                               out_dir=str(tmp_path / "run2"),
                               params={"toy": {"support_size": 80, "steps": 4, "runs": 6}})
        run_experiment(spec2)
        assert (tmp_path / "run1" / "toy_trace.csv").read_bytes() == \
               (tmp_path / "run2" / "toy_trace.csv").read_bytes()
        assert (tmp_path / "run1" / "toy_aggregate.csv").read_bytes() == \
               (tmp_path / "run2" / "toy_aggregate.csv").read_bytes()

    # sha256 of the CSVs the sample-based toy chain wrote; a change to the toy
    # model's random stream or to its CSV rows shows up here
    RECORDED = {
        "plain": ({},
                  "df1b687d362a67fbe690682db6af4afc419e20a162eb089ce2ad45fb1f6c1520",
                  "766667ce25954782d101f10b27a46c791bb6cb41858d79491aad20275221b96b"),
        "generation_prior": ({"generation_prior": True},
                             "893631c8f8abbb678b37545bcd2bd877b63da6777366b449a8fb479f9fbd0701",
                             "201e6035b8d130facd7de52eb0db59551d886b2d56c67295382d464bcf110555"),
        "no_overlap": ({"overlap": False},
                       "b53f499f1d57cffe2035f3235fc422a3f4075e407153464b7182aeccd996dcec",
                       "cb97eba3d75a70de11584440f895a997b4766e488b3fcb825e96f639bc88a107"),
    }

    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_csv_bytes_match_recorded_digests(self, tmp_path, name):
        extra, trace_sha, aggregate_sha = self.RECORDED[name]
        spec = ExperimentSpec(kind="toy", seeds=[0], out_dir=str(tmp_path),
                              params={"toy": {"runs": 3, "steps": 5, "support_size": 200,
                                              **extra}})
        assert len(spec.ratios) == 7
        run_experiment(spec)
        digests = [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                   for f in ("toy_trace.csv", "toy_aggregate.csv")]
        assert digests == [trace_sha, aggregate_sha]


class TestChainExperiment:
    @staticmethod
    def _spec(tmp_path, out="chain1", seeds=(0, 1), corpus_n=800):
        corpus = write_corpus(str(tmp_path / "corpus.jsonl"), n=corpus_n)
        return ExperimentSpec(
            kind="chain", ratios=[0.5], seeds=list(seeds),
            out_dir=str(tmp_path / out), corpus_path=corpus,
            params={"chain": {"generations": 3, "initial_human": 60,
                              "per_gen_total": 30, "eval_sample": 10,
                              "eval_metrics": ["distinct_count", "avg_text_length"]}})

    def test_summary_and_relative(self, tmp_path):
        store = run_experiment(self._spec(tmp_path))
        summary = (tmp_path / "chain1" / "summary.csv").read_text().strip().splitlines()
        # 2 seeds x 3 generations x 2 metrics
        assert len(summary) == 1 + 2 * 3 * 2
        manifest = json.loads((tmp_path / "chain1" / "manifest.json").read_text())
        assert manifest["failures"] == []
        assert "summary.csv" in manifest["artifacts"]

    def test_trace_jsonl_one_record_per_generation_per_domain(self, tmp_path):
        run_experiment(self._spec(tmp_path, out="tr"))
        lines = (tmp_path / "tr" / "trace.jsonl").read_text().strip().splitlines()
        assert len(lines) == 2 * 3  # seeds x generations (single domain)
        row = json.loads(lines[0])
        assert {"seed", "ratio", "generation", "domain", "metrics",
                "sample_size", "kind"} <= set(row)

    def test_rerun_byte_identical(self, tmp_path):
        run_experiment(self._spec(tmp_path, out="c1"))
        run_experiment(self._spec(tmp_path, out="c2"))
        assert (tmp_path / "c1" / "summary.csv").read_bytes() == \
               (tmp_path / "c2" / "summary.csv").read_bytes()
        assert (tmp_path / "c1" / "relative.csv").read_bytes() == \
               (tmp_path / "c2" / "relative.csv").read_bytes()

    def test_cell_failures_isolated(self, tmp_path):
        # corpus too small for the grid: cells fail, run completes
        spec = self._spec(tmp_path, out="c3", seeds=(0, 1, 2), corpus_n=100)
        store = run_experiment(spec)
        manifest = json.loads((tmp_path / "c3" / "manifest.json").read_text())
        assert len(manifest["failures"]) == 3

    def test_emit_plot_data(self, tmp_path):
        spec = self._spec(tmp_path, out="c4")
        store = run_experiment(spec)
        path = emit_plot_data(store, "evolution")
        header = Path(path).read_text().splitlines()[0]
        assert header == "generation,ratio,seed,metric,value"
        path = emit_plot_data(store, "interaction-relative")
        assert Path(path).read_text().splitlines()[0] == "ratio,seed,metric,value"

    def test_emit_missing_artifact(self, tmp_path):
        store = ResultStore(str(tmp_path / "empty"))
        with pytest.raises(InvalidInputError):
            emit_plot_data(store, "evolution")


class TestLeanExperiment:
    def test_lean_grid(self, tmp_path):
        corpus = write_corpus(str(tmp_path / "lean.jsonl"), n=400, lean_mix=True)
        spec = ExperimentSpec(kind="lean", seeds=[0, 1], out_dir=str(tmp_path / "lean_run"),
                              corpus_path=corpus,
                              params={"lean": {"mixture_size": 40}})
        run_experiment(spec)
        rows = (tmp_path / "lean_run" / "lean_mixtures.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 5 * 2  # fractions x seeds
        store = ResultStore(str(tmp_path / "lean_run"))
        path = emit_plot_data(store, "lean-stacked")
        assert "bin_0" in Path(path).read_text().splitlines()[0]


class TestEmbeddingIo:
    def test_emb1_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(17, 5)).astype(np.float32)
        path = tmp_path / "emb.bin"
        write_embeddings_emb1(matrix, path)
        back = read_embeddings(path)
        np.testing.assert_allclose(back, matrix, rtol=1e-6)

    def test_csv_with_id_column(self, tmp_path):
        path = tmp_path / "emb.csv"
        path.write_text("id,x,y\n0,1.5,2.5\n1,3.0,4.0\n")
        emb = read_embeddings(path)
        np.testing.assert_allclose(emb, [[1.5, 2.5], [3.0, 4.0]])

    def test_records_round_trip(self, tmp_path):
        records = [
            TextRecord(text="hello", domain="d", annotations={"quality": 50}),
            TextRecord(text="world", source="synthetic", generation=2),
        ]
        path = tmp_path / "r.jsonl"
        write_records_jsonl(records, path)
        back = read_records_jsonl(path)
        assert back[0].text == "hello"
        assert back[0].annotations == {"quality": 50}
        assert back[1].source == "synthetic"
        assert back[1].generation == 2


class TestClusterRegressionExperiment:
    def test_observations_csv(self, tmp_path):
        corpus_path, manifest_path = write_cluster_grid(tmp_path)
        spec = ExperimentSpec(
            kind="cluster-regression", ratios=[0.5], seeds=[0],
            out_dir=str(tmp_path / "cr"), corpus_path=corpus_path,
            cluster_manifest=manifest_path,
            params={"chain": {"generations": 2, "initial_human": 40,
                              "per_gen_total": 20, "eval_sample": 5,
                              "eval_metrics": ["distinct_count", "word_entropy"]}})
        run_experiment(spec)
        rows = (tmp_path / "cr" / "observations.csv").read_text().strip().splitlines()
        assert rows[0].startswith("cluster_id,ratio,seed,lexical_diversity")
        assert len(rows) == 1 + 2  # clusters x ratios x seeds


class TestGridArtifactBytes:
    """Neither spec sets eval_metrics, so these digests pin the grid's default
    evaluation metrics and every other ChainConfig default a grid cell takes."""

    CHAIN = {"summary.csv": "0c3f440c9a0edeb4ce7455de3c2a9930143ed4d010a0990fad3488b44ab804de",
             "relative.csv": "ff2c67b853dd40070bcc9304ebaf5086b0e878360f1cd759042dce7b5cf41378",
             "trace.jsonl": "8e93e5a362d0456fda8f246a95e203ac845b33684377d1e41cd8951456f70e24"}
    OBSERVATIONS = "312b85d86d59819274841c0c4f3693b8bcb07068a503a80768376d1e372f6557"

    def test_chain_grid(self, tmp_path):
        spec = ExperimentSpec(
            kind="chain", ratios=[0.0, 0.5, 1.0], seeds=[0, 1], out_dir=str(tmp_path / "run"),
            corpus_path=write_word_corpus(str(tmp_path / "corpus.jsonl"), n=300),
            params={"chain": {"generations": 3, "initial_human": 60,
                              "per_gen_total": 30, "eval_sample": 10}})
        run_experiment(spec)
        assert {name: hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
                for name in self.CHAIN} == self.CHAIN

    def test_cluster_regression_grid(self, tmp_path):
        corpus_path, manifest_path = write_cluster_grid(tmp_path)
        spec = ExperimentSpec(
            kind="cluster-regression", ratios=[0.25, 0.5], seeds=[0, 1],
            out_dir=str(tmp_path / "run"), corpus_path=corpus_path,
            cluster_manifest=manifest_path,
            params={"chain": {"generations": 2, "initial_human": 40,
                              "per_gen_total": 20, "eval_sample": 5}})
        run_experiment(spec)
        observations = (tmp_path / "run" / "observations.csv").read_bytes()
        assert hashlib.sha256(observations).hexdigest() == self.OBSERVATIONS
