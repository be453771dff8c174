import hashlib
import json
import multiprocessing
import os
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import only_pool_workers

from collapse_lab import _pool, experiments, io, metrics, toy
from collapse_lab.chain import EVAL_METRICS, ChainConfig
from collapse_lab.errors import InvalidConfigError, InvalidInputError
from collapse_lab.cli import main
from collapse_lab.experiments import (
    FIGURE_KINDS,
    ExperimentSpec,
    ResultStore,
    emit_plot_data,
    load_spec,
    run_experiment,
    spec_hash,
)
from collapse_lab.io import (
    TextRecord,
    csv_text,
    read_csv,
    read_embeddings,
    read_records_jsonl,
    write_csv,
    write_embeddings_emb1,
    write_jsonl,
    write_records_jsonl,
)


# the params section each kind reads
_SECTIONS = {"toy": "toy", "chain": "chain", "cluster-regression": "chain", "lean": "lean"}


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

    def test_shared_include_is_not_a_cycle(self, tmp_path):
        """Two includes that share a base, and an include listed twice, load."""
        for name, body in [("shared", {"kind": "toy", "seeds": [7]}),
                           ("a", {"include": ["shared.json"], "ratios": [0.25]}),
                           ("b", {"include": ["shared.json"], "ratios": [0.5]}),
                           ("diamond", {"include": ["a.json", "b.json"]}),
                           ("twice", {"include": ["a.json", "a.json"]})]:
            (tmp_path / f"{name}.json").write_text(json.dumps(body))
        for name, ratios in [("diamond", [0.5]), ("twice", [0.25])]:
            spec = load_spec(tmp_path / f"{name}.json")
            assert (spec.kind, spec.seeds, spec.ratios) == ("toy", [7], ratios)

    def test_include_cycle_rejected(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps({"include": ["b.json"], "kind": "toy"}))
        b.write_text(json.dumps({"include": ["a.json"]}))
        with pytest.raises(InvalidConfigError, match=f"^circular include at {tmp_path}/a.json$"):
            load_spec(a)

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
        ({"include": "shared.json"}, "include must be a list of paths$"),
        ('{"kind": "toy", "seeds": [0]', "config is not valid JSON"),
        ({"include": ["nope.json"]}, r"nope\.json: cannot read config"),
    ])
    def test_unknown_spec_keys_rejected(self, tmp_path, body, message):
        """A dict body is merged into a toy config; a string is the whole file."""
        (tmp_path / "shared.json").write_text(json.dumps({"seeds": [7]}))
        f = tmp_path / "bad.json"
        f.write_text(body if isinstance(body, str) else
                     json.dumps({"kind": "toy", "out_dir": str(tmp_path / "run"), **body}))
        with pytest.raises(InvalidConfigError, match=message):
            run_experiment(load_spec(f))
        assert not (tmp_path / "run").exists()

    def test_missing_reference_rejected(self, tmp_path):
        corpus = write_corpus(str(tmp_path / "corpus.jsonl"), n=10)
        for kind, paths, message in [
            ("chain", {"corpus_path": str(tmp_path / "absent.jsonl")},
             "referenced file does not exist"),
            ("chain", {}, "chain experiments need corpus_path$"),
            ("lean", {}, "lean experiments need corpus_path$"),
            ("cluster-regression", {}, "need corpus_path and cluster_manifest$"),
            ("cluster-regression", {"corpus_path": corpus}, "need cluster_manifest$"),
        ]:
            with pytest.raises(InvalidConfigError, match=message):
                run_experiment(ExperimentSpec(kind=kind, out_dir=str(tmp_path / "run"), **paths))
            assert not (tmp_path / "run").exists()

    def test_cluster_regression_rejects_ratio_zero(self, tmp_path):
        """A ratio-0 chain evaluates no synthetic generation, so every
        cluster-regression cell at ratio 0 would fail: the spec is rejected
        before any output. A chain spec keeps ratio 0."""
        corpus = write_corpus(str(tmp_path / "corpus.jsonl"), n=40)
        manifest = tmp_path / "clusters.jsonl"
        manifest.write_text(json.dumps({"cluster_id": 0, "record_indices": [0, 1]}) + "\n")
        with pytest.raises(InvalidConfigError, match="ratio-0 chain evaluates no synthetic"):
            run_experiment(ExperimentSpec(kind="cluster-regression", ratios=[0.0, 0.5], seeds=[0],
                                          out_dir=str(tmp_path / "run"), corpus_path=corpus,
                                          cluster_manifest=str(manifest)))
        assert not (tmp_path / "run").exists()
        ExperimentSpec(kind="chain", ratios=[0.0, 0.5], seeds=[0], corpus_path=corpus)

    @pytest.mark.parametrize("ratios, chain, message", [
        ([0.5], {"generations": 1},
         "ratio 0.5 gives 1 generation(s) of 2000 synthetic text(s) for 1 "),
        ([1 / 16, 0.5], {"per_gen_total": 12, "eval_sample": 5},
         "ratio 0.0625 gives 20 generation(s) of 0 synthetic text(s) for 1 "),
        ([0.25, 0.5], {"per_gen_total": 4, "domains": ["a", "b"], "eval_sample": 1},
         "ratio 0.25 gives 20 generation(s) of 1 synthetic text(s) for 2 "),
    ])
    def test_cluster_regression_rejects_chain_without_relative_shift(
            self, tmp_path, monkeypatch, ratios, chain, message):
        """A chain of one generation, or one that leaves some domain without
        synthetic text, has no relative shift to observe, so every
        cluster-regression cell would fail: the spec is rejected before any
        cell runs or any output is written. A chain spec keeps it."""
        corpus = write_corpus(str(tmp_path / "corpus.jsonl"), n=40)
        manifest = tmp_path / "clusters.jsonl"
        manifest.write_text(json.dumps({"cluster_id": 0, "record_indices": [0, 1]}) + "\n")
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "kind": "cluster-regression", "ratios": ratios, "seeds": [0],
            "out_dir": str(tmp_path / "run"), "corpus_path": corpus,
            "cluster_manifest": str(manifest), "params": {"chain": chain}}))
        monkeypatch.setattr(_pool, "outcomes", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(InvalidConfigError, match=re.escape(message) + r"domain\(s\): a "
                           "relative shift needs 2 generations and a synthetic text per domain$"):
            run_experiment(load_spec(config))
        assert not (tmp_path / "run").exists()
        ExperimentSpec(kind="chain", ratios=ratios, seeds=[0], corpus_path=corpus,
                       params={"chain": chain})

    def test_cluster_regression_default_ratios_leave_out_zero(self, tmp_path):
        """A cluster-regression spec that leaves ratios unset gets the paper
        grid without 0, from a config file too, and validates."""
        corpus = write_corpus(str(tmp_path / "corpus.jsonl"), n=40)
        manifest = tmp_path / "clusters.jsonl"
        manifest.write_text(json.dumps({"cluster_id": 0, "record_indices": [0, 1]}) + "\n")
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"kind": "cluster-regression", "seeds": [0],
                                      "corpus_path": corpus, "cluster_manifest": str(manifest)}))
        assert load_spec(config).ratios == [1 / 16, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 1.0]

    @pytest.mark.parametrize("kind, ratios, digest", [
        ("toy", None, "53c24fabd7c05325"), ("chain", None, "0cef51b4480d9be3"),
        ("lean", None, "6c2c17dba9700e17"),
        ("cluster-regression", [0.25, 0.5], "ec1de8586f33a108")])
    def test_spec_hash_of_default_and_listed_ratios_kept(self, tmp_path, monkeypatch, kind,
                                                         ratios, digest):
        """The default ratios of every other kind, and ratios a spec lists,
        keep the canonical JSON and spec hash they had when every kind
        defaulted to the full paper grid."""
        monkeypatch.chdir(tmp_path)
        for name in ("c.jsonl", "m.jsonl"):
            (tmp_path / name).touch()
        paths = {"corpus_path": "c.jsonl", "cluster_manifest": "m.jsonl"}
        extra = paths if ratios is None else {"ratios": ratios, "seeds": [0, 1], **paths}
        spec = ExperimentSpec(kind=kind, **extra)
        if ratios is None:  # the default grids' digests were pinned on specs without inputs
            spec.corpus_path = spec.cluster_manifest = None
        assert spec.canonical()["ratios"] == (ratios or [0.0, 0.0625, 0.125, 0.25, 0.5, 0.75, 1.0])
        assert spec_hash(spec) == digest

    def test_failed_read_leaves_no_output(self, tmp_path, capsys):
        """A malformed input line stops a run before anything is on disk, and
        emit from a results directory that does not exist creates none and
        fails in one line."""
        corpus = write_corpus(str(tmp_path / "corpus.jsonl"), n=40, lean_mix=True)
        bad_corpus = tmp_path / "bad_corpus.jsonl"
        bad_corpus.write_text('{"text": "fine"}\n{"text": \n')
        bad_manifest = tmp_path / "bad_clusters.jsonl"
        bad_manifest.write_text('{"cluster_id": 0, "record_indices": [0, 1\n')
        for kind, paths, message in [
            ("chain", {"corpus_path": str(bad_corpus)}, ":2: invalid JSON"),
            ("lean", {"corpus_path": str(bad_corpus)}, ":2: invalid JSON"),
            ("cluster-regression", {"corpus_path": corpus, "cluster_manifest": str(bad_manifest),
                                    "ratios": [0.25, 0.5]}, ":1: invalid JSON"),
        ]:
            spec = ExperimentSpec(kind=kind, out_dir=str(tmp_path / "run"), **paths)
            with pytest.raises(InvalidInputError, match=message):
                run_experiment(spec)
            assert not (tmp_path / "run").exists()
        capsys.readouterr()
        assert main(["emit", "--results", str(tmp_path / "run"), "--figure", "evolution"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("collapse-lab: error: ") and "required file missing" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind, section, unknown", [
        ("toy", {"runs": 4, "stpes": 3}, "stpes"),
        ("chain", {"generations": 2, "eval_sampel": 10, "seed": 3}, "eval_sampel, seed"),
        ("lean", {"mixture_sise": 40}, "mixture_sise"),
        ("chain", {"rotation": "mixed"}, "rotation"),
    ])
    def test_unknown_param_keys_rejected(self, tmp_path, kind, section, unknown):
        corpus = write_corpus(str(tmp_path / "corpus.jsonl"), n=40, lean_mix=True)
        with pytest.raises(InvalidConfigError, match=f"params.{kind} keys: {unknown}$"):
            run_experiment(ExperimentSpec(kind=kind, ratios=[0.5], seeds=[0],
                                          corpus_path=corpus, out_dir=str(tmp_path / "run"),
                                          params={kind: section}))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kinds, message", [
        (["resampeler"], "unknown generator kind 'resampeler'$"),
        (["resampler", "resampler:high"], "'resampler:high': smoothing is not a number$"),
        (["resampler:1.5"], r"smoothing must lie in \[0, 1\]$"),
        ("resampler", "generator_kinds must be a list of kind names$"),
    ])
    def test_unknown_generator_kind_rejected(self, tmp_path, kinds, message):
        """A kind that default_factory does not build stops the spec before
        any cell runs, instead of failing every cell of the grid."""
        corpus = write_corpus(str(tmp_path / "corpus.jsonl"), n=40)
        f = tmp_path / "spec.json"
        f.write_text(json.dumps({"kind": "chain", "ratios": [0.5], "seeds": [0],
                                 "corpus_path": corpus, "out_dir": str(tmp_path / "run"),
                                 "params": {"chain": {"generator_kinds": kinds}}}))
        with pytest.raises(InvalidConfigError, match=message):
            load_spec(f)
        with pytest.raises(InvalidConfigError, match=message):
            run_experiment(ExperimentSpec(kind="chain", ratios=[0.5], seeds=[0],
                                          corpus_path=corpus, out_dir=str(tmp_path / "run"),
                                          params={"chain": {"generator_kinds": kinds}}))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind, key, value, message", [
        ("toy", "runs", "2", 'must be an integer, not "2"'),
        ("toy", "steps", True, "must be an integer, not true"),
        ("toy", "support_size", 60.0, "must be an integer, not 60.0"),
        ("toy", "bias_strength", "4", 'must be a number, not "4"'),
        ("toy", "overlap", 0, "must be true or false, not 0"),
        ("chain", "generations", "2", 'must be an integer, not "2"'),
        ("chain", "per_gen_total", False, "must be an integer, not false"),
        ("chain", "domains", "news", 'must be a list of strings or nulls, not "news"'),
        ("chain", "eval_metrics", [["word_entropy"]],
         'must be a list of strings or nulls, not \\[\\["word_entropy"\\]\\]'),
    ])
    def test_param_of_wrong_type_rejected_before_output(self, tmp_path, kind, key, value,
                                                        message):
        """A toy or chain value of the wrong type (a bool is not a number)
        is a config error, not a TypeError in every cell or in the spec check."""
        corpus = write_corpus(str(tmp_path / "corpus.jsonl"), n=40)
        with pytest.raises(InvalidConfigError, match=f"^params.{kind}.{key} {message}$"):
            run_experiment(ExperimentSpec(kind=kind, ratios=[0.5], seeds=[0],
                                          corpus_path=corpus, out_dir=str(tmp_path / "run"),
                                          params={kind: {key: value}}))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section, message", [
        ({"steps": 0}, "steps and runs must be >= 1"),
        ({"overlap": False, "bias_period": 1}, "empty support"),
        ({"support_size": 1}, "support_size must be >= bias_period"),
        ({"seed": -1}, "seed must be >= 0"),
    ])
    def test_bad_toy_value_rejected_before_output(self, tmp_path, section, message):
        """A toy value that would fail every cell is a config error, not a
        grid of recorded cell failures."""
        with pytest.raises(InvalidConfigError, match=message):
            run_experiment(ExperimentSpec(kind="toy", seeds=[0], out_dir=str(tmp_path / "run"),
                                          params={"toy": section}))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_bias_strength_rejected_before_output(self, tmp_path, literal):
        """JSON's NaN and Infinity parse as floats; either would fail every
        toy cell with a NaN distribution."""
        f = tmp_path / "spec.json"
        f.write_text('{"kind": "toy", "seeds": [0], "out_dir": %s, '
                     '"params": {"toy": {"bias_strength": %s}}}'
                     % (json.dumps(str(tmp_path / "run")), literal))
        with pytest.raises(InvalidConfigError, match="bias_strength must be finite and > 0"):
            load_spec(f)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind, section, message", [
        ("chain", {"generations": 0}, "counts must be positive"),
        ("chain", {"eval_sample": 0}, "eval_sample must be >= 1"),
        ("chain", {"eval_sample": -3}, "eval_sample must be >= 1"),
        ("chain", {"eval_sample": 6}, r"eval_sample \(6\) exceeds .* synthetic count \(5\)"),
        ("chain", {"domains": ["a", "b", "c"]}, "divisible by the domain count"),
        ("chain", {"domains": ["a", "a"]}, "domain tags must be distinct"),
        ("chain", {"eval_metrics": ["self_blue"]}, "eval_metrics must be drawn from"),
        ("cluster-regression", {"per_gen_total": 0}, "counts must be positive"),
        ("lean", {"left_fractions": [0.3]}, "left_fractions must be a list of values from"),
        ("lean", {"left_fractions": 0.5}, "left_fractions must be a list of values from"),
        ("lean", {"left_fractions": []}, "left_fractions must not be empty$"),
        ("lean", {"left_fractions": [0.5, 0.0, 0.5]},
         r"left_fractions must be distinct, got \[0.5, 0.0, 0.5\]$"),
        ("lean", {"mixture_size": 0}, "mixture_size must be an integer >= 1$"),
        ("lean", {"mixture_size": 8.0}, "mixture_size must be an integer >= 1$"),
    ])
    def test_bad_chain_or_lean_value_rejected_before_output(self, tmp_path, kind, section,
                                                            message):
        """A chain or lean value that would fail every cell is a config error,
        as a bad toy value is."""
        corpus = write_corpus(str(tmp_path / "corpus.jsonl"), n=40, lean_mix=True)
        manifest = tmp_path / "clusters.jsonl"
        manifest.write_text(json.dumps({"cluster_id": 0, "record_indices": [0, 1]}) + "\n")
        base = {"chain": {"generations": 2, "initial_human": 20, "per_gen_total": 20,
                          "eval_sample": 5},
                "lean": {"mixture_size": 8}}[_SECTIONS[kind]]
        with pytest.raises(InvalidConfigError, match=message):
            run_experiment(ExperimentSpec(kind=kind, ratios=[0.25, 0.5], seeds=[0],
                                          out_dir=str(tmp_path / "run"), corpus_path=corpus,
                                          cluster_manifest=str(manifest),
                                          params={_SECTIONS[kind]: {**base, **section}}))
        assert not (tmp_path / "run").exists()

    def test_repeated_cluster_id_rejected_before_any_cell(self, tmp_path, monkeypatch):
        """Each cell of a repeated id would read the last entry's records:
        the manifest is rejected, naming the id, before any cell runs."""
        corpus = write_corpus(str(tmp_path / "corpus.jsonl"), n=40)
        manifest = tmp_path / "clusters.jsonl"
        manifest.write_text("".join(json.dumps({"cluster_id": cid, "record_indices": idx}) + "\n"
                                    for cid, idx in [(0, list(range(0, 20))),
                                                     (1, list(range(20, 30))),
                                                     (0, list(range(30, 40)))]))
        spec = ExperimentSpec(kind="cluster-regression", ratios=[0.5], seeds=[0],
                              out_dir=str(tmp_path / "run"), corpus_path=corpus,
                              cluster_manifest=str(manifest),
                              params={"chain": {"generations": 2, "initial_human": 10,
                                                "per_gen_total": 10, "eval_sample": 5}})
        monkeypatch.setattr(_pool, "outcomes", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(InvalidInputError,
                           match=f"^{re.escape(str(manifest))}:3: cluster_id 0 appears more "
                                 "than once$"):
            run_experiment(spec)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("config", [toy.ToyConfig, ChainConfig])
    def test_negative_seed_rejected_by_a_direct_config(self, config):
        """numpy refuses a negative seed in every cell; the config refuses it
        first, for callers that build a config without a spec."""
        with pytest.raises(InvalidConfigError, match="^seed must be >= 0$"):
            config(ratio=0.5, seed=-1)

    def test_lean_partition_too_small_fails_per_cell(self, tmp_path):
        """A mixture larger than a partition depends on the data, so it fails
        only the cells that need more of that partition than it holds."""
        corpus = write_corpus(str(tmp_path / "corpus.jsonl"), n=40, lean_mix=True)
        store = run_experiment(ExperimentSpec(
            kind="lean", seeds=[0], out_dir=str(tmp_path / "run"), corpus_path=corpus,
            params={"lean": {"mixture_size": 15}}))
        failures = json.loads(Path(store.path("manifest.json")).read_text())["failures"]
        # 10 texts per wing: every fraction but 0.5 needs more than 10 of one
        assert [f["cell"]["left_fraction"] for f in failures] == [0.0, 0.25, 0.75, 1.0]
        assert all("partition too small" in f["error"] for f in failures)

    @pytest.mark.parametrize("kind, params", [
        ("chain", {"toy": {"runs": 0}}),
        ("cluster-regression", {"lean": {"mixture_size": 8}}),
        ("lean", {"chain": {"generations": 2}, "toy": {"runs": 2}}),
        ("toy", {"toy": {"runs": 2}, "chain": {"generations": 2}}),
    ])
    def test_params_section_the_kind_does_not_read_rejected(self, tmp_path, kind, params):
        corpus = write_corpus(str(tmp_path / "corpus.jsonl"), n=40, lean_mix=True)
        f = tmp_path / "spec.json"
        f.write_text(json.dumps({"kind": kind, "ratios": [0.5], "seeds": [0],
                                 "corpus_path": corpus, "cluster_manifest": corpus,
                                 "out_dir": str(tmp_path / "run"), "params": params}))
        section = _SECTIONS[kind]
        unread = ", ".join(name for name in sorted(params) if name != section)
        with pytest.raises(InvalidConfigError, match=f"{kind} experiments read only "
                                                     f"params.{section}; unknown params "
                                                     f"sections: {unread}$"):
            run_experiment(load_spec(f))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("grid, message", [
        ({"ratios": "0.5"}, r"ratios must be a list of numbers in \[0, 1\]$"),
        ({"ratios": [0.5, True]}, r"ratios must be a list of numbers in \[0, 1\]$"),
        ({"ratios": [0.5, None]}, r"ratios must be a list of numbers in \[0, 1\]$"),
        ({"ratios": [0.5, 1.5]}, r"ratios must be a list of numbers in \[0, 1\]$"),
        ({"ratios": []}, "^ratios must not be empty$"),
        ({"ratios": [0.5, 0.5]}, r"^ratios must be distinct, got \[0.5, 0.5\]$"),
        ({"ratios": [1, 0.5, 1.0]}, r"^ratios must be distinct, got \[1, 0.5, 1.0\]$"),
        ({"seeds": [1, 1]}, r"^seeds must be distinct, got \[1, 1\]$"),
        ({"seeds": ["x"]}, "seeds must be a non-empty list of non-negative integers$"),
        ({"seeds": [0, 1.5]}, "seeds must be a non-empty list of non-negative integers$"),
        ({"seeds": [-1]}, "seeds must be a non-empty list of non-negative integers$"),
        ({"seeds": [False]}, "seeds must be a non-empty list of non-negative integers$"),
        ({"seeds": 3}, "seeds must be a non-empty list of non-negative integers$"),
        ({"out_dir": 7}, "out_dir must be a path, not 7$"),
        ({"corpus_path": 2}, "corpus_path must be a path or null, not 2$"),
        ({"cluster_manifest": ["m.jsonl"]},
         r"cluster_manifest must be a path or null, not \['m.jsonl'\]$"),
    ])
    @pytest.mark.parametrize("kind", ["toy", "chain", "cluster-regression"])
    def test_malformed_grid_values_rejected(self, tmp_path, kind, grid, message):
        corpus = write_corpus(str(tmp_path / "corpus.jsonl"), n=40)
        f = tmp_path / "spec.json"
        f.write_text(json.dumps({"kind": kind, "ratios": [0.5], "seeds": [0],
                                 "corpus_path": corpus, "cluster_manifest": corpus,
                                 "out_dir": str(tmp_path / "run"), **grid}))
        with pytest.raises(InvalidConfigError, match=message):
            run_experiment(load_spec(f))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("out_dir", ["afile/run", "afile/run/deeper", "{tmp}/afile/run"])
    def test_out_dir_below_a_file_rejected(self, tmp_path, monkeypatch, out_dir):
        """A file on the way to out_dir would fail the first write, after the
        whole grid ran: the spec names it before any cell runs."""
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(_pool, "outcomes", lambda *args: pytest.fail("a cell ran"))
        (tmp_path / "afile").write_text("a file\n")
        f = tmp_path / "spec.json"
        f.write_text(json.dumps({"kind": "toy", "ratios": [0.5], "seeds": [0],
                                 "out_dir": out_dir.format(tmp=tmp_path)}))
        with pytest.raises(InvalidConfigError,
                           match=f"^out_dir lies below a file: {re.escape(str(tmp_path))}/afile$"):
            run_experiment(load_spec(f))
        assert (tmp_path / "afile").read_text() == "a file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "spec.json"]


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
    # model's random stream or to its CSV rows shows up here. "benchmark_size"
    # is the default support of 1000 over 20 steps, which perfbench's sweep runs
    RECORDED = {
        "benchmark_size": ({"runs": 4, "steps": 20, "support_size": 1000},
                           "0ef2ee3271c66ce06acd38aecea765f577294267262bbbd7918409acf0f961ab",
                           "eb1d70ad46052444c9659008df10fff97904791f3598a9c52866dbde3e3497ba"),
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


    def test_failing_mixture_cells_isolated(self, tmp_path):
        """The right wing holds 10 records; every mixture that needs more of
        them fails, and the other cells are still written."""
        records = [TextRecord(text=f"item {i}", annotations={"lean": [10, 10, 10, 90][i % 4]})
                   for i in range(40)]
        write_records_jsonl(records, tmp_path / "lean.jsonl")
        spec = ExperimentSpec(kind="lean", seeds=[0, 1, 2], out_dir=str(tmp_path / "run"),
                              corpus_path=str(tmp_path / "lean.jsonl"),
                              params={"lean": {"mixture_size": 16}})
        run_experiment(spec)
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        failures = manifest["failures"]
        assert failures and all(f["error"].startswith("InvalidInputError: right partition "
                                                      "too small") for f in failures)
        assert all(f["cell"]["left_fraction"] < 1.0 for f in failures)
        rows = (tmp_path / "run" / "lean_mixtures.csv").read_text().strip().splitlines()
        assert len(rows) - 1 + len(failures) == 5 * 3
        assert any(row.startswith("1.0,") for row in rows)

    def test_out_of_range_lean_rejected_before_any_cell(self, tmp_path, monkeypatch):
        """A lean of 150 would fail, in lean_bins, only the cells whose
        mixtures draw it: the corpus reader rejects it, naming its line."""
        records = [TextRecord(text=f"item {i}", annotations={"lean": [10, 90][i % 2]})
                   for i in range(40)]
        records[1] = TextRecord(text="item 1", annotations={"lean": 150})
        write_records_jsonl(records, tmp_path / "lean.jsonl")
        monkeypatch.setattr(_pool, "outcomes", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(tmp_path))}/lean.jsonl:2: "
                                                    "lean score out of range: 150$"):
            run_experiment(ExperimentSpec(kind="lean", seeds=[0], out_dir=str(tmp_path / "run"),
                                          corpus_path=str(tmp_path / "lean.jsonl"),
                                          params={"lean": {"mixture_size": 8}}))
        assert not (tmp_path / "run").exists()


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

    def test_csv_header_after_blank_lines(self, tmp_path):
        """The first non-blank row is the header line, wherever it starts."""
        path = tmp_path / "emb.csv"
        path.write_text("\n\nid,x,y\n0,1.5,2.5\n\n1,3.0,4.0\n")
        np.testing.assert_array_equal(read_embeddings(path), [[1.5, 2.5], [3.0, 4.0]])

    def test_csv_numeric_header_with_an_empty_id_cell(self, tmp_path):
        """pandas' default ``DataFrame.to_csv()`` header (an empty id cell,
        then the column numbers) is a header; a first row with an id is data."""
        path = tmp_path / "emb.csv"
        path.write_text(",0,1\n0,1.5,2.5\n1,3.0,4.0\n")
        np.testing.assert_array_equal(read_embeddings(path), [[1.5, 2.5], [3.0, 4.0]])
        path.write_text("0,0.5,0.25\n1,3.0,4.0\n")
        np.testing.assert_array_equal(read_embeddings(path), [[0.5, 0.25], [3.0, 4.0]])

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


class TestWriteCsv:
    def test_numpy_floats_and_plain_cells(self, tmp_path):
        """numpy floats are written in their shortest round-trip form, as
        Python floats are; None is blank, and a comma is quoted."""
        path = tmp_path / "t.csv"
        write_csv(path, ["f64", "f32", "float", "int", "bool", "none", "text"],
                  [csv_text([[np.float64(0.1), np.float32(0.25), 1 / 3, 7, True, None, "a,b"],
                             [np.float64(1e16), np.float32(0.1), 1e-20, -2, False, "", "c"]])])
        assert path.read_bytes() == (b"f64,f32,float,int,bool,none,text\r\n"
                                     b'0.1,0.25,0.3333333333333333,7,True,,"a,b"\r\n'
                                     b"1e+16,0.1,1e-20,-2,False,,c\r\n")

    def test_csv_text_is_what_write_csv_writes_after_its_header(self, tmp_path):
        """Rows rendered a block at a time (as a toy cell renders its rows in
        its worker) are the bytes of the rows rendered at once, and write_csv
        writes them after its header."""
        rows = [[0, 0.1, -0.0, 1e-05, 1e16, float("nan"), float("inf"), -7],
                [np.float64(0.1), np.float64(-0.0), None, "a,b", 'say "hi"', "cr\rlf\n", "",
                 np.float64(1e-05)]]
        path = tmp_path / "t.csv"
        write_csv(path, list("abcdefgh"), [csv_text(rows[:1]), csv_text(rows[1:])])
        header = b"a,b,c,d,e,f,g,h\r\n"
        body = (b"0,0.1,-0.0,1e-05,1e+16,nan,inf,-7\r\n"
                b'0.1,-0.0,,"a,b","say ""hi""","cr\rlf\n",,1e-05\r\n')
        assert path.read_bytes() == header + body
        assert csv_text(rows).encode() == body
        assert csv_text([]) == ""


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

    def test_malformed_manifest_line_named(self, tmp_path):
        corpus_path, manifest_path = write_cluster_grid(tmp_path)
        with open(manifest_path, "a") as fh:
            fh.write('{"cluster_id": 2, "record_indices": [0, 1\n')
        spec = ExperimentSpec(kind="cluster-regression", ratios=[0.5], seeds=[0],
                              out_dir=str(tmp_path / "cr"), corpus_path=corpus_path,
                              cluster_manifest=manifest_path)
        with pytest.raises(InvalidInputError, match=f"^{manifest_path}:3: invalid JSON"):
            run_experiment(spec)


class TestGridInputs:
    """A grid checks its corpus and its cluster manifest once, in the calling
    process, before any cell runs. A bad one ends the run with one error and
    leaves nothing on disk; failures that depend on the data stay per cell."""

    CHAIN = {"generations": 2, "initial_human": 10, "per_gen_total": 10, "eval_sample": 5}

    def _config(self, tmp_path, kind, manifest=None, synthetic_at=None):
        """A spec file over a 40-record corpus, its record ``synthetic_at``
        synthetic, and a manifest of cluster 0 (records 0-19) and ``manifest``."""
        records = [TextRecord(text=f"text number {i} here") for i in range(40)]
        if synthetic_at is not None:
            records[synthetic_at] = TextRecord(text="made", source="synthetic", generation=0)
        write_records_jsonl(records, tmp_path / "corpus.jsonl")
        write_jsonl(tmp_path / "clusters.jsonl",
                    [{"cluster_id": 0, "record_indices": list(range(20))}, *(manifest or [])])
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({
            "kind": kind, "ratios": [0.5], "seeds": [0], "out_dir": str(tmp_path / "run"),
            "corpus_path": str(tmp_path / "corpus.jsonl"),
            "cluster_manifest": str(tmp_path / "clusters.jsonl"), "params": {"chain": self.CHAIN}}))
        return config

    @staticmethod
    def _rejected(tmp_path, monkeypatch, capsys, config, message):
        """``run_experiment`` raises ``message`` before any cell runs, and
        ``collapse-lab run`` prints it in one line and exits 2; neither writes."""
        monkeypatch.setattr(_pool, "outcomes", lambda *args: pytest.fail("a cell ran"))
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            run_experiment(load_spec(config))
        assert main(["run", "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", f"collapse-lab: error: {message}\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["chain", "cluster-regression"])
    def test_synthetic_record_rejected(self, tmp_path, monkeypatch, capsys, kind):
        """Record 27 is in no cluster: the whole corpus must be human."""
        config = self._config(tmp_path, kind, synthetic_at=27)
        self._rejected(tmp_path, monkeypatch, capsys, config,
                       "corpus must contain human records only; record 27 is synthetic")

    @pytest.mark.parametrize("cluster_id, members", [
        (1, [*range(20, 39), -1]),  # would read record 39 twice
        (1, [True, *range(21, 40)]),  # would read record 1, in cluster 0
        (1, [20.0, *range(21, 40)]),
        (1, [20, 20, *range(21, 40)]),
        (1, [*range(21, 40), 40]),
        (1, "20-39"),
        (1, None),
    ])
    def test_bad_record_indices_rejected(self, tmp_path, monkeypatch, capsys, cluster_id,
                                         members):
        config = self._config(tmp_path, "cluster-regression",
                              [{"cluster_id": cluster_id, "record_indices": members}])
        self._rejected(tmp_path, monkeypatch, capsys, config,
                       f"{tmp_path / 'clusters.jsonl'}:2: cluster_id 1 needs record_indices of "
                       "distinct integers in [0, 40)")

    @pytest.mark.parametrize("cluster_id, fault", [
        ([1], "is not a string or an integer"),
        (True, "is not a string or an integer"),
        (1.0, "is not a string or an integer"),
        (None, "is not a string or an integer"),
        ("1", "is not of the first cluster_id's type"),  # observations.csv sorts its ids
    ])
    def test_bad_cluster_id_rejected(self, tmp_path, monkeypatch, capsys, cluster_id, fault):
        config = self._config(tmp_path, "cluster-regression",
                              [{"cluster_id": cluster_id, "record_indices": list(range(20, 40))}])
        self._rejected(tmp_path, monkeypatch, capsys, config,
                       f"{tmp_path / 'clusters.jsonl'}:2: cluster_id {cluster_id!r} {fault}")

    def test_lean_corpus_with_an_empty_wing_rejected(self, tmp_path, monkeypatch, capsys):
        """Leans of 10, 50 and -1 leave the right wing empty, so the default
        mixture size, the smaller wing's, is 0 and would fail every cell."""
        write_records_jsonl([TextRecord(text=f"t{i}", annotations={"lean": [10, 50, -1][i % 3]})
                             for i in range(30)], tmp_path / "lean.jsonl")
        config = tmp_path / "spec.json"
        config.write_text(json.dumps({"kind": "lean", "seeds": [0],
                                      "out_dir": str(tmp_path / "run"),
                                      "corpus_path": str(tmp_path / "lean.jsonl")}))
        self._rejected(tmp_path, monkeypatch, capsys, config,
                       f"{tmp_path / 'lean.jsonl'}: a lean grid without params.lean.mixture_size "
                       "needs records in both wings; the corpus has 10 left and 0 right")

    def test_undersized_clusters_fail_per_cell(self, tmp_path):
        """The manifest check leaves a cluster's size alone: a cluster of 5
        records, or of none, fails each of its cells with DataExhaustedError."""
        config = self._config(tmp_path, "cluster-regression",
                              [{"cluster_id": 1, "record_indices": list(range(20, 25))},
                               {"cluster_id": 2, "record_indices": []}])
        store = run_experiment(load_spec(config))
        failures = json.loads(Path(store.path("manifest.json")).read_text())["failures"]
        assert [f["cell"]["cluster_id"] for f in failures] == [1, 2]
        assert all(f["error"].startswith("DataExhaustedError: ") for f in failures)
        assert [row["cluster_id"] for row in read_csv(store.path("observations.csv"))] == ["0"]

    def test_cells_compute_only_the_metrics_they_read(self, tmp_path, monkeypatch):
        """observations.csv reads distinct_count and word_entropy from a cell's
        chain. A spec listing all five metrics writes the default spec's bytes,
        and self-BLEU runs only in the property tasks, once per (cluster, seed);
        a read metric the spec leaves out leaves its column blank."""
        self_bleu, sizes = metrics.self_bleu, []

        def counted(texts, seed=0):
            sizes.append(len(texts))
            return self_bleu(texts, seed=seed)

        monkeypatch.setattr(metrics, "self_bleu", counted)
        monkeypatch.setattr(_pool, "_cpu_count", lambda: 1)  # every task in this process
        corpus_path, manifest_path = write_cluster_grid(tmp_path)
        runs = {}
        for name, chosen in [("default", None), ("all", list(EVAL_METRICS)),
                             ("one", ["word_entropy", "self_bleu"])]:
            chain = {"generations": 2, "initial_human": 40, "per_gen_total": 20,
                     "eval_sample": 5, **({"eval_metrics": chosen} if chosen else {})}
            store = run_experiment(ExperimentSpec(
                kind="cluster-regression", ratios=[0.25, 0.5], seeds=[0, 1],
                out_dir=str(tmp_path / name), corpus_path=corpus_path,
                cluster_manifest=manifest_path, params={"chain": chain}))
            runs[name] = Path(store.path("observations.csv")).read_bytes()
        assert runs["all"] == runs["default"]
        assert sizes == [150] * 12  # 2 clusters x 2 seeds, in each of the 3 runs
        default, one = (read_csv(tmp_path / name / "observations.csv")
                        for name in ("default", "one"))
        assert [{**row, "rel_distinct_count": ""} for row in default] == one


class TestGridArtifactBytes:
    """Neither spec sets eval_metrics, so these digests pin the grid's default
    evaluation metrics and every other ChainConfig default a grid cell takes."""

    CHAIN = {"summary.csv": "0c3f440c9a0edeb4ce7455de3c2a9930143ed4d010a0990fad3488b44ab804de",
             "relative.csv": "ff2c67b853dd40070bcc9304ebaf5086b0e878360f1cd759042dce7b5cf41378",
             "trace.jsonl": "8e93e5a362d0456fda8f246a95e203ac845b33684377d1e41cd8951456f70e24"}
    OBSERVATIONS = "312b85d86d59819274841c0c4f3693b8bcb07068a503a80768376d1e372f6557"

    @staticmethod
    def _chain_grid(tmp_path) -> ResultStore:
        return run_experiment(ExperimentSpec(
            kind="chain", ratios=[0.0, 0.5, 1.0], seeds=[0, 1], out_dir=str(tmp_path / "run"),
            corpus_path=write_word_corpus(str(tmp_path / "corpus.jsonl"), n=300),
            params={"chain": {"generations": 3, "initial_human": 60,
                              "per_gen_total": 30, "eval_sample": 10}}))

    def test_chain_grid(self, tmp_path):
        self._chain_grid(tmp_path)
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

    LEAN_MIXTURES = "f11a79fb015ee25d663b7ab9b7dc8bcb93665c9d8a71a756d1adbed9b5763ff4"
    PLOTS = {"evolution": "2f581258d3912e66729296ce791a7628f59b213b649b3d9f64603ed6274d5b31",
             "interaction-absolute":
                 "7986cc6092f8d2994f0b6362749f493b0b916f03fd56203e7835d639ff849c37",
             "interaction-relative":
                 "fad7a63401b0ad95b70213d3f4d3dafb4859cf063bdb17bd9160a154ff08fee0",
             "lean-stacked": "b32d0bc72b8187cb98528d9089c16fcf5610d1b5e1c693f28bd693afe119b6b6"}
    FAILURES = "ae30e359515cb6020fb11c0a6da8ecee0a82a032c1937dd4d4563bd64b177a16"
    CLUSTERS = "7e3765597b8d266c8d00d2d88731eee5783a48d4fbaf33965fd0489fa14d38f4"

    @staticmethod
    def _sha(path) -> str:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    @staticmethod
    def _lean_grid(tmp_path) -> ResultStore:
        corpus = write_corpus(str(tmp_path / "lean.jsonl"), n=400, lean_mix=True)
        return run_experiment(ExperimentSpec(
            kind="lean", seeds=[0, 1], out_dir=str(tmp_path / "run"), corpus_path=corpus,
            params={"lean": {"mixture_size": 40}}))

    def test_lean_mixtures(self, tmp_path):
        store = self._lean_grid(tmp_path)
        assert self._sha(store.path("lean_mixtures.csv")) == self.LEAN_MIXTURES

    @pytest.mark.parametrize("figure", FIGURE_KINDS)
    def test_plot_data(self, tmp_path, figure):
        grid = self._lean_grid if figure == "lean-stacked" else self._chain_grid
        store = grid(tmp_path)
        assert self._sha(emit_plot_data(store, figure)) == self.PLOTS[figure]

    def test_manifest_failures(self, tmp_path):
        """A third cluster of 10 texts cannot seed 40 initial human texts, so
        each of its cells fails with the same DataExhaustedError."""
        corpus_path, manifest_path = write_cluster_grid(tmp_path)
        with open(manifest_path, "a") as fh:
            fh.write(json.dumps({"cluster_id": 2, "method": "kmeans", "params": {},
                                 "record_indices": list(range(10))}) + "\n")
        run_experiment(ExperimentSpec(
            kind="cluster-regression", ratios=[0.25, 0.5], seeds=[0, 1],
            out_dir=str(tmp_path / "run"), corpus_path=corpus_path,
            cluster_manifest=manifest_path,
            params={"chain": {"generations": 2, "initial_human": 40,
                              "per_gen_total": 20, "eval_sample": 5}}))
        failures = json.loads((tmp_path / "run" / "manifest.json").read_text())["failures"]
        assert len(failures) == 4
        blob = json.dumps(failures, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.FAILURES

    def test_cli_cluster(self, tmp_path):
        rng = np.random.default_rng(1)
        points = np.vstack([rng.normal(loc=(0, 0), size=(150, 2)),
                            rng.normal(loc=(9, 0), size=(150, 2))]).astype(np.float32)
        write_embeddings_emb1(points, tmp_path / "proj.bin")
        write_records_jsonl([TextRecord(text=f"t{i}") for i in range(300)],
                            tmp_path / "records.jsonl")
        out = tmp_path / "clusters.jsonl"
        assert main(["cluster", "--projection", str(tmp_path / "proj.bin"),
                     "--records", str(tmp_path / "records.jsonl"), "--out", str(out),
                     "--final-count", "6"]) == 0
        assert self._sha(out) == self.CLUSTERS


def _grid_spec(tmp_path, kind) -> ExperimentSpec:
    """A small grid of each kind; all but the toy grid have failing cells."""
    chain = {"generations": 2, "initial_human": 40, "per_gen_total": 20, "eval_sample": 5}
    if kind == "toy":
        return ExperimentSpec(kind="toy", seeds=[0], out_dir=str(tmp_path / "run"),
                              params={"toy": {"runs": 3, "steps": 5, "support_size": 200}})
    if kind == "chain":  # 100 texts seed only some of the three seeds' chains
        return ExperimentSpec(kind="chain", ratios=[0.0, 0.5], seeds=[0, 1, 2],
                              out_dir=str(tmp_path / "run"),
                              corpus_path=write_corpus(str(tmp_path / "corpus.jsonl"), n=100),
                              params={"chain": {**chain, "initial_human": 60,
                                                "per_gen_total": 30}})
    if kind == "lean":  # 13 right-wing records cannot fill a mixture of 14 of them
        records = [TextRecord(text=f"item {i}", annotations={"lean": [10, 90, -1][i % 3]})
                   for i in range(40)]
        write_records_jsonl(records, tmp_path / "lean.jsonl")
        return ExperimentSpec(kind="lean", seeds=[0, 1, 2], out_dir=str(tmp_path / "run"),
                              corpus_path=str(tmp_path / "lean.jsonl"),
                              params={"lean": {"mixture_size": 14}})
    corpus_path, manifest_path = write_cluster_grid(tmp_path)
    with open(manifest_path, "a") as fh:  # 10 texts cannot seed 40 initial ones
        fh.write(json.dumps({"cluster_id": 2, "method": "kmeans", "params": {},
                             "record_indices": list(range(10))}) + "\n")
    return ExperimentSpec(kind="cluster-regression", ratios=[0.25, 0.5], seeds=[0, 1],
                          out_dir=str(tmp_path / "run"), corpus_path=corpus_path,
                          cluster_manifest=manifest_path, params={"chain": chain})


class ThreeArgError(Exception):
    """Pickles as its message alone, so unpickling calls ``__init__`` with one
    argument and fails."""

    def __init__(self, a, b, c):
        super().__init__(f"{a}-{b}-{c}")


def _artifacts(store: ResultStore) -> dict:
    """Every artifact's bytes, and the manifest's failures list."""
    out = {name: Path(path).read_bytes() for name, path in store.artifacts.items()}
    out["failures"] = json.loads(Path(store.path("manifest.json")).read_text())["failures"]
    return out


@pytest.mark.parametrize("kind", experiments.KINDS)
def test_each_kind_runs_its_grid_in_one_pool_round(tmp_path, monkeypatch, kind):
    """Every task of a grid, the cluster grid's property tasks too, goes to
    the pool in one round: the one place where a grid task's result arrives."""
    rounds, outcomes = [], _pool.outcomes
    monkeypatch.setattr(_pool, "outcomes", lambda *args: rounds.append(args) or outcomes(*args))
    run_experiment(_grid_spec(tmp_path, kind))
    assert len(rounds) == 1


def test_every_csv_is_written_by_write_csv(tmp_path, monkeypatch):
    """io.write_csv is the one CSV writer: with every collapse_lab binding of
    it wrapped, as the benchmark's traced run wraps it, a grid of each kind
    and a plot file write exactly the .csv artifacts the manifests list,
    and the plot file, through it."""
    written, original = [], io.write_csv
    for module in [m for name, m in list(sys.modules.items())
                   if m is not None and name.split(".")[0] == "collapse_lab"]:
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, lambda path, *args: (
                    written.append(str(path)) or original(path, *args)))
    listed, stores = [], {}
    for kind in experiments.KINDS:
        (tmp_path / kind).mkdir()
        stores[kind] = store = run_experiment(_grid_spec(tmp_path / kind, kind))
        manifest = json.loads(Path(store.path("manifest.json")).read_text())
        listed += [store.path(name) for name in manifest["artifacts"] if name.endswith(".csv")]
    listed.append(emit_plot_data(stores["lean"], "lean-stacked"))
    assert sorted(written) == sorted(listed)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="grid cells run on worker processes only where fork exists")
class TestForkedCells:
    @pytest.mark.parametrize("kind", experiments.KINDS)
    def test_one_and_two_workers_write_the_same_bytes(self, tmp_path, monkeypatch, kind):
        runs = {}
        for workers in (1, 2):
            monkeypatch.setattr(_pool, "_cpu_count", lambda: workers)
            (tmp_path / str(workers)).mkdir()
            spec = _grid_spec(tmp_path / str(workers), kind)
            runs[workers] = _artifacts(run_experiment(spec))
            assert only_pool_workers()
        assert runs[1] == runs[2]
        assert (runs[1]["failures"] != []) == (kind != "toy")

    def test_a_dying_worker_fails_only_its_own_cell(self, tmp_path, monkeypatch):
        """The ratio-1 cell, the costliest and so the first submitted, ends
        its worker process with os._exit while the other cells are running
        or queued. It is recorded as BrokenProcessPool; the other cells run
        on the other worker and the dead one's replacement, and their rows
        are written."""
        clean = _artifacts(run_experiment(_grid_spec(tmp_path / "clean", "toy")))
        _pool.shutdown()  # workers run the code as it was when they were forked
        run_toy_chain = toy.run_toy_chain

        def dies_at_one(cfg):
            if cfg.ratio == 1.0:
                os._exit(3)
            time.sleep(0.05)  # still busy when the first cell's worker dies
            return run_toy_chain(cfg)

        monkeypatch.setattr(toy, "run_toy_chain", dies_at_one)
        monkeypatch.setattr(_pool, "_cpu_count", lambda: 2)
        broken = _artifacts(run_experiment(_grid_spec(tmp_path / "broken", "toy")))
        assert only_pool_workers()
        assert [f["cell"] for f in broken["failures"]] == [{"ratio": 1.0}]
        assert broken["failures"][0]["error"].startswith("BrokenProcessPool: ")
        for name in ("toy_trace.csv", "toy_aggregate.csv"):
            header, *rows = clean[name].decode().splitlines(keepends=True)
            column = header.split(",").index("r")
            kept = [row for row in rows if float(row.split(",")[column]) != 1.0]
            assert broken[name].decode() == header + "".join(kept)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_an_error_that_does_not_unpickle_fails_only_its_own_cell(self, tmp_path,
                                                                      monkeypatch, workers):
        """The ratio-0.5 cell raises an exception that pickles but does not
        unpickle. It is recorded with the text one process gives, and every
        cell runs once: the pool does not break."""
        runs = tmp_path / "runs"
        run_toy_chain = toy.run_toy_chain

        def fails_at_half(cfg):
            with runs.open("a") as fh:
                fh.write(f"{cfg.ratio}\n")
            if cfg.ratio == 0.5:
                raise ThreeArgError(1, 2, 3)
            return run_toy_chain(cfg)

        monkeypatch.setattr(toy, "run_toy_chain", fails_at_half)
        monkeypatch.setattr(_pool, "_cpu_count", lambda: workers)
        spec = _grid_spec(tmp_path, "toy")
        run = _artifacts(run_experiment(spec))
        assert only_pool_workers()
        assert run["failures"] == [{"cell": {"ratio": 0.5}, "error": "ThreeArgError: 1-2-3"}]
        assert sorted(float(r) for r in runs.read_text().split()) == sorted(spec.ratios)

    # sha256 of the failures list below, as written when each cell computed
    # its cluster's properties itself, after its chain
    PROPERTY_FAILURES = "8270411e4559b681602267ca1b3bfeafba1a4bb49f7987f76f59e0ab78013c8e"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_property_failures_follow_chain_failures(self, tmp_path, monkeypatch, workers):
        """Self-BLEU raises for clusters 0 and 2, which both start at record
        0. Cluster 0's chains finish, so its cells record the property error;
        cluster 2's chains raise first, so its cells keep their
        DataExhaustedError. Both are listed in cell order, and only cluster
        1's rows are written."""
        self_bleu = metrics.self_bleu

        def fails_from_record_zero(texts, seed=0):
            if texts[0].endswith(" item 0"):
                raise InvalidInputError("no self-BLEU for this cluster")
            return self_bleu(texts, seed=seed)

        monkeypatch.setattr(metrics, "self_bleu", fails_from_record_zero)
        monkeypatch.setattr(_pool, "_cpu_count", lambda: workers)
        run = _artifacts(run_experiment(_grid_spec(tmp_path, "cluster-regression")))
        assert only_pool_workers()
        cells = [{"cluster_id": c, "ratio": r, "seed": s}
                 for c in (0, 2) for r in (0.25, 0.5) for s in (0, 1)]
        assert [f["cell"] for f in run["failures"]] == cells
        assert [f["error"] for f in run["failures"][:4]] == [
            "InvalidInputError: no self-BLEU for this cluster"] * 4
        assert all(f["error"].startswith("DataExhaustedError: ") for f in run["failures"][4:])
        _, *rows = run["observations.csv"].decode().splitlines()
        assert [row.split(",")[0] for row in rows] == ["1"] * 4
        blob = json.dumps(run["failures"], sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == self.PROPERTY_FAILURES
