import json
import struct
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path

import numpy as np
import pytest

from collapse_lab.cli import main
from collapse_lab.experiments import ExperimentSpec, load_spec, run_experiment
from collapse_lab.io import (
    TextRecord,
    read_csv,
    write_embeddings_emb1,
    write_jsonl,
    write_records_jsonl,
)


def test_run_toy_spec(tmp_path, capsys):
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({
        "kind": "toy", "ratios": [0.25], "seeds": [0],
        "params": {"toy": {"support_size": 60, "steps": 3, "runs": 4}},
    }))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert (out / "toy_trace.csv").exists()
    assert (out / "manifest.json").exists()


def test_run_lean_spec(tmp_path):
    """run picks the lean runner from the spec's kind and writes what
    run_experiment writes for the same spec."""
    corpus = tmp_path / "corpus.jsonl"
    write_records_jsonl([TextRecord(text=f"text {i}",
                                    annotations={"lean": [10, 90, 50, -1][i % 4]})
                         for i in range(40)], corpus)
    config = tmp_path / "lean.json"
    config.write_text(json.dumps({
        "kind": "lean", "seeds": [0, 1], "corpus_path": str(corpus),
        "out_dir": str(tmp_path / "direct"),
        "params": {"lean": {"mixture_size": 8, "left_fractions": [0.0, 0.5, 1.0]}},
    }))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert len(read_csv(out / "lean_mixtures.csv")) == 3 * 2
    direct = run_experiment(load_spec(config))
    assert ((out / "lean_mixtures.csv").read_bytes()
            == Path(direct.path("lean_mixtures.csv")).read_bytes())


@pytest.mark.parametrize("command", ["toy", "chain", "lean"])
def test_kind_is_not_a_subcommand(tmp_path, capsys, command):
    """The spec names its kind; run is the one subcommand that runs a spec."""
    config = tmp_path / "toy.json"
    config.write_text(json.dumps({"kind": "toy", "ratios": [0.25], "seeds": [0]}))
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(config), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"invalid choice: '{command}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("body, message", [
    ({"kind": "toy", "ratio": [0.5]}, "unknown config keys: ratio"),
    ({"kind": "toy", "params": {"toy": {"steps": 0}}}, "steps and runs must be >= 1"),
    ({"kind": "toy", "params": {"toy": {"seed": -1}}}, "seed must be >= 0"),
    ({"kind": "toy", "params": {"toy": {"runs": "2"}}},
     'params.toy.runs must be an integer, not "2"'),
    (b'\xff\xfe{"kind": "toy"}', "config is not UTF-8 text (invalid start byte)"),
])
def test_config_error_is_one_line(tmp_path, capsys, body, message):
    """A bad config ends in one stderr line and exit code 2, not a traceback,
    and leaves no output."""
    config = tmp_path / "toy.json"
    if isinstance(body, bytes):
        config.write_bytes(body)
    else:
        config.write_text(json.dumps(body))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("collapse-lab: error: ") and captured.err.count("\n") == 1
    assert message in captured.err
    assert not out.exists()


def test_run_cluster_regression_spec(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_records_jsonl([TextRecord(text=f"text number {i} here") for i in range(40)], corpus)
    manifest = tmp_path / "clusters.jsonl"
    write_jsonl(manifest, [{"cluster_id": 0, "record_indices": list(range(40))}])
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({
        "kind": "cluster-regression", "ratios": [0.5], "seeds": [0],
        "corpus_path": str(corpus), "cluster_manifest": str(manifest),
        "params": {"chain": {"generations": 2, "initial_human": 20, "per_gen_total": 10,
                             "eval_sample": 5}},
    }))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    assert len(read_csv(out / "observations.csv")) == 1


def test_chain_value_error_is_one_line(tmp_path, capsys):
    """A chain value that would fail every cell stops the run before any
    output, in one stderr line."""
    corpus = tmp_path / "corpus.jsonl"
    write_records_jsonl([TextRecord(text=f"text number {i} here") for i in range(40)], corpus)
    config = tmp_path / "chain.json"
    config.write_text(json.dumps({"kind": "chain", "ratios": [0.5], "seeds": [0],
                                  "corpus_path": str(corpus),
                                  "params": {"chain": {"generations": 0}}}))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "collapse-lab: error: counts must be positive\n"
    assert not out.exists()


def test_run_chain_spec_with_overrides(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_records_jsonl([TextRecord(text=f"text number {i} here") for i in range(400)],
                        corpus)
    config = tmp_path / "chain.json"
    config.write_text(json.dumps({
        "kind": "chain", "ratios": [0.5], "seeds": [3],
        "corpus_path": str(corpus),
        "params": {"chain": {"generations": 2, "initial_human": 40,
                             "per_gen_total": 20, "eval_sample": 5,
                             "generator_kinds": ["resampler"],
                             "eval_metrics": ["distinct_count"]}},
    }))
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--out", str(out)])
    assert code == 0
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert len(summary) == 1 + 2  # 1 seed x 2 generations x 1 metric


def test_metrics_subcommand(tmp_path, capsys):
    records = tmp_path / "records.jsonl"
    write_records_jsonl([
        TextRecord(text="the quick brown fox jumps", annotations={"quality": 60}),
        TextRecord(text="lazy dogs sleep all day long", annotations={"quality": 40}),
    ], records)
    emb_path = tmp_path / "emb.bin"
    rng = np.random.default_rng(0)
    write_embeddings_emb1(rng.normal(size=(2, 4)).astype(np.float32), emb_path)
    out = tmp_path / "metrics.csv"
    code = main(["metrics", "--records", str(records), "--embeddings", str(emb_path),
                 "--out", str(out)])
    assert code == 0
    body = out.read_text()
    assert "word_entropy" in body
    assert "mean_quality" in body
    assert "cosine_diversity" in body


def test_metrics_non_numeric_score_raises(tmp_path, capsys):
    """A score that is not a number is an error, not a silently missing
    mean_* row: the reader names its line."""
    records = tmp_path / "records.jsonl"
    write_jsonl(records, [{"text": "the quick brown fox", "quality": "high"},
                          {"text": "lazy dogs sleep all day"}])
    out = tmp_path / "metrics.csv"
    assert main(["metrics", "--records", str(records), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"collapse-lab: error: {records}:1: "
                                       "quality of the wrong type: 'high'\n")
    assert not out.exists()


def _bad_input(tmp_path, case):
    """The argv of a subcommand run on an input file that holds one bad value,
    and the error line that names it."""
    records = tmp_path / "records.jsonl"
    write_records_jsonl([TextRecord(text=f"t{i}") for i in range(3)], records)
    proj = tmp_path / "proj.csv"
    cluster = ["cluster", "--projection", str(proj), "--records", str(records)]
    if case == "csv cell":
        proj.write_text("id,x,y\n0,1.0,2.0\n1,1.5,oops\n2,0.0,0.0\n")
        return cluster, f"{proj}:3: could not convert string to float: 'oops'"
    if case == "csv row width":
        proj.write_text("0,1.0,2.0\n1,1.5\n2,0.0,0.0\n")
        return cluster, f"{proj}:2: 1 components, the first row has 2"
    if case == "csv not utf-8":
        proj.write_bytes(b"\xff\xfe0,1.0,2.0\n1,1.5,0.5\n2,0.0,0.0\n")
        return cluster, f"{proj}: not UTF-8 text (invalid start byte)"
    if case == "projection width":
        proj.write_text("0,1.0,2.0,0.5\n1,1.5,0.5,0.0\n2,0.0,0.0,1.0\n")
        return cluster, f"{proj}: a projection has 2 components, this one has 3"
    if case == "emb1 header":
        proj.write_bytes(b"EMB1\x03\x00")
        return cluster, f"{proj}: truncated EMB1 header"
    if case == "emb1 payload":
        proj.write_bytes(b"EMB1" + struct.pack("<II", 10, 2) + struct.pack("<26f", *range(26)))
        return cluster, f"{proj}: 24 bytes after the EMB1 payload of 10 x 2 values"
    if case == "record text":
        records.write_text('{"text": "fine"}\n\n{"text": 5}\n')
        return ["metrics", "--records", str(records)], f"{records}:3: text of the wrong type: 5"
    for name, row, error in [
            ("record source", '{"text": "x", "source": "robot"}', "unknown source 'robot'"),
            ("human generation", '{"text": "x", "generation": 3}',
             "human records must have generation -1"),
            ("synthetic generation", '{"text": "x", "source": "synthetic", "generation": -1}',
             "synthetic records must have generation >= 0"),
            ("bool generation", '{"text": "x", "source": "synthetic", "generation": true}',
             "generation of the wrong type: True"),
            *((f"bool {key}", f'{{"text": "x", "{key}": true}}', f"{key} of the wrong type: True")
              for key in ("quality", "lean", "positivity"))]:
        if case == name:
            records.write_text('{"text": "fine"}\n' + row + "\n")
            return ["metrics", "--records", str(records)], f"{records}:2: {error}"
    if case == "records not utf-8":
        records.write_bytes(b'\xff\xfe{"text": "x"}\n')
        return ["metrics", "--records", str(records)], f"{records}:1: not UTF-8 text (invalid start byte)"
    obs = tmp_path / "observations.csv"
    regress = ["regress", "--observations", str(obs)]
    header = "cluster_id,ratio,quality,rel_diversity\nc0,0.5,1.0,0.2\n"
    if case == "regress dependent":
        obs.write_text(header + "c1,0.5,1.0,x\n")
        return regress, f"{obs}: row 2, column rel_diversity: 'x' is not a number"
    if case == "regress predictor":
        obs.write_text(header + "c1,0.5,n/a,0.1\n")
        return regress, f"{obs}: row 2, column quality: 'n/a' is not a number"
    if case == "regress not utf-8":
        obs.write_bytes(b"\xff\xfe" + header.encode())
        return regress, f"{obs}: not UTF-8 text (invalid start byte)"
    missing = tmp_path / "missing.jsonl"
    if case == "records missing":
        return ["metrics", "--records", str(missing)], f"required file missing: {missing}"
    if case == "projection missing":
        cluster[2] = str(tmp_path / "missing.emb1")
        return cluster, f"required file missing: {cluster[2]}"
    annotate = ["annotate", "--kind", "quality", "--records", str(records), "--endpoint",
                "http://127.0.0.1:9/chat", "--model", "m"]
    if case == "annotate records missing":
        annotate[4] = str(missing)
        return annotate, f"required file missing: {missing}"
    cache = tmp_path / "cache.jsonl"
    if case == "judge cache directory":
        cache.mkdir()
        return [*annotate, "--cache", str(cache)], f"{cache}: cannot read (Is a directory)"
    cache.write_text('{"key": "a"}\n{"key": \n{"key": "b"}\n')
    return [*annotate, "--cache", str(cache)], f"{cache}:2: invalid JSON: "


@pytest.mark.parametrize("case", ["csv cell", "csv row width", "csv not utf-8",
                                  "projection width", "emb1 header", "emb1 payload",
                                  "record text", "records not utf-8", "record source",
                                  "human generation", "synthetic generation", "bool generation",
                                  "bool quality", "bool lean", "bool positivity",
                                  "regress dependent",
                                  "regress predictor", "regress not utf-8", "judge cache",
                                  "records missing", "projection missing",
                                  "annotate records missing", "judge cache directory"])
def test_bad_input_file_is_one_line(tmp_path, capsys, case):
    """A malformed input file ends in one stderr line naming it, and exit
    code 2, before any output or judge request."""
    argv, message = _bad_input(tmp_path, case)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"collapse-lab: error: {message}")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_unwritable_output_is_one_line(tmp_path, capsys):
    """An output that cannot be written ends in one stderr line naming it,
    and exit code 2."""
    records = tmp_path / "records.jsonl"
    write_records_jsonl([TextRecord(text="one text"), TextRecord(text="another")], records)
    out = tmp_path / "missing" / "metrics.csv"
    assert main(["metrics", "--records", str(records), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("collapse-lab: error: ") and str(out) in captured.err
    assert captured.err.count("\n") == 1


def test_cluster_subcommand(tmp_path):
    rng = np.random.default_rng(1)
    points = np.vstack([
        rng.normal(loc=(0, 0), size=(150, 2)),
        rng.normal(loc=(9, 0), size=(150, 2)),
    ]).astype(np.float32)
    proj = tmp_path / "proj.bin"
    write_embeddings_emb1(points, proj)
    records = tmp_path / "records.jsonl"
    write_records_jsonl([TextRecord(text=f"t{i}") for i in range(300)], records)
    out = tmp_path / "clusters.jsonl"
    code = main(["cluster", "--projection", str(proj), "--records", str(records),
                 "--out", str(out), "--final-count", "6"])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6
    row = json.loads(lines[0])
    assert {"cluster_id", "method", "params", "record_indices"} <= set(row)


def test_cluster_row_mismatch_is_one_line(tmp_path, capsys):
    proj = tmp_path / "proj.bin"
    write_embeddings_emb1(np.zeros((5, 2), dtype=np.float32), proj)
    records = tmp_path / "records.jsonl"
    write_records_jsonl([TextRecord(text=f"t{i}") for i in range(4)], records)
    out = tmp_path / "clusters.jsonl"
    assert main(["cluster", "--projection", str(proj), "--records", str(records),
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "collapse-lab: error: projection rows (5) != records (4)\n"
    assert not out.exists()


def test_cluster_negative_seed_is_one_line(tmp_path, capsys):
    proj = tmp_path / "proj.bin"
    write_embeddings_emb1(np.zeros((4, 2), dtype=np.float32), proj)
    records = tmp_path / "records.jsonl"
    write_records_jsonl([TextRecord(text=f"t{i}") for i in range(4)], records)
    out = tmp_path / "clusters.jsonl"
    assert main(["cluster", "--projection", str(proj), "--records", str(records),
                 "--out", str(out), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "collapse-lab: error: seed must be >= 0\n"
    assert not out.exists()


def test_regress_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(2)
    obs = tmp_path / "observations.csv"
    header = ("cluster_id,dataset,ratio,semantic_diversity,lexical_diversity,"
              "gaussianity,quality,positivity,text_length,rel_diversity,rel_quality")
    rows = [header]
    for i in range(60):
        vals = rng.normal(size=6)
        rows.append(",".join(["c%d" % i, "ds", "0.25"]
                             + [f"{v:.6f}" for v in vals]
                             + [f"{vals[0] * 0.5 + rng.normal():.6f}",
                                f"{-vals[1] * 0.5 + rng.normal():.6f}"]))
    obs.write_text("\n".join(rows) + "\n")
    out = tmp_path / "reg.csv"
    code = main(["regress", "--observations", str(obs), "--grouping", "all",
                 "--out", str(out)])
    assert code == 0
    assert "r_squared" in out.read_text().splitlines()[0]
    printed = capsys.readouterr().out
    assert "R^2" in printed


def test_regress_on_grid_observations(tmp_path, capsys):
    """regress fits the grid's own rel_* columns on its property columns. Every
    chain here keeps all its distinct texts, so rel_distinct_count is 1.0 in
    each row and that fit is skipped with a notice."""
    rng = np.random.default_rng(3)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
    write_records_jsonl([TextRecord(text=" ".join(rng.choice(words[:3 + i // 60],
                                                             size=4 + i // 60)))
                         for i in range(8 * 60)], tmp_path / "corpus.jsonl")
    write_jsonl(tmp_path / "clusters.jsonl",
                [{"cluster_id": c, "method": "kmeans", "params": {},
                  "record_indices": list(range(c * 60, (c + 1) * 60))} for c in range(8)])
    run_experiment(ExperimentSpec(
        kind="cluster-regression", ratios=[0.5], seeds=[0], out_dir=str(tmp_path / "grid"),
        corpus_path=str(tmp_path / "corpus.jsonl"),
        cluster_manifest=str(tmp_path / "clusters.jsonl"),
        params={"chain": {"generations": 3, "initial_human": 20, "per_gen_total": 20,
                          "eval_sample": 10}}))
    out = tmp_path / "reg.csv"
    assert main(["regress", "--observations", str(tmp_path / "grid" / "observations.csv"),
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert sorted({(r["dependent"], r["predictor"]) for r in rows}) == sorted(
        ("rel_word_entropy", pred)
        for pred in ("lexical_diversity", "word_entropy", "type_token_ratio", "text_length"))
    assert ("skipped all:rel_distinct_count: dependent is constant (1.0) in all 8 observations"
            in capsys.readouterr().out)


def test_regress_cross_domain_columns(tmp_path, capsys):
    rng = np.random.default_rng(4)
    domains = ("twitter", "reddit")
    header = ["cluster_id", "ratio"] + [f"{c}:{d}" for d in domains for c in (
        "quality", "text_length", "rel_diversity")]
    rows = [",".join(header)]
    for c in range(20):
        rows.append(",".join([str(c), "0.25"] + [f"{v:.6f}" for v in rng.normal(size=6)]))
    (tmp_path / "obs.csv").write_text("\n".join(rows) + "\n")
    out = tmp_path / "reg.csv"
    assert main(["regress", "--observations", str(tmp_path / "obs.csv"),
                 "--grouping", "cross-domain-18", "--out", str(out)]) == 0
    fits = read_csv(out)
    assert sorted({r["dependent"] for r in fits}) == ["rel_diversity:reddit",
                                                       "rel_diversity:twitter"]
    assert len(fits) == 2 * 4  # dependents x (properties x domains)


def test_regress_blank_dependent_cell_sits_out_that_fit(tmp_path, capsys):
    """A blank rel_* cell drops its row from that dependent's fit only."""
    rng = np.random.default_rng(5)
    header = "cluster_id,ratio,text_length,word_entropy,rel_distinct_count,rel_word_entropy"
    rows = [[str(c), "0.5"] + [f"{v:.6f}" for v in rng.normal(size=4)] for c in range(8)]
    rows[3][-1] = ""

    def regress(name, rows):
        obs = tmp_path / f"{name}.csv"
        obs.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
        out = tmp_path / f"{name}_reg.csv"
        assert main(["regress", "--observations", str(obs), "--out", str(out)]) == 0
        return {r["dependent"]: r for r in read_csv(out)}

    fits = regress("blank", rows)
    assert fits["rel_distinct_count"] == regress("full", [r[:-1] + ["0"] for r in rows])[
        "rel_distinct_count"]
    assert fits["rel_word_entropy"] == regress("dropped", rows[:3] + rows[4:])[
        "rel_word_entropy"]
    capsys.readouterr()
    assert set(regress("small", rows[:5])) == {"rel_distinct_count"}
    assert "rel_word_entropy: group has 4 observations, needs > 4" in capsys.readouterr().out


def test_regress_blank_predictor_cell_sits_out_its_group(tmp_path, capsys):
    """A blank predictor cell drops its row from every fit the predictor
    enters, as if the row were not in the file."""
    rng = np.random.default_rng(6)
    header = "cluster_id,ratio,text_length,word_entropy,rel_distinct_count,rel_word_entropy"
    rows = [[str(c), "0.5"] + [f"{v:.6f}" for v in rng.normal(size=4)] for c in range(8)]
    rows[2][2] = ""

    def regress(name, rows):
        obs = tmp_path / f"{name}.csv"
        obs.write_text("\n".join([header] + [",".join(r) for r in rows]) + "\n")
        out = tmp_path / f"{name}_reg.csv"
        assert main(["regress", "--observations", str(obs), "--out", str(out)]) == 0
        return read_csv(out)

    fits = regress("blank", rows)
    assert {r["dependent"] for r in fits} == {"rel_distinct_count", "rel_word_entropy"}
    assert fits == regress("dropped", rows[:2] + rows[3:])


def test_regress_without_fits_exits_nonzero(tmp_path, capsys):
    obs = tmp_path / "observations.csv"
    args = ["regress", "--observations", str(obs), "--out", str(tmp_path / "reg.csv")]
    obs.write_text("")
    assert main(args) == 1
    obs.write_text("cluster_id,ratio,text_length,rel_word_entropy\n0,0.5,10.0,0.9\n")
    assert main(args) == 1  # one row: the group is skipped


def test_emit_subcommand(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    write_records_jsonl([TextRecord(text=f"words and more words {i}") for i in range(300)],
                        corpus)
    config = tmp_path / "chain.json"
    config.write_text(json.dumps({
        "kind": "chain", "ratios": [0.5], "seeds": [0],
        "corpus_path": str(corpus),
        "params": {"chain": {"generations": 2, "initial_human": 40,
                             "per_gen_total": 20, "eval_sample": 5,
                             "eval_metrics": ["distinct_count"]}},
    }))
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    code = main(["emit", "--results", str(out), "--figure", "evolution"])
    assert code == 0
    assert (out / "plot_evolution.csv").exists()


def test_annotate_subcommand_prints_judge_counters(tmp_path, capsys):
    """A duplicate text is requested once, a text the judge cannot score
    costs every retry, and a second run serves the scored ones from the cache."""
    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            prompt = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            content = prompt["messages"][0]["content"]
            out = json.dumps({"text": "n/a" if "unscorable" in content else "70"}).encode()
            self.send_response(200)
            self.send_header("Content-Length", str(len(out)))
            self.end_headers()
            self.wfile.write(out)

        def log_message(self, *args):
            pass

    records = tmp_path / "texts.jsonl"
    write_records_jsonl([TextRecord(text=t) for t in ("a fine post", "a fine post", "unscorable")],
                        records)
    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        args = ["annotate", "--kind", "quality", "--records", str(records),
                "--endpoint", f"http://127.0.0.1:{server.server_address[1]}/chat",
                "--model", "m", "--cache", str(tmp_path / "cache.jsonl"),
                "--out", str(tmp_path / "annotations.jsonl")]
        assert main(args) == 1
        first = capsys.readouterr().out
        assert main(args) == 1
        second = capsys.readouterr().out
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    assert first.startswith("2 annotated, 1 failed (0 cache hits, 5 requests, "
                            "4 parse failures, 0 transport failures) -> ")
    assert second.startswith("2 annotated, 1 failed (2 cache hits, 4 requests, "
                             "4 parse failures, 0 transport failures) -> ")
    rows = [json.loads(line) for line in (tmp_path / "annotations.jsonl").read_text().splitlines()]
    assert [row.get("score") for row in rows] == [70, 70, None]
