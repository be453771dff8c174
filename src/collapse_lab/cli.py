"""Command-line entry point:

    collapse-lab {toy|chain|metrics|cluster|regress|annotate|lean|emit} ...

Every subcommand reads declarative config or data files and writes CSV/JSONL
artifacts; all randomness flows from seeds in the configs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import clustering, metrics, regression
from .experiments import FIGURE_KINDS, ResultStore, emit_plot_data, load_spec, run_experiment
from .io import read_embeddings, read_records_jsonl, write_csv
from .judge import JudgeConfig, annotate_lean, annotate_quality

ENV_TOKEN = "COLLAPSE_LAB_JUDGE_TOKEN"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="collapse-lab",
                                     description="recursive-training distribution-shift laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in ("toy", "chain", "lean"):
        p = sub.add_parser(kind, help=f"run a {kind} experiment from a config file")
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if kind == "chain":
            p.add_argument("--ratio", type=float, default=None,
                           help="override the config's ratio list with one value")
            p.add_argument("--seeds", type=int, nargs="+", default=None)
            p.add_argument("--generator", default=None)

    p = sub.add_parser("metrics", help="compute the metric suite over a JSONL batch")
    p.add_argument("--records", required=True)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--knn-k", type=int, default=50)
    p.add_argument("--out", default="metrics.csv")

    p = sub.add_parser("cluster", help="build the cluster suite from a 2-D projection")
    p.add_argument("--projection", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--out", default="clusters.jsonl")
    p.add_argument("--final-count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("regress", help="grouped property-shift regressions over an observations CSV")
    p.add_argument("--observations", required=True)
    p.add_argument("--grouping", default="all",
                   choices=["all", "per-dataset-per-ratio", "cross-domain-18"])
    p.add_argument("--out", default="regression.csv")

    p = sub.add_parser("annotate", help="judge-annotate texts for quality or lean")
    p.add_argument("--kind", required=True, choices=["quality", "lean"])
    p.add_argument("--records", required=True)
    p.add_argument("--endpoint", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--cache", default=None)
    p.add_argument("--out", default="annotations.jsonl")

    p = sub.add_parser("emit", help="emit plot data from a result directory")
    p.add_argument("--results", required=True)
    p.add_argument("--figure", required=True, choices=FIGURE_KINDS)
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    return _dispatch(args)


def _dispatch(args) -> int:
    if args.command in ("toy", "chain", "lean"):
        spec = load_spec(args.config)
        if args.out:
            spec.out_dir = args.out
        if args.command == "chain":
            if args.ratio is not None:
                spec.ratios = [args.ratio]
            if args.seeds is not None:
                spec.seeds = list(args.seeds)
            if args.generator is not None:
                spec.params.setdefault("chain", {})["generator_kinds"] = [args.generator]
        store = run_experiment(spec)
        print(f"results in {store.out_dir}")
        return 0

    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "cluster":
        return _cmd_cluster(args)
    if args.command == "regress":
        return _cmd_regress(args)
    if args.command == "annotate":
        return _cmd_annotate(args)
    if args.command == "emit":
        store = ResultStore(args.results)
        path = emit_plot_data(store, args.figure, args.out)
        print(path)
        return 0
    return 2


def _cmd_metrics(args) -> int:
    records = read_records_jsonl(args.records)
    texts = [r.text for r in records]
    rows = []

    def row(name, value, **params):
        rows.append([name, float(value),
                     json.dumps(params, sort_keys=True) if params else "", len(texts)])

    row("avg_text_length", metrics.avg_text_length(texts))
    row("word_entropy", metrics.word_entropy(texts))
    row("type_token_ratio", metrics.type_token_ratio(texts), prefix_chars=200)
    if len(texts) >= 2:
        row("self_bleu", metrics.self_bleu(texts), max_n=4, max_texts=250)
    for key in ("quality", "lean", "positivity"):
        try:
            agg = metrics.aggregate_scores(records, key)
        except Exception:
            continue
        row(f"mean_{key}", agg["mean"], count=agg["count"])

    if args.embeddings:
        emb = read_embeddings(args.embeddings)
        row("cosine_diversity", metrics.cosine_diversity(emb))
        if emb.shape[0] > args.knn_k:
            row("knn_cosine_diversity", metrics.knn_cosine_diversity(emb, args.knn_k),
                k=args.knn_k)
        proj = None
        if emb.shape[1] == 2:
            proj = emb
        elif emb.shape[0] >= 3:
            proj = metrics.pca_2d(emb)
        if proj is not None:
            if proj.shape[0] > args.knn_k:
                row("kl_entropy", metrics.kl_entropy(proj, args.knn_k), k=args.knn_k)
            if proj.shape[0] >= 4:
                gauss = metrics.gaussianity_aic(proj)
                row("gaussianity_aic", gauss["aic"], n=gauss["n"])

    write_csv(args.out, ["metric", "value", "params", "sample_size"], rows)
    print(args.out)
    return 0


def _cmd_cluster(args) -> int:
    points = read_embeddings(args.projection)
    records = read_records_jsonl(args.records)
    if points.shape[0] != len(records):
        print(f"projection rows ({points.shape[0]}) != records ({len(records)})",
              file=sys.stderr)
        return 2
    cfg = clustering.ClusterSuiteConfig(final_count=args.final_count, seed=args.seed)
    suite = clustering.build_cluster_suite(points, cfg)
    with open(args.out, "w") as fh:
        for spec in suite:
            fh.write(json.dumps({
                "cluster_id": spec["cluster_id"],
                "method": spec["method"],
                "params": spec["params"],
                "record_indices": np.asarray(spec["record_indices"]).tolist(),
            }, sort_keys=True) + "\n")
    print(args.out)
    return 0


def _cmd_regress(args) -> int:
    import csv as _csv

    with open(args.observations, newline="") as fh:
        raw = list(_csv.DictReader(fh))
    observations = []
    for r in raw:
        obs = {}
        for k, v in r.items():
            if k in ("cluster_id", "dataset", "domain"):
                obs[k] = v
            else:
                try:
                    obs[k] = float(v)
                except (TypeError, ValueError):
                    obs[k] = v
        obs.setdefault("dataset", obs.get("domain", "all"))
        observations.append(obs)
    dependents = tuple(k for k in ("rel_diversity", "rel_quality") if k in observations[0])
    prop_keys = tuple(k for k in regression.PROPERTY_KEYS if k in observations[0])
    fits = regression.property_shift_regression(
        observations, grouping=args.grouping, dependents=dependents,
        property_keys=prop_keys)
    rows = []
    for f in fits:
        if "skipped" in f:
            continue
        res = f["result"]
        for i, name in enumerate(res.names):
            rows.append([f["group"], f["dependent"], name,
                         float(res.coefficients[i]), float(res.standard_errors[i]),
                         float(res.t_values[i]), float(res.p_values[i]),
                         float(res.meta["bonferroni"][i]),
                         res.significance(name), float(res.vif[i]),
                         float(res.r_squared)])
    write_csv(args.out, ["group", "dependent", "predictor", "coefficient",
                         "std_error", "t", "p", "p_bonferroni", "stars", "vif",
                         "r_squared"], rows)
    print(regression.render_table(fits))
    print(args.out)
    return 0


def _cmd_annotate(args) -> int:
    records = read_records_jsonl(args.records)
    cfg = JudgeConfig(endpoint=args.endpoint, model=args.model,
                      cache_path=args.cache, auth_token=os.environ.get(ENV_TOKEN))
    fn = annotate_quality if args.kind == "quality" else annotate_lean
    result = fn([r.text for r in records], cfg)
    with open(args.out, "w") as fh:
        for entry in result.entries:
            if hasattr(entry, "score"):
                fh.write(json.dumps({"text_hash": entry.text_hash, "kind": entry.kind,
                                     "score": entry.score}, sort_keys=True) + "\n")
            else:
                fh.write(json.dumps({"text_hash": entry.text_hash, "kind": entry.kind,
                                     "error": entry.error}, sort_keys=True) + "\n")
    n_fail = len(result.failures)
    print(f"{len(result.annotations)} annotated, {n_fail} failed -> {args.out}")
    return 0 if n_fail == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
