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

from . import metrics
from .errors import CollapseLabError, InvalidConfigError, InvalidInputError
from .experiments import FIGURE_KINDS, ResultStore, emit_plot_data, load_spec, run_experiment
from .io import SCORE_KEYS, read_csv, read_embeddings, read_records_jsonl, write_csv, write_jsonl
from .judge import JudgeConfig, annotate_lean, annotate_quality

ENV_TOKEN = "COLLAPSE_LAB_JUDGE_TOKEN"
# observation columns that name a cell rather than measure it
_IDENTIFIERS = ("cluster_id", "dataset", "domain", "ratio", "seed")
# neighbours of the metrics subcommand's k-NN diversity and KL entropy
_KNN_K = 50
# spec kinds each run subcommand accepts; chain is cluster-regression's only one
_RUN_KINDS = {"toy": ("toy",), "chain": ("chain", "cluster-regression"), "lean": ("lean",)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="collapse-lab",
                                     description="recursive-training distribution-shift laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    for kind in _RUN_KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment from a config file")
        p.set_defaults(func=_cmd_run)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)

    p = sub.add_parser("metrics", help="compute the metric suite over a JSONL batch")
    p.set_defaults(func=_cmd_metrics)
    p.add_argument("--records", required=True)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--out", default="metrics.csv")

    p = sub.add_parser("cluster", help="build the cluster suite from a 2-D projection")
    p.set_defaults(func=_cmd_cluster)
    p.add_argument("--projection", required=True)
    p.add_argument("--records", required=True)
    p.add_argument("--out", default="clusters.jsonl")
    p.add_argument("--final-count", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("regress", help="grouped property-shift regressions over an observations CSV")
    p.set_defaults(func=_cmd_regress)
    p.add_argument("--observations", required=True)
    p.add_argument("--grouping", default="all",
                   choices=["all", "per-dataset-per-ratio", "cross-domain-18"])
    p.add_argument("--out", default="regression.csv")

    p = sub.add_parser("annotate", help="judge-annotate texts for quality or lean")
    p.set_defaults(func=_cmd_annotate)
    p.add_argument("--kind", required=True, choices=["quality", "lean"])
    p.add_argument("--records", required=True)
    p.add_argument("--endpoint", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--cache", default=None)
    p.add_argument("--out", default="annotations.jsonl")

    p = sub.add_parser("emit", help="emit plot data from a result directory")
    p.set_defaults(func=_cmd_emit)
    p.add_argument("--results", required=True)
    p.add_argument("--figure", required=True, choices=FIGURE_KINDS)
    p.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CollapseLabError, OSError) as exc:  # bad input or output: one line, as argparse's
        print(f"collapse-lab: error: {exc}", file=sys.stderr)
        return 2


def _cmd_run(args) -> int:
    spec = load_spec(args.config)
    if spec.kind not in _RUN_KINDS[args.command]:
        raise InvalidConfigError(f"{args.config}: a {spec.kind} spec does not run under "
                                 f"{args.command}; {args.command} runs "
                                 f"{' or '.join(_RUN_KINDS[args.command])} specs")
    if args.out:
        spec.out_dir = args.out
    store = run_experiment(spec)
    print(f"results in {store.out_dir}")
    return 0


def _cmd_emit(args) -> int:
    print(emit_plot_data(ResultStore(args.results), args.figure, args.out))
    return 0


def _cmd_metrics(args) -> int:
    records = read_records_jsonl(args.records)
    texts = [r.text for r in records]
    rows = []

    def row(name, value, **params):
        rows.append([name, float(value),
                     json.dumps(params, sort_keys=True) if params else "", len(texts)])

    row("avg_text_length", metrics.avg_text_length(texts))
    row("word_entropy", metrics.word_entropy(texts))
    row("type_token_ratio", metrics.type_token_ratio(texts),
        prefix_chars=metrics.TTR_PREFIX_CHARS)
    if len(texts) >= 2:
        row("self_bleu", metrics.self_bleu(texts), max_n=metrics.SELF_BLEU_MAX_N,
            max_texts=metrics.SELF_BLEU_MAX_TEXTS)
    for key in SCORE_KEYS:
        if any(r.annotations and r.annotations.get(key) is not None for r in records):
            agg = metrics.aggregate_scores(records, key)
            row(f"mean_{key}", agg["mean"], count=agg["count"])

    if args.embeddings:
        emb = read_embeddings(args.embeddings)
        row("cosine_diversity", metrics.cosine_diversity(emb))
        if emb.shape[0] > _KNN_K:
            row("knn_cosine_diversity", metrics.knn_cosine_diversity(emb, _KNN_K), k=_KNN_K)
        proj = None
        if emb.shape[1] == 2:
            proj = emb
        elif emb.shape[0] >= 3:
            proj = metrics.pca_2d(emb)
        if proj is not None:
            if proj.shape[0] > _KNN_K:
                row("kl_entropy", metrics.kl_entropy(proj, _KNN_K), k=_KNN_K)
            if proj.shape[0] >= 4:
                gauss = metrics.gaussianity_aic(proj)
                row("gaussianity_aic", gauss["aic"], n=gauss["n"])

    write_csv(args.out, ["metric", "value", "params", "sample_size"], rows)
    print(args.out)
    return 0


def _cmd_cluster(args) -> int:
    from . import clustering

    points = read_embeddings(args.projection)
    if points.shape[1] != 2:
        raise InvalidInputError(f"{args.projection}: a projection has 2 components, "
                                f"this one has {points.shape[1]}")
    records = read_records_jsonl(args.records)
    if points.shape[0] != len(records):
        raise InvalidInputError(f"projection rows ({points.shape[0]}) != records ({len(records)})")
    cfg = clustering.ClusterSuiteConfig(final_count=args.final_count, seed=args.seed)
    suite = clustering.build_cluster_suite(points, cfg)
    write_jsonl(args.out, [{"cluster_id": spec["cluster_id"], "method": spec["method"],
                            "params": spec["params"],
                            "record_indices": np.asarray(spec["record_indices"]).tolist()}
                           for spec in suite])
    print(args.out)
    return 0


def _cmd_regress(args) -> int:
    """Dependents are the rel_* columns and predictors every other column that
    is not an identifier; a "<column>:<domain>" column counts as its column.
    A blank cell is missing: its row sits out every fit its column enters."""
    from . import regression

    raw = read_csv(args.observations)
    if not raw:
        print(f"{args.observations} has no observations", file=sys.stderr)
        return 1
    observations = []
    for rownum, r in enumerate(raw, 1):
        obs = {}
        for k, v in r.items():
            if k in ("cluster_id", "dataset", "domain"):
                obs[k] = v
            elif v != "":
                try:
                    obs[k] = float(v)
                except (TypeError, ValueError):
                    if k is not None and k.split(":", 1)[0] not in _IDENTIFIERS:
                        raise InvalidInputError(f"{args.observations}: row {rownum}, column "
                                                f"{k}: {v!r} is not a number") from None
                    obs[k] = v
        obs.setdefault("dataset", obs.get("domain", "all"))
        observations.append(obs)
    columns = list(dict.fromkeys(k.split(":", 1)[0] for k in raw[0]))
    dependents = tuple(k for k in columns if k.startswith("rel_"))
    prop_keys = tuple(k for k in columns if k not in _IDENTIFIERS and k not in dependents)
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
    return 0 if rows else 1


def _cmd_annotate(args) -> int:
    records = read_records_jsonl(args.records)
    cfg = JudgeConfig(endpoint=args.endpoint, model=args.model,
                      cache_path=args.cache, auth_token=os.environ.get(ENV_TOKEN))
    fn = annotate_quality if args.kind == "quality" else annotate_lean
    result = fn([r.text for r in records], cfg)
    write_jsonl(args.out, [
        {"text_hash": e.text_hash, "kind": e.kind,
         **({"score": e.score} if hasattr(e, "score") else {"error": e.error})}
        for e in result.entries])
    n_fail = len(result.failures)
    print(f"{len(result.annotations)} annotated, {n_fail} failed "
          f"({result.cache_hits} cache hits, {result.requests} requests, "
          f"{result.parse_failures} parse failures, "
          f"{result.transport_failures} transport failures) -> {args.out}")
    return 0 if n_fail == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
