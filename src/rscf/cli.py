"""Command-line interface.

Subcommands: train, evaluate, analyze-clusters, analyze-scales, export-scores,
simulate-consistency, check-gradients, check-dura-sign.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numerical
failure. All artifact writers take --out; --deterministic suppresses the
generated_at timestamp so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, evaluation
from .config import ConfigError, RunConfig
from .data import Dataset, load_relation_groups
from .errors import DataError, DivergedLoss, NumericalError, RscfError
from .gradcheck import run_grid
from .tensor import Rng
from .trainer import Checkpoint, load_checkpoint, save_checkpoint, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _write_json(path: Path, payload: dict, deterministic: bool) -> None:
    if not deterministic:
        payload = dict(payload)
        payload["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                    encoding="utf-8")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _load_dataset(cfg: RunConfig) -> Dataset:
    fmt = cfg["data.format"]
    return Dataset.load(cfg.require("data.train"), cfg["data.valid"],
                        cfg["data.test"], fmt)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    cfg = RunConfig.from_file(args.config)
    train_cfg = cfg.train_config()
    if args.seed is not None:
        train_cfg.seed = args.seed
    dataset = _load_dataset(cfg)
    out = _out_dir(args)
    initial = load_checkpoint(args.resume) if args.resume else None
    try:
        checkpoint, report = train(dataset, train_cfg, initial=initial)
    except DivergedLoss as err:
        if err.partial_report is not None:
            (out / "train_report.csv").write_text(err.partial_report.to_csv(),
                                                  encoding="utf-8")
            _write_json(out / "train_report.json",
                        err.partial_report.to_json_dict(), args.deterministic)
        print(f"error: {err}", file=sys.stderr)
        return 3
    save_checkpoint(out / "checkpoint.rscfckp", checkpoint)
    (out / "train_report.csv").write_text(report.to_csv(), encoding="utf-8")
    _write_json(out / "train_report.json", report.to_json_dict(),
                args.deterministic)
    print(f"trained {train_cfg.epochs} epochs -> {out / 'checkpoint.rscfckp'}")
    return 0


def _per_relation_rows(report: evaluation.EvalReport):
    header = ["relation", "relation_id", "queries", "mrr", "hits1", "hits3", "hits10"]
    rows = [[r["relation"], r["relation_id"], r["queries"], repr(r["mrr"]),
             repr(r.get("hits1", 0.0)), repr(r.get("hits3", 0.0)),
             repr(r.get("hits10", 0.0))] for r in report.per_relation]
    return header, rows


def cmd_evaluate(args) -> int:
    cfg = RunConfig.from_file(args.config)
    checkpoint = load_checkpoint(args.checkpoint)
    dataset = _load_dataset(cfg)
    split = args.split or cfg["eval.split"]
    directions = args.directions or cfg["eval.directions"]
    out = _out_dir(args)
    report = evaluation.evaluate_split(checkpoint, dataset, split, directions)
    payload = report.to_dict()
    if args.group_by:
        if args.group_by == "frequency":
            grouping = "frequency"
        elif args.group_by == "groups":
            path = args.group_file or cfg["groups.file"]
            if not path:
                raise UsageError("--group-by groups needs --group-file")
            grouping = load_relation_groups(path)
        elif args.group_by == "relation":
            if not args.relation:
                raise UsageError("--group-by relation needs --relation NAME")
            rel_id = dataset.vocabulary.relation_ids.get(args.relation)
            if rel_id is None:
                raise DataError(f"unknown relation {args.relation!r}")
            grouping = rel_id
        else:
            raise UsageError(f"unknown grouping {args.group_by!r}")
        grouped = evaluation.evaluate_grouped(
            checkpoint, dataset, grouping, split, directions,
            num_buckets=cfg["eval.buckets"])
        payload["groups"] = {name: rep.to_dict() for name, rep in grouped.items()}
        _write_csv(out / "eval_groups.csv",
                   ["group", "queries", "mrr", "hits1", "hits3", "hits10"],
                   [[name, rep.query_count, repr(rep.mrr), repr(rep.hits[1]),
                     repr(rep.hits[3]), repr(rep.hits[10])]
                    for name, rep in sorted(grouped.items())])
    _write_json(out / "eval.json", payload, args.deterministic)
    header, rows = _per_relation_rows(report)
    _write_csv(out / "eval_per_relation.csv", header, rows)
    print(f"{split} MRR={report.mrr:.4f} "
          + " ".join(f"H@{k}={v:.4f}" for k, v in sorted(report.hits.items())))
    return 0


def _cluster_vectors_from_checkpoint(checkpoint: Checkpoint, groups, target: str,
                                     entity_id: int):
    """Group ET factor vectors (or transformed embeddings of one entity) by
    relation group."""
    from . import transforms as T

    store, model, filt = checkpoint.store, checkpoint.model, checkpoint.filter
    if filt.kind == "none":
        raise DataError("checkpoint has no entity transformation to analyze")
    num_entities = store["entity"].shape[0]
    if target == "ee" and not 0 <= entity_id < num_entities:
        raise DataError(f"entity id {entity_id} outside [0, {num_entities})")
    resolved, unknown = groups.resolve(checkpoint.vocabulary)
    clusters: dict[str, list[np.ndarray]] = {}
    for rel_id, group in sorted(resolved.items()):
        rel_rows = np.asarray([rel_id])
        rel = store["relation"][rel_rows]
        op = T.et_build(filt, store, rel, rel_rows, model.dim)
        if target == "et":
            vec = op.factor_vectors()[0]
        else:
            ent = store["entity"][np.asarray([entity_id])]
            vec = T.et_apply(op, ent)[0]
        clusters.setdefault(group, []).append(vec)
    return clusters, unknown


def _cluster_vectors_from_csv(path):
    clusters: dict[str, list[np.ndarray]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row:
                continue
            clusters.setdefault(row[0], []).append(
                np.asarray([float(v) for v in row[1:]]))
    if not clusters:
        raise DataError(f"no vectors in {path}")
    return clusters, 0


def cmd_analyze_clusters(args) -> int:
    if args.vectors:
        clusters, unknown = _cluster_vectors_from_csv(args.vectors)
    else:
        if not (args.checkpoint and args.group_file):
            raise UsageError("need either --vectors or --checkpoint with --group-file")
        checkpoint = load_checkpoint(args.checkpoint)
        groups = load_relation_groups(args.group_file)
        clusters, unknown = _cluster_vectors_from_checkpoint(
            checkpoint, groups, args.target, args.entity)
    names = sorted(clusters)
    report = analysis.cluster_report([clusters[n] for n in names],
                                     literal_n=args.literal_n)
    payload = report.to_dict()
    payload["clusters"] = names
    payload["unknown_relations"] = unknown
    out = _out_dir(args)
    _write_json(out / "clusters.json", payload, args.deterministic)
    print(f"intra={report.intra_mean:.4f} inter={report.inter_mean:.4f} "
          f"({len(names)} clusters)")
    return 0


def cmd_analyze_scales(args) -> int:
    if args.sample is not None and args.sample < 1:
        raise UsageError(f"--sample must be at least 1, got {args.sample}")
    cfg = RunConfig.from_file(args.config)
    sample_size = args.sample or cfg["analysis.sample"]
    if sample_size < 1:
        raise ConfigError(f"analysis.sample must be at least 1, got {sample_size}")
    checkpoint = load_checkpoint(args.checkpoint)
    dataset = _load_dataset(cfg)
    arr = dataset.split_array("train")
    take = min(sample_size, arr.shape[0])
    idx = Rng(checkpoint.config.seed).derive("telemetry").generator().choice(
        arr.shape[0], size=take, replace=False)
    record = analysis.scale_trace(checkpoint.store, checkpoint.model,
                                  checkpoint.filter, arr[idx])
    out = _out_dir(args)
    _write_json(out / "scales.json", {
        "transformation_scale": record.transformation_scale,
        "rt_scale": record.rt_scale,
        "embedding_scale": record.embedding_scale,
        "sampled_triples": int(take),
    }, args.deterministic)
    print(f"transformation_scale={record.transformation_scale} "
          f"embedding_scale={record.embedding_scale:.6f}")
    return 0


def cmd_export_scores(args) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    vocab = checkpoint.vocabulary
    queries = []
    for h_name, r_name in load_pairs(args.queries):
        h = vocab.entity_ids.get(h_name)
        r = vocab.relation_ids.get(r_name)
        if h is None or r is None:
            raise DataError(f"unknown query ({h_name!r}, {r_name!r})")
        queries.append((h, r))
    out = _out_dir(args)
    matrix = analysis.export_score_distribution(checkpoint, queries,
                                                out / "scores.csv")
    print(f"wrote {matrix.shape[0]} x {matrix.shape[1]} score matrix")
    return 0


def load_pairs(path) -> list[tuple[str, str]]:
    pairs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise DataError(f"{path}:{lineno}: expected 'head<TAB>relation'")
            pairs.append((fields[0], fields[1]))
    return pairs


def cmd_simulate_consistency(args) -> int:
    cfg = analysis.ConsistencySimConfig(
        dim=args.dim, samples=args.samples, p=args.p, seed=args.seed or 0,
        thresholds=tuple(float(t) for t in args.thresholds.split(",")),
        workers=args.workers)
    report = analysis.monte_carlo_consistency(cfg)
    out = _out_dir(args)
    _write_json(out / "consistency.json", report.to_dict(), args.deterministic)
    for row in analysis.ROW_NAMES:
        cells = " ".join(f"{report.rates[row][c]:.3f}" for c in report.columns)
        print(f"{row:15s} {cells}")
    return 0


def cmd_check_gradients(args) -> int:
    results = run_grid(seed=args.seed if args.seed is not None else 3,
                       dim=args.dim, triples=args.triples,
                       coords_per_table=args.coords)
    worst = max(r.max_rel_error for r in results)
    out = _out_dir(args)
    _write_json(out / "gradient_check.json", {
        "combos": [vars(r) for r in results],
        "max_rel_error": worst,
        "tolerance": args.tolerance,
        "passed": bool(worst < args.tolerance),
    }, args.deterministic)
    print(f"{len(results)} combinations, max relative error {worst:.3e}")
    return 0 if worst < args.tolerance else 3


def cmd_check_dura_sign(args) -> int:
    report = analysis.dura_sign_check(args.trials, Rng(args.seed or 0))
    out = _out_dir(args)
    _write_json(out / "dura_sign.json", report.to_dict(), args.deterministic)
    print(f"{args.trials} trials, {len(report.failures)} sign violations")
    return 0 if report.passed else 3


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="rscf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=False, checkpoint=False):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--deterministic", action="store_true",
                       help="suppress timestamps for byte-identical reruns")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        if config:
            p.add_argument("--config", required=True, help="run config file")
        if checkpoint:
            p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("train", help="train a model per the config")
    common(p, config=True)
    p.add_argument("--resume", help="checkpoint to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", help="filtered-ranking metrics on a split")
    common(p, config=True, checkpoint=True)
    p.add_argument("--split", choices=("train", "valid", "test"), default=None)
    p.add_argument("--directions", choices=("tail", "head", "both"), default=None)
    p.add_argument("--group-by", choices=("frequency", "groups", "relation"),
                   default=None)
    p.add_argument("--group-file")
    p.add_argument("--relation")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("analyze-clusters",
                       help="intra/inter cluster distances of filter vectors")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--group-file")
    p.add_argument("--vectors", help="labeled vector CSV instead of a checkpoint")
    p.add_argument("--target", choices=("et", "ee"), default="et")
    p.add_argument("--entity", type=int, default=0,
                   help="entity id for --target ee")
    p.add_argument("--literal-n", action="store_true",
                   help="divide by cluster count instead of per-cluster means")
    p.set_defaults(fn=cmd_analyze_clusters)

    p = sub.add_parser("analyze-scales",
                       help="transformation / embedding scale of a checkpoint")
    common(p, config=True, checkpoint=True)
    p.add_argument("--sample", type=int, default=None)
    p.set_defaults(fn=cmd_analyze_scales)

    p = sub.add_parser("export-scores",
                       help="candidate-score matrix for (head, relation) queries")
    common(p, checkpoint=True)
    p.add_argument("--queries", required=True,
                   help="TSV file of head<TAB>relation names")
    p.set_defaults(fn=cmd_export_scores)

    p = sub.add_parser("simulate-consistency",
                       help="Monte Carlo ordering-preservation rates")
    common(p)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--p", type=int, choices=(1, 2), default=2)
    p.add_argument("--thresholds", default="1,1.01,1.02")
    p.add_argument("--workers", type=int, default=1,
                   help="threads computing the table's columns")
    p.set_defaults(fn=cmd_simulate_consistency)

    p = sub.add_parser("check-gradients",
                       help="finite-difference check over the full combo grid")
    common(p)
    p.add_argument("--dim", type=int, default=6)
    p.add_argument("--triples", type=int, default=5)
    p.add_argument("--coords", type=int, default=64,
                   help="coordinates checked per table")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_check_gradients)

    p = sub.add_parser("check-dura-sign",
                       help="sign test of the regularizer's shrinking gradient")
    common(p)
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(fn=cmd_check_dura_sign)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except (DataError, FileNotFoundError, IsADirectoryError, PermissionError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return 2
    except NumericalError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except RscfError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
