"""Command-line interface.

Subcommands: schemes, score, train, extend, evaluate, experiment,
plot-data.  All commands read a JSON run configuration (see README) and
derive every random stream from one root seed, so a run is reproducible
from its config file and seed alone.

Exit codes: 0 success, 2 usage error, 3 data integrity error, 4 numeric
failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import IntegrityError, NumericError, SchemaError, UsageError
from .evaluation import (
    ExperimentConfig,
    apply_kernel_overrides,
    compute_scores,
    cross_validate,
    dynamic_protocol,
    make_folds,
    run_experiment,
    strip_attribute,
    write_report,
)
from .extension import ExtensionConfig, extend_embedding
from .kernels import default_kernels
from .model_io import export_embeddings_csv, load_model, save_model
from .relational import Fact, insert_facts, load_database, load_schema, read_relation_csv
from .schemes import enumerate_targeted_schemes, scheme_text, targeted_text
from .selection import online_elimination_train, ranked, select
from .trainer import train

MANIFEST_FORMAT_VERSION = 1


def _config_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json_atomic(doc: dict, path: Path) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    tmp.replace(path)


class Manifest:
    """Run manifest: written when a command starts, finalised when it ends."""

    def __init__(self, out_dir: Path, command: str, config_path: Path | None, seed: int) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        self.path = out_dir / "manifest.json"
        self.doc = {
            "format_version": MANIFEST_FORMAT_VERSION,
            "command": command,
            "config_hash": _config_hash(config_path) if config_path else None,
            "root_seed": seed,
            "package_version": __version__,
            "numpy_version": np.__version__,
            "python_version": sys.version.split()[0],
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "status": "running",
            "outputs": [],
        }
        _write_json_atomic(self.doc, self.path)

    def finish(self, outputs: list[Path]) -> None:
        self.doc["status"] = "complete"
        self.doc["finished_at"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        self.doc["outputs"] = [str(p) for p in outputs]
        _write_json_atomic(self.doc, self.path)


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if not args.config:
        raise UsageError("this command requires --config")
    path = Path(args.config)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"config is not valid JSON: {exc}") from exc
    config = ExperimentConfig.from_dict(doc, base_dir=path.parent)
    if args.seed is not None:
        config.trainer = replace(config.trainer, seed=args.seed)
        config.seeds = tuple(args.seed + i for i in range(len(config.seeds)))
    if args.workers is not None:
        config.workers = args.workers
    return config


def _prepare_task(config: ExperimentConfig):
    schema = load_schema(config.schema_path)
    raw_db = load_database(schema, config.data_dir)
    db, task = strip_attribute(raw_db, config.task_relation, config.task_attribute)
    schemes = enumerate_targeted_schemes(db.schema, config.task_relation, config.max_length)
    kernels = apply_kernel_overrides(default_kernels(db), config.kernel_overrides)
    return db, task, schemes, kernels


# -- subcommands ---------------------------------------------------------------


def cmd_schemes(args: argparse.Namespace) -> int:
    schema = load_schema(args.schema)
    schemes = enumerate_targeted_schemes(schema, args.start, args.max_length)
    for tws in schemes:
        print(targeted_text(tws))
    print(f"# targeted schemes: {len(schemes)}")
    if args.stats:
        plain = {t.scheme for t in schemes}
        avg = sum(s.length for s in plain) / len(plain) if plain else 0.0
        print(f"# walk schemes: {len(plain)}")
        print(f"# average length: {avg:.2f}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = Path(args.out_dir)
    manifest = Manifest(out_dir, "score", Path(args.config), config.trainer.seed)
    db, _, schemes, kernels = _prepare_task(config)
    if args.strategy == "online":
        raise UsageError("the online strategy scores nothing up front; use it with `train`")
    scores = compute_scores(args.strategy, db, schemes, config.trainer, kernels, config)
    outputs: list[Path] = []
    score_path = out_dir / f"scores_{args.strategy}.csv"
    with open(score_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme_text", "target_attr", "strategy", "score", "rank", "diagnostics"])
        for rank, sc in ranked(scores):
            writer.writerow(
                [scheme_text(sc.tws.scheme), sc.tws.target_attr, sc.strategy, repr(sc.score), rank, sc.diagnostic]
            )
    outputs.append(score_path)
    for ratio in config.ratios:
        selection = select(scores, ratio)
        sel_path = out_dir / f"selection_{args.strategy}_{ratio:g}.json"
        _write_json_atomic(
            {
                "format_version": 1,
                "strategy": args.strategy,
                "ratio": ratio,
                "seed": config.trainer.seed,
                "kept": [targeted_text(t) for t in selection.kept],
                "removed": [targeted_text(t) for t in selection.removed],
            },
            sel_path,
        )
        outputs.append(sel_path)
    manifest.finish(outputs)
    for p in outputs:
        print(p)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = Path(args.out_dir)
    manifest = Manifest(out_dir, "train", Path(args.config), config.trainer.seed)
    db, _, schemes, kernels = _prepare_task(config)

    strategy = args.strategy
    if args.selection and strategy:
        raise UsageError("--selection and --strategy are mutually exclusive")
    history = None
    if args.selection:
        with open(args.selection, encoding="utf-8") as fh:
            manifest_doc = json.load(fh)
        by_text = {targeted_text(t): t for t in schemes}
        try:
            kept = [by_text[text] for text in manifest_doc["kept"]]
        except KeyError as exc:
            raise UsageError(f"selection manifest names an unknown scheme: {exc}") from None
        print(f"kept {len(kept)} of {len(schemes)} schemes from {args.selection}")
        model, history = train(db, config.task_relation, kept, config.trainer, kernels)
    elif strategy == "online":
        model, history, schedule = online_elimination_train(
            db,
            config.task_relation,
            schemes,
            config.trainer,
            args.ratio,
            per_epoch_removals=config.per_epoch_removals,
            kernels=kernels,
        )
        print(f"online schedule (active schemes per epoch): {schedule.counts}")
    else:
        kept = schemes
        if strategy is not None:
            scores = compute_scores(strategy, db, schemes, config.trainer, kernels, config)
            kept = list(select(scores, args.ratio).kept)
            print(f"kept {len(kept)} of {len(schemes)} schemes via {strategy} at ratio {args.ratio}")
        model, history = train(db, config.task_relation, kept, config.trainer, kernels)

    outputs: list[Path] = []
    model_path = Path(args.model_out) if args.model_out else out_dir / "model.json"
    save_model(model, db, model_path)
    outputs.append(model_path)
    emb_path = out_dir / "embeddings.csv"
    export_embeddings_csv(model, db, emb_path)
    outputs.append(emb_path)
    log_path = out_dir / "training_log.csv"
    with open(log_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["epoch", "scheme_text", "target_attr", "epoch_loss", "cumulative_loss", "wall_time", "samples_used", "samples_skipped"]
        )
        for stats in history:
            for tws, loss in stats.epoch_mean_loss.items():
                writer.writerow(
                    [
                        stats.epoch_index,
                        scheme_text(tws.scheme),
                        tws.target_attr,
                        repr(loss),
                        repr(stats.cumulative_mean_loss.get(tws)),
                        repr(stats.wall_time),
                        stats.samples_used,
                        stats.samples_skipped,
                    ]
                )
    outputs.append(log_path)
    manifest.finish(outputs)
    for p in outputs:
        print(p)
    return 0


def cmd_extend(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = Path(args.out_dir)
    manifest = Manifest(out_dir, "extend", Path(args.config), config.trainer.seed)
    db, _, _, _ = _prepare_task(config)
    model = load_model(args.model, db)

    new_dir = Path(args.new_dir)
    if not new_dir.exists():
        raise UsageError(f"--new-dir not found: {new_dir}")
    batch: list[Fact] = []
    for rel in db.schema.relations:
        path = new_dir / f"{rel.name}.csv"
        if not path.exists():
            continue
        batch.extend(Fact(rel.name, values) for values in read_relation_csv(rel, path))
    db_new = insert_facts(db, batch)
    new_ids = list(range(db.n_facts, db_new.n_facts))
    new_start = [f for f in new_ids if db_new.fact(f).relation == model.start_relation]
    if new_start:
        ext_cfg = ExtensionConfig(
            exhaustive_partners=args.exhaustive,
            exact_targets=args.exact,
        )
        kernels = apply_kernel_overrides(default_kernels(db_new), config.kernel_overrides)
        extended = extend_embedding(
            db_new, model, new_start, ext_cfg, kernels, seed=config.trainer.seed
        )
    else:
        extended = model
    print(f"extended {len(new_start)} fact(s)")

    if args.verify and new_start:
        failed = _verify_clones(db, db_new, model, extended, new_start, args.exact and args.exhaustive)
        if failed:
            raise NumericError(f"clone residual check failed for {failed} new fact(s)")

    outputs: list[Path] = []
    model_path = Path(args.model_out) if args.model_out else out_dir / "model_extended.json"
    save_model(extended, db_new, model_path)
    outputs.append(model_path)
    emb_path = out_dir / "embeddings_new.csv"
    export_embeddings_csv(extended, db_new, emb_path, fact_ids=new_start)
    outputs.append(emb_path)
    manifest.finish(outputs)
    for p in outputs:
        print(p)
    return 0


def _verify_clones(db, db_new, model, extended, new_start, strict: bool) -> int:
    """Clone residual diagnostics.

    A new fact that structurally duplicates an existing one (same non-key
    values; the walks see the same neighbourhood) should pick up bilinear
    responses matching its twin's.  With exact targets and exhaustive
    partners that residual is gated at 1e-6; it holds when the model's
    responses reproduce expected kernel distances (a converged or
    constructed model).  In sampled mode the residual is reported only.
    """
    from .trainer import bilinear

    schema = db_new.schema
    failures = 0
    partners = sorted(model.phi.keys())
    for fid in new_start:
        fact = db_new.fact(fid)
        rel = schema.relation(fact.relation)
        key_pos = {rel.attr_index(a) for a in rel.key}
        twin = None
        for cand in db.relation_fact_ids(fact.relation):
            cand_fact = db.fact(cand)
            if all(
                cand_fact.values[i] == fact.values[i]
                for i in range(len(fact.values))
                if i not in key_pos
            ):
                twin = cand
                break
        if twin is None:
            print(f"verify: no structural twin for new fact {fid}; skipped")
            continue
        worst = 0.0
        for tws in extended.active_schemes:
            for p in partners:
                delta = abs(
                    bilinear(extended, fid, p, tws) - bilinear(extended, twin, p, tws)
                )
                worst = max(worst, delta)
        if strict:
            status = "ok" if worst <= 1e-6 else "FAIL"
            print(f"verify: fact {fid} vs twin {twin}: max residual {worst:.3e} ({status})")
            if worst > 1e-6:
                failures += 1
        else:
            print(f"verify: fact {fid} vs twin {twin}: max residual {worst:.3e}")
    return failures


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_config(args)
    db, task, _, _ = _prepare_task(config)
    model = load_model(args.model, db)
    labeled = sorted(task.labels)
    labels = [task.labels[f] for f in labeled]
    missing = [f for f in labeled if f not in model.phi]
    if missing:
        raise UsageError(f"model lacks embeddings for {len(missing)} labeled facts")
    X = np.stack([model.phi[f] for f in labeled])
    folds = make_folds(labels, config.folds, config.split_seed)
    acc = cross_validate(X, labels, fold_assign=folds)
    print(f"accuracy={acc:.4f} over {len(labeled)} labeled facts, {config.folds} folds")
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    config = _load_config(args)
    out_dir = Path(args.out_dir)
    manifest = Manifest(out_dir, "experiment", Path(args.config), config.trainer.seed)
    report = run_experiment(config)
    outputs = write_report(report, out_dir)

    if args.dynamic is not None:
        fractions = tuple(float(x) for x in args.dynamic.split(",")) if args.dynamic else (
            0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
        )
        schema = load_schema(config.schema_path)
        raw_db = load_database(schema, config.data_dir)
        rows = []
        for strategy in (None, *config.strategies):
            if strategy == "online":
                continue
            points = dynamic_protocol(
                raw_db,
                config.task_relation,
                config.task_attribute,
                config.max_length,
                config.trainer,
                fractions=fractions,
                strategy=strategy,
                ratio=config.ratios[0] if strategy else 1.0,
                config=config,
                seed=config.trainer.seed,
            )
            label = strategy or "baseline"
            rows.extend((label, p.fraction_deleted, p.n_inserted, p.accuracy) for p in points)
        dyn_path = out_dir / "dynamic.csv"
        with open(dyn_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["strategy", "fraction_deleted", "n_inserted", "accuracy"])
            writer.writerows(rows)
        outputs.append(dyn_path)

    manifest.finish(outputs)
    print(f"baseline accuracy: {report.baseline_accuracy:.4f}")
    print(f"accuracy threshold (95%): {report.alpha_star:.4f}")
    for (strategy, ratio), t in sorted(report.t_star.items()):
        shown = "never" if t is None else f"{t:.3f}s"
        print(f"t*({strategy}, r={ratio:g}) = {shown}")
    for p in outputs:
        print(p)
    return 0


def cmd_plot_data(args: argparse.Namespace) -> int:
    report_path = Path(args.report)
    if report_path.is_dir():
        report_path = report_path / "report.json"
    if not report_path.exists():
        raise UsageError(f"report not found: {report_path}")
    with open(report_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format_version") != 1:
        raise UsageError(f"unsupported report format version {doc.get('format_version')!r}")
    out = Path(args.out) if args.out else report_path.parent / "plotdata.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["strategy", "ratio", "series", "seconds", "accuracy"])
        for cell in doc["cells"]:
            for t, a in cell["points"]:
                writer.writerow([cell["strategy"], cell["ratio"], f"seed{cell['seed']}", repr(t), repr(a)])
        for ens in doc["ensembles"]:
            for t, a in ens["points"]:
                writer.writerow([ens["strategy"], ens["ratio"], "ensemble", repr(t), repr(a)])
    print(out)
    return 0


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walkembed",
        description="Tuple embeddings for relational databases via foreign-key walks",
    )
    parser.add_argument("--seed", type=int, default=None, help="root seed, overrides the config")
    parser.add_argument("--workers", type=int, default=None, help="parallel grid workers")
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schemes", help="enumerate targeted walk schemes")
    p.add_argument("--schema", required=True)
    p.add_argument("--start", required=True)
    p.add_argument("--max-length", type=int, required=True)
    p.add_argument("--stats", action="store_true")
    p.set_defaults(fn=cmd_schemes)

    p = sub.add_parser("score", help="score and select schemes with one strategy")
    p.add_argument("--config", required=True)
    p.add_argument("--strategy", required=True)
    p.set_defaults(fn=cmd_score)

    p = sub.add_parser("train", help="train embeddings")
    p.add_argument("--config", required=True)
    p.add_argument("--strategy", default=None, help="optional selection strategy")
    p.add_argument("--ratio", type=float, default=1.0)
    p.add_argument("--selection", default=None, help="selection manifest JSON from `score`")
    p.add_argument("--model-out", default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("extend", help="embed newly inserted facts")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--new-dir", required=True, help="directory of CSVs holding only the new rows")
    p.add_argument("--model-out", default=None)
    p.add_argument("--verify", action="store_true", help="check clone residuals")
    p.add_argument("--exact", action="store_true", help="exact expected-kernel-distance targets")
    p.add_argument("--exhaustive", action="store_true", help="use every existing fact as partner")
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("evaluate", help="cross-validated accuracy of a saved model")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("experiment", help="full strategy/ratio grid with timing curves")
    p.add_argument("--config", required=True)
    p.add_argument(
        "--dynamic",
        nargs="?",
        const="",
        default=None,
        help="also run the insert-and-extend protocol (optional comma list of deletion fractions)",
    )
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("plot-data", help="flatten a report into long-format CSV")
    p.add_argument("--report", required=True, help="report.json or its directory")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_plot_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SchemaError, IntegrityError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
