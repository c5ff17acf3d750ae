"""Command-line interface.

Subcommands: schemes, score, train, extend, evaluate, experiment,
plot-data.  All commands read a JSON run configuration (see README) and
derive every random stream from one root seed, so a run is reproducible
from its config file and seed alone.

Exit codes: 0 success, 2 usage error, 3 data integrity error, 4 numeric
failure.  ``main`` loads the config and opens and finalises the run manifest
of each command that writes files; the command returns its output paths.
"""

from __future__ import annotations

import argparse
import hashlib
import resource
import sys
import time
from contextlib import suppress
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import IntegrityError, NumericError, SchemaError, UsageError
from .evaluation import (
    ExperimentConfig,
    compute_scores,
    cross_validate,
    curve_path,
    dynamic_protocol,
    load_task,
    make_folds,
    run_experiment,
    write_report,
)
from .extension import ExtensionConfig, extend_embedding
from .files import check_writable, ensure_dir, json_array, json_field, read_json, write_csv, write_json
from .kernels import default_kernels
from .model_io import export_embeddings_csv, load_model, save_model
from .relational import insert_columns, load_database, load_schema, read_relation_columns
from .schemes import enumerate_targeted_schemes, scheme_text, targeted_text
from .selection import check_ratio, check_strategy, online_elimination_train, ranked, select
from .trainer import train

MANIFEST_FORMAT_VERSION = 1

# exit code and message prefix of each documented error
EXIT_CODES = {
    UsageError: (2, "error"),
    SchemaError: (3, "data error"),
    IntegrityError: (3, "data error"),
    NumericError: (4, "numeric error"),
}


class Manifest:
    """Run manifest: written when a command starts, finalised when it ends
    (before it starts, with no root seed, when the config is rejected)."""

    def __init__(self, out_dir: Path, command: str, config_path: Path) -> None:
        self.path = ensure_dir(out_dir) / "manifest.json"
        self.doc = {
            "format_version": MANIFEST_FORMAT_VERSION,
            "command": command,
            "config_hash": hashlib.sha256(config_path.read_bytes()).hexdigest(),
            "root_seed": None,
            "package_version": __version__,
            "numpy_version": np.__version__,
            "python_version": sys.version.split()[0],
            "started_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "status": "running",
            "outputs": [],
        }

    def start(self, seed: int) -> None:
        self.doc["root_seed"] = seed
        write_json(self.doc, self.path)

    def finish(self, status: str, outputs: list[Path], **failure) -> None:
        """Record ``status``, the outputs, and a failure's ``exit_code`` and ``error``."""
        self.doc.update(
            status=status,
            finished_at=time.strftime("%Y-%m-%dT%H:%M:%S"),
            outputs=[str(p) for p in outputs],
            # Linux reports the high-water mark of the resident set in KiB
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **failure,
        )
        write_json(self.doc, self.path)


def _load_config(args: argparse.Namespace, doc) -> ExperimentConfig:
    path = Path(args.config)
    try:
        config = ExperimentConfig.from_dict(doc, base_dir=path.parent)
    except UsageError as exc:
        raise UsageError(f"{path}: {exc}") from None
    if args.seed is not None:
        config = replace(
            config,
            trainer=replace(config.trainer, seed=args.seed),
            seeds=tuple(args.seed + i for i in range(len(config.seeds))),
        )
    if args.workers is not None:
        config = replace(config, workers=args.workers)  # validated like the file's value
    return config


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


def cmd_score(args: argparse.Namespace, config: ExperimentConfig, out_dir: Path) -> list[Path]:
    check_strategy(args.strategy)  # before any data is loaded
    if args.strategy == "online":
        raise UsageError("the online strategy scores nothing up front; use it with `train`")
    score_path = out_dir / f"scores_{args.strategy}.csv"
    sel_paths = [out_dir / f"selection_{args.strategy}_{ratio:g}.json" for ratio in config.ratios]
    check_writable(score_path, *sel_paths)
    db, _, schemes, kernels = load_task(config)
    scores = compute_scores(args.strategy, db, schemes, config.trainer, kernels, config)
    write_csv(score_path, ["scheme_text", "target_attr", "strategy", "score", "rank", "diagnostics"], (
        [scheme_text(sc.tws.scheme), sc.tws.target_attr, sc.strategy, repr(sc.score), rank, sc.diagnostic]
        for rank, sc in ranked(scores)
    ))
    outputs = [score_path]
    for ratio, sel_path in zip(config.ratios, sel_paths):
        selection = select(scores, ratio)
        write_json(
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
    return outputs


def cmd_train(args: argparse.Namespace, config: ExperimentConfig, out_dir: Path) -> list[Path]:
    model_path = Path(args.model_out) if args.model_out else out_dir / "model.json"
    emb_path, log_path = out_dir / "embeddings.csv", out_dir / "training_log.csv"
    strategy = args.strategy
    if args.selection and strategy:
        raise UsageError("--selection and --strategy are mutually exclusive")
    if strategy is not None:  # before any data is loaded
        check_strategy(strategy)
        check_ratio(args.ratio)
    check_writable(model_path, emb_path, log_path)
    db, _, schemes, kernels = load_task(config)

    history = None
    if args.selection:
        texts = json_field(read_json(args.selection, "selection manifest"), "kept", list, args.selection)
        if not all(isinstance(text, str) for text in texts):
            raise IntegrityError(f"{args.selection}: field kept is not a list of scheme texts")
        by_text = {targeted_text(t): t for t in schemes}
        try:
            kept = [by_text[text] for text in texts]
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

    save_model(model, db, model_path)
    export_embeddings_csv(model, db, emb_path)
    phases = ("sample", "kernel", "sgd", "check")
    header = ["epoch", "scheme_text", "target_attr", "epoch_loss", "cumulative_loss", "wall_time", "samples_used",
              "samples_skipped", "sgd_levels", *(f"{phase}_s" for phase in phases)]
    write_csv(log_path, header, (
        [stats.epoch_index, scheme_text(tws.scheme), tws.target_attr, repr(loss),
         repr(stats.cumulative_mean_loss.get(tws)), repr(stats.wall_time), stats.samples_used, stats.samples_skipped,
         stats.sgd_levels, *(repr(stats.phase_seconds[phase]) for phase in phases)]
        for stats in history
        for tws, loss in stats.epoch_mean_loss.items()
    ))
    return [model_path, emb_path, log_path]


def cmd_extend(args: argparse.Namespace, config: ExperimentConfig, out_dir: Path) -> list[Path]:
    model_path = Path(args.model_out) if args.model_out else out_dir / "model_extended.json"
    emb_path = out_dir / "embeddings_new.csv"
    check_writable(model_path, emb_path)
    db, _, _, _ = load_task(config)
    model = load_model(args.model, db)

    new_dir = Path(args.new_dir)
    if not new_dir.is_dir():
        raise UsageError(f"--new-dir is not a directory: {new_dir}")
    columns = {}
    for rel in db.schema.relations:
        path = new_dir / f"{rel.name}.csv"
        if path.exists():
            columns[rel.name] = read_relation_columns(rel, path)
    db_new = insert_columns(db, columns)
    new_ids = list(range(db.n_facts, db_new.n_facts))
    new_start = [f for f in new_ids if db_new.relation_of(f) == model.start_relation]
    if new_start:
        ext_cfg = ExtensionConfig(
            exhaustive_partners=args.exhaustive,
            exact_targets=args.exact,
        )
        kernels = default_kernels(db_new, config.kernel_overrides)
        extended = extend_embedding(
            db_new, model, new_start, ext_cfg, kernels, seed=config.trainer.seed,
            retry_cap=config.trainer.retry_cap,
        )
    else:
        extended = model
    print(f"extended {len(new_start)} fact(s)")

    if args.verify and new_start:
        failed = _verify_clones(db, db_new, model, extended, new_start, args.exact and args.exhaustive)
        if failed:
            raise NumericError(f"clone residual check failed for {failed} new fact(s)")

    save_model(extended, db_new, model_path)
    export_embeddings_csv(extended, db_new, emb_path, fact_ids=new_start)
    return [model_path, emb_path]


def _verify_clones(db, db_new, model, extended, new_start, strict: bool) -> int:
    """Clone residual diagnostics.

    A new fact that structurally duplicates an existing one (same non-key
    values; the walks see the same neighbourhood) should pick up bilinear
    responses matching its twin's.  With exact targets and exhaustive
    partners that residual is gated at 1e-6; it holds when the model's
    responses reproduce expected kernel distances (a converged or
    constructed model).  In sampled mode the residual is reported only.
    """
    rel = db.schema.relation(model.start_relation)
    non_key = [i for i, a in enumerate(rel.attr_names) if a not in rel.key]
    twins: dict[tuple, int] = {}  # non-key values -> the first fact holding them, in id order
    for cand in db.relation_facts(rel.name):
        twins.setdefault(tuple(cand.values[i] for i in non_key), cand.fact_id)
    failures = 0
    partners = extended.phi.take(sorted(model.phi)).T
    psi = extended.psi.take(extended.active_schemes)
    for fid in new_start:
        values = db_new.fact(fid).values
        twin = twins.get(tuple(values[i] for i in non_key))
        if twin is None:
            print(f"verify: no structural twin for new fact {fid}; skipped")
            continue
        # responses of the fact and its twin to every (scheme, partner): (schemes, 2, partners)
        responses = extended.phi.take([fid, twin]) @ psi @ partners
        worst = float(np.abs(responses[:, 0] - responses[:, 1]).max(initial=0.0))
        status = (" (ok)" if worst <= 1e-6 else " (FAIL)") if strict else ""
        print(f"verify: fact {fid} vs twin {twin}: max residual {worst:.3e}{status}")
        failures += int(strict and worst > 1e-6)
    return failures


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _load_config(args, read_json(args.config, "config file", error=UsageError))
    db, task, _, _ = load_task(config)
    model = load_model(args.model, db)
    labeled = sorted(task.labels)
    labels = [task.labels[f] for f in labeled]
    missing = [f for f in labeled if f not in model.phi]
    if missing:
        raise UsageError(f"model lacks embeddings for {len(missing)} labeled facts")
    X = model.phi.take(labeled)
    folds = make_folds(labels, config.folds, config.split_seed)
    acc = cross_validate(X, labels, fold_assign=folds)
    print(f"accuracy={acc:.4f} over {len(labeled)} labeled facts, {config.folds} folds")
    return 0


def _deletion_fractions(text: str) -> tuple[float, ...]:
    """The ``--dynamic`` comma list, each entry a number strictly between
    0 and 1; the empty list means every tenth from 0.1 to 0.9."""
    if not text:
        return (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    fractions = []
    for entry in text.split(","):
        try:
            q = float(entry)
        except ValueError:
            raise UsageError(f"--dynamic: deletion fraction {entry!r} is not a number") from None
        if not 0.0 < q < 1.0:
            raise UsageError(f"--dynamic: deletion fraction {entry!r} must lie strictly between 0 and 1")
        fractions.append(q)
    return tuple(fractions)


def cmd_experiment(args: argparse.Namespace, config: ExperimentConfig, out_dir: Path) -> list[Path]:
    # checked before the grid trains, so a bad list or output path costs nothing
    fractions = None if args.dynamic is None else _deletion_fractions(args.dynamic)
    cells = [("baseline", 1.0), *((s, r) for s in config.strategies for r in config.ratios)]
    dyn_path = out_dir / "dynamic.csv"
    check_writable(out_dir / "report.json", *(curve_path(out_dir, *cell) for cell in cells))
    if fractions is not None:
        check_writable(dyn_path)
    report = run_experiment(config)
    outputs = write_report(report, out_dir)

    if fractions is not None:
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
        write_csv(dyn_path, ["strategy", "fraction_deleted", "n_inserted", "accuracy"], rows)
        outputs.append(dyn_path)

    print(f"baseline accuracy: {report.baseline_accuracy:.4f}")
    print(f"accuracy threshold (95%): {report.alpha_star:.4f}")
    for (strategy, ratio), t in sorted(report.t_star.items()):
        shown = "never" if t is None else f"{t:.3f}s"
        print(f"t*({strategy}, r={ratio:g}) = {shown}")
    return outputs


def cmd_plot_data(args: argparse.Namespace) -> int:
    report_path = Path(args.report)
    if report_path.is_dir():
        report_path = report_path / "report.json"
    doc = read_json(report_path, "report")
    if not isinstance(doc, dict):
        raise IntegrityError(f"{report_path}: the report is not a JSON object")
    version = doc.get("format_version")
    if version != 1:
        raise UsageError(f"unsupported report format version {version!r}")
    rows = []
    for name in ("cells", "ensembles"):
        for i, series in enumerate(json_field(doc, name, list, report_path)):
            where = f"{name}[{i}]"
            strategy = json_field(series, "strategy", str, report_path, f"{where}.strategy")
            ratio = json_field(series, "ratio", float, report_path, f"{where}.ratio")
            label = "ensemble"
            if name == "cells":
                label = f"seed{json_field(series, 'seed', int, report_path, f'{where}.seed')}"
            points = json_field(series, "points", list, report_path, f"{where}.points")
            json_array(points, (len(points), 2), "iuf", report_path, f"{where}.points")
            rows.extend([strategy, ratio, label, repr(t), repr(a)] for t, a in points)
    out = Path(args.out) if args.out else report_path.parent / "plotdata.csv"
    write_csv(out, ["strategy", "ratio", "series", "seconds", "accuracy"], rows)
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
    p.set_defaults(fn=cmd_score, writes=True)

    p = sub.add_parser("train", help="train embeddings")
    p.add_argument("--config", required=True)
    p.add_argument("--strategy", default=None, help="optional selection strategy")
    p.add_argument("--ratio", type=float, default=1.0)
    p.add_argument("--selection", default=None, help="selection manifest JSON from `score`")
    p.add_argument("--model-out", default=None)
    p.set_defaults(fn=cmd_train, writes=True)

    p = sub.add_parser("extend", help="embed newly inserted facts")
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--new-dir", required=True, help="directory of CSVs holding only the new rows")
    p.add_argument("--model-out", default=None)
    p.add_argument("--verify", action="store_true", help="check clone residuals")
    p.add_argument("--exact", action="store_true", help="exact expected-kernel-distance targets")
    p.add_argument("--exhaustive", action="store_true", help="use every existing fact as partner")
    p.set_defaults(fn=cmd_extend, writes=True)

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
    p.set_defaults(fn=cmd_experiment, writes=True)

    p = sub.add_parser("plot-data", help="flatten a report into long-format CSV")
    p.add_argument("--report", required=True, help="report.json or its directory")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_plot_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    manifest = None
    try:
        if not getattr(args, "writes", False):
            return args.fn(args)
        doc = read_json(args.config, "config file", error=UsageError)
        out_dir = Path(args.out_dir)
        manifest = Manifest(out_dir, args.command, Path(args.config))
        config = _load_config(args, doc)
        manifest.start(config.trainer.seed)
        outputs = args.fn(args, config, out_dir)
        manifest.finish("complete", outputs)
        for p in outputs:
            print(p)
        return 0
    except tuple(EXIT_CODES) as exc:
        code, prefix = EXIT_CODES[type(exc)]
        print(f"{prefix}: {exc}", file=sys.stderr)
        if manifest is not None:
            with suppress(UsageError):  # the run's own error and exit code win over the manifest's
                manifest.finish("failed", [], exit_code=code, error=str(exc))
        return code


if __name__ == "__main__":
    sys.exit(main())
