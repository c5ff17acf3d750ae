"""The three benchmark workloads.

Each workload reads the inputs ``inputs.py`` generated, sets up (timed,
several times), then runs one operation at a time in a closed loop with a
single caller.  Every call into walkembed goes through a module attribute
(``relational.load_database``, not a name imported here), so the tracer's
patches see it.

``finish`` runs the workload's output checks and returns the figures the
run reports: the user-facing values named after what the user sees, and
``quality``, the workload's accuracy-type score in [0, 1].
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from walkembed import cli, evaluation, extension, kernels, model_io, relational, schemes, selection, trainer
from walkembed.synth import PlantedSetup


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def _median(xs) -> float:
    return float(np.median(np.asarray(xs, dtype=np.float64)))


def _load(inputs: Path, max_length: int):
    """Database, task, targeted schemes and kernels, as every command sets up."""
    schema = relational.load_schema(inputs / "schema.json")
    raw = relational.load_database(schema, inputs / "data")
    db, task = evaluation.strip_attribute(raw, "item", "cls")
    tws = schemes.enumerate_targeted_schemes(db.schema, "item", max_length)
    return db, task, tws, kernels.default_kernels(db)


class Workload:
    name = ""
    why = ""
    setup_reps = 3
    min_ops = 1
    # Log-log slope of operation time on reference time across runs; the
    # operation times are scaled by (nominal / reference) ** SPEED_EXPONENT.
    SPEED_EXPONENT = 1.0

    def __init__(self, inputs: Path, work: Path, seed: int) -> None:
        self.inputs = inputs
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0

    def setup(self) -> None:
        raise NotImplementedError

    def before_op(self) -> None:
        """Untimed bookkeeping before the next operation."""

    def op(self) -> None:
        raise NotImplementedError

    def finish(
        self, op_times: list[float], op_scale: list[float]
    ) -> tuple[list[Check], dict[str, tuple[float, str]], float]:
        """Checks, named values and quality, given each operation's scaled
        time and the scale applied to it (see REF_NOMINAL_S in run.py)."""
        raise NotImplementedError


class Experiment(Workload):
    name = "experiment"
    why = (
        "trainer-dominated: a full `walkembed experiment` grid, so sampling, SGD and CV "
        "changes show; extension and insert changes should not"
    )
    setup_reps = 15
    min_ops = 3
    ACCURACY_FLOOR = 0.9

    def setup(self) -> None:
        # The CLI loads the database again inside every operation; this is
        # the ready-state cost a user pays before the first command.
        _load(self.inputs, max_length=1)
        self.config = json.loads((self.inputs / "config.json").read_text(encoding="utf-8"))
        self.reports: list[dict] = []

    def op(self) -> None:
        out = self.work / "experiment"
        argv = ["--out-dir", str(out), "experiment", "--config", str(self.inputs / "config.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        cfg = self.config
        attempted = len(cfg["seeds"]) * (1 + len(cfg["strategies"]) * len(cfg["ratios"])) + len(cfg["strategies"])
        self.attempted += attempted
        if rc != 0:
            self.failed += attempted
            self.reports.append({"rc": rc})
            return
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        report["rc"] = rc
        self.failed += len(report["failures"])
        self.reports.append(report)

    def finish(self, op_times, op_scale):
        ok = [(r, k) for r, k in zip(self.reports, op_scale) if r["rc"] == 0]
        t_star = [
            next((t["t"] * k for t in r["t_star"] if t["strategy"] == "kvar" and t["ratio"] == 0.5), None)
            for r, k in ok
        ]
        acc = [r["baseline_accuracy"] for r, _k in ok]
        checks = [
            Check("exit code 0", len(ok) == len(self.reports), f"{len(ok)} of {len(self.reports)} runs"),
            Check("report.failures empty", all(not r["failures"] for r, _k in ok), ""),
            Check(
                f"baseline accuracy >= {self.ACCURACY_FLOOR}",
                bool(acc) and min(acc) >= self.ACCURACY_FLOOR,
                f"min {min(acc, default=float('nan')):.4f}",
            ),
            Check("same accuracy on every run", len(set(acc)) == 1, f"{sorted(set(acc))}"),
            Check("t*(kvar, 0.5) reached", bool(t_star) and None not in t_star, f"{t_star}"),
        ]
        reached = [t for t in t_star if t is not None]
        accuracy = _median(acc) if acc else float("nan")
        values = {
            "experiment_s": (_median(op_times), "s"),
            "t_star_s": (_median(reached) if reached else float("nan"), "s"),
            "accuracy": (accuracy, "fraction"),
        }
        return checks, values, accuracy


class Select(Workload):
    name = "select"
    why = (
        "trainer-free: kvar and mi over every scheme of length <= 2 on 42k facts with nullable "
        "numeric columns, so sampling, kernels and scoring dominate"
    )
    setup_reps = 3
    min_ops = 3
    PAIR_BUDGET = 1000
    WALK_BUDGET = 2000
    RATIO = 0.5

    def setup(self) -> None:
        self.db, _task, self.schemes, self.kernels = _load(self.inputs, max_length=2)
        self.scores: list[dict[str, list[float] | None]] = []

    def op(self) -> None:
        got: dict[str, list[float] | None] = {}
        for strategy, score in (
            ("kvar", lambda: selection.score_kvar(self.db, self.schemes, self.kernels, self.PAIR_BUDGET, self.seed)),
            ("mi", lambda: selection.score_mi(self.db, self.schemes, self.WALK_BUDGET, self.seed)),
        ):
            self.attempted += 1
            try:
                scored = score()
                selection.select(scored, self.RATIO)
            except Exception:  # a scorer that raises is a failed operation
                self.failed += 1
                got[strategy] = None
                continue
            got[strategy] = [s.score for s in scored] if [s.tws for s in scored] == self.schemes else None
        self.scores.append(got)

    def finish(self, op_times, op_scale):
        first = self.scores[0]
        kvar = first["kvar"] or []
        planted = PlantedSetup(self.db.schema, self.db, "item", "cls", 0, True)
        kind = [planted.kind_of(t) for t in self.schemes]
        informative = [s for s, k in zip(kvar, kind) if k == "informative"]
        noise = [s for s, k in zip(kvar, kind) if k.startswith("noise")]
        others = [s for s, k in zip(kvar, kind) if k != "informative"]
        every = all(
            got[s] is not None and all(math.isfinite(v) for v in got[s]) for got in self.scores for s in got
        )
        checks = [
            Check("every scheme scored by kvar and mi", every, f"{len(self.schemes)} schemes"),
            Check(
                "kvar ranks informative above planted noise",
                bool(informative) and bool(noise) and min(informative) > max(noise),
                f"{len(informative)} informative, {len(noise)} noise",
            ),
            Check("same seed gives identical scores", all(got == first for got in self.scores), f"{len(self.scores)} passes"),
        ]
        # share of (informative, other) scheme pairs that kvar orders correctly
        pairs = [(a > b) + 0.5 * (a == b) for a in informative for b in others]
        auc = float(np.mean(pairs)) if pairs else float("nan")
        values = {"select_s": (_median(op_times), "s"), "kvar_auc": (auc, "fraction")}
        return checks, values, auc


class Insert(Workload):
    name = "insert"
    why = (
        "write path: 5-item batches through insert_facts and extend_embedding on a 38k-fact "
        "base, so per-call and per-database-size costs dominate"
    )
    setup_reps = 3
    min_ops = 100
    # Over ten runs on a 2-vCPU Xeon VM the median batch time grew as the
    # 1.56th power of the reference time (correlation 0.99): the index
    # copies in insert_facts and the step-table rebuilds suffer more from
    # memory contention than the reference.  Experiment and select tracked
    # it with slopes 0.9 and 1.0.
    SPEED_EXPONENT = 1.5
    BATCH = 5
    TRAIN = trainer.TrainConfig(k=16, n_samples=1, epochs=4, learning_rate=0.15)
    EXTEND = extension.ExtensionConfig()
    ACCURACY_FLOOR = 0.8

    def __init__(self, inputs, work, seed) -> None:
        super().__init__(inputs, work, seed)
        items = json.loads((inputs / "new_items.json").read_text(encoding="utf-8"))
        self.labels = {it["key"]: it["label"] for it in items}
        self.batches = [
            [relational.Fact(rel, tuple(values)) for it in items[i : i + self.BATCH] for rel, values in it["rows"]]
            for i in range(0, len(items), self.BATCH)
        ]
        self.cycle: list = []  # (item key, embedding) of the tuples inserted so far in this cycle
        self.first_cycle: list | None = None
        self.cycles = 0
        self.frozen = True
        self.repeatable = True
        self.pos = 0

    def setup(self) -> None:
        db, task, tws, kern = _load(self.inputs, max_length=1)
        model, _ = trainer.train(db, "item", tws, replace(self.TRAIN, seed=self.seed), kern)
        path = self.work / "model.json"
        model_io.save_model(model, db, path)
        loaded = model_io.load_model(path, db)
        self.db, self.task, self.kernels, self.model = db, task, kern, loaded
        self.round_trip_exact = all(np.array_equal(model.phi[f], loaded.phi[f]) for f in model.phi) and all(
            np.array_equal(model.psi[t], loaded.psi[t]) for t in model.psi
        )
        self.frozen_phi = {f: v.copy() for f, v in loaded.phi.items()}
        self.frozen_psi = {t: m.copy() for t, m in loaded.psi.items()}
        self.cur_db, self.cur_model = db, loaded

    def _end_cycle(self) -> None:
        self.cycles += 1
        self.frozen &= all(np.array_equal(self.cur_model.phi[f], v) for f, v in self.frozen_phi.items()) and all(
            np.array_equal(self.cur_model.psi[t], m) for t, m in self.frozen_psi.items()
        )
        if self.first_cycle is None:
            self.first_cycle = self.cycle
        else:  # the last cycle of a run may be cut short
            self.repeatable &= [(k, v.tobytes()) for k, v in self.cycle] == [
                (k, v.tobytes()) for k, v in self.first_cycle[: len(self.cycle)]
            ]
        self.cycle = []
        self.cur_db, self.cur_model = self.db, self.model

    def before_op(self) -> None:
        if self.pos == len(self.batches):
            self._end_cycle()
            self.pos = 0
        self.batch = self.batches[self.pos]
        self.batch_keys = [f.values[0] for f in self.batch if f.relation == "item"]
        self.pos += 1

    def op(self) -> None:
        n_items = len(self.batch_keys)
        self.attempted += n_items
        try:
            new_db = relational.insert_facts(self.cur_db, self.batch)
            new_ids = [f for f in range(self.cur_db.n_facts, new_db.n_facts) if new_db.fact(f).relation == "item"]
            self.cur_model = extension.extend_embedding(
                new_db, self.cur_model, new_ids, self.EXTEND, self.kernels, seed=self.seed
            )
            self.cur_db = new_db
            self.cycle.extend(zip(self.batch_keys, (self.cur_model.phi[f] for f in new_ids)))
        except Exception:  # a batch whose insert or extension raises fails all its tuples
            self.failed += n_items

    def finish(self, op_times, op_scale):
        self._end_cycle()
        base_ids = sorted(self.task.labels)
        clf = evaluation.train_classifier(
            np.stack([self.model.phi[f] for f in base_ids]), [self.task.labels[f] for f in base_ids]
        )
        inserted = self.first_cycle or []
        truth = [self.labels[key] for key, _ in inserted]
        acc = evaluation.accuracy_score(clf, np.stack([v for _, v in inserted]), truth) if inserted else 0.0
        checks = [
            Check("model save/load round trip is exact", self.round_trip_exact, ""),
            Check("first cycle inserted every held-out item", len(inserted) == len(self.labels), f"{len(inserted)}"),
            Check("existing phi rows and psi unchanged", self.frozen, f"after each of {self.cycles} cycles"),
            Check("every cycle extends identically", self.repeatable, ""),
            Check(f"insert_accuracy >= {self.ACCURACY_FLOOR}", acc >= self.ACCURACY_FLOOR, f"{acc:.4f}"),
        ]
        times = np.asarray(op_times)
        values = {
            "insert_batch_p50_s": (_median(times), "s"),
            "insert_batch_p90_s": (float(np.percentile(times, 90)), "s"),
            "inserted_per_s": ((self.attempted - self.failed) / float(times.sum()), "1/s"),
            "insert_accuracy": (acc, "fraction"),
            "batches": (len(times), "count"),
        }
        return checks, values, acc


WORKLOADS = {w.name: w for w in (Experiment, Select, Insert)}
