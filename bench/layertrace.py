"""Layer tracing from outside the program.

The tracer replaces public functions of the walkembed modules with timing
wrappers while a traced window is open, and puts the originals back when
it closes.  The modules import each other with ``from .x import f``, so a
function is patched under every module that calls it, for example both
``walkembed.trainer.kernel_eval`` and ``walkembed.extension.kernel_eval``.

Coarse calls become spans (name, start, end, parent span, window id).
Calls made once per sample or per partner (``sgd_step``, ``kernel_eval``
and the two batch samplers) are aggregated instead: a total time and a
count per window kind, with the time also charged to the enclosing span so
that self times stay exact.  Spans are kept in memory and written out at
the end of the run.

A window is one setup repetition or one workload operation.  Per-layer
figures are reported per setup plus per operation, so they do not grow
with the number of operations that fit into the measured time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

SPAN = "span"
AGG = "agg"


def _sample_counts(args, result, add) -> None:
    dests = result[0] if isinstance(result, tuple) else result[:, -1]
    add("schemes.starts", len(dests))
    add("schemes.completed", int((dests >= 0).sum()))


def _epoch_counts(args, result, add) -> None:
    add("trainer.samples_skipped", result.samples_skipped)


def _score_counts(args, result, add) -> None:
    add("selection.scored", len(result))
    # scores of schemes a strategy could not assess carry another diagnostic
    add("selection.assessed", sum(s.diagnostic.startswith(("pairs=", "walks=")) for s in result))


def _extend_counts(args, result, add) -> None:
    add("extension.tuples", len(args[2]))


# (module, attribute, name, kind, counter hook on the arguments and result)
PATCHES = [
    ("relational", "load_schema", "relational.load", SPAN, None),
    ("relational", "load_database", "relational.load", SPAN, None),
    ("evaluation", "load_schema", "relational.load", SPAN, None),
    ("evaluation", "load_database", "relational.load", SPAN, None),
    ("relational", "build_database", "relational.build", SPAN, None),
    ("evaluation", "build_database", "relational.build", SPAN, None),
    ("relational", "insert_facts", "relational.insert", SPAN, None),
    ("schemes", "enumerate_targeted_schemes", "schemes.enumerate", SPAN, None),
    ("evaluation", "enumerate_targeted_schemes", "schemes.enumerate", SPAN, None),
    ("trainer", "sample_target_values_batch", "schemes.sample", AGG, _sample_counts),
    ("selection", "sample_target_values_batch", "schemes.sample", AGG, _sample_counts),
    ("extension", "sample_target_values_batch", "schemes.sample", AGG, _sample_counts),
    ("kernels", "sample_target_values_batch", "schemes.sample", AGG, _sample_counts),
    ("selection", "sample_walks_batch", "schemes.sample", AGG, _sample_counts),
    ("kernels", "default_kernels", "kernels.defaults", SPAN, None),
    ("evaluation", "default_kernels", "kernels.defaults", SPAN, None),
    ("kernels", "kernel_eval", "kernels.eval", AGG, None),
    ("trainer", "kernel_eval", "kernels.eval", AGG, None),
    ("selection", "kernel_eval", "kernels.eval", AGG, None),
    ("extension", "kernel_eval", "kernels.eval", AGG, None),
    ("trainer", "train", "trainer.train", SPAN, None),
    ("evaluation", "train", "trainer.train", SPAN, None),
    ("trainer", "train_epoch", "trainer.epoch", SPAN, _epoch_counts),
    ("trainer", "sgd_step", "trainer.sgd", AGG, None),
    ("selection", "score_kvar", "selection.kvar", SPAN, _score_counts),
    ("evaluation", "score_kvar", "selection.kvar", SPAN, _score_counts),
    ("selection", "score_mi", "selection.mi", SPAN, _score_counts),
    ("evaluation", "score_mi", "selection.mi", SPAN, _score_counts),
    ("selection", "select", "selection.select", SPAN, None),
    ("evaluation", "select", "selection.select", SPAN, None),
    ("extension", "extend_embedding", "extension.extend", SPAN, _extend_counts),
    ("extension", "solve_ridge", "extension.solve", SPAN, None),
    ("evaluation", "strip_attribute", "evaluation.strip", SPAN, None),
    ("evaluation", "cross_validate", "evaluation.cv", SPAN, None),
    ("cli", "run_experiment", "evaluation.experiment", SPAN, None),
    ("model_io", "save_model", "model_io.save", SPAN, None),
    ("model_io", "load_model", "model_io.load", SPAN, None),
    ("cli", "main", "cli.main", SPAN, None),
]


class Tracer:
    """Spans, aggregates and counters of one traced benchmark run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        # [name, start, end, parent index, window id]
        self.spans: list[list] = []
        self.windows: list[dict] = []
        self.totals: dict[tuple[str, str], float] = defaultdict(float)
        # (window kind, aggregate name) -> [seconds, calls]
        self._acc: dict[tuple[str, str], list] = defaultdict(lambda: [0.0, 0])
        self._child: dict[int, float] = defaultdict(float)
        self._open: list[int] = []
        self._kind = ""
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _add(self, key: str, value: float) -> None:
        self.totals[(self._kind, key)] += value

    def _span(self, name, fn, hook):
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else None
            record = [name, 0.0, 0.0, parent, self.windows[-1]["id"]]
            self.spans.append(record)
            self._open.append(idx)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._open.pop()
                if parent is not None:
                    self._child[parent] += record[2] - record[1]
            if hook is not None:
                hook(args, result, self._add)
            return result

        return wrapper

    def _aggregate(self, name, fn, hook):
        acc, open_spans, child, clock = self._acc[(self._kind, name)], self._open, self._child, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                acc[0] += dt
                acc[1] += 1
                if open_spans:
                    child[open_spans[-1]] += dt
            if hook is not None:
                hook(args, result, self._add)
            return result

        return wrapper

    @contextmanager
    def window(self, kind: str, index: int):
        """Trace one setup repetition (kind "setup") or operation ("op")."""
        self._kind = kind
        win = {"id": f"{self.run_id}/{kind}{index}", "kind": kind, "start": time.perf_counter()}
        self.windows.append(win)
        for module_name, attr, name, how, hook in PATCHES:
            module = importlib.import_module(f"walkembed.{module_name}")
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            wrap = self._span if how == SPAN else self._aggregate
            setattr(module, attr, wrap(name, original, hook))
        try:
            yield
        finally:
            for module, attr, original in reversed(self._originals):
                setattr(module, attr, original)
            self._originals.clear()
            win["end"] = time.perf_counter()

    # -- reduction -------------------------------------------------------------

    def _self_times(self) -> dict[tuple[str, str], float]:
        """Span totals, self times and call counts, plus the aggregates."""
        kind_of = {w["id"]: w["kind"] for w in self.windows}
        out: dict[tuple[str, str], float] = defaultdict(float)
        for (kind, name), (seconds, calls) in self._acc.items():
            out[(kind, name + ".s")] += seconds
            out[(kind, name + ".calls")] += calls
        for idx, (name, start, end, _parent, win) in enumerate(self.spans):
            kind = kind_of[win]
            out[(kind, name + ".s")] += end - start
            out[(kind, name + ".self")] += end - start - self._child[idx]
            out[(kind, name + ".calls")] += 1
        return out

    def layer_metrics(self, overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric with its unit.

        Times and counts are per setup repetition plus per traced operation;
        ratios are taken over the whole traced run."""
        values = defaultdict(float, self.totals)
        for key, v in self._self_times().items():
            values[key] += v
        n = {k: sum(w["kind"] == k for w in self.windows) for k in ("setup", "op")}

        def per(key: str) -> float:
            return sum(values[(k, key)] / n[k] for k in n if n[k])

        def total(key: str) -> float:
            return values[("setup", key)] + values[("op", key)]

        def ratio(num: str, den: str, scale: float = 1.0) -> float:
            d = total(den)
            return scale * total(num) / d if d else 0.0

        roots = sum(end - start for _n, start, end, parent, _w in self.spans if parent is None)
        wall = sum(w["end"] - w["start"] for w in self.windows)
        return {
            "relational.load_s": (per("relational.load.self"), "s"),
            "relational.build_s": (per("relational.build.s"), "s"),
            "relational.insert_s": (per("relational.insert.s"), "s"),
            "relational.insert_calls": (per("relational.insert.calls"), "count"),
            "schemes.sample_s": (per("schemes.sample.s"), "s"),
            "schemes.sample_calls": (per("schemes.sample.calls"), "count"),
            "schemes.starts": (per("schemes.starts"), "count"),
            "schemes.yield": (ratio("schemes.completed", "schemes.starts"), "fraction"),
            "schemes.us_per_call": (ratio("schemes.sample.s", "schemes.sample.calls", 1e6), "us"),
            "kernels.eval_calls": (per("kernels.eval.calls"), "count"),
            "kernels.eval_s": (per("kernels.eval.s"), "s"),
            "trainer.epoch_s": (per("trainer.epoch.s"), "s"),
            "trainer.sgd_s": (per("trainer.sgd.s"), "s"),
            "trainer.updates": (per("trainer.sgd.calls"), "count"),
            "trainer.us_per_update": (ratio("trainer.sgd.s", "trainer.sgd.calls", 1e6), "us"),
            "trainer.samples_skipped": (per("trainer.samples_skipped"), "count"),
            "trainer.self_s": (per("trainer.epoch.self"), "s"),
            "selection.kvar_s": (per("selection.kvar.s"), "s"),
            "selection.mi_s": (per("selection.mi.s"), "s"),
            "selection.assessed_frac": (ratio("selection.assessed", "selection.scored"), "fraction"),
            "extension.extend_s": (per("extension.extend.s"), "s"),
            "extension.tuples": (per("extension.tuples"), "count"),
            "extension.solve_s": (per("extension.solve.s"), "s"),
            "extension.self_s": (per("extension.extend.self"), "s"),
            "evaluation.cv_s": (per("evaluation.cv.s"), "s"),
            "evaluation.cv_calls": (per("evaluation.cv.calls"), "count"),
            "model_io.save_s": (per("model_io.save.s"), "s"),
            "model_io.load_s": (per("model_io.load.s"), "s"),
            "cli.self_s": (per("cli.main.self"), "s"),
            "trace.coverage": (roots / wall if wall else 0.0, "fraction"),
            "trace.overhead_frac": (overhead_frac, "fraction"),
        }

    def layer_self_times(self) -> dict[str, float]:
        """Self seconds per layer over the whole traced run."""
        out: dict[str, float] = defaultdict(float)
        for (_kind, key), v in self._self_times().items():
            if key.endswith(".self"):
                out[key.split(".")[0]] += v
        for (_kind, name), (seconds, _calls) in self._acc.items():
            out[name.split(".")[0]] += seconds  # aggregates have no children
        return dict(sorted(out.items()))

    def write(self, path: Path, meta: dict) -> None:
        doc = {
            **meta,
            "run_id": self.run_id,
            "windows": self.windows,
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p, "window": w}
                for i, (n, s, e, p, w) in enumerate(self.spans)
            ],
            "aggregates": {f"{k}:{name}": {"s": s, "calls": c} for (k, name), (s, c) in sorted(self._acc.items())},
            "counters": {f"{k}:{key}": v for (k, key), v in sorted(self.totals.items())},
            "layer_self_s": self.layer_self_times(),
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
