"""Run the benchmark over many seeds and summarise it.

    python3 bench/baseline.py --seeds 1-10 [--workloads experiment,select,insert]
        [--trace 0|1] [--label TEXT] [--out bench/results/BENCH_n.json]

Each (seed, workload) pair runs ``run.py`` in its own process, seeds in the
outer loop so that slow spells of the machine spread over all workloads.
For every metric the summary gives the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, (q3 - q1) / median.
End-to-end spreads are compared with the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from _paths import BENCH, ROOT, WORK

RUN_TIMEOUT_S = 900


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "n": len(values),
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_list, required=True, help="a seed or a range such as 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--label", default="", help="what was measured, e.g. the commit")
    parser.add_argument("--out", default=None, help="summary JSON path")
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in args.seeds:
        for w in workloads:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                print(f"{w} seed {seed}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            detail = json.loads(
                (WORK / "results" / f"{w}-seed{seed}-trace{args.trace}.json").read_text(encoding="utf-8")
            )
            detail["run_wall_s"] = wall
            runs[w].append(detail)
            shown = {k: round(v["value"], 4) for k, v in detail["metrics"].items() if not args.trace}
            print(f"{w} seed {seed}: correct={detail['correct']} wall={wall:.1f}s {shown}", flush=True)

    summary = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%d"),
        "machine": next(iter(runs.values()))[0]["machine"],
        "run_seconds": args.seconds,
        "trace": args.trace,
        "seeds": args.seeds,
        "workloads": {},
    }
    for w, details in runs.items():
        named = {}
        for group in ("end_to_end", "values") + (("per_layer",) if args.trace else ()):
            for name, (_v, unit) in details[0][group].items():
                named[name] = {"unit": unit, **summarise([d[group][name][0] for d in details])}
        if args.trace:
            named["untraced_op_p50_s"] = {"unit": "s", **summarise([d["untraced_op_p50_s"] for d in details])}
        summary["workloads"][w] = {
            "why": details[0]["why"],
            "correct": all(d["correct"] for d in details),
            "attempted": sum(d["attempted"] for d in details),
            "failed": sum(d["failed"] for d in details),
            "run_wall_s": summarise([d["run_wall_s"] for d in details]),
            "metrics": named,
        }
        print(f"\n{w}: correct={summary['workloads'][w]['correct']} "
              f"failed={summary['workloads'][w]['failed']}/{summary['workloads'][w]['attempted']}")
        for name, s in named.items():
            bound = bounds.get(name) if name in details[0]["end_to_end"] else None
            flag = "" if bound is None or s["spread"] is None else (
                " ok" if s["spread"] < bound / 3 else " WITHIN BOUND" if s["spread"] <= bound else " OVER BOUND")
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:28s} median {s['median']:.6g} {s['unit']:8s} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {spread}{'' if bound is None else f' (bound {bound})'}{flag}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
