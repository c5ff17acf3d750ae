"""walkembed benchmark: one workload, measured end to end or traced by layer.

    python3 bench/run.py --workload {experiment,select,insert} --seed N \
        --seconds S --trace {0,1}

The run generates its inputs from the seed in a child process, sets up
several times (``setup_s`` is the median), then runs the workload's
operation in a closed loop with one caller for at least S seconds, checks
the outputs, and prints a readable report followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, shared by every
workload (see README.md for what each means per workload).  With
``--trace 1`` every setup and every other operation is traced, the
metrics are the per-layer ones, and the spans are written to
``.bench_work/traces/``; the untraced operations of the same run give the
tracing overhead.  Everything the report shows is also written to
``.bench_work/results/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext

from _paths import BENCH, WORK, add_src

add_src()

import numpy as np  # noqa: E402

from layertrace import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

INPUT_TIMEOUT_S = 120

# On shared virtual machines the speed of one process swings by up to 1.8x
# within a minute, and by more under contention (measured on a 2-vCPU Intel
# Xeon VM), far more than the regressions the bounds must catch.  Every
# setup repetition and every operation is therefore bracketed by a run of a
# fixed reference workload, and the reported times are scaled by
# REF_NOMINAL_S / (the mean of the reference times before and after): a
# time as it reads on a machine where the reference takes REF_NOMINAL_S.
# A workload whose operations slow down more than the reference does
# raises that factor to its SPEED_EXPONENT (see workloads.py); at the
# nominal speed the factor is 1 whatever the exponent.  The raw times are
# printed and kept in the detail file.
REF_NOMINAL_S = 0.025


def reference_s() -> float:
    """Wall time of a fixed interpreter loop plus a fixed allocate-and-walk.

    Both parts tracked the operations' times in proportion on a contended
    VM (log-log slope 1.0 to 1.1); small numpy calls and dict inserts
    tracked them with slope 0.65 and were left out.  It runs in this
    process, because a helper process did not see this process's slow
    spells, and with the cyclic collector off, so that its time does not
    depend on how many objects the program holds.  Its 250k-int list adds
    up to about 9 MB to peak RSS.
    """
    collecting = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    big = list(range(250_000))
    for x in big[::3]:
        acc += x
    del big
    elapsed = time.perf_counter() - t0
    if collecting:
        gc.enable()
    return elapsed


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _scales(refs: list[float], exponent: float = 1.0) -> list[float]:
    """Scale of each step from the reference times on both sides of it."""
    return [(2 * REF_NOMINAL_S / (a + b)) ** exponent for a, b in zip(refs, refs[1:])]


def _measure(wl, tracer, seconds: float) -> dict:
    """Set up wl.setup_reps times, then run operations for ``seconds``."""
    setup_raw, setup_ref = [], [reference_s()]
    for i in range(wl.setup_reps):
        with tracer.window("setup", i) if tracer else nullcontext():
            t0 = time.perf_counter()
            wl.setup()
            setup_raw.append(time.perf_counter() - t0)
        setup_ref.append(reference_s())
    setup_scale = _scales(setup_ref)

    op_raw, op_ref = [], [reference_s()]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(op_raw) < wl.min_ops:
        wl.before_op()
        with tracer.window("op", len(op_raw)) if tracer and len(op_raw) % 2 == 0 else nullcontext():
            t0 = time.perf_counter()
            wl.op()
            op_raw.append(time.perf_counter() - t0)
        op_ref.append(reference_s())
    op_scale = _scales(op_ref, wl.SPEED_EXPONENT)
    return {
        "setup_raw": setup_raw,
        "setup_scale": setup_scale,
        "op_raw": op_raw,
        "op_scale": op_scale,
        "op_times": [t * k for t, k in zip(op_raw, op_scale)],
    }


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    inputs = work / "inputs"
    try:
        subprocess.run(
            [sys.executable, str(BENCH / "inputs.py"), workload, str(seed), str(inputs)],
            check=True,
            timeout=INPUT_TIMEOUT_S,
        )
        wl = WORKLOADS[workload](inputs, work, seed)
        tracer = Tracer(f"{workload}-seed{seed}") if traced else None
        measured = _measure(wl, tracer, seconds)
        op_times = measured["op_times"]
        checks, values, quality = wl.finish(op_times, measured["op_scale"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "workload": workload,
        "why": wl.why,
        "seed": seed,
        "machine": machine(),
        "ops": len(op_times),
        **measured,
        "raw": {
            "setup_s": float(np.median(measured["setup_raw"])),
            "op_p50_s": float(np.median(measured["op_raw"])),
            "reference_s": REF_NOMINAL_S / float(np.median(measured["setup_scale"])),
        },
        "checks": checks,
        "values": values,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "end_to_end": {
            "setup_s": (float(np.median([t * k for t, k in zip(measured["setup_raw"], measured["setup_scale"])])), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "op_p50_s": (float(np.median(op_times)), "s"),
            "quality": (quality, "fraction"),
        },
    }
    if tracer is not None:
        untraced = float(np.median(op_times[1::2])) if len(op_times) > 1 else float("nan")
        overhead = float(np.median(op_times[::2])) / untraced - 1.0
        result["untraced_op_p50_s"] = untraced
        result["per_layer"] = tracer.layer_metrics(overhead)
        result["layer_self_s"] = tracer.layer_self_times()
        result["trace_file"] = WORK / "traces" / f"{workload}-seed{seed}.json"
        tracer.write(
            result["trace_file"],
            {"workload": workload, "seed": seed, "machine": result["machine"]},
        )
    return result


def report(result: dict, traced: bool) -> dict:
    """Print the readable report; return the final JSON line's object."""
    m = result["machine"]
    print(f"# machine: python {m['python']}, numpy {m['numpy']}, nproc {m['nproc']}, cpu {m['cpu']}")
    print(f"# workload {result['workload']} (seed {result['seed']}, {result['ops']} operations): {result['why']}")
    for c in result["checks"]:
        print(f"check {'PASS' if c.ok else 'FAIL'}: {c.name} {c.detail}".rstrip())
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac {failed / attempted if attempted else 0.0!r} ({failed} of {attempted} operations)")
    for name, (value, unit) in {**result["values"], **result["end_to_end"]}.items():
        print(f"{name} {value!r} {unit}")
    for name, value in result["raw"].items():
        print(f"raw {name} {value!r} s")
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["end_to_end"].items()}
    if traced:
        print(f"untraced op_p50_s {result['untraced_op_p50_s']!r} s")
        for layer, v in result["layer_self_s"].items():
            print(f"self {layer} {v!r} s")
        print(f"# spans written to {result['trace_file']}")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["per_layer"].items()}
        for name, entry in metrics.items():
            print(f"{name} {entry['value']!r} {entry['unit']}")
    return {
        "correct": all(c.ok for c in result["checks"]) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(result, bool(args.trace))
    detail = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.parent.mkdir(parents=True, exist_ok=True)
    detail.write_text(json.dumps({**result, **line}, default=_plain, indent=1), encoding="utf-8")
    print(json.dumps(line))
    return 0


def _plain(obj):
    return obj.__dict__ if hasattr(obj, "__dict__") else str(obj)


if __name__ == "__main__":
    sys.exit(main())
