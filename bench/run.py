"""Closed-loop benchmark of homcurv.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout and nowhere else; without it the benchmark exits with code 2
and prints no result.  BLAS is pinned to one thread before numpy is loaded.

After set-up (repeated SETUP_REPEATS times; the median counts) the run makes
whole passes over the workload's item list until S seconds have gone by, one
item at a time.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 it runs every pass twice on the same inputs, once plain and once
with the layer wrappers installed, prints the per-layer metrics, and writes
the spans to .bench_out/.  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""
from __future__ import annotations

import os
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
TAIL_MIN_BEYOND = 10

E2E_UNITS = {"wall_s": "s", "item_p50_ms": "ms", "item_tail_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def load_program():
    """Import homcurv from this checkout's src/; None if it is not there."""
    sys.path.insert(0, SRC)
    try:
        import homcurv
    except ImportError:
        return None
    here = os.path.dirname(os.path.abspath(homcurv.__file__))
    if os.path.commonpath([here, SRC]) != SRC:
        return None
    return homcurv


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("version"),
        "commit": git_commit(),
    }


# measurement ----------------------------------------------------------------

def run_item(item, tracer=None, item_id=0):
    """Time one item, then check it outside the timed region."""
    error = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = item.run()
        else:
            with tracer.item(item_id):
                out = item.run()
    except Exception as exc:
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    witnessed = False
    if error is None:
        try:
            error = item.check(out)
            witnessed = error is None and item.witness(out)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    return latency, error, witnessed


def run_pass(items, tracer=None, first_id=0):
    """One pass: (wall seconds, item latencies, errors, witnessed count)."""
    latencies, errors, witnessed = [], [], 0
    for i, item in enumerate(items):
        latency, error, hit = run_item(item, tracer, first_id + i)
        latencies.append(latency)
        witnessed += hit
        if error is not None:
            errors.append(f"{item.label}: {error}")
    return sum(latencies), latencies, errors, witnessed


def tail(latencies: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank latency at the workload's fixed percentile, and the number
    of items beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def measure(workload, seed: int, seconds: float, tracer=None,
            import_s: float = 0.0) -> dict:
    """Set up, then run passes until `seconds` have gone by; pass k draws its
    inputs from 1000 * seed + k.  Returns the raw figures of the run."""
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR)
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ctx = workload.setup(workdir)
        setups.append(time.perf_counter() - t0)
    walls, traced_walls, per_pass, errors = [], [], [], []
    attempted = witnessed = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        items = workload.items(ctx, 1000 * seed + k)
        wall, lat, errs, hits = run_pass(items)
        walls.append(wall)
        per_pass.append(lat)
        errors += errs
        attempted += len(items)
        witnessed += hits
        if tracer is not None:
            with tracer.installed():
                twall, _, terrs, _ = run_pass(items, tracer, first_id=k * len(items))
            traced_walls.append(twall)
            errors += terrs
            attempted += len(items)
        k += 1
    shutil.rmtree(workdir)
    for e in errors[:20]:
        print(f"WRONG {e}")
    return {"walls": walls, "traced_walls": traced_walls, "per_pass": per_pass,
            "errors": errors, "attempted": attempted, "witnessed": witnessed,
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def end_to_end(raw: dict, tail_pct: float) -> tuple[dict, list[str]]:
    """End-to-end metrics.

    Each item of the pass list is summarised by its mean latency over the
    run's passes, so wall_s is the mean time of one pass.  A certify call's
    cost is a lottery over how many of its starts stagnate, and a median over
    such draws jumps between levels where a mean does not.  item_tail_ms uses
    every item of the run.
    """
    per_item = [statistics.fmean(col) for col in zip(*raw["per_pass"])]
    pooled = [x for lat in raw["per_pass"] for x in lat]
    tail_value, beyond = tail(pooled, tail_pct)
    metrics = {
        "wall_s": sum(per_item),
        "item_p50_ms": statistics.median(per_item) * 1e3,
        "item_tail_ms": tail_value * 1e3,
        "setup_s": raw["setup_s"],
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    notes = {
        "wall_s": f"mean of {len(raw['per_pass'])} passes of {len(per_item)} items",
        "item_p50_ms": f"median over the {len(per_item)} items of their mean latency",
        "item_tail_ms": f"p{tail_pct:g} of all {len(pooled)} items, {beyond} beyond"
                        + ("" if beyond >= TAIL_MIN_BEYOND else " (fewer than 10)"),
        "setup_s": f"imports + median of {SETUP_REPEATS} set-ups",
        "peak_rss_mb": "peak resident set of the process",
    }
    lines = [f"{name:14s} {value:12.4f} {E2E_UNITS[name]:3s}  {notes[name]}"
             for name, value in metrics.items()]
    lines.append("item means      " + " ".join(f"{x * 1e3:.1f}" for x in per_item) + " ms")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_import = time.perf_counter()
    if load_program() is None:
        print(f"homcurv sources not found under {SRC}", file=sys.stderr)
        return 2
    import workloads
    import layers
    import_s = time.perf_counter() - t_import

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(OUT_DIR, exist_ok=True)
    print(f"workload {workload.name}: {workload.why}")
    print("env " + json.dumps(environment(), sort_keys=True))

    tracer = layers.make_tracer() if args.trace else None
    raw = measure(workload, args.seed, args.seconds, tracer, import_s)
    attempted, failed = raw["attempted"], len(raw["errors"])
    metrics, lines = end_to_end(raw, workload.tail_pct)
    items = sum(map(len, raw["per_pass"]))
    print(f"passes {len(raw['per_pass'])}  median pass {statistics.median(raw['walls']):.4f} s  "
          f"wrong_frac {failed / attempted:.4f} ({failed}/{attempted})  "
          f"witness_frac {raw['witnessed'] / items:.4f}")
    print("\n".join(lines))
    if args.trace:
        metrics, units, lines = layers.per_layer(tracer, raw)
        print("\n".join(lines))
        path = os.path.join(OUT_DIR, f"spans-{workload.name}-seed{args.seed}.npz")
        tracer.save(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        units = E2E_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
