#!/usr/bin/env python3
"""Record one point of the bench trajectory as perfbench/BENCH_<label>.json.

Run from the repository root:

    python3 perfbench/record.py --label seed --seeds 10 --note "2 vCPU Xeon, shared"

For seeds F..F+N-1 it runs every workload once untraced (seed loop outside, so
machine drift is spread over the workloads), then each workload once traced
with seed F.  For each end-to-end metric it stores the median, the quartiles
from statistics.quantiles(values, n=4), their distance as a share of the
median (the spread), and every value; for the per-layer metrics, the traced
run's values.  Spreads at or above a third of a metric's bound are listed on
stderr.  The run length is BENCHMARK.json's run_seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCHMARK["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, cwd=run.ROOT, check=True,
    )
    res = json.loads(proc.stdout.splitlines()[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout}")
    return res


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--note", default="", help="the machine, in words")
    args = ap.parse_args()

    values = {w: {m: [] for m in run.END_TO_END_UNITS} for w in run.WORKLOADS}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    for seed in seeds:
        for w in run.WORKLOADS:
            for m, v in bench(w, seed, 0)["metrics"].items():
                values[w][m].append(v["value"])
            print(f"seed {seed} {w}: wall_s {values[w]['wall_s'][-1]:.3f}", file=sys.stderr)

    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    out = {
        "label": args.label,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": args.note,
        "run_seconds": BENCHMARK["run_seconds"],
        "seeds": seeds,
        "load": "closed loop, one client: one fresh `python3 -m dombcheck.cli` process at a "
                "time with PYTHONPATH=src, DOMBCHECK_JOBS unset and PYTHONHASHSEED=seed; "
                "each run times 9 set-up imports, then repeats the invocation for "
                "run_seconds and reports medians; the traced run uses the first seed",
        "workloads": {},
    }
    for w, wl in run.WORKLOADS.items():
        e2e = {m: summary(v) for m, v in values[w].items()}
        for m, s in e2e.items():
            if s["spread"] >= bounds[m] / 3:
                print(f"{w} {m}: spread {s['spread']:.3f}, bound {bounds[m]}", file=sys.stderr)
        per_layer = {m: v["value"] for m, v in bench(w, seeds[0], 1)["metrics"].items()}
        out["workloads"][w] = {
            "argv": ["dombcheck", *wl.argv],
            "items": wl.items,
            "end_to_end": e2e,
            "per_layer": per_layer,
        }
    path = run.HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
