"""Tests for the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--seed", "3", "--seconds", "0", *args],
        capture_output=True, text=True, cwd=run.ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 40] (which holds b [15, 25]) and c [50, 70]
    spans = [(0, -1, 0, 100), (1, 0, 10, 40), (2, 1, 15, 25), (1, 0, 50, 70)]
    assert run.self_times(spans) == [50, 20, 10, 20]
    assert sum(run.self_times(spans)) == 100


def test_layer_metrics_split_cli_time_and_sum_processes():
    s = 10 ** 9
    names = ["cli.main", "arith.primes", "cli.run_all", "identities.c2"]
    root = [(0, -1, 0, 10 * s), (1, 0, 1 * s, 2 * s), (2, 0, 3 * s, 8 * s)]
    worker = [(3, -1, 4 * s, 6 * s), (3, -1, 6 * s, 7 * s)]
    procs = {100: (names, root, 150), 101: (names, worker, -1)}
    m = run.layer_metrics(procs, 100, wall_s=10.5, records=7, report_bytes=99)
    assert m["cli.report_s"] == 2.0                 # run_all ends at 8 s, main at 10 s
    assert m["cli.dispatch_s"] == 7.0               # 9 s of cli self time, less the report
    assert m["arith.primes_s"] == 1.0
    assert m["identities.c2.self_s"] == 3.0         # summed over the worker's spans
    assert m["identities.c2.checks"] == 2
    assert m["sequences.domb_n_max"] == 150
    assert m["trace.unaccounted_s"] == 0.5          # root self times sum to 10 s


def test_record_counts_follow_the_grids():
    assert run.identity_records(150) == 41031
    assert run.WORKLOADS["all_default_j2"].items == 23833
    assert run.primes(5, 30) == [5, 7, 11, 13, 17, 19, 23, 29]


def test_injected_failure_counts_as_failed():
    res = _bench("--workload", "all_default_j2", "--inject-failure")
    assert not res["correct"]
    assert res["attempted"] >= 1
    assert res["failed"] == res["attempted"]


def test_printed_metrics_are_the_declared_ones():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(run.WORKLOADS)
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        res = _bench("--workload", "all_default_j2", "--trace", trace)
        assert res["correct"] and res["failed"] == 0
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        printed = {name: v["unit"] for name, v in res["metrics"].items()}
        assert printed == declared
