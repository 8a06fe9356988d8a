#!/usr/bin/env python3
"""dombcheck benchmark: cold CLI invocations, checked outputs, a traced layer split.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or `all` to run each in turn.  Every
invocation is a fresh `python -m dombcheck.cli` process, because users pay
the module-level tables (Domb, Franel, central binomials, harmonic prefixes,
E_{p-3} mod p) on every invocation.  This process runs one CLI process
at a time (a closed loop with one client) until S seconds have passed, with
at least one invocation, and reports lower medians, with end-to-end times
scaled to a reference speed (REFERENCE below).  The seed becomes the
child's PYTHONHASHSEED; the argv is fixed, so the arithmetic work is
identical for every seed and the reports must be byte-identical across
seeds.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
invocations with ones run under perfbench/tracer.py and prints the
per-layer metrics.  Either way the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.

An invocation fails on a non-zero exit, any record with holds other than
true, a record count other than the grid's, a report digest other than the
seed's, or (series) a printed line other than the seed's.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import marshal
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"  # per-run scratch, removed when the run ends
PROBES = 3  # set-up and reference probes per round, and after the last round
# The shared host's speed drifts by up to 70% for minutes at a time, and
# every workload slows with it.  Reference probes import stdlib modules
# only: the same kind of work as set-up, none of dombcheck's code.  Times
# are reported at the speed where one reference probe takes REFERENCE_S.
REFERENCE = "import argparse, csv, decimal, fractions, json, multiprocessing, concurrent.futures"
REFERENCE_S = 0.1

IDENTITY_TAGS = (
    "cz", "sunzh", "ctyz", "c2", "d2", "c3", "d3", "b1", "b2", "b10gen",
    "e_inner_plus", "e_inner_alt", "e1", "e2",
)
CONGRUENCE_TAGS = (
    "thm1", "thm2", "b3", "b4", "b5", "b6", "b8", "b9", "b11",
    "c5", "c8", "c9", "c10", "c11", "c12", "d4", "d5",
)
DIVISIBILITY_TAGS = ("thm3_plus", "thm3_minus", "ratio_monotone", "alt_positivity")
SUITE_TAGS = {
    "identities": IDENTITY_TAGS,
    "congruences": CONGRUENCE_TAGS,
    "divisibility": DIVISIBILITY_TAGS,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    units = {
        "cli.dispatch_s": "s", "cli.report_s": "s",
        "cli.records": "count", "cli.report_bytes": "bytes",
        "sequences.domb_s": "s", "sequences.domb_n_max": "index",
        "sequences.transform_s": "s", "sequences.franel_s": "s",
        "sequences.euler_mod_s": "s", "sequences.euler_mod_calls": "count",
        "sequences.series_s": "s",
        "harmonic.self_s": "s", "harmonic.calls": "count",
        "arith.primes_s": "s", "arith.fermat_s": "s", "arith.fermat_calls": "count",
    }
    for suite, tags in SUITE_TAGS.items():
        for tag in tags:
            units[f"{suite}.{tag}.self_s"] = "s"
            units[f"{suite}.{tag}.checks"] = "count"
    units["trace.overhead_s"] = "s"
    units["trace.unaccounted_s"] = "s"
    units["machine.reference_s"] = "s"
    return units


PER_LAYER_UNITS = _per_layer_units()

# span name -> (self-time metric, call-count metric or None)
SPAN_METRICS = {
    "sequences.domb": ("sequences.domb_s", None),
    "sequences.transform": ("sequences.transform_s", None),
    "sequences.franel": ("sequences.franel_s", None),
    "sequences.euler_mod": ("sequences.euler_mod_s", "sequences.euler_mod_calls"),
    "sequences.series": ("sequences.series_s", None),
    "harmonic.sum": ("harmonic.self_s", "harmonic.calls"),
    "arith.primes": ("arith.primes_s", None),
    "arith.fermat": ("arith.fermat_s", "arith.fermat_calls"),
}
for _suite, _tags in SUITE_TAGS.items():
    for _tag in _tags:
        SPAN_METRICS[f"{_suite}.{_tag}"] = (f"{_suite}.{_tag}.self_s", f"{_suite}.{_tag}.checks")


# ---------------------------------------------------------------- workloads

def primes(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by a sieve, independent of dombcheck.arith."""
    sieve = bytearray([1]) * (hi + 1)
    sieve[:2] = b"\0\0"
    for q in range(2, int(hi ** 0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytearray(len(range(q * q, hi + 1, q)))
    return [q for q in range(lo, hi + 1) if sieve[q]]


def identity_records(n_max: int) -> int:
    """Records of `verify identities --n-max N`, from each tag's index grid."""
    per_n = 6 * (n_max + 1)                  # cz sunzh ctyz b1 b2 b10gen: 0..N
    odd = 2 * ((n_max + 1) // 2)             # c3 d3: odd n in 1..N
    full = 2 * n_max                         # e1 e2: 1..N
    triangle = 3 * n_max * (n_max + 1) // 2  # c2 e_inner_*: 0 <= i < n
    d2 = sum((n - 1) // 2 + 1 for n in range(1, n_max + 1))
    return per_n + odd + full + triangle + d2


def congruence_records(p_lo: int, p_hi: int) -> int:
    """15 single-result tags per prime, plus c5 and d4 at i = 0..(p-1)/2."""
    return sum(15 + (p + 1) for p in primes(p_lo, p_hi))


def divisibility_records(n_max: int) -> int:
    return 3 * n_max + 1  # thm3_plus thm3_minus alt_positivity, one ratio_monotone


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    suites: tuple[str, ...]  # suites whose every tag must show up in a trace
    items: int               # report records, or series terms K+1


# why each workload exists: BENCHMARK.json and perfbench/README.md
WORKLOADS = {
    "identities_n100": Workload(
        ("verify", "identities", "--n-max", "100", "--jobs", "1"),
        ("identities",), identity_records(100),
    ),
    "congruences_p499": Workload(
        ("verify", "congruences", "--prime-hi", "499", "--jobs", "1"),
        ("congruences",), congruence_records(5, 499),
    ),
    "series_rogers_k1500": Workload(
        ("series", "rogers", "--k", "1500"),
        (), 1501,
    ),
    "all_default_j2": Workload(
        ("verify", "all", "--jobs", "2"),
        ("identities", "congruences", "divisibility"),
        identity_records(100) + congruence_records(5, 199) + divisibility_records(100),
    ),
}

EXPECTED = json.loads((HERE / "expected.json").read_text())


def check_output(name: str, returncode: int, out: bytes) -> list[str]:
    """Why an invocation of workload `name` failed; empty when it matched the seed."""
    wl = WORKLOADS[name]
    reasons = [] if returncode == 0 else [f"exit code {returncode}"]
    if wl.argv[0] == "series":
        if out.decode(errors="replace") != EXPECTED[name]["stdout"]:
            reasons.append(f"printed line differs from the seed's: {out[:120]!r}")
        return reasons
    try:
        results = json.loads(out)["results"]
    except (ValueError, KeyError, TypeError):
        return reasons + ["stdout is not a JSON report"]
    if len(results) != wl.items:
        reasons.append(f"{len(results)} records, the grid gives {wl.items}")
    false = sum(1 for r in results if r.get("holds") is not True)
    if false:
        reasons.append(f"{false} records do not hold")
    if hashlib.sha256(out).hexdigest() != EXPECTED[name]["sha256"]:
        reasons.append("report sha256 differs from the seed's")
    return reasons


# ---------------------------------------------------------------- processes

def child_env(seed: int) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in ("DOMBCHECK_JOBS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed % 2 ** 32)
    return env


@dataclass
class Invocation:
    pid: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    out: bytes


def invoke(cmd: list[str], env: dict[str, str], tmp: Path) -> Invocation:
    """Run one process to exit; rusage covers it and every child it waited for."""
    out_path, err_path = tmp / "stdout", tmp / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text(errors="replace")[:2000])
    return Invocation(
        proc.pid, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, proc.returncode,
        out_path.read_bytes(),
    )


def probes(env: dict[str, str], tmp: Path, setups: list[float], refs: list[float]) -> None:
    """Append spawn-to-exit times of fresh interpreters importing
    dombcheck.cli to `setups` and, alternating, of ones running REFERENCE
    to `refs`."""
    for _ in range(PROBES):
        for code, times in (("import dombcheck.cli", setups), (REFERENCE, refs)):
            inv = invoke([sys.executable, "-c", code], env, tmp)
            if inv.returncode != 0:
                raise RuntimeError(f"probe {code!r} failed")
            times.append(inv.wall_s)


# ---------------------------------------------------------------- spans

def self_times(spans: list[tuple[int, int, int, int]]) -> list[int]:
    """Self time of each (name, parent, start, end) span: its duration minus
    the durations of its direct children.  Parents precede their children."""
    out = [end - start for _, _, start, end in spans]
    for _, parent, start, end in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def load_spans(trace_dir: Path) -> dict[int, tuple[list[str], list[tuple[int, int, int, int]], int]]:
    """pid -> (span names, spans, largest Domb index) for every traced process."""
    procs = {}
    for path in trace_dir.glob("spans.*.marshal"):
        with open(path, "rb") as fh:
            rec = marshal.load(fh)
        flat = array("q")
        flat.frombytes(rec["spans"])
        spans = [tuple(flat[i:i + 4]) for i in range(0, len(flat), 4)]
        procs[int(path.name.split(".")[1])] = (rec["names"], spans, rec["domb_n_max"])
    return procs


def layer_metrics(procs, root_pid: int, wall_s: float, records: int, report_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced invocation, summed over its processes.

    cli.dispatch_s is the cli self time up to the end of the last call made
    directly from main (for verify, the whole check run, pool wait
    included); cli.report_s is the rest of main: sort, encode and write.
    """
    m = {name: 0 for name in PER_LAYER_UNITS}
    m["cli.records"] = records
    m["cli.report_bytes"] = report_bytes
    cli_self = 0.0
    for pid, (names, spans, domb_n_max) in procs.items():
        m["sequences.domb_n_max"] = max(m["sequences.domb_n_max"], domb_n_max)
        for (nid, _, _, _), own in zip(spans, self_times(spans)):
            name = names[nid]
            if name.startswith("cli."):
                cli_self += own / 1e9
            elif name in SPAN_METRICS:
                time_key, count_key = SPAN_METRICS[name]
                m[time_key] += own / 1e9
                if count_key:
                    m[count_key] += 1
    names, spans, _ = procs[root_pid]
    main = next(i for i, s in enumerate(spans) if names[s[0]] == "cli.main" and s[1] < 0)
    boundary = max((s[3] for s in spans if s[1] == main), default=spans[main][2])
    m["cli.report_s"] = (spans[main][3] - boundary) / 1e9
    m["cli.dispatch_s"] = cli_self - m["cli.report_s"]
    root_self = sum(self_times(spans)) / 1e9
    m["trace.unaccounted_s"] = wall_s - root_self
    return m


def trace_problems(name: str, m: dict[str, float], setup_s: float) -> list[str]:
    """Checks on one traced invocation: every tag of the workload's suites
    was seen, and the root process's self times add up to its wall time
    less the start-up that no span covers (about one setup_s)."""
    problems = [
        f"no spans for {suite}.{tag}"
        for suite in WORKLOADS[name].suites
        for tag in SUITE_TAGS[suite]
        if not m[f"{suite}.{tag}.checks"]
    ]
    gap = m["trace.unaccounted_s"]
    if not 0 <= gap <= 2 * setup_s + max(m["trace.overhead_s"], 0):
        problems.append(f"layer self times leave {gap:.3f} s of the traced wall unaccounted")
    return problems


# ---------------------------------------------------------------- runs

def run_workload(name: str, seed: int, seconds: float, trace: bool, inject: bool, tmp: Path) -> dict:
    """One run: rounds of probes and invocations for `seconds`."""
    wl = WORKLOADS[name]
    argv = [*wl.argv, *(["--inject-failure"] if inject else [])]
    env = child_env(seed)
    trace_dir = tmp / "trace"
    commands = {"plain": [sys.executable, "-m", "dombcheck.cli", *argv]}
    if trace:
        commands["traced"] = [sys.executable, str(HERE / "tracer.py"), str(trace_dir), *argv]

    probes(env, tmp, [], [])  # writes the bytecode caches; not counted
    setups, refs, invocations, layer_samples, problems = [], [], [], [], []
    attempted = failed = 0
    # Start a round only if one more is expected to end by the deadline, so a
    # run measures for `seconds` and always completes at least one round.  The
    # host's speed drifts, so the probes are spread over the run instead of
    # being taken in one burst.
    deadline = time.perf_counter() + seconds
    round_s = 0.0
    while not invocations or time.perf_counter() + round_s <= deadline:
        t0 = time.perf_counter()
        probes(env, tmp, setups, refs)
        for kind, cmd in commands.items():
            if kind == "traced":
                shutil.rmtree(trace_dir, ignore_errors=True)
                trace_dir.mkdir()
            inv = invoke(cmd, env, tmp)
            reasons = check_output(name, inv.returncode, inv.out)
            if kind == "traced" and not reasons:
                procs = load_spans(trace_dir)
                if inv.pid in procs:
                    layer_samples.append(layer_metrics(
                        procs, inv.pid, inv.wall_s,
                        wl.items if wl.argv[0] == "verify" else 0, len(inv.out),
                    ))
                else:
                    reasons.append("the traced process wrote no spans")
            attempted += 1
            failed += bool(reasons)
            problems += [f"{kind}: {r}" for r in reasons]
            invocations.append((kind, inv))
        round_s = time.perf_counter() - t0
    probes(env, tmp, setups, refs)
    setup_s = statistics.median_low(setups)
    speed = REFERENCE_S / statistics.median_low(refs)

    # median_low: of two invocations it keeps the faster, so one invocation
    # slowed by the shared machine does not move the run's value
    plain = [inv for kind, inv in invocations if kind == "plain"]
    if not trace:
        wall_s = statistics.median_low(r.wall_s for r in plain) * speed
        metrics = {
            "setup_s": setup_s * speed,
            "wall_s": wall_s,
            "cpu_s": statistics.median_low(r.cpu_s for r in plain) * speed,
            "items_per_s": wl.items / wall_s,
            "peak_rss_mb": statistics.median_low(r.rss_mb for r in plain),
        }
        units = END_TO_END_UNITS
    else:
        overhead = (statistics.median_low(inv.wall_s for kind, inv in invocations if kind == "traced")
                    - statistics.median_low(r.wall_s for r in plain))
        for sample in layer_samples:
            sample["trace.overhead_s"] = overhead
            problems += trace_problems(name, sample, setup_s)
        metrics = {k: statistics.median_low(s[k] for s in layer_samples)
                   for k in (layer_samples[0] if layer_samples else ())}
        metrics["machine.reference_s"] = REFERENCE_S / speed
        units = PER_LAYER_UNITS
    return {
        "correct": not problems and len(metrics) == len(units),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0), "unit": u} for k, u in units.items()},
        "problems": problems,
        "invocations": invocations,
        "speed": speed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-failure", action="store_true",
                    help="negative control: pass --inject-failure to a verify workload")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # lets invoke() stop its child
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.inject_failure and any(WORKLOADS[n].argv[0] != "verify" for n in names):
        ap.error("--inject-failure needs a verify workload")
    if not (ROOT / "src" / "dombcheck" / "cli.py").is_file():
        print(f"no dombcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = WORK / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace),
                                   args.inject_failure, tmp) for n in names}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for n, res in results.items():
        for kind, inv in res["invocations"]:
            print(f"#   {kind:<6} wall {inv.wall_s:.3f} s  cpu {inv.cpu_s:.3f} s  rss {inv.rss_mb:.1f} MB")
        print(f"# {n}: {res['attempted']} invocations, {res['failed']} failed "
              f"(failed_frac {res['failed'] / res['attempted']:.3g}), argv: "
              f"dombcheck {' '.join(WORKLOADS[n].argv)}")
        print(f"# end-to-end times are raw times x {res['speed']:.4f}, REFERENCE_S over "
              f"the median reference probe")
        for problem in res["problems"][:20]:
            print(f"#   FAIL {problem}")
        for k, v in res["metrics"].items():
            print(f"  {n:<20} {k:<34} {v['value']:>16.6g} {v['unit']}")
    prefix = len(results) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(f"{n}.{k}" if prefix else k): v
                    for n, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
