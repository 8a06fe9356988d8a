"""Command line front end: compute sequences, verify claim suites, probe series.

Subcommands:

  compute <domb|franel|euler|catalan> --n-max N
      print "index value" lines, exactly.

  verify <identities|congruences|divisibility|all> [--ids a,b,...]
         [--n-max N] [--prime-lo P] [--prime-hi Q] [--jobs J]
         [--out PATH] [--format json|csv] [--timing] [--inject-failure]
      run every selected check and emit a machine-readable report.
      Exit code 0 when everything holds, 1 on any falsification, 2 on usage
      errors, which include a selection that leaves some check with nothing
      to run.

  series <rogers|ccl> --k K
      print the partial-sum approximation, the analytic target and the
      absolute error.

Reports are deterministic: results are sorted by (id, numeric params), keys
are emitted in a fixed order, and big numbers are decimal strings.  The
measured wall time is included only when --timing is passed, so that
otherwise identical invocations produce byte-identical reports regardless
of --jobs.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import __version__
from .arith import primes_in_range
from .checks import CHECKS, SUITES
from .sequences import (
    CCL_LIMIT,
    ROGERS_LIMIT,
    catalan,
    ccl_partial,
    domb,
    euler_number,
    franel,
    rogers_partial,
)

SERIES_MAX_K = 10000


# ---------------------------------------------------------------- tasks

def _tasks(tags, n_max, primes) -> list[tuple]:
    """Flat (tag, *args) tasks, tag by tag in catalog order."""
    return [(tag, *args) for tag in tags for args in CHECKS[tag].grid(n_max, primes)]


def _run_task(task) -> list[dict]:
    """The report records of one task, keyed in the JSON report's order;
    str() prints an int, a Fraction (n or n/d) and a str as the report has them."""
    return [
        {"id": task[0], "params": params, "lhs": str(lhs), "rhs": str(rhs),
         "modulus": modulus, "holds": bool(holds)}
        for params, lhs, rhs, modulus, holds in CHECKS[task[0]].evaluate(*task[1:])
    ]


def _run_all(tasks, jobs) -> list[dict]:
    if jobs <= 1 or len(tasks) <= 1:
        out = []
        for t in tasks:
            out.extend(_run_task(t))
        return out
    import concurrent.futures as cf
    import multiprocessing as mp

    try:
        ctx = mp.get_context("fork")
    except ValueError:
        ctx = mp.get_context()
    out = []
    with cf.ProcessPoolExecutor(max_workers=jobs, mp_context=ctx) as ex:
        chunk = max(1, len(tasks) // (jobs * 8))
        for recs in ex.map(_run_task, tasks, chunksize=chunk):
            out.extend(recs)
    return out


# ---------------------------------------------------------------- report

def _sort_key(rec):
    return rec["id"], tuple(rec["params"].values())


def _json_report(command, params, records, wall_ms) -> str:
    failed = sum(1 for r in records if not r["holds"])
    report = {
        "tool_version": __version__,
        "command": command,
        "params": params,
        "results": records,
        "summary": {
            "total": len(records),
            "passed": len(records) - failed,
            "failed": failed,
        },
    }
    if wall_ms is not None:
        report["wall_time_ms"] = wall_ms
    return json.dumps(report, indent=2) + "\n"


def _csv_report(records) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["suite", "id", "p_or_n", "aux_index", "modulus", "lhs", "rhs", "holds"])
    for r in records:
        check = CHECKS.get(r["id"])  # None for the injected debug record
        vals = list(r["params"].values())
        p_or_n = vals[0] if vals else ""
        aux = vals[1] if len(vals) > 1 else ""
        w.writerow(
            [check.suite if check else "debug", r["id"], p_or_n, aux, r["modulus"],
             r["lhs"], r["rhs"], "true" if r["holds"] else "false"]
        )
    return buf.getvalue()


# ---------------------------------------------------------------- commands

def cmd_compute(args) -> int:
    table = {"domb": domb, "franel": franel, "euler": euler_number, "catalan": catalan}
    if args.sequence not in table:
        print(f"unknown sequence {args.sequence!r}; "
              f"choose from {', '.join(table)}", file=sys.stderr)
        return 2
    if args.n_max < 0:
        print("--n-max must be >= 0", file=sys.stderr)
        return 2
    fn = table[args.sequence]
    for i in range(args.n_max + 1):
        print(f"{i} {fn(i)}")
    return 0


def cmd_series(args) -> int:
    if args.which not in ("rogers", "ccl"):
        print(f"unknown series {args.which!r}; choose rogers or ccl", file=sys.stderr)
        return 2
    k_min = 2 if args.which == "rogers" else 0
    if not k_min <= args.k <= SERIES_MAX_K:
        print(f"--k must be in [{k_min}, {SERIES_MAX_K}] for {args.which}",
              file=sys.stderr)
        return 2
    if args.which == "rogers":
        value, target = rogers_partial(args.k), ROGERS_LIMIT
    else:
        value, target = ccl_partial(args.k), CCL_LIMIT
    err = abs(value - target)
    print(f"{args.which} K={args.k} value={value:.15g} target={target:.15g} "
          f"abs_error={err:.6e}")
    return 0


def _resolve_ids(suite, requested) -> list[str]:
    """The selected tags in catalog order; ValueError names any unknown one
    and refuses a list that names none."""
    known = [tag for tag, check in CHECKS.items() if suite in ("all", check.suite)]
    if not requested:
        return known
    wanted = [t.strip() for t in requested.split(",") if t.strip()]
    if not wanted:
        raise ValueError("no check id selected")
    bad = [t for t in wanted if t not in known]
    if bad:
        raise ValueError(f"unknown check ids for suite {suite}: {', '.join(bad)}")
    return [tag for tag in known if tag in wanted]


def _rerun(rec) -> str:
    """The command that re-runs the check behind one record: its suite and
    tag, with the range cut down to the record's first param."""
    if rec["id"] not in CHECKS:
        return ""
    name, value = next(iter(rec["params"].items()))
    bounds = f"--prime-lo {value} --prime-hi {value}" if name == "p" else f"--n-max {value}"
    return f" rerun: dombcheck verify {CHECKS[rec['id']].suite} --ids {rec['id']} {bounds}"


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    try:
        ids = _resolve_ids(args.suite, args.ids)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    if args.n_max < 0 or args.prime_lo < 5 or args.prime_lo > args.prime_hi:
        print("need --n-max >= 0 and 5 <= --prime-lo <= --prime-hi", file=sys.stderr)
        return 2

    tasks = _tasks(ids, args.n_max, primes_in_range(args.prime_lo, args.prime_hi))
    selected = {task[0] for task in tasks}
    starved = [tag for tag in ids if tag not in selected]
    if starved:
        print(f"nothing to check in this range for: {', '.join(starved)}", file=sys.stderr)
        return 2
    records = _run_all(tasks, args.jobs)
    if args.inject_failure:
        records.append({"id": "inject", "params": {}, "lhs": "0", "rhs": "1",
                        "modulus": "", "holds": False})
    records.sort(key=_sort_key)

    failed = [r for r in records if not r["holds"]]
    for r in failed:
        print(f"FALSIFIED {r['id']} {r['params']} lhs={r['lhs']} rhs={r['rhs']}{_rerun(r)}",
              file=sys.stderr)

    params = {
        "suite": args.suite,
        "ids": ids,
        "n_max": args.n_max,
        "prime_lo": args.prime_lo,
        "prime_hi": args.prime_hi,
        "format": args.format,
    }
    wall_ms = int((time.monotonic() - t0) * 1000) if args.timing else None
    if args.format == "csv":
        text = _csv_report(records)
    else:
        text = _json_report(f"verify {args.suite}", params, records, wall_ms)

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dombcheck",
        description="exact computation and verification of Domb-type sums",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("compute", help="print a sequence prefix")
    c.add_argument("sequence")
    c.add_argument("--n-max", type=int, required=True)
    c.set_defaults(fn=cmd_compute)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("suite", choices=[*SUITES, "all"])
    v.add_argument("--ids", default="")
    v.add_argument("--n-max", type=int, default=100)
    v.add_argument("--prime-lo", type=int, default=5)
    v.add_argument("--prime-hi", type=int, default=199)
    v.add_argument("--jobs", type=int, default=1)
    v.add_argument("--out", default="")
    v.add_argument("--format", choices=["json", "csv"], default="json")
    v.add_argument("--timing", action="store_true",
                   help="include measured wall time in the JSON report")
    v.add_argument("--inject-failure", action="store_true",
                   help="debug: append one known-false record")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("series", help="partial sums of the 1/pi-type series")
    s.add_argument("which")
    s.add_argument("--k", type=int, required=True)
    s.set_defaults(fn=cmd_series)
    return ap


def main(argv=None) -> int:
    # reports print exact decimal strings, which may pass Python's default
    # 4300-digit int-to-str limit (Domb(n) does from n = 3576)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    return args.fn(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
