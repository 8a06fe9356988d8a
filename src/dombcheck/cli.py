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
      to run and an --out path that cannot be written.

  series <rogers|ccl> --k K
      print the partial-sum approximation, the analytic target and the
      absolute error.

Every command exits 141, without a traceback, when its stdout is closed
before it is done (`| head`); 141 is what a shell reports for SIGPIPE.

Reports are deterministic: results are sorted by (id, numeric params), keys
are emitted in a fixed order, and big numbers are decimal strings.  The
measured wall time is included only when --timing is passed, so that
otherwise identical invocations produce byte-identical reports regardless
of --jobs.

Reports are streamed.  The tags run in sorted order and every grid yields
its params ascending, so each row is written the moment it arrives, with
no global sort and no row kept; the JSON summary (and wall time) follows
the last row.  The JSON is emitted by hand in the layout of
json.dumps(report, indent=2), whose indented mode has no C encoder.  A run
that dies part-way leaves a truncated report behind.

With --jobs J > 1 the tasks go to J forked worker processes in
consecutive chunks, one pool message each, and come back in task order.
A chunk holds len(tasks) // (8 J) tasks, or fewer once the rows it will
return would pass ROW_CAP: a per-index congruence tag (c5, d4) returns
(p+1)/2 rows at the prime p, every other task one.  So a worker never
pickles a whole tag's rows at once, and a task list of default size is cut
exactly by the task count.  A run that ends early (a closed stdout, an
error, the order guard) stops the workers at once.  Once the CLI process is
gone, also when it was killed by a signal it cannot catch, each worker
stops before its next task.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

from . import __version__
from .arith import primes_in_range
from .checks import CHECKS, SUITES
from .congruences import PER_INDEX_TAGS
from .sequences import (
    CCL_LIMIT,
    ROGERS_LIMIT,
    catalan,
    ccl_partial,
    domb,
    euler_number,
    euler_numbers,
    franel,
    rogers_partial,
)

SERIES_MAX_K = 10000


# ---------------------------------------------------------------- tasks

def _tasks(tags, n_max, primes) -> list[tuple]:
    """Flat (tag, *args) tasks, tag by tag in the order given."""
    return [(tag, *args) for tag in tags for args in CHECKS[tag].grid(n_max, primes)]


def _run_task(task) -> list[tuple]:
    """The report rows (id, params, lhs, rhs, modulus, holds) of one task;
    str() prints an int, a Fraction (n or n/d) and a str as the report has them."""
    tag = task[0]
    return [
        (tag, params, str(lhs), str(rhs), modulus, bool(holds))
        for params, lhs, rhs, modulus, holds in CHECKS[tag].evaluate(*task[1:])
    ]


# a pool chunk returns at most this many rows (unless one task alone returns
# more), so no worker builds and pickles one huge list: c5 alone has ~2.9M
# rows to p = 10^4.  Every chunk of a default-size task list stays below it.
ROW_CAP = 10_000


def _task_rows(task) -> int:
    """The number of rows a task returns: (p+1)/2 for a per-index
    congruence tag at the prime p, one for any other task."""
    return (task[1] + 1) // 2 if task[0] in PER_INDEX_TAGS else 1


def _chunks(tasks, jobs):
    """The tasks cut into consecutive chunks, one pool message each:
    len(tasks) // (jobs * 8) tasks, or fewer where one more task would take
    the chunk's rows past ROW_CAP."""
    size = max(1, len(tasks) // (jobs * 8))
    chunk, rows = [], 0
    for task in tasks:
        n = _task_rows(task)
        if chunk and (len(chunk) == size or rows + n > ROW_CAP):
            yield chunk
            chunk, rows = [], 0
        chunk.append(task)
        rows += n
    if chunk:
        yield chunk


def _run_chunk(chunk) -> list[list[tuple]]:
    """Each task's rows, one list per task.  A pool worker exits before its
    next task once the CLI process is gone, even if that was SIGKILLed; an
    idle worker already exits when the task pipe closes."""
    import multiprocessing as mp

    parent = mp.parent_process()  # None when run in-process
    rows = []
    for task in chunk:
        if parent is not None and os.getppid() != parent.pid:
            os._exit(1)
        rows.append(_run_task(task))
    return rows


def _run_all(tasks, jobs):
    """Each task's rows, one list per task, in task order.  Closing the
    generator before its end (an error or an early exit in the report)
    stops the pool workers at once."""
    if jobs <= 1 or len(tasks) <= 1:
        yield from map(_run_task, tasks)
        return
    import multiprocessing as mp

    try:
        ctx = mp.get_context("fork")
    except ValueError:
        ctx = mp.get_context()
    with ctx.Pool(jobs) as pool:  # leaving the block early terminates the workers
        for rows in pool.imap(_run_chunk, _chunks(tasks, jobs)):
            yield from rows
        pool.close()  # at the end the workers run their exit handlers
        pool.join()


# ---------------------------------------------------------------- report

_INJECTED = ("inject", {}, "0", "1", "", False)
_CSV_HEADER = ["suite", "id", "p_or_n", "aux_index", "modulus", "lhs", "rhs", "holds"]
_q = json.encoder.encode_basestring_ascii  # a str as json.dumps quotes it


def _slot_in(batches, row):
    """The batches, with [row] before the first batch whose id sorts after row's."""
    for batch in batches:
        if row and batch and batch[0][0] > row[0]:
            yield [row]
            row = None
        yield batch
    if row:
        yield [row]


def _json_row(tag, params, lhs, rhs, modulus, holds) -> str:
    """One entry of "results", laid out as json.dumps(report, indent=2) has it."""
    if params:
        inner = ",\n        ".join(f"{_q(k)}: {v}" for k, v in params.items())
        params = f"{{\n        {inner}\n      }}"
    else:
        params = "{}"
    return (
        f'    {{\n      "id": {_q(tag)},\n      "params": {params},\n'
        f'      "lhs": {_q(lhs)},\n      "rhs": {_q(rhs)},\n      "modulus": {_q(modulus)},\n'
        f'      "holds": {"true" if holds else "false"}\n    }}'
    )


def _csv_row(tag, params, lhs, rhs, modulus, holds) -> list:
    vals = list(params.values())
    return [CHECKS[tag].suite if tag in CHECKS else "debug", tag,
            vals[0] if vals else "", vals[1] if len(vals) > 1 else "",
            modulus, lhs, rhs, "true" if holds else "false"]


def _write_report(out, fmt, head, batches, t0) -> int:
    """Write each row as it arrives, then (JSON) the summary and, when t0 is
    set, the wall time since t0; FALSIFIED lines go to stderr.  Rows must
    come sorted by (id, *params), which the tags in sorted order and each
    grid's ascending params give; RuntimeError otherwise.  Returns the number
    of failed rows."""
    if fmt == "csv":
        w = csv.writer(out, lineterminator="\n")
        w.writerow(_CSV_HEADER)
    else:
        out.write(json.dumps(head, indent=2)[:-2] + ',\n  "results": [')
    total = failed = 0
    last = ()
    for batch in batches:
        for row in batch:
            tag, params, lhs, rhs, modulus, holds = row
            key = (tag, *params.values())
            if key <= last:
                raise RuntimeError(f"report rows out of order: {key} after {last}")
            last = key
            if fmt == "csv":
                w.writerow(_csv_row(*row))
            else:
                out.write((",\n" if total else "\n") + _json_row(*row))
            total += 1
            if not holds:
                failed += 1
                print(f"FALSIFIED {tag} {params} lhs={lhs} rhs={rhs}{_rerun(tag, params)}",
                      file=sys.stderr)
    if fmt != "csv":
        tail = {"summary": {"total": total, "passed": total - failed, "failed": failed}}
        if t0 is not None:
            tail["wall_time_ms"] = int((time.monotonic() - t0) * 1000)
        out.write(("\n  ]," if total else "],") + json.dumps(tail, indent=2)[1:] + "\n")
    return failed


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
    if args.sequence == "euler":  # one pass, not one recurrence per index
        values = euler_numbers(args.n_max)
    else:
        values = map(table[args.sequence], range(args.n_max + 1))
    for i, value in enumerate(values):
        print(f"{i} {value}")
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


def _rerun(tag, params) -> str:
    """The command that re-runs the check behind one row: its suite and
    tag, with the range cut down to the row's first param."""
    if tag not in CHECKS:
        return ""
    name, value = next(iter(params.items()))
    bounds = f"--prime-lo {value} --prime-hi {value}" if name == "p" else f"--n-max {value}"
    return f" rerun: dombcheck verify {CHECKS[tag].suite} --ids {tag} {bounds}"


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

    tasks = _tasks(sorted(ids), args.n_max, primes_in_range(args.prime_lo, args.prime_hi))
    selected = {task[0] for task in tasks}
    starved = [tag for tag in ids if tag not in selected]
    if starved:
        print(f"nothing to check in this range for: {', '.join(starved)}", file=sys.stderr)
        return 2
    try:
        out = open(args.out, "w") if args.out else sys.stdout
    except OSError as e:
        print(f"cannot write --out {args.out}: {e.strerror}", file=sys.stderr)
        return 2

    head = {
        "tool_version": __version__,
        "command": f"verify {args.suite}",
        "params": {
            "suite": args.suite,
            "ids": ids,
            "n_max": args.n_max,
            "prime_lo": args.prime_lo,
            "prime_hi": args.prime_hi,
            "format": args.format,
        },
    }
    rows = _run_all(tasks, args.jobs)
    batches = _slot_in(rows, _INJECTED) if args.inject_failure else rows
    try:
        failed = _write_report(out, args.format, head, batches,
                               t0 if args.timing else None)
    finally:
        rows.close()  # after an early end, stops any pool workers at once
        if out is not sys.stdout:
            out.close()
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left (`| head`): point stdout at /dev/null so that the
        # interpreter's flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # what a shell reports for a process killed by SIGPIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
