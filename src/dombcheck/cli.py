"""Command line front end: compute sequences, verify claim suites, probe series.

Subcommands:

  compute <domb|franel|euler|catalan> --n-max N
      print "index value" lines, exactly.

  verify <identities|congruences|divisibility|all> [--ids a,b,...]
         [--n-max N] [--prime-lo P] [--prime-hi Q] [--jobs J]
         [--out PATH] [--format json|csv] [--timing] [--inject-failure]
      run every selected check and emit a machine-readable report.
      Exit code 0 when everything holds, 1 on any falsification, 2 on usage
      errors.

  series <rogers|ccl> --k K
      print the partial-sum approximation, the analytic target and the
      absolute error.

Reports are deterministic: results are sorted by (id, numeric params), keys
are emitted in a fixed order, and big numbers are decimal strings.  The
measured wall time is included only when --timing is passed, so that
otherwise identical invocations produce byte-identical reports regardless
of --jobs.  DOMBCHECK_JOBS provides a default for --jobs; the flag wins.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .congruences import (
    CONGRUENCE_TAGS,
    TAG_POWER,
    _verify_any,
)
from .divisibility import (
    check_alternating_positivity,
    check_ratio_monotone,
    check_thm3,
)
from .identities import (
    IDENTITY_TAGS,
    check_b1,
    check_b2,
    check_b10gen,
    check_c2,
    check_d2,
    check_e_full,
    check_e_inner,
    check_rearrangement,
    check_transformation,
)
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
from .arith import primes_in_range

DIVISIBILITY_TAGS = ("thm3_plus", "thm3_minus", "ratio_monotone", "alt_positivity")
SERIES_MAX_K = 10000


def _fmt(x) -> str:
    """Decimal-string form of an int, Fraction or residue value."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    return str(int(x))


def _record(suite, cid, params: dict, lhs, rhs, modulus, holds) -> dict:
    return {
        "suite": suite,
        "id": cid,
        "params": params,
        "lhs": _fmt(lhs) if not isinstance(lhs, str) else lhs,
        "rhs": _fmt(rhs) if not isinstance(rhs, str) else rhs,
        "modulus": modulus,
        "holds": bool(holds),
    }


# ---------------------------------------------------------------- tasks

def _identity_tasks(ids, n_max):
    for tag in ids:
        if tag in ("cz", "sunzh", "ctyz", "b1", "b2", "b10gen"):
            for n in range(n_max + 1):
                yield ("ident", tag, n, None)
        elif tag in ("c3", "d3"):
            for n in range(1, n_max + 1, 2):
                yield ("ident", tag, n, None)
        elif tag in ("e1", "e2"):
            for n in range(1, n_max + 1):
                yield ("ident", tag, n, None)
        elif tag in ("c2", "e_inner_plus", "e_inner_alt"):
            for n in range(1, n_max + 1):
                for i in range(n):
                    yield ("ident", tag, n, i)
        elif tag == "d2":
            for n in range(1, n_max + 1):
                for i in range((n - 1) // 2 + 1):
                    yield ("ident", tag, n, i)


def _congruence_tasks(ids, p_lo, p_hi):
    for p in primes_in_range(p_lo, p_hi):
        for tag in ids:
            yield ("cong", tag, p, None)


def _divisibility_tasks(ids, n_max):
    for tag in ids:
        if tag in ("thm3_plus", "thm3_minus", "alt_positivity"):
            for n in range(1, n_max + 1):
                yield ("div", tag, n, None)
        else:  # ratio_monotone, one task for the whole range
            yield ("div", tag, n_max, None)


def _run_task(task) -> list[dict]:
    kind, tag, a, b = task
    if kind == "ident":
        if tag in ("cz", "sunzh", "ctyz"):
            rep = check_transformation(tag, a)
        elif tag == "c2":
            rep = check_c2(a, b)
        elif tag == "d2":
            rep = check_d2(a, b)
        elif tag in ("c3", "d3"):
            rep = check_rearrangement(tag, a)
        elif tag == "b1":
            rep = check_b1(a)
        elif tag == "b2":
            rep = check_b2(a)
        elif tag == "b10gen":
            rep = check_b10gen(a)
        elif tag in ("e_inner_plus", "e_inner_alt"):
            rep = check_e_inner(tag, a, b)
        else:
            rep = check_e_full(tag, a)
        if tag == "b10gen":
            params = {"m": a}
        elif b is None:
            params = {"n": a}
        else:
            params = {"n": a, "i": b}
        return [_record("identities", tag, params, rep.lhs, rep.rhs, "", rep.holds)]

    if kind == "cong":
        out = []
        for res in _verify_any(tag, a):
            params = {"p": res.p}
            if res.index is not None:
                params["i"] = res.index
            out.append(
                _record(
                    "congruences", tag, params,
                    res.lhs.value, res.rhs.value, str(res.modulus.m), res.holds,
                )
            )
        return out

    # divisibility
    if tag in ("thm3_plus", "thm3_minus"):
        rec = check_thm3(a, 8 if tag == "thm3_plus" else -8)
        return [
            _record(
                "divisibility", tag, {"n": a},
                rec.value, rec.franel_route, "", rec.holds,
            )
        ]
    if tag == "alt_positivity":
        ok, value = check_alternating_positivity(a)
        return [_record("divisibility", tag, {"n": a}, value, "0", "", ok)]
    ok, where = check_ratio_monotone(a)
    first_bad = -1 if where is None else where
    return [_record("divisibility", tag, {"n": a}, first_bad, "-1", "", ok)]


def _prewarm(tasks) -> None:
    """Fill shared tables in the parent so forked workers inherit them."""
    max_domb = 0
    for kind, tag, a, _b in tasks:
        if kind == "cong":
            max_domb = max(max_domb, a - 1)
        elif kind in ("ident", "div"):
            max_domb = max(max_domb, a)
    if max_domb:
        domb(max_domb)


def _run_all(tasks, jobs) -> list[dict]:
    if jobs <= 1 or len(tasks) <= 1:
        out = []
        for t in tasks:
            out.extend(_run_task(t))
        return out
    import concurrent.futures as cf
    import multiprocessing as mp

    _prewarm(tasks)
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
    results = [
        {
            "id": r["id"],
            "params": r["params"],
            "lhs": r["lhs"],
            "rhs": r["rhs"],
            "modulus": r["modulus"],
            "holds": r["holds"],
        }
        for r in records
    ]
    failed = sum(1 for r in records if not r["holds"])
    report = {
        "tool_version": __version__,
        "command": command,
        "params": params,
        "results": results,
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
        vals = list(r["params"].values())
        p_or_n = vals[0] if vals else ""
        aux = vals[1] if len(vals) > 1 else ""
        w.writerow(
            [r["suite"], r["id"], p_or_n, aux, r["modulus"], r["lhs"], r["rhs"],
             "true" if r["holds"] else "false"]
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


def _resolve_ids(suite, requested):
    catalog = {
        "identities": list(IDENTITY_TAGS),
        "congruences": list(CONGRUENCE_TAGS),
        "divisibility": list(DIVISIBILITY_TAGS),
    }
    suites = [suite] if suite != "all" else ["identities", "congruences", "divisibility"]
    chosen = {s: catalog[s] for s in suites}
    if requested:
        wanted = [t.strip() for t in requested.split(",") if t.strip()]
        known = {t for s in suites for t in catalog[s]}
        bad = [t for t in wanted if t not in known]
        if bad:
            raise ValueError(f"unknown check ids for suite {suite}: {', '.join(bad)}")
        chosen = {s: [t for t in catalog[s] if t in wanted] for s in suites}
    return chosen


def cmd_verify(args) -> int:
    t0 = time.monotonic()
    try:
        chosen = _resolve_ids(args.suite, args.ids)
    except ValueError as e:
        print(str(e), file=sys.stderr)
        return 2
    if args.n_max < 0 or args.prime_lo < 5 or args.prime_lo > args.prime_hi:
        print("need --n-max >= 0 and 5 <= --prime-lo <= --prime-hi", file=sys.stderr)
        return 2

    tasks = []
    tasks.extend(_identity_tasks(chosen.get("identities", ()), args.n_max))
    tasks.extend(_congruence_tasks(chosen.get("congruences", ()), args.prime_lo, args.prime_hi))
    tasks.extend(_divisibility_tasks(chosen.get("divisibility", ()), args.n_max))

    records = _run_all(tasks, args.jobs)
    if args.inject_failure:
        records.append(
            _record("debug", "inject", {}, "0", "1", "", False)
        )
    records.sort(key=_sort_key)

    failed = [r for r in records if not r["holds"]]
    for r in failed:
        print(f"FALSIFIED {r['id']} {r['params']} lhs={r['lhs']} rhs={r['rhs']}",
              file=sys.stderr)

    params = {
        "suite": args.suite,
        "ids": [t for s in ("identities", "congruences", "divisibility")
                for t in chosen.get(s, ())],
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


def _default_jobs() -> int:
    env = os.environ.get("DOMBCHECK_JOBS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


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
    v.add_argument("suite", choices=["identities", "congruences", "divisibility", "all"])
    v.add_argument("--ids", default="")
    v.add_argument("--n-max", type=int, default=100)
    v.add_argument("--prime-lo", type=int, default=5)
    v.add_argument("--prime-hi", type=int, default=199)
    v.add_argument("--jobs", type=int, default=None)
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
    if getattr(args, "cmd", "") == "verify" and args.jobs is None:
        args.jobs = _default_jobs()
    return args.fn(args)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
