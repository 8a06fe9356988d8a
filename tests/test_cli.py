"""Command line behavior: output shapes, exit codes, determinism."""

import csv
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dombcheck
from dombcheck import __version__, cli, congruences, identities
from dombcheck.arith import primes_in_range
from dombcheck.checks import CHECKS
from dombcheck.cli import build_parser, main
from dombcheck.sequences import euler_number

REPO = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- compute

def test_compute_domb_prefix(capsys):
    code, out, err = run(capsys, "compute", "domb", "--n-max", "6")
    assert code == 0 and err == ""
    assert out.splitlines() == [
        "0 1", "1 4", "2 28", "3 256", "4 2716", "5 31504", "6 387136",
    ]


def test_compute_euler_includes_odd_zeros(capsys):
    code, out, _ = run(capsys, "compute", "euler", "--n-max", "10")
    lines = out.splitlines()
    assert code == 0
    assert lines[1] == "1 0"
    assert lines[10] == "10 -50521"


def test_compute_euler_prints_the_euler_numbers(capsys):
    code, out, _ = run(capsys, "compute", "euler", "--n-max", "60")
    assert code == 0
    assert out.splitlines() == [f"{i} {euler_number(i)}" for i in range(61)]


def test_compute_unknown_sequence(capsys):
    code, out, err = run(capsys, "compute", "motzkin", "--n-max", "3")
    assert code == 2
    assert out == ""
    assert "choose from" in err


def test_compute_rejects_negative_n_max(capsys):
    code, _, err = run(capsys, "compute", "domb", "--n-max", "-1")
    assert code == 2 and "--n-max" in err


def test_compute_prints_values_past_the_int_str_digit_limit(capsys):
    # Domb(3576) is the first value past Python's default 4300-digit limit;
    # start from that default, since an earlier main() may have lifted it
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "compute", "domb", "--n-max", "3600")
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)
    assert code == 0 and err == ""
    index, value = out.splitlines()[-1].split()
    assert index == "3600" and len(value) > 4300


# ---------------------------------------------------------------- series

def test_series_rogers_frozen_value(capsys):
    code, out, _ = run(capsys, "series", "rogers", "--k", "2")
    assert code == 0
    assert "value=0.595703125" in out
    assert "abs_error=" in out


def test_series_ccl_runs(capsys):
    code, out, _ = run(capsys, "series", "ccl", "--k", "0")
    assert code == 0
    assert "value=1" in out


@pytest.mark.parametrize("which,k", [("rogers", "1"), ("ccl", "-1"), ("rogers", "10001")])
def test_series_k_bounds(capsys, which, k):
    code, _, err = run(capsys, "series", which, "--k", k)
    assert code == 2 and "--k must be in" in err


def test_series_unknown_name(capsys):
    code, _, err = run(capsys, "series", "zeta", "--k", "3")
    assert code == 2 and "unknown series" in err


# ---------------------------------------------------------------- verify: json

def test_verify_single_tag_report_shape(capsys):
    code, out, err = run(
        capsys, "verify", "congruences", "--ids", "thm1", "--prime-hi", "7"
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["command"] == "verify congruences"
    assert report["params"]["ids"] == ["thm1"]
    assert report["params"]["prime_lo"] == 5
    assert report["summary"] == {"total": 2, "passed": 2, "failed": 0}
    assert "wall_time_ms" not in report
    first = report["results"][0]
    assert first == {
        "id": "thm1", "params": {"p": 5},
        "lhs": "505", "rhs": "505", "modulus": "625", "holds": True,
    }


THM1_AT_5 = """{
  "tool_version": "%s",
  "command": "verify congruences",
  "params": {
    "suite": "congruences",
    "ids": [
      "thm1"
    ],
    "n_max": 100,
    "prime_lo": 5,
    "prime_hi": 5,
    "format": "json"
  },
  "results": [
    {
      "id": "thm1",
      "params": {
        "p": 5
      },
      "lhs": "505",
      "rhs": "505",
      "modulus": "625",
      "holds": true
    }
  ],
  "summary": {
    "total": 1,
    "passed": 1,
    "failed": 0
  }
}
""" % __version__


def test_verify_report_layout_is_pinned(capsys):
    # raw text: parsed dicts compare equal whatever their key order
    code, out, err = run(capsys, "verify", "congruences", "--ids", "thm1", "--prime-hi", "5")
    assert code == 0 and err == ""
    assert out == THM1_AT_5


def test_verify_per_index_records_carry_i(capsys):
    code, out, _ = run(
        capsys, "verify", "congruences", "--ids", "c5", "--prime-hi", "5"
    )
    assert code == 0
    report = json.loads(out)
    assert [r["params"] for r in report["results"]] == [
        {"p": 5, "i": 0}, {"p": 5, "i": 1}, {"p": 5, "i": 2},
    ]


def test_verify_timing_flag_controls_the_key(capsys):
    _, out, _ = run(capsys, "verify", "divisibility", "--n-max", "3", "--timing")
    report = json.loads(out)
    assert isinstance(report["wall_time_ms"], int)
    assert report["wall_time_ms"] >= 0


def test_verify_identities_small(capsys):
    code, out, _ = run(capsys, "verify", "identities", "--ids", "cz", "--n-max", "5")
    report = json.loads(out)
    assert code == 0
    assert report["summary"] == {"total": 6, "passed": 6, "failed": 0}
    assert report["results"][0]["modulus"] == ""


def test_verify_divisibility_small(capsys):
    code, out, _ = run(capsys, "verify", "divisibility", "--n-max", "5")
    report = json.loads(out)
    assert code == 0
    # 5 + 5 + 5 per-n records plus one whole-range monotonicity record
    assert report["summary"]["total"] == 16
    mono = [r for r in report["results"] if r["id"] == "ratio_monotone"]
    assert mono == [{
        "id": "ratio_monotone", "params": {"n": 5},
        "lhs": "-1", "rhs": "-1", "modulus": "", "holds": True,
    }]


def test_verify_injected_failure_flips_exit_code(capsys):
    code, out, err = run(
        capsys, "verify", "congruences", "--ids", "thm1", "--prime-hi", "5",
        "--inject-failure",
    )
    assert code == 1
    assert "FALSIFIED inject" in err
    assert "rerun" not in err  # no check made the debug record
    report = json.loads(out)
    assert report["summary"]["failed"] == 1
    debug = [r for r in report["results"] if r["id"] == "inject"]
    assert debug and debug[0]["holds"] is False


@pytest.mark.parametrize(
    "module,attr,key,argv,rerun",
    [
        (identities, "check_c2", (7, 3),
         ("verify", "all", "--ids", "c2", "--n-max", "10"),
         "dombcheck verify identities --ids c2 --n-max 7"),
        (congruences, "verify_thm1", (11,),
         ("verify", "congruences", "--ids", "thm1", "--prime-hi", "23"),
         "dombcheck verify congruences --ids thm1 --prime-lo 11 --prime-hi 11"),
    ],
    ids=["identities", "congruences"],
)
def test_falsified_line_carries_a_command_that_reruns_it(
    capsys, monkeypatch, module, attr, key, argv, rerun
):
    real = getattr(module, attr)

    def falsified_at_key(*args):
        res = real(*args)
        return dataclasses.replace(res, holds=False) if args == key else res

    monkeypatch.setattr(module, attr, falsified_at_key)
    code, _, err = run(capsys, *argv)
    [line] = err.splitlines()
    assert code == 1 and line.endswith(f" rerun: {rerun}")
    code, _, err_again = run(capsys, *rerun.split()[1:])
    assert code == 1 and err_again == err


# ---------------------------------------------------------------- verify: csv

def test_verify_csv_shape(capsys):
    code, out, _ = run(
        capsys, "verify", "congruences", "--ids", "c5", "--prime-hi", "5",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "suite,id,p_or_n,aux_index,modulus,lhs,rhs,holds"
    assert lines[1].split(",") == ["congruences", "c5", "5", "0", "25", "1", "1", "true"]
    assert len(lines) == 4
    code, out, _ = run(
        capsys, "verify", "congruences", "--ids", "c5", "--prime-hi", "5",
        "--format", "csv", "--inject-failure",
    )
    assert code == 1
    assert "debug,inject,,,,0,1,false" in out.splitlines()


# ---------------------------------------------------------------- verify: errors

def test_verify_unknown_ids(capsys):
    code, _, err = run(capsys, "verify", "congruences", "--ids", "thm1,zz")
    assert code == 2 and "unknown check ids" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "congruences", "--prime-lo", "3"),
        ("verify", "congruences", "--prime-lo", "11", "--prime-hi", "7"),
        ("verify", "identities", "--n-max", "-1"),
    ],
)
def test_verify_bad_ranges(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2 and "need" in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (("verify", "all", "--ids", ","), "no check id selected"),
        (("verify", "congruences", "--prime-lo", "24", "--prime-hi", "28"), "thm1, thm2, b3"),
        (("verify", "all", "--prime-lo", "24", "--prime-hi", "28"), "thm1, thm2, b3"),
        (("verify", "divisibility", "--n-max", "0"),
         "thm3_plus, thm3_minus, ratio_monotone, alt_positivity"),
    ],
    ids=["no_ids", "congruences_without_primes", "all_without_primes", "divisibility_n0"],
)
def test_an_empty_selection_is_a_usage_error(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert named in err


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "everything"])
    capsys.readouterr()


# ---------------------------------------------------------------- determinism

SMALL_RUN = (
    "verify", "all", "--ids", "cz,b3,c5,thm3_minus",
    "--n-max", "8", "--prime-hi", "13",
)


def test_reports_are_bytewise_reproducible(capsys):
    code1, out1, _ = run(capsys, *SMALL_RUN)
    code2, out2, _ = run(capsys, *SMALL_RUN)
    assert code1 == code2 == 0
    assert out1 == out2


def test_reports_do_not_depend_on_jobs(capsys):
    _, serial, _ = run(capsys, *SMALL_RUN, "--jobs", "1")
    _, parallel, _ = run(capsys, *SMALL_RUN, "--jobs", "2")
    assert serial == parallel


# sha256 of `dombcheck verify all` at the defaults, unchanged since the seed
DEFAULT_REPORT_SHA256 = {
    "json": "fc88dc824737f712990e5c355366b7c0bda8fe4e45d95e51725a9273fd6d5c12",
    "csv": "3bed9f0b66d2b030089528e43b08bec3821e1dec656637e52a620de8476367f2",
}


@pytest.mark.parametrize("fmt, jobs", [("json", "1"), ("json", "2"), ("csv", "1")])
def test_default_reports_are_pinned_byte_for_byte(capsys, fmt, jobs):
    code, out, _ = run(capsys, "verify", "all", "--format", fmt, "--jobs", jobs)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DEFAULT_REPORT_SHA256[fmt]


def test_spawned_workers_give_the_serial_records(monkeypatch):
    # spawned workers import the package afresh, so every inner-sum prefix
    # starts empty in them; criterion 10 runs the pool under fork only
    tasks = cli._tasks([t for t, c in CHECKS.items() if c.suite == "identities"], 30, [])
    serial = list(cli._run_all(tasks, 1))
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: spawn)
    assert list(cli._run_all(tasks, 2)) == serial


# ---------------------------------------------------------------- pool chunks

def verify_tasks(*argv):
    """The task list that `dombcheck verify ARGV` builds, without running it."""
    args = build_parser().parse_args(["verify", *argv])
    ids = cli._resolve_ids(args.suite, args.ids)
    return cli._tasks(sorted(ids), args.n_max, primes_in_range(args.prime_lo, args.prime_hi))


def test_task_rows_are_the_rows_a_task_returns():
    for task in verify_tasks("all", "--n-max", "6", "--prime-hi", "41"):
        assert cli._task_rows(task) == len(cli._run_task(task)), task


def test_chunks_to_10007_keep_the_task_order_and_the_row_cap():
    tasks = verify_tasks("congruences", "--prime-hi", "10007")
    chunks = list(cli._chunks(tasks, 2))
    assert [task for chunk in chunks for task in chunk] == tasks
    assert max(sum(map(cli._task_rows, chunk)) for chunk in chunks) <= cli.ROW_CAP
    # by task count alone, c5's ~2.9M rows would leave as one or two messages
    assert sum(chunk[0][0] == "c5" for chunk in chunks) > 250


@pytest.mark.parametrize("argv", [("all",), ("all", "--n-max", "200"),
                                  ("congruences", "--prime-hi", "499")])
def test_default_size_task_lists_are_cut_by_task_count_alone(argv):
    tasks = verify_tasks(*argv)
    size = len(tasks) // 16
    want = [tasks[i:i + size] for i in range(0, len(tasks), size)]
    assert list(cli._chunks(tasks, 2)) == want


def test_row_capped_chunks_give_the_serial_report(capsys):
    argv = ("verify", "congruences", "--ids", "c5,d4", "--prime-lo", "9973",
            "--prime-hi", "10007")
    code1, serial, _ = run(capsys, *argv, "--jobs", "1")
    code2, parallel, _ = run(capsys, *argv, "--jobs", "2")
    assert code1 == code2 == 0
    assert serial == parallel
    assert json.loads(serial)["summary"]["total"] == 2 * (4987 + 5004)


def running(pid: str) -> bool:
    """Whether the process exists and is neither a zombie nor dead."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


def cli_process(*argv, **kwargs) -> subprocess.Popen:
    """`python -m dombcheck.cli ARGV` as a child process."""
    env = dict(os.environ, PYTHONPATH=str(Path(dombcheck.__file__).parent.parent))
    return subprocess.Popen([sys.executable, "-m", "dombcheck.cli", *argv], env=env, **kwargs)


def pool_workers(proc, deadline_s=30) -> list[str]:
    """The pids of proc's two pool workers, once both are started; skips
    where /proc does not list a process's children."""
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    workers = []
    deadline = time.monotonic() + deadline_s
    while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
        time.sleep(0.05)
        if not children.exists():
            pytest.skip("no /proc/<pid>/task/<pid>/children here")
        workers = children.read_text().split()
    assert len(workers) == 2, "the pool never started"
    return workers


def wait_gone(workers, deadline_s) -> list[str]:
    """The workers still running after up to deadline_s seconds."""
    deadline = time.monotonic() + deadline_s
    while any(map(running, workers)) and time.monotonic() < deadline:
        time.sleep(0.02)
    return [w for w in workers if running(w)]


def reap(proc, workers) -> None:
    """Kill whatever of the CLI and its workers is still there."""
    proc.kill()
    proc.wait()
    for w in workers:
        if running(w):
            os.kill(int(w), signal.SIGKILL)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["term", "kill"])
def test_pool_workers_exit_when_the_cli_is_killed(sig):
    env = dict(os.environ, PYTHONPATH=str(Path(dombcheck.__file__).parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dombcheck.cli", "verify", "all", "--jobs", "2",
         "--n-max", "200", "--out", os.devnull],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    children = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
    workers = []
    try:
        deadline = time.monotonic() + 30
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            if not children.exists():
                pytest.skip("no /proc/<pid>/task/<pid>/children here")
            workers = children.read_text().split()
        assert len(workers) == 2, "the pool never started"
        proc.send_signal(sig)
        proc.wait()
        deadline = time.monotonic() + 2
        while any(map(running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [w for w in workers if running(w)]
    finally:
        proc.kill()
        proc.wait()
        for w in workers:
            if running(w):
                os.kill(int(w), signal.SIGKILL)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc")
def test_pool_workers_stop_mid_chunk_when_the_cli_is_killed():
    # 1833 thm1 tasks from 3000 on: each worker's first chunk holds 114 of
    # them, 1.8 s of work or more on a 2-core x86-64 host, and the CLI is
    # killed 0.5 s into it; a worker that left only between chunks would
    # outlive the CLI by more than a second
    proc = cli_process("verify", "congruences", "--ids", "thm1", "--prime-lo", "3000",
                       "--prime-hi", "20011", "--jobs", "2", "--out", os.devnull)
    workers = []
    try:
        workers = pool_workers(proc)
        time.sleep(0.5)
        proc.kill()
        proc.wait()
        assert not wait_gone(workers, 0.5)
    finally:
        reap(proc, workers)


@pytest.mark.parametrize(
    "argv",
    [("verify", "congruences", "--prime-hi", "997", "--jobs", "1"),
     ("verify", "congruences", "--prime-hi", "997", "--jobs", "2"),
     ("compute", "domb", "--n-max", "2000")],
    ids=["verify_jobs1", "verify_jobs2", "compute"],
)
def test_a_closed_stdout_ends_the_run_quietly(argv):
    workers = []
    with cli_process(*argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            proc.stdout.read(1)  # at --jobs 2, the head comes as the pool forks
            if argv[-2:] == ("--jobs", "2"):
                workers = pool_workers(proc)
            proc.stdout.close()
            closed = time.monotonic()
            code = proc.wait(timeout=10)
            # a run that went on to its end would take about 2 s more
            assert time.monotonic() - closed < 1.2
            assert (code, proc.stderr.read()) == (141, b"")
            assert not wait_gone(workers, 0.2)
        finally:
            reap(proc, workers)


def test_an_unwritable_out_path_is_a_usage_error(tmp_path):
    out = tmp_path / "missing" / "report.json"
    proc = cli_process("verify", "all", "--out", str(out),
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    stdout, stderr = proc.communicate(timeout=30)
    assert proc.returncode == 2
    assert stdout == ""
    assert stderr == f"cannot write --out {out}: No such file or directory\n"


def test_records_come_out_sorted(capsys):
    _, out, _ = run(capsys, *SMALL_RUN)
    report = json.loads(out)
    keys = [(r["id"], tuple(r["params"].values())) for r in report["results"]]
    assert keys == sorted(keys)


def test_out_flag_writes_the_report_to_a_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, *SMALL_RUN, "--out", str(target))
    assert code == 0
    assert out == ""
    report = json.loads(target.read_text())
    assert report["summary"]["failed"] == 0
    _, out, _ = run(capsys, *SMALL_RUN)
    assert target.read_text() == out


# ---------------------------------------------------------------- streamed report

FRACTION_RUN = ("verify", "identities", "--ids", "e1,c3", "--n-max", "7")


@pytest.mark.parametrize(
    "argv",
    [SMALL_RUN, (*SMALL_RUN, "--jobs", "2"), (*SMALL_RUN, "--inject-failure"),
     (*SMALL_RUN, "--timing"), FRACTION_RUN],
    ids=["plain", "jobs2", "inject", "timing", "fraction_lhs"],
)
def test_streamed_json_is_laid_out_as_json_dumps(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == (1 if "--inject-failure" in argv else 0)
    # the hand-written emitter must give json.dumps's own bytes
    assert out == json.dumps(json.loads(out), indent=2) + "\n"
    report = json.loads(out)
    assert list(report)[-2:] == (
        ["summary", "wall_time_ms"] if "--timing" in argv else ["results", "summary"]
    )
    if argv == FRACTION_RUN:
        assert any("/" in r["lhs"] for r in report["results"])


def test_injected_record_sits_at_its_sorted_place(capsys):
    _, out, _ = run(capsys, *SMALL_RUN, "--inject-failure")
    ids = [r["id"] for r in json.loads(out)["results"]]
    assert ids == sorted(ids)
    at = ids.index("inject")
    assert ids[at - 1] == "cz" and ids[at + 1] == "thm3_minus"
    assert json.loads(out)["results"][at]["params"] == {}
    assert '"params": {},' in out


def test_csv_rows_match_the_json_records(capsys):
    _, out, _ = run(capsys, *SMALL_RUN, "--inject-failure")
    records = json.loads(out)["results"]
    _, text, _ = run(capsys, *SMALL_RUN, "--inject-failure", "--format", "csv")
    rows = list(csv.reader(io.StringIO(text)))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == text

    def flat(r):
        p_or_n, aux, *_ = [str(v) for v in r["params"].values()] + ["", ""]
        return [r["id"], p_or_n, aux, r["modulus"], r["lhs"], r["rhs"],
                "true" if r["holds"] else "false"]

    assert [row[1:] for row in rows[1:]] == [flat(r) for r in records]


def test_rows_out_of_order_are_refused(capsys, monkeypatch):
    descending = dataclasses.replace(
        CHECKS["cz"], grid=lambda n_max, primes: ((n,) for n in range(n_max, -1, -1))
    )
    monkeypatch.setitem(CHECKS, "cz", descending)
    with pytest.raises(RuntimeError, match="out of order"):
        main(["verify", "identities", "--ids", "cz", "--n-max", "3"])
    capsys.readouterr()


def test_an_early_end_stops_the_pool_workers_at_once(monkeypatch):
    descending = dataclasses.replace(
        CHECKS["cz"], grid=lambda n_max, primes: ((n,) for n in range(n_max, -1, -1))
    )
    monkeypatch.setitem(CHECKS, "cz", descending)
    with pytest.raises(RuntimeError, match="out of order") as raised:
        main(["verify", "identities", "--ids", "cz", "--n-max", "60", "--jobs", "2",
              "--out", os.devnull])
    # the traceback still holds the run's frames, and no worker is left
    assert raised.traceback and multiprocessing.active_children() == []


def test_traced_benchmark_run_still_works(tmp_path):
    # perfbench/tracer.py wraps cli.main and cli._run_all by name
    env = dict(os.environ, PYTHONPATH=str(Path(dombcheck.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "tracer.py"), str(tmp_path),
         "verify", "all", "--ids", "cz,thm1", "--n-max", "5", "--prime-hi", "11"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"]["failed"] == 0
    assert list(tmp_path.glob("spans.*.marshal"))


# ---------------------------------------------------------------- plumbing

def test_parser_prog_name():
    assert build_parser().prog == "dombcheck"
