"""End-to-end acceptance gate.

Ten criteria, one test each, in order.  Every test prints a single
"criterion NN: PASS/FAIL ..." line (visible in the -rA summary) and then
asserts, so a red run shows exactly which criterion fell over and with what
measured numbers.
"""

import json
import time

from dombcheck.arith import PrimePowerModulus, primes_in_range, residue_of_rational
from dombcheck.checks import CHECKS, sweep
from dombcheck.cli import main
from dombcheck.congruences import (
    LEMMA_TAGS,
    PROOF_STEP_TAGS,
    TAG_POWER,
    exact_lhs,
    verify_proof_step,
    verify_thm1,
    verify_thm2,
)
from dombcheck.divisibility import (
    check_alternating_positivity,
    check_ratio_monotone,
    thm3_value,
)
from dombcheck.identities import (
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
from dombcheck.sequences import (
    CCL_LIMIT,
    ROGERS_LIMIT,
    ccl_partial,
    domb,
    domb_by_definition,
    domb_via_cz,
    domb_via_ctyz,
    domb_via_sunzh,
    rogers_partial,
)


def _verdict(num, ok, detail=""):
    word = "PASS" if ok else "FAIL"
    tail = f" {detail}" if detail else ""
    print(f"criterion {num:02d}: {word}{tail}")
    assert ok, f"criterion {num:02d} failed {tail}"


def test_criterion_01_five_way_domb_agreement():
    t0 = time.monotonic()
    bad = [
        n
        for n in range(201)
        if not domb(n) == domb_by_definition(n) == domb_via_cz(n)
        == domb_via_sunzh(n) == domb_via_ctyz(n)
    ]
    elapsed = time.monotonic() - t0
    _verdict(1, not bad and elapsed < 30.0,
             f"n <= 200, five routes, {elapsed:.2f}s (budget 30s), mismatches={bad}")


def test_criterion_02_thm1_sweep_to_499():
    t0 = time.monotonic()
    primes = primes_in_range(5, 499)
    results = {p: verify_thm1(p) for p in primes}
    elapsed = time.monotonic() - t0
    ok = (
        len(primes) == 93
        and all(r.holds for r in results.values())
        and results[5].lhs.value == 505 and results[5].modulus.m == 625
        and results[7].lhs.value == 1708 and results[7].modulus.m == 2401
        and elapsed < 60.0
    )
    _verdict(2, ok,
             f"{len(primes)} primes mod p^4, residues 505@5 and 1708@7 pinned, "
             f"{elapsed:.2f}s (budget 60s)")


def test_criterion_03_thm2_sweep_to_499():
    results = {p: verify_thm2(p) for p in primes_in_range(5, 499)}
    ok = all(r.holds for r in results.values()) and results[5].lhs.value == 510
    _verdict(3, ok, f"{len(results)} primes mod p^4, residue 510@5 pinned")


def test_criterion_04_lemma_suite_to_499():
    out = sweep(LEMMA_TAGS, 5, 499)
    failed = [r for r in out if not r.holds]
    _verdict(4, len(out) == 93 * len(LEMMA_TAGS) and not failed,
             f"{len(out)} checks across b3,b4,b5,b6,b8,b9,b11, failures={len(failed)}")


def test_criterion_05_proof_step_suite_to_199():
    out = sweep(PROOF_STEP_TAGS, 5, 199)
    failed = [r for r in out if not r.holds]
    split_ok = True
    for p in primes_in_range(5, 199):
        m = p ** 4
        lhs11 = verify_proof_step("c11", p)[0].lhs.value
        lhs12 = verify_proof_step("c12", p)[0].lhs.value
        if (lhs11 + lhs12) % m != verify_thm1(p).lhs.value:
            split_ok = False
            break
    _verdict(5, not failed and split_ok,
             f"{len(out)} checks across c5,c8,c9,c10,c11,c12,d4,d5, "
             f"failures={len(failed)}, c11+c12 partition of thm1: {split_ok}")


def test_criterion_06_identity_suite():
    failures = []
    total = 0

    def tally(rep):
        nonlocal total
        total += 1
        if not rep.holds:
            failures.append((rep.id, rep.params))

    for tag in ("cz", "sunzh", "ctyz"):
        for n in range(201):
            tally(check_transformation(tag, n))
    for n in range(1, 101):
        for i in range(n):
            tally(check_c2(n, i))
            tally(check_e_inner("e_inner_plus", n, i))
            tally(check_e_inner("e_inner_alt", n, i))
        for i in range((n - 1) // 2 + 1):
            tally(check_d2(n, i))
    for n in range(1, 100, 2):
        tally(check_rearrangement("c3", n))
        tally(check_rearrangement("d3", n))
    for n in range(201):
        tally(check_b1(n))
        tally(check_b2(n))
    for m in range(401):
        tally(check_b10gen(m))
    for n in range(1, 101):
        tally(check_e_full("e1", n))
        tally(check_e_full("e2", n))
    _verdict(6, not failures, f"{total} identity checks, failures={failures[:5]}")


def test_criterion_07_thm3_suite():
    values_ok = all(
        thm3_value(n, base) > 0 for n in range(1, 301) for base in (8, -8)
    )
    growth_ok, first_bad = check_ratio_monotone(1000)
    alt_ok = all(check_alternating_positivity(n)[0] for n in range(1, 301))
    _verdict(7, values_ok and growth_ok and alt_ok,
             f"positive integers to n=300 both bases, ratio/bound to k=1000 "
             f"(first_bad={first_bad}), alternating positivity to n=300")


def test_criterion_08_oracle_equivalence_to_50():
    mismatches = []
    count = 0
    for p in primes_in_range(5, 50):
        for tag, check in CHECKS.items():
            if check.suite != "congruences":
                continue
            mod = PrimePowerModulus(p, TAG_POWER[tag])
            for r in check.verify(p):
                count += 1
                want = residue_of_rational(exact_lhs(tag, p, r.index), mod)
                if want != r.lhs:
                    mismatches.append((tag, p, r.index))
    _verdict(8, not mismatches,
             f"{count} ring-vs-exact comparisons over all tags, p <= 50, "
             f"mismatches={mismatches[:5]}")


def test_criterion_09_series_diagnostics():
    ccl_err = abs(ccl_partial(100) - CCL_LIMIT)
    rogers_err = abs(rogers_partial(4000) - ROGERS_LIMIT)
    ok = ccl_err <= 1e-12 and rogers_err <= 1e-3
    _verdict(9, ok,
             f"measured: |ccl_partial(100) - 8/(sqrt(3) pi)| = {ccl_err:.3e} "
             f"(tolerance 1e-12), |rogers_partial(4000) - 2/pi| = {rogers_err:.3e} "
             f"(tolerance 1e-3)")


def test_criterion_10_deterministic_reports(tmp_path):
    paths = {}
    codes = {}
    for jobs in (1, 8):
        for attempt in (1, 2):
            out = tmp_path / f"report_j{jobs}_{attempt}.json"
            codes[(jobs, attempt)] = main(
                ["verify", "all", "--jobs", str(jobs), "--out", str(out)]
            )
            paths[(jobs, attempt)] = out
    blobs = {key: path.read_bytes() for key, path in paths.items()}
    identical = len(set(blobs.values())) == 1
    zero_exit = set(codes.values()) == {0}
    n_results = len(json.loads(blobs[(1, 1)])["results"])
    _verdict(10, identical and zero_exit,
             f"verify all twice at --jobs 1 and --jobs 8: {n_results} records, "
             f"byte-identical={identical}, exit codes={sorted(set(codes.values()))}")
