"""The check registry: its grids, and that a new check needs one entry only."""

import json

from dombcheck import cli
from dombcheck.arith import primes_in_range
from dombcheck.checks import CHECKS, Check
from dombcheck.congruences import PER_INDEX_TAGS

# records of `verify all` at the defaults (--n-max 100, primes 5..199)
DEFAULT_RECORDS = {
    **dict.fromkeys(("c2", "e_inner_plus", "e_inner_alt"), 5050),
    "d2": 2550,
    **dict.fromkeys(("c5", "d4"), 2133),
    **dict.fromkeys(("cz", "sunzh", "ctyz", "b1", "b2", "b10gen"), 101),
    **dict.fromkeys(("e1", "e2", "thm3_plus", "thm3_minus", "alt_positivity"), 100),
    **dict.fromkeys(("c3", "d3"), 50),
    **dict.fromkeys(
        ("thm1", "thm2", "b3", "b4", "b5", "b6", "b8", "b9", "b11",
         "c8", "c9", "c10", "c11", "c12", "d5"),
        44,
    ),
    "ratio_monotone": 1,
}


def test_grids_give_the_default_record_counts():
    primes = primes_in_range(5, 199)
    records = {}
    for tag, check in CHECKS.items():
        args = list(check.grid(100, primes))
        # a per-index congruence gives one record per i <= (p-1)/2 at each prime
        if tag in PER_INDEX_TAGS:
            records[tag] = sum(len(check.evaluate(*a)) for a in args)
        else:
            records[tag] = len(args)
    assert records == DEFAULT_RECORDS
    assert sum(records.values()) == 23833


def test_every_entry_is_filed_under_its_tag():
    assert all(tag == check.tag for tag, check in CHECKS.items())
    assert {c.suite for c in CHECKS.values()} == {"identities", "congruences", "divisibility"}
    assert all((c.verify is not None) == (c.suite == "congruences") for c in CHECKS.values())


def test_a_new_entry_runs_through_verify_with_no_other_edit(monkeypatch, capsys):
    toy = Check(
        "toy_square", "identities",
        lambda n_max, primes: ((n,) for n in range(n_max + 1)),
        lambda n: [({"n": n}, n * n, n ** 2, "", True)],
    )
    monkeypatch.setitem(CHECKS, "toy_square", toy)
    argv = ["verify", "identities", "--ids", "toy_square", "--n-max", "3"]

    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["params"]["ids"] == ["toy_square"]
    assert report["results"] == [
        {"id": "toy_square", "params": {"n": n}, "lhs": str(n * n), "rhs": str(n * n),
         "modulus": "", "holds": True}
        for n in range(4)
    ]

    assert cli.main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"identities,toy_square,{n},,,{n * n},{n * n},true" for n in range(4)
    ]
