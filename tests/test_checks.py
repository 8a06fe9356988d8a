"""The check registry: its grids, that a new check needs one entry only, and
that a mutated primitive falsifies exactly the checks that read it."""

import importlib
import json

import pytest

import dombcheck
from dombcheck import cli, sequences
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


# ---------------------------------------------------------------- mutation table

# a perturbed primitive -> (its name, the mutant made from the original, the
# exact set of identity and divisibility tags it falsifies on the grids to
# n = 20); the harmonic mutants shift the n-th value of every order r
PRIMITIVE_MUTANTS = {
    "franel(3)+1": (
        "franel", lambda f: lambda n: f(n) + (n == 3),
        {"ctyz", "e1", "e2", "thm3_minus", "thm3_plus"},
    ),
    "domb(7) negated": (
        "domb", lambda f: lambda n: -f(n) if n == 7 else f(n),
        {"alt_positivity", "c3", "d3", "e1", "e2", "ratio_monotone", "thm3_minus",
         "thm3_plus"},
    ),
    "domb_by_definition(6)+1": (
        "domb_by_definition", lambda f: lambda n: f(n) + (n == 6), {"cz", "sunzh", "ctyz"},
    ),
    "domb_via_cz(6)+1": ("domb_via_cz", lambda f: lambda n: f(n) + (n == 6), {"cz"}),
    "domb_via_sunzh(6)+1": ("domb_via_sunzh", lambda f: lambda n: f(n) + (n == 6), {"sunzh"}),
    "domb_via_ctyz(6)+1": ("domb_via_ctyz", lambda f: lambda n: f(n) + (n == 6), {"ctyz"}),
    "catalan(3)+1": (
        "catalan", lambda f: lambda i: f(i) + (i == 3), {"e1", "e_inner_plus", "thm3_plus"},
    ),
    # +4 keeps catalan(3) = C(6,3)/4 an integer
    "central_binomial[3]+4": (
        "central_binomial", lambda t: [t[i] + 4 * (i == 3) for i in range(41)],
        {"c3", "cz", "d3", "e1", "e_inner_plus", "sunzh", "thm3_plus"},
    ),
    # the transformed Domb routes read binomial too
    "binomial(7,3)+1": (
        "binomial", lambda f: lambda n, k: f(n, k) + ((n, k) == (7, 3)),
        {"b1", "b2", "c2", "c3", "ctyz", "cz", "d2", "e2", "e_inner_alt", "e_inner_plus",
         "sunzh", "thm3_minus"},
    ),
    "harmonic(4)+1": (
        "harmonic", lambda f: lambda n, r=1: f(n, r) + (n == 4), {"b1", "b2", "b10gen"},
    ),
    "alt_harmonic(5)+1": (
        "alt_harmonic", lambda f: lambda n, r=1: f(n, r) + (n == 5), {"b1", "b2", "b10gen"},
    ),
}

NON_CONGRUENCE_TAGS = {t for t, c in CHECKS.items() if c.suite != "congruences"}
MODULES = [dombcheck] + [
    importlib.import_module(f"dombcheck.{m}")
    for m in ("sequences", "harmonic", "identities", "divisibility", "congruences", "checks")
]


@pytest.fixture
def fresh_cursors():
    """Start and leave the test with no running sum, so a mutant's sums
    reach the checks and no later test reads them."""
    sequences._cursors.clear()
    yield
    sequences._cursors.clear()


@pytest.mark.parametrize("label", PRIMITIVE_MUTANTS)
def test_a_mutated_primitive_falsifies_exactly_its_readers(monkeypatch, fresh_cursors, label):
    name, make_mutant, want = PRIMITIVE_MUTANTS[label]
    original = getattr(dombcheck, name)
    mutant = make_mutant(original)
    for mod in MODULES:  # every module that holds the name
        if vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, mutant)
    caught = {
        tag
        for tag in NON_CONGRUENCE_TAGS
        if not all(holds for args in CHECKS[tag].grid(20, [])
                   for *_, holds in CHECKS[tag].evaluate(*args))
    }
    assert caught == want


def test_the_mutation_table_reaches_every_identity_and_divisibility_tag():
    assert set().union(*(want for *_, want in PRIMITIVE_MUTANTS.values())) == NON_CONGRUENCE_TAGS
    assert len(NON_CONGRUENCE_TAGS) == 18
