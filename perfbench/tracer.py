"""Run the dombcheck CLI with a span recorded around every call into a layer.

Usage (from the repository root, with src on PYTHONPATH):

    python3 perfbench/tracer.py TRACE_DIR CLI_ARG...

Each function named in TARGETS is replaced, in every dombcheck module that
holds a reference to it, by a wrapper that records one span per call.  A
span is the id of its name, the index of the enclosing span (-1 for none)
and its start and end in perf_counter_ns.  Names are keyed by layer and
check tag, not by function name, so the metric names survive a refactor
that moves the code; a refactor that removes a wrapped function makes the
tracer fail at start-up instead of silently recording less.

Spans stay in memory.  Every process writes its own
TRACE_DIR/spans.<pid>.marshal when it ends; pool workers started by fork
write theirs from a multiprocessing finalizer, because they leave through
os._exit and skip atexit.  The package itself is not modified.
"""

from __future__ import annotations

import importlib
import marshal
import multiprocessing.util
import os
import sys
from array import array
from time import perf_counter_ns

LAYERS = ("arith", "sequences", "harmonic", "identities", "congruences", "divisibility", "cli")


def _fixed(name):
    return lambda *args, **kwargs: name


def _by_tag(layer):
    return lambda tag, *args, **kwargs: f"{layer}.{tag}"


def _thm3(n, base):
    return "divisibility.thm3_plus" if base == 8 else "divisibility.thm3_minus"


# module -> function name -> span namer (called with the wrapped call's arguments)
TARGETS = {
    "arith": {
        "primes_in_range": _fixed("arith.primes"),
        "fermat_quotient": _fixed("arith.fermat"),
    },
    "sequences": {
        "domb": None,  # filled in by Tracer, which also tracks the largest n
        "domb_via_cz": _fixed("sequences.transform"),
        "domb_via_sunzh": _fixed("sequences.transform"),
        "domb_via_ctyz": _fixed("sequences.transform"),
        "franel": _fixed("sequences.franel"),
        "euler_number_mod": _fixed("sequences.euler_mod"),
        "rogers_partial": _fixed("sequences.series"),
        "ccl_partial": _fixed("sequences.series"),
    },
    "harmonic": {
        "harmonic": _fixed("harmonic.sum"),
        "alt_harmonic": _fixed("harmonic.sum"),
        "alt_harmonic_weighted": _fixed("harmonic.sum"),
    },
    "identities": {
        "check_transformation": _by_tag("identities"),
        "check_c2": _fixed("identities.c2"),
        "check_d2": _fixed("identities.d2"),
        "check_rearrangement": _by_tag("identities"),
        "check_b1": _fixed("identities.b1"),
        "check_b2": _fixed("identities.b2"),
        "check_b10gen": _fixed("identities.b10gen"),
        "check_e_inner": _by_tag("identities"),
        "check_e_full": _by_tag("identities"),
    },
    "congruences": {
        "verify_thm1": _fixed("congruences.thm1"),
        "verify_thm2": _fixed("congruences.thm2"),
        "verify_lemma": _by_tag("congruences"),
        "verify_proof_step": _by_tag("congruences"),
    },
    "divisibility": {
        "check_thm3": _thm3,
        "check_alternating_positivity": _fixed("divisibility.alt_positivity"),
        "check_ratio_monotone": _fixed("divisibility.ratio_monotone"),
    },
    # _run_all marks where dispatch ends and the report begins, also when
    # the checks themselves run in pool workers
    "cli": {
        "main": _fixed("cli.main"),
        "_run_all": _fixed("cli.run_all"),
    },
}


class Tracer:
    """In-memory span recorder for one process (reset in forked children)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.names: dict[str, int] = {}
        self.spans = array("q")  # name id, parent index, start ns, end ns
        self.stack = [-1]
        self.domb_n_max = -1
        multiprocessing.util.register_after_fork(self, Tracer._forked)

    def _forked(self) -> None:
        # mutate in place: the wrappers hold these very objects
        del self.spans[:]
        self.stack[:] = [-1]
        self.domb_n_max = -1
        multiprocessing.util.Finalize(None, self.dump, exitpriority=0)

    def _domb_name(self, n, *args, **kwargs):
        if n > self.domb_n_max:
            self.domb_n_max = n
        return "sequences.domb"

    def wrap(self, fn, namer):
        names, spans, stack = self.names, self.spans, self.stack

        def traced(*args, **kwargs):
            name = namer(*args, **kwargs)
            nid = names.get(name)
            if nid is None:
                nid = names[name] = len(names)
            i = len(spans) >> 2
            spans.extend((nid, stack[-1], 0, 0))
            stack.append(i)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[4 * i + 2] = t0
                spans[4 * i + 3] = t1

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"dombcheck.{m}") for m in LAYERS]
        modules.append(sys.modules["dombcheck"])
        for layer, funcs in TARGETS.items():
            home = sys.modules[f"dombcheck.{layer}"]
            for attr, namer in funcs.items():
                fn = getattr(home, attr)  # AttributeError: the tracer is out of date
                traced = self.wrap(fn, namer or self._domb_name)
                for mod in modules:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, key, traced)

    def dump(self) -> None:
        path = os.path.join(self.out_dir, f"spans.{os.getpid()}.marshal")
        with open(path, "wb") as fh:
            marshal.dump(
                {
                    "names": list(self.names),
                    "spans": self.spans.tobytes(),
                    "domb_n_max": self.domb_n_max,
                },
                fh,
            )


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py TRACE_DIR CLI_ARG...", file=sys.stderr)
        return 2
    tracer = Tracer(argv[0])
    tracer.install()
    cli = sys.modules["dombcheck.cli"]
    try:
        return cli.main(argv[1:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
