"""Work the benchmark runs in fresh child processes.

    child.py setup WORKLOAD FILE NOW   print the set-up seconds of one fresh process
    child.py probes SEED               run the robustness probes, print JSON
    child.py cli TRACE_OUT ARGS...     run ``kisp.cli.main(ARGS)`` with tracing on

The parent puts ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

PROBE_FACTORS = (1024, 2048)
PROBE_NESTING = 1200
PROBE_COUNTDOWN = 2000
PROBES = (*(f"reduce-{n}" for n in PROBE_FACTORS), f"nested-{PROBE_NESTING}",
          f"countdown-{PROBE_COUNTDOWN}")


def setup(workload: str, path: str, now: str) -> None:
    """FILE is the tree, or for ``reduce`` the second dictionary.  Timed:
    ``import kisp`` and what the workload builds before its first operation."""
    start = time.perf_counter()
    import kisp

    if workload in ("kin-query", "kisp-session"):
        tree = kisp.load_tree(path)
        if workload == "kisp-session":
            kisp.Interpreter(tree, kisp.Timeline(kisp.parse_date(now)))
    elif workload == "reduce":
        kisp.ReductionDictionary.standard()
        kisp.ReductionDictionary.load(path)
    print(time.perf_counter() - start)


def probes(seed: int) -> None:
    """Inputs past today's recursion depth.  A probe passes with a correct
    result or a positioned KinTermError, KispError or ReductionError."""
    sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "tests"))
    from kisp import Interpreter, KinTermError, KispError, Timeline, parse_date, reduction, terms
    from workloads import NOW, chain, spine_keys

    rng = random.Random(f"probes/{seed}")
    handled = (KinTermError, KispError, reduction.ReductionError)
    results = {}

    def attempt(name, fn):
        try:
            results[name] = "ok" if fn() else "wrong result"
        except handled as exc:
            results[name] = f"ok: {type(exc).__name__}"
        except Exception as exc:  # an escape is the failure this probe looks for
            results[name] = f"failed: {type(exc).__name__}"

    dictionary = reduction.ReductionDictionary.standard()
    for n in PROBE_FACTORS:
        text = chain(rng, n)

        def reduce_long(text=text):
            term = terms.parse_kin_term(text)
            reduced = reduction.shorten(dictionary, term)
            return spine_keys(reduction.expand(dictionary, reduced)) == spine_keys(term)

        attempt(f"reduce-{n}", reduce_long)

    nested = "(" * PROBE_NESTING + "father" + ")" * PROBE_NESTING
    attempt(f"nested-{PROBE_NESTING}",
            lambda: terms.parse_kin_term(nested) == terms.Basic(terms.Atom.FATHER))

    countdown = ("(define down (lambda (n) (if (= n 0) 0 (down (- n 1)))))\n"
                 f"(down {PROBE_COUNTDOWN})")
    attempt(f"countdown-{PROBE_COUNTDOWN}", lambda: Interpreter(
        None, Timeline(parse_date(NOW))).eval_text(countdown) == 0)
    print(json.dumps(results))


def traced_cli(trace_out: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import kisp.cli

    import_s = time.perf_counter() - start
    from tracer import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        return kisp.cli.main(argv)
    finally:
        sys.stdout.flush()
        dump = tracer.dump()
        dump["samples"]["cli.import"] = [(import_s, import_s, None)]
        del dump["log"]
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        setup(*sys.argv[2:5])
    elif mode == "probes":
        probes(int(sys.argv[2]))
    elif mode == "cli":
        sys.exit(traced_cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"child.py: unknown mode {mode!r}")
