"""kisp benchmark: one closed-loop client in one single-threaded process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen): kin-query,
kisp-session, reduce, cold-cli.  All inputs are generated from ``--seed``
into ``bench/out/``; the program under test only sees the files written
there, or term and program text.

With ``--trace 0`` the run times operations for ``--seconds`` and reports
the end-to-end metrics.  With ``--trace 1`` it runs the loop untraced for
half the time, then installs span wrappers around the public functions of
every kisp module and runs it traced for the other half, followed by a
fixed sweep that calls every layer once (tree loads at 2048 and 4096
persons, the inverse class on both, KISP templates, the reduction ladder,
one traced CLI command of each kind), and reports the per-layer metrics.

End-to-end metrics, over the successful timed operations:
    ops_per_s        successful operations per second of loop wall time
    latency_p50_ms   median per-operation latency
    latency_p90_ms   90th percentile per-operation latency
    setup_s          median over fresh processes of ``import kisp`` plus
                     loading the tree or dictionaries and building the
                     interpreter (cold-cli: ``import kisp`` alone)
    peak_rss_mb      peak resident memory after the loop: of this process,
                     or for cold-cli of the largest CLI process

Output checks and the four robustness probes run outside the timed
window.  Every output is checked; a wrong output or an exception counts as
a failed operation.  A probe fails when it escapes with anything other
than a result or a positioned KinTermError, KispError or ReductionError.
The result line's ``attempted`` and ``failed`` count timed operations; the
line before it reports ``error_rate`` with the probes included, and the
seed, Python version, core count, sizes and operation count per class.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 11

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}
MIX_BUILTINS = ("join", "append", "filter", "map", "attr", "date", "during", "count",
                "list", "inc", "eq", "sub", "mul", "children", "son", "daughter",
                "father", "mother", "spouse", "husband", "wife")
CLI_COMMANDS = ("validate", "term", "eval", "run", "reduce")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (ROOT / "src" / "kisp" / "__init__.py", ROOT / "tests" / "helpers.py"):
        if not needed.is_file():
            print(f"bench: {needed.relative_to(ROOT)} not found; run from a kisp checkout",
                  file=sys.stderr)
            return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = BENCH / "out" / f"{args.workload}-s{args.seed}-t{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)

    wl = WORKLOADS[args.workload](args.seed, out_dir)
    setup_s = measure_setup(wl)
    wl.setup()

    if args.trace:
        loops, metrics, spans = traced_run(wl, args, out_dir)
    else:
        loops = [closed_loop(wl, args.seconds)]
        who = resource.RUSAGE_CHILDREN if wl.name == "cold-cli" else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
        spans = None
    check(loops)
    probes = run_probes(args.seed)

    records = [r for loop in loops for r in loop["records"]]
    good = [r for r in records if r[3]]
    attempted, failed = len(records), len(records) - len(good)
    probe_failures = sum(1 for v in probes.values() if not v.startswith("ok"))
    if len(good) < 2:
        print(f"bench: {len(good)} of {attempted} operations succeeded; no metrics",
              file=sys.stderr)
        return 1
    if not args.trace:
        latencies = sorted(r[2] * 1000 for r in good)
        metrics = {
            "ops_per_s": len(good) / loops[0]["wall"],
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[8],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
    classes: dict[str, list] = {}
    for w, op, seconds, ok, _ in records:
        key = op.cls if w is wl else f"sweep.{w.name}.{op.cls}"
        classes.setdefault(key, []).append(seconds * 1000)
    report = {
        "workload": wl.name, "why": why(wl.name), "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
        "sizes": wl.sizes, "pool": len(wl.ops),
        "ops_per_class": {k: len(v) for k, v in classes.items()},
        "median_ms_per_class": {k: statistics.median(v) for k, v in classes.items()},
        "latency_samples": len(good), "wrong_outputs": sum(1 for r in records if r[4] == "wrong"),
        "probes": probes,
        "error_rate": (failed + probe_failures) / (attempted + len(probes)),
        "setup_s": setup_s,
    }
    units = {k: unit_of(k) for k in metrics} if args.trace else END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_rate = {report['error_rate']:.6g} (failed {failed} of {attempted} timed "
          f"operations, {probe_failures} of {len(probes)} probes: {probes})")
    print(json.dumps({"report": report}))
    (out_dir / "result.json").write_text(json.dumps(
        {"report": report, "metrics": metrics}, indent=1), encoding="utf-8")
    if spans is not None:
        (out_dir / "trace.json").write_text(spans, encoding="utf-8")
    print(json.dumps({
        "correct": report["wrong_outputs"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def why(workload: str) -> str:
    """The reason the workload was chosen, as BENCHMARK.json states it."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return ""
    return next((w["why"] for w in spec.get("workloads", ()) if w["name"] == workload), "")


def child(*argv: str, timeout: float = 30) -> str:
    from workloads import child_env

    proc = subprocess.run([sys.executable, str(BENCH / "child.py"), *argv], cwd=ROOT,
                          capture_output=True, text=True, env=child_env(), timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"child.py {argv[0]} failed: {proc.stderr.strip()[-500:]}")
    return proc.stdout


def measure_setup(wl) -> float:
    """Median set-up time of fresh processes; the first one only warms caches."""
    from workloads import NOW, trap_dict_path

    path = trap_dict_path() if wl.name == "reduce" else str(wl.tree_path)
    times = [float(child("setup", wl.name, path, NOW)) for _ in range(SETUP_REPEATS + 1)]
    return statistics.median(times[1:])


def run_probes(seed: int) -> dict:
    from child import PROBES

    try:
        return json.loads(child("probes", str(seed), timeout=60))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return {name: f"failed: probe process: {exc}" for name in PROBES}


def closed_loop(wl, seconds: float, run=None, ops=None) -> dict:
    """One client: the next operation starts when the previous one ends.
    Cycles through the pool for ``seconds``, or runs ``ops`` once.
    Records are [workload, op, seconds, ok, result hash or error]; keeping
    only a hash keeps the outputs out of the peak memory."""
    run = run or wl.run
    pool = ops or wl.ops
    clock = time.perf_counter
    records = []
    start = clock()
    deadline = start + seconds
    i = 0
    while clock() < deadline if ops is None else i < len(ops):
        op = pool[i % len(pool)]
        t0 = clock()
        try:
            result, ok = run(op), True
        except Exception as exc:  # a failed operation is counted, not fatal
            result, ok = f"{type(exc).__name__}: {exc}", False
        seconds = clock() - t0
        records.append([wl, op, seconds, ok, hash(result) if ok else result])
        i += 1
    return {"records": records, "wall": clock() - start}


def check(loops) -> None:
    """Compare every output with the expectation for its operation; a
    mismatch turns the record into a failure marked ``wrong``.  Outputs
    are compared by hash, which equal values share."""
    expected = {}
    for loop in loops:
        for record in loop["records"]:
            wl, op, _, ok, result = record
            if not ok:
                continue
            if id(op) not in expected:
                try:
                    expected[id(op)] = wl.expect(op)
                except Exception as exc:  # a check that cannot finish fails the output
                    expected[id(op)] = f"no expectation: {exc!r}"
            if expected[id(op)] is None or result != hash(expected[id(op)]):
                record[3], record[4] = False, "wrong"


# --- traced run ---------------------------------------------------------------


def traced_run(wl, args, out_dir: Path):
    from tracer import Tracer, install

    half = args.seconds / 2
    plain = closed_loop(wl, half)
    tracer = Tracer()
    install(tracer)
    if wl.name == "cold-cli":
        wl.trace()
    wl.setup()
    traced = closed_loop(wl, half, op_span(tracer, wl))
    growth, swept = sweep(wl, args.seed, out_dir, tracer)
    if wl.name == "cold-cli":
        wl.collect(tracer)

    def ok_rate(loop):
        return sum(1 for r in loop["records"] if r[3]) / loop["wall"]

    untraced_ops, traced_ops = ok_rate(plain), ok_rate(traced)
    metrics = layer_metrics(tracer, growth)
    metrics["trace.ops_per_s_untraced"] = untraced_ops
    metrics["trace.ops_per_s_traced"] = traced_ops
    metrics["trace.overhead_pct"] = 100 * (1 - traced_ops / untraced_ops) if untraced_ops else 0.0
    return [plain, traced, *swept], metrics, json.dumps(tracer.dump())


def op_span(tracer, wl):
    """``wl.run`` as the root span of one operation, named by its class."""
    return tracer.wrap(wl.run, None, sample=True, name_fn=lambda a: f"op.{wl.name}.{a[0].cls}")


def sweep(wl, seed: int, out_dir: Path, tracer) -> tuple[float, list]:
    """Call every layer a fixed number of times, so that each per-layer
    metric has a reading on every workload.  Returns the inverse growth
    (median inverse-class time at 4096 persons over that at 2048) and the
    sweep's records, which are checked like the loop's."""
    from workloads import GROWTH_SIZE, WORKLOADS, KinQuery, Op

    def instance(name):
        if wl.name == name:
            return wl
        other = WORKLOADS[name](seed, out_dir)
        other.setup()
        return other

    def run_ops(w, ops):
        return closed_loop(w, 0, op_span(tracer, w), ops)

    def first(w, classes):
        return [next(op for op in w.ops if op.cls == c) for c in classes]

    kq = instance("kin-query")
    small = KinQuery(seed, out_dir, GROWTH_SIZE)
    small.setup()
    small_ids = [p.id for p in small.tree.persons]
    big_index = {p.id: i for i, p in enumerate(kq.tree.persons)}
    inverse = [op for op in kq.ops if op.cls == "inv"][:4]
    big = run_ops(kq, inverse)
    little = run_ops(small, [Op("inv", text, (small_ids[big_index[pid] // 2],))
                             for text, (pid,) in (op.args for op in inverse)])
    growth = (statistics.median(r[2] for r in big["records"])
              / statistics.median(r[2] for r in little["records"]))
    loops = [big, little, run_ops(kq, first(kq, ("f1", "f10", "f100")))]

    ks = instance("kisp-session")
    loops.append(run_ops(ks, first(ks, ("accessor", "prelude", "map", "during", "ancestors", "builtins"))))
    rd = instance("reduce")
    loops.append(run_ops(rd, first(rd, ("L8", "L16", "L32", "L64", "L128", "L256", "L512",
                                        "optimal"))))
    cc = wl if wl.name == "cold-cli" else WORKLOADS["cold-cli"](seed, out_dir)
    if cc is not wl:
        cc.trace()
    loops.append(run_ops(cc, first(cc, CLI_COMMANDS)))
    if cc is not wl:
        cc.collect(tracer)
    return growth, loops


def layer_metrics(tracer, growth: float) -> dict:
    aggregate, samples, counts = tracer.aggregate, tracer.samples, tracer.counts

    def calls(name):
        return aggregate.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return aggregate.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return aggregate.get(name, (0, 0.0, 0.0))[2]

    def median(name, tag=None, field=0):
        values = [s[field] for s in samples.get(name, ()) if tag is None or s[2] == tag]
        return statistics.median(values) if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    from workloads import LADDER, TREE_SIZE

    m = {
        "tree.decode_s": median("tree.load", TREE_SIZE, field=1),
        "tree.build_s": median("tree.build", TREE_SIZE),
        "tree.basic_kin.calls": calls("tree.basic_kin"),
        "tree.basic_kin.self_s": own("tree.basic_kin"),
        "tree.accessor.calls": calls("tree.accessor"),
        "tree.accessor.self_s": own("tree.accessor"),
        "semantics.eval_term.forward_s": total("semantics.eval_term.forward"),
        "semantics.eval_term.inverse_s": total("semantics.eval_term.inverse"),
        "semantics.basic_kin_per_result": ratio(calls("tree.basic_kin"),
                                                counts.get("semantics.results", 0)),
        "semantics.inverse_growth": growth,
        "terms.parse_s": own("terms.parse"),
        "terms.push_dual_s": own("terms.push_dual"),
        "terms.render_s": own("terms.render"),
        "terms.canonical_s": own("terms.canonical"),
    }
    for n in LADDER:
        m[f"reduction.shorten_s.L{n}"] = median("reduction.shorten", n)
    m["reduction.growth_ratio"] = ratio(m[f"reduction.shorten_s.L{LADDER[-1]}"],
                                        m[f"reduction.shorten_s.L{LADDER[0]}"]) ** (1 / (len(LADDER) - 1))
    m["reduction.window_probes"] = counts.get("reduction.window_probes", 0)
    m["reduction.hit_ratio"] = ratio(counts.get("reduction.words", 0), m["reduction.window_probes"])
    m["reduction.optimal_s"] = median("reduction.optimal")
    m["reduction.dict_load_s"] = median("reduction.dict_load")
    m["temporal.parse_date.calls"] = calls("temporal.parse_date")
    m["temporal.parse_date.self_s"] = own("temporal.parse_date")
    m["interp.tokenize_s"] = own("interp.tokenize")
    m["interp.parse_s"] = own("interp.parse")
    m["interp.eval_s"] = total("interp.eval")
    m["interp.eval_steps"] = calls("interp.eval_in")
    m["interp.apply_calls"] = calls("interp.apply")
    m["interp.kisp_equal.calls"] = calls("interp.kisp_equal")
    for name in MIX_BUILTINS:
        m[f"interp.builtin.{name}.calls"] = calls(f"interp.builtin.{name}")
        m[f"interp.builtin.{name}.self_s"] = own(f"interp.builtin.{name}")
    for command in CLI_COMMANDS:
        m[f"cli.process_ms.{command}"] = 1000 * median(f"op.cold-cli.{command}")
    m["cli.import_s"] = median("cli.import")
    return m


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s") or "_s." in name:
        return "s"
    if "_ms." in name:
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.startswith("trace.ops_per_s"):
        return "1/s"
    if name.endswith(("_ratio", "_growth", "_per_result")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
