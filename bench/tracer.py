"""Span tracing around the public functions of each kisp module.

``install`` replaces module attributes with wrappers; it runs only in a
traced benchmark run.  Spans are kept in memory: every span adds to its
name's aggregate (calls, total time, self time), selected names keep
each duration for medians, and the first ``LOG_LIMIT`` spans are kept
whole (id, parent id, name, start, end) for the trace file.  Self time is
a span's duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import time

LOG_LIMIT = 50_000


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open spans: [span id, name, child seconds]
        self.aggregate: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.samples: dict[str, list] = {}  # name -> [(seconds, self seconds, tag)]
        self.counts: dict[str, float] = {}
        self.log: list[tuple] = []
        self.next_id = 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, name, name_fn=None, tag_fn=None, sample=False, after=None):
        """A wrapper that records one span per call of ``fn``.

        ``name_fn(args)`` picks the span name, ``tag_fn(args, result)`` tags
        the kept sample, ``after(tracer, args, result)`` adds counts."""
        stack, aggregate, samples, log = self.stack, self.aggregate, self.samples, self.log
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name_fn(args) if name_fn else name
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span_id, span_name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = clock() - start
                stack.pop()
                if stack:
                    stack[-1][2] += seconds
                entry = aggregate.get(span_name)
                if entry is None:
                    entry = aggregate[span_name] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += seconds
                entry[2] += seconds - frame[2]
                if len(log) < LOG_LIMIT:
                    log.append((span_id, parent, span_name, start, start + seconds))
            if sample:
                tag = tag_fn(args, result) if tag_fn else None
                samples.setdefault(span_name, []).append((seconds, seconds - frame[2], tag))
            if after:
                after(self, args, result)
            return result

        return traced

    def inside(self, prefix: str) -> bool:
        return bool(self.stack) and self.stack[-1][1].startswith(prefix)

    def merge(self, other: dict) -> None:
        """Add the aggregates and counts of a traced child process."""
        for name, (calls, total, own) in other["aggregate"].items():
            entry = self.aggregate.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += own
        for name, values in other["samples"].items():
            self.samples.setdefault(name, []).extend(tuple(v) for v in values)
        for name, amount in other["counts"].items():
            self.count(name, amount)

    def dump(self) -> dict:
        return {"aggregate": self.aggregate, "samples": self.samples,
                "counts": self.counts, "log": self.log}


def factor_count(term) -> int:
    """Factors on the concatenation spine, counted without recursion."""
    from kisp.terms import Concat

    n = 1
    while isinstance(term, Concat):
        n += 1
        term = term.right
    return n


def has_inverse(term) -> bool:
    from kisp.terms import Concat, Dual, Fork, Inverse

    todo = [term]
    while todo:
        t = todo.pop()
        if isinstance(t, Inverse):
            return True
        if isinstance(t, (Concat, Fork)):
            todo += (t.left, t.right)
        elif isinstance(t, Dual):
            todo.append(t.inner)
    return False


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every kisp module, and the interpreter
    builtins, with spans of ``tracer``.  Call before building an
    ``Interpreter``: it reads the builtin table at construction.  A name
    the program no longer has is skipped, and its metrics read 0."""
    import kisp
    from kisp import cli, interp, reduction, semantics, temporal, terms, tree

    modules = (kisp, interp, reduction, semantics, temporal, terms, tree, cli)

    def function(home, attr, name, **options):
        """Wrap ``home.attr`` wherever a module imported that same function."""
        original = getattr(home, attr, None)
        if original is None:
            return
        wrapped = tracer.wrap(original, name, **options)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapped)

    def method(cls, attr, name, **options):
        original = cls.__dict__.get(attr)
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(original.__func__, name, **options)))
        elif original is not None:
            setattr(cls, attr, tracer.wrap(original, name, **options))

    def size(args, result):
        return len(result.persons)

    function(tree, "load_tree", "tree.load", sample=True, tag_fn=size)
    function(tree, "from_data", "tree.build", sample=True, tag_fn=size)
    function(tree, "basic_kin", "tree.basic_kin")
    for attr in ("parents_of", "children_of", "spouses_of", "siblings_of", "index_of"):
        method(tree.FamilyTree, attr, "tree.accessor")

    def count_results(tr, args, result):
        tr.count("semantics.results", len(result))

    function(semantics, "eval_term", None, after=count_results,
             name_fn=lambda a: "semantics.eval_term.inverse" if has_inverse(a[1])
             else "semantics.eval_term.forward")

    function(terms, "parse_kin_term", "terms.parse")
    function(terms, "push_dual", "terms.push_dual")
    function(terms, "render", "terms.render")
    function(terms, "canonical", "terms.canonical")

    def count_words(tr, args, result):
        tr.count("reduction.words", len(result.words))

    function(reduction, "shorten", "reduction.shorten", sample=True,
             tag_fn=lambda a, r: factor_count(a[1]), after=count_words)
    function(reduction, "optimal_shorten", "reduction.optimal", sample=True)
    rd = reduction.ReductionDictionary
    method(rd, "standard", "reduction.dict_load", sample=True)
    method(rd, "load", "reduction.dict_load", sample=True)
    word_for_key = rd.__dict__.get("word_for_key")
    if word_for_key is not None:
        def probe(self, key):
            if tracer.inside("reduction.shorten"):
                tracer.count("reduction.window_probes")
            return word_for_key(self, key)

        rd.word_for_key = probe

    function(temporal, "parse_date", "temporal.parse_date")

    function(interp, "tokenize", "interp.tokenize")
    function(interp, "parse_program", "interp.parse")
    function(interp, "kisp_equal", "interp.kisp_equal")
    method(interp.Interpreter, "eval_top", "interp.eval")
    method(interp.Interpreter, "eval_in", "interp.eval_in")
    method(interp.Interpreter, "apply", "interp.apply")
    builtins = getattr(interp, "_BUILTINS", [])
    builtins[:] = [
        interp.Builtin(b.name, b.min_args, b.max_args,
                       tracer.wrap(b.fn, f"interp.builtin.{BUILTIN_NAMES.get(b.name, b.name)}"))
        for b in builtins
    ]


# Metric names allow letters, digits, '_', '.' and '-' only.
BUILTIN_NAMES = {"+": "add", "-": "sub", "*": "mul", "<": "lt", "=": "eq"}
