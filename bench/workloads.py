"""The four benchmark workloads: inputs made from the seed, one timed
operation each, and the output checks run after the timed loop.

Every workload builds a pool of operations whose classes repeat in a fixed
``PATTERN``, so that any stretch of the pool holds the class shares the
pattern gives; the closed loop in ``run.py`` cycles through the pool.  The
classes are placed so that p50 and p90 fall inside a class, not on the
boundary between two.  Each distinct pool entry is checked once against an
independent expectation, and every execution of it must match.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

from helpers import TreeOracle
from treegen import generate_tree

BENCH = Path(__file__).resolve().parent

ATOMS = ("father", "mother", "son", "daughter", "husband", "wife")
PAIRS = (("father", "mother"), ("son", "daughter"), ("husband", "wife"))
KINDS = {"P": PAIRS[0], "C": PAIRS[1], "S": PAIRS[2]}
# Chain shapes, one letter per factor: P parent, C child, S spouse; upper
# case is the fork of both sexes, lower case one atom of a seeded sex.
# Shapes rotate in a fixed order so that cost per class does not depend
# on the seed, which picks sexes, fork operand order and persons.
FORWARD_SHAPES = ("P", "cP", "Sp", "CPp", "pc", "CsP", "pPP", "s")
# p50 of kin-query is the 1/3 point of the hundred-person class: inside
# the cheaper of its two shapes.
HUNDRED_SHAPES = ("pP", "Cp")
# p90 of kin-query is the 2/3 point of the inverse class: the middle of
# the three "PP" slots.
INVERSE_SHAPES = ("C", "cP", "PP", "PP", "PP", "CPP")
ACCESSORS = ("children", "son", "daughter", "father", "mother", "spouse", "husband", "wife")
NOW = "01.01.1600"
TREE_SIZE = 4096
GROWTH_SIZE = 2048
LADDER = (8, 16, 32, 64, 128, 256, 512)

ANCESTORS = """(define parents-of (lambda (ps) (append (father ps) (mother ps))))
(define ancestors
  (lambda (ps n)
    (if (= n 0) vacant (join (parents-of ps) (ancestors (parents-of ps) (- n 1))))))
(count (ancestors (list ego) {depth}))"""


class Op:
    __slots__ = ("cls", "args")

    def __init__(self, cls: str, *args):
        self.cls = cls
        self.args = args


# --- shared pieces ----------------------------------------------------------


def chain(rng: random.Random, n: int, dual_at: int = -1) -> str:
    """``n`` factors in user notation, each an atom or a fork of both sexes."""
    factors = []
    for i in range(n):
        if rng.random() < 0.4:
            pair = list(rng.choice(PAIRS))
            rng.shuffle(pair)
            text = f"({pair[0]} | {pair[1]})"
        else:
            text = rng.choice(ATOMS)
        factors.append(f"{text}^+" if i == dual_at else text)
    return " ".join(factors)


def shaped(rng: random.Random, shape: str, dual_at: int = -1) -> str:
    """A chain in user notation whose factors follow ``shape``."""
    factors = []
    for i, letter in enumerate(shape):
        pair = list(KINDS[letter.upper()])
        rng.shuffle(pair)
        text = f"({pair[0]} | {pair[1]})" if letter.isupper() else pair[0]
        factors.append(f"{text}^+" if i == dual_at else text)
    return " ".join(factors)


class RawTree(TreeOracle):
    """The independent oracle's view of the raw JSON, plus what the KISP
    expectations need: input order and birth dates."""

    def __init__(self, raw: dict):
        super().__init__(raw)
        self.index = {pid: i for i, pid in enumerate(self.ids)}
        self.birth = {}
        for p in raw["persons"]:
            d, m, y = p["birthdate"].split(".")
            self.birth[p["id"]] = (int(y), int(m), int(d))

    def accessor(self, name: str, pids) -> list[str]:
        pool, sex = {
            "children": (self.children, None), "son": (self.children, "MALE"),
            "daughter": (self.children, "FEMALE"), "father": (self.parents, "MALE"),
            "mother": (self.parents, "FEMALE"), "spouse": (self.spouses, None),
            "husband": (self.spouses, "MALE"), "wife": (self.spouses, "FEMALE"),
        }[name]
        out = {q for p in pids for q in pool[p] if sex is None or self.sex[q] == sex}
        return sorted(out, key=self.index.__getitem__)

    def ancestor_count(self, pid: str, depth: int) -> int:
        seen: set[str] = set()
        level = [pid]
        for _ in range(depth):
            level = [q for p in level for q in self.parents[p]]
            seen.update(level)
        return len(seen)


def write_tree(out_dir: Path, seed: int, size: int) -> tuple[Path, dict]:
    raw = generate_tree(seed, size)
    path = out_dir / f"tree-{size}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path, raw


def load_valid_tree(path: Path):
    """Load a generated tree through the program; abort if it is invalid."""
    from kisp import tree as kisp_tree

    tree = kisp_tree.load_tree(str(path))
    if not tree.is_valid:
        sys.exit(f"bench: generated tree {path.name} is invalid: {tree.violations[:3]}")
    return tree


def kisp_programs(rng: random.Random, raw: RawTree, kind: str, slot: int) -> tuple[str, str, str]:
    """(program, ego, expected printed value) for one KISP template; the
    slot, the template's running count, rotates its variants."""
    ego = rng.choice(raw.ids[len(raw.ids) // 4:])
    if kind == "accessor":
        names = [rng.choice(ACCESSORS) for _ in range(1 + slot % 3)]
        people = [ego]
        for name in reversed(names):
            people = raw.accessor(name, people)
        program = "ego"
        for name in reversed(names):
            program = f"({name} {program})"
        return program, ego, "(" + " ".join(people) + ")"
    if kind == "prelude":
        n = rng.randint(0, 99)
        variant = slot % 3
        if variant == 0:
            return f"((twice inc) {n})", ego, str(n + 2)
        if variant == 1:
            return f"((twice square) {n})", ego, str(n ** 4)
        kids = len(raw.children[ego])
        return "((compose count children) ego)", ego, str(kids)
    if kind == "during":
        lo = rng.randint(1000, 1900)
        hi = lo + rng.randint(50, 300)
        program = (
            "(count (filter (lambda (p) (during (attr p 'birthdate') "
            f"(date '01.01.{lo:04d}') (date '31.12.{hi:04d}'))) people))"
        )
        expected = sum(1 for b in raw.birth.values() if (lo, 1, 1) <= b <= (hi, 12, 31))
        return program, ego, str(expected)
    if kind == "map":
        sex = rng.choice(("MALE", "FEMALE"))
        program = (
            f"(count (filter (lambda (s) (= s '{sex}')) "
            "(map (lambda (p) (attr p 'sex')) people)))"
        )
        return program, ego, str(sum(1 for s in raw.sex.values() if s == sex))
    if kind == "builtins":
        program = ("(count (append " + " ".join(f"({a} ego)" for a in ACCESSORS)
                   + " (join (list ego) (list ego))"
                   " (filter (lambda (p) (during (attr p 'birthdate') (date '01.01.0001')"
                   " (date '31.12.9999'))) (list ego))"
                   " (filter (lambda (n) (= n 1)) (map (lambda (n) (- (* n n) (inc n)))"
                   " (list 1 2 3)))))")
        return program, ego, str(sum(len(raw.accessor(a, [ego])) for a in ACCESSORS) + 3)
    if kind == "ancestors":
        ego = rng.choice(raw.ids[len(raw.ids) // 2:])
        return ANCESTORS.format(depth=8), ego, str(raw.ancestor_count(ego, 8))
    raise ValueError(kind)


# --- kin-query --------------------------------------------------------------


class KinQuery:
    """``parse_kin_term`` plus ``eval_term``: 70% forward terms at sets of 1
    (20%), 10 (20%) or 100 persons (30%, p50), 30% terms with one inverse at
    one person, which scan the whole tree (p90)."""

    name = "kin-query"
    PATTERN = ("f1", "f100", "inv", "f10", "f100", "inv", "f1", "f100", "f10", "inv")
    POOL = 150

    def __init__(self, seed: int, out_dir: Path, size: int = TREE_SIZE):
        rng = random.Random(f"kin-query/{seed}")
        self.tree_path, raw = write_tree(out_dir, seed, size)
        self.raw_json = raw
        ids = [p["id"] for p in raw["persons"]]
        middle = ids[len(ids) // 4: 3 * len(ids) // 4]
        self.ops = []
        slots: dict[str, int] = {}
        for k in range(self.POOL):
            cls = self.PATTERN[k % len(self.PATTERN)]
            j = slots[cls] = slots.get(cls, -1) + 1
            if cls == "inv":
                text = f"({shaped(rng, INVERSE_SHAPES[j % len(INVERSE_SHAPES)])})^-1"
                if j % 2:
                    text = f"{rng.choice(ATOMS)} {text}"
                people = (rng.choice(middle),)
            else:
                shapes = HUNDRED_SHAPES if cls == "f100" else FORWARD_SHAPES
                shape = shapes[j % len(shapes)]
                text = shaped(rng, shape, j % len(shape) if j % 10 == 9 else -1)
                people = tuple(rng.sample(ids, int(cls[1:])))
            self.ops.append(Op(cls, text, people))
        self.sizes = {"tree_persons": size}

    def setup(self):
        self.tree = load_valid_tree(self.tree_path)

    def run(self, op: Op):
        from kisp import semantics, terms

        text, people = op.args
        return semantics.eval_term(self.tree, terms.parse_kin_term(text), people)

    def expect(self, op: Op):
        from kisp import terms

        if not hasattr(self, "oracle"):
            self.oracle = TreeOracle(self.raw_json)
        text, people = op.args
        return self.oracle.eval(terms.parse_kin_term(text), people)


# --- kisp-session -----------------------------------------------------------


class KispSession:
    """KISP source text evaluated by one interpreter with ``ego`` rebound per
    operation: 30% cheap (accessor chains, prelude closures, one program
    that calls every builtin), 30% ``map`` over ``people`` (p50), 20%
    ``filter`` with ``attr``/``date``/``during``, 20% a recursive ancestor
    closure that merges eight generations with ``join`` (p90 with the
    ``during`` filters)."""

    name = "kisp-session"
    PATTERN = ("accessor", "map", "ancestors", "builtins", "during",
               "map", "prelude", "ancestors", "map", "during")
    POOL = 300

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(f"kisp-session/{seed}")
        self.tree_path, raw = write_tree(out_dir, seed, TREE_SIZE)
        rawtree = RawTree(raw)
        self.ops = []
        slots: dict[str, int] = {}
        for k in range(self.POOL):
            cls = self.PATTERN[k % len(self.PATTERN)]
            slots[cls] = slots.get(cls, -1) + 1
            program, ego, expected = kisp_programs(rng, rawtree, cls, slots[cls])
            self.ops.append(Op(cls, program, ego, expected))
        self.sizes = {"tree_persons": TREE_SIZE}

    def setup(self):
        from kisp import Interpreter, Timeline, parse_date

        self.tree = load_valid_tree(self.tree_path)
        self.interp = Interpreter(self.tree, Timeline(parse_date(NOW)))

    def run(self, op: Op):
        from kisp.interp import PersonRef, format_value

        program, ego, _ = op.args
        self.interp.globals.bind("ego", PersonRef(ego))
        return format_value(self.interp.eval_text(program))

    def expect(self, op: Op):
        return op.args[2]


# --- reduce -----------------------------------------------------------------


class Reduce:
    """``parse_kin_term`` plus greedy ``shorten`` on chains in juxtaposed
    notation, twice through the ladder 8..512 per 16 operations (p50 in the
    middle of the two L64, p90 in the two L512), plus one more L128 and one
    ``optimal_shorten`` on 6-10 factors.  Two of the 16 use the greedy-trap
    dictionary and two have one ``^+`` factor; neither falls on L64 or L512."""

    name = "reduce"
    PATTERN = ("L8", "L16", "L32/dual", "L64", "L128", "L256", "L512", "optimal",
               "L8", "L16/trap", "L32", "L64", "L128", "L256/trap", "L512", "L128/dual")
    POOL = 128

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(f"reduce/{seed}")
        trap_atoms = ("father", "mother", "son", "daughter", "wife")
        self.ops = []
        for k in range(self.POOL):
            cls, _, variant = self.PATTERN[k % len(self.PATTERN)].partition("/")
            if cls == "optimal":
                self.ops.append(Op(cls, chain(rng, rng.randint(6, 10)), "standard"))
                continue
            n = int(cls[1:])
            if variant == "trap":
                text = " ".join(rng.choice(trap_atoms) for _ in range(n))
                self.ops.append(Op(cls, text, "trap"))
            else:
                dual_at = rng.randrange(n) if variant == "dual" else -1
                self.ops.append(Op(cls, chain(rng, n, dual_at), "standard"))
        self.sizes = {"ladder": list(LADDER)}

    def setup(self):
        from kisp import reduction

        self.dicts = {
            "standard": reduction.ReductionDictionary.standard(),
            "trap": reduction.ReductionDictionary.load(trap_dict_path()),
        }

    def run(self, op: Op):
        from kisp import reduction, terms

        text, dict_name = op.args
        term = terms.parse_kin_term(text)
        if op.cls == "optimal":
            return reduction.optimal_shorten(self.dicts[dict_name], term)
        return reduction.shorten(self.dicts[dict_name], term)

    def expect(self, op: Op):
        """Greedy's own result, once it passes the round-trip checks:
        expand(shorten(t)) has the spine of t, and on the small class greedy
        leaves no fewer joins than the exhaustive oracle."""
        from kisp import reduction, terms

        text, dict_name = op.args
        dictionary = self.dicts[dict_name]
        term = terms.parse_kin_term(text)
        greedy = reduction.shorten(dictionary, term)
        if spine_keys(reduction.expand(dictionary, greedy)) != spine_keys(terms.push_dual(term)):
            return None
        if op.cls != "optimal":
            return greedy
        best = reduction.optimal_shorten(dictionary, term)
        if spine_keys(reduction.expand(dictionary, best)) != spine_keys(terms.push_dual(term)):
            return None
        if reduction.remaining_concats(greedy) < reduction.remaining_concats(best):
            return None
        return best


def spine_keys(term) -> list[str]:
    """Canonical keys of the concatenation spine, walked without recursion."""
    from kisp import terms

    keys = []
    while isinstance(term, terms.Concat):
        keys.append(terms.render(terms.canonical(term.left)))
        term = term.right
    keys.append(terms.render(terms.canonical(term)))
    return keys


def trap_dict_path() -> str:
    return str(BENCH.parent / "tests" / "data" / "greedy_trap.dict")


# --- cold-cli ---------------------------------------------------------------


class ColdCli:
    """One ``python -m kisp.cli`` process per operation, run one at a time:
    ``validate``, ``term``, ``eval`` (p50) and ``run`` of a ``during``
    filter script (p90) on the tree file, and ``reduce`` with no tree.
    Each is checked on exit code and standard output."""

    name = "cold-cli"
    PATTERN = ("validate", "term", "eval", "run", "reduce")
    POOL = 40

    def __init__(self, seed: int, out_dir: Path):
        rng = random.Random(f"cold-cli/{seed}")
        self.tree_path, raw = write_tree(out_dir, seed, TREE_SIZE)
        self.rawtree = rawtree = RawTree(raw)
        tree = str(self.tree_path)
        self.ops = []
        for k in range(self.POOL):
            cls = self.PATTERN[k % len(self.PATTERN)]
            if cls == "validate":
                self.ops.append(Op(cls, ["--tree", tree, "validate"], ""))
            elif cls == "term":
                text = shaped(rng, FORWARD_SHAPES[k // len(self.PATTERN) % len(FORWARD_SHAPES)])
                pid = rng.choice(rawtree.ids)
                self.ops.append(Op(cls, ["--tree", tree, "term", text, pid], (text, pid)))
            elif cls == "eval":
                kind = ("accessor", "prelude")[k // len(self.PATTERN) % 2]
                program, ego, expected = kisp_programs(rng, rawtree, kind, k // 10)
                argv = ["--tree", tree, "--ego", ego, "--now", NOW, "eval", program]
                self.ops.append(Op(cls, argv, expected + "\n"))
            elif cls == "run":
                program, ego, expected = kisp_programs(rng, rawtree, "during", 0)
                script = out_dir / f"script-{k}.kisp"
                script.write_text(program + "\n", encoding="utf-8")
                argv = ["--tree", tree, "--ego", ego, "--now", NOW, "run", str(script)]
                self.ops.append(Op(cls, argv, expected + "\n"))
            else:
                text = chain(rng, (16, 32, 64)[k // len(self.PATTERN) % 3])
                self.ops.append(Op(cls, ["reduce", text], text))
        self.sizes = {"tree_persons": TREE_SIZE}
        self.out_dir = out_dir
        self.trace_files: list[Path] | None = None

    def setup(self):
        pass

    def trace(self) -> None:
        """Run later commands through the traced entry point in child.py."""
        self.trace_files = []

    def collect(self, tracer) -> None:
        """Merge the span aggregates the traced children wrote."""
        for path in self.trace_files:
            tracer.merge(json.loads(path.read_text(encoding="utf-8")))
            path.unlink()
        self.trace_files = []

    def run(self, op: Op):
        if self.trace_files is None:
            argv = [sys.executable, "-m", "kisp.cli", *op.args[0]]
        else:
            path = self.out_dir / f"cli-trace-{len(self.trace_files)}.json"
            self.trace_files.append(path)
            argv = [sys.executable, str(BENCH / "child.py"), "cli", str(path), *op.args[0]]
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(), timeout=30)
        return proc.returncode, proc.stdout

    def expect(self, op: Op):
        from kisp import reduction, terms

        if op.cls == "validate":
            return 0, ""
        if op.cls == "term":
            text, pid = op.args[1]
            hits = self.rawtree.eval(terms.parse_kin_term(text), [pid])
            return 0, "".join(f"{h}\n" for h in sorted(hits))
        if op.cls == "reduce":
            term = terms.parse_kin_term(op.args[1])
            reduced = reduction.shorten(reduction.ReductionDictionary.standard(), term)
            return 0, f"{reduced}\n"
        return 0, op.args[1]


def child_env() -> dict:
    src = str(BENCH.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


WORKLOADS = {w.name: w for w in (KinQuery, KispSession, Reduce, ColdCli)}
