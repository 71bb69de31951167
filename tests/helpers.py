"""Shared test machinery: an independent brute-force evaluator for kin
terms (built straight from the raw tree JSON, bypassing the library's
tree and semantics code paths), a full-scan inverse oracle, random term
generators, the recursive ``walk`` that judges the library's explicit-stack
one, the interpreter's original pairwise KISP equality, and its original
tree-walking evaluator."""

from __future__ import annotations

import random
from datetime import date
from typing import Callable, Iterable, Iterator, Sequence

from kisp.interp import (
    MAX_DEPTH,
    TOO_DEEP,
    Application,
    Builtin,
    Closure,
    Define,
    If,
    Interpreter,
    KispExpr,
    KispRuntimeError,
    Lambda,
    Literal,
    PersonRef,
    Reference,
    ShortCircuit,
    VOID,
    Void,
    type_name,
)
from kisp.semantics import eval_term
from kisp.terms import Atom, Basic, Concat, Dual, Fork, Inverse, KinTerm, from_spine
from kisp.tree import FamilyTree

ATOMS = list(Atom)

_FLIP = {
    "father": "mother",
    "mother": "father",
    "son": "daughter",
    "daughter": "son",
    "husband": "wife",
    "wife": "husband",
}


class TreeOracle:
    """Reference semantics computed from raw JSON person/bond records.

    Dual is handled with a sex-flip flag threaded through the recursion
    (the library instead rewrites the term), and inverse by scanning all
    persons — an independent route to the same sets.
    """

    def __init__(self, raw: dict):
        self.ids = [p["id"] for p in raw["persons"]]
        self.sex = {p["id"]: p["sex"] for p in raw["persons"]}
        self.parents: dict[str, list[str]] = {i: [] for i in self.ids}
        self.children: dict[str, list[str]] = {i: [] for i in self.ids}
        self.spouses: dict[str, list[str]] = {i: [] for i in self.ids}
        for bond in raw.get("bonds", []):
            if bond["type"] == "parental":
                self.parents[bond["child"]].append(bond["parent"])
                self.children[bond["parent"]].append(bond["child"])
            else:
                self.spouses[bond["a"]].append(bond["b"])
                self.spouses[bond["b"]].append(bond["a"])

    def atom(self, name: str, pid: str) -> set[str]:
        if name == "father":
            pool, want = self.parents[pid], "MALE"
        elif name == "mother":
            pool, want = self.parents[pid], "FEMALE"
        elif name == "son":
            pool, want = self.children[pid], "MALE"
        elif name == "daughter":
            pool, want = self.children[pid], "FEMALE"
        elif name == "husband":
            pool, want = self.spouses[pid], "MALE"
        elif name == "wife":
            pool, want = self.spouses[pid], "FEMALE"
        else:
            raise ValueError(name)
        return {q for q in pool if self.sex[q] == want}

    def eval(self, term: KinTerm, people) -> frozenset[str]:
        return self._eval(term, frozenset(people), False)

    def _eval(self, term: KinTerm, people: frozenset[str], flip: bool) -> frozenset[str]:
        if isinstance(term, Basic):
            name = _FLIP[term.atom.value] if flip else term.atom.value
            out: set[str] = set()
            for pid in people:
                out |= self.atom(name, pid)
            return frozenset(out)
        if isinstance(term, Concat):
            return self._eval(term.left, self._eval(term.right, people, flip), flip)
        if isinstance(term, Fork):
            return self._eval(term.left, people, flip) | self._eval(
                term.right, people, flip
            )
        if isinstance(term, Inverse):
            return frozenset(
                v
                for v in self.ids
                if self._eval(term.inner, frozenset((v,)), flip) & people
            )
        if isinstance(term, Dual):
            return self._eval(term.inner, people, not flip)
        raise TypeError(term)


def eval_inverse_oracle(
    tree: FamilyTree, term: KinTerm, people: Iterable[str]
) -> frozenset[str]:
    """Reference implementation of inverse by full scan over all persons.

    Keeps v iff applying ``term`` to {v} meets the input set; an
    independent route to the same answer as Inverse.
    """
    tree.require_valid()
    input_set = frozenset(people)
    return frozenset(
        p.id for p in tree.persons if eval_term(tree, term, (p.id,)) & input_set
    )


def random_term(
    rng: random.Random,
    budget: int,
    allow_inverse: bool = True,
    allow_dual: bool = True,
    depth: int = 0,
    inverse_nesting: int = 2,
) -> KinTerm:
    """A random term with at most ``budget`` concatenation nodes.

    Nested inverses are capped: each inverse layer multiplies evaluation
    cost by the tree size, so unbounded nesting makes bulk runs crawl.
    """

    def sub(new_budget: int, nesting: int = inverse_nesting) -> KinTerm:
        return random_term(
            rng, new_budget, allow_inverse, allow_dual, depth + 1, nesting
        )

    choices = ["basic"] * 2
    if budget > 0 and depth < 8:
        choices += ["concat"] * 4 + ["fork"] * 3
    if depth < 8:
        if allow_inverse and inverse_nesting > 0:
            choices += ["inverse"]
        if allow_dual:
            choices += ["dual"]
    op = rng.choice(choices)
    if op == "basic":
        return Basic(rng.choice(ATOMS))
    if op == "concat":
        split = rng.randint(0, budget - 1)
        return Concat(sub(split), sub(budget - 1 - split))
    if op == "fork":
        split = rng.randint(0, budget)
        return Fork(sub(split), sub(budget - split))
    if op == "inverse":
        return Inverse(sub(budget, inverse_nesting - 1))
    return Dual(sub(budget))


def random_block(rng: random.Random) -> KinTerm:
    """One concatenation-spine segment: an atom or a two-atom fork."""
    if rng.random() < 0.3:
        a, b = rng.sample(ATOMS, 2)
        return Fork(Basic(a), Basic(b))
    return Basic(rng.choice(ATOMS))


def random_chain(rng: random.Random, n_concats: int) -> KinTerm:
    """A pure concatenation chain with exactly ``n_concats`` joins."""
    return from_spine([random_block(rng) for _ in range(n_concats + 1)])


def recursive_walk(term: KinTerm) -> Iterator[KinTerm]:
    """``terms.walk`` as it was, a recursive generator: every node of the
    term tree, preorder.  Each node passes up through every generator above
    it, and a deep term exhausts the Python stack."""
    yield term
    if isinstance(term, (Concat, Fork)):
        yield from recursive_walk(term.left)
        yield from recursive_walk(term.right)
    elif isinstance(term, (Inverse, Dual)):
        yield from recursive_walk(term.inner)


def random_subset(rng: random.Random, ids: list[str]) -> frozenset[str]:
    k = rng.randint(0, len(ids))
    return frozenset(rng.sample(ids, k))


# --- pairwise KISP equality ------------------------------------------------------
# The interpreter's original equality and ``join`` deduplication, kept
# verbatim as the reference for the hashed value key that replaced them.


def kisp_equal(a: object, b: object) -> bool:
    """Structural equality; values of different types are unequal."""
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, Void) and isinstance(b, Void):
        return True
    if isinstance(a, date) and isinstance(b, date):
        return a == b
    if isinstance(a, PersonRef) and isinstance(b, PersonRef):
        return a.id == b.id
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(kisp_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, (Closure, Builtin)) and isinstance(b, (Closure, Builtin)):
        return a is b
    return False


def _dedup(values: Sequence[object]) -> tuple:
    out: list[object] = []
    for v in values:
        if not any(kisp_equal(v, seen) for seen in out):
            out.append(v)
    return tuple(out)


# --- reference KISP evaluator -----------------------------------------------------
# The interpreter's tree-walking evaluator from before it analysed terms into
# functions, kept as the reference for the analysed one: the same loop with
# proper tail calls and the same depth count, over a chain of dictionary
# frames whose last link is the interpreter's global frame.


class ReferenceEnvironment:
    __slots__ = ("bindings", "parent")

    def __init__(self, parent=None, bindings=None):
        self.bindings = {} if bindings is None else bindings
        self.parent = parent

    def lookup(self, name: str, node: KispExpr) -> object:
        env = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        raise KispRuntimeError(f"unbound reference {name!r}", node.line, node.col)


class ReferenceInterpreter(Interpreter):
    """An interpreter that evaluates with the reference evaluator; its
    builtins reach it through ``apply``."""

    def eval_top(self, node: KispExpr) -> object:
        try:
            return self.eval_in(ReferenceEnvironment(None, self.globals.bindings), node)
        except RecursionError:
            raise KispRuntimeError(TOO_DEEP, node.line, node.col) from None

    def eval_in(self, env: ReferenceEnvironment, node: KispExpr) -> object:
        depth = self._depth
        if depth >= MAX_DEPTH:
            raise KispRuntimeError(TOO_DEEP, node.line, node.col)
        self._depth = depth + 1
        try:
            while True:
                kind = type(node)
                if kind is Application:
                    head = node.head
                    kind = type(head)
                    if kind is Reference:
                        fn = env.lookup(head.name, head)
                    elif kind is Literal:
                        fn = head.value
                    else:
                        fn = self.eval_in(env, head)
                    args = []
                    for arg in node.args:
                        kind = type(arg)
                        if kind is Reference:
                            args.append(env.lookup(arg.name, arg))
                        elif kind is Literal:
                            args.append(arg.value)
                        else:
                            args.append(self.eval_in(env, arg))
                    kind = type(fn)
                    if kind is Closure and len(args) == len(fn.params):
                        env = ReferenceEnvironment(fn.env, dict(zip(fn.params, args)))
                        node = fn.body
                        continue
                    if (
                        kind is Builtin
                        and fn.min_args <= len(args)
                        and (fn.max_args is None or len(args) <= fn.max_args)
                    ):
                        return fn.fn(self, args, node)
                    return self.apply(fn, args, node)  # raises the matching error
                if kind is Reference:
                    return env.lookup(node.name, node)
                if kind is If:
                    cond = self.eval_in(env, node.cond)
                    if cond is True:
                        node = node.then
                    elif cond is False:
                        node = node.otherwise
                    else:
                        self._require_bool(cond, node.cond)
                    continue
                if kind is Literal:
                    return node.value
                if kind is Lambda:
                    return Closure(node.params, node.body, env)
                if kind is ShortCircuit:
                    stop = node.op == "or"
                    for operand in node.operands:
                        value = self.eval_in(env, operand)
                        self._require_bool(value, operand)
                        if value is stop:
                            return stop
                    return not stop
                if kind is Define:
                    value = self.eval_in(env, node.value)
                    self.globals.bind(node.name, value)
                    return VOID
                raise AssertionError(f"unknown node {node!r}")
        finally:
            self._depth = depth

    def caller(self, fn: object, n: int, node: KispExpr) -> Callable:
        # filter and map check and apply their function per item, as before
        # the analysed evaluator gave them one caller per list
        return lambda *args: self.apply(fn, args, node)

    def apply(self, fn: object, args: list, node: KispExpr) -> object:
        if type(fn) is Closure:
            if len(args) != len(fn.params):
                raise KispRuntimeError(
                    f"function expects {len(fn.params)} argument(s), got {len(args)}",
                    node.line,
                    node.col,
                )
            env = ReferenceEnvironment(fn.env, dict(zip(fn.params, args)))
            return self.eval_in(env, fn.body)
        if type(fn) is Builtin:
            if len(args) < fn.min_args or (fn.max_args is not None and len(args) > fn.max_args):
                if fn.max_args == fn.min_args:
                    wanted = str(fn.min_args)
                elif fn.max_args is None:
                    wanted = f"at least {fn.min_args}"
                else:
                    wanted = f"{fn.min_args}..{fn.max_args}"
                raise KispRuntimeError(
                    f"'{fn.name}' expects {wanted} argument(s), got {len(args)}",
                    node.line,
                    node.col,
                )
            return fn.fn(self, args, node)
        raise KispRuntimeError(
            f"cannot apply a {type_name(fn)} as a function", node.line, node.col
        )


def run_kisp(interp: Interpreter, src: str) -> tuple[list[str], object]:
    """The lines a script prints, and then how it failed: None, or the
    error's class, message, line and column."""
    lines: list[str] = []
    try:
        for line in interp.output(src):
            lines.append(line)
    except Exception as exc:  # compared, whatever it is
        return lines, (type(exc), getattr(exc, "message", str(exc)),
                       getattr(exc, "line", None), getattr(exc, "col", None))
    return lines, None
