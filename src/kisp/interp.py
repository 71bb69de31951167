"""The KISP language: lexer, parser, and an evaluator that analyses terms into functions.

KISP is a small LISP dialect for querying family trees.  Programs are
sequences of terms; a parenthesized term applies a function to
arguments.  ``define`` is restricted to the top level, lambdas may be
niladic, and the nine keywords (true, false, define, lambda, people,
now, void, if, vacant) can never be rebound.  ``and``/``or`` are
short-circuit special forms and are likewise reserved.

Values are Python natives where possible: numerals are ints (arbitrary
precision), strings are str, lists are tuples, dates are
``datetime.date``; persons, closures, and builtins get small wrapper
types.  ``void`` is a singleton distinct from every other value.
"""

from __future__ import annotations

import re
from collections import namedtuple
from datetime import date
from types import FunctionType as _Code  # an analysed term; never a KISP value
from typing import Callable, Iterator, Optional, Sequence, Union

from . import temporal
from .temporal import Timeline, format_date, parse_date
from .terms import Atom, record
from .tree import FamilyTree, UnknownPersonError, related

KEYWORDS = frozenset(
    {"true", "false", "define", "lambda", "people", "now", "void", "if", "vacant"}
)
# and/or are evaluated as short-circuit special forms, so they cannot be
# bound either; they are reserved on top of the nine keywords.
RESERVED = KEYWORDS | {"and", "or"}

_NUMERAL_RE = re.compile(r"^-?[0-9]+$")
_NAME_RE = re.compile(r"^[A-Za-z]+(?:-[A-Za-z]+)*\??$")
_OPERATOR_NAMES = frozenset({"+", "-", "*", "<", "="})


# --- errors ------------------------------------------------------------------


class KispError(Exception):
    """Base class for all KISP failures; carries a source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, col {col})")
        self.message = message
        self.line = line
        self.col = col


class KispLexError(KispError):
    pass


class KispParseError(KispError):
    pass


class KispRuntimeError(KispError):
    pass


# --- lexer -------------------------------------------------------------------


@record
class Token:
    kind: str  # "(", ")", "numeral", "string", "name"
    value: object
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(src)
    line, col = 1, 1

    def step(k: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and src[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        c = src[i]
        if c in " \t\r\n":
            step()
            continue
        if c in "()":
            tokens.append(Token(c, c, line, col))
            step()
            continue
        if c == "'":
            start_line, start_col = line, col
            step()
            chars: list[str] = []
            while True:
                if i >= n or src[i] == "\n":
                    raise KispLexError("unterminated string", start_line, start_col)
                ch = src[i]
                if ch == "'":
                    step()
                    break
                if not (0x20 <= ord(ch) <= 0x7E):
                    raise KispLexError(
                        f"illegal character {ch!r} in string", line, col
                    )
                chars.append(ch)
                step()
            tokens.append(Token("string", "".join(chars), start_line, start_col))
            continue
        # a word: everything up to the next delimiter
        start_line, start_col = line, col
        j = i
        while j < n and src[j] not in " \t\r\n()'":
            j += 1
        word = src[i:j]
        step(j - i)
        if _NUMERAL_RE.match(word):
            tokens.append(Token("numeral", int(word), start_line, start_col))
        elif word in _OPERATOR_NAMES or _NAME_RE.match(word):
            tokens.append(Token("name", word, start_line, start_col))
        else:
            raise KispLexError(f"invalid token {word!r}", start_line, start_col)
    return tokens


# --- AST ---------------------------------------------------------------------


class KispExpr:
    __slots__ = ()


@record
class Literal(KispExpr):
    value: object
    line: int
    col: int


@record
class Reference(KispExpr):
    name: str
    line: int
    col: int


@record
class Lambda(KispExpr):
    params: tuple[str, ...]
    body: KispExpr
    line: int
    col: int


@record
class Define(KispExpr):
    name: str
    value: KispExpr
    line: int
    col: int


@record
class If(KispExpr):
    cond: KispExpr
    then: KispExpr
    otherwise: KispExpr
    line: int
    col: int


@record
class ShortCircuit(KispExpr):
    op: str  # "and" | "or"
    operands: tuple[KispExpr, ...]
    line: int
    col: int


@record
class Application(KispExpr):
    head: KispExpr
    args: tuple[KispExpr, ...]
    line: int
    col: int


# --- values ------------------------------------------------------------------


class Void:
    _instance: Optional["Void"] = None

    def __new__(cls) -> "Void":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "void"


VOID = Void()

VACANT: tuple = ()


@record
class PersonRef:
    id: str


@record(hidden=("code",))
class Closure:
    params: tuple[str, ...]
    body: KispExpr
    env: tuple  # the frame the lambda was evaluated in
    code: Optional[Callable] = None


@record
class Builtin:
    name: str
    min_args: int
    max_args: Optional[int]  # None = variadic
    fn: Callable[["Interpreter", Sequence, KispExpr], object]


# --- parser ------------------------------------------------------------------


# Parentheses may nest this deep: text within it parses and is analysed well
# inside Python's recursion limit of 1000, even from a caller a few hundred
# frames deep.  A deeper '(' fails as "term nested too deeply".
MAX_NESTING = 200


def parse_program(src: str) -> list[KispExpr]:
    """Parse a whole program: a sequence of top-level terms."""
    return _Parser(tokenize(src)).program()


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # open forms

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _eof_pos(self) -> tuple[int, int]:
        if self.tokens:
            last = self.tokens[-1]
            return last.line, last.col
        return 1, 1

    def program(self) -> list[KispExpr]:
        out = []
        while self.peek() is not None:
            out.append(self.term(top_level=True))
        return out

    def term(self, top_level: bool = False) -> KispExpr:
        tok = self.peek()
        if tok is None:
            line, col = self._eof_pos()
            raise KispParseError("unexpected end of input", line, col)
        if tok.kind == ")":
            raise KispParseError("unexpected ')'", tok.line, tok.col)
        if tok.kind == "numeral" or tok.kind == "string":
            self.advance()
            return Literal(tok.value, tok.line, tok.col)
        if tok.kind == "name":
            self.advance()
            return self._atom(tok)
        # tok.kind == "("
        return self._form(top_level)

    def _atom(self, tok: Token) -> KispExpr:
        name = tok.value
        if name == "true":
            return Literal(True, tok.line, tok.col)
        if name == "false":
            return Literal(False, tok.line, tok.col)
        if name == "void":
            return Literal(VOID, tok.line, tok.col)
        if name == "vacant":
            return Literal(VACANT, tok.line, tok.col)
        if name in ("define", "lambda", "if"):
            raise KispParseError(
                f"keyword {name!r} cannot be used as a reference", tok.line, tok.col
            )
        if name in ("and", "or"):
            raise KispParseError(
                f"reserved word {name!r} cannot be used as a reference",
                tok.line,
                tok.col,
            )
        # people and now are keywords but legal in expression position;
        # they resolve through the global frame like any reference.
        return Reference(name, tok.line, tok.col)  # type: ignore[arg-type]

    def _form(self, top_level: bool) -> KispExpr:
        open_tok = self.advance()  # "("
        self.depth += 1  # back down in _close or _ensure_close
        if self.depth > MAX_NESTING:
            raise KispParseError("term nested too deeply", open_tok.line, open_tok.col)
        tok = self.peek()
        if tok is None:
            raise KispParseError("unbalanced '('", open_tok.line, open_tok.col)
        if tok.kind == ")":
            self.advance()
            raise KispParseError(
                "'()' is not a well-formed term", open_tok.line, open_tok.col
            )
        if tok.kind == "name" and tok.value == "define":
            if not top_level:
                raise KispParseError(
                    "'define' is only allowed at the top level", tok.line, tok.col
                )
            return self._define(open_tok)
        if tok.kind == "name" and tok.value == "lambda":
            return self._lambda(open_tok)
        if tok.kind == "name" and tok.value == "if":
            return self._if(open_tok)
        if tok.kind == "name" and tok.value in ("and", "or"):
            return self._short_circuit(open_tok)
        head = self.term()
        args = []
        while (nxt := self.peek()) is not None and nxt.kind != ")":
            args.append(self.term())
        self._close(open_tok)
        return Application(head, tuple(args), open_tok.line, open_tok.col)

    def _close(self, open_tok: Token) -> None:
        tok = self.peek()
        if tok is None:
            raise KispParseError("unbalanced '('", open_tok.line, open_tok.col)
        assert tok.kind == ")"
        self.advance()
        self.depth -= 1

    def _binding_name(self, what: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "name":
            line, col = (tok.line, tok.col) if tok else self._eof_pos()
            raise KispParseError(f"{what} must be a reference", line, col)
        if tok.value in RESERVED:
            raise KispParseError(
                f"cannot bind reserved name {tok.value!r}", tok.line, tok.col
            )
        self.advance()
        return tok

    def _define(self, open_tok: Token) -> KispExpr:
        self.advance()  # "define"
        name_tok = self._binding_name("defined name")
        value = self.term()
        self._ensure_close(open_tok, "'define' takes a name and one term")
        return Define(name_tok.value, value, open_tok.line, open_tok.col)  # type: ignore[arg-type]

    def _lambda(self, open_tok: Token) -> KispExpr:
        self.advance()  # "lambda"
        tok = self.peek()
        if tok is None or tok.kind != "(":
            line, col = (tok.line, tok.col) if tok else self._eof_pos()
            raise KispParseError("lambda needs a parameter list", line, col)
        self.advance()
        params: list[str] = []
        while (nxt := self.peek()) is not None and nxt.kind != ")":
            param_tok = self._binding_name("lambda parameter")
            if param_tok.value in params:
                raise KispParseError(
                    f"duplicate parameter {param_tok.value!r}",
                    param_tok.line,
                    param_tok.col,
                )
            params.append(param_tok.value)  # type: ignore[arg-type]
        if self.peek() is None:
            raise KispParseError("unbalanced '('", open_tok.line, open_tok.col)
        self.advance()  # close parameter list
        body = self.term()
        self._ensure_close(open_tok, "lambda takes a parameter list and one body term")
        return Lambda(tuple(params), body, open_tok.line, open_tok.col)

    def _if(self, open_tok: Token) -> KispExpr:
        self.advance()  # "if"
        cond = self.term()
        then = self.term()
        otherwise = self.term()
        self._ensure_close(open_tok, "'if' takes exactly three terms")
        return If(cond, then, otherwise, open_tok.line, open_tok.col)

    def _short_circuit(self, open_tok: Token) -> KispExpr:
        op_tok = self.advance()
        operands = []
        while (nxt := self.peek()) is not None and nxt.kind != ")":
            operands.append(self.term())
        if len(operands) < 2:
            raise KispParseError(
                f"'{op_tok.value}' needs at least two operands",
                op_tok.line,
                op_tok.col,
            )
        self._close(open_tok)
        return ShortCircuit(
            op_tok.value, tuple(operands), open_tok.line, open_tok.col  # type: ignore[arg-type]
        )

    def _ensure_close(self, open_tok: Token, message: str) -> None:
        tok = self.peek()
        if tok is None:
            raise KispParseError("unbalanced '('", open_tok.line, open_tok.col)
        if tok.kind != ")":
            raise KispParseError(message, tok.line, tok.col)
        self.advance()
        self.depth -= 1


# --- environments ------------------------------------------------------------


class Environment:
    """The global frame; lambda parameters live in analysed frames."""

    __slots__ = ("bindings",)

    def __init__(self) -> None:
        self.bindings: dict[str, object] = {}

    def bind(self, name: str, value: object) -> None:
        self.bindings[name] = value


# --- value helpers -----------------------------------------------------------


def value_key(value: object) -> object:
    """A hashable key such that two KISP values are equal exactly when their
    keys are equal.  Python's own equality already keeps numerals, strings,
    dates and ``void`` apart; the tags keep booleans apart from the numerals
    they equal in Python, and compare persons by id, lists element-wise and
    functions by identity."""
    kind = type(value)
    if kind is PersonRef:
        return ("person", value.id)  # type: ignore[attr-defined]
    if kind is tuple:
        return ("list", tuple(map(value_key, value)))  # type: ignore[call-overload]
    if kind is bool:
        return ("boolean", value)
    if kind is Closure or kind is Builtin:
        return ("function", id(value))
    return value


_SCALARS = frozenset({str, int, bool, date})  # equal exactly when Python's == says so


def kisp_equal(a: object, b: object) -> bool:
    """Structural equality; values of different types are unequal."""
    kind = type(a)
    if kind is type(b) and kind in _SCALARS:
        return a == b
    return value_key(a) == value_key(b)


def format_value(value: object) -> str:
    """Canonical printed form of a KISP value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, Void):
        return "void"
    if isinstance(value, date):
        return format_date(value)
    if isinstance(value, PersonRef):
        return value.id
    if isinstance(value, tuple):
        return _format_list(value)
    if isinstance(value, Closure):
        return "<function>"
    if isinstance(value, Builtin):
        return f"<builtin {value.name}>"
    raise TypeError(f"not a KISP value: {value!r}")


_CLOSE = object()  # marks the end of a list in _format_list's work stack


def _format_list(value: tuple) -> str:
    """A list's printed form, built with an explicit stack so that lists
    nested deeper than the Python stack still print."""
    parts: list[str] = []
    todo: list[object] = [value]
    after_open = True
    while todo:
        item = todo.pop()
        if item is _CLOSE:
            parts.append(")")
            after_open = False
            continue
        if not after_open:
            parts.append(" ")
        if isinstance(item, tuple):
            parts.append("(")
            todo.append(_CLOSE)
            todo.extend(reversed(item))
            after_open = True
        else:
            parts.append(format_value(item))
            after_open = False
    return "".join(parts)


def type_name(value: object) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, int):
        return "numeral"
    if isinstance(value, str):
        return "string"
    if isinstance(value, Void):
        return "void"
    if isinstance(value, date):
        return "date"
    if isinstance(value, PersonRef):
        return "person"
    if isinstance(value, tuple):
        return "list"
    if isinstance(value, (Closure, Builtin)):
        return "function"
    return type(value).__name__


# --- interpreter -------------------------------------------------------------

# Higher-order helpers shipped as KISP source rather than natives.
PRELUDE = """
(define square (lambda (x) (* x x)))
(define twice (lambda (f) (lambda (x) (f (f x)))))
(define compose (lambda (f g) (lambda (x) (f (g x)))))
"""


# Non-tail evaluations (an argument, a condition, a function body reached
# through a builtin such as ``map``) may nest this deep; tail calls do not
# count.  It keeps well inside Python's default recursion limit of 1000.
MAX_DEPTH = 300
TOO_DEEP = "evaluation nested too deeply"
# A closure applied in tail position, left to the caller's trampoline.
_TailCall = namedtuple("_TailCall", "fn values")
_LEAVES = (Literal, Reference)  # read in place, not an evaluation of their own


class Interpreter:
    """One KISP session: a global frame over an optional family tree."""

    def __init__(
        self,
        tree: Optional[FamilyTree] = None,
        timeline: Optional[Timeline] = None,
        ego: Optional[str] = None,
    ):
        if tree is not None:
            tree.require_valid()
        self.tree = tree
        self.timeline = timeline if timeline is not None else Timeline.today()
        self._depth = 0  # pending non-tail evaluations where a builtin runs
        self.globals = Environment()
        for builtin in _BUILTINS:
            self.globals.bind(builtin.name, builtin)
        people: tuple = ()
        if tree is not None:
            people = tuple(PersonRef(p.id) for p in tree.persons)
        self._person_refs = {ref.id: ref for ref in people}  # shared, immutable
        self.globals.bind("people", people)
        self.globals.bind("now", self.timeline.now)
        if ego is not None:
            if tree is None:
                raise ValueError("cannot bind ego without a family tree")
            tree.person(ego)  # raises UnknownPersonError if absent
            self.globals.bind("ego", PersonRef(ego))
        for node in parse_program(PRELUDE):
            self.eval_top(node)

    # -- evaluation --

    def _analyse(self, node: KispExpr, scope: tuple, j: int, tail: bool = False) -> Callable:
        """Analyse ``node`` once into a Python function, its code, run as
        ``code(frame, level)``.  ``scope`` names the parameters of the
        enclosing lambdas, outermost first, and ``frame`` holds their values
        in the same order; other names are global, looked up when evaluated.
        ``level`` counts non-tail evaluations at the enclosing closure body,
        ``j`` more at the node.  In ``tail`` position a closure application
        returns a ``_TailCall``, an ``if`` its branch's code."""
        # A code reads what the analysis fixed from its defaults: fast local
        # reads, and one tracked tuple per code rather than one cell per name.
        limit = MAX_DEPTH + 1 - j  # reached only where the node adds a level
        kind = type(node)
        if kind is Literal or kind is Reference:

            def checked(frame, level, leaf=self._leaf(node, scope), limit=limit, node=node):
                if level >= limit:
                    raise KispRuntimeError(TOO_DEEP, node.line, node.col)
                return leaf(frame, level)

            return checked
        if kind is Application:  # a leaf operand is read in place
            head, *args = [
                self._leaf(a, scope) if type(a) in _LEAVES else self._analyse(a, scope, j + 1)
                for a in (node.head, *node.args)
            ]
            a0, a1, a2 = (*args, None, None, None)[:3]

            def application(frame, level, head=head, a0=a0, a1=a1, a2=a2, args=args,
                            arity=len(args), interp=self, limit=limit, j=j, tail=tail, node=node):
                if level >= limit:
                    raise KispRuntimeError(TOO_DEEP, node.line, node.col)
                fn = head(frame, level)
                if arity == 1:  # short tuples without a comprehension's frame
                    values = (a0(frame, level),)
                elif arity == 2:
                    values = (a0(frame, level), a1(frame, level))
                elif arity == 3:
                    values = (a0(frame, level), a1(frame, level), a2(frame, level))
                else:
                    values = tuple([arg(frame, level) for arg in args])
                kind = type(fn)
                if kind is Builtin and fn.min_args <= arity and (
                    fn.max_args is None or arity <= fn.max_args
                ):
                    interp._depth = level + j  # read by apply
                    return fn.fn(interp, values, node)
                if kind is not Closure or arity != len(fn.params):
                    return interp.apply(fn, values, node)  # raises the matching error
                if tail:
                    return _TailCall(fn, values)
                level += j
                while True:  # the trampoline, as in caller
                    frame = fn.env + values
                    result = fn.code(frame, level)
                    while type(result) is _Code:
                        result = result(frame, level)
                    if type(result) is not _TailCall:
                        return result
                    fn, values = result

            if type(node.head) is not Reference or node.head.name in scope:
                return application
            for arg in node.args:
                if type(arg) is not Literal:
                    return application

            def folded(frame, level, bindings=self.globals.bindings, name=node.head.name,
                       application=application, kept=[None, None], limit=limit, node=node):
                # a global applied to literals: a pure builtin's value is kept
                # with the builtin it came from, and used while the name is
                # bound to that builtin; an error is never kept
                if level >= limit:
                    raise KispRuntimeError(TOO_DEEP, node.line, node.col)
                fn = bindings.get(name)
                if fn is kept[0] and fn is not None:
                    return kept[1]
                value = application(frame, level)
                if type(fn) is Builtin and fn.name in _PURE_BUILTINS:
                    kept[:] = fn, value
                return value

            return folded
        if kind is If:
            cond = self._analyse(node.cond, scope, j + 1)
            then = self._analyse(node.then, scope, j, tail)
            otherwise = self._analyse(node.otherwise, scope, j, tail)

            def if_(frame, level, cond=cond, then=then, otherwise=otherwise, interp=self,
                    limit=limit, tail=tail, node=node):
                if level >= limit:
                    raise KispRuntimeError(TOO_DEEP, node.line, node.col)
                test = cond(frame, level)
                if test is not True and test is not False:
                    interp._require_bool(test, node.cond)
                branch = then if test else otherwise
                return branch if tail else branch(frame, level)

            return if_
        if kind is Lambda:
            code = self._analyse(node.body, (*scope, *node.params), 0, True)

            def lambda_(frame, level, code=code, limit=limit, node=node):
                if level >= limit:
                    raise KispRuntimeError(TOO_DEEP, node.line, node.col)
                return Closure(node.params, node.body, frame, code)

            return lambda_
        if kind is ShortCircuit:
            operands = [(self._analyse(o, scope, j + 1), o) for o in node.operands]

            def short_circuit(frame, level, operands=operands, stop=node.op == "or",
                              interp=self, limit=limit, node=node):
                # ``stop`` is the operand value that decides the result
                if level >= limit:
                    raise KispRuntimeError(TOO_DEEP, node.line, node.col)
                for code, operand in operands:
                    value = code(frame, level)
                    if value is stop:
                        return stop
                    interp._require_bool(value, operand)
                return not stop

            return short_circuit
        if kind is Define:
            value = self._analyse(node.value, scope, j + 1)

            def define(frame, level, value=value, bindings=self.globals.bindings, name=node.name):
                bindings[name] = value(frame, level)
                return VOID

            return define
        raise AssertionError(f"unknown node {node!r}")

    def _leaf(self, node: KispExpr, scope: tuple) -> Callable:
        if type(node) is Literal:
            return lambda frame, level, value=node.value: value
        name = node.name  # type: ignore[attr-defined]
        if name in scope:  # the innermost parameter of that name
            return lambda frame, level, slot=len(scope) - 1 - scope[::-1].index(name): frame[slot]

        def global_(frame, level, bindings=self.globals.bindings, name=name, node=node):
            try:
                return bindings[name]
            except KeyError:
                raise KispRuntimeError(
                    f"unbound reference {name!r}", node.line, node.col
                ) from None

        return global_

    def apply(self, fn: object, args: Sequence, node: KispExpr) -> object:
        """Apply a function value to evaluated arguments."""
        return self.caller(fn, len(args), node)(*args)

    def caller(self, fn: object, n: int, node: KispExpr) -> Callable:
        """Check once that ``fn`` applies to ``n`` arguments here, and return
        a function that applies it: ``caller(fn, n, node)(*args)`` is
        ``apply(fn, args, node)``.  Builtins that call a function on every
        item of a list, such as ``filter``, ask once per list."""
        if type(fn) is Closure and n == len(fn.params):
            depth = self._depth
            if depth >= MAX_DEPTH:
                raise KispRuntimeError(TOO_DEEP, fn.body.line, fn.body.col)
            level = depth + 1

            def call(*args, fn=fn):
                while True:  # the trampoline: jumps to branches, tail calls
                    frame = fn.env + args
                    result = fn.code(frame, level)
                    while type(result) is _Code:
                        result = result(frame, level)
                    if type(result) is not _TailCall:
                        self._depth = depth  # the builtin may call again
                        return result
                    fn, args = result

            return call
        line, col = node.line, node.col  # type: ignore[attr-defined]
        if type(fn) is Closure:
            raise KispRuntimeError(
                f"function expects {len(fn.params)} argument(s), got {n}", line, col
            )
        if type(fn) is not Builtin:
            raise KispRuntimeError(f"cannot apply a {type_name(fn)} as a function", line, col)
        if fn.min_args <= n and (fn.max_args is None or n <= fn.max_args):
            return lambda *args: fn.fn(self, args, node)
        wanted = (
            str(fn.min_args) if fn.max_args == fn.min_args
            else f"at least {fn.min_args}" if fn.max_args is None
            else f"{fn.min_args}..{fn.max_args}"
        )
        raise KispRuntimeError(f"'{fn.name}' expects {wanted} argument(s), got {n}", line, col)

    def eval_top(self, node: KispExpr) -> object:
        try:
            return self._analyse(node, (), 0)((), 1)
        except RecursionError:
            # Builtins that call back into the evaluator (filter, map) take
            # more Python stack per level than MAX_DEPTH allows for, and
            # comparing or joining deeply nested lists recurses outside
            # the evaluator; running out of stack is the same evaluation error.
            raise KispRuntimeError(TOO_DEEP, node.line, node.col) from None  # type: ignore[attr-defined]
        finally:
            self._depth = 0

    def eval_program(self, src: str) -> list[tuple[KispExpr, object]]:
        """Evaluate a program; returns (term, value) pairs in order."""
        return [(node, self.eval_top(node)) for node in parse_program(src)]

    def eval_text(self, src: str) -> object:
        """Evaluate source and return the value of the last term."""
        result: object = VOID
        for _, value in self.eval_program(src):
            result = value
        return result

    def output(self, src: str, repl: bool = False) -> Iterator[str]:
        """Parse the whole program, then yield the printed form of each
        top-level term's value as soon as it is computed.  A script prints
        every term but ``define``; the REPL prints defines too."""
        for node in parse_program(src):
            value = self.eval_top(node)
            if repl or type(node) is not Define:
                yield format_value(value)

    def script_output(self, src: str) -> list[str]:
        """Printed lines for a script: one per top-level non-define term."""
        return list(self.output(src))

    # -- helpers used by builtins --

    def _require_bool(self, value: object, node: KispExpr) -> None:
        if not isinstance(value, bool):
            raise KispRuntimeError(
                f"expected a boolean, got {type_name(value)}",
                node.line,  # type: ignore[attr-defined]
                node.col,  # type: ignore[attr-defined]
            )

    def require_tree(self, node: KispExpr) -> FamilyTree:
        if self.tree is None:
            raise KispRuntimeError(
                "no family tree loaded", node.line, node.col  # type: ignore[attr-defined]
            )
        return self.tree


# --- builtin library ----------------------------------------------------------


def _arg_error(name: str, expected: str, value: object, node: KispExpr) -> KispRuntimeError:
    return KispRuntimeError(
        f"'{name}' expects {expected}, got {type_name(value)}",
        node.line,  # type: ignore[attr-defined]
        node.col,  # type: ignore[attr-defined]
    )


def _wanting(kind: type, expected: str) -> Callable[[str, object, KispExpr], object]:
    """A check that a builtin's argument is of ``kind``; booleans are no numerals."""

    def want(name: str, value: object, node: KispExpr) -> object:
        if not isinstance(value, kind) or (kind is int and type(value) is bool):
            raise _arg_error(name, expected, value, node)
        return value

    return want


_want_int = _wanting(int, "a numeral")
_want_list = _wanting(tuple, "a list")
_want_date = _wanting(date, "a date")
_want_person = _wanting(PersonRef, "a person")
_want_bool = _wanting(bool, "a boolean")
_want_str = _wanting(str, "a string")


def _dedup(values: Sequence[object]) -> tuple:
    """The values without repeats, each kept at its first occurrence."""
    unique: dict[object, object] = {}
    for v in values:
        unique.setdefault(value_key(v), v)
    return tuple(unique.values())


def _builtin_add(interp, args, node):
    return sum(_want_int("+", a, node) for a in args)


def _builtin_sub(interp, args, node):
    return _want_int("-", args[0], node) - _want_int("-", args[1], node)


def _builtin_mul(interp, args, node):
    out = 1
    for a in args:
        out *= _want_int("*", a, node)
    return out


def _builtin_less(interp, args, node):
    return _want_int("<", args[0], node) < _want_int("<", args[1], node)


def _builtin_equal(interp, args, node):
    return kisp_equal(args[0], args[1])


def _builtin_inc(interp, args, node):
    return _want_int("inc", args[0], node) + 1


def _builtin_count(interp, args, node):
    return len(_want_list("count", args[0], node))


def _builtin_not(interp, args, node):
    return not _want_bool("not", args[0], node)


def _builtin_list(interp, args, node):
    return tuple(args)


def _builtin_append(interp, args, node):
    out: list = []
    for a in args:
        out.extend(_want_list("append", a, node))
    return tuple(out)


def _builtin_concat(interp, args, node):
    return "".join(_want_str("concat", a, node) for a in args)


def _builtin_join(interp, args, node):
    merged: list = []
    for a in args:
        merged.extend(_want_list("join", a, node))
    return _dedup(merged)


def _builtin_filter(interp, args, node):
    fn, lst = args[0], _want_list("filter", args[1], node)
    if not lst:  # fn is checked only when it is applied
        return lst
    predicate, out = interp.caller(fn, 1, node), []
    for item in lst:
        keep = predicate(item)
        if keep is True:
            out.append(item)
        elif keep is not False:
            raise _arg_error("filter", "a boolean from its predicate", keep, node)
    return tuple(out)


def _builtin_map(interp, args, node):
    fn, lst = args[0], _want_list("map", args[1], node)
    return tuple(map(interp.caller(fn, 1, node), lst)) if lst else lst


def _kin_builtin(name: str, relation: Union[Atom, str]) -> Builtin:
    """A one-argument builtin mapping a person, or a list of persons, to the
    persons ``tree.RELATIONS[relation]`` relates them to, in tree order."""

    def run(interp: Interpreter, args, node):
        tree = interp.require_tree(node)
        value = args[0]
        if isinstance(value, PersonRef):
            ids = [value.id]
        elif isinstance(value, tuple):
            ids = [_want_person(name, v, node).id for v in value]
        else:
            raise _arg_error(name, "a person or a list of persons", value, node)
        for pid in ids:
            if pid not in tree:
                raise KispRuntimeError(f"unknown person {pid!r}", node.line, node.col)
        refs, found = interp._person_refs, set(related(tree, relation, ids))
        return tuple(refs[pid] for pid in sorted(found, key=tree.index_of))

    return Builtin(name, 1, 1, run)


def _builtin_attr(interp, args, node):
    person = _want_person("attr", args[0], node)
    key = _want_str("attr", args[1], node)
    try:
        record = interp.require_tree(node).person(person.id)
    except UnknownPersonError:
        raise KispRuntimeError(f"unknown person {person.id!r}", node.line, node.col) from None
    if key == "birthdate":
        return record.birthdate
    if key == "sex":
        return record.sex._value_  # the member's text, without the Python-level .value
    if key == "name":
        return record.name
    if key == "birthplace":
        return record.birthplace if record.birthplace is not None else VOID
    raise KispRuntimeError(f"unknown attribute {key!r}", node.line, node.col)


def _builtin_date(interp, args, node):
    text = _want_str("date", args[0], node)
    try:
        return parse_date(text)
    except ValueError as exc:
        raise KispRuntimeError(str(exc), node.line, node.col) from None


def _builtin_before(interp, args, node):
    return temporal.before(
        _want_date("before", args[0], node), _want_date("before", args[1], node)
    )


def _builtin_after(interp, args, node):
    return temporal.after(
        _want_date("after", args[0], node), _want_date("after", args[1], node)
    )


def _builtin_during(interp, args, node):
    return temporal.during(
        _want_date("during", args[0], node),
        _want_date("during", args[1], node),
        _want_date("during", args[2], node),
    )


def _builtin_past(interp, args, node):
    return temporal.past(interp.timeline, _want_date("past", args[0], node))


def _builtin_future(interp, args, node):
    return temporal.future(interp.timeline, _want_date("future", args[0], node))


# Builtins whose value depends on their arguments alone, so that an
# application of one to literals is computed once (see ``_analyse``).  By
# name, so that a builtin wrapped in a new ``Builtin`` keeps its purity.
# ``before``, ``after`` and ``during`` are pure too but take dates, and no
# literal is a date, so they never apply to literals alone.
_PURE_BUILTINS = frozenset({"date", "+", "-", "*", "<", "=", "inc", "not", "list", "concat"})
_BUILTINS = [
    Builtin("+", 2, None, _builtin_add),
    Builtin("-", 2, 2, _builtin_sub),
    Builtin("*", 2, None, _builtin_mul),
    Builtin("<", 2, 2, _builtin_less),
    Builtin("=", 2, 2, _builtin_equal),
    Builtin("inc", 1, 1, _builtin_inc),
    Builtin("count", 1, 1, _builtin_count),
    Builtin("not", 1, 1, _builtin_not),
    Builtin("list", 0, None, _builtin_list),
    Builtin("append", 1, None, _builtin_append),
    Builtin("concat", 1, None, _builtin_concat),
    Builtin("join", 1, None, _builtin_join),
    Builtin("filter", 2, 2, _builtin_filter),
    Builtin("map", 2, 2, _builtin_map),
    _kin_builtin("children", "children"),
    _kin_builtin("spouse", "spouse"),
    *(_kin_builtin(atom.value, atom) for atom in Atom),
    Builtin("attr", 2, 2, _builtin_attr),
    Builtin("date", 1, 1, _builtin_date),
    Builtin("before", 2, 2, _builtin_before),
    Builtin("after", 2, 2, _builtin_after),
    Builtin("during", 3, 3, _builtin_during),
    Builtin("past", 1, 1, _builtin_past),
    Builtin("future", 1, 1, _builtin_future),
]
