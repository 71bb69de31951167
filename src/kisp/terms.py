"""Kinship terms: six basic atoms combined by concatenation, fork,
inverse and dual.

Concrete notation accepted by ``parse_kin_term``:

    atom       father  mother  son  daughter  husband  wife
    concat     juxtaposition or ``.``  (right-grouping: ``a b c`` = ``a (b c)``)
    fork       ``|``                   (left-grouping, binds looser than concat)
    inverse    postfix ``^-1``
    dual       postfix ``^+``
    grouping   parentheses

``render`` emits a fully parenthesised form that parses back to the same
tree, e.g. ``(son . (father | mother))``.
"""

from __future__ import annotations

import enum
from typing import Iterator, Sequence


# The methods of a record class.  ``dataclass(frozen=True)`` writes the same
# ``__init__``, ``__eq__``, ``__hash__`` and ``__repr__`` bodies, so none is
# slower; assignment raises on every name, as no record class is subclassed.
_RECORD_METHODS = """\
def __init__(self, {params}):
{assigns}
def __eq__(self, other):
    if other.__class__ is self.__class__:
        return {mine} == {theirs}
    return NotImplemented
def __hash__(self):
    return hash({mine})
def __repr__(self):
    return self.__class__.__qualname__ + f"({shown})"
def __setattr__(self, name, value):
    raise AttributeError(f"cannot assign to field {{name!r}}")
def __delattr__(self, name):
    raise AttributeError(f"cannot delete field {{name!r}}")
"""


def record(cls: type = None, *, hidden: tuple[str, ...] = ()):
    """Make ``cls`` a frozen record of its annotated fields, as
    ``dataclass(frozen=True)`` does, without importing ``dataclasses``.

    ``__init__`` takes the fields in order, a class attribute giving a
    field's default; ``==`` and ``hash`` go by the exact class and the field
    values, ``repr`` shows them, and assigning or deleting an attribute
    raises AttributeError.  ``hidden`` fields are set by ``__init__`` but
    left out of ``==``, ``hash`` and ``repr``.  One ``exec`` per class
    compiles the methods.
    """
    if cls is None:
        return lambda cls: record(cls, hidden=hidden)
    fields = tuple(cls.__annotations__)
    shown = [f for f in fields if f not in hidden]
    mine = "(" + "".join(f"self.{f}," for f in shown) + ")"
    namespace = {"_object": object}
    exec(_RECORD_METHODS.format(
        params=", ".join(fields),
        assigns="\n".join(f"    _object.__setattr__(self, {f!r}, {f})" for f in fields),
        mine=mine,
        theirs=mine.replace("self.", "other."),
        shown=", ".join(f"{f}={{self.{f}!r}}" for f in shown),
    ), namespace)
    namespace["__init__"].__defaults__ = tuple(cls.__dict__[f] for f in fields if f in cls.__dict__)
    for name in ("__init__", "__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"):
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, namespace[name])
    return cls


class Atom(enum.Enum):
    FATHER = "father"
    MOTHER = "mother"
    SON = "son"
    DAUGHTER = "daughter"
    HUSBAND = "husband"
    WIFE = "wife"

    # Members are singletons compared by identity, so they hash by identity
    # too, in C: ``Enum.__hash__`` is a Python call on every lookup of an
    # atom in a table such as ``tree.RELATIONS``.
    __hash__ = object.__hash__

    @property
    def opposite(self) -> "Atom":
        """The same relation with the sexes swapped."""
        return _OPPOSITE[self]

    def __str__(self) -> str:
        return self.value


_OPPOSITE = {
    Atom.FATHER: Atom.MOTHER,
    Atom.MOTHER: Atom.FATHER,
    Atom.SON: Atom.DAUGHTER,
    Atom.DAUGHTER: Atom.SON,
    Atom.HUSBAND: Atom.WIFE,
    Atom.WIFE: Atom.HUSBAND,
}


class KinTerm:
    """Base class for term nodes; all nodes are immutable and hashable."""

    __slots__ = ()


@record
class Basic(KinTerm):
    atom: Atom


@record
class Concat(KinTerm):
    left: KinTerm
    right: KinTerm


@record
class Fork(KinTerm):
    left: KinTerm
    right: KinTerm


@record
class Inverse(KinTerm):
    inner: KinTerm


@record
class Dual(KinTerm):
    inner: KinTerm


class KinTermError(ValueError):
    """Raised on malformed kin-term text; carries the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# --- lexer/parser -----------------------------------------------------------

_ATOM_NAMES = {a.value: a for a in Atom}


def _lex(src: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in "()|.":
            tokens.append((c, c, i))
            i += 1
            continue
        if c == "^":
            if src.startswith("^-1", i):
                tokens.append(("^-1", "^-1", i))
                i += 3
                continue
            if src.startswith("^+", i):
                tokens.append(("^+", "^+", i))
                i += 2
                continue
            raise KinTermError("expected '^-1' or '^+' after '^'", i)
        if c.isalpha():
            j = i
            while j < n and src[j].isalpha():
                j += 1
            name = src[i:j]
            atom = _ATOM_NAMES.get(name)
            if atom is None:
                raise KinTermError(f"unknown atom {name!r}", i)
            tokens.append(("atom", atom, i))
            i = j
            continue
        raise KinTermError(f"unexpected character {c!r}", i)
    return tokens


# Parentheses may nest this deep: text within it parses well inside
# Python's recursion limit of 1000, even from a caller a few hundred frames
# deep.  A deeper '(' fails as "term nested too deeply".
MAX_NESTING = 150

# The term operations (evaluation, reduction, expansion) recurse once per
# node, so a term of about a thousand factors exhausts Python's stack; the
# ``term`` and ``reduce`` commands both report that with this message.
TOO_LONG = "kin term too long or nested too deeply"


class _Parser:
    def __init__(self, tokens: list[tuple[str, object, int]], length: int):
        self.tokens = tokens
        self.pos = 0
        self.length = length
        self.depth = 0  # open parentheses

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> KinTerm:
        if not self.tokens:
            raise KinTermError("empty kin term", 0)
        term = self.fork()
        tok = self.peek()
        if tok is not None:
            raise KinTermError(f"unexpected {tok[0]!r}", tok[2])
        return term

    def fork(self) -> KinTerm:
        term = self.concat()
        while (tok := self.peek()) is not None and tok[0] == "|":
            self.advance()
            term = Fork(term, self.concat())
        return term

    def concat(self) -> KinTerm:
        parts = [self.postfix()]
        while (tok := self.peek()) is not None:
            if tok[0] == ".":
                self.advance()
                parts.append(self.postfix())
            elif tok[0] in ("atom", "("):
                parts.append(self.postfix())
            else:
                break
        term = parts[-1]
        for part in reversed(parts[:-1]):
            term = Concat(part, term)
        return term

    def postfix(self) -> KinTerm:
        term = self.primary()
        while (tok := self.peek()) is not None and tok[0] in ("^-1", "^+"):
            self.advance()
            term = Inverse(term) if tok[0] == "^-1" else Dual(term)
        return term

    def primary(self) -> KinTerm:
        tok = self.peek()
        if tok is None:
            raise KinTermError("unexpected end of input", self.length)
        kind, value, pos = tok
        if kind == "atom":
            self.advance()
            return Basic(value)  # type: ignore[arg-type]
        if kind == "(":
            self.advance()
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise KinTermError("term nested too deeply", pos)
            term = self.fork()
            closing = self.peek()
            if closing is None or closing[0] != ")":
                raise KinTermError("unbalanced parentheses: expected ')'", self.length if closing is None else closing[2])
            self.advance()
            self.depth -= 1
            return term
        raise KinTermError(f"unexpected {kind!r}", pos)


def parse_kin_term(src: str) -> KinTerm:
    """Parse kin-term notation into a term tree."""
    return _Parser(_lex(src), len(src)).parse()


def render(term: KinTerm) -> str:
    """Unambiguous text for a term; ``parse_kin_term(render(t)) == t``."""
    if isinstance(term, Basic):
        return term.atom.value
    if isinstance(term, Concat):
        return f"({render(term.left)} . {render(term.right)})"
    if isinstance(term, Fork):
        return f"({render(term.left)} | {render(term.right)})"
    if isinstance(term, Inverse):
        return f"{render(term.inner)}^-1"
    if isinstance(term, Dual):
        return f"{render(term.inner)}^+"
    raise TypeError(f"not a kin term: {term!r}")


# --- structural operations --------------------------------------------------


def push_dual(term: KinTerm) -> KinTerm:
    """Eliminate every dual node by swapping atom sexes at the leaves.

    Dual distributes over concatenation and fork, commutes with inverse,
    and two duals cancel.
    """
    return _push(term, False)


def _push(term: KinTerm, flip: bool) -> KinTerm:
    if isinstance(term, Basic):
        return Basic(term.atom.opposite) if flip else term
    if isinstance(term, Concat):
        return Concat(_push(term.left, flip), _push(term.right, flip))
    if isinstance(term, Fork):
        return Fork(_push(term.left, flip), _push(term.right, flip))
    if isinstance(term, Inverse):
        return Inverse(_push(term.inner, flip))
    if isinstance(term, Dual):
        return _push(term.inner, not flip)
    raise TypeError(f"not a kin term: {term!r}")


def concat_count(term: KinTerm) -> int:
    """Number of concatenation nodes; the size measure for reduction."""
    if isinstance(term, Basic):
        return 0
    if isinstance(term, Concat):
        return 1 + concat_count(term.left) + concat_count(term.right)
    if isinstance(term, Fork):
        return concat_count(term.left) + concat_count(term.right)
    if isinstance(term, (Inverse, Dual)):
        return concat_count(term.inner)
    raise TypeError(f"not a kin term: {term!r}")


def contains_dual(term: KinTerm) -> bool:
    return any(isinstance(t, Dual) for t in walk(term))


def contains_inverse(term: KinTerm) -> bool:
    return any(isinstance(t, Inverse) for t in walk(term))


def walk(term: KinTerm) -> Iterator[KinTerm]:
    """Yield every node of the term tree, preorder, from an explicit stack:
    each node is yielded once, however deep it lies."""
    stack = [term]
    pop, push = stack.pop, stack.append
    while stack:
        term = pop()
        yield term
        if isinstance(term, (Concat, Fork)):
            push(term.right)
            push(term.left)
        elif isinstance(term, (Inverse, Dual)):
            push(term.inner)


def spine(term: KinTerm) -> tuple[KinTerm, ...]:
    """Flatten nested concatenations into their left-to-right segments."""
    out: list[KinTerm] = []

    def visit(t: KinTerm) -> None:
        if isinstance(t, Concat):
            visit(t.left)
            visit(t.right)
        else:
            out.append(t)

    visit(term)
    return tuple(out)


def from_spine(segments: Sequence[KinTerm]) -> KinTerm:
    """Rebuild a term from spine segments (right-grouping)."""
    if not segments:
        raise ValueError("cannot build a term from zero segments")
    term = segments[-1]
    for seg in reversed(segments[:-1]):
        term = Concat(seg, term)
    return term


def canonical(term: KinTerm) -> KinTerm:
    """Normal form used for pattern matching: fork operands are flattened
    and sorted, concatenation chains are re-grouped to the right."""
    if isinstance(term, Basic):
        return term
    if isinstance(term, Concat):
        return from_spine([canonical(seg) for seg in spine(term)])
    if isinstance(term, Fork):
        operands: list[KinTerm] = []

        def collect(t: KinTerm) -> None:
            if isinstance(t, Fork):
                collect(t.left)
                collect(t.right)
            else:
                operands.append(canonical(t))

        collect(term)
        operands.sort(key=render)
        folded = operands[0]
        for op in operands[1:]:
            folded = Fork(folded, op)
        return folded
    if isinstance(term, Inverse):
        return Inverse(canonical(term.inner))
    if isinstance(term, Dual):
        return Dual(canonical(term.inner))
    raise TypeError(f"not a kin term: {term!r}")
