"""Command-line front end.

    kisp [--tree PATH] [--ego ID] [--now DD.MM.YYYY] [--dict PATH] COMMAND ...

Commands: ``repl``, ``run SCRIPT``, ``eval EXPR``, ``term TERM PERSON``,
``reduce TERM``, ``validate``.  ``reduce`` needs no tree; every other
command requires ``--tree``.

Exit codes: 0 success; 1 usage (bad flags, unknown ego or person);
2 file read/parse errors (tree, script, dictionary); 3 the tree violates
the family constraints; 4 a KISP or kin-term evaluation error.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Optional

# Each command imports only what it runs: ``reduce`` loads no tree, ``term`` no interpreter.
if TYPE_CHECKING:
    from datetime import date

    from .interp import Interpreter
    from .tree import FamilyTree

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FILE = 2
EXIT_INVALID_TREE = 3
EXIT_EVAL = 4

PROMPT = "kisp> "
CONTINUATION = "....> "


class _Parser(argparse.ArgumentParser):
    """argparse's usage failures exit with our usage code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _now_flag(text: str) -> date:
    from .temporal import parse_date

    try:
        return parse_date(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kisp",
        description="Genealogical queries over a family tree: KISP programs, "
        "kin-term evaluation, and kin-term reduction.",
    )
    parser.add_argument("--tree", metavar="PATH", help="family tree file (JSON)")
    parser.add_argument("--ego", metavar="ID", help="person id bound to 'ego'")
    parser.add_argument(
        "--now",
        metavar="DD.MM.YYYY",
        type=_now_flag,
        help="fix the current date (defaults to today)",
    )
    parser.add_argument(
        "--dict", metavar="PATH", help="reduction dictionary (default: built-in)"
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    commands.add_parser("repl", help="interactive session")
    run_cmd = commands.add_parser("run", help="run a KISP script file")
    run_cmd.add_argument("script", metavar="SCRIPT")
    eval_cmd = commands.add_parser("eval", help="evaluate one KISP program string")
    eval_cmd.add_argument("expr", metavar="EXPR")
    term_cmd = commands.add_parser(
        "term", help="apply a kin term to a person, print the matching ids"
    )
    term_cmd.add_argument("term", metavar="TERM")
    term_cmd.add_argument("person", metavar="PERSON")
    reduce_cmd = commands.add_parser(
        "reduce", help="reduce a kin term to English kin words"
    )
    reduce_cmd.add_argument("term", metavar="TERM")
    commands.add_parser("validate", help="check the tree constraints")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    if args.command == "reduce":
        return _cmd_reduce(args)

    if not args.tree:
        print(f"kisp: the '{args.command}' command requires --tree", file=sys.stderr)
        return EXIT_USAGE
    from .tree import StructuralError, UnknownPersonError, load_tree

    try:
        tree = load_tree(args.tree)
    except StructuralError as exc:
        print(f"kisp: {exc}", file=sys.stderr)
        return EXIT_FILE

    if args.command == "validate":
        for violation in tree.violations:
            print(violation)
        return EXIT_INVALID_TREE if tree.violations else EXIT_OK

    if not tree.is_valid:
        for violation in tree.violations:
            print(f"kisp: {violation}", file=sys.stderr)
        return EXIT_INVALID_TREE

    if args.command == "term":
        return _cmd_term(args, tree)

    from .interp import Interpreter
    from .temporal import Timeline

    timeline = Timeline(args.now) if args.now else Timeline.today()
    try:
        interp = Interpreter(tree, timeline, ego=args.ego)
    except UnknownPersonError as exc:
        print(f"kisp: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "eval":
        return _run_source(interp, args.expr)
    if args.command == "run":
        try:
            with open(args.script, encoding="utf-8") as fh:
                source = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            print(f"kisp: cannot read script: {exc}", file=sys.stderr)
            return EXIT_FILE
        return _run_source(interp, source)
    return _repl(interp)


def _cmd_reduce(args: argparse.Namespace) -> int:
    from .reduction import DictionaryError, ReductionDictionary, ReductionError, shorten
    from .terms import KinTermError, parse_kin_term

    try:
        if args.dict:
            dictionary = ReductionDictionary.load(args.dict)
        else:
            dictionary = ReductionDictionary.standard()
    except DictionaryError as exc:
        print(f"kisp: {exc}", file=sys.stderr)
        return EXIT_FILE
    try:
        reduced = shorten(dictionary, parse_kin_term(args.term))
    except (KinTermError, ReductionError) as exc:
        print(f"kisp: {exc}", file=sys.stderr)
        return EXIT_EVAL
    print(reduced)
    return EXIT_OK


def _cmd_term(args: argparse.Namespace, tree: FamilyTree) -> int:
    from .semantics import eval_term
    from .terms import TOO_LONG, KinTermError, parse_kin_term
    from .tree import UnknownPersonError

    try:
        term = parse_kin_term(args.term)
    except KinTermError as exc:
        print(f"kisp: {exc}", file=sys.stderr)
        return EXIT_EVAL
    try:
        tree.person(args.person)
    except UnknownPersonError as exc:
        print(f"kisp: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = eval_term(tree, term, (args.person,))
    except RecursionError:  # the term operations recurse once per node
        print(f"kisp: {TOO_LONG}", file=sys.stderr)
        return EXIT_EVAL
    for pid in sorted(result):
        print(pid)
    return EXIT_OK


def _run_source(interp: Interpreter, source: str, repl: bool = False) -> int:
    """Print the program's output line by line.  A parse error prints
    nothing; an evaluation error leaves the values before it printed."""
    from .interp import KispError

    try:
        for line in interp.output(source, repl):
            print(line, flush=True)
    except KispError as exc:
        print(f"kisp: {exc}", file=sys.stderr)
        return EXIT_EVAL
    return EXIT_OK


def _balanced(text: str) -> bool:
    """True when every paren outside a string literal is closed."""
    depth = 0
    in_string = False
    for ch in text:
        if in_string:
            if ch == "'" or ch == "\n":
                in_string = False
        elif ch == "'":
            in_string = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
    return depth == 0


def _repl(interp: Interpreter) -> int:
    buffer = ""
    while True:
        prompt = CONTINUATION if buffer else PROMPT
        try:
            line = input(prompt)
        except EOFError:
            print()
            return EXIT_OK
        except KeyboardInterrupt:
            print()
            buffer = ""
            continue
        buffer = f"{buffer}\n{line}" if buffer else line
        if not buffer.strip() or not _balanced(buffer):
            continue
        source, buffer = buffer, ""
        _run_source(interp, source, repl=True)


if __name__ == "__main__":
    sys.exit(main())
