"""kisp — a genealogical query language.

A validated family-tree model, a kinship-term algebra with set-valued
semantics, greedy reduction of kin terms to English words, point-based
temporal predicates, and a small LISP-dialect interpreter with a REPL.

Each public name is imported from its module on first use, so
``import kisp`` loads no submodule.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "interp": ("Interpreter", "KispError", "format_value", "parse_program"),
    "reduction": ("ReducedTerm", "ReductionDictionary", "expand", "optimal_shorten",
                  "remaining_concats", "shorten"),
    "semantics": ("eval_term",),
    "temporal": ("Timeline", "format_date", "parse_date"),
    "terms": ("Atom", "KinTerm", "KinTermError", "concat_count", "parse_kin_term",
              "push_dual", "render"),
    "tree": ("ConstraintViolation", "FamilyTree", "InvalidTreeError", "Person", "Sex",
             "StructuralError", "UnknownPersonError", "basic_kin", "load_tree",
             "validate_tree"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_HOME[name]), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
