"""Set-valued semantics of kinship terms over a family tree.

Every term denotes a function on person sets.  An atom is the pointwise
union of its basic relation; concatenation is composition with the
right factor applied first; fork is union; inverse is the preimage
(adjoint) of the inner function; dual re-expresses the term with sexes
swapped, so ``eval_term`` removes every dual with ``push_dual`` first.
"""

from __future__ import annotations

from typing import Iterable

from .terms import Basic, Concat, Fork, Inverse, KinTerm, push_dual
from .tree import FamilyTree, related

PersonSet = frozenset[str]


def eval_term(tree: FamilyTree, term: KinTerm, people: Iterable[str]) -> PersonSet:
    """Apply the function denoted by ``term`` to a set of person ids."""
    tree.require_valid()
    input_set = frozenset(people)
    for pid in input_set:
        tree.person(pid)
    return _eval(tree, push_dual(term), input_set)


def _eval(tree: FamilyTree, term: KinTerm, people: PersonSet) -> PersonSet:
    if isinstance(term, Basic):
        return frozenset(related(tree, term.atom, people))
    if isinstance(term, Concat):
        return _eval(tree, term.left, _eval(tree, term.right, people))
    if isinstance(term, Fork):
        return _eval(tree, term.left, people) | _eval(tree, term.right, people)
    if isinstance(term, Inverse):
        inner = term.inner
        return frozenset(
            p.id
            for p in tree.persons
            if _eval(tree, inner, frozenset((p.id,))) & people
        )
    raise TypeError(f"not a kin term: {term!r}")
