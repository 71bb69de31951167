"""The frozen record classes built by ``terms.record``: construction,
equality and hashing by exact class, ``repr`` text, and immutability."""

from datetime import date

import pytest

from kisp.interp import (
    Application,
    Builtin,
    Closure,
    Define,
    If,
    Lambda,
    Literal,
    PersonRef,
    Reference,
    ShortCircuit,
    Token,
)
from kisp.reduction import ReducedTerm
from kisp.temporal import Timeline
from kisp.terms import Atom, Basic, Concat, Dual, Fork, Inverse
from kisp.tree import ConstraintViolation, MaritalBond, ParentalBond, Person, Sex

SON = Basic(Atom.SON)
FATHER = Basic(Atom.FATHER)
X = Reference("x", 1, 2)

REPRS = [
    (SON, "Basic(atom=<Atom.SON: 'son'>)"),
    (Concat(SON, FATHER),
     "Concat(left=Basic(atom=<Atom.SON: 'son'>), right=Basic(atom=<Atom.FATHER: 'father'>))"),
    (Fork(SON, SON), "Fork(left=Basic(atom=<Atom.SON: 'son'>), right=Basic(atom=<Atom.SON: 'son'>))"),
    (Inverse(SON), "Inverse(inner=Basic(atom=<Atom.SON: 'son'>))"),
    (Dual(SON), "Dual(inner=Basic(atom=<Atom.SON: 'son'>))"),
    (Person("eli", "Eli", Sex.MALE, date(1990, 1, 2)),
     "Person(id='eli', name='Eli', sex=<Sex.MALE: 'MALE'>, "
     "birthdate=datetime.date(1990, 1, 2), birthplace=None)"),
    (Person("a", "A", Sex.FEMALE, date(1, 2, 3), "Rome"),
     "Person(id='a', name='A', sex=<Sex.FEMALE: 'FEMALE'>, "
     "birthdate=datetime.date(1, 2, 3), birthplace='Rome')"),
    (ParentalBond("a", "b"), "ParentalBond(parent='a', child='b')"),
    (MaritalBond("a", "b", date(2000, 1, 1)),
     "MaritalBond(a='a', b='b', wedding=datetime.date(2000, 1, 1))"),
    (ConstraintViolation("C2", "too many parents", ("a", "b")),
     "ConstraintViolation(constraint='C2', message='too many parents', person_ids=('a', 'b'))"),
    (Timeline(date(2020, 5, 6)), "Timeline(now=datetime.date(2020, 5, 6))"),
    (ReducedTerm(("brother", SON)),
     "ReducedTerm(segments=('brother', Basic(atom=<Atom.SON: 'son'>)))"),
    (Token("name", "x", 1, 2), "Token(kind='name', value='x', line=1, col=2)"),
    (Literal(3, 1, 1), "Literal(value=3, line=1, col=1)"),
    (X, "Reference(name='x', line=1, col=2)"),
    (Lambda(("x",), X, 1, 1),
     "Lambda(params=('x',), body=Reference(name='x', line=1, col=2), line=1, col=1)"),
    (Define("f", Literal("s", 1, 11), 1, 1),
     "Define(name='f', value=Literal(value='s', line=1, col=11), line=1, col=1)"),
    (If(Literal(True, 1, 5), Literal(1, 1, 10), Literal(2, 1, 12), 1, 1),
     "If(cond=Literal(value=True, line=1, col=5), then=Literal(value=1, line=1, col=10), "
     "otherwise=Literal(value=2, line=1, col=12), line=1, col=1)"),
    (ShortCircuit("and", (Literal(True, 1, 6),), 1, 1),
     "ShortCircuit(op='and', operands=(Literal(value=True, line=1, col=6),), line=1, col=1)"),
    (Application(X, (Literal(1, 1, 6),), 1, 1),
     "Application(head=Reference(name='x', line=1, col=2), "
     "args=(Literal(value=1, line=1, col=6),), line=1, col=1)"),
    (PersonRef("eli"), "PersonRef(id='eli')"),
    (Closure(("x",), X, (1,), code=len),
     "Closure(params=('x',), body=Reference(name='x', line=1, col=2), env=(1,))"),
    (Builtin("inc", 1, 1, len), "Builtin(name='inc', min_args=1, max_args=1, fn=<built-in function len>)"),
]


@pytest.mark.parametrize("value, text", REPRS, ids=[type(v).__name__ for v, _ in REPRS])
def test_repr_text(value, text):
    assert repr(value) == text


def test_positional_and_keyword_construction_and_defaults():
    born = date(1990, 1, 2)
    person = Person("eli", "Eli", Sex.MALE, born)
    assert person == Person(id="eli", name="Eli", sex=Sex.MALE, birthdate=born)
    assert person.birthplace is None
    assert Person("eli", "Eli", Sex.MALE, born, birthplace="Rome").birthplace == "Rome"
    assert Concat(right=FATHER, left=SON) == Concat(SON, FATHER)
    assert Closure(("x",), X, ()).code is None
    with pytest.raises(TypeError):
        Person("eli", "Eli", Sex.MALE)
    with pytest.raises(TypeError):
        Concat(SON, FATHER, SON)
    with pytest.raises(TypeError):
        Basic(atom=Atom.SON, sex=Sex.MALE)


def test_equality_and_hash_go_by_exact_class_and_fields():
    assert Concat(SON, FATHER) == Concat(SON, FATHER)
    assert hash(Concat(SON, FATHER)) == hash(Concat(SON, FATHER))
    assert Concat(SON, FATHER) != Concat(FATHER, SON)
    assert Concat(SON, FATHER) != Fork(SON, FATHER)
    assert Inverse(SON) != Dual(SON)
    assert Literal("x", 1, 2) != X
    assert Basic(Atom.SON) != (Atom.SON,)
    assert len({Concat(SON, FATHER), Concat(SON, FATHER), Fork(SON, FATHER)}) == 2


def test_closure_equality_and_hash_ignore_code():
    made = Closure(("x",), X, (1,), code=len)
    assert made == Closure(("x",), X, (1,), code=abs) == Closure(("x",), X, (1,))
    assert hash(made) == hash(Closure(("x",), X, (1,)))
    assert made != Closure(("x",), X, (2,), code=len)


def test_records_are_frozen():
    term = Concat(SON, FATHER)
    with pytest.raises(AttributeError, match="cannot assign to field 'left'"):
        term.left = FATHER
    with pytest.raises(AttributeError, match="cannot assign to field 'other'"):
        term.other = FATHER
    with pytest.raises(AttributeError, match="cannot delete field 'right'"):
        del term.right
    assert term == Concat(SON, FATHER)

