"""Family trees: persons, parental/marital bonds, and the six
traditional-family-tree constraints.

A tree is structurally checked at construction (ids resolve, no
duplicate persons or bonds) and then validated against the constraints:

    C1  any finite number of children
    C2  at most two parents; if two, of different sexes
    C3  at most one spouse, of different sex
    C4  a spouse is not a parent, child, or sibling
    C5  wedding strictly after both spouses' birthdates
    C6  each parent born strictly before every child

An invalid tree stays inspectable (``violations``) but refuses kinship
queries until it is valid.
"""

from __future__ import annotations

import enum
import json
from datetime import date
from typing import Iterable, Optional, Union

from .temporal import parse_date
from .terms import Atom, record


class Sex(enum.Enum):
    MALE = "MALE"
    FEMALE = "FEMALE"

    def __str__(self) -> str:
        return self.value


@record
class Person:
    id: str
    name: str
    sex: Sex
    birthdate: date
    birthplace: Optional[str] = None


@record
class ParentalBond:
    parent: str
    child: str


@record
class MaritalBond:
    a: str
    b: str
    wedding: date


@record
class ConstraintViolation:
    constraint: str  # "C1".."C6"
    message: str
    person_ids: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.constraint}: {self.message}"


class TreeError(Exception):
    """Base class for family-tree errors."""


class StructuralError(TreeError):
    """Malformed tree data: dangling ids, duplicates, bad fields."""


class UnknownPersonError(TreeError):
    """A query referenced a person id absent from the tree."""


class InvalidTreeError(TreeError):
    """A kinship query was attempted on a constraint-violating tree."""

    def __init__(self, violations: tuple[ConstraintViolation, ...]):
        lines = "; ".join(str(v) for v in violations)
        super().__init__(f"tree violates family constraints: {lines}")
        self.violations = violations


class FamilyTree:
    """Immutable genealogy over person ids.

    ``persons`` preserves input order, which fixes the order of every
    person list the interpreter produces.
    """

    def __init__(
        self,
        persons: Iterable[Person],
        parental_bonds: Iterable[ParentalBond] = (),
        marital_bonds: Iterable[MaritalBond] = (),
    ):
        self._persons: dict[str, Person] = {}
        for person in persons:
            if person.id in self._persons:
                raise StructuralError(f"duplicate person id {person.id!r}")
            self._persons[person.id] = person

        self._parental: tuple[ParentalBond, ...] = tuple(parental_bonds)
        self._marital: tuple[MaritalBond, ...] = tuple(marital_bonds)
        self._order = {pid: i for i, pid in enumerate(self._persons)}

        # Adjacency in bond order; each bond is checked as it is appended, and
        # a repeated bond is already in its person's list.
        self._parents: dict[str, list[str]] = {pid: [] for pid in self._persons}
        self._children: dict[str, list[str]] = {pid: [] for pid in self._persons}
        for bond in self._parental:
            parent, child = bond.parent, bond.child
            for pid in (parent, child):
                if pid not in self._persons:
                    raise StructuralError(f"parental bond references unknown person {pid!r}")
            if parent == child:
                raise StructuralError(f"person {parent!r} cannot be their own parent")
            if parent in self._parents[child]:
                raise StructuralError(f"duplicate parental bond {parent!r} -> {child!r}")
            self._parents[child].append(parent)
            self._children[parent].append(child)
        self._spouses: dict[str, list[str]] = {pid: [] for pid in self._persons}
        for mbond in self._marital:
            a, b = mbond.a, mbond.b
            for pid in (a, b):
                if pid not in self._persons:
                    raise StructuralError(f"marital bond references unknown person {pid!r}")
            if a == b:
                raise StructuralError(f"person {a!r} cannot marry themselves")
            if b in self._spouses[a]:
                raise StructuralError(f"duplicate marital bond between {a!r} and {b!r}")
            self._spouses[a].append(b)
            self._spouses[b].append(a)

        self._violations = tuple(self._check_constraints())

    # --- accessors ---------------------------------------------------------

    @property
    def persons(self) -> tuple[Person, ...]:
        return tuple(self._persons.values())

    @property
    def parental_bonds(self) -> tuple[ParentalBond, ...]:
        return self._parental

    @property
    def marital_bonds(self) -> tuple[MaritalBond, ...]:
        return self._marital

    @property
    def violations(self) -> tuple[ConstraintViolation, ...]:
        return self._violations

    @property
    def is_valid(self) -> bool:
        return not self._violations

    def __contains__(self, person_id: str) -> bool:
        return person_id in self._persons

    def person(self, person_id: str) -> Person:
        try:
            return self._persons[person_id]
        except KeyError:
            raise UnknownPersonError(f"unknown person {person_id!r}") from None

    def index_of(self, person_id: str) -> int:
        """Position of the person in input order; sorts query results."""
        self.person(person_id)
        return self._order[person_id]

    def parents_of(self, person_id: str) -> tuple[str, ...]:
        self.person(person_id)
        return tuple(self._parents[person_id])

    def children_of(self, person_id: str) -> tuple[str, ...]:
        self.person(person_id)
        return tuple(self._children[person_id])

    def spouses_of(self, person_id: str) -> tuple[str, ...]:
        self.person(person_id)
        return tuple(self._spouses[person_id])

    def siblings_of(self, person_id: str) -> tuple[str, ...]:
        """Persons sharing at least one parent, excluding the person."""
        self.person(person_id)
        out: list[str] = []
        for parent in self._parents[person_id]:
            for child in self._children[parent]:
                if child != person_id and child not in out:
                    out.append(child)
        return tuple(out)

    def require_valid(self) -> None:
        if self._violations:
            raise InvalidTreeError(self._violations)

    # --- constraint validation ----------------------------------------------

    def _check_constraints(self) -> Iterable[ConstraintViolation]:
        # C1 needs no check: children lists are finite by construction.
        for pid in self._persons:
            parents = self._parents[pid]
            if len(parents) > 2:
                yield ConstraintViolation(
                    "C2", f"{pid} has {len(parents)} parents", (pid, *parents)
                )
            elif len(parents) == 2:
                a, b = (self._persons[p] for p in parents)
                if a.sex == b.sex:
                    yield ConstraintViolation(
                        "C2", f"{pid} has two {a.sex.value.lower()} parents", (pid, a.id, b.id)
                    )

        for pid in self._persons:
            spouses = self._spouses[pid]
            if len(spouses) > 1:
                yield ConstraintViolation(
                    "C3", f"{pid} has {len(spouses)} spouses", (pid, *spouses)
                )
        for mbond in self._marital:
            a, b = self._persons[mbond.a], self._persons[mbond.b]
            if a.sex == b.sex:
                yield ConstraintViolation(
                    "C3", f"spouses {a.id} and {b.id} have the same sex", (a.id, b.id)
                )

        for mbond in self._marital:
            a, b = mbond.a, mbond.b
            if b in self._parents[a] or a in self._parents[b]:
                yield ConstraintViolation(
                    "C4", f"spouses {a} and {b} are parent and child", (a, b)
                )
            elif set(self._parents[a]) & set(self._parents[b]):
                yield ConstraintViolation(
                    "C4", f"spouses {a} and {b} are siblings", (a, b)
                )

        for mbond in self._marital:
            for pid in (mbond.a, mbond.b):
                if mbond.wedding <= self._persons[pid].birthdate:
                    yield ConstraintViolation(
                        "C5",
                        f"wedding of {mbond.a} and {mbond.b} is not after {pid}'s birth",
                        (mbond.a, mbond.b),
                    )

        for bond in self._parental:
            parent = self._persons[bond.parent]
            child = self._persons[bond.child]
            if parent.birthdate >= child.birthdate:
                yield ConstraintViolation(
                    "C6",
                    f"parent {parent.id} not born strictly before child {child.id}",
                    (parent.id, child.id),
                )


def validate_tree(tree: FamilyTree) -> list[ConstraintViolation]:
    """All constraint violations; empty iff the tree is a valid family tree."""
    return list(tree.violations)


# Each basic kinship atom follows one adjacency of ``FamilyTree`` and keeps
# the related persons of one sex; the KISP accessors "children" and
# "spouse", which are not atoms, keep all of them.
RELATIONS: dict[Union[Atom, str], tuple[str, Optional[Sex]]] = {
    Atom.FATHER: ("_parents", Sex.MALE),
    Atom.MOTHER: ("_parents", Sex.FEMALE),
    Atom.SON: ("_children", Sex.MALE),
    Atom.DAUGHTER: ("_children", Sex.FEMALE),
    Atom.HUSBAND: ("_spouses", Sex.MALE),
    Atom.WIFE: ("_spouses", Sex.FEMALE),
    "children": ("_children", None),
    "spouse": ("_spouses", None),
}


def related(tree: FamilyTree, relation: Union[Atom, str], person_ids: Iterable[str]) -> list[str]:
    """``basic_kin`` without its checks, for callers that made them: whom a key
    of ``RELATIONS`` relates to each of ``person_ids``, repeats kept."""
    adjacency, sex = RELATIONS[relation]
    persons, table = tree._persons, getattr(tree, adjacency)
    # Plain loops: on Python 3.11 a comprehension's frame costs more.
    found = []
    for person_id in person_ids:
        for pid in table[person_id]:
            if sex is None or persons[pid].sex is sex:
                found.append(pid)
    return found


def basic_kin(tree: FamilyTree, atom: Atom, person_id: str) -> frozenset[str]:
    """The person set named by one basic kinship atom, relative to a person.

    father/mother/husband/wife yield at most one person; son/daughter
    filter the children by the *result* person's sex.
    """
    tree.require_valid()
    tree.person(person_id)
    if not isinstance(atom, Atom):
        raise ValueError(f"unknown kinship atom {atom!r}")
    return frozenset(related(tree, atom, (person_id,)))


# --- tree file format --------------------------------------------------------


def from_data(data: object) -> FamilyTree:
    """Build a tree from parsed JSON; raises StructuralError on bad shape."""
    if not isinstance(data, dict):
        raise StructuralError("tree document must be an object")
    persons_raw = data.get("persons")
    if not isinstance(persons_raw, list):
        raise StructuralError("tree document needs a 'persons' array")
    bonds_raw = data.get("bonds", [])
    if not isinstance(bonds_raw, list):
        raise StructuralError("'bonds' must be an array")

    persons = [_parse_person(entry) for entry in persons_raw]
    parental: list[ParentalBond] = []
    marital: list[MaritalBond] = []
    for entry in bonds_raw:
        if not isinstance(entry, dict):
            raise StructuralError("each bond must be an object")
        kind = entry.get("type")
        if kind == "parental":
            parental.append(
                ParentalBond(
                    _require_str(entry, "parent", "parental bond"),
                    _require_str(entry, "child", "parental bond"),
                )
            )
        elif kind == "marital":
            marital.append(
                MaritalBond(
                    _require_str(entry, "a", "marital bond"),
                    _require_str(entry, "b", "marital bond"),
                    _parse_bond_date(entry, "wedding"),
                )
            )
        else:
            raise StructuralError(f"unknown bond type {kind!r}")
    return FamilyTree(persons, parental, marital)


def load_tree(path: str) -> FamilyTree:
    """Read a tree file (JSON) from disk."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise StructuralError(f"cannot read tree file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StructuralError(f"tree file is not valid JSON: {exc}") from exc
    except RecursionError:
        raise StructuralError("tree file is nested too deeply") from None
    return from_data(data)


def _parse_person(entry: object) -> Person:
    if not isinstance(entry, dict):
        raise StructuralError("each person must be an object")
    pid = _require_str(entry, "id", "person")
    label = f"person {pid!r}"
    name = _require_str(entry, "name", label)
    sex_text = _require_str(entry, "sex", label)
    try:
        sex = Sex(sex_text)
    except ValueError:
        raise StructuralError(
            f"{label}: sex must be 'MALE' or 'FEMALE', got {sex_text!r}"
        ) from None
    birth_text = _require_str(entry, "birthdate", label)
    try:
        birth = parse_date(birth_text)
    except ValueError as exc:
        raise StructuralError(f"{label}: {exc}") from None
    birthplace = entry.get("birthplace")
    if birthplace is not None and not isinstance(birthplace, str):
        raise StructuralError(f"{label}: birthplace must be text")
    return Person(pid, name, sex, birth, birthplace)


def _require_str(entry: dict, key: str, what: str) -> str:
    value = entry.get(key)
    if not isinstance(value, str):
        raise StructuralError(f"{what} needs a text field {key!r}")
    return value


def _parse_bond_date(entry: dict, key: str) -> date:
    text = _require_str(entry, key, "marital bond")
    try:
        return parse_date(text)
    except ValueError as exc:
        raise StructuralError(f"marital bond: {exc}") from None
