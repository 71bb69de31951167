import pytest

from kisp.terms import Atom
from kisp.tree import (
    FamilyTree,
    InvalidTreeError,
    MaritalBond,
    ParentalBond,
    Person,
    Sex,
    StructuralError,
    UnknownPersonError,
    basic_kin,
    from_data,
    load_tree,
    validate_tree,
)
from kisp.temporal import parse_date


def person(pid, sex, birth, name=None):
    return Person(pid, name or pid.title(), Sex(sex), parse_date(birth))


# --- structural checks -------------------------------------------------------


def test_duplicate_person_id_rejected():
    with pytest.raises(StructuralError):
        FamilyTree([person("a", "MALE", "01.01.1950"), person("a", "MALE", "02.01.1950")])


def test_dangling_bond_rejected():
    with pytest.raises(StructuralError):
        FamilyTree([person("a", "MALE", "01.01.1950")], [ParentalBond("a", "ghost")])


def test_self_parenting_rejected():
    with pytest.raises(StructuralError):
        FamilyTree([person("a", "MALE", "01.01.1950")], [ParentalBond("a", "a")])


def test_duplicate_parental_bond_rejected():
    people = [person("a", "MALE", "01.01.1950"), person("b", "MALE", "01.01.1980")]
    with pytest.raises(StructuralError):
        FamilyTree(people, [ParentalBond("a", "b"), ParentalBond("a", "b")])


def test_self_marriage_rejected():
    with pytest.raises(StructuralError):
        FamilyTree(
            [person("a", "MALE", "01.01.1950")],
            marital_bonds=[MaritalBond("a", "a", parse_date("01.01.1990"))],
        )


def test_duplicate_marital_bond_rejected_either_order():
    people = [person("a", "MALE", "01.01.1950"), person("b", "FEMALE", "01.01.1952")]
    with pytest.raises(StructuralError):
        FamilyTree(
            people,
            marital_bonds=[
                MaritalBond("a", "b", parse_date("01.01.1990")),
                MaritalBond("b", "a", parse_date("01.01.1991")),
            ],
        )


# --- file format --------------------------------------------------------------


def test_load_smith(smith_tree):
    assert smith_tree.is_valid
    assert [p.id for p in smith_tree.persons] == [
        "adam", "eve", "bob", "dana", "carl", "eli", "fay", "hank",
    ]
    assert smith_tree.person("carl").birthplace is None
    assert smith_tree.person("adam").birthplace == "Springfield"


def test_from_data_rejects_bad_shapes():
    with pytest.raises(StructuralError):
        from_data([])
    with pytest.raises(StructuralError):
        from_data({})
    with pytest.raises(StructuralError):
        from_data({"persons": [{"id": "a"}]})
    with pytest.raises(StructuralError):
        from_data({"persons": [], "bonds": [{"type": "weird"}]})
    with pytest.raises(StructuralError):
        from_data(
            {"persons": [{"id": "a", "name": "A", "sex": "OTHER", "birthdate": "01.01.1950"}]}
        )
    with pytest.raises(StructuralError):
        from_data(
            {"persons": [{"id": "a", "name": "A", "sex": "MALE", "birthdate": "1950-01-01"}]}
        )


def test_load_tree_missing_file(tmp_path):
    with pytest.raises(StructuralError):
        load_tree(str(tmp_path / "nope.tree"))


def test_load_tree_bad_json(tmp_path):
    path = tmp_path / "broken.tree"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(StructuralError):
        load_tree(str(path))


# --- constraint validation -----------------------------------------------------


def test_single_person_tree_has_no_violations():
    tree = FamilyTree([person("solo", "MALE", "01.01.1950")])
    assert validate_tree(tree) == []
    assert tree.is_valid


def test_three_or_more_parents_flagged():
    tree = FamilyTree(
        [
            person("p1", "MALE", "01.01.1940"),
            person("p2", "FEMALE", "01.01.1941"),
            person("p3", "MALE", "01.01.1942"),
            person("kid", "MALE", "01.01.1970"),
        ],
        [ParentalBond("p1", "kid"), ParentalBond("p2", "kid"), ParentalBond("p3", "kid")],
    )
    assert [v.constraint for v in tree.violations] == ["C2"]
    assert "kid" in tree.violations[0].person_ids


def test_two_same_sex_parents_flagged():
    tree = FamilyTree(
        [
            person("p1", "MALE", "01.01.1940"),
            person("p2", "MALE", "01.01.1941"),
            person("kid", "MALE", "01.01.1970"),
        ],
        [ParentalBond("p1", "kid"), ParentalBond("p2", "kid")],
    )
    assert [v.constraint for v in tree.violations] == ["C2"]


def test_second_spouse_flagged():
    tree = FamilyTree(
        [
            person("a", "MALE", "01.01.1940"),
            person("b", "FEMALE", "01.01.1941"),
            person("c", "FEMALE", "01.01.1942"),
        ],
        marital_bonds=[
            MaritalBond("a", "b", parse_date("01.01.1980")),
            MaritalBond("a", "c", parse_date("01.01.1985")),
        ],
    )
    assert "C3" in {v.constraint for v in tree.violations}


def test_same_sex_marriage_flagged():
    tree = FamilyTree(
        [person("a", "MALE", "01.01.1940"), person("b", "MALE", "01.01.1941")],
        marital_bonds=[MaritalBond("a", "b", parse_date("01.01.1980"))],
    )
    assert [v.constraint for v in tree.violations] == ["C3"]


def test_sibling_marriage_flagged_with_both_ids():
    tree = FamilyTree(
        [
            person("pa", "MALE", "01.01.1940"),
            person("x", "MALE", "01.01.1965"),
            person("y", "FEMALE", "01.01.1967"),
        ],
        [ParentalBond("pa", "x"), ParentalBond("pa", "y")],
        [MaritalBond("x", "y", parse_date("01.01.1990"))],
    )
    c4 = [v for v in tree.violations if v.constraint == "C4"]
    assert len(c4) == 1
    assert set(c4[0].person_ids) == {"x", "y"}


def test_parent_child_marriage_flagged():
    tree = FamilyTree(
        [person("pa", "MALE", "01.01.1940"), person("kid", "FEMALE", "01.01.1965")],
        [ParentalBond("pa", "kid")],
        [MaritalBond("pa", "kid", parse_date("01.01.1990"))],
    )
    assert "C4" in {v.constraint for v in tree.violations}


def test_wedding_before_birth_flagged():
    tree = FamilyTree(
        [person("a", "MALE", "01.01.1940"), person("b", "FEMALE", "01.01.1972")],
        marital_bonds=[MaritalBond("a", "b", parse_date("01.01.1970"))],
    )
    assert "C5" in {v.constraint for v in tree.violations}


def test_wedding_on_birthdate_flagged():
    tree = FamilyTree(
        [person("a", "MALE", "01.01.1940"), person("b", "FEMALE", "01.01.1970")],
        marital_bonds=[MaritalBond("a", "b", parse_date("01.01.1970"))],
    )
    assert "C5" in {v.constraint for v in tree.violations}


def test_parent_younger_than_child_flagged():
    tree = FamilyTree(
        [person("kid", "MALE", "01.01.1950"), person("pa", "MALE", "01.01.1960")],
        [ParentalBond("pa", "kid")],
    )
    assert [v.constraint for v in tree.violations] == ["C6"]
    assert tree.violations[0].person_ids == ("pa", "kid")


def test_invalid_tree_is_inspectable_but_not_queryable():
    tree = FamilyTree(
        [person("kid", "MALE", "01.01.1950"), person("pa", "MALE", "01.01.1960")],
        [ParentalBond("pa", "kid")],
    )
    assert tree.parents_of("kid") == ("pa",)  # inspection still works
    with pytest.raises(InvalidTreeError) as exc:
        basic_kin(tree, Atom.FATHER, "kid")
    assert exc.value.violations == tree.violations


# --- basic kin ------------------------------------------------------------------


def test_basic_kin_examples(smith_tree):
    assert basic_kin(smith_tree, Atom.FATHER, "eli") == {"bob"}
    assert basic_kin(smith_tree, Atom.WIFE, "eve") == frozenset()
    assert basic_kin(smith_tree, Atom.WIFE, "adam") == {"eve"}
    assert basic_kin(smith_tree, Atom.HUSBAND, "eve") == {"adam"}
    assert basic_kin(smith_tree, Atom.SON, "adam") == {"bob", "carl"}
    assert basic_kin(smith_tree, Atom.DAUGHTER, "adam") == frozenset()
    assert basic_kin(smith_tree, Atom.DAUGHTER, "dana") == {"fay"}


def test_basic_kin_single_person_tree():
    tree = FamilyTree([person("solo", "MALE", "01.01.1950")])
    for atom in Atom:
        assert basic_kin(tree, atom, "solo") == frozenset()


def test_basic_kin_unknown_person(smith_tree):
    with pytest.raises(UnknownPersonError):
        basic_kin(smith_tree, Atom.FATHER, "ghost")


def test_cardinality_and_symmetry_invariants(smith_tree):
    ids = [p.id for p in smith_tree.persons]
    for pid in ids:
        assert len(basic_kin(smith_tree, Atom.FATHER, pid)) <= 1
        assert len(basic_kin(smith_tree, Atom.MOTHER, pid)) <= 1
        assert len(smith_tree.spouses_of(pid)) <= 1
        for q in smith_tree.spouses_of(pid):
            assert pid in smith_tree.spouses_of(q)
        for q in smith_tree.children_of(pid):
            fathers = basic_kin(smith_tree, Atom.FATHER, q)
            mothers = basic_kin(smith_tree, Atom.MOTHER, q)
            assert pid in (fathers | mothers)


def test_children_split_by_sex_exactly(smith_tree):
    for p in smith_tree.persons:
        sons = basic_kin(smith_tree, Atom.SON, p.id)
        daughters = basic_kin(smith_tree, Atom.DAUGHTER, p.id)
        assert sons | daughters == set(smith_tree.children_of(p.id))
        assert not sons & daughters


def test_siblings_of(smith_tree):
    assert set(smith_tree.siblings_of("eli")) == {"fay"}
    assert set(smith_tree.siblings_of("bob")) == {"carl"}
    assert smith_tree.siblings_of("adam") == ()


def test_structural_error_messages_and_precedence():
    a, b = person("a", "MALE", "01.01.1950"), person("b", "FEMALE", "01.01.1952")
    wed = parse_date("01.01.1990")
    cases = [
        (([a, a], [], []), "duplicate person id 'a'"),
        (([a], [ParentalBond("a", "ghost")], []),
         "parental bond references unknown person 'ghost'"),
        (([a], [], [MaritalBond("ghost", "a", wed)]),
         "marital bond references unknown person 'ghost'"),
        (([a], [ParentalBond("a", "a")], []), "person 'a' cannot be their own parent"),
        (([a], [], [MaritalBond("a", "a", wed)]), "person 'a' cannot marry themselves"),
        (([a, b], [ParentalBond("a", "b"), ParentalBond("a", "b")], []),
         "duplicate parental bond 'a' -> 'b'"),
        (([a, b], [], [MaritalBond("a", "b", wed), MaritalBond("a", "b", wed)]),
         "duplicate marital bond between 'a' and 'b'"),
        (([a, b], [], [MaritalBond("a", "b", wed), MaritalBond("b", "a", wed)]),
         "duplicate marital bond between 'b' and 'a'"),
        # precedence: persons, then every parental bond, then marital bonds;
        # within a bond, unknown ids, then a self-bond, then a repeat
        (([a, a], [ParentalBond("a", "ghost")], []), "duplicate person id 'a'"),
        (([a], [ParentalBond("ghost", "ghost")], []),
         "parental bond references unknown person 'ghost'"),
        (([a, b], [ParentalBond("a", "b"), ParentalBond("b", "b")],
          [MaritalBond("a", "ghost", wed)]),
         "person 'b' cannot be their own parent"),
        (([a, b], [ParentalBond("a", "b"), ParentalBond("a", "b"), ParentalBond("a", "x")], []),
         "duplicate parental bond 'a' -> 'b'"),
    ]
    for (persons, parental, marital), message in cases:
        with pytest.raises(StructuralError) as caught:
            FamilyTree(persons, parental, marital)
        assert str(caught.value) == message
