import random

import pytest

from kisp.semantics import eval_term
from kisp.terms import Concat, Dual, Fork, Inverse, parse_kin_term, push_dual
from kisp.tree import (
    FamilyTree,
    InvalidTreeError,
    ParentalBond,
    Person,
    Sex,
    UnknownPersonError,
)
from kisp.temporal import parse_date

from helpers import TreeOracle, eval_inverse_oracle, random_subset, random_term

P = parse_kin_term


@pytest.fixture(scope="module")
def oracle(smith_raw):
    return TreeOracle(smith_raw)


@pytest.fixture(scope="module")
def ids(smith_tree):
    return [p.id for p in smith_tree.persons]


# --- pinned examples -----------------------------------------------------------


def test_atom_lifting(smith_tree):
    assert eval_term(smith_tree, P("father"), {"eli"}) == {"bob"}
    assert eval_term(smith_tree, P("father"), {"eli", "hank"}) == {"bob", "carl"}
    assert eval_term(smith_tree, P("wife"), {"eve"}) == frozenset()


def test_brother_term_includes_self(smith_tree):
    assert eval_term(smith_tree, P("son (father | mother)"), {"eli"}) == {"eli"}


def test_uncle_term(smith_tree):
    term = P("son (father|mother) (father|mother)")
    assert eval_term(smith_tree, term, {"eli"}) == {"bob", "carl"}


def test_concat_applies_right_factor_first(smith_tree):
    # Dana's spouse is Bob; Bob's father is Adam.  The other order
    # (spouse of Dana's father) would be empty.
    assert eval_term(smith_tree, P("father (husband | wife)"), {"dana"}) == {"adam"}
    assert eval_term(smith_tree, P("(husband | wife) father"), {"dana"}) == frozenset()


def test_inverse_of_father(smith_tree):
    assert eval_term(smith_tree, P("father^-1"), {"bob"}) == {"eli", "fay"}
    assert eval_inverse_oracle(smith_tree, P("father"), {"bob"}) == {"eli", "fay"}


def test_dual_of_brother_is_sister(smith_tree):
    sisters = eval_term(smith_tree, P("(son (father | mother))^+"), {"eli"})
    assert sisters == eval_term(smith_tree, P("daughter (father | mother)"), {"eli"})
    assert sisters == {"fay"}


def test_empty_input_stays_empty(smith_tree):
    rng = random.Random(7)
    for _ in range(50):
        term = random_term(rng, budget=4)
        assert eval_term(smith_tree, term, frozenset()) == frozenset()


def test_unknown_person_rejected(smith_tree):
    with pytest.raises(UnknownPersonError):
        eval_term(smith_tree, P("father"), {"ghost"})


def test_invalid_tree_rejected():
    tree = FamilyTree(
        [
            Person("kid", "Kid", Sex.MALE, parse_date("01.01.1950")),
            Person("pa", "Pa", Sex.MALE, parse_date("01.01.1960")),
        ],
        [ParentalBond("pa", "kid")],
    )
    with pytest.raises(InvalidTreeError):
        eval_term(tree, P("father"), {"kid"})


# --- agreement with the independent oracle --------------------------------------


def test_matches_brute_force_oracle_on_random_terms(smith_tree, oracle, ids):
    rng = random.Random(2024)
    for _ in range(400):
        term = random_term(rng, budget=6)
        people = random_subset(rng, ids)
        assert eval_term(smith_tree, term, people) == oracle.eval(term, people)


# --- algebraic laws ---------------------------------------------------------------


def test_monotone_in_the_input(smith_tree, ids):
    rng = random.Random(11)
    for _ in range(150):
        term = random_term(rng, budget=5)
        small = random_subset(rng, ids)
        big = small | random_subset(rng, ids)
        assert eval_term(smith_tree, term, small) <= eval_term(smith_tree, term, big)


def test_distributes_over_input_union(smith_tree, ids):
    rng = random.Random(12)
    for _ in range(150):
        term = random_term(rng, budget=5)
        a = random_subset(rng, ids)
        b = random_subset(rng, ids)
        assert eval_term(smith_tree, term, a | b) == eval_term(
            smith_tree, term, a
        ) | eval_term(smith_tree, term, b)


def test_inverse_is_adjoint(smith_tree, ids):
    rng = random.Random(13)
    for _ in range(60):
        term = random_term(rng, budget=4)
        inverse = Inverse(term)
        for u in ids:
            preimage = eval_term(smith_tree, inverse, {u})
            expected = {v for v in ids if u in eval_term(smith_tree, term, {v})}
            assert preimage == expected


def test_dual_matches_pushed_dual(smith_tree, ids):
    rng = random.Random(14)
    for _ in range(150):
        term = Dual(random_term(rng, budget=5))
        people = random_subset(rng, ids)
        assert eval_term(smith_tree, term, people) == eval_term(
            smith_tree, push_dual(term), people
        )


def test_concat_distributes_over_fork(smith_tree, ids):
    rng = random.Random(15)
    for _ in range(100):
        t1 = random_term(rng, budget=2)
        t2 = random_term(rng, budget=2)
        t3 = random_term(rng, budget=2)
        people = random_subset(rng, ids)
        left = eval_term(smith_tree, Concat(Fork(t1, t2), t3), people)
        split = eval_term(smith_tree, Fork(Concat(t1, t3), Concat(t2, t3)), people)
        assert left == split
        right = eval_term(smith_tree, Concat(t3, Fork(t1, t2)), people)
        rsplit = eval_term(smith_tree, Fork(Concat(t3, t1), Concat(t3, t2)), people)
        assert right == rsplit


def test_fork_commutative_and_associative(smith_tree, ids):
    rng = random.Random(16)
    for _ in range(100):
        t1 = random_term(rng, budget=2)
        t2 = random_term(rng, budget=2)
        t3 = random_term(rng, budget=2)
        people = random_subset(rng, ids)
        assert eval_term(smith_tree, Fork(t1, t2), people) == eval_term(
            smith_tree, Fork(t2, t1), people
        )
        assert eval_term(smith_tree, Fork(Fork(t1, t2), t3), people) == eval_term(
            smith_tree, Fork(t1, Fork(t2, t3)), people
        )
