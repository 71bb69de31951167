import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kisp.terms import (
    Atom,
    Basic,
    Concat,
    Dual,
    Fork,
    Inverse,
    KinTermError,
    MAX_NESTING,
    canonical,
    concat_count,
    contains_dual,
    contains_inverse,
    from_spine,
    parse_kin_term,
    push_dual,
    render,
    spine,
    walk,
)

from helpers import random_term, recursive_walk

FATHER = Basic(Atom.FATHER)
MOTHER = Basic(Atom.MOTHER)
SON = Basic(Atom.SON)
DAUGHTER = Basic(Atom.DAUGHTER)
HUSBAND = Basic(Atom.HUSBAND)
WIFE = Basic(Atom.WIFE)


# random ASTs via hypothesis for round-trip/structural laws
def term_trees(max_leaves=12):
    return st.recursive(
        st.sampled_from([Basic(a) for a in Atom]),
        lambda inner: st.one_of(
            st.builds(Concat, inner, inner),
            st.builds(Fork, inner, inner),
            st.builds(Inverse, inner),
            st.builds(Dual, inner),
        ),
        max_leaves=max_leaves,
    )


# --- parsing ------------------------------------------------------------


def test_parse_single_atom():
    assert parse_kin_term("father") == FATHER


def test_parse_brother_shape():
    assert parse_kin_term("son (father | mother)") == Concat(
        SON, Fork(FATHER, MOTHER)
    )


def test_parse_explicit_concat_dot():
    assert parse_kin_term("(daughter . husband)") == Concat(DAUGHTER, HUSBAND)


def test_concat_is_right_grouping():
    assert parse_kin_term("son father mother") == Concat(
        SON, Concat(FATHER, MOTHER)
    )
    assert parse_kin_term("son . father . mother") == Concat(
        SON, Concat(FATHER, MOTHER)
    )


def test_fork_is_left_grouping():
    assert parse_kin_term("son | daughter | father") == Fork(
        Fork(SON, DAUGHTER), FATHER
    )


def test_concat_binds_tighter_than_fork():
    assert parse_kin_term("son father | mother") == Fork(
        Concat(SON, FATHER), MOTHER
    )


def test_postfix_operators():
    assert parse_kin_term("father^-1") == Inverse(FATHER)
    assert parse_kin_term("father^+") == Dual(FATHER)
    assert parse_kin_term("father^-1^+") == Dual(Inverse(FATHER))
    assert parse_kin_term("(son father)^+") == Dual(Concat(SON, FATHER))


def test_whitespace_and_juxtaposition_equivalent():
    assert parse_kin_term("son(father|mother)") == parse_kin_term(
        "son . (father | mother)"
    )


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "   ",
        "uncle",
        "father (",
        "(father",
        "father)",
        "()",
        "father ^",
        "father ^2",
        "father |",
        "| mother",
        "father . . mother",
        "father & mother",
    ],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(KinTermError):
        parse_kin_term(bad)


def test_parse_error_carries_position():
    with pytest.raises(KinTermError) as exc:
        parse_kin_term("father uncle")
    assert exc.value.position == 7


def test_parse_nested_past_the_stack_is_positioned_error():
    src = "(" * 1200 + "father" + ")" * 1200
    with pytest.raises(KinTermError, match="nested too deeply") as exc:
        parse_kin_term(src)
    assert 0 < exc.value.position < 1200
    assert src[exc.value.position] == "("


def test_parse_moderate_nesting():
    assert parse_kin_term("(" * 50 + "father" + ")" * 50) == FATHER


# --- rendering ------------------------------------------------------------


def test_render_examples():
    assert render(WIFE) == "wife"
    assert render(Fork(SON, DAUGHTER)) == "(son | daughter)"
    assert render(Dual(Concat(SON, FATHER))) == "(son . father)^+"
    assert render(Inverse(Fork(FATHER, MOTHER))) == "(father | mother)^-1"


@given(term_trees())
def test_parse_render_round_trip(term):
    assert parse_kin_term(render(term)) == term


def test_seeded_random_round_trip():
    rng = random.Random(1234)
    for _ in range(300):
        term = random_term(rng, budget=6)
        assert parse_kin_term(render(term)) == term


# --- dual elimination ------------------------------------------------------


def test_push_dual_flips_single_atom():
    assert push_dual(Dual(FATHER)) == MOTHER
    assert push_dual(Dual(WIFE)) == HUSBAND


def test_push_dual_distributes_and_preserves_operand_order():
    term = Dual(Concat(SON, Fork(FATHER, MOTHER)))
    assert push_dual(term) == Concat(DAUGHTER, Fork(MOTHER, FATHER))


def test_push_dual_commutes_with_inverse():
    assert push_dual(Dual(Inverse(SON))) == Inverse(DAUGHTER)


def test_push_dual_noop_without_dual():
    term = Concat(SON, Fork(FATHER, Inverse(MOTHER)))
    assert push_dual(term) == term


@given(term_trees())
def test_push_dual_output_is_dual_free(term):
    assert not contains_dual(push_dual(term))


@given(term_trees())
def test_push_dual_double_dual_cancels(term):
    assert push_dual(Dual(Dual(term))) == push_dual(term)


def test_atom_opposite_is_involution():
    for atom in Atom:
        assert atom.opposite.opposite is atom
        assert atom.opposite is not atom


# --- size measure ------------------------------------------------------------


def test_concat_count_examples():
    assert concat_count(SON) == 0
    assert concat_count(Concat(SON, Fork(FATHER, MOTHER))) == 1
    uncle = parse_kin_term("son (father|mother) (father|mother)")
    assert concat_count(uncle) == 2


@given(term_trees())
def test_concat_count_invariant_under_push_dual(term):
    assert concat_count(push_dual(term)) == concat_count(term)


# --- spine and canonical form -------------------------------------------------


def test_spine_flattens_concats():
    term = parse_kin_term("son (father|mother) (father|mother)")
    assert spine(term) == (SON, Fork(FATHER, MOTHER), Fork(FATHER, MOTHER))


def test_from_spine_rebuilds_right_grouped():
    segs = (SON, FATHER, MOTHER)
    assert from_spine(segs) == Concat(SON, Concat(FATHER, MOTHER))
    assert spine(from_spine(segs)) == segs


def test_from_spine_rejects_empty():
    with pytest.raises(ValueError):
        from_spine(())


def test_canonical_sorts_fork_operands():
    a = parse_kin_term("son (father | mother)")
    b = parse_kin_term("son (mother | father)")
    assert canonical(a) == canonical(b)
    assert render(canonical(a)) == "(son . (father | mother))"


def test_canonical_flattens_nested_forks():
    a = parse_kin_term("(son | daughter) | father")
    b = parse_kin_term("father | (daughter | son)")
    assert canonical(a) == canonical(b)


def test_canonical_regroups_concat_right():
    a = parse_kin_term("(son . father) . mother")
    b = parse_kin_term("son . (father . mother)")
    assert canonical(a) == canonical(b)


@given(term_trees())
def test_canonical_is_idempotent(term):
    assert canonical(canonical(term)) == canonical(term)


def test_contains_checks():
    assert contains_inverse(parse_kin_term("(son father^-1)"))
    assert not contains_inverse(parse_kin_term("son father"))
    assert contains_dual(parse_kin_term("son^+"))
    assert not contains_dual(parse_kin_term("son^-1"))


@given(term_trees(max_leaves=40))
def test_walk_is_the_recursive_preorder(term):
    # the same nodes, not only equal ones, in the same order
    assert [id(t) for t in walk(term)] == [id(t) for t in recursive_walk(term)]


def test_walk_and_contains_return_on_a_100k_factor_chain():
    chain = from_spine([SON] * 100_000)
    assert sum(1 for _ in walk(chain)) == 2 * 100_000 - 1
    assert not contains_dual(chain) and not contains_inverse(chain)
    assert contains_dual(from_spine([SON] * 99_999 + [Dual(SON)]))
    assert contains_inverse(from_spine([SON] * 99_999 + [Inverse(SON)]))
    nested = SON
    for _ in range(100_000):
        nested = Dual(nested)
    assert contains_dual(nested) and not contains_inverse(nested)


def _in_deep_stack(frames, fn):
    return fn() if frames == 0 else _in_deep_stack(frames - 1, fn)


def test_nesting_limit_is_a_property_of_the_text():
    src = "(" * 1200 + "father" + ")" * 1200

    def position():
        with pytest.raises(KinTermError, match="nested too deeply") as exc:
            parse_kin_term(src)
        return exc.value.position

    assert position() == MAX_NESTING  # the first '(' past the limit
    assert _in_deep_stack(300, position) == MAX_NESTING


def test_text_at_the_nesting_limit_parses():
    for src in ("(" * MAX_NESTING + "father" + ")" * MAX_NESTING,
                "(father " * MAX_NESTING + "mother" + ")" * MAX_NESTING):
        assert parse_kin_term(src) == _in_deep_stack(300, lambda: parse_kin_term(src))
