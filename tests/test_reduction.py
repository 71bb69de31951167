import random

import pytest

from kisp.reduction import (
    DictionaryError,
    ReducedTerm,
    ReductionDictionary,
    ReductionError,
    SearchBudgetError,
    UnknownWordError,
    expand,
    optimal_shorten,
    remaining_concats,
    shorten,
)
from kisp.semantics import eval_term
from kisp.terms import (
    Atom,
    Basic,
    Dual,
    concat_count,
    parse_kin_term,
    render,
    spine,
)

from helpers import random_term

P = parse_kin_term

CORE_MAPPINGS = [
    ("son (father | mother)", "brother"),
    ("daughter (father | mother)", "sister"),
    ("father (father | mother)", "grandfather"),
    ("mother (father | mother)", "grandmother"),
    ("son (son | daughter)", "grandson"),
    ("father (son | daughter) (wife | husband) (son | daughter)", "co-father-in-law"),
    ("daughter . husband", "daughter-in-law"),
    ("mother (husband | wife) (son | daughter)", "co-mother-in-law"),
]


# --- dictionary loading -----------------------------------------------------


def test_standard_dictionary_contents(standard_dict):
    assert len(standard_dict) == 16
    assert standard_dict.max_window == 4
    for _, word in CORE_MAPPINGS:
        assert word in standard_dict


def test_dictionary_parse_basics():
    d = ReductionDictionary.parse(
        """
        # comment
        father . mother => duo   # trailing comment
        son => boy
        """
    )
    assert len(d) == 2
    assert d.pattern_for("boy") == Basic(Atom.SON)


@pytest.mark.parametrize(
    "bad",
    [
        "father mother",  # no arrow
        "father => ",  # empty word
        "father => Boy",  # not lower case
        "father => two words",
        "father => grand_pa",
        "uncle => x",  # left side must be kin-term notation
        "father^-1 => back",  # inverse patterns not allowed
        "father^+ => flipped",  # dual patterns not allowed
        "father => a\nfather => b",  # duplicate pattern
        "father => a\nmother => a",  # duplicate word
        "father | mother => parent\nmother | father => again",  # same after fork sort
    ],
)
def test_dictionary_rejects(bad):
    with pytest.raises(DictionaryError):
        ReductionDictionary.parse(bad)


def test_dictionary_missing_file():
    with pytest.raises(DictionaryError):
        ReductionDictionary.load("/no/such/file.dict")


# --- greedy shorten -----------------------------------------------------------


@pytest.mark.parametrize("src,word", CORE_MAPPINGS)
def test_core_mappings_reduce_to_single_word(standard_dict, src, word):
    assert shorten(standard_dict, P(src)) == ReducedTerm((word,))


def test_unmatched_atom_passes_through(standard_dict):
    assert shorten(standard_dict, P("father")) == ReducedTerm((Basic(Atom.FATHER),))


def test_uncle_term_prefers_longest_match(standard_dict):
    # the three-segment window wins over the two-segment "brother" prefix
    assert shorten(standard_dict, P("son (father|mother) (father|mother)")) == ReducedTerm(
        ("uncle",)
    )


def test_fork_operand_order_ignored(standard_dict):
    assert shorten(standard_dict, P("son (mother | father)")) == ReducedTerm(("brother",))


def test_partial_match_keeps_remainder(standard_dict):
    reduced = shorten(standard_dict, P("father . father (father|mother)"))
    assert reduced.segments == (Basic(Atom.FATHER), "grandfather")
    assert str(reduced) == "father of grandfather"
    assert remaining_concats(reduced) == 1


def test_leftmost_wins_among_equal_lengths():
    d = ReductionDictionary.parse("father . mother => left\nmother . son => right")
    reduced = shorten(d, P("father mother son"))
    assert reduced.segments == ("left", Basic(Atom.SON))


def test_shorten_normalizes_dual(standard_dict):
    reduced = shorten(standard_dict, Dual(P("son (father | mother)")))
    assert reduced == ReducedTerm(("sister",))


def test_shorten_rejects_inverse(standard_dict):
    with pytest.raises(ReductionError):
        shorten(standard_dict, P("father^-1"))


@pytest.mark.parametrize("reduce", [shorten, optimal_shorten])
def test_term_too_long_for_the_stack_is_reduction_error(standard_dict, reduce):
    term = P(" ".join(["son", "(father | mother)"] * 1500))
    with pytest.raises(ReductionError, match="kin term too long or nested too deeply"):
        reduce(standard_dict, term)
    assert shorten(standard_dict, P("son (father | mother)")) == ReducedTerm(("brother",))


def test_greedy_never_lengthens(standard_dict):
    rng = random.Random(99)
    for _ in range(200):
        term = random_term(rng, budget=6, allow_inverse=False, allow_dual=False)
        reduced = shorten(standard_dict, term)
        assert 1 <= len(reduced.segments) <= len(spine(term))
        assert remaining_concats(reduced) <= concat_count(term)


# --- expand ---------------------------------------------------------------------


def test_expand_single_word(standard_dict):
    assert render(expand(standard_dict, ReducedTerm(("grandfather",)))) == (
        "(father . (father | mother))"
    )
    assert expand(standard_dict, ReducedTerm((Basic(Atom.FATHER),))) == Basic(Atom.FATHER)


def test_expand_unknown_word(standard_dict):
    with pytest.raises(UnknownWordError):
        expand(standard_dict, ReducedTerm(("stepmother",)))


def test_expand_rejects_empty(standard_dict):
    with pytest.raises(ReductionError):
        expand(standard_dict, ReducedTerm(()))


def test_round_trip_preserves_semantics(standard_dict, smith_tree):
    rng = random.Random(4242)
    ids = [p.id for p in smith_tree.persons]
    for _ in range(60):
        term = random_term(rng, budget=6, allow_inverse=False, allow_dual=False)
        back = expand(standard_dict, shorten(standard_dict, term))
        for pid in ids:
            assert eval_term(smith_tree, back, {pid}) == eval_term(
                smith_tree, term, {pid}
            )


# --- exhaustive oracle ------------------------------------------------------------


def test_optimal_matches_greedy_on_plain_patterns(standard_dict):
    for src, word in CORE_MAPPINGS:
        assert optimal_shorten(standard_dict, P(src)) == ReducedTerm((word,))


def test_optimal_on_atom(standard_dict):
    assert optimal_shorten(standard_dict, Basic(Atom.WIFE)) == ReducedTerm(
        (Basic(Atom.WIFE),)
    )


def test_optimal_never_worse_than_greedy(standard_dict):
    rng = random.Random(321)
    for _ in range(60):
        term = random_term(rng, budget=5, allow_inverse=False, allow_dual=False)
        greedy = shorten(standard_dict, term)
        optimal = optimal_shorten(standard_dict, term)
        assert remaining_concats(optimal) <= remaining_concats(greedy)


def test_greedy_trap_beats_greedy(trap_dict):
    term = P("father mother son daughter wife")
    greedy = shorten(trap_dict, term)
    optimal = optimal_shorten(trap_dict, term)
    assert greedy.segments == (Basic(Atom.FATHER), "blocker", Basic(Atom.WIFE))
    assert optimal.segments == ("left-pair", "right-pair")
    assert remaining_concats(greedy) == 2
    assert remaining_concats(optimal) == 1


def test_budget_overflow(standard_dict):
    term = P(" ".join(["son (father|mother)"] * 8))
    with pytest.raises(SearchBudgetError):
        optimal_shorten(standard_dict, term, budget=3)


def test_reduced_term_str_and_words(trap_dict):
    term = P("father mother son daughter wife")
    reduced = shorten(trap_dict, term)
    assert str(reduced) == "father of blocker of wife"
    assert reduced.words == ("blocker",)
